"""Tests of the benchmark itself: its model summands, its checks, its output.

    python3 -m pytest -q bench/test_bench.py

Each planted-fault test replaces one output of one item with a wrong
value and shows that the check catches it, that the item counts as
failed, and that the round still runs every other item.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
from tracing import METRICS as LAYER_METRICS, Tracer
from workloads import WORKLOADS, Item, model


@pytest.fixture(scope="module")
def hfl():
    return run.import_hfl()


@pytest.mark.parametrize("kind,lam", [("B", 0), ("V", 1), ("V", 3), ("H", 2), ("X", 1),
                                      ("X", 3), ("Y", 0), ("Y", 2)])
def test_models_match_the_package(hfl, kind, lam):
    cells, arrows, c1, c2 = model(kind, lam)
    cx = hfl.summands.build_summand(hfl.summands.Summand(kind, 0, lam, (0, 0)))
    place = {name: (d, h2) for name, d, h2 in cells}
    assert sorted(place.values()) == sorted((cx.maslov(g), cx.filt2(g)) for g in cx.gen_ids)
    at = {(cx.maslov(g), cx.filt2(g)): g for g in cx.gen_ids}
    assert {(at[place[a]], at[place[b]]) for a, b in arrows} == set(cx.arrows)
    survivors = (len(hfl.filtered.component_homology(cx, 1)),
                 len(hfl.filtered.component_homology(cx, 2)))
    assert survivors == (c1, c2)


def _round(hfl, name, items, plant=None):
    """Run one round over the items, passing the first item's output
    through ``plant``; return the failure of each item."""
    workload = WORKLOADS[name]

    class Planted(type(workload)):
        def run(self, hfl, item):
            out = super().run(hfl, item)
            return plant(hfl, out) if plant and item is items[0] else out

    return [s[3] for s in run.run_round(Planted(), hfl, items)]


def _table(hfl, table, change):
    ranks = dict(table.ranks)
    change(ranks)
    return hfl.filtered.MultiGradedVS(table.nvars, table.parity, ranks)


def _bump(ranks):
    key = min(ranks)
    ranks[key] += 1


def _lift_one(ranks):
    # move one cell up by one Maslov grading, keeping the total rank
    key = min(k for k in ranks if any(k[1]))
    ranks[(key[0] + 1, key[1])] = ranks.pop(key)


def _report(change):
    return lambda hfl, res: dataclasses.replace(res, **change(hfl, res))


def _pairs(*args):
    return [Item(f"item{i}", a) for i, a in enumerate(args)]


TORUS, FIG8, BORROMEAN = (("torus", 3), False), (("braid3", 2), False), (("braid3", 3), False)
ALT = [
    ([TORUS, BORROMEAN], _report(lambda h, r: {"sigma": r.sigma + 2}), "sigma"),
    ([TORUS, BORROMEAN], _report(lambda h, r: {"delta": r.delta.shift((2, 0))}), "Delta"),
    ([TORUS, FIG8], _report(lambda h, r: {"table": _table(h, r.table, _bump)}), "total rank"),
    ([BORROMEAN, TORUS], _report(lambda h, r: {"sigma": 2}), "sigma"),
    ([FIG8, TORUS], lambda h, res: _table(h, res, _lift_one), "diagonal"),
    ([(("braid4", 2), True), TORUS],
     _report(lambda h, r: {"table": _table(h, r.table, _bump)}), "total rank"),
]


def _drop_generator(hfl, cx):
    gone = cx.gen_ids[0]
    return hfl.filtered.FilteredComplex(
        cx.nvars, cx.parity, [g for g in cx.gens() if g[0] != gone],
        [a for a in cx.arrows if gone not in a])


def _drop_arrows(hfl, cx):
    return hfl.filtered.FilteredComplex(cx.nvars, cx.parity, cx.gens(), [])


def _bad_arrow(hfl, cx):
    # an arrow between two generators of one Maslov grading
    ids = cx.gen_ids
    pair = next((g, h) for g in ids for h in ids if g != h and cx.maslov(g) == cx.maslov(h))
    return hfl.filtered.FilteredComplex(cx.nvars, cx.parity, cx.gens(), [*cx.arrows, pair])


def _summand(hfl, kind):
    return hfl.summands.Summand(kind, 0, 0 if kind == "B" else 1, (0, 0))


CFL2 = [
    (lambda h, out: (out[0], [_summand(h, "V")] + out[1][1:]), "staircase"),
    (lambda h, out: (_drop_generator(h, out[0]), out[1]), "generators"),
    (lambda h, out: (out[0], out[1] + [_summand(h, "B")]), "summands hold"),
    (lambda h, out: (_drop_arrows(h, out[0]), out[1]), "total homology"),
]


def _part(i, change):
    """Plant ``change`` into part ``i`` of an output tuple."""
    def plant(hfl, out):
        out = list(out)
        out[i] = change(hfl, out[i])
        return tuple(out)
    return plant


BIGON = [
    (_part(0, lambda h, d: dataclasses.replace(d, alpha=d.alpha[1:])), "intersections"),
    (_part(0, lambda h, d: dataclasses.replace(d, regions=d.regions[1:])), "regions"),
    (_part(3, lambda h, a: False), "admissible"),
    (_part(1, _drop_generator), "generators"),
    (_part(1, _bad_arrow), "chain complex"),
    (_part(2, lambda h, t: _table(h, t, _bump)), "total rank"),
    (_part(2, lambda h, t: _table(h, t, _lift_one)), "symmetric"),
    (_part(4, lambda h, t: _table(h, t, _lift_one)), "oracle:"),
]


def _shift_first(hfl, summands):
    s = summands[0]
    return [dataclasses.replace(s, shift2=(s.shift2[0] + 2, s.shift2[1]))] + summands[1:]


def _last_page(hfl, pages):
    return pages[:-1] + [_table(hfl, pages[-1], _bump)]


ALGEBRA = [
    (_part(0, _shift_first), "seeded summands"),
    (_part(1, lambda h, p: [_table(h, p[0], _bump)] + p[1:]), "E1 rank"),
    (_part(1, _last_page), "last page"),
    (_part(2, _drop_generator), "component homology"),
    (_part(4, lambda h, t: _table(h, t, _bump)), "tensor rank"),
]


@pytest.mark.parametrize("specs,plant,why", ALT)
def test_alt_tables_checks(hfl, specs, plant, why):
    items = [WORKLOADS["alt_tables"].item(hfl, *spec) for spec in specs]
    assert _round(hfl, "alt_tables", items) == [None, None]
    failures = _round(hfl, "alt_tables", items, plant)
    assert why in failures[0] and failures[1:] == [None]


def test_alt_tables_checks_the_diagram(hfl):
    workload = WORKLOADS["alt_tables"]
    knot = workload.item(hfl, ("two_bridge", 41, 12), False)
    wrong = Item(knot.key, knot.args[:2] + (hfl.linkdiag.corpus("hopf_plus"),))
    failures = _round(hfl, "alt_tables", [wrong, knot])
    assert "components" in failures[0] and failures[1:] == [None]


@pytest.mark.parametrize("plant,why", CFL2)
def test_cfl2_checks(hfl, plant, why):
    failures = _round(hfl, "cfl2_two_bridge", _pairs((8, 3), (4, 1)), plant)
    assert why in failures[0] and failures[1:] == [None]


@pytest.mark.parametrize("plant,why", BIGON)
def test_bigon_checks(hfl, plant, why):
    failures = _round(hfl, "bigon_oracle", _pairs((6, 1), (4, 1)), plant)
    assert why in failures[0] and failures[1:] == [None]


@pytest.fixture(scope="module")
def algebra_items(hfl):
    return WORKLOADS["complex_algebra"].items(hfl, 7)[:2]


@pytest.mark.parametrize("plant,why", ALGEBRA)
def test_complex_algebra_checks(hfl, algebra_items, plant, why):
    failures = _round(hfl, "complex_algebra", algebra_items, plant)
    assert why in failures[0] and failures[1:] == [None]


def test_known_faults_are_recognised(hfl):
    for name, args in (("cfl2_two_bridge", (34, 13)), ("bigon_oracle", (14, 5))):
        workload = WORKLOADS[name]
        item = Item(f"b{args}".replace(" ", ""), args)
        (sample,) = run.run_round(workload, hfl, [item])
        assert sample[3] is not None
        assert run.unexpected_failures(workload, {item.key: sample[3]}) == {}
        assert run.unexpected_failures(workload, {"b(4,1)": sample[3]}) != {}


def test_counts_repeat_between_traced_rounds(hfl):
    workload = WORKLOADS["cfl2_two_bridge"]
    items = workload.items(hfl, 3)[:12]
    tracer = Tracer(hfl)
    rows = []
    for _ in range(2):
        start = tracer.mark()
        tracer.install()
        try:
            samples = run.run_round(workload, hfl, items, tracer)
        finally:
            tracer.uninstall()
        item_time = sum(s[0] for s in samples)
        rows.append(tracer.round_metrics(start, tracer.mark(), {i.key: 1.0 for i in items},
                                         item_time))
        assert all(s[3] is None for s in samples)
    counted = [name for name, unit in LAYER_METRICS if unit in ("count", "ratio")]
    assert [rows[0][k] for k in counted] == [rows[1][k] for k in counted]
    assert rows[0]["homology.widths_tried"] > 0 and rows[0]["laurent.mul_calls"] > 0
    assert rows[0]["alexander.fox_calls"] == 3 * len(items)   # the link and each component
    assert 0 < rows[-1]["trace.coverage"] <= 100
    assert hfl.homology.two_component_cfl.__module__ == "hfl.homology"   # unwrapped again


def test_run_prints_metrics_last():
    here = os.path.dirname(os.path.abspath(__file__))
    res = subprocess.run([sys.executable, os.path.join(here, "run.py"), "--workload",
                          "alt_tables", "--seed", "2", "--seconds", "0.1", "--trace", "0"],
                         capture_output=True, text=True, timeout=170)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.strip().splitlines()[-1])
    assert sorted(out) == ["attempted", "correct", "failed", "metrics"]
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 40
    assert sorted(out["metrics"]) == sorted(["items_per_s", "item_ms_p50", "item_ms_tail",
                                             "cost_ref", "peak_rss_mb", "setup_s"])
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_run_without_the_package_fails(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(here, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    res = subprocess.run([sys.executable, "bench/run.py", "--workload", "alt_tables",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert res.returncode != 0
    assert "correct" not in res.stdout

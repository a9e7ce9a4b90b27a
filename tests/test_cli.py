import dataclasses
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import hfl
from helpers import golden_diagram
from hfl import alexander, cli, heegaard, homology, linkdiag
from hfl.cli import _two_bridge_params, main
from hfl.filtered import FilteredComplex, MultiGradedVS, assoc_graded_homology
from hfl.heegaard import complex_from_diagram, two_bridge_diagram
from hfl.homology import hfl_alternating
from hfl.laurent import MultiLaurent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_alexander_json_matches_schema(capsys):
    code, out, _ = run(capsys, "alexander", "corpus:hopf_plus", "--json")
    assert code == 0
    assert json.loads(out) == {"l": 2, "terms": [{"c": 1, "e2": [0, 0]}]}


def test_json_output_is_byte_stable(capsys):
    _, first, _ = run(capsys, "table", "corpus:two_bridge(8,3)", "--json")
    _, second, _ = run(capsys, "table", "corpus:two_bridge(8,3)", "--json")
    assert first == second


def test_signature(capsys):
    code, out, _ = run(capsys, "signature", "corpus:hopf_plus")
    assert code == 0 and out.strip() == "sigma = -1"
    code, out, _ = run(capsys, "signature", "corpus:torus_2_2n(2)", "--json")
    assert code == 0 and json.loads(out) == {"sigma": -3}


def test_table_knot_and_link(capsys):
    code, out, _ = run(capsys, "table", "corpus:unknot")
    assert code == 0 and out.strip() == "h=(0)  d=0  rank=1"
    code, out, _ = run(capsys, "table", "corpus:hopf_plus", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["l"] == 2 and payload["sigma"] == -1
    assert payload["euler_ok"] and payload["symmetry_ok"]


def test_table_halves_in_human_output(capsys):
    _, out, _ = run(capsys, "table", "corpus:hopf_plus")
    assert "h=(1/2,1/2)  d=0  rank=1" in out


def test_table_refuses_nonalternating_with_hint(capsys):
    code, _, err = run(capsys, "table", "corpus:L7n2")
    assert code == 1
    assert "non-alternating" in err
    assert "hfl fixture L7n2" in err
    code, out, _ = run(capsys, "table", "corpus:L7n2", "--json")
    assert code == 1 and "non-alternating" in json.loads(out)["error"]


def nonalt_knot_file(tmp_path):
    # positive 3-braid closure of the trefoil; one component, not alternating
    path = tmp_path / "knot.pd"
    path.write_text(linkdiag.braid_closure([1, 2, 1, 2], 3).to_pd_text())
    return str(path)


def test_nonalternating_knot_refused_like_a_link(capsys, tmp_path):
    knot = nonalt_knot_file(tmp_path)
    for argv in (["table", knot], ["collapse", knot], ["kunneth", "corpus:hopf_plus", knot]):
        code, _, err = run(capsys, *argv)
        assert code == 1 and err.startswith("error: non-alternating: "), argv


def test_collapse_and_kunneth_name_the_fixture(capsys):
    for argv in (["collapse", "corpus:L7n2"], ["kunneth", "corpus:L7n2", "corpus:hopf_plus"]):
        code, _, err = run(capsys, *argv)
        assert code == 1 and "non-alternating" in err and "hfl fixture L7n2" in err, argv


def test_check_refuses_a_nonalternating_knot(monkeypatch):
    monkeypatch.setattr(linkdiag, "corpus", lambda name: linkdiag.braid_closure([1, 2, 1, 2], 3))
    rows = {row["check"]: row for row in cli._check_rows("knot")}
    assert list(rows) == ["alexander", "refusal"]
    assert rows["refusal"]["ok"] is True, rows["refusal"]["detail"]


def test_knot_table_computes_delta_and_sigma_once(capsys, monkeypatch):
    calls = Counter()
    for name in ("multivariable_alexander", "signature"):
        def counted(*args, _real=getattr(alexander, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        for module in (alexander, homology, cli):
            monkeypatch.setattr(module, name, counted)
    code, _, _ = run(capsys, "table", "corpus:figure8", "--json")
    assert code == 0
    assert calls == {"multivariable_alexander": 1, "signature": 1}


# `hfl table <input> --json`, recorded while the table and its euler_hat
# check each built their own Euler target
TABLE_GOLDEN = json.loads((Path(__file__).parent / "data" / "table_golden.json").read_text())


@pytest.mark.parametrize("name", list(TABLE_GOLDEN))
def test_table_multiplies_by_the_spin_product_once(capsys, monkeypatch, tmp_path, name):
    spins, products = [], Counter()

    def built(nvars, _real=homology.spin_product):
        spins.append(_real(nvars))
        return spins[-1]

    def mul(self, other, _real=MultiLaurent.__mul__):
        products[any(x is s for s in spins for x in (self, other))] += 1
        return _real(self, other)

    monkeypatch.setattr(homology, "spin_product", built)
    monkeypatch.setattr(MultiLaurent, "__mul__", mul)
    d = golden_diagram(name)
    once = 1 if d.n_components > 1 else 0
    rep = hfl_alternating(d)
    assert len(spins) == products[True] == once
    want = TABLE_GOLDEN[name]
    assert rep.delta.to_json_dict() == want["delta"]
    assert rep.table.to_json_dict() == want["table"]
    assert rep.euler_ok and rep.symmetry_ok
    if once:
        assert rep.euler.to_json_dict() == want["euler"]
    path = tmp_path / "link.pd"
    path.write_text(d.to_pd_text())
    code, out, _ = run(capsys, "table", str(path), "--json")
    assert code == 0 and json.loads(out) == want
    assert len(spins) == products[True] == 2 * once


def test_knot_table_json_keys(capsys):
    code, out, _ = run(capsys, "table", "corpus:figure8", "--json")
    payload = json.loads(out)
    assert code == 0 and set(payload) == {"l", "sigma", "delta", "table"}
    rep = hfl_alternating(linkdiag.corpus("figure8"))
    assert payload == json.loads(json.dumps({
        "l": 1, "sigma": rep.sigma, "delta": rep.delta.to_json_dict(),
        "table": rep.table.to_json_dict(),
    }))


def test_cfl2_emits_complex_and_summands(capsys):
    code, out, _ = run(capsys, "cfl2", "corpus:two_bridge(8,3)", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["complex"]["gens"]) == 16
    kinds = sorted(s["kind"] for s in payload["summands"])
    assert kinds == ["B", "B", "B", "X", "Y"]


def test_cfl2_needs_two_components(capsys):
    code, _, err = run(capsys, "cfl2", "corpus:trefoil_right")
    assert code == 1 and "two-component" in err


def test_spectral_pages(capsys):
    code, out, _ = run(capsys, "ss", "corpus:hopf_plus", "--json")
    assert code == 0
    ranks = [page["total_rank"] for page in json.loads(out)["pages"]]
    assert ranks == [4, 2]
    code, out, _ = run(capsys, "ss", "fixture:l7n1", "--json")
    ranks = [page["total_rank"] for page in json.loads(out)["pages"]]
    assert code == 0 and ranks[0] == 10 and ranks[-1] == 2


def test_collapse(capsys):
    code, out, _ = run(capsys, "collapse", "corpus:trefoil_right")
    assert code == 0
    assert out.splitlines() == [
        "s=-1  d=-2  rank=1",
        "s=0  d=-1  rank=1",
        "s=1  d=0  rank=1",
    ]


def test_kunneth_matches_direct_computation(capsys):
    code, out, _ = run(capsys, "kunneth", "corpus:hopf_plus", "corpus:hopf_plus", "--json")
    assert code == 0
    merged = linkdiag.connected_sum(
        linkdiag.corpus("hopf_plus"), linkdiag.corpus("hopf_plus")
    )
    assert json.loads(out) == hfl_alternating(merged).table.to_json_dict()


def test_heegaard_summary_and_complex(capsys):
    code, out, _ = run(capsys, "heegaard", "4", "1")
    assert code == 0
    assert "8 generators" in out and "oracle match: True" in out
    code, out, _ = run(capsys, "heegaard", "4", "1", "--emit-complex")
    assert code == 0
    want = complex_from_diagram(two_bridge_diagram(4, 1)).to_json_dict()
    assert json.loads(out) == json.loads(json.dumps(want))


def test_heegaard_reports_the_diagram_orientation(capsys):
    # linkdiag orients b(14,5) opposite to the diagram; the oracle follows
    # the diagram, and the --json keys stay as they were
    code, out, _ = run(capsys, "heegaard", "14", "5")
    assert code == 0 and "oracle match: True" in out
    code, out, _ = run(capsys, "heegaard", "14", "5", "--json")
    assert code == 0
    assert json.loads(out) == {"p": 14, "q": 5, "generators": 28, "regions": 30,
                               "admissible": True, "oracle_match": True}


def test_heegaard_prints_the_first_differing_cell(capsys, monkeypatch):
    real = hfl_alternating(linkdiag.two_bridge(8, 3))
    ranks = {cell: r + 1 for cell, r in real.table.ranks.items()}
    wrong = MultiGradedVS(real.table.nvars, real.table.parity, ranks)
    monkeypatch.setattr(heegaard, "hfl_alternating",
                        lambda link: dataclasses.replace(real, table=wrong))
    code, out, _ = run(capsys, "heegaard", "8", "3")
    assert code == 0 and "oracle match: False" in out
    first = min(ranks, key=lambda cell: (cell[1], cell[0]))
    assert f"d={first[0]}: bigon rank {ranks[first] - 1}, alternating rank {ranks[first]}" in out
    code, out, _ = run(capsys, "heegaard", "8", "3", "--json")
    assert json.loads(out)["oracle_match"] is False


def test_two_bridge_params_from_corpus_names():
    assert _two_bridge_params("hopf_plus") == (2, 1)
    assert _two_bridge_params("torus_2_2n(3)") == (6, 1)
    assert _two_bridge_params("two_bridge(14,5)") == (14, 5)
    for name in ("hopf_minus", "two_bridge(7,3)", "figure8", "unknot", "L7n1"):
        assert _two_bridge_params(name) is None


def test_check_runs_the_oracle_on_any_two_bridge_link(capsys):
    code, out, _ = run(capsys, "check", "corpus:two_bridge(14,5)", "--json")
    assert code == 0
    rows = {row["check"]: row for row in json.loads(out)["results"]}
    assert rows["heegaard"] == {"link": "two_bridge(14,5)", "check": "heegaard",
                                "ok": True, "detail": None}


def test_heegaard_rejects_bad_parameters(capsys):
    code, _, err = run(capsys, "heegaard", "4", "2")
    assert code == 1 and "coprime" in err


def test_check_suite_passes_on_corpus(capsys):
    code, out, _ = run(capsys, "check", "corpus:all", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["failures"] == 0
    seen = {(row["link"], row["check"]) for row in payload["results"]}
    assert ("hopf_plus", "heegaard") in seen
    assert ("L7n2", "refusal") in seen
    assert ("figure8", "euler-minus") in seen


def test_check_single_link(capsys):
    code, out, _ = run(capsys, "check", "corpus:figure8")
    assert code == 0
    assert "failures: 0" in out
    assert run(capsys, "check", "figure8") == (code, out, "")


def test_check_is_deterministic(capsys):
    _, first, _ = run(capsys, "check", "corpus:hopf_minus", "--json")
    _, second, _ = run(capsys, "check", "corpus:hopf_minus", "--json")
    assert first == second


def test_corpus_listing_and_entry(capsys):
    code, out, _ = run(capsys, "corpus")
    assert code == 0
    assert out.split() == list(linkdiag.CORPUS_NAMES)
    code, out, _ = run(capsys, "corpus", "figure8", "--json")
    payload = json.loads(out)
    assert payload["components"] == 1 and payload["crossings"] == 4
    assert payload["alternating"] is True


def test_fixture_listing_and_emission(capsys):
    code, out, _ = run(capsys, "fixture", "--list")
    assert code == 0 and "l7n2" in out.split()
    code, out, _ = run(capsys, "fixture", "L7n2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["gens"]) == 16


def test_fixture_directory_override(capsys, tmp_path, monkeypatch):
    _, out, _ = run(capsys, "fixture", "hopf_plus", "--json")
    (tmp_path / "other.json").write_text(out)
    monkeypatch.setenv("HFL_CORPUS_DIR", str(tmp_path))
    code, out2, _ = run(capsys, "fixture", "other", "--json")
    assert code == 0 and json.loads(out2) == json.loads(out)
    code, _, err = run(capsys, "fixture", "hopf_plus")
    assert code == 1 and "hopf_plus.json" in err


def test_pd_file_input(capsys, tmp_path):
    path = tmp_path / "link.pd"
    path.write_text(linkdiag.corpus("trefoil_right").to_pd_text())
    code, out, _ = run(capsys, "signature", str(path))
    assert code == 0 and out.strip() == "sigma = -2"


def test_missing_input_file(capsys):
    code, _, err = run(capsys, "table", "/no/such/file.pd")
    assert code == 1 and "no such input" in err


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_non_integral_label_refused(capsys, tmp_path):
    path = tmp_path / "half.pd"
    path.write_text("PD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,3.5]]")
    code, out, err = run(capsys, "alexander", str(path))
    assert code == 1 and out == "" and "edge label '3.5'" in err


def test_non_integral_label_refused_as_json(capsys, tmp_path):
    path = tmp_path / "half.pd"
    path.write_text("PD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,2.5]]")
    code, out, _ = run(capsys, "alexander", str(path), "--json")
    assert code == 1
    assert json.loads(out) == {"error": "crossing X[5,2,6,2.5] edge label '2.5' is not an integer"}


def test_non_integral_fixture_grading_refused_as_json(capsys, tmp_path, monkeypatch):
    fixture = {"l": 1, "parity": [0], "gens": [{"id": "a", "d": 0.5, "h2": [0]}], "arrows": []}
    (tmp_path / "half.json").write_text(json.dumps(fixture))
    monkeypatch.setenv("HFL_CORPUS_DIR", str(tmp_path))
    for argv in (["fixture", "half"], ["ss", "fixture:half"]):
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 1, argv
        assert json.loads(out) == {"error": "generator 'a' Maslov grading 0.5 is not an integer"}


@pytest.mark.parametrize("document, message", [
    ("{}", "complex has no 'l' field"),
    ("[1, 2]", "complex is not a JSON object"),
    ('{"l": 1, "parity": [0], "gens": [{"d": 0, "h2": [0]}]}', "generator 0 has no 'id' field"),
])
def test_malformed_fixture_file_refused(capsys, tmp_path, monkeypatch, document, message):
    (tmp_path / "h3.json").write_text(document)
    monkeypatch.setenv("HFL_CORPUS_DIR", str(tmp_path))
    for argv in (["fixture", "h3"], ["ss", "fixture:h3"]):
        assert run(capsys, *argv) == (1, "", f"error: {message}\n"), argv
        code, out, err = run(capsys, *argv, "--json")
        assert (code, json.loads(out), err) == (1, {"error": message}, ""), argv


def test_split_projection_reported(capsys, tmp_path):
    path = tmp_path / "split.pd"
    path.write_text("PD[X[1,2,2,1],X[3,4,4,3]]")
    code, _, err = run(capsys, "table", str(path))
    assert code == 1 and "split projection" in err


def test_non_planar_code_refused(capsys, tmp_path):
    path = tmp_path / "nonplanar.pd"
    path.write_text("PD[X[1,4,3,3],X[2,1,2,4]]")
    code, out, err = run(capsys, "alexander", str(path))
    assert code == 1 and out == "" and "face count" in err


def test_split_non_planar_code_refused_by_its_face_count(capsys, tmp_path):
    # a non-planar piece beside a trefoil: refused when parsed, before any
    # command can ask for a connected projection
    path = tmp_path / "split_nonplanar.pd"
    path.write_text("PD[X[3,6,1,4],X[4,1,5,2],X[2,5,3,6],X[8,10,9,7],X[10,12,11,9],X[12,8,7,11]]")
    code, out, err = run(capsys, "alexander", str(path))
    assert code == 1 and out == "" and "face count" in err and "connected projection" not in err


def test_heegaard_oracle_table_equals_pipeline(capsys):
    code, out, _ = run(capsys, "heegaard", "8", "3", "--emit-complex")
    assert code == 0
    from hfl.filtered import FilteredComplex

    cx = FilteredComplex.from_json_dict(json.loads(out))
    assert assoc_graded_homology(cx) == hfl_alternating(
        linkdiag.two_bridge(8, 3)
    ).table


@pytest.mark.parametrize("command", ["table", "cfl2"])
def test_non_planar_code_refused_before_alternation(capsys, tmp_path, command):
    path = tmp_path / "nonplanar.pd"
    path.write_text("PD[X[1,4,3,3],X[2,1,2,4]]")
    code, out, err = run(capsys, command, str(path))
    assert code == 1 and out == "" and "face count" in err and "alternating" not in err


def test_closed_reader_ends_without_traceback():
    # the reader is gone before the first write, as with `hfl ... | head -c 10`
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hfl.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "hfl.cli", "table", "corpus:two_bridge(178,69)", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == b""


# ----------------------------------------------------------------------
# human output and the failure rows of `hfl check`

CLI_GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())


@pytest.mark.parametrize("command", sorted(CLI_GOLDEN))
def test_output_matches_golden(capsys, command):
    """``data/cli_golden.json`` maps each command line to its stdout, as
    recorded before the unreached code of the package was pruned."""
    code, out, _ = run(capsys, *command.split())
    assert code == 0 and out == CLI_GOLDEN[command]


def failing_row(monkeypatch, name, attr, fake):
    monkeypatch.setattr(cli, attr, fake)
    return [row for row in cli._check_rows(name) if not row["ok"]]


def test_check_row_names_an_exception(monkeypatch):
    def boom(diag):
        raise ValueError("no polynomial today")

    rows = failing_row(monkeypatch, "figure8", "multivariable_alexander", boom)
    assert [(row["check"], row["detail"]) for row in rows] == [
        ("alexander", "ValueError: no polynomial today")]


def test_check_row_names_an_unrefused_nonalternating_link(monkeypatch):
    rows = failing_row(monkeypatch, "L7n2", "hfl_alternating", lambda diag: None)
    assert [(row["check"], row["detail"]) for row in rows] == [
        ("refusal", "non-alternating input was not refused")]


def test_check_row_names_an_invalid_fixture(monkeypatch):
    broken = FilteredComplex(1, (0,), [("a", 0, (0,)), ("b", 0, (0,))], [("a", "b")])
    rows = failing_row(monkeypatch, "L7n2", "fixture_complex", lambda name: broken)
    assert [(row["check"], row["detail"]) for row in rows] == [
        ("fixture", "fixture fails validation")]


def test_check_row_names_an_invalid_cfl2_complex(monkeypatch, capsys):
    monkeypatch.setattr(cli, "validate", lambda cx: False)
    code, out, _ = run(capsys, "check", "corpus:hopf_plus")
    assert code == 1
    assert "cfl2           FAIL  (complex fails validation)" in out
    assert out.endswith("failures: 1\n")


def wrong_table(name):
    # the cell bumped here lists after the one dropped, which the failure names
    table = hfl_alternating(linkdiag.corpus(name)).table
    ranks = Counter(table.ranks)
    cells = sorted(ranks, key=lambda cell: (cell[1], cell[0]))
    ranks[cells[-1]] += 1
    del ranks[cells[0]]
    return MultiGradedVS(table.nvars, table.parity, ranks)


def test_check_row_names_a_disagreeing_associated_graded(monkeypatch):
    wrong = wrong_table("hopf_plus")
    rows = failing_row(monkeypatch, "hopf_plus", "assoc_graded_homology", lambda cx: wrong)
    assert [(row["check"], row["detail"]) for row in rows] == [
        ("cfl2", "associated graded disagrees with the rank table first at h=(-1/2,-1/2) d=-2: "
                    "rank 0, not 1")]


def test_check_row_names_a_disagreeing_first_page(monkeypatch):
    wrong = wrong_table("hopf_plus")
    rows = failing_row(monkeypatch, "hopf_plus", "spectral_pages", lambda cx: [wrong])
    assert [(row["check"], row["detail"]) for row in rows] == [
        ("spectral", "first page disagrees with the rank table first at h=(-1/2,-1/2) d=-2: "
                    "rank 0, not 1")]


# ----------------------------------------------------------------------
# every subcommand in both formats, --help, and the refusals

CLI_MATRIX = json.loads((Path(__file__).parent / "data" / "cli_matrix_golden.json").read_text())


@pytest.mark.parametrize("command", sorted(CLI_MATRIX))
def test_command_matches_recorded_streams_and_exit_code(capsys, monkeypatch, command):
    """``data/cli_matrix_golden.json`` maps each command line to its exit
    code, stdout and stderr, recorded with an 80-column terminal."""
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("HFL_CORPUS_DIR", raising=False)
    try:
        code = main(command.split())
    except SystemExit as exc:  # --help
        code = exc.code
    captured = capsys.readouterr()
    assert {"code": code, "out": captured.out, "err": captured.err} == CLI_MATRIX[command]

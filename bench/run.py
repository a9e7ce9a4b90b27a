"""Run one workload of the hfl benchmark and print its metrics.

    python3 bench/run.py --workload alt_tables --seed 1 --seconds 20 --trace 0

Workloads: alt_tables, cfl2_two_bridge, bigon_oracle, complex_algebra
(see README.md).  The run imports ``hfl`` from ``src/`` beside this
directory, makes the workload's items from the seed, and then runs whole
rounds over the items, one item after the other on one thread, until
``--seconds`` have passed (at least two rounds).  Every output is checked; an
item that raises or fails a check counts as failed and the run goes on.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones, from traced rounds that alternate with untraced rounds,
and the spans are written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import types
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
MODULES = ("linkdiag", "laurent", "alexander", "homology", "filtered", "summands", "heegaard")
SETUP_REPEATS = 7
TAIL_BEYOND = 10     # item_ms_tail has this many items above it
# The reference loop's time on an idle core of the machine the README's
# figures come from.  Reported times are reference-loop units times this:
# host-normalised times, equal to wall times at that host speed.
NOMINAL_REF_S = 0.00145

sys.path.insert(0, HERE)
from tracing import METRICS as LAYER_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

# The reference loop: fixed pure-Python work of the kinds the package does
# (a dict-of-tuples polynomial product, Fraction arithmetic, big-integer
# products and set toggling), timed beside every item so that the host's
# momentary speed can be divided out.
_REF_A = [((i, j), (3 * i + j) % 7 - 3) for i in range(12) for j in range(12)]
_REF_B = [((i, j), (i + 5 * j) % 5 - 2) for i in range(6) for j in range(6)]
_REF_F = [Fraction(i, i + 3) for i in range(1, 60)]
_REF_N = 3 ** 200


def reference():
    """Seconds one pass of the reference loop takes now."""
    t0 = perf_counter()
    prod = {}
    for (a0, a1), ca in _REF_A:
        for (b0, b1), cb in _REF_B:
            e = (a0 + b0, a1 + b1)
            prod[e] = prod.get(e, 0) + ca * cb
    odd = set()
    for e, c in prod.items():
        if c & 1:
            odd ^= {e}
    s = Fraction(0)
    for f in _REF_F:
        s += f * _REF_F[-1] - Fraction(1, 7)
        if s > 10:
            s -= 10
    acc = 0
    for i in range(400):
        acc = (acc + _REF_N * (i + 1)) % (_REF_N + 7) ^ i
    rows = {i: set(range(i % 7, i % 7 + 5)) for i in range(60)}
    for i in range(60):
        for j in range(i % 5, 60, 7):
            rows[i] ^= rows[j]
    return perf_counter() - t0


def import_hfl():
    """Import the package afresh from ``src/``, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "hfl" or m.startswith("hfl.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    hfl = types.SimpleNamespace(**{m: importlib.import_module(f"hfl.{m}") for m in MODULES})
    origin = os.path.abspath(sys.modules["hfl"].__file__)
    if not origin.startswith(SRC + os.sep):
        raise ImportError(f"hfl was imported from {origin}, not from {SRC}")
    return hfl


def setup(workload, seed):
    """Import hfl and make the items, several times; setup_s is the median."""
    times = []
    reference()     # warm-up
    for _ in range(SETUP_REPEATS):
        ref_before = reference()
        t0 = perf_counter()
        hfl = import_hfl()
        items = workload.items(hfl, seed)
        seconds = perf_counter() - t0
        times.append(cost((seconds, ref_before, reference())) * NOMINAL_REF_S)
    return hfl, items, statistics.median(times)


def run_round(workload, hfl, items, tracer=None):
    """One pass over the items: [(seconds, ref before, ref after, failure)]."""
    gc.collect()
    samples = []
    ref_before = reference()
    for item in items:
        if tracer is not None:
            tracer.item = item.key
        t0 = perf_counter()
        try:
            out = workload.run(hfl, item)
            failure = None
        except ValueError as exc:   # hfl refuses an input with ValueError
            failure = f"refused: {exc}"
        except Exception as exc:    # a crash fails this item, not the run
            failure = f"error: {type(exc).__name__}: {exc}"
        seconds = perf_counter() - t0
        if tracer is not None:
            tracer.item = None
        if failure is None:
            try:
                workload.check(hfl, item, out)
            except CheckFailed as exc:
                failure = str(exc)
            except Exception as exc:
                failure = f"check error: {type(exc).__name__}: {exc}"
        ref_after = reference()
        samples.append((seconds, ref_before, ref_after, failure))
        ref_before = ref_after
    return samples


def run_rounds(seconds, one_round):
    """Call ``one_round(i)`` for whole rounds until ``seconds`` have passed,
    and at least twice: each item's cost is a median of two samples or
    more, and a traced run has an untraced and a traced round."""
    t0 = perf_counter()
    i = 0
    while i < 2 or perf_counter() - t0 < seconds:
        one_round(i)
        i += 1


def speed(sample):
    """Reference-loop passes per second around a sample: the inverse of
    the mean of the passes timed just before and just after it."""
    return 2 / (sample[1] + sample[2])


def cost(sample):
    """A sample's time in reference-loop units."""
    return sample[0] * speed(sample)


def end_to_end(by_round, setup_s):
    n = len(by_round[0])
    costs = [statistics.median(cost(r[i]) for r in by_round) for i in range(n)]
    item_ms = sorted(c * NOMINAL_REF_S * 1000 for c in costs)
    passed = sum(1 for s in by_round[0] if s[3] is None)
    return {
        "items_per_s": (1000 * passed / sum(item_ms), "items/s"),
        "item_ms_p50": (statistics.median(item_ms), "ms"),
        "item_ms_tail": (item_ms[n - 1 - TAIL_BEYOND], "ms"),
        "cost_ref": (sum(costs), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def unexpected_failures(workload, failures):
    """The failures that are not a known fault of the program, by item key."""
    return {key: why for key, why in failures.items()
            if not why.startswith(workload.known_faults.get(key, "\0"))}


def per_layer(tracer, traced, untraced):
    """Medians over the traced rounds; the tracing overhead is taken
    against the untraced round run just before each traced one."""
    rows = []
    for (start, end, samples), plain in zip(traced, untraced):
        scale = {key: speed(s) * NOMINAL_REF_S for key, s in samples.items()}
        traced_cost = sum(cost(s) for s in samples.values())
        row = tracer.round_metrics(start, end, scale, traced_cost * NOMINAL_REF_S)
        row["trace.overhead"] = 100 * (traced_cost / sum(cost(s) for s in plain) - 1)
        rows.append(row)
    return {name: (statistics.median(r[name] for r in rows), unit)
            for name, unit in LAYER_METRICS}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        hfl, items, setup_s = setup(workload, args.seed)
    except ImportError as exc:
        print(f"cannot import hfl from {SRC}: {exc}", file=sys.stderr)
        return 2

    by_round = []      # untraced rounds
    traced = []        # (start mark, end mark, {item key: sample}) of traced rounds
    tracer = Tracer(hfl) if args.trace else None
    t_start = perf_counter()

    def one_round(i):
        if not args.trace or i % 2 == 0:
            by_round.append(run_round(workload, hfl, items))
            return
        start = tracer.mark()
        tracer.install()
        try:
            samples = run_round(workload, hfl, items, tracer)
        finally:
            tracer.uninstall()
        traced.append((start, tracer.mark(), {item.key: s for item, s in zip(items, samples)}))

    run_rounds(args.seconds, one_round)

    all_rounds = by_round + [list(samples.values()) for _, _, samples in traced]
    failures = {item.key: s[3] for r in all_rounds for item, s in zip(items, r) if s[3]}
    attempted = len(items) * len(all_rounds)
    failed = sum(1 for r in all_rounds for s in r if s[3])
    unexpected = unexpected_failures(workload, failures)

    if args.trace:
        found = per_layer(tracer, traced, by_round)
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace_{args.workload}_seed{args.seed}.jsonl")
        tracer.dump(path, t_start)
    else:
        found = end_to_end(by_round, setup_s)
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in found.items()}

    print(f"{args.workload}: seed {args.seed}, {len(items)} items, {len(all_rounds)} rounds, "
          f"attempted {attempted}, failed {failed}")
    for key, why in sorted(failures.items()):
        print(f"  failed {key} ({'UNEXPECTED' if key in unexpected else 'known fault'}): {why}")
    if args.trace:
        print(f"  {len(tracer.spans)} spans written to {os.path.relpath(path)}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not unexpected, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

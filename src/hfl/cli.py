"""Command-line front end.

Links are addressed as ``corpus:<name>`` for the bundled projections,
``fixture:<name>`` for transcribed complexes (where a complex is
expected), or a path to a file containing a PD code.  ``--json``
switches every subcommand to machine-readable output with sorted keys
and doubled integer gradings; human output renders half-integer
gradings as fractions.  Set HFL_CORPUS_DIR to load fixture complexes
from a directory of ``<name>.json`` files instead of the bundled data.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path

from . import linkdiag
from .alexander import multivariable_alexander, signature
from .filtered import (
    FilteredComplex,
    assoc_graded_homology,
    spectral_pages,
    tensor_graded,
    total_homology,
    validate,
)
from .fixtures import FIXTURE_NAMES, fixture_complex
from .heegaard import admissibility, complex_from_diagram, oracle_compare, two_bridge_diagram
from .homology import (
    collapse_to_hfk,
    hfl_alternating,
    two_component_cfl_from_diagram,
    verify,
)
from .linkdiag import CORPUS_NAMES, SplitLinkError


def _two_bridge_params(name: str):
    """(p, q) of the sphere diagram of a two-component corpus link, or None.

    ``hopf_plus`` is b(2, 1), ``torus_2_2n(n)`` is b(2n, 1), and
    ``two_bridge(p, q)`` with even p is b(p, q).
    """
    name = name.strip()
    if name == "hopf_plus":
        return 2, 1
    m = re.fullmatch(r"torus_2_2n\((\d+)\)", name)
    if m:
        return 2 * int(m.group(1)), 1
    m = re.fullmatch(r"two_bridge\((\d+),(\d+)\)", name)
    if m and int(m.group(1)) % 2 == 0:
        return int(m.group(1)), int(m.group(2))
    return None


def _emit(args, obj) -> None:
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _fail(args, message: str) -> int:
    if getattr(args, "json", False):
        print(json.dumps({"error": message}, sort_keys=True, separators=(",", ":")))
    else:
        print(f"error: {message}", file=sys.stderr)
    return 1


def _load_diagram(spec: str):
    if spec.startswith("corpus:"):
        return linkdiag.corpus(spec[len("corpus:"):])
    path = Path(spec)
    if not path.exists():
        raise ValueError(f"no such input {spec!r}; use corpus:<name> or a PD file path")
    return linkdiag.parse_pd(path.read_text())


def _load_fixture(name: str) -> FilteredComplex:
    root = os.environ.get("HFL_CORPUS_DIR")
    if root:
        path = Path(root) / f"{name.lower()}.json"
        return FilteredComplex.from_json_dict(json.loads(path.read_text()))
    return fixture_complex(name)


def _load_complex(spec: str) -> FilteredComplex:
    if spec.startswith("fixture:"):
        return _load_fixture(spec[len("fixture:"):])
    cx, _ = two_component_cfl_from_diagram(_load_diagram(spec))
    return cx


def _fixture_hint(spec: str) -> str | None:
    if spec.startswith("corpus:"):
        name = spec[len("corpus:"):]
        if name.lower() in FIXTURE_NAMES:
            return name
    return None


def _alternating_report(spec: str):
    """``hfl_alternating`` of an input; a refusal names any fixture of it."""
    diag = _load_diagram(spec)
    try:
        return hfl_alternating(diag)
    except ValueError as err:
        if "not alternating" in str(err):
            message = f"non-alternating: {err}"
            hint = _fixture_hint(spec)
            if hint:
                message += f"; a transcribed table is available via `hfl fixture {hint}`"
            raise ValueError(message) from err
        raise


# -- subcommands -------------------------------------------------------


def _cmd_alexander(args) -> int:
    delta = multivariable_alexander(_load_diagram(args.link)).delta
    if args.json:
        _emit(args, delta.to_json_dict())
    else:
        print(delta)
    return 0


def _cmd_signature(args) -> int:
    sigma = signature(_load_diagram(args.link))
    if args.json:
        _emit(args, {"sigma": sigma})
    else:
        print(f"sigma = {sigma}")
    return 0


def _cmd_table(args) -> int:
    report = _alternating_report(args.link)
    if args.json:
        out = report.to_json_dict()
        if report.l == 1:
            out = {key: out[key] for key in ("l", "sigma", "delta", "table")}
        _emit(args, out)
        return 0
    print(report.table.table_str())
    if report.l > 1:
        print(f"sigma = {report.sigma}")
        print(f"euler identity: {'ok' if report.euler_ok else 'FAIL'}")
        print(f"symmetry: {'ok' if report.symmetry_ok else 'FAIL'}")
    return 0


def _cmd_cfl2(args) -> int:
    cx, summands = two_component_cfl_from_diagram(_load_diagram(args.link))
    if args.json:
        _emit(args, {
            "complex": cx.to_json_dict(),
            "summands": [
                {"kind": s.kind, "d": s.d, "lam": s.lparam, "shift2": list(s.shift2)}
                for s in summands
            ],
        })
    else:
        for s in summands:
            print(s)
        print(f"generators: {len(cx)}  arrows: {len(cx.arrows)}")
    return 0


def _cmd_ss(args) -> int:
    pages = spectral_pages(_load_complex(args.link))
    if args.json:
        _emit(args, {
            "pages": [
                {"r": i + 1, "total_rank": page.total_rank(), "table": page.to_json_dict()}
                for i, page in enumerate(pages)
            ],
        })
    else:
        for i, page in enumerate(pages):
            print(f"E{i + 1}: total rank {page.total_rank()}")
        print(pages[-1].table_str())
    return 0


def _cmd_collapse(args) -> int:
    collapsed = collapse_to_hfk(_alternating_report(args.link).table)
    if args.json:
        _emit(args, collapsed.to_json_dict())
    else:
        print(collapsed.table_str())
    return 0


def _cmd_kunneth(args) -> int:
    first, second = (_alternating_report(spec).table for spec in (args.first, args.second))
    merged = tensor_graded(first, second, (1, 1))
    if args.json:
        _emit(args, merged.to_json_dict())
    else:
        print(merged.table_str())
    return 0


def _cmd_heegaard(args) -> int:
    diagram = two_bridge_diagram(args.p, args.q)
    if args.emit_complex:
        _emit(args, complex_from_diagram(diagram).to_json_dict())
        return 0
    report = oracle_compare(args.p, args.q)
    generators = max(len(diagram.alpha), 1)
    if args.json:
        _emit(args, {
            "p": args.p,
            "q": args.q,
            "generators": generators,
            "regions": len(diagram.regions),
            "admissible": admissibility(diagram),
            "oracle_match": bool(report),
        })
    else:
        print(f"b({args.p},{args.q}): {generators} generators, "
              f"{len(diagram.regions)} regions")
        print(f"admissible: {admissibility(diagram)}")
        print(f"oracle match: {bool(report)}")
        if not report:
            print(report)
    return 0


# -- the check suite ---------------------------------------------------


def _check_rows(name: str) -> list:
    diag = linkdiag.corpus(name)
    rows = []

    def add(check, fn):
        try:
            ok, detail = fn()
        except Exception as err:
            ok, detail = False, f"{type(err).__name__}: {err}"
        rows.append({"link": name, "check": check, "ok": bool(ok), "detail": detail})

    state = {}

    def c_alexander():
        multivariable_alexander(diag)
        return True, None

    add("alexander", c_alexander)

    if not diag.is_alternating():
        def c_refusal():
            try:
                hfl_alternating(diag)
            except ValueError as err:
                return "not alternating" in str(err), str(err)
            return False, "non-alternating input was not refused"

        add("refusal", c_refusal)
        if name.lower() in FIXTURE_NAMES:
            def c_fixture():
                cx = fixture_complex(name)
                if not validate(cx):
                    return False, "fixture fails validation"
                hom = total_homology(cx)
                top = max(hom)
                return hom == {top: 1, top - 1: 1}, f"total homology {hom}"

            add("fixture", c_fixture)
        return rows

    def c_table():
        state["report"] = hfl_alternating(diag)
        return True, None

    add("table", c_table)
    if diag.n_components == 1:
        kinds = ("euler_hat", "euler_minus", "symmetry")
    else:
        kinds = ("euler_hat", "symmetry", "euler_minus")
    for kind in kinds:
        def c_verify(kind=kind):
            rep = verify(state["report"].table, state["report"].delta, kind)
            return rep.ok, rep.detail

        add(kind.replace("_", "-"), c_verify)

    if diag.n_components == 2:
        def c_cfl2():
            cx, summands = two_component_cfl_from_diagram(diag)
            state["cx"] = cx
            if not validate(cx):
                return False, "complex fails validation"
            if assoc_graded_homology(cx) != state["report"].table:
                return False, "associated graded disagrees with the rank table"
            hom = total_homology(cx)
            return hom == {0: 1, -1: 1}, f"total homology {hom}"

        add("cfl2", c_cfl2)

        def c_spectral():
            pages = spectral_pages(state["cx"])
            if pages[0] != state["report"].table:
                return False, "first page disagrees with the rank table"
            return pages[-1].total_rank() == 2, f"last page rank {pages[-1].total_rank()}"

        add("spectral", c_spectral)

    params = _two_bridge_params(name)
    if params:
        def c_heegaard():
            report = oracle_compare(*params)
            return report, None if report else str(report)

        add("heegaard", c_heegaard)

    return rows


def _cmd_check(args) -> int:
    target = args.target
    if target in ("corpus:all", "all"):
        names = list(CORPUS_NAMES)
    elif target.startswith("corpus:"):
        names = [target[len("corpus:"):]]
    else:
        names = [target]
    rows = []
    for name in names:
        rows.extend(_check_rows(name))
    failures = sum(1 for row in rows if not row["ok"])
    if args.json:
        _emit(args, {"failures": failures, "results": rows})
    else:
        for row in rows:
            status = "ok" if row["ok"] else "FAIL"
            line = f"{row['link']:18s} {row['check']:14s} {status}"
            if not row["ok"] and row["detail"]:
                line += f"  ({row['detail']})"
            print(line)
        print(f"failures: {failures}")
    return failures


def _cmd_corpus(args) -> int:
    if args.name is None:
        if args.json:
            _emit(args, {"names": list(CORPUS_NAMES)})
        else:
            for name in CORPUS_NAMES:
                print(name)
        return 0
    diag = linkdiag.corpus(args.name)
    lk = linkdiag.linking_matrix(diag)
    if args.json:
        _emit(args, {
            "name": args.name,
            "components": diag.n_components,
            "crossings": len(diag.crossings),
            "alternating": diag.is_alternating(),
            "linking": [list(row) for row in lk.lk],
            "pd": diag.to_pd_text(),
        })
    else:
        print(diag.to_pd_text())
        print(f"components: {diag.n_components}  crossings: {len(diag.crossings)}  "
              f"alternating: {diag.is_alternating()}")
    return 0


def _cmd_fixture(args) -> int:
    if args.list_names or args.name is None:
        if args.json:
            _emit(args, {"names": list(FIXTURE_NAMES)})
        else:
            for name in FIXTURE_NAMES:
                print(name)
        return 0
    cx = _load_fixture(args.name)
    if args.json:
        _emit(args, cx.to_json_dict())
    else:
        print(f"{args.name.lower()}: {len(cx)} generators, {len(cx.arrows)} arrows")
        print(assoc_graded_homology(cx).table_str())
    return 0


# -- entry point -------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hfl",
        description="Exact link Floer homology tables for alternating and two-bridge links.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def with_json(sp):
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        return sp

    sp = with_json(sub.add_parser("alexander", help="multivariable Alexander polynomial"))
    sp.add_argument("link")
    sp = with_json(sub.add_parser("signature", help="link signature"))
    sp.add_argument("link")
    sp = with_json(sub.add_parser("table", help="rank table of an alternating link"))
    sp.add_argument("link")
    sp = with_json(sub.add_parser("cfl2", help="filtered complex of a two-component alternating link"))
    sp.add_argument("link")
    sp = with_json(sub.add_parser("ss", help="spectral sequence pages of a filtered complex"))
    sp.add_argument("link", help="corpus:<name>, fixture:<name>, or a PD file")
    sp = with_json(sub.add_parser("collapse", help="single-variable collapse of a rank table"))
    sp.add_argument("link")
    sp = with_json(sub.add_parser("kunneth", help="rank table of a connected sum from its parts"))
    sp.add_argument("first")
    sp.add_argument("second")
    sp = with_json(sub.add_parser("heegaard", help="two-bridge diagram oracle"))
    sp.add_argument("p", type=int)
    sp.add_argument("q", type=int)
    sp.add_argument("--emit-complex", action="store_true", dest="emit_complex")
    sp = with_json(sub.add_parser("check", help="run the invariant suite over the corpus"))
    sp.add_argument("target", nargs="?", default="corpus:all")
    sp = with_json(sub.add_parser("corpus", help="list or show bundled projections"))
    sp.add_argument("name", nargs="?")
    sp = with_json(sub.add_parser("fixture", help="list or emit transcribed complexes"))
    sp.add_argument("name", nargs="?")
    sp.add_argument("--list", action="store_true", dest="list_names")
    return parser


_HANDLERS = {
    "alexander": _cmd_alexander,
    "signature": _cmd_signature,
    "table": _cmd_table,
    "cfl2": _cmd_cfl2,
    "ss": _cmd_ss,
    "collapse": _cmd_collapse,
    "kunneth": _cmd_kunneth,
    "heegaard": _cmd_heegaard,
    "check": _cmd_check,
    "corpus": _cmd_corpus,
    "fixture": _cmd_fixture,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = _HANDLERS[args.cmd](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone; the flush of stdout at exit must not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except SplitLinkError as err:
        return _fail(args, f"split projection: {err}")
    except (ValueError, OSError) as err:
        return _fail(args, str(err))


if __name__ == "__main__":
    sys.exit(main())

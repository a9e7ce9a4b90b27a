"""Command-line front end.

Links are addressed as ``corpus:<name>`` for the bundled projections,
``fixture:<name>`` for transcribed complexes (where a complex is
expected), or a path to a file containing a PD code.  ``--json``
switches every subcommand to machine-readable output with sorted keys
and doubled integer gradings; human output renders half-integer
gradings as fractions.  Set HFL_CORPUS_DIR to load fixture complexes
from a directory of ``<name>.json`` files instead of the bundled data.

Output has one rule: a subcommand returns its JSON object and its text,
and ``main`` prints one of them.  ``heegaard --emit-complex`` always
prints JSON, and ``check`` exits with its failure count.  A refused
input exits 1 with ``error: ...`` on stderr, or ``{"error": ...}`` on
stdout under ``--json``.
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
    first_difference,
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
from .laurent import fmt_half
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


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _fail(args, message: str) -> int:
    if args.json:
        _emit({"error": message})
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


def _alternating_report(spec: str):
    """``hfl_alternating`` of an input; a refusal names any fixture of it."""
    diag = _load_diagram(spec)
    try:
        return hfl_alternating(diag)
    except ValueError as err:
        if "not alternating" in str(err):
            message = f"non-alternating: {err}"
            name = spec.removeprefix("corpus:")
            if name != spec and name.lower() in FIXTURE_NAMES:
                message += f"; a transcribed table is available via `hfl fixture {name}`"
            raise ValueError(message) from err
        raise


# -- subcommands -------------------------------------------------------


def _cmd_alexander(args):
    delta = multivariable_alexander(_load_diagram(args.link)).delta
    return delta.to_json_dict(), str(delta)


def _cmd_signature(args):
    sigma = signature(_load_diagram(args.link))
    return {"sigma": sigma}, f"sigma = {sigma}"


def _cmd_table(args):
    report = _alternating_report(args.link)
    out, text = report.to_json_dict(), report.table.table_str()
    if report.l == 1:
        return {key: out[key] for key in ("l", "sigma", "delta", "table")}, text
    return out, (f"{text}\nsigma = {report.sigma}\n"
                 f"euler identity: {'ok' if report.euler_ok else 'FAIL'}\n"
                 f"symmetry: {'ok' if report.symmetry_ok else 'FAIL'}")


def _cmd_cfl2(args):
    cx, summands = two_component_cfl_from_diagram(_load_diagram(args.link))
    out = {
        "complex": cx.to_json_dict(),
        "summands": [
            {"kind": s.kind, "d": s.d, "lam": s.lparam, "shift2": list(s.shift2)}
            for s in summands
        ],
    }
    lines = [*map(str, summands), f"generators: {len(cx)}  arrows: {len(cx.arrows)}"]
    return out, "\n".join(lines)


def _cmd_ss(args):
    pages = spectral_pages(_load_complex(args.link))
    out = {"pages": [
        {"r": r, "total_rank": page.total_rank(), "table": page.to_json_dict()}
        for r, page in enumerate(pages, 1)
    ]}
    lines = [f"E{r}: total rank {page.total_rank()}" for r, page in enumerate(pages, 1)]
    return out, "\n".join([*lines, pages[-1].table_str()])


def _cmd_collapse(args):
    collapsed = collapse_to_hfk(_alternating_report(args.link).table)
    return collapsed.to_json_dict(), collapsed.table_str()


def _cmd_kunneth(args):
    first, second = (_alternating_report(spec).table for spec in (args.first, args.second))
    merged = tensor_graded(first, second, (1, 1))
    return merged.to_json_dict(), merged.table_str()


def _cmd_heegaard(args):
    diagram = two_bridge_diagram(args.p, args.q)
    if args.emit_complex:
        return complex_from_diagram(diagram).to_json_dict(), None
    report = oracle_compare(args.p, args.q)
    out = {
        "p": args.p,
        "q": args.q,
        "generators": max(len(diagram.alpha), 1),
        "regions": len(diagram.regions),
        "admissible": admissibility(diagram),
        "oracle_match": bool(report),
    }
    text = (f"b({args.p},{args.q}): {out['generators']} generators, {out['regions']} regions\n"
            f"admissible: {out['admissible']}\noracle match: {out['oracle_match']}")
    return out, text if report else f"{text}\n{report}"


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
            graded = assoc_graded_homology(cx)
            if graded != state["report"].table:
                return False, _disagreement("associated graded", graded, state["report"].table)
            hom = total_homology(cx)
            return hom == {0: 1, -1: 1}, f"total homology {hom}"

        add("cfl2", c_cfl2)

        def c_spectral():
            pages = spectral_pages(state["cx"])
            if pages[0] != state["report"].table:
                return False, _disagreement("first page", pages[0], state["report"].table)
            return pages[-1].total_rank() == 2, f"last page rank {pages[-1].total_rank()}"

        add("spectral", c_spectral)

    params = _two_bridge_params(name)
    if params:
        def c_heegaard():
            report = oracle_compare(*params)
            return report, None if report else str(report)

        add("heegaard", c_heegaard)

    return rows


def _disagreement(what: str, mine, table) -> str:
    """Failure detail of a table ``mine`` that is not the rank table,
    naming the first cell where their ranks differ."""
    detail = f"{what} disagrees with the rank table"
    cell = first_difference(mine.ranks, table.ranks)
    if cell:
        d, h2, rank, want = cell
        detail += f" first at h=({','.join(map(fmt_half, h2))}) d={d}: rank {rank}, not {want}"
    return detail


def _cmd_check(args):
    if args.target in ("corpus:all", "all"):
        names = CORPUS_NAMES
    else:
        names = [args.target.removeprefix("corpus:")]
    rows = [row for name in names for row in _check_rows(name)]
    failures = sum(1 for row in rows if not row["ok"])
    lines = []
    for row in rows:
        line = f"{row['link']:18s} {row['check']:14s} {'ok' if row['ok'] else 'FAIL'}"
        if not row["ok"] and row["detail"]:
            line += f"  ({row['detail']})"
        lines.append(line)
    lines.append(f"failures: {failures}")
    return {"failures": failures, "results": rows}, "\n".join(lines), failures


def _cmd_corpus(args):
    if args.name is None:
        return {"names": list(CORPUS_NAMES)}, "\n".join(CORPUS_NAMES)
    diag = linkdiag.corpus(args.name)
    out = {
        "name": args.name,
        "components": diag.n_components,
        "crossings": len(diag.crossings),
        "alternating": diag.is_alternating(),
        "linking": [list(row) for row in linkdiag.linking_matrix(diag).lk],
        "pd": diag.to_pd_text(),
    }
    text = (f"{out['pd']}\ncomponents: {out['components']}  crossings: {out['crossings']}  "
            f"alternating: {out['alternating']}")
    return out, text


def _cmd_fixture(args):
    if args.list_names or args.name is None:
        return {"names": list(FIXTURE_NAMES)}, "\n".join(FIXTURE_NAMES)
    cx = _load_fixture(args.name)
    text = (f"{args.name.lower()}: {len(cx)} generators, {len(cx.arrows)} arrows\n"
            f"{assoc_graded_homology(cx).table_str()}")
    return cx.to_json_dict(), text


# -- entry point -------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hfl",
        description="Exact link Floer homology tables for alternating and two-bridge links.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def command(name, run, help, *positionals):
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        for positional in positionals:
            sp.add_argument(positional)
        sp.set_defaults(run=run)
        return sp

    command("alexander", _cmd_alexander, "multivariable Alexander polynomial", "link")
    command("signature", _cmd_signature, "link signature", "link")
    command("table", _cmd_table, "rank table of an alternating link", "link")
    command("cfl2", _cmd_cfl2, "filtered complex of a two-component alternating link", "link")
    command("ss", _cmd_ss, "spectral sequence pages of a filtered complex").add_argument(
        "link", help="corpus:<name>, fixture:<name>, or a PD file")
    command("collapse", _cmd_collapse, "single-variable collapse of a rank table", "link")
    command("kunneth", _cmd_kunneth, "rank table of a connected sum from its parts",
            "first", "second")
    sp = command("heegaard", _cmd_heegaard, "two-bridge diagram oracle")
    sp.add_argument("p", type=int)
    sp.add_argument("q", type=int)
    sp.add_argument("--emit-complex", action="store_true")
    command("check", _cmd_check, "run the invariant suite over the corpus").add_argument(
        "target", nargs="?", default="corpus:all")
    command("corpus", _cmd_corpus, "list or show bundled projections").add_argument(
        "name", nargs="?")
    sp = command("fixture", _cmd_fixture, "list or emit transcribed complexes")
    sp.add_argument("name", nargs="?")
    sp.add_argument("--list", action="store_true", dest="list_names")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        out, text, *failures = args.run(args)
        if args.json or text is None:
            _emit(out)
        else:
            print(text)
        sys.stdout.flush()
        return failures[0] if failures else 0
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

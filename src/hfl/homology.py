"""Rank tables and filtered homotopy types of alternating links.

For a connected alternating projection the homology ranks are a
function of classical invariants: the coefficients of the symmetrized
Alexander polynomial give the rank at each filtration level, and the
signature fixes the homological grading, one grading per lattice
point.  This module computes that table, folds it to the one-variable
table over the total filtration, and checks the Euler-characteristic
and symmetry identities the table must satisfy.

For two-component links it goes further and reconstructs the filtered
chain homotopy type from the table together with knot data of the two
components, in one pass.  The staircase summands and their placements
are forced by the component knot data.  The central zigzag pair is
forced too, width included: it alone carries free generators, and the
component knots put those at gradings 0 and -1.  The leftover
generators must tile exactly into acyclic squares.  The summands this
gives are checked against the rank table, the total homology and both
component homologies, all read off closed forms of the model summands,
so nothing is validated or cancelled to check them.  An input that
fails any stage is refused with that stage named.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping

from .alexander import multivariable_alexander, signature
from .filtered import FilteredComplex, MultiGradedVS
from .laurent import (
    MultiLaurent,
    series_quotient,
    spin_product,
    symmetric_normalize,
)
from .linkdiag import LinkDiagram, SplitLinkError, keep_component, linking_matrix
from .summands import Summand, build_sum, sum_cells, sum_invariants

__all__ = [
    "ComponentData",
    "HFLReport",
    "CollapsedTable",
    "VerifyReport",
    "table_from_invariants",
    "hfl_alternating",
    "hfk_alternating_knot",
    "collapse_to_hfk",
    "verify",
    "component_data_from_diagram",
    "two_component_cfl",
    "two_component_cfl_from_diagram",
]


# ----------------------------------------------------------------------
# The rank table of an alternating link

def table_from_invariants(delta: MultiLaurent, sigma: int, totals) -> MultiGradedVS:
    """Rank table determined by the Alexander polynomial and signature.

    ``totals`` lists, per component, its total linking number with the
    rest of the link; these fix the parity coset of the filtration
    lattice.  In one variable the ranks are the absolute coefficients
    of ``delta`` itself; with more variables ``delta`` is first
    multiplied by the product of (T_i^{1/2} - T_i^{-1/2}).  A lattice
    point h with coefficient a_h gets rank |a_h| in homological
    grading o(h) + (sigma - l + 1)/2, where o(h) is the coordinate
    sum of h.
    """
    l = delta.nvars
    totals = tuple(int(t) for t in totals)
    if len(totals) != l:
        raise ValueError("need one linking total per variable")
    parity = tuple(t % 2 for t in totals)
    poly = spin_product(l) * delta if l > 1 else delta
    ranks: dict = {}
    for e2, a in poly.terms.items():
        num = sum(e2) + sigma - l + 1
        if num % 2:
            raise ValueError(
                f"signature {sigma} is incompatible with the grading lattice "
                f"(odd total grading at {e2})"
            )
        ranks[(num // 2, e2)] = abs(a)
    return MultiGradedVS(l, parity, ranks)


@dataclass
class HFLReport:
    """Rank table of an alternating link plus the inputs that made it.

    ``euler`` is the graded Euler characteristic of ``table``;
    ``euler_ok`` and ``symmetry_ok`` record the consistency checks
    against ``delta``.
    """

    table: MultiGradedVS
    delta: MultiLaurent
    euler: MultiLaurent
    sigma: int
    l: int
    linking: tuple
    euler_ok: bool
    symmetry_ok: bool

    def to_json_dict(self) -> dict:
        return {
            "l": self.l,
            "sigma": self.sigma,
            "linking": [list(row) for row in self.linking],
            "delta": self.delta.to_json_dict(),
            "euler": self.euler.to_json_dict(),
            "table": self.table.to_json_dict(),
            "euler_ok": self.euler_ok,
            "symmetry_ok": self.symmetry_ok,
        }


def _require_alternating(diag: LinkDiagram, message: str) -> None:
    """Refuse a split, then a non-alternating projection."""
    if not diag.is_connected():
        raise SplitLinkError("the projection is split")
    if not diag.is_alternating():
        raise ValueError(message)


def hfl_alternating(diag: LinkDiagram) -> HFLReport:
    """Homology table of a connected alternating link projection, l >= 2."""
    if diag.n_components < 2:
        raise ValueError("knot input: use hfk_alternating_knot")
    _require_alternating(
        diag,
        "the projection is not alternating, so the rank table is not "
        "determined by the Alexander polynomial and signature",
    )
    delta = multivariable_alexander(diag).delta
    sigma = signature(diag)
    lkd = linking_matrix(diag)
    table = table_from_invariants(delta, sigma, lkd.total)
    return HFLReport(
        table=table,
        delta=delta,
        euler=table.euler(),
        sigma=sigma,
        l=diag.n_components,
        linking=lkd.lk,
        euler_ok=bool(verify(table, delta, "euler_hat")),
        symmetry_ok=bool(verify(table, delta, "symmetry")),
    )


def hfk_alternating_knot(diag: LinkDiagram) -> MultiGradedVS:
    """One-variable homology table of a connected alternating knot."""
    if diag.n_components != 1:
        raise ValueError("link input: use hfl_alternating")
    _require_alternating(diag, "the projection is not alternating")
    delta = multivariable_alexander(diag).delta
    sigma = signature(diag)
    return table_from_invariants(delta, sigma, (0,))


# ----------------------------------------------------------------------
# Collapse to the one-variable table

class CollapsedTable:
    """Ranks indexed by doubled Maslov grading and doubled filtration.

    Folding an l-variable table over the coordinate sum shifts the
    Maslov grading by (l - 1)/2, a half-integer for even l, so the
    grading is stored doubled alongside the doubled filtration.
    """

    __slots__ = ("ranks",)

    def __init__(self, ranks: Mapping | None = None):
        clean: dict[tuple[int, int], int] = {}
        for (d2, s2), r in (ranks or {}).items():
            if r < 0:
                raise ValueError("ranks must be nonnegative")
            if r:
                key = (int(d2), int(s2))
                clean[key] = clean.get(key, 0) + int(r)
        self.ranks = clean

    def __eq__(self, other) -> bool:
        return isinstance(other, CollapsedTable) and self.ranks == other.ranks

    def __hash__(self):
        return hash(frozenset(self.ranks.items()))

    def rank(self, d2: int, s2: int) -> int:
        return self.ranks.get((int(d2), int(s2)), 0)

    def total_rank(self) -> int:
        return sum(self.ranks.values())

    def to_json_dict(self) -> dict:
        return {
            "ranks": [
                {"d2": d2, "s2": s2, "r": r}
                for (d2, s2), r in sorted(
                    self.ranks.items(), key=lambda kv: (kv[0][1], kv[0][0])
                )
            ]
        }

    def table_str(self) -> str:
        lines = []
        for (d2, s2), r in sorted(self.ranks.items(), key=lambda kv: (kv[0][1], kv[0][0])):
            lines.append(f"s={_half(s2)}  d={_half(d2)}  rank={r}")
        return "\n".join(lines) if lines else "(zero)"

    def __repr__(self):
        return f"CollapsedTable({self.ranks!r})"


def _half(x2: int) -> str:
    return str(x2 // 2) if x2 % 2 == 0 else f"{x2}/2"


def collapse_to_hfk(v: MultiGradedVS) -> CollapsedTable:
    """Fold a table over the coordinate sum, shifting the grading.

    The rank at filtration s collects every level h with coordinate
    sum s, and the Maslov grading gains (l - 1)/2.  One-variable input
    passes through unchanged, apart from the doubling of both indices.
    """
    shift = v.nvars - 1
    ranks: dict = {}
    for (d, h2), r in v.ranks.items():
        key = (2 * d + shift, sum(h2))
        ranks[key] = ranks.get(key, 0) + r
    return CollapsedTable(ranks)


# ----------------------------------------------------------------------
# Consistency checks of a table against its Alexander polynomial

@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    kind: str
    detail: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify(table: MultiGradedVS, delta: MultiLaurent, kind: str, depth: int = 6) -> VerifyReport:
    """Check a rank table against its Alexander polynomial.

    ``euler_hat``: the graded Euler characteristic must equal the
    spin product times ``delta``, up to one global sign (``delta``
    itself in one variable).  ``euler_minus``: dividing the Euler
    characteristic by every (1 - T_i^{-1}) as a truncated geometric
    series must reproduce the half-shifted ``delta`` on the window
    where the truncation is exact.  ``symmetry``: the rank at (d, h)
    must equal the rank at (d - 2*o(h), -h).  A failed report carries
    the first counterexample found.
    """
    if table.nvars != delta.nvars:
        raise ValueError("table and polynomial disagree on the variable count")
    if kind == "euler_hat":
        return _verify_euler_hat(table, delta)
    if kind == "euler_minus":
        return _verify_euler_minus(table, delta, depth)
    if kind == "symmetry":
        return _verify_symmetry(table)
    raise ValueError(f"unknown check {kind!r}")


def _verify_euler_hat(table: MultiGradedVS, delta: MultiLaurent) -> VerifyReport:
    l = table.nvars
    chi = table.euler()
    target = spin_product(l) * delta if l > 1 else delta
    if chi == target or chi == -target:
        return VerifyReport(True, "euler_hat")
    diff_m = chi - target
    diff_p = chi + target
    diff = diff_m if len(diff_m.terms) <= len(diff_p.terms) else diff_p
    e = min(diff.terms)
    return VerifyReport(
        False,
        "euler_hat",
        f"first mismatch at doubled exponent {e}: chi = {chi}, want ±({target})",
    )


def _verify_symmetry(table: MultiGradedVS) -> VerifyReport:
    for (d, h2), r in sorted(table.ranks.items()):
        neg = tuple(-x for x in h2)
        partner = (d - sum(h2), neg)
        r2 = table.ranks.get(partner, 0)
        if r != r2:
            return VerifyReport(
                False,
                "symmetry",
                f"rank {r} at d={d}, h2={h2} but rank {r2} at d={partner[0]}, h2={neg}",
            )
    return VerifyReport(True, "symmetry")


def _verify_euler_minus(table: MultiGradedVS, delta: MultiLaurent, depth: int) -> VerifyReport:
    if depth < 1:
        raise ValueError("depth must be at least 1")
    l = table.nvars
    chi = table.euler()
    series = chi
    for i in range(1, l + 1):
        series = series_quotient(series, i, depth)
    lhs = series.poly
    if l == 1:
        target = series_quotient(delta, 1, depth).poly
    else:
        target = delta.shift((1,) * l)
    floor2 = []
    for i in range(l):
        tops = [e[i] for e in chi.terms] + [e[i] for e in target.terms]
        floor2.append((max(tops) if tops else 0) - 2 * depth - 1)
    lw = lhs.restrict(floor2)
    tw = target.restrict(floor2)
    if lw == tw or lw == -tw:
        return VerifyReport(True, "euler_minus")
    return VerifyReport(
        False,
        "euler_minus",
        f"series quotient disagrees above doubled floor {floor2}: "
        f"got {lw}, want ±({tw})",
    )


# ----------------------------------------------------------------------
# Component knot data

@dataclass(frozen=True)
class ComponentData:
    """Hat-flavor data of one component knot.

    ``tau`` is the concordance invariant of the component, consumed as
    an input here, never computed.  Together with ``pairs`` it gives the
    knot's filtered complex up to homotopy.  A knot has total homology
    of rank one, so there is exactly one generator carrying no
    differential, at grading zero and filtration ``tau``; ``pairs``
    lists (length, top grading, doubled top filtration) of the two-step
    summands whose arrow drops the filtration by its length.
    """

    tau: int
    pairs: tuple = ()

    def __post_init__(self):
        pairs = tuple(sorted((int(l), int(d), int(s2)) for l, d, s2 in self.pairs))
        object.__setattr__(self, "pairs", pairs)
        for lam, _d, s2 in pairs:
            if lam < 1:
                raise ValueError("pair length must be at least 1")
            if s2 % 2:
                raise ValueError("knot filtrations are integers (even doubled values)")

    @classmethod
    def unknot(cls) -> "ComponentData":
        return cls(0)


def component_data_from_diagram(diag: LinkDiagram) -> ComponentData:
    """Thin knot data from a connected alternating knot projection.

    The ranks |a_s| of the Alexander coefficients sit on the single
    diagonal d = s + sigma/2, and on that diagonal the filtered
    homotopy type is forced: one free generator at filtration
    tau = -sigma/2 and otherwise length-one pairs, whose count per
    level is read off the ranks from the top down.
    """
    if diag.n_components != 1:
        raise ValueError("component data needs a knot diagram")
    _require_alternating(
        diag, "the projection is not alternating; the thin rank recursion does not apply"
    )
    delta = multivariable_alexander(diag).delta
    sigma = signature(diag)
    assert sigma % 2 == 0, "knot signature should be even"
    tau = -sigma // 2
    if not delta:
        raise ValueError("zero Alexander polynomial for a knot (internal error)")
    r: dict[int, int] = {}
    for e2, a in delta.terms.items():
        assert e2[0] % 2 == 0, "knot Alexander exponents should be integers"
        r[e2[0] // 2] = abs(a)
    hi = max(max(r), tau)
    lo = min(min(r), tau)
    t = {hi + 1: 0}
    for s in range(hi, lo - 1, -1):
        t[s] = r.get(s, 0) - t[s + 1] - (1 if s == tau else 0)
        if t[s] < 0:
            raise ValueError("rank pattern is not thin (internal error)")
    if t[lo] != 0:
        raise ValueError("rank pattern is not thin (internal error)")
    pairs = []
    for s, count in t.items():
        pairs.extend([(1, s + sigma // 2, 2 * s)] * count)
    return ComponentData(tau, pairs=tuple(pairs))


# ----------------------------------------------------------------------
# The two-component solver

def two_component_cfl(
    delta: MultiLaurent, sigma: int, n: int, comps
) -> tuple[FilteredComplex, list[Summand]]:
    """Filtered chain homotopy type of a two-component alternating link.

    Takes the two-variable Alexander polynomial, the signature, the
    linking number ``n`` of the two components, and a pair of
    :class:`ComponentData`.  Returns (complex, summands) with the
    summand list sorted and the complex their direct sum.

    Each two-step pair of a component knot forces two staircase
    summands at consecutive gradings (V for the first component, H for
    the second), placed so that collapsing the other coordinate
    reproduces the knot pair tensored with a rank-two space shifted by
    half the linking number.  The free generators force a central
    zigzag pair, X or Y according to the sign of
    lf = tau1 + tau2 + n + (sigma - 1)/2.  Its width is fixed too: each
    component knot has its one free generator at grading 0, so the
    component homology has its frees at gradings 0 and -1, and the
    central pair is the only summand carrying free generators.  Its top
    therefore sits at grading 0, which leaves width |lf|.  All
    remaining table entries must tile exactly into acyclic squares.
    The sum is then checked against the rank table, the total homology
    and both component homologies from the summands' closed forms,
    without building or cancelling anything.  Inputs that fail any
    stage are refused with the stage named.
    """
    if delta.nvars != 2:
        raise ValueError("need a two-variable Alexander polynomial")
    comps = tuple(comps)
    if len(comps) != 2 or not all(isinstance(x, ComponentData) for x in comps):
        raise ValueError("need ComponentData for exactly two components")
    if delta:
        delta = symmetric_normalize(delta)
    try:
        target = table_from_invariants(delta, sigma, (n, n))
    except ValueError as e:
        raise ValueError(f"constraints unsatisfiable: {e}") from None

    c = (1 - sigma) // 2
    forced: list[Summand] = []
    for lam, dk, s2 in comps[0].pairs:
        a2 = s2 + n
        for m in (dk, dk - 1):
            forced.append(Summand("V", m, lam, (a2, 2 * m - a2 + 2 * c)))
    for lam, dk, s2 in comps[1].pairs:
        b2 = s2 + n
        for m in (dk, dk - 1):
            forced.append(Summand("H", m, lam, (2 * m - b2 + 2 * c, b2)))
    rest = Counter(target.ranks)
    _take_cells(rest, forced, "the component pairs do not fit")

    lf = comps[0].tau + comps[1].tau + n + (sigma - 1) // 2
    family, k = ("Y" if lf >= 0 else "X"), abs(lf)
    central = _central_pair(family, k, comps[0].tau, comps[1].tau, n)
    _take_cells(rest, central, f"the central {family}-pair at width {k} does not fit")

    summands = sorted(forced + central + _tile_squares(+rest))
    failed = _failed_check(summands, target, comps, n)
    if failed:
        raise ValueError(f"constraints unsatisfiable: {failed}")
    return build_sum(summands), summands


def _cell(d: int, h2) -> str:
    return f"d={d}, h2={h2}"


def _take_cells(rest: Counter, summands, failure: str) -> None:
    """Remove the cells of ``summands`` from ``rest``, or refuse.

    The refusal names the first cell the summands need more often than
    the rank table offers it.
    """
    rest.subtract(sum_cells(summands))
    over = sorted(cell for cell, r in rest.items() if r < 0)
    if over:
        raise ValueError(
            f"constraints unsatisfiable: {failure} the rank table "
            f"(the table has too few generators at {_cell(*over[0])})"
        )


def _central_pair(family: str, k: int, tau1: int, tau2: int, n: int):
    if family == "Y":
        p2 = 2 * tau1 + n - 2 * k
        q2 = 2 * tau2 + n - 2 * k
        return [
            Summand("Y", 0, k, (p2, q2)),
            Summand("Y", -1, k + 1, (p2 - 2, q2 - 2)),
        ]
    a2 = 2 * tau1 + n
    b2 = 2 * tau2 + n
    return [
        Summand("X", 0, k, (a2, b2)),
        Summand("X", -1, k - 1, (a2, b2)),
    ]


def _tile_squares(cells: Counter) -> list[Summand]:
    """Tile a cell multiset exactly by acyclic squares, or refuse.

    In any exact tiling the lexicographically smallest remaining
    position must be the low corner of its square, so the greedy
    choice is forced and the tiling, when it exists, is unique.  The
    refusal names that low corner and the missing corner of its square.
    """
    rest = Counter(cells)
    out = []
    while rest:
        d0, (x, y) = min(rest, key=lambda cell: (cell[1], cell[0]))
        needed = [
            (d0, (x, y)),
            (d0 + 1, (x + 2, y)),
            (d0 + 1, (x, y + 2)),
            (d0 + 2, (x + 2, y + 2)),
        ]
        for cell in needed:
            if rest.get(cell, 0) <= 0:
                raise ValueError(
                    "constraints unsatisfiable: the squares cannot tile the cell at "
                    f"{_cell(d0, (x, y))} (its square lacks {_cell(*cell)})"
                )
            rest[cell] -= 1
            if not rest[cell]:
                del rest[cell]
        out.append(Summand("B", d0, 0, (x, y)))
    return out


def _tensor_two_step(data: ComponentData, n: int):
    """Expected one-variable shape after cancelling one coordinate.

    Every summand of the knot complex appears twice, in consecutive
    gradings, with its filtration pushed over by half the linking
    number; this is the tensor with the rank-two homology of the
    other, unknotted-looking direction.  The knot's one free generator
    sits at grading 0 and doubled filtration 2 tau.
    """
    pairs: Counter = Counter()
    for lam, d, s2 in data.pairs:
        pairs[(lam, d, s2 + n)] += 1
        pairs[(lam, d - 1, s2 + n)] += 1
    free2 = 2 * data.tau + n
    return pairs, Counter({(0, free2): 1, (-1, free2): 1})


def _failed_check(summands, target: MultiGradedVS, comps, n: int) -> str | None:
    """Name the first output check the summands' direct sum fails, or None.

    Every model arrow drops a coordinate, so the associated graded
    homology of the sum is its cell count; its total and component
    homologies are the closed forms of ``sum_invariants``.
    """
    if sum_cells(summands) != Counter(target.ranks):
        return "the associated graded homology differs from the rank table"
    th, per_coordinate = sum_invariants(summands)
    if sorted(th.values()) != [1, 1] or max(th) - min(th) != 1:
        return f"the total homology {dict(th)} is not rank one in two adjacent gradings"
    for idx, data in enumerate(comps):
        # component idx + 1 survives when coordinate 2 - idx is cancelled
        if per_coordinate[1 - idx] != _tensor_two_step(data, n):
            return (
                f"the homology of component {idx + 1} is not its knot data "
                "tensored with a two-step pair"
            )
    return None


def two_component_cfl_from_diagram(
    diag: LinkDiagram,
) -> tuple[FilteredComplex, list[Summand]]:
    """Solve the filtered homotopy type straight from a diagram.

    The diagram must be a connected alternating projection of a
    two-component link whose individual components, after deleting the
    other one, are again alternating; every bundled two-component
    alternating link qualifies.
    """
    if diag.n_components != 2:
        raise ValueError("need a two-component diagram")
    _require_alternating(
        diag,
        "the projection is not alternating; only alternating links "
        "decompose into the model summands this way",
    )
    delta = multivariable_alexander(diag).delta
    sigma = signature(diag)
    n = linking_matrix(diag).lk[0][1]
    comps = tuple(
        component_data_from_diagram(keep_component(diag, i)) for i in range(2)
    )
    return two_component_cfl(delta, sigma, n, comps)

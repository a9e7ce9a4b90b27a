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
components, in one pass.  Its numbers are checked once, on entry, and
each summand stays a plain tuple until the list is final.  The staircase
summands and their placements are forced by the component knot data.
The central zigzag pair is forced too, width included: it alone carries
free generators, and the component knots put those at gradings 0 and
-1.  The leftover generators must tile exactly into acyclic squares.
The direct sum of the summands this gives is built once, and its
generator counts are checked against the rank table.  Its total
homology and both component homologies are checked too, read off closed
forms of the model summands, so nothing is cancelled to check them.  An
input that fails any stage is refused with that stage named.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Mapping

from .alexander import multivariable_alexander, signature
from .filtered import (
    FilteredComplex,
    MultiGradedVS,
    ValidationReport,
    asymmetric_cell,
    first_difference,
)
from .laurent import (
    MultiLaurent,
    as_ints,
    fmt_half,
    series_quotient,
    spin_product,
    symmetric_normalize,
)
from .linkdiag import LinkDiagram, SplitLinkError, keep_component, linking_matrix
from .summands import Summand, _placed, build_sum, sum_invariants

__all__ = [
    "ComponentData",
    "HFLReport",
    "CollapsedTable",
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

def _euler_target(delta: MultiLaurent) -> MultiLaurent:
    """``delta`` times the spin product; ``delta`` itself in one variable."""
    l = delta.nvars
    return spin_product(l) * delta if l > 1 else delta


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
    return _table_from_target(_euler_target(delta), sigma, totals)


def _table_from_target(target: MultiLaurent, sigma: int, totals) -> MultiGradedVS:
    """``table_from_invariants`` given ``_euler_target(delta)``.

    The target's terms are already checked, so the table is built without
    re-checking them, apart from the parity of each level: that test is
    what refuses exponents off the coset the linking totals fix.
    """
    l = target.nvars
    (sigma,) = as_ints((sigma,), "signature")
    totals = as_ints(totals, "linking total")
    if len(totals) != l:
        raise ValueError("need one linking total per variable")
    parity = [t % 2 for t in totals]
    ranks: dict = {}
    for e2, a in target.terms.items():
        num = sum(e2) + sigma - l + 1
        if num % 2:
            raise ValueError(
                f"signature {sigma} is incompatible with the grading lattice "
                f"(odd total grading at {e2})"
            )
        if [x % 2 for x in e2] != parity:
            raise ValueError(f"grading {e2} violates parity {tuple(parity)}")
        ranks[(num // 2, e2)] = abs(a)
    return MultiGradedVS._trusted(l, tuple(parity), ranks)


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


def _alternating_invariants(diag: LinkDiagram, message: str) -> tuple[MultiLaurent, int]:
    """Delta and sigma of a connected alternating projection.

    Refuses a split projection, then a non-alternating one with ``message``.
    """
    if not diag.connected:
        raise SplitLinkError("the projection is split")
    if not diag.is_alternating():
        raise ValueError(message)
    return multivariable_alexander(diag).delta, signature(diag)


def hfl_alternating(diag: LinkDiagram) -> HFLReport:
    """Homology table of a connected alternating projection, l >= 1."""
    delta, sigma = _alternating_invariants(
        diag,
        "the projection is not alternating, so the rank table is not "
        "determined by the Alexander polynomial and signature",
    )
    lkd = linking_matrix(diag)
    target = _euler_target(delta)
    table = _table_from_target(target, sigma, lkd.total)
    euler = table.euler()
    return HFLReport(
        table=table,
        delta=delta,
        euler=euler,
        sigma=sigma,
        l=diag.n_components,
        linking=lkd.lk,
        euler_ok=bool(_verify_euler_hat(euler, target)),
        symmetry_ok=bool(verify(table, delta, "symmetry")),
    )


def hfk_alternating_knot(diag: LinkDiagram) -> MultiGradedVS:
    """The table ``hfl_alternating`` gives a knot."""
    if diag.n_components != 1:
        raise ValueError("link input: use hfl_alternating")
    return hfl_alternating(diag).table


# ----------------------------------------------------------------------
# Collapse to the one-variable table

class CollapsedTable:
    """Ranks indexed by doubled Maslov grading and doubled filtration.

    Folding an l-variable table over the coordinate sum shifts the
    Maslov grading by (l - 1)/2, a half-integer for even l, so the
    grading is stored doubled alongside the doubled filtration.  A value
    that is not an integer is refused, naming its field.  Tables compare
    by their ranks and are unhashable.
    """

    __slots__ = ("ranks",)

    def __init__(self, ranks: Mapping | None = None):
        clean: dict[tuple[int, int], int] = {}
        for (d2, s2), r in (ranks or {}).items():
            key = as_ints((d2, s2), "collapsed table grading")
            (r,) = as_ints((r,), "cell %r rank", key)
            if r < 0:
                raise ValueError("ranks must be nonnegative")
            if r:
                clean[key] = clean.get(key, 0) + r
        self.ranks = clean

    def __eq__(self, other) -> bool:
        return isinstance(other, CollapsedTable) and self.ranks == other.ranks

    def rank(self, d2: int, s2: int) -> int:
        return self.ranks.get((d2, s2), 0)

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
            lines.append(f"s={fmt_half(s2)}  d={fmt_half(d2)}  rank={r}")
        return "\n".join(lines) if lines else "(zero)"

    def __repr__(self):
        return f"CollapsedTable({self.ranks!r})"


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

EULER_MINUS_DEPTH = 6  # terms of the truncated series in the euler_minus check


def verify(table: MultiGradedVS, delta: MultiLaurent, kind: str) -> ValidationReport:
    """Check a rank table against its Alexander polynomial.

    ``euler_hat``: the graded Euler characteristic must equal the
    spin product times ``delta``, up to one global sign (``delta``
    itself in one variable).  ``euler_minus``: dividing the Euler
    characteristic by every (1 - T_i^{-1}) as a truncated geometric
    series must reproduce the half-shifted ``delta`` on the window
    where the truncation is exact.  ``symmetry``: no cell may break the
    symmetry that ``filtered.asymmetric_cell`` checks.  A failed report
    carries the first counterexample found.
    """
    if table.nvars != delta.nvars:
        raise ValueError("table and polynomial disagree on the variable count")
    if kind == "euler_hat":
        return _verify_euler_hat(table.euler(), _euler_target(delta))
    if kind == "euler_minus":
        return _verify_euler_minus(table, delta)
    if kind == "symmetry":
        return _verify_symmetry(table)
    raise ValueError(f"unknown check {kind!r}")


def _verify_euler_hat(chi: MultiLaurent, target: MultiLaurent) -> ValidationReport:
    """The ``euler_hat`` check of a table's Euler characteristic ``chi``
    against ``_euler_target(delta)``."""
    if chi == target or chi == -target:
        return ValidationReport(True, "euler_hat")
    diff_m = chi - target
    diff_p = chi + target
    diff = diff_m if len(diff_m.terms) <= len(diff_p.terms) else diff_p
    e = min(diff.terms)
    return ValidationReport(
        False,
        "euler_hat",
        f"first mismatch at doubled exponent {e}: chi = {chi}, want ±({target})",
    )


def _verify_symmetry(table: MultiGradedVS) -> ValidationReport:
    found = asymmetric_cell(table.ranks)
    if found is None:
        return ValidationReport(True, "symmetry")
    (d, h2), (d2, neg) = found
    return ValidationReport(
        False,
        "symmetry",
        f"rank {table.rank(d, h2)} at d={d}, h2={h2} "
        f"but rank {table.rank(d2, neg)} at d={d2}, h2={neg}",
    )


def _verify_euler_minus(table: MultiGradedVS, delta: MultiLaurent) -> ValidationReport:
    l = table.nvars
    chi = table.euler()
    lhs = chi
    for i in range(1, l + 1):
        lhs = series_quotient(lhs, i, EULER_MINUS_DEPTH)
    if l == 1:
        target = series_quotient(delta, 1, EULER_MINUS_DEPTH)
    else:
        target = delta.shift((1,) * l)
    floor2 = []
    for i in range(l):
        tops = [e[i] for e in chi.terms] + [e[i] for e in target.terms]
        floor2.append((max(tops) if tops else 0) - 2 * EULER_MINUS_DEPTH - 1)
    lw = lhs.restrict(floor2)
    tw = target.restrict(floor2)
    if lw == tw or lw == -tw:
        return ValidationReport(True, "euler_minus")
    return ValidationReport(
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
        (tau,) = as_ints((self.tau,), "component tau")
        pairs = tuple(sorted(as_ints(pair, "component pair entry") for pair in self.pairs))
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "pairs", pairs)
        for lam, _d, s2 in pairs:
            if lam < 1:
                raise ValueError("pair length must be at least 1")
            if s2 % 2:
                raise ValueError("knot filtrations are integers (even doubled values)")


def component_data_from_diagram(diag: LinkDiagram) -> ComponentData:
    """Thin knot data from a connected alternating knot projection.

    The ranks |a_s| of the Alexander coefficients sit on the single
    diagonal d = s + sigma/2, and on that diagonal the filtered
    homotopy type is forced: one free generator at filtration
    tau = -sigma/2 and otherwise length-one pairs, whose count per
    level is read off the ranks from the top down.  For an alternating
    knot every count is nonnegative and the recursion ends at 0; data
    from a wrong Delta or sigma gives wrong pairs, and the two-component
    solver refuses those at its cell or component-homology checks.
    """
    if diag.n_components != 1:
        raise ValueError("component data needs a knot diagram")
    delta, sigma = _alternating_invariants(
        diag, "the projection is not alternating; the thin rank recursion does not apply"
    )
    assert sigma % 2 == 0, "knot signature should be even"
    tau = -sigma // 2
    r: dict[int, int] = {}
    for e2, a in delta.terms.items():
        assert e2[0] % 2 == 0, "knot Alexander exponents should be integers"
        r[e2[0] // 2] = abs(a)
    hi = max(max(r), tau)
    lo = min(min(r), tau)
    t = {hi + 1: 0}
    for s in range(hi, lo - 1, -1):
        t[s] = r.get(s, 0) - t[s + 1] - (1 if s == tau else 0)
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
    The sum is built once; its generator counts are checked against the
    rank table, and its total and both component homologies against the
    summands' closed forms, with nothing cancelled.  Inputs that fail
    any stage are refused with the stage named.

    Numbers are checked once, on entry: ``sigma`` and ``n`` by
    :func:`hfl.laurent.as_ints`, the knot data by ``ComponentData``.  Each
    summand is then a plain (kind, d, lparam, shift2) tuple of ints, spelled
    as ``Summand`` spells it, made a ``Summand`` once, unchecked, when the
    sorted list is final.
    """
    if delta.nvars != 2:
        raise ValueError("need a two-variable Alexander polynomial")
    comps = tuple(comps)
    if len(comps) != 2 or not all(isinstance(x, ComponentData) for x in comps):
        raise ValueError("need ComponentData for exactly two components")
    (sigma,) = as_ints((sigma,), "signature")
    (n,) = as_ints((n,), "linking number")
    if delta:
        delta = symmetric_normalize(delta)
    try:
        target = table_from_invariants(delta, sigma, (n, n))
    except ValueError as e:
        raise ValueError(f"constraints unsatisfiable: {e}") from None

    c = (1 - sigma) // 2
    forced = []
    for kind, data in zip("VH", comps):
        for lam, dk, s2 in data.pairs:
            for m in (dk, dk - 1):
                # H is V mirrored: the same placement with the coordinates swapped
                shift = (s2 + n, 2 * m - s2 - n + 2 * c)
                forced.append((kind, m, lam, shift if kind == "V" else shift[::-1]))
    rest = dict(target.ranks)
    _take_cells(rest, forced, "the component pairs do not fit")

    lf = comps[0].tau + comps[1].tau + n + (sigma - 1) // 2
    family, k = ("Y" if lf >= 0 else "X"), abs(lf)
    p2, q2 = 2 * comps[0].tau + n, 2 * comps[1].tau + n
    if family == "Y":
        p2, q2 = p2 - 2 * k, q2 - 2 * k
        central = [("Y", 0, k, (p2, q2)), ("Y", -1, k + 1, (p2 - 2, q2 - 2))]
    else:  # k >= 1, and a width-zero X is spelled Y
        central = [("X", 0, k, (p2, q2)), ("X" if k > 1 else "Y", -1, k - 1, (p2, q2))]
    _take_cells(rest, central, f"the central {family}-pair at width {k} does not fit")

    summands = [Summand._trusted(*t) for t in sorted(forced + central + _tile_squares(rest))]
    cx = build_sum(summands)
    failed = _failed_check(cx, summands, target, comps, n)
    if failed:
        raise ValueError(f"constraints unsatisfiable: {failed}")
    return cx, summands


def _cell(d: int, h2) -> str:
    return f"d={d}, h2={h2}"


def _take_cells(rest: dict, summands, failure: str) -> None:
    """Take the cells of the summand tuples off the rank dict ``rest``, or
    refuse, naming the first cell they need more often than it is offered."""
    over = []
    for t in summands:
        for _, m, h2 in _placed(*t)[0]:
            r = rest[m, h2] = rest.get((m, h2), 0) - 1
            if r < 0:
                over.append((m, h2))
    if over:
        raise ValueError(f"constraints unsatisfiable: {failure} the rank table (the table "
                         f"has too few generators at {_cell(*min(over))})")


def _tile_squares(cells: Mapping) -> list[tuple]:
    """Tile a cell multiset exactly by acyclic squares, as tuples, or refuse.

    In any exact tiling the smallest remaining cell, by (level, Maslov),
    must be the low corner of its square, so the greedy choice is forced
    and the tiling, when it exists, is unique.  The square's other three
    corners sort after its low corner, so one pass over the cells in
    that order meets each cell only once every smaller one is used up,
    as the low corner of as many squares as its rank.  The refusal names
    that low corner and the corner that runs out first when its squares
    are laid one by one: the first of least rank.
    """
    rest = dict(cells)
    out = []
    for low in sorted(rest, key=itemgetter(1, 0)):
        count = rest[low]
        if not count:
            continue
        d0, (x, y) = low
        corners = ((d0 + 1, (x + 2, y)), (d0 + 1, (x, y + 2)), (d0 + 2, (x + 2, y + 2)))
        have = [rest.get(cell, 0) for cell in corners]
        if min(have) < count:
            raise ValueError(
                "constraints unsatisfiable: the squares cannot tile the cell at "
                f"{_cell(*low)} (its square lacks {_cell(*corners[have.index(min(have))])})"
            )
        for cell in corners:
            rest[cell] -= count
        out += [("B", d0, 0, (x, y))] * count
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


def _failed_check(cx: FilteredComplex, summands, target: MultiGradedVS, comps, n) -> str | None:
    """Name the first output check that ``cx``, the summands' direct sum,
    fails, or None.

    Every model arrow drops a coordinate, so the associated graded
    homology of ``cx`` is its generator count, read off ``cx`` itself.
    Its total and component homologies are the closed forms of
    ``sum_invariants``, and nothing is cancelled.
    """
    cell = first_difference(cx.counts().ranks, target.ranks)
    if cell:
        d, h2, rank, want = cell
        return (f"the associated graded homology differs from the rank table "
                f"first at {_cell(d, h2)}: rank {rank}, not {want}")
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
    delta, sigma = _alternating_invariants(
        diag,
        "the projection is not alternating; only alternating links "
        "decompose into the model summands this way",
    )
    n = linking_matrix(diag).lk[0][1]
    comps = tuple(
        component_data_from_diagram(keep_component(diag, i)) for i in range(2)
    )
    return two_component_cfl(delta, sigma, n, comps)

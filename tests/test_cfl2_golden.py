"""The two-component solver's outputs, pinned, and the search it replaced.

``data/cfl2_golden.json`` was recorded while the solver still searched
over widths of the central zigzag pair.  For every coprime (p, q) with
even p <= 40 and every two-component corpus link it holds the sorted
summand strings and the complex of ``two_component_cfl_from_diagram``,
or its refusal message.

``reference_search`` is that width search, kept here as an independent
reference: the one-pass solver must return what it returns, refuse
where it refuses, and its single survivor must have width |lf|.  The
output checks the solver reads off closed forms of the model summands
run here by brute force, on every solved two-bridge link with even
p <= 36.

The solver builds each summand once, unchecked, from ints it checked on
entry.  Its summands are compared with what the public constructor
keeps, and ``helpers.reference_two_component_cfl``, the solver as it
ran before, is the reference on inputs the golden file cannot reach:
links with a knotted component, and one input per refusal stage.
"""

import json
from collections import Counter
from functools import cache
from math import gcd
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

from helpers import reference_two_component_cfl
from hfl import homology
from hfl.alexander import multivariable_alexander, signature
from hfl.filtered import (
    assoc_graded_homology,
    component_homology,
    total_homology,
    validate,
)
from hfl.homology import (
    ComponentData,
    _tensor_two_step,
    component_data_from_diagram,
    hfl_alternating,
    table_from_invariants,
    two_component_cfl,
    two_component_cfl_from_diagram,
)
from hfl.laurent import MultiLaurent, symmetric_normalize
from hfl.linkdiag import connected_sum, corpus, keep_component, linking_matrix, two_bridge
from hfl.summands import Summand, build_sum, build_summand, decompose, e_decomposition

GOLDEN = json.loads((Path(__file__).parent / "data" / "cfl2_golden.json").read_text())


def solved(name):
    try:
        cx, summands = two_component_cfl_from_diagram(corpus(name))
    except ValueError as err:
        return {"refused": str(err)}
    return {"summands": sorted(str(s) for s in summands), "complex": cx.to_json_dict()}


@pytest.mark.parametrize("family", ["two_bridge(", "corpus"])
def test_golden_two_component_types(family):
    names = [
        name for name in GOLDEN["links"]
        if name.startswith("two_bridge(") == (family == "two_bridge(")
    ]
    assert names
    for name in names:
        assert solved(name) == GOLDEN["links"][name], name


def test_golden_covers_the_family():
    assert len(GOLDEN["links"]) == 180
    refused = sorted(name for name, got in GOLDEN["links"].items() if "refused" in got)
    assert refused == ["L7n1", "L7n2", "two_bridge(34,13)", "two_bridge(34,21)"]


# ----------------------------------------------------------------------
# The output checks, by brute force

TWO_BRIDGE = [(p, q) for p in range(2, 37, 2) for q in range(1, p) if gcd(p, q) == 1]


def test_solved_two_bridge_links_pass_the_brute_force_checks():
    # the solver reads these checks off closed forms of the model
    # summands; here they run on the complex it returns
    refused = []
    for p, q in TWO_BRIDGE:
        diag = two_bridge(p, q)
        try:
            cx, summands = two_component_cfl_from_diagram(diag)
        except ValueError:
            refused.append((p, q))
            continue
        n = linking_matrix(diag).lk[0][1]
        assert validate(cx), (p, q)
        assert assoc_graded_homology(cx) == hfl_alternating(diag).table, (p, q)
        assert total_homology(cx) == {0: 1, -1: 1}, (p, q)
        for i in (0, 1):
            data = component_data_from_diagram(keep_component(diag, i))
            got = e_decomposition(component_homology(cx, 2 - i))
            assert got == _tensor_two_step(data, n), (p, q, i)
        assert decompose(cx) == summands, (p, q)
    assert len(TWO_BRIDGE) == 139 and refused == [(34, 13), (34, 21)]


# ----------------------------------------------------------------------
# Summands made once, from checked ints, and the solver they replaced

def diagram_invariants(d):
    return (multivariable_alexander(d).delta, signature(d), linking_matrix(d).lk[0][1],
            tuple(component_data_from_diagram(keep_component(d, i)) for i in range(2)))


def forced_pair_inputs():
    """Solver inputs of links with a knotted component, where it places V
    or H summands: two-bridge components are unknots, so the golden file
    holds neither.  A knot goes into the first component of a link (V),
    into the second (H), or one into each."""
    knots = [corpus(name) for name in ("trefoil_right", "trefoil_left", "figure8")]
    links = [corpus(name) for name in ("hopf_plus", "hopf_minus", "torus_2_2n(3)")]
    links += [two_bridge(10, 3), two_bridge(14, 5)]
    diagrams = [connected_sum(knots[0], connected_sum(links[2], knots[2], 1, 0), 0, 0)]
    for knot in knots:
        for link in links:
            diagrams += [connected_sum(knot, link, 0, 0), connected_sum(link, knot, 1, 0)]
    out = []
    for d in diagrams:
        try:
            out.append(diagram_invariants(d))
        except ValueError:  # a component whose projection is not alternating
            continue
    return out


def test_solver_summands_are_what_the_public_constructor_keeps():
    solved = [two_component_cfl_from_diagram(corpus(name))[1]
              for name, got in GOLDEN["links"].items() if "summands" in got]
    solved += [two_component_cfl(*args)[1] for args in forced_pair_inputs()]
    spelled = set()
    for summands in solved:
        for s in summands:
            assert Summand(s.kind, s.d, s.lparam, s.shift2) == s
            assert type(s.shift2) is tuple
            assert all(type(v) is int for v in (s.d, s.lparam, *s.shift2)), s
            assert (s.kind, s.lparam) != ("X", 0), s
            spelled.add(str(s)[:4])
    # the X family at width 1 ends in a width-zero zigzag, spelled Y
    assert {"X^1(", "Y^0(", "V^1(", "H^1("} <= spelled
    assert len(solved) == 176 + 29


def outcome(solve, *args):
    try:
        cx, summands = solve(*args)
    except ValueError as err:
        return str(err)
    return summands, cx.to_json_dict()


HOPF_DELTA = MultiLaurent(2, {(0, 0): 1})
UNKNOTS = (ComponentData(0), ComponentData(0))
# one input per refusal stage, with the phrase its refusal holds; a low
# cell of rank 2 or 3 is the low corner of that many squares, and the
# corner named is the first to run out when they are laid one by one
REFUSALS = [
    ((HOPF_DELTA, 0, 1, UNKNOTS), "is incompatible with the grading lattice"),
    ((HOPF_DELTA, -1, 1, (ComponentData(1, pairs=((1, -1, 0),)), ComponentData(0))),
     "the component pairs do not fit"),
    ((HOPF_DELTA, -1, 1, (ComponentData(1), ComponentData(0))), "the central Y-pair at width 1"),
    ((HOPF_DELTA, -1, 1, (ComponentData(-1), ComponentData(0))), "the central X-pair at width 1"),
    ((MultiLaurent(2, {(0, 0): 3, (-2, 2): -1, (2, -2): -1}), -1, 1, UNKNOTS),
     "the cell at d=-2, h2=(-1, -1) (its square lacks d=-1, h2=(-1, 1))"),
    ((MultiLaurent(2, {(0, 0): 1, (-2, -2): -3, (2, 2): -3, (2, 0): -1, (-2, 0): -1}), -1, 1,
      UNKNOTS), "the cell at d=-4, h2=(-3, -3) (its square lacks d=-2, h2=(-1, -1))"),
]


def test_solver_matches_the_reference_where_the_golden_file_cannot_reach(monkeypatch):
    inputs = forced_pair_inputs()
    assert len(inputs) == 29
    for args in inputs:
        assert outcome(two_component_cfl, *args) == outcome(reference_two_component_cfl, *args)
    for args, phrase in REFUSALS:
        got = outcome(two_component_cfl, *args)
        assert phrase in got and got == outcome(reference_two_component_cfl, *args)
    # the output check fails only on a fault: here, broken closed forms
    monkeypatch.setattr(homology, "sum_invariants", lambda ss: (Counter({0: 2}), ({}, {})))
    for args in inputs[:3]:
        got = outcome(two_component_cfl, *args)
        assert got == outcome(reference_two_component_cfl, *args) == (
            "constraints unsatisfiable: the total homology {0: 2} is not rank one "
            "in two adjacent gradings")


# ----------------------------------------------------------------------
# The width search, as the solver ran it before the width was solved
# in closed form

def _cells(s):
    return Counter(build_summand(s).counts().ranks)


def _central_at_width(family, k, lf, tau1, tau2, n):
    if family == "Y":
        p2, q2, g = 2 * tau1 + n - 2 * k, 2 * tau2 + n - 2 * k, lf - k
        return [Summand("Y", g, k, (p2, q2)), Summand("Y", g - 1, k + 1, (p2 - 2, q2 - 2))]
    a2, b2, g = 2 * tau1 + n, 2 * tau2 + n, lf + k
    return [Summand("X", g, k, (a2, b2)), Summand("X", g - 1, k - 1, (a2, b2))]


def _squares(cells):
    rest = Counter(cells)
    out = []
    while rest:
        d0, (x, y) = min(rest, key=lambda cell: (cell[1], cell[0]))
        for cell in [(d0, (x, y)), (d0 + 1, (x + 2, y)), (d0 + 1, (x, y + 2)),
                     (d0 + 2, (x + 2, y + 2))]:
            if rest[cell] <= 0:
                return None
            rest[cell] -= 1
            if not rest[cell]:
                del rest[cell]
        out.append(Summand("B", d0, 0, (x, y)))
    return out


def _two_step(data, n):
    pairs, frees = Counter(), Counter()
    for lam, d, s2 in data.pairs:
        pairs[(lam, d, s2 + n)] += 1
        pairs[(lam, d - 1, s2 + n)] += 1
    frees[(0, 2 * data.tau + n)] += 1
    frees[(-1, 2 * data.tau + n)] += 1
    return pairs, frees


def _passes(cx, target, comps, n):
    th = total_homology(cx)
    return (
        bool(validate(cx))
        and assoc_graded_homology(cx) == target
        and sorted(th.values()) == [1, 1]
        and max(th) - min(th) == 1
        and all(
            e_decomposition(component_homology(cx, 2 - idx)) == _two_step(data, n)
            for idx, data in enumerate(comps)
        )
    )


def reference_search(delta, sigma, n, comps):
    """Every central width whose complex passes all checks, with its summands.

    None when the inputs are refused before any width is tried.
    """
    if delta:
        delta = symmetric_normalize(delta)
    try:
        target = table_from_invariants(delta, sigma, (n, n))
    except ValueError:
        return None
    c = (1 - sigma) // 2
    forced = []
    for lam, dk, s2 in comps[0].pairs:
        for m in (dk, dk - 1):
            forced.append(Summand("V", m, lam, (s2 + n, 2 * m - s2 - n + 2 * c)))
    for lam, dk, s2 in comps[1].pairs:
        for m in (dk, dk - 1):
            forced.append(Summand("H", m, lam, (2 * m - s2 - n + 2 * c, s2 + n)))
    base = Counter(target.ranks)
    for s in forced:
        base.subtract(_cells(s))
    if base and min(base.values()) < 0:
        return None
    lf = comps[0].tau + comps[1].tau + n + (sigma - 1) // 2
    family = "Y" if lf >= 0 else "X"
    spread = 0
    if target.ranks:
        xs = [h2[0] for (_d, h2) in target.ranks]
        ys = [h2[1] for (_d, h2) in target.ranks]
        spread = (max(xs) - min(xs) + max(ys) - min(ys)) // 2 + 1
    widths = range(0, spread + 1) if family == "Y" else range(1, spread + 2)
    survivors = {}
    for k in widths:
        central = _central_at_width(family, k, lf, comps[0].tau, comps[1].tau, n)
        rest = +base
        for s in central:
            rest.subtract(_cells(s))
        if rest and min(rest.values()) < 0:
            continue
        squares = _squares(+rest)
        if squares is None:
            continue
        summands = sorted(forced + central + squares)
        if _passes(build_sum(summands), target, comps, n):
            survivors[k] = summands
    return survivors


LINKS = [
    "hopf_plus", "hopf_minus", "torus_2_2n(2)", "torus_2_2n(3)", "two_bridge(8,3)",
    "two_bridge(10,3)", "two_bridge(12,5)", "two_bridge(14,3)", "two_bridge(16,7)", "L7n2",
]


@cache
def invariants(name):
    d = corpus(name)
    if d.is_alternating():
        return diagram_invariants(d)
    # the clasp link: left trefoil and unknot
    comps = (ComponentData(-1, pairs=((1, 2, 2),)), ComponentData(0))
    return multivariable_alexander(d).delta, signature(d), linking_matrix(d).lk[0][1], comps


def _domino(delta, x, y):
    """``delta`` plus T^e + T^(e + (1, 0)) and its mirror image, e = (x, y) + parity.

    Two adjacent equal terms leave cells of the rank table that no
    square covers, which sends the solver to its tiling stage.
    """
    par = tuple(e % 2 for e in next(iter(delta.terms)))
    e = (2 * x + par[0], 2 * y + par[1])
    terms = dict(delta.terms)
    for t in (e, (e[0] + 2, e[1]), (-e[0], -e[1]), (-e[0] - 2, -e[1])):
        terms[t] = terms.get(t, 0) + 1
    return MultiLaurent(2, {t: a for t, a in terms.items() if a})


pair_st = st.tuples(st.integers(1, 3), st.integers(-3, 3), st.integers(-3, 3).map(lambda s: 2 * s))
# mostly the link's own value, so that a fair share of draws solve
offset_st = st.sampled_from([0, 0, 0, 0, -1, 1, -2, 2])
rarely_st = st.sampled_from([False, False, True])
STAGES = ("signature", "grading", "component pairs", "central", "tile", "homology", "legal")


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(LINKS),
    st.tuples(offset_st, offset_st),
    st.tuples(rarely_st, rarely_st),
    st.lists(pair_st, max_size=1),
    offset_st,
    offset_st.map(lambda s: 2 * s),
    rarely_st,
    st.one_of(st.none(), st.tuples(st.integers(2, 4), st.integers(-1, 1))),
)
def test_one_pass_matches_the_width_search(name, dtau, drop, extra, dn, dsigma, swap, domino):
    delta, sigma, n, comps = invariants(name)
    comps = [
        ComponentData(c.tau + dt, pairs=c.pairs[1:] if dropped else c.pairs)
        for c, dt, dropped in zip(comps, dtau, drop)
    ]
    comps[0] = ComponentData(comps[0].tau, pairs=comps[0].pairs + tuple(extra))
    if swap:
        comps.reverse()
    if domino:
        delta = _domino(delta, *domino)
    n, sigma = n + dn, sigma + dsigma
    survivors = reference_search(delta, sigma, n, comps)
    try:
        cx, summands = two_component_cfl(delta, sigma, n, comps)
    except ValueError as err:
        assert str(err).startswith("constraints unsatisfiable: "), err
        assert not survivors
        event(next((stage for stage in STAGES if stage in str(err)), "other"))
        return
    event("solved")
    lf = comps[0].tau + comps[1].tau + n + (sigma - 1) // 2
    assert survivors == {abs(lf): summands}
    assert cx == build_sum(summands)


def test_reference_search_solves_the_pinned_links():
    # the search is only a reference if it finds what the golden file holds
    for name in LINKS[:-1]:
        survivors = reference_search(*invariants(name))
        found = [sorted(str(s) for s in summands) for summands in survivors.values()]
        assert found == [GOLDEN["links"][name]["summands"]], name

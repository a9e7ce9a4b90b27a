import ast
import dataclasses
import math
import random
from collections import Counter
from itertools import permutations, product
from pathlib import Path

import pytest

from hfl import heegaard, linkdiag
from hfl.filtered import (
    FilteredComplex,
    MultiGradedVS,
    assoc_graded_homology,
    component_homology,
    total_homology,
    validate,
)
from hfl.heegaard import (
    SphereDiagram,
    admissibility,
    complex_from_diagram,
    filtered_complex_from_diagram,
    oracle_compare,
    two_bridge_diagram,
)
from hfl.homology import hfl_alternating, two_component_cfl_from_diagram
from hfl.summands import decompose

from helpers import ListBigons, arc, connect


def side_domain(d, curve, side):
    """Multiplicity 1 on the regions on one side of alpha (0) or beta (1)."""
    return {r: int(d.sides[r][curve] == side) for r in d.regions}


def test_generator_and_region_counts():
    for n in (1, 2, 3, 4):
        d = two_bridge_diagram(2 * n, 1)
        assert len(d.alpha) == 4 * n
        assert sorted(d.beta) == sorted(d.alpha)
        assert len(d.regions) == len(d.alpha) + 2
        assert sum(d.sign.values()) == 0
        assert sorted(d.sign.values()).count(1) == 2 * n


def test_parameter_validation():
    with pytest.raises(ValueError):
        two_bridge_diagram(4, 2)
    with pytest.raises(ValueError):
        two_bridge_diagram(6, 3)
    with pytest.raises(ValueError):
        two_bridge_diagram(5, 2)
    with pytest.raises(ValueError):
        two_bridge_diagram(2, 0)
    with pytest.raises(ValueError):
        two_bridge_diagram(2, 5)
    with pytest.raises(ValueError):
        two_bridge_diagram(0, 1)


def test_degenerate_diagram():
    d = two_bridge_diagram(1, 1)
    assert d.alpha == () and d.beta == ()
    assert d.regions == ("r0",)
    assert d.basepoints == {"w1": "r0", "z1": "r0"}
    assert d.periodic == {}
    assert admissibility(d)
    cx = complex_from_diagram(d)
    assert len(cx) == 1 and cx.arrows == frozenset()
    assert cx.maslov("x0") == 0 and cx.filt2("x0") == (0,)


def test_basepoints_balanced():
    d = two_bridge_diagram(8, 3)
    bp = d.basepoints
    assert len({bp[k] for k in ("w1", "z1", "w2", "z2")}) == 4
    assert d.sides[bp["w1"]] == d.sides[bp["z1"]]
    assert d.sides[bp["w2"]] == d.sides[bp["z2"]]
    s1, s2 = d.sides[bp["w1"]], d.sides[bp["w2"]]
    assert s1[0] != s2[0] and s1[1] != s2[1]


def test_check_rejects_separated_pair():
    d = two_bridge_diagram(2, 1)
    bad = dataclasses.replace(d, basepoints={**d.basepoints, "z1": d.basepoints["z2"]})
    with pytest.raises(ValueError):
        bad.check()


def test_periodic_domain_is_difference_of_sides():
    d = two_bridge_diagram(6, 1)
    pi = d.periodic
    assert 0 not in pi.values()
    assert max(pi.values()) > 0 > min(pi.values())
    for key in ("w1", "z1", "w2", "z2"):
        assert pi.get(d.basepoints[key], 0) == 0
    a0, b0 = side_domain(d, 0, 0), side_domain(d, 1, 0)
    assert all(pi.get(r, 0) == a0[r] - b0[r] for r in d.regions)
    # boundary is a combination of full curves: the jump across every
    # edge of each curve is one and the same unit
    jumps = {"a": set(), "b": set()}
    for (kind, _), (left, right) in d.edges.items():
        jumps[kind].add(pi.get(left, 0) - pi.get(right, 0))
    assert jumps["a"] == {-1} and jumps["b"] == {-1}


def test_admissibility_of_generated_diagrams():
    assert admissibility(two_bridge_diagram(2, 1))
    assert admissibility(two_bridge_diagram(8, 3))


def test_admissibility_rejects_one_sided_domain():
    d = two_bridge_diagram(2, 1)
    side = {r: 1 for r in d.regions if d.sides[r][0] == 0}
    assert not admissibility(dataclasses.replace(d, periodic=side))
    negated = {r: -v for r, v in side.items()}
    assert not admissibility(dataclasses.replace(d, periodic=negated))


def test_hopf_complex():
    cx = complex_from_diagram(two_bridge_diagram(2, 1))
    assert len(cx) == 4
    assert cx.arrows == frozenset()
    table = assoc_graded_homology(cx)
    assert table.ranks == {
        (0, (1, 1)): 1,
        (-1, (1, -1)): 1,
        (-1, (-1, 1)): 1,
        (-2, (-1, -1)): 1,
    }
    assert table == hfl_alternating(linkdiag.two_bridge(2, 1)).table


def test_every_generator_survives():
    for p, q in [(4, 1), (8, 3)]:
        cx = complex_from_diagram(two_bridge_diagram(p, q))
        assert len(cx) == 2 * p
        assert cx.arrows == frozenset()
        assert sum(assoc_graded_homology(cx).ranks.values()) == 2 * p


def test_oracle_required_family():
    assert oracle_compare(2, 1)
    assert oracle_compare(4, 1)
    assert oracle_compare(6, 1)
    assert oracle_compare(8, 1)
    assert oracle_compare(8, 3)


def test_oracle_degenerate_and_extras():
    assert oracle_compare(1, 1)
    assert oracle_compare(4, 3)
    assert oracle_compare(6, 5)
    assert oracle_compare(8, 5)
    assert oracle_compare(8, 7)


def test_maslov_congruence_over_domain_lattice():
    d = two_bridge_diagram(6, 1)
    lattice = [
        side_domain(d, 0, 0),
        side_domain(d, 1, 1),
        {r: 1 for r in d.regions},
    ]
    w1, w2 = d.basepoints["w1"], d.basepoints["w2"]
    pairs = [("x0", "x5"), ("x3", "x9"), ("x11", "x2")]
    counts = Counter(r for quads in d.corners.values() for r in quads)

    def four_index(m, g, h):
        # 4 e(D) from each region's corner count, plus 4 n_g(D) + 4 n_h(D)
        return (sum((4 - counts[r]) * m[r] for r in d.regions)
                + sum(m[r] for r in d.corners[g] + d.corners[h]))

    for g, h in pairs:
        m = connect(d, g, h)
        assert d.index(m, g, h) * 4 == four_index(m, g, h)
        for extra, t in product(lattice, (-2, -1, 1, 2)):
            m2 = {r: m[r] + t * extra[r] for r in d.regions}
            lhs = four_index(m2, g, h) - four_index(m, g, h)
            rhs = 2 * (m2[w1] + m2[w2] - m[w1] - m[w2])
            assert lhs == 4 * rhs


def test_filtration_path_independence():
    d = two_bridge_diagram(8, 3)
    z1, w1 = d.basepoints["z1"], d.basepoints["w1"]
    z2, w2 = d.basepoints["z2"], d.basepoints["w2"]
    for g in d.alpha:
        seen = set()
        for fa, fb in product((True, False), repeat=2):
            m = connect(d, "x0", g, fa, fb)
            seen.add((m[z1] - m[w1], m[z2] - m[w2]))
        assert len(seen) == 1


def test_bigons_across_z_compute_the_sphere():
    # Dropping the z constraint turns the bigon count into the
    # differential over the sphere with two extra basepoints; its total
    # homology must be one copy of GF(2) at 0 and one at -1.
    for p, q in [(2, 1), (4, 1), (8, 3)]:
        d = two_bridge_diagram(p, q)
        cx = complex_from_diagram(d)
        avoid = (d.basepoints["w1"], d.basepoints["w2"])
        arrows = [
            (g, h)
            for g in d.alpha
            for h in d.alpha
            if g != h and d.bigons(g, h, avoid) % 2
        ]
        assert arrows
        wcx = FilteredComplex(
            2, cx.parity,
            [(g, cx.maslov(g), cx.filt2(g)) for g in cx.gen_ids],
            arrows,
        )
        assert validate(wcx)
        assert total_homology(wcx) == {0: 1, -1: 1}
        assert wcx == filtered_complex_from_diagram(d)


def test_emitted_complex_roundtrips():
    cx = complex_from_diagram(two_bridge_diagram(4, 1))
    again = FilteredComplex.from_json_dict(cx.to_json_dict())
    assert again.to_json_dict() == cx.to_json_dict()
    assert assoc_graded_homology(again) == assoc_graded_homology(cx)


def test_arc_walks_split_each_curve():
    d = two_bridge_diagram(8, 3)
    for curve, points in (("a", d.alpha), ("b", d.beta)):
        g, h = points[1], points[5]
        there = arc(d, curve, g, h, True)
        assert arc(d, curve, h, g, False) == {eid: -c for eid, c in there.items()}
        rest = arc(d, curve, h, g, True)
        assert sorted([*there, *rest]) == [(curve, i) for i in range(len(points))]
        assert set(there.values()) == set(rest.values()) == {1}
        assert arc(d, curve, g, g, True) == {}


EVEN_PAIRS = [(p, q) for p in range(2, 33, 2) for q in range(1, p) if math.gcd(p, q) == 1]


@pytest.mark.parametrize("p,q", EVEN_PAIRS, ids=[f"b({p},{q})" for p, q in EVEN_PAIRS])
def test_oracle_agrees_on_every_two_bridge_link(p, q):
    assert oracle_compare(p, q)


@pytest.mark.parametrize("p,q", EVEN_PAIRS, ids=[f"b({p},{q})" for p, q in EVEN_PAIRS])
def test_pair_window_matches_the_all_pairs_count(p, q):
    # The list-based reference counts bigons on every ordered pair of
    # generators, and the packed count agrees with it on each.  Its odd
    # counts are the arrows, and a pair outside the grading window
    # (Maslov drop 1, doubled Alexander drops 0 or 2) has none.
    d = two_bridge_diagram(p, q)
    ref, dom = ListBigons(d), d._domains
    shifts = [dom.shift[r] for r in d.regions]
    for g in d.alpha:
        assert dom.digits(dom.phi[g], shifts) == ref.phi[g], g
    avoid = (d.basepoints["w1"], d.basepoints["w2"])
    counts = {(g, h): ref.count(g, h, avoid) for g, h in permutations(d.alpha, 2)}
    assert counts == {(g, h): d.bigons(g, h, avoid) for g, h in counts}
    cx = filtered_complex_from_diagram(d)
    assert {pair for pair, n in counts.items() if n % 2} == cx.arrows
    for (g, h), n in counts.items():
        drops = [a - b for a, b in zip(cx.filt2(g), cx.filt2(h))]
        if cx.maslov(g) - cx.maslov(h) != 1 or any(x not in (0, 2) for x in drops):
            assert n == 0, (g, h)


# the benchmark's cfl2_two_bridge range: every pair with even p <= 36
SOLVER_PAIRS = [(p, q) for p in range(2, 37, 2) for q in range(1, p) if math.gcd(p, q) == 1]
SOLVER_REFUSES = ["b(34,13)", "b(34,21)"]


def test_bigon_summands_equal_the_solvers():
    # Two routes to the summand list of a two-bridge link: decompose the
    # bigon complex, or solve from the Fox/Goeritz data of the projection.
    # The solver refuses b(34,13) and b(34,21), where keep_component
    # returns a non-alternating diagram; those two are skipped, and they
    # must be the only pairs refused
    assert len(SOLVER_PAIRS) == 139
    refused = []
    for p, q in SOLVER_PAIRS:
        bigon = decompose(filtered_complex_from_diagram(two_bridge_diagram(p, q)))
        try:
            _, summands = two_component_cfl_from_diagram(linkdiag.two_bridge(p, q))
        except ValueError as err:
            assert str(err).startswith("the projection is not alternating"), (p, q)
            refused.append(f"b({p},{q})")
            continue
        assert bigon == summands, (p, q)
    assert refused == SOLVER_REFUSES


GRADING_PAIRS = EVEN_PAIRS + [(98, 37), (98, 1)]


@pytest.mark.parametrize("p,q", GRADING_PAIRS, ids=[f"b({p},{q})" for p, q in GRADING_PAIRS])
def test_relative_gradings_match_the_list_reference(p, q):
    # The index of phi_g read off the tree pass and one corner read at
    # alpha[0] equals the list reference's four_index of phi_g, and the
    # Alexander differences its w and z multiplicities; b(98,37) and
    # b(98,1) need wider slots than any pair of EVEN_PAIRS
    d = two_bridge_diagram(p, q)
    ref = ListBigons(d)
    w1, z1, w2, z2 = (ref.at[d.basepoints[k]] for k in ("w1", "z1", "w2", "z2"))
    want = {}
    for g, m in ref.phi.items():
        four_mas = ref.four_index(m, d.alpha[0], g) - 8 * (m[w1] + m[w2])
        want[g] = (-four_mas // 4, (m[w1] - m[z1], m[w2] - m[z2]))
    assert heegaard._relative_gradings(d) == want


@pytest.mark.parametrize("p,q", [(8, 3), (14, 5)])
def test_packed_count_for_any_avoided_regions(p, q):
    # Avoiding nothing counts every embedded bigon; each one covers a
    # basepoint region, so avoiding all four counts none.  A list of
    # regions counts as the tuple does.
    d = two_bridge_diagram(p, q)
    ref = ListBigons(d)
    for avoid in ((), tuple(d.basepoints[k] for k in ("w1", "z1", "w2", "z2"))):
        counts = {(g, h): ref.count(g, h, avoid) for g, h in permutations(d.alpha, 2)}
        assert counts == {(g, h): d.bigons(g, h, avoid) for g, h in counts}
        assert counts == {(g, h): d.bigons(g, h, list(avoid)) for g, h in counts}
        assert (sum(counts.values()) > 0) == (avoid == ())


@pytest.mark.parametrize("p,q", [(98, 37), (98, 1)])
def test_packed_count_on_a_large_diagram(p, q):
    # These need wider slots than any pair above, and b(98,1) has
    # multiplicities up to 49; on the grading window the packed count
    # still agrees with the reference
    d = two_bridge_diagram(p, q)
    ref = ListBigons(d)
    cx = filtered_complex_from_diagram(d)
    avoid = (d.basepoints["w1"], d.basepoints["w2"])
    window = [(g, h) for g, h in permutations(d.alpha, 2)
              if cx.maslov(g) - cx.maslov(h) == 1
              and all(a - b in (0, 2) for a, b in zip(cx.filt2(g), cx.filt2(h)))]
    counts = {(g, h): ref.count(g, h, avoid) for g, h in window}
    assert counts == {(g, h): d.bigons(g, h, avoid) for g, h in window}
    assert {pair for pair, n in counts.items() if n % 2} == cx.arrows


def test_refuses_arcs_that_bound_no_2_chain():
    # The tree walk gives multiplicities for any edge data, but their
    # jumps no longer match the arcs: with the two sides of one beta edge
    # swapped, the whole curve beta bounds nothing; with two points of
    # beta swapped, it still does, and the arcs to a generator do not
    d = two_bridge_diagram(8, 3)
    left, right = d.edges[("b", 0)]
    beta = (d.beta[1], d.beta[0], *d.beta[2:])
    for bad in (dataclasses.replace(d, edges={**d.edges, ("b", 0): (right, left)}),
                dataclasses.replace(d, beta=beta)):
        with pytest.raises(ValueError, match="boundary data is not the boundary of a 2-chain"):
            complex_from_diagram(bad)


def test_orientation_read_off_the_diagram():
    # The diagram realises linking number -1 on b(14,5), 0 on b(8,3) and
    # 3 on b(6,5), read off the single Alexander level of the first
    # component, and linkdiag.two_bridge builds links with the same ones
    for (p, q), lk in {(14, 5): -1, (8, 3): 0, (6, 5): 3}.items():
        part = component_homology(filtered_complex_from_diagram(two_bridge_diagram(p, q)), 2)
        assert {part.filt2(g) for g in part.gen_ids} == {(lk,)}
        assert linkdiag.linking_matrix(linkdiag.two_bridge(p, q)).lk[0][1] == lk
    # lk = 0 does not tell the two orientations of b(32,7) apart, but
    # their tables differ, and the diagram's is that of linkdiag's link
    b327 = linkdiag.two_bridge(32, 7)
    table = assoc_graded_homology(complex_from_diagram(two_bridge_diagram(32, 7)))
    assert table == hfl_alternating(b327).table != hfl_alternating(linkdiag.reverse(b327, 1)).table


def test_lattice_congruence_refuses_misplaced_basepoints():
    # w2 and z1 swapped: some lattice element's index is no longer
    # 2 (n_w1 + n_w2), which the once-per-lattice-element check sees
    d = two_bridge_diagram(8, 3)
    bp = d.basepoints
    bad = dataclasses.replace(d, basepoints={**bp, "w2": bp["z1"], "z1": bp["w2"]})
    with pytest.raises(ValueError, match="congruence"):
        complex_from_diagram(bad)


def test_lattice_check_refuses_z_across_a_curve():
    # z1 and z2 swapped: the w's are where they were, so the Maslov
    # congruence still holds, but a whole-curve domain now covers z_i
    # and not w_i, and the Alexander grading would depend on the domain
    d = two_bridge_diagram(8, 3)
    bp = d.basepoints
    bad = dataclasses.replace(d, basepoints={**bp, "z1": bp["z2"], "z2": bp["z1"]})
    with pytest.raises(ValueError, match="depend on the choice"):
        complex_from_diagram(bad)


def test_maslov_shift_refuses_wrong_total_homology(monkeypatch):
    monkeypatch.setattr(SphereDiagram, "bigons", lambda self, g, h, avoid: 0)
    with pytest.raises(ValueError, match="total homology"):
        complex_from_diagram(two_bridge_diagram(2, 1))


def test_bigon_route_is_independent_of_the_alexander_route():
    source = Path(__file__).parents[1] / "src" / "hfl" / "heegaard.py"
    tree = ast.parse(source.read_text())
    borrowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any("alexander" in alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert "alexander" not in (node.module or "")
            assert "alexander" not in {alias.name for alias in node.names}
            if (node.module or "").endswith("homology"):
                borrowed |= {alias.asname or alias.name for alias in node.names}
    assert borrowed
    (oracle,) = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "oracle_compare"
    ]
    inside = {id(node) for node in ast.walk(oracle)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in borrowed:
            assert id(node) in inside, f"{node.id} used outside oracle_compare"


def test_oracle_report_names_the_orientation():
    report = oracle_compare(14, 5)
    assert report and report.match and report.cell is None
    assert (report.lk, report.link_lk) == (-1, -1)
    assert str(report) == "tables agree for linkdiag.two_bridge(14,5) (lk = -1)"
    report = oracle_compare(8, 3)
    assert report and (report.lk, report.link_lk) == (0, 0)
    report = oracle_compare(1, 1)
    assert report and (report.lk, report.link_lk) == (None, None)
    assert str(report) == "tables agree for the unknot"


def test_oracle_report_checks_the_linking_number(monkeypatch):
    flipped = linkdiag.reverse(linkdiag.two_bridge(14, 5), 1)
    monkeypatch.setattr(heegaard.linkdiag, "two_bridge", lambda p, q: flipped)
    report = oracle_compare(14, 5)
    assert not report and (report.lk, report.link_lk) == (-1, 1)
    assert str(report) == ("linking numbers differ for linkdiag.two_bridge(14,5): lk = -1 "
                           "read off the diagram, lk = 1 from linking_matrix")


def test_oracle_report_names_the_first_differing_cell(monkeypatch):
    real = hfl_alternating(linkdiag.two_bridge(14, 5))
    ranks = dict(real.table.ranks)
    cells = sorted(ranks, key=lambda cell: (cell[1], cell[0]))
    # drop one cell, add a cell in a Maslov grading the table does not reach
    lost, gained = cells[3], (max(d for d, _ in cells) + 2, cells[5][1])
    del ranks[lost]
    ranks[gained] = 1
    table = MultiGradedVS(real.table.nvars, real.table.parity, ranks)
    monkeypatch.setattr(heegaard, "hfl_alternating",
                        lambda link: dataclasses.replace(real, table=table))
    report = oracle_compare(14, 5)
    assert not report and not report.match
    first = min([lost, gained], key=lambda cell: (cell[1], cell[0]))
    bigon_rank = real.table.rank(*first)
    assert report.cell == (first[0], first[1], bigon_rank, table.rank(*first))
    assert str(report) == ("tables differ for linkdiag.two_bridge(14,5) (lk = -1) first at "
                           "h=(-1/2,-3/2) d=-3: bigon rank 1, alternating rank 0")


def test_oracle_report_without_a_differing_cell():
    # tables with the same ranks can still differ, in their parity vectors
    report = heegaard.OracleReport(8, 3, False, 0, 0, None)
    assert str(report) == "tables differ for linkdiag.two_bridge(8,3) (lk = 0)"


def corrupt(d, **fields):
    bp, sides = d.basepoints, d.sides
    other = next(r for r in d.regions if r not in bp.values() and sides[r] != sides[bp["w1"]])
    return {
        "regions": {"regions": d.regions[:-1]},
        "points": {"beta": d.beta[:-1] + ("y0",)},
        "unplaced": {"basepoints": {**bp, "z2": "nowhere"}},
        "shared": {"basepoints": {**bp, "z1": bp["w1"]}},
        "z1 across": {"basepoints": {**bp, "z1": other}},
        "z2 across": {"basepoints": {**bp, "z2": next(
            r for r in d.regions if r not in bp.values() and sides[r] != sides[bp["w2"]])}},
        "same side": {"sides": {**sides, bp["w2"]: sides[bp["w1"]], bp["z2"]: sides[bp["w1"]]}},
        "periodic at w": {"periodic": {**d.periodic, bp["w2"]: 1}},
        "corner": {"corners": {**d.corners, "x5": d.corners["x5"][:3] + d.corners["x5"][:1]}},
    }


@pytest.mark.parametrize("fault,message", [
    ("regions", "region count must exceed the intersection count by 2"),
    ("points", "alpha and beta must share the same intersection points"),
    ("unplaced", "basepoint z2 is not placed in a region"),
    ("shared", "basepoints must sit in four distinct regions"),
    ("z1 across", "w1 and z1 must not be separated by either curve"),
    ("z2 across", "w2 and z2 must not be separated by either curve"),
    ("same side", "the two basepoint pairs must sit in opposite sides"),
    ("periodic at w", "the periodic domain must vanish at every w"),
    ("corner", "the four corner regions at x5 must be distinct"),
])
def test_check_names_each_fault(fault, message):
    d = two_bridge_diagram(8, 3)
    d.check()
    bad = dataclasses.replace(d, **corrupt(d)[fault])
    with pytest.raises(ValueError, match=f"^{message}$"):
        bad.check()


def test_domains_refuse_a_disconnected_complement():
    d = two_bridge_diagram(8, 3)
    cut = d.regions[-1]
    bad = dataclasses.replace(d, edges={e: lr for e, lr in d.edges.items() if cut not in lr})
    with pytest.raises(ValueError, match="the complement of the curves is not connected"):
        bad.bigons("x0", "x1", ())


@pytest.mark.parametrize("p,q", [(8, 3), (98, 37)])
def test_index_matches_the_list_reference(p, q):
    # index reads the multiplicities themselves, so no bound on them
    # applies: seeded values up to 2^40 far exceed any slot of _domains,
    # and a region left out of the dict counts as 0
    d = two_bridge_diagram(p, q)
    ref = ListBigons(d)
    rng = random.Random(p * 1000 + q)
    for _ in range(40):
        m = [rng.randint(-(1 << 40), 1 << 40) for _ in d.regions]
        g, h = rng.choice(d.alpha), rng.choice(d.alpha)
        assert 4 * d.index(dict(zip(d.regions, m)), g, h) == ref.four_index(m, g, h)
        kept = {r: v for r, v in zip(d.regions, m) if v % 3}
        m = [kept.get(r, 0) for r in d.regions]
        assert 4 * d.index(kept, g, h) == ref.four_index(m, g, h)


@pytest.mark.parametrize("p,q", EVEN_PAIRS, ids=[f"b({p},{q})" for p, q in EVEN_PAIRS])
def test_whole_curve_euler_measures_match_the_list_reference(p, q):
    # The lattice check reads 4 e(A) and 4 e(B) off the tree pass; the
    # reference weighs each region of its own A and B by 4 - (corner count)
    d = two_bridge_diagram(p, q)
    ref = ListBigons(d)
    want = tuple(sum(v * w for v, w in zip(m, ref.weight)) for m in (ref.whole_a, ref.whole_b))
    assert d._domains.whole_euler == want


def test_positive_index_one_domains_are_the_embedded_bigons():
    # A positive index-1 domain missing w1 and w2 with a multiplicity
    # above 1 would be an arrow that bigons does not count; there is none
    # for even p <= 20.  A domain from g to h is phi_h - phi_g + i A + j B
    # + k S, S the sphere.  w1 and w2 lie on opposite sides of both
    # curves, so given j the conditions n_w1 = n_w2 = 0 fix i and k, and
    # every multiplicity moves with j by -1, 0 or 1: the positive domains
    # are those of one window of j.
    found = 0
    for p, q in [(p, q) for p, q in EVEN_PAIRS if p <= 20]:
        d = two_bridge_diagram(p, q)
        ref = ListBigons(d)
        w1, w2 = (ref.at[d.basepoints[k]] for k in ("w1", "w2"))
        whole_a, whole_b = ref.whole_a, ref.whole_b
        da, db = whole_a[w1] - whole_a[w2], whole_b[w1] - whole_b[w2]
        assert abs(da) == abs(db) == 1

        def domain(base, j):
            i = -(base[w1] - base[w2] + j * db) * da
            k = -(base[w1] + i * whole_a[w1] + j * whole_b[w1])
            return [x + i * u + j * v + k for x, u, v in zip(base, whole_a, whole_b)]

        avoid = (d.basepoints["w1"], d.basepoints["w2"])
        for g, h in permutations(d.alpha, 2):
            base = [y - x for x, y in zip(ref.phi[g], ref.phi[h])]
            at0, at1 = domain(base, 0), domain(base, 1)
            slopes = [y - x for x, y in zip(at0, at1)]
            assert set(slopes) == {-1, 0, 1}
            lo = max(-c for c, s in zip(at0, slopes) if s == 1)
            hi = min(c for c, s in zip(at0, slopes) if s == -1)
            fixed = min(c for c, s in zip(at0, slopes) if s == 0)
            window = range(lo, hi + 1) if fixed >= 0 else range(0)
            ones = [m for m in (domain(base, j) for j in window)
                    if d.index(dict(zip(d.regions, m)), g, h) == 1]
            assert len(ones) == ref.count(g, h, avoid), (p, q, g, h)
            assert all(max(m) == 1 for m in ones), (p, q, g, h)
            found += len(ones)
    assert found == 2870


def with_phi(d, h, r, extra):
    """``d`` with ``extra`` added to the multiplicity of phi_h in region r."""
    dom = d._domains
    bumped = dom._replace(phi={**dom.phi, h: dom.phi[h] + (extra << dom.shift[r])})
    d = dataclasses.replace(d)
    d.__dict__["_domains"] = bumped
    return d


def test_bigons_refuse_a_multiplicity_of_two():
    """Each candidate of ``bigons`` must hold 0 or 1 in every region slot.
    A 2 added to phi_h in a region away from the corners of g and h
    leaves every corner sum alone, so only that test can refuse the
    candidates it lifts to 2 or 3.  The list-based count, which reads
    every multiplicity, is the reference; a lifted phi_h bounds no
    domain, so it checks no index."""
    d = two_bridge_diagram(8, 3)
    ref = ListBigons(d)
    ref.four_index = lambda m, g, h: 4
    phi = ref.phi
    pairs = [(g, h) for g in d.alpha for h in d.alpha if d.bigons(g, h, ())]
    dropped = 0
    for g, h in pairs:
        corners = set(d.corners[g]) | set(d.corners[h])
        for r in d.regions:
            if r in corners:
                continue
            lifted = list(phi[h])
            lifted[ref.at[r]] += 2
            ref.phi = {**phi, h: lifted}
            got = with_phi(d, h, r, 2).bigons(g, h, ())
            assert got == ref.count(g, h, ()), (g, h, r)
            dropped += got < d.bigons(g, h, ())
    assert len(pairs) == 68 and dropped >= 700

import dataclasses
from itertools import product

import pytest

from hfl import linkdiag
from hfl.filtered import FilteredComplex, assoc_graded_homology, total_homology, validate
from hfl.heegaard import (
    Domain,
    PeriodicDomainGroup,
    SphereDiagram,
    admissibility,
    complex_from_diagram,
    oracle_compare,
    two_bridge_diagram,
)
from hfl.homology import hfl_alternating


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
    assert d.periodic.rank() == 0
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
    (pi,) = d.periodic.basis
    assert pi.mixed_signs() and not pi.is_positive()
    for key in ("w1", "z1", "w2", "z2"):
        assert pi.n(d.basepoints[key]) == 0
    # boundary is a combination of full curves: the jump across every
    # edge of each curve is one and the same unit
    geo = d.geometry
    jumps = {"a": set(), "b": set()}
    for (kind, _), _, _, left, right in geo.edges:
        jumps[kind].add(pi.n(left) - pi.n(right))
    assert jumps["a"] == {-1} and jumps["b"] == {-1}


def test_admissibility_of_generated_diagrams():
    assert admissibility(two_bridge_diagram(2, 1))
    assert admissibility(two_bridge_diagram(8, 3))


def test_admissibility_rejects_one_sided_domain():
    d = two_bridge_diagram(2, 1)
    side = Domain({r: 1 for r in d.regions if d.sides[r][0] == 0})
    bad = dataclasses.replace(d, periodic=PeriodicDomainGroup(basis=(side,)))
    assert not admissibility(bad)


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
    geo = two_bridge_diagram(6, 1).geometry
    lattice = [
        geo.side_domain("a", 0),
        geo.side_domain("b", 1),
        {r: 1 for r in geo.regions},
    ]
    d = two_bridge_diagram(6, 1)
    w1, w2 = d.basepoints["w1"], d.basepoints["w2"]
    pairs = [("x0", "x5"), ("x3", "x9"), ("x11", "x2")]
    for g, h in pairs:
        m = geo.connect(g, h)
        for extra, t in product(lattice, (-2, -1, 1, 2)):
            m2 = {r: m[r] + t * extra[r] for r in geo.regions}
            lhs = geo.index(m2, g, h) - geo.index(m, g, h)
            rhs = 2 * (m2[w1] + m2[w2] - m[w1] - m[w2])
            assert lhs == rhs


def test_filtration_path_independence():
    d = two_bridge_diagram(8, 3)
    geo = d.geometry
    z1, w1 = d.basepoints["z1"], d.basepoints["w1"]
    z2, w2 = d.basepoints["z2"], d.basepoints["w2"]
    for g in d.alpha:
        seen = set()
        for fa, fb in product((True, False), repeat=2):
            m = geo.connect("x0", g, fa, fb)
            seen.add((m[z1] - m[w1], m[z2] - m[w2]))
        assert len(seen) == 1


def test_bigons_across_z_compute_the_sphere():
    # Dropping the z constraint turns the bigon count into the
    # differential over the sphere with two extra basepoints; its total
    # homology must be one copy of GF(2) at 0 and one at -1.
    for p, q in [(2, 1), (4, 1), (8, 3)]:
        d = two_bridge_diagram(p, q)
        geo = d.geometry
        cx = complex_from_diagram(d)
        avoid = (d.basepoints["w1"], d.basepoints["w2"])
        arrows = [
            (g, h)
            for g in geo.alpha
            for h in geo.alpha
            if g != h and geo.bigons(g, h, avoid) % 2
        ]
        assert arrows
        wcx = FilteredComplex(
            2, cx.parity,
            [(g, cx.maslov(g), cx.filt2(g)) for g in cx.gen_ids],
            arrows,
        )
        assert validate(wcx)
        assert total_homology(wcx) == {0: 1, -1: 1}


def test_emitted_complex_roundtrips():
    cx = complex_from_diagram(two_bridge_diagram(4, 1))
    again = FilteredComplex.from_json_dict(cx.to_json_dict())
    assert again.to_json_dict() == cx.to_json_dict()
    assert assoc_graded_homology(again) == assoc_graded_homology(cx)


def test_arc_walks_split_each_curve():
    geo = two_bridge_diagram(8, 3).geometry
    for curve, points in (("a", geo.alpha), ("b", geo.beta)):
        g, h = points[1], points[5]
        there, inside = geo.arc(curve, g, h, True)
        back, back_inside = geo.arc(curve, h, g, False)
        assert back == {eid: -c for eid, c in there.items()} and back_inside == inside
        rest, outside = geo.arc(curve, h, g, True)
        assert sorted([*there, *rest]) == [(curve, i) for i in range(len(points))]
        assert set(there.values()) == set(rest.values()) == {1}
        assert inside | outside == set(points) - {g, h} and not inside & outside
        assert geo.arc(curve, g, g, True) == ({}, set())

"""Acceptance gate: one test per numbered criterion, all exact arithmetic.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion.  Everything here is a restatement of checks that the unit
tests cover piecemeal; this file is the single place where the full
contract is spelled out end to end.
"""

import random

import pytest

from hfl import laurent, linkdiag
from hfl.alexander import multivariable_alexander, signature
from hfl.filtered import (
    assoc_graded_homology,
    component_homology,
    spectral_pages,
    tensor_graded,
    total_homology,
    validate,
)
from hfl.fixtures import FIXTURE_NAMES, fixture_complex
from hfl.heegaard import oracle_compare
from hfl.homology import (
    hfk_alternating_knot,
    hfl_alternating,
    two_component_cfl_from_diagram,
    verify,
)
from hfl.summands import build_sum, decompose, e_decomposition

from helpers import euler_number, random_filtered_complex, random_summand_sum, scramble

ALTERNATING_CORPUS = [n for n in linkdiag.CORPUS_NAMES if not n.startswith("L7n")]
TWO_COMPONENT_ALTERNATING = [
    "hopf_plus",
    "hopf_minus",
    "torus_2_2n(2)",
    "torus_2_2n(3)",
    "torus_2_2n(4)",
    "two_bridge(8,3)",
]
# linking number of each two-component input, used by the projection checks
LINKING = {
    "hopf_plus": 1,
    "hopf_minus": -1,
    "h2": 2,
    "h3": 3,
    "h4": 4,
    "whitehead_8_3": 0,
    "l7n1": 2,
    "l7n1_o2": -2,
    "l7n2": 0,
    "trefoil_hopf": 1,
    "torus_2_2n(2)": 2,
    "torus_2_2n(3)": 3,
    "torus_2_2n(4)": 4,
    "two_bridge(8,3)": 0,
}


def _all_two_component_complexes():
    """Every two-component filtered complex the package produces or ships."""
    out = []
    for name in FIXTURE_NAMES:
        out.append((f"fixture:{name}", fixture_complex(name)))
    for name in TWO_COMPONENT_ALTERNATING:
        cx, _ = two_component_cfl_from_diagram(linkdiag.corpus(name))
        out.append((f"solved:{name}", cx))
    return out


def test_criterion_01_hopf_tables_and_decompositions():
    rep = hfl_alternating(linkdiag.corpus("hopf_plus"))
    assert dict(rep.table.ranks) == {
        (0, (1, 1)): 1,
        (-1, (1, -1)): 1,
        (-1, (-1, 1)): 1,
        (-2, (-1, -1)): 1,
    }
    _, plus = two_component_cfl_from_diagram(linkdiag.corpus("hopf_plus"))
    assert {str(s) for s in plus} == {"Y^0(0)[1/2,1/2]", "Y^1(-1)[-1/2,-1/2]"}
    # a width-zero X is the same one-cell complex as a width-zero Y and
    # Summand pins the Y spelling, so X^0(-1) appears under that name
    _, minus = two_component_cfl_from_diagram(linkdiag.corpus("hopf_minus"))
    assert {str(s) for s in minus} == {"X^1(0)[-1/2,-1/2]", "Y^0(-1)[-1/2,-1/2]"}


def test_criterion_02_alexander_fixtures():
    assert multivariable_alexander(linkdiag.corpus("unknot")).delta == laurent.one(1)
    assert multivariable_alexander(linkdiag.corpus("hopf_plus")).delta == laurent.one(2)
    trefoil = (
        laurent.monomial(1, (2,))
        - laurent.one(1)
        + laurent.monomial(1, (-2,))
    )
    assert multivariable_alexander(linkdiag.corpus("trefoil_right")).delta == trefoil
    # the displayed closed form for the (2,2n) torus link, transcribed as
    # printed: S^{(n-1)/2} T^{(1-n)/2} * sum_{i=0}^{n-1} (S^{-1} T)^i.
    # It describes the antiparallel orientation (linking number -n, sigma 1),
    # i.e. torus_2_2n(n) with its second component reversed.  torus_2_2n(n)
    # itself is the parallel closure of sigma_1^{2n} (linking number +n);
    # its polynomial is pinned by the source's own h<n> complexes, which
    # are transcribed in that orientation.
    for n in (2, 3, 4):
        printed = laurent.zero(2)
        for i in range(n):
            printed = printed + laurent.monomial(2, (n - 1 - 2 * i, 1 - n + 2 * i))
        printed = laurent.symmetric_normalize(printed)
        parallel = linkdiag.corpus(f"torus_2_2n({n})")
        antiparallel = linkdiag.reverse(parallel, 1)
        got = multivariable_alexander(antiparallel).delta
        assert got == printed, (
            f"torus_2_2n({n}) with component 1 reversed (antiparallel, "
            f"linking -{n}): computed {got}, printed formula gives {printed}"
        )
        delta = multivariable_alexander(parallel).delta
        report = verify(assoc_graded_homology(fixture_complex(f"h{n}")), delta, "euler_hat")
        assert report, (
            f"torus_2_2n({n}) (parallel closure of sigma_1^{2 * n}, linking +{n}) "
            f"against fixture h{n}: {report.detail}"
        )


def test_criterion_03_signatures():
    assert signature(linkdiag.corpus("hopf_plus")) == -1
    assert signature(linkdiag.corpus("hopf_minus")) == 1
    assert signature(linkdiag.corpus("trefoil_right")) == -2
    assert signature(linkdiag.corpus("torus_2_2n(2)")) == -3


def test_criterion_04_euler_hat_and_symmetry():
    for name in ALTERNATING_CORPUS:
        diag = linkdiag.corpus(name)
        if diag.n_components == 1:
            table = hfk_alternating_knot(diag)
            delta = multivariable_alexander(diag).delta
        else:
            rep = hfl_alternating(diag)
            table, delta = rep.table, rep.delta
        assert verify(table, delta, "euler_hat"), name
        assert verify(table, delta, "symmetry"), name
    # the transcribed non-alternating table against its own Fox polynomial
    table = assoc_graded_homology(fixture_complex("l7n2"))
    delta = multivariable_alexander(linkdiag.corpus("L7n2")).delta
    assert verify(table, delta, "euler_hat")
    assert verify(table, delta, "symmetry")


def test_criterion_05_euler_minus_series():
    for name in ALTERNATING_CORPUS:
        diag = linkdiag.corpus(name)
        if diag.n_components == 1:
            table = hfk_alternating_knot(diag)
            delta = multivariable_alexander(diag).delta
        else:
            rep = hfl_alternating(diag)
            table, delta = rep.table, rep.delta
        assert verify(table, delta, "euler_minus", depth=6), name


def test_criterion_06_bigon_oracle_equivalence():
    for p, q in ((2, 1), (4, 1), (6, 1), (8, 1), (8, 3)):
        assert oracle_compare(p, q), f"({p},{q})"


def test_criterion_07_transcribed_fixtures():
    # the printed answer table for the seven-crossing link with lk = 0
    assert dict(assoc_graded_homology(fixture_complex("l7n2")).ranks) == {
        (0, (0, 0)): 4,
        (1, (2, 0)): 2,
        (1, (0, 2)): 2,
        (-1, (-2, 0)): 2,
        (-1, (0, -2)): 2,
        (2, (2, 2)): 1,
        (0, (2, -2)): 1,
        (0, (-2, 2)): 1,
        (-2, (-2, -2)): 1,
    }
    # the printed answer table for the seven-crossing link with lk = 2,
    # and the same link with one component reversed
    assert dict(assoc_graded_homology(fixture_complex("l7n1")).ranks) == {
        (-2, (0, 2)): 1,
        (-1, (0, 4)): 1,
        (-1, (2, 2)): 1,
        (0, (2, 4)): 1,
        (-4, (0, -2)): 1,
        (-5, (0, -4)): 1,
        (-5, (-2, -2)): 1,
        (-6, (-2, -4)): 1,
        (-2, (0, 0)): 1,
        (-3, (0, 0)): 1,
    }
    assert dict(assoc_graded_homology(fixture_complex("l7n1_o2")).ranks) == {
        (-3, (0, -4)): 1,
        (-2, (0, -2)): 1,
        (-2, (2, -4)): 1,
        (-1, (-2, 2)): 1,
        (-1, (0, 0)): 1,
        (-1, (2, -2)): 1,
        (0, (-2, 4)): 1,
        (0, (0, 0)): 1,
        (0, (0, 2)): 1,
        (1, (0, 4)): 1,
    }
    for name in FIXTURE_NAMES:
        cx = fixture_complex(name)
        assert validate(cx), name
        th = total_homology(cx)
        assert sorted(th.values()) == [1, 1] and max(th) - min(th) == 1, name
    for name in ("l7n1", "l7n1_o2"):
        with pytest.raises(ValueError, match="is not E₂-collapsed"):
            decompose(fixture_complex(name))
    summands = decompose(fixture_complex("l7n2"))
    assert summands
    rebuilt = assoc_graded_homology(build_sum(summands))
    assert rebuilt == assoc_graded_homology(fixture_complex("l7n2"))


def test_criterion_08_component_projections():
    # e-decomposition of each component knot: the unknot is a single free
    # generator, the two trefoil chiralities one pair plus one free
    unknot = ({}, {(0, 0): 1})
    trefoil_r = ({(1, -1, 0): 1}, {(0, 2): 1})
    trefoil_l = ({(1, 2, 2): 1}, {(0, -2): 1})
    knots = {name: (unknot, unknot) for name in LINKING}
    knots["l7n1"] = (unknot, trefoil_r)
    knots["l7n1_o2"] = (unknot, trefoil_r)
    knots["l7n2"] = (trefoil_l, unknot)
    knots["trefoil_hopf"] = (trefoil_r, unknot)

    def shift(data, n):
        pairs, frees = data
        ep = {}
        ef = {}
        for (lam, d, s2), r in pairs.items():
            ep[(lam, d, s2 + n)] = ep.get((lam, d, s2 + n), 0) + r
            ep[(lam, d - 1, s2 + n)] = ep.get((lam, d - 1, s2 + n), 0) + r
        for (d, s2), r in frees.items():
            ef[(d, s2 + n)] = ef.get((d, s2 + n), 0) + r
            ef[(d - 1, s2 + n)] = ef.get((d - 1, s2 + n), 0) + r
        return ep, ef

    for label, cx in _all_two_component_complexes():
        name = label.split(":", 1)[1]
        n = LINKING[name]
        first, second = knots[name]
        # collapsing direction 2 leaves the filtration of component 1
        for direction, data in ((2, first), (1, second)):
            pairs, frees = e_decomposition(component_homology(cx, direction))
            want_pairs, want_frees = shift(data, n)
            assert dict(pairs) == want_pairs, (label, direction)
            assert dict(frees) == want_frees, (label, direction)


def test_criterion_09_kunneth():
    hopf = linkdiag.corpus("hopf_plus")
    trefoil = linkdiag.corpus("trefoil_right")
    h_table = hfl_alternating(hopf).table
    t_table = hfk_alternating_knot(trefoil)

    predicted = tensor_graded(h_table, h_table, (1, 1))
    direct = hfl_alternating(linkdiag.connected_sum(hopf, hopf)).table
    assert predicted == direct

    predicted = tensor_graded(t_table, h_table, (1, 1))
    direct = hfl_alternating(linkdiag.connected_sum(trefoil, hopf)).table
    assert predicted == direct


def test_criterion_10_spectral_sequences():
    for label, cx in _all_two_component_complexes():
        pages = spectral_pages(cx)
        assert pages[0] == assoc_graded_homology(cx), label
        last = pages[-1]
        assert last.total_rank() == 2, label
        by_d = last.by_maslov()
        assert sorted(by_d.values()) == [1, 1], label
        assert max(by_d) - min(by_d) == 1, label


def test_criterion_11_randomized_suites():
    rng = random.Random(20260823)
    for _ in range(200):
        summands = random_summand_sum(rng, max_summands=20)
        cx = scramble(build_sum(summands), rng)
        assert decompose(cx) == summands
    for _ in range(200):
        cx = random_filtered_complex(rng, rng.randrange(1, 4), max_gens=40)
        pages = spectral_pages(cx)
        assert euler_number(pages[0]) == euler_number(pages[-1])
        th = total_homology(cx)
        assert sum(th.values()) == pages[-1].total_rank()
        assert dict(th) == pages[-1].by_maslov()

import json
import random
from collections import Counter
from math import gcd

import pytest

from helpers import scramble, tile_squares_by_min_scan
from hfl import homology
from hfl.alexander import goeritz_determinant, multivariable_alexander, signature
from hfl.filtered import (
    MultiGradedVS,
    assoc_graded_homology,
    component_homology,
    spectral_pages,
    tensor_graded,
    total_homology,
    validate,
)
from hfl.fixtures import fixture_complex
from hfl.homology import (
    CollapsedTable,
    ComponentData,
    collapse_to_hfk,
    component_data_from_diagram,
    hfk_alternating_knot,
    hfl_alternating,
    table_from_invariants,
    two_component_cfl,
    two_component_cfl_from_diagram,
    verify,
)
from hfl.laurent import MultiLaurent, monomial
from hfl.linkdiag import (
    CORPUS_NAMES,
    SplitLinkError,
    braid_closure,
    connected_sum,
    corpus,
    keep_component,
    linking_matrix,
    parse_pd,
    reverse,
    two_bridge,
)
from hfl.summands import Summand, _placed, build_sum, decompose, e_decomposition, sum_cells


def nonalt_knot():
    # positive 3-braid closure of the trefoil; one component, not alternating
    return braid_closure([1, 2, 1, 2], 3)


def split_link():
    # two kinked unknots with no crossing between them
    return parse_pd("PD[X[1,2,2,1],X[3,4,4,3]]")


# ----------------------------------------------------------------------
# knot tables

def test_hfk_unknot():
    assert hfk_alternating_knot(corpus("unknot")) == MultiGradedVS(
        1, (0,), {(0, (0,)): 1}
    )


def test_hfk_trefoils():
    right = hfk_alternating_knot(corpus("trefoil_right"))
    assert right.ranks == {(0, (2,)): 1, (-1, (0,)): 1, (-2, (-2,)): 1}
    left = hfk_alternating_knot(corpus("trefoil_left"))
    assert left.ranks == {(2, (2,)): 1, (1, (0,)): 1, (0, (-2,)): 1}


def test_hfk_figure8():
    t = hfk_alternating_knot(corpus("figure8"))
    assert t.ranks == {(1, (2,)): 1, (0, (0,)): 3, (-1, (-2,)): 1}


def test_hfk_rejects_links_and_nonalternating():
    with pytest.raises(ValueError, match="hfl_alternating"):
        hfk_alternating_knot(corpus("hopf_plus"))
    with pytest.raises(ValueError, match="not alternating"):
        hfk_alternating_knot(nonalt_knot())


# ----------------------------------------------------------------------
# link tables

def test_hfl_hopf_plus_table():
    rep = hfl_alternating(corpus("hopf_plus"))
    assert rep.table == MultiGradedVS(
        2,
        (1, 1),
        {
            (0, (1, 1)): 1,
            (-1, (1, -1)): 1,
            (-1, (-1, 1)): 1,
            (-2, (-1, -1)): 1,
        },
    )
    assert rep.sigma == -1 and rep.l == 2
    assert rep.linking[0][1] == 1
    assert rep.euler_ok and rep.symmetry_ok


def test_hfl_hopf_minus_table():
    rep = hfl_alternating(corpus("hopf_minus"))
    assert rep.table.ranks == {
        (1, (1, 1)): 1,
        (0, (1, -1)): 1,
        (0, (-1, 1)): 1,
        (-1, (-1, -1)): 1,
    }


def test_hfl_torus_2_4_table():
    rep = hfl_alternating(corpus("torus_2_2n(2)"))
    assert rep.sigma == -3
    assert rep.table.rank(-2, (0, 0)) == 2
    assert rep.table.rank(0, (2, 2)) == 1
    assert rep.table.rank(-4, (-2, -2)) == 1
    assert rep.table.total_rank() == 8
    assert rep.euler_ok and rep.symmetry_ok


def test_hfl_whole_alternating_corpus_is_consistent():
    for name in ["hopf_plus", "hopf_minus", "torus_2_2n(2)", "torus_2_2n(3)",
                 "torus_2_2n(4)", "two_bridge(8,3)"]:
        rep = hfl_alternating(corpus(name))
        assert rep.euler_ok, name
        assert rep.symmetry_ok, name
        assert rep.euler == rep.table.euler(), name


def test_hfl_three_components():
    rep = hfl_alternating(connected_sum(corpus("hopf_plus"), corpus("hopf_plus"), 0, 0))
    assert rep.l == 3
    assert rep.table.total_rank() == 16
    assert rep.euler_ok and rep.symmetry_ok


def test_hfl_four_components():
    # closure of (s1 s2^-1 s3)^8: 4 components, 32 crossings
    d = braid_closure([1, -2, 3] * 8, 4)
    rep = hfl_alternating(d)
    assert rep.l == 4
    assert rep.table.total_rank() == 2 ** 3 * goeritz_determinant(d)
    assert len(rep.delta.terms) == 864


def test_hfl_takes_knots_and_rejects_nonalternating_and_split():
    for name in CORPUS_NAMES:
        d = corpus(name)
        if d.n_components == 1:
            rep = hfl_alternating(d)
            assert rep.l == 1 and rep.linking == ((0,),), name
            assert rep.table == hfk_alternating_knot(d), name
    with pytest.raises(ValueError, match="not alternating"):
        hfl_alternating(corpus("L7n2"))
    with pytest.raises(SplitLinkError):
        hfl_alternating(split_link())


def test_hfl_report_json_is_stable():
    a = json.dumps(hfl_alternating(corpus("hopf_plus")).to_json_dict(), sort_keys=True)
    b = json.dumps(hfl_alternating(corpus("hopf_plus")).to_json_dict(), sort_keys=True)
    assert a == b
    assert '"sigma": -1' in a


def test_table_from_invariants_parity_guard():
    # an even signature cannot sit on the odd coset of a two-variable lattice
    with pytest.raises(ValueError, match="incompatible"):
        table_from_invariants(monomial(2, (0, 0)), 0, (1, 1))


def test_table_from_invariants_refuses_totals_of_the_wrong_parity():
    # the hopf link's exponents lie on the odd coset its linking totals fix
    rep = hfl_alternating(corpus("hopf_plus"))
    assert table_from_invariants(rep.delta, rep.sigma, (1, 1)) == rep.table
    with pytest.raises(ValueError, match=r"^grading \(-?1, -?1\) violates parity \(0, 0\)$"):
        table_from_invariants(rep.delta, rep.sigma, (0, 0))
    with pytest.raises(ValueError, match="need one linking total per variable"):
        table_from_invariants(rep.delta, rep.sigma, (1,))


# ----------------------------------------------------------------------
# orientation: the ranks do not depend on it, the gradings do

def reversed_ranks(d, i):
    """The table of ``reverse(d, i)`` predicted from d's: the rank at
    (m, h) moves to (m - h_i + lam, h with h_i negated), h_i being the
    doubled coordinate and lam the sum of lk(K_i, K_j) over j != i,
    taken before the reversal."""
    lam = sum(x for j, x in enumerate(linking_matrix(d).lk[i]) if j != i)
    return {
        (m - h2[i] + lam, h2[:i] + (-h2[i],) + h2[i + 1:]): r
        for (m, h2), r in hfl_alternating(d).table.ranks.items()
    }


def assert_orientation_rule(diagrams):
    """Check the rule on every component of every diagram; return the
    number of reversals checked."""
    n = 0
    for d in diagrams:
        for i in range(d.n_components):
            assert hfl_alternating(reverse(d, i)).table.ranks == reversed_ranks(d, i), (d, i)
            n += 1
    return n


def seeded_alternating_closures(seed, draws):
    """Closures of braid words on 2-5 strands, up to 16 letters, in which
    sigma_k carries the sign (-1)^(k+1) and every generator appears; the
    ones with more than one component."""
    rng = random.Random(seed)
    out = []
    for _ in range(draws):
        strands = rng.randint(2, 5)
        word = list(range(1, strands))
        word += [rng.randint(1, strands - 1) for _ in range(rng.randint(0, 17 - strands))]
        rng.shuffle(word)
        d = braid_closure([k if k % 2 else -k for k in word], strands)
        if d.n_components > 1:
            out.append(d)
    return out


def test_orientation_rule_on_the_corpus():
    links = [corpus(name) for name in CORPUS_NAMES]
    links = [d for d in links if d.n_components > 1 and d.is_alternating()]
    assert assert_orientation_rule(links) == 12


def test_orientation_rule_on_two_bridge_links():
    links = [two_bridge(p, q) for p in range(2, 41, 2) for q in range(1, p) if gcd(p, q) == 1]
    assert assert_orientation_rule(links) == 2 * len(links) == 346


def test_orientation_rule_on_alternating_closures():
    links = seeded_alternating_closures(11, 200)
    assert len({d.n_components for d in links}) == 4  # 2 to 5 components
    assert assert_orientation_rule(links) > 300


def test_orientation_moves_gradings_not_ranks():
    # reversing one component of the positive Hopf link gives the
    # negative one: each of the four generators moves up one grading
    plus = {(0, (1, 1)): 1, (-1, (1, -1)): 1, (-1, (-1, 1)): 1, (-2, (-1, -1)): 1}
    minus = {(m + 1, h2): r for (m, h2), r in plus.items()}
    d = corpus("hopf_plus")
    assert hfl_alternating(d).table.ranks == plus
    assert hfl_alternating(reverse(d, 1)).table.ranks == minus
    assert hfl_alternating(corpus("hopf_minus")).table.ranks == minus
    assert reversed_ranks(d, 1) == minus


# ----------------------------------------------------------------------
# verification of tables

def test_verify_euler_hat_and_symmetry_pass():
    rep = hfl_alternating(corpus("two_bridge(8,3)"))
    assert verify(rep.table, rep.delta, "euler_hat")
    assert verify(rep.table, rep.delta, "symmetry")


def test_verify_symmetry_pairs_opposite_levels():
    rep = hfl_alternating(corpus("hopf_plus"))
    # the symmetry sends (d, h) to (d - 2 o(h), -h): grading 0 at (1/2,1/2)
    # pairs with grading -2 at (-1/2,-1/2)
    assert rep.table.rank(0, (1, 1)) == rep.table.rank(-2, (-1, -1)) == 1


def test_verify_catches_broken_table():
    rep = hfl_alternating(corpus("hopf_plus"))
    broken = dict(rep.table.ranks)
    broken[(0, (1, 1))] = 2
    t = MultiGradedVS(2, (1, 1), broken)
    r = verify(t, rep.delta, "euler_hat")
    assert not r and "mismatch" in r.detail
    r = verify(t, rep.delta, "symmetry")
    assert not r and "rank 2" in r.detail


def test_verify_euler_minus_corpus():
    for name in ["hopf_plus", "torus_2_2n(3)", "two_bridge(8,3)",
                 "unknot", "trefoil_right", "figure8"]:
        rep = hfl_alternating(corpus(name))
        assert verify(rep.table, rep.delta, "euler_minus"), name


def test_verify_euler_minus_detects_wrong_polynomial():
    d = corpus("trefoil_right")
    t = hfk_alternating_knot(d)
    wrong = multivariable_alexander(corpus("figure8")).delta
    assert not verify(t, wrong, "euler_minus")


@pytest.mark.parametrize("name", ["trefoil_right", "figure8", "hopf_plus", "torus_2_2n(3)"])
def test_verify_euler_minus_window_ends_at_its_edge(name):
    """The check compares the doubled levels top, top - 2, ...,
    top - 2 * EULER_MINUS_DEPTH of each variable, where the truncated
    series is exact, and nothing below them."""
    rep = hfl_alternating(corpus(name))
    top = max(rep.euler.terms)  # its first coordinate is the greatest

    def one_wrong_cell(steps_below_edge):
        h2 = (top[0] - 2 * (homology.EULER_MINUS_DEPTH + steps_below_edge),) + top[1:]
        ranks = Counter(rep.table.ranks)
        ranks[(0, h2)] += 1
        return MultiGradedVS(rep.l, rep.table.parity, ranks)

    assert not verify(one_wrong_cell(0), rep.delta, "euler_minus")
    assert verify(one_wrong_cell(1), rep.delta, "euler_minus")


def test_verify_rejects_unknown_kind_and_var_mismatch():
    rep = hfl_alternating(corpus("hopf_plus"))
    with pytest.raises(ValueError, match="unknown check"):
        verify(rep.table, rep.delta, "euler")
    with pytest.raises(ValueError, match="variable count"):
        verify(rep.table, monomial(1, (0,)), "euler_hat")


# ----------------------------------------------------------------------
# collapse to one variable

def test_collapse_hopf_plus():
    ct = collapse_to_hfk(hfl_alternating(corpus("hopf_plus")).table)
    assert ct == CollapsedTable({(1, 2): 1, (-1, 0): 2, (-3, -2): 1})
    assert ct.rank(-1, 0) == 2
    assert "s=1  d=1/2  rank=1" in ct.table_str()


def test_collapsed_table_guards_and_repr():
    with pytest.raises(ValueError, match="ranks must be nonnegative"):
        CollapsedTable({(1, 2): -1})
    ct = CollapsedTable({(1, 2): 1})
    assert repr(ct) == "CollapsedTable({(1, 2): 1})"
    with pytest.raises(TypeError, match="unhashable"):
        hash(ct)


def test_collapse_is_identity_on_knot_tables():
    ct = collapse_to_hfk(hfk_alternating_knot(corpus("trefoil_right")))
    assert ct.ranks == {(0, 2): 1, (-2, 0): 1, (-4, -2): 1}


def test_collapse_torus_family_is_symmetric():
    for n in (2, 3, 4):
        table = hfl_alternating(corpus(f"torus_2_2n({n})")).table
        ct = collapse_to_hfk(table)
        assert ct.total_rank() == table.total_rank()
        for (d2, s2), r in ct.ranks.items():
            assert ct.rank(d2 - 2 * s2, -s2) == r, (n, d2, s2)


# ----------------------------------------------------------------------
# component knot data

def test_component_data_from_corpus_knots():
    assert component_data_from_diagram(corpus("unknot")) == ComponentData(0)
    assert component_data_from_diagram(corpus("trefoil_right")) == ComponentData(
        1, pairs=((1, -1, 0),)
    )
    assert component_data_from_diagram(corpus("trefoil_left")) == ComponentData(
        -1, pairs=((1, 2, 2),)
    )
    assert component_data_from_diagram(corpus("figure8")) == ComponentData(
        0, pairs=((1, 1, 2), (1, 0, 0))
    )


def test_component_data_defaults_and_validation():
    with pytest.raises(ValueError, match="length"):
        ComponentData(0, pairs=((0, 0, 0),))
    with pytest.raises(ValueError, match="integers"):
        ComponentData(0, pairs=((1, 0, 1),))


def test_component_data_rejects_bad_diagrams():
    with pytest.raises(ValueError, match="knot diagram"):
        component_data_from_diagram(corpus("hopf_plus"))
    with pytest.raises(ValueError, match="not alternating"):
        component_data_from_diagram(nonalt_knot())


# ----------------------------------------------------------------------
# the two-component solver

SOLVED = {
    "hopf_plus": [
        Summand("Y", 0, 0, (1, 1)),
        Summand("Y", -1, 1, (-1, -1)),
    ],
    "hopf_minus": [
        Summand("X", 0, 1, (-1, -1)),
        Summand("X", -1, 0, (-1, -1)),
    ],
    "torus_2_2n(2)": [
        Summand("Y", 0, 0, (2, 2)),
        Summand("Y", -1, 1, (0, 0)),
        Summand("B", -4, 0, (-2, -2)),
    ],
    "torus_2_2n(3)": [
        Summand("Y", 0, 0, (3, 3)),
        Summand("Y", -1, 1, (1, 1)),
        Summand("B", -4, 0, (-1, -1)),
        Summand("B", -6, 0, (-3, -3)),
    ],
    "two_bridge(8,3)": [
        Summand("X", 0, 1, (0, 0)),
        Summand("X", -1, 0, (0, 0)),
        Summand("B", -2, 0, (-2, 0)),
        Summand("B", -2, 0, (0, -2)),
        Summand("B", -3, 0, (-2, -2)),
    ],
}


def test_solver_on_alternating_corpus():
    for name, want in SOLVED.items():
        cx, summands = two_component_cfl_from_diagram(corpus(name))
        assert summands == sorted(want), name
        assert validate(cx), name
        assert total_homology(cx) == {0: 1, -1: 1}, name
        assert assoc_graded_homology(cx) == hfl_alternating(corpus(name)).table, name


def test_solver_on_connected_sum():
    diag = connected_sum(corpus("trefoil_right"), corpus("hopf_plus"), 0, 0)
    cx, summands = two_component_cfl_from_diagram(diag)
    assert summands == sorted(
        [
            Summand("Y", 0, 0, (3, 1)),
            Summand("Y", -1, 1, (1, -1)),
            Summand("V", -1, 1, (1, 1)),
            Summand("V", -2, 1, (1, -1)),
            Summand("B", -4, 0, (-3, -1)),
        ]
    )
    assert assoc_graded_homology(cx) == hfl_alternating(diag).table


def test_solver_matches_stored_fixtures():
    pairs = [
        ("hopf_plus", corpus("hopf_plus")),
        ("hopf_minus", corpus("hopf_minus")),
        ("h2", corpus("torus_2_2n(2)")),
        ("h3", corpus("torus_2_2n(3)")),
        ("h4", corpus("torus_2_2n(4)")),
        ("whitehead_8_3", corpus("two_bridge(8,3)")),
        ("trefoil_hopf", connected_sum(corpus("trefoil_right"), corpus("hopf_plus"), 0, 0)),
    ]
    for fixture, diag in pairs:
        _cx, summands = two_component_cfl_from_diagram(diag)
        assert summands == sorted(decompose(fixture_complex(fixture))), fixture


def test_solver_accepts_nonalternating_data_when_consistent():
    # the clasp link is not alternating, yet its invariants together with
    # the left-trefoil component data still pin the same summand list as
    # the stored fixture
    d = corpus("L7n2")
    delta = multivariable_alexander(d).delta
    comps = (ComponentData(-1, pairs=((1, 2, 2),)), ComponentData(0))
    cx, summands = two_component_cfl(delta, signature(d), 0, comps)
    assert summands == sorted(decompose(fixture_complex("l7n2")))
    assert total_homology(cx) == {0: 1, -1: 1}


HOPF = (monomial(2, (0, 0)), -1, 1)


def test_solver_refuses_inconsistent_data():
    d = corpus("L7n1")
    delta = multivariable_alexander(d).delta
    comps = (ComponentData(0), ComponentData(1, pairs=((1, -1, 0),)))
    with pytest.raises(ValueError, match="unsatisfiable"):
        two_component_cfl(delta, signature(d), 2, comps)
    # hopf invariants with trefoil component data cannot fit either
    with pytest.raises(ValueError) as err:
        two_component_cfl(*HOPF, (ComponentData(1, pairs=((1, -1, 0),)), ComponentData(0)))
    assert str(err.value) == (
        "constraints unsatisfiable: the component pairs do not fit the rank table "
        "(the table has too few generators at d=-3, h2=(-1, -3))"
    )


def test_solver_names_the_central_pair_stage():
    # tau1 = 1 asks for a width-one central Y-pair, which the Hopf table cannot hold
    with pytest.raises(ValueError) as err:
        two_component_cfl(*HOPF, (ComponentData(1), ComponentData(0)))
    assert str(err.value) == (
        "constraints unsatisfiable: the central Y-pair at width 1 does not fit the "
        "rank table (the table has too few generators at d=-2, h2=(1, -3))"
    )


def test_solver_names_the_tiling_stage():
    # two adjacent equal terms far from the Hopf term, and their mirror
    # images, leave two vertical dominoes of cells that no square covers
    delta = MultiLaurent(2, {(0, 0): 1, (4, 4): 1, (6, 4): 1, (-4, -4): 1, (-6, -4): 1})
    with pytest.raises(ValueError) as err:
        two_component_cfl(delta, -1, 1, (ComponentData(0), ComponentData(0)))
    assert str(err.value) == (
        "constraints unsatisfiable: the squares cannot tile the cell at "
        "d=-7, h2=(-7, -5) (its square lacks d=-6, h2=(-5, -5))"
    )


def tiling_outcome(tile, cells):
    try:
        return tile(cells)
    except ValueError as e:
        return str(e)


def tile_squares_as_summands(cells):
    # the solver tiles with plain tuples and makes Summands of them later
    return [Summand(*t) for t in homology._tile_squares(cells)]


def test_tiling_matches_the_min_scan():
    # unions of random squares (overlaps give cells of rank above one), and
    # the same unions with one cell added or removed, which cannot tile
    rng = random.Random(28)
    refused = 0
    for _ in range(300):
        cells = Counter()
        for _ in range(rng.randrange(1, 9)):
            shift = (rng.randrange(-4, 5), rng.randrange(-4, 5))
            cells += sum_cells([Summand("B", rng.randrange(-2, 3), 0, shift)])
        extra = rng.choice(list(cells))
        added = cells + Counter({(extra[0] + rng.randrange(-1, 2), extra[1]): 1})
        removed = cells - Counter({rng.choice(list(cells)): 1})
        for multiset in (cells, added, removed):
            want = tiling_outcome(tile_squares_by_min_scan, multiset)
            assert tiling_outcome(tile_squares_as_summands, multiset) == want
            refused += isinstance(want, str)
    assert refused >= 600


def test_solver_places_each_summand_at_most_twice(monkeypatch):
    # once to take its cells from the table (squares are read off the
    # table without placing them) and once to build the sum, both times
    # through the one placement helper, which homology imports by name
    placed = []

    def counted(*fields, _real=_placed):
        placed.append(fields)
        return _real(*fields)

    monkeypatch.setattr("hfl.summands._placed", counted)
    monkeypatch.setattr("hfl.homology._placed", counted)
    links = [two_bridge(36, 11), connected_sum(corpus("trefoil_right"), corpus("hopf_plus"), 0, 0)]
    links += [corpus(name) for name in CORPUS_NAMES if corpus(name).n_components == 2]
    solved = 0
    for d in links:
        placed.clear()
        try:
            _cx, ss = two_component_cfl_from_diagram(d)
        except ValueError:
            continue
        assert len(placed) <= 2 * len(ss)
        solved += 1
    assert solved == len(links) - 2  # L7n1 and L7n2 are not alternating


def test_solver_names_the_failed_output_check(monkeypatch):
    # model summands pass every output check by construction, so a broken
    # tiling and broken closed forms stand in for a fault
    comps = (ComponentData(0), ComponentData(0))
    sum_invariants = homology.sum_invariants

    def refusal():
        with pytest.raises(ValueError) as err:
            two_component_cfl(*HOPF, comps)
        return str(err.value).removeprefix("constraints unsatisfiable: ")

    with monkeypatch.context() as m:
        m.setattr(homology, "_tile_squares", lambda cells: [("B", -3, 0, (-3, -3))])
        assert refusal() == ("the associated graded homology differs from the rank table "
                             "first at d=-3, h2=(-3, -3): rank 1, not 0")
    with monkeypatch.context() as m:
        m.setattr(homology, "sum_invariants",
                  lambda ss: (Counter({0: 1, -2: 1}), sum_invariants(ss)[1]))
        assert refusal() == (
            "the total homology {0: 1, -2: 1} is not rank one in two adjacent gradings"
        )
    for idx in (0, 1):
        # component idx + 1 is read off coordinate 2 - idx, here emptied
        def emptied(ss, idx=idx):
            total, per_coordinate = sum_invariants(ss)
            per_coordinate = list(per_coordinate)
            per_coordinate[1 - idx] = (Counter(), Counter())
            return total, tuple(per_coordinate)

        with monkeypatch.context() as m:
            m.setattr(homology, "sum_invariants", emptied)
            assert refusal() == (
                f"the homology of component {idx + 1} is not its knot data "
                "tensored with a two-step pair"
            )
    cx, summands = two_component_cfl(*HOPF, comps)
    assert cx == build_sum(summands)


def test_solver_argument_checks():
    with pytest.raises(ValueError, match="two-variable"):
        two_component_cfl(monomial(1, (0,)), -1, 1, (ComponentData(0), ComponentData(0)))
    with pytest.raises(ValueError, match="exactly two"):
        two_component_cfl(monomial(2, (0, 0)), -1, 1, (ComponentData(0),))
    with pytest.raises(ValueError, match="two-component"):
        two_component_cfl_from_diagram(corpus("trefoil_right"))
    with pytest.raises(ValueError, match="not alternating"):
        two_component_cfl_from_diagram(corpus("L7n2"))


def test_solver_output_decomposes_back():
    for name in ("hopf_minus", "torus_2_2n(3)", "two_bridge(8,3)"):
        cx, summands = two_component_cfl_from_diagram(corpus(name))
        assert decompose(cx) == summands, name


def test_solver_output_survives_basis_changes():
    rng = random.Random(9157)
    cx, summands = two_component_cfl_from_diagram(
        connected_sum(corpus("trefoil_right"), corpus("hopf_plus"), 0, 0)
    )
    for _ in range(6):
        assert decompose(scramble(cx, rng)) == summands


def test_solver_component_homology_shape():
    # collapsing the second coordinate of the solved trefoil-hopf complex
    # leaves the trefoil data doubled into consecutive gradings and pushed
    # over by half the linking number
    diag = connected_sum(corpus("trefoil_right"), corpus("hopf_plus"), 0, 0)
    cx, _ = two_component_cfl_from_diagram(diag)
    pairs, frees = e_decomposition(component_homology(cx, 2))
    assert pairs == {(1, -1, 1): 1, (1, -2, 1): 1}
    assert frees == {(0, 3): 1, (-1, 3): 1}
    pairs1, frees1 = e_decomposition(component_homology(cx, 1))
    assert pairs1 == {}
    assert frees1 == {(0, 1): 1, (-1, 1): 1}


def test_solver_spectral_pages():
    for name in ("hopf_plus", "two_bridge(8,3)"):
        cx, _ = two_component_cfl_from_diagram(corpus(name))
        pages = spectral_pages(cx)
        assert pages[0] == hfl_alternating(corpus(name)).table, name
        last = pages[-1]
        assert last.total_rank() == 2, name
        gradings = sorted(d for (d, _h2) in last.ranks)
        assert gradings[1] - gradings[0] == 1, name


# ----------------------------------------------------------------------
# connected sums and tensor products

def test_kunneth_tensor_matches_connected_sum():
    t = hfk_alternating_knot(corpus("trefoil_right"))
    h = hfl_alternating(corpus("hopf_plus")).table
    merged = connected_sum(corpus("trefoil_right"), corpus("hopf_plus"), 0, 0)
    assert tensor_graded(t, h, (1, 1)) == hfl_alternating(merged).table
    hh = connected_sum(corpus("hopf_plus"), corpus("hopf_plus"), 0, 0)
    assert tensor_graded(h, h, (1, 1)) == hfl_alternating(hh).table

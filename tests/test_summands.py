import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import random_summand_sum, scramble
from hfl.filtered import (
    FilteredComplex,
    assoc_graded_homology,
    component_homology,
    spectral_pages,
    total_homology,
    validate,
)
from hfl.fixtures import FIXTURE_NAMES, fixture_complex
from hfl.summands import (
    Summand,
    _verify_rebuild,
    build_sum,
    build_summand,
    decompose,
    e_decomposition,
    sum_cells,
    sum_invariants,
)


def test_summand_str():
    assert str(Summand("B", -2, 0, (0, -2))) == "B(-2)[0,-1]"
    assert str(Summand("V", 1, 2, (1, 1))) == "V^2(1)[1/2,1/2]"
    assert str(Summand("E", 0, 3, (4,))) == "E^3(0)[2]"


def test_summand_parameter_checks():
    with pytest.raises(ValueError):
        Summand("Q", 0, 0, (0, 0))
    with pytest.raises(ValueError):
        Summand("B", 0, 1, (0, 0))
    with pytest.raises(ValueError):
        Summand("V", 0, 0, (0, 0))
    with pytest.raises(ValueError):
        Summand("E", 0, 1, (0, 0))  # one-coordinate shape, two-coordinate shift
    with pytest.raises(ValueError):
        Summand("X", 0, -1, (0, 0))


def test_width_zero_x_is_y():
    assert Summand("X", 2, 0, (0, 0)) == Summand("Y", 2, 0, (0, 0))


def test_square_shape():
    cx = build_summand(Summand("B", 0, 0, (0, 0)))
    assert len(cx) == 4
    assert len(cx.arrows) == 4
    assert sorted(cx.maslov(g) for g in cx.gen_ids) == [0, 1, 1, 2]
    assert validate(cx)
    assert total_homology(cx) == {}


def test_staircase_shapes():
    v = build_summand(Summand("V", 0, 2, (0, 0)))
    assert len(v) == 4 and len(v.arrows) == 3
    assert {v.filt2(g) for g in v.gen_ids} == {(0, 0), (-2, 0), (-2, 2), (-4, 2)}
    assert total_homology(v) == {}
    h = build_summand(Summand("H", 0, 2, (0, 0)))
    assert {h.filt2(g) for g in h.gen_ids} == {(0, 0), (0, -2), (2, -2), (2, -4)}
    assert total_homology(h) == {}


def test_zigzag_shapes():
    x = build_summand(Summand("X", 0, 2, (0, 0)))
    assert len(x) == 5 and len(x.arrows) == 4
    assert total_homology(x) == {0: 1}
    y = build_summand(Summand("Y", 0, 2, (0, 0)))
    assert len(y) == 5 and len(y.arrows) == 4
    assert total_homology(y) == {0: 1}
    point = build_summand(Summand("Y", 3, 0, (1, -1)))
    assert len(point) == 1
    assert point.filt2(point.gen_ids[0]) == (1, -1)
    assert point.maslov(point.gen_ids[0]) == 3


def test_pair_shape():
    e = build_summand(Summand("E", 0, 2, (0,)))
    assert len(e) == 2 and len(e.arrows) == 1
    assert total_homology(e) == {}
    assert {e.filt2(g) for g in e.gen_ids} == {(0,), (-4,)}


def test_shift_is_position_of_base_cell():
    # the base cell of each shape lands exactly at the shift
    for s in (
        Summand("B", 0, 0, (2, -2)),
        Summand("V", 0, 2, (2, -2)),
        Summand("H", 0, 2, (2, -2)),
    ):
        cx = build_summand(s)
        assert any(
            cx.filt2(g) == (2, -2) and cx.maslov(g) == 0 for g in cx.gen_ids
        ), s


def test_e_decomposition_pairs_and_frees():
    # a knot-like one-coordinate complex: free part plus one finite pair
    from hfl.filtered import FilteredComplex

    gens = [("a", 0, (2,)), ("b", -1, (0,)), ("c", -2, (-2,)), ("z", 0, (2,))]
    cx = FilteredComplex(1, (0,), gens, [("b", "c")])
    pairs, frees = e_decomposition(cx)
    assert dict(pairs) == {(1, -1, 0): 1}
    assert dict(frees) == {(0, 2): 2}


def test_e_decomposition_invariant_under_mixing():
    from hfl.filtered import FilteredComplex

    gens = [("a", 0, (4,)), ("b", -1, (0,)), ("c", 0, (4,)), ("d", -1, (2,))]
    cx = FilteredComplex(1, (0,), gens, [("a", "b"), ("c", "b"), ("c", "d")])
    base = e_decomposition(cx)
    rng = random.Random(3)
    for _ in range(20):
        assert e_decomposition(scramble(cx, rng, same_class=False)) == base


def test_e_decomposition_rejects_two_coordinates():
    with pytest.raises(ValueError):
        e_decomposition(build_summand(Summand("B", 0, 0, (0, 0))))


def test_decompose_single_summands():
    shapes = [
        Summand("B", 0, 0, (0, 0)),
        Summand("B", -2, 0, (-2, -2)),
        Summand("V", 0, 1, (0, 0)),
        Summand("V", 2, 3, (1, 1)),
        Summand("H", -1, 2, (-1, 3)),
        Summand("X", 0, 1, (-1, 0)),
        Summand("X", 1, 4, (0, 0)),
        Summand("Y", 0, 0, (1, 1)),
        Summand("Y", -1, 1, (-1, -1)),
        Summand("Y", 3, 5, (2, 0)),
    ]
    for s in shapes:
        assert decompose(build_summand(s)) == [s]


def test_decompose_fixtures_round_trip():
    expected = {
        "hopf_plus": [Summand("Y", -1, 1, (-1, -1)), Summand("Y", 0, 0, (1, 1))],
        "hopf_minus": [Summand("X", 0, 1, (-1, -1)), Summand("Y", -1, 0, (-1, -1))],
        "h2": [
            Summand("B", -4, 0, (-2, -2)),
            Summand("Y", -1, 1, (0, 0)),
            Summand("Y", 0, 0, (2, 2)),
        ],
        "whitehead_8_3": [
            Summand("B", -3, 0, (-2, -2)),
            Summand("B", -2, 0, (-2, 0)),
            Summand("B", -2, 0, (0, -2)),
            Summand("X", 0, 1, (0, 0)),
            Summand("Y", -1, 0, (0, 0)),
        ],
        "l7n2": [
            Summand("B", -2, 0, (-2, -2)),
            Summand("B", -1, 0, (0, -2)),
            Summand("V", 1, 1, (2, 0)),
            Summand("V", 2, 1, (2, 2)),
            Summand("X", 0, 1, (-2, 0)),
            Summand("Y", -1, 0, (-2, 0)),
        ],
    }
    for name, want in expected.items():
        assert decompose(fixture_complex(name)) == sorted(want), name


def test_decompose_sees_arrows_not_just_counts():
    # same generator table, different differential, different answer
    square = [Summand("B", 0, 0, (0, 0))]
    dust = [
        Summand("Y", 0, 0, (0, 0)),
        Summand("Y", 1, 0, (2, 0)),
        Summand("Y", 1, 0, (0, 2)),
        Summand("Y", 2, 0, (2, 2)),
    ]
    a, b = build_sum(square), build_sum(dust)
    assert a.counts() == b.counts()
    assert decompose(a) == square
    assert decompose(b) == sorted(dust)


def test_decompose_refuses_long_arrows():
    cx = fixture_complex("l7n1")
    with pytest.raises(ValueError, match="is not E₂-collapsed"):
        decompose(cx)


@pytest.mark.parametrize("entry", ["spectral_pages", "component_homology", "e_decomposition", "decompose"])
def test_public_entry_points_refuse_illegal_complex(entry):
    from hfl.filtered import FilteredComplex

    calls = {
        "spectral_pages": spectral_pages,
        "component_homology": lambda cx: component_homology(cx, 1),
        "e_decomposition": e_decomposition,
        "decompose": decompose,
    }
    nvars = 1 if entry == "e_decomposition" else 2
    bad = FilteredComplex(
        nvars, (0,) * nvars, [("a", 2, (2,) * nvars), ("b", 0, (0,) * nvars)], [("a", "b")]
    )
    with pytest.raises(ValueError, match="^not a legal filtered complex: arrow a->b drops maslov by 2, not 1$"):
        calls[entry](bad)


def test_decompose_needs_two_coordinates():
    from hfl.filtered import FilteredComplex

    cx = FilteredComplex(1, (0,), [("a", 0, (0,))], [])
    with pytest.raises(ValueError):
        decompose(cx)


def test_decompose_scrambled_round_trips():
    rng = random.Random(20260823)
    for _ in range(40):
        ss = random_summand_sum(rng)
        mixed = scramble(build_sum(ss), rng, same_class=True)
        assert validate(mixed)
        assert decompose(mixed) == ss


def test_decompose_dense_scrambled_round_trips():
    # wide shapes packed into three Maslov levels share many classes, so
    # strings of different lengths overlap on the same zigzag; this is
    # where the order in which phase two mixes intervals shows.  Every
    # other draw holds only squares and zigzags, and half of the squares
    # get an X^1 one grading up at the same shift: that zigzag has the
    # square's tops and bottoms modulo rad², so only the square count
    # tells the two apart
    rng = random.Random(20261018)
    for i in range(600):
        kinds = "BX" if i % 2 else "BVHXY"
        ss = random_summand_sum(rng, max_summands=14, kinds=kinds, max_lam=4, max_d=1)
        squares = [s for s in ss if s.kind == "B"]
        ss = sorted(ss + [Summand("X", s.d + 1, 1, s.shift2) for s in squares[::2]])
        assert decompose(scramble(build_sum(ss), rng, same_class=True)) == ss


def test_decompose_matches_spectral_picture():
    rng = random.Random(11)
    for _ in range(10):
        ss = random_summand_sum(rng, max_summands=8)
        cx = scramble(build_sum(ss), rng, same_class=True)
        pages = spectral_pages(cx)
        # every summand dies or survives on the page after the counts
        survivors = sum(1 for s in ss if s.kind in ("X", "Y"))
        assert pages[-1].total_rank() == survivors
        assert assoc_graded_homology(cx).total_rank() == len(cx)


def test_fixture_loader_names():
    for name in FIXTURE_NAMES:
        cx = fixture_complex(name)
        assert validate(cx)
        assert total_homology(cx) == {0: 1, -1: 1}
    with pytest.raises(ValueError, match="hopf_plus"):
        fixture_complex("no_such_link")


def test_fixture_component_ranks():
    # one coordinate of the positive clasp is a single split unknot pair
    vert = component_homology(fixture_complex("hopf_plus"), 2)
    pairs, frees = e_decomposition(vert)
    assert not pairs
    assert dict(frees) == {(0, 1): 1, (-1, 1): 1}


# ----------------------------------------------------------------------
# The rebuild check reads the summands' closed-form invariants

@st.composite
def summand_lists(draw):
    """Summands of every two-coordinate kind, sizes up to 6, sharing one
    parity vector (odd coordinates included)."""
    parity = (draw(st.integers(0, 1)), draw(st.integers(0, 1)))
    out = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from("BVHXY"))
        lam = 0 if kind == "B" else draw(st.integers(1 if kind in "VH" else 0, 6))
        d = draw(st.integers(-3, 3))
        shift2 = tuple(2 * draw(st.integers(-3, 3)) + p for p in parity)
        out.append(Summand(kind, d, lam, shift2))
    return out


@settings(max_examples=150, deadline=None)
@given(summand_lists())
def test_summed_invariants_match_brute_force(ss):
    cx = build_sum(ss)
    total, per_coordinate = sum_invariants(ss)
    assert sum_cells(ss) == cx.counts().ranks
    assert total == total_homology(cx)
    for i, expected in zip((1, 2), per_coordinate):
        assert expected == e_decomposition(component_homology(cx, i)), i
    for s in ss:
        assert sum_cells([s]) == build_summand(s).counts().ranks


SQUARE = Summand("B", -1, 0, (-2, -2))
BACKGROUND = [Summand("Y", 0, 2, (0, 0)), Summand("V", 1, 1, (2, -2))]


def refused(summands, perturbed):
    cx = scramble(build_sum(summands), random.Random(3))
    _verify_rebuild(cx, sorted(summands))
    with pytest.raises(AssertionError) as info:
        _verify_rebuild(cx, sorted(perturbed))
    return str(info.value)


def test_rebuild_check_refuses_other_cells():
    ss = BACKGROUND + [SQUARE]
    shifted = BACKGROUND + [Summand("B", -1, 0, (0, -2))]
    assert refused(ss, shifted) == "decomposition does not match the generator counts"
    assert refused(ss, BACKGROUND) == "decomposition does not match the generator counts"


def test_rebuild_check_refuses_other_total_homology():
    # a square read as a zigzag and a point: same cells
    swapped = BACKGROUND + [Summand("X", 0, 1, (-2, -2)), Summand("Y", -1, 0, (-2, -2))]
    assert refused(BACKGROUND + [SQUARE], swapped) == (
        "decomposition does not match total homology"
    )


def test_rebuild_check_refuses_other_coordinate_1_homology():
    # a square read as two staircases whose arrows drop coordinate 2:
    # same cells, same total homology, and both die when coordinate 2
    # is cancelled
    swapped = BACKGROUND + [Summand("H", 0, 1, (-2, 0)), Summand("H", 1, 1, (0, 0))]
    assert refused(BACKGROUND + [SQUARE], swapped) == (
        "decomposition does not match the coordinate-1 homology"
    )


def test_rebuild_check_refuses_other_coordinate_2_homology():
    # the same with staircases whose arrows drop coordinate 1
    swapped = BACKGROUND + [Summand("V", 0, 1, (0, -2)), Summand("V", 1, 1, (0, 0))]
    assert refused(BACKGROUND + [SQUARE], swapped) == (
        "decomposition does not match the coordinate-2 homology"
    )


def test_rebuild_check_of_nothing():
    with pytest.raises(AssertionError, match="generator counts"):
        _verify_rebuild(build_sum([SQUARE]), [])
    assert decompose(FilteredComplex(2, (0, 1), [], [])) == []

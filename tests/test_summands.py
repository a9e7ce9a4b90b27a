import json
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    class_scramble,
    random_summand_sum,
    reference_decompose,
    reference_string_decomposition,
    scramble,
    shuffled_ids,
    workload_shaped_sum,
)
from hfl.filtered import (
    FilteredComplex,
    _index,
    assoc_graded_homology,
    component_homology,
    direct_sum,
    spectral_pages,
    total_homology,
    validate,
)
from hfl.fixtures import FIXTURE_NAMES, fixture_complex
from hfl.summands import (
    Summand,
    _bars,
    _interval_summand,
    _module,
    _rad2,
    _string_decomposition,
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


def public_sum(ss):
    """``build_sum(ss)`` through the public constructor: the same ids,
    levels and arrows, each one checked."""
    gens, arrows = [], []
    for k, s in enumerate(ss):
        part = build_summand(s)
        gens += [(f"s{k}.{g}", m, h2) for g, m, h2 in part.gens()]
        arrows += [(f"s{k}.{a}", f"s{k}.{b}") for a, b in part.arrows]
    return FilteredComplex(len(ss[0].shift2), [x % 2 for x in ss[0].shift2], gens, arrows)


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_build_sum_is_the_direct_sum_of_its_summands(rng):
    # two-coordinate lists of B, V, H, X and Y, and one-coordinate lists of E
    for ss in (random_summand_sum(rng), random_summand_sum(rng, nvars=1, kinds="E")):
        cx = build_sum(ss)
        parts = [build_summand(s) for s in ss]
        assert cx.to_json_dict() == direct_sum(parts).to_json_dict()
        # the trusted build keeps what the public constructor keeps
        public = public_sum(ss)
        assert cx == public
        assert cx.gen_ids == public.gen_ids
        assert cx.gens() == public.gens()
        assert cx.to_json_dict() == public.to_json_dict()
        assert cx.counts() == public.counts()


def test_build_sum_refuses_empty_and_mixed_parity():
    with pytest.raises(ValueError, match="empty direct sum"):
        build_sum([])
    with pytest.raises(ValueError) as err:
        build_sum([Summand("B", 0, 0, (0, 0)), Summand("B", 0, 0, (1, 0))])
    assert str(err.value) == "generator 's1.c00' violates parity (0, 0)"
    with pytest.raises(ValueError) as err:
        build_sum([Summand("B", 0, 0, (0, 0)), Summand("E", 0, 1, (0,))])
    assert str(err.value) == "generator 's1.t' has a filtration of wrong length"


def test_summand_stores_integers():
    s = Summand("Y", 1.0, 2.0, [0.0, 2])
    assert (s.d, s.lparam, s.shift2) == (1, 2, (0, 2))
    assert {type(x) for x in (s.d, s.lparam, *s.shift2)} == {int}
    assert build_sum([s]).to_json_dict() == build_sum([Summand("Y", 1, 2, (0, 2))]).to_json_dict()
    for args, message in (
        (("Y", 1.5, 0, (0, 0)), "summand d 1.5 is not an integer"),
        (("Y", 0, 0.5, (0, 0)), "summand lparam 0.5 is not an integer"),
        (("Y", 0, 0, (0.5, 0)), "summand shift2 0.5 is not an integer"),
        (("B", "0", 0, (0, 0)), "summand d '0' is not an integer"),
    ):
        with pytest.raises(ValueError) as err:
            Summand(*args)
        assert str(err.value) == message


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


def test_decompose_names_the_smallest_long_arrow():
    # eight arrows that drop both coordinates among eight that drop one:
    # whatever order the arrow set iterates in, the refusal names the
    # smallest long arrow
    rng = random.Random(26)
    for _ in range(20):
        names = rng.sample([f"g{k}" for k in range(100)], 24)
        tops, bottoms, shorts = names[:8], names[8:16], names[16:]
        gens = ([(g, 1, (2, 2)) for g in tops] + [(g, 0, (0, 0)) for g in bottoms]
                + [(g, 1, (2, 0)) for g in shorts])
        long_arrows = list(zip(tops, bottoms))
        cx = FilteredComplex(2, (0, 0), gens, long_arrows + list(zip(shorts, bottoms)))
        a, b = sorted(long_arrows)[0]
        with pytest.raises(ValueError) as info:
            decompose(cx)
        assert str(info.value) == (
            f"complex is not E₂-collapsed: arrow {a}->{b} moves the filtration by (2/2, 2/2)"
        )


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


def test_decompose_returns_sorted_summands():
    # decompose counts, subtracts and sorts plain tuples and builds each
    # Summand at the end: every item must be a Summand, in Summand order,
    # never spelled X^0
    rng = random.Random(20261020)
    draws = []
    for i in range(120):
        kinds = "BXY" if i % 2 else "BVHXY"
        ss = random_summand_sum(rng, max_summands=14, kinds=kinds, max_lam=3, max_d=1)
        draws.append((ss, scramble(build_sum(ss), rng, same_class=True)))
    for ss, cx in draws:
        got = decompose(cx)
        assert all(type(s) is Summand for s in got)
        assert got == sorted(got)
        assert not any(s.kind == "X" and s.lparam == 0 for s in got)
        assert got == ss
        # built through Summand._trusted: the fields, the hash and the
        # spelling the public constructor gives
        for s in got:
            public = Summand(s.kind, s.d, s.lparam, s.shift2)
            assert vars(s) == vars(public)
            assert (hash(s), str(s)) == (hash(public), str(public))
            assert {type(x) for x in (s.d, s.lparam, *s.shift2)} == {int}
            assert type(s.shift2) is tuple


def test_decompose_matches_the_sorting_reference_on_workload_shaped_sums():
    # sums of the benchmark's 242-generator shapes, mixed inside classes as
    # densely as the benchmark mixes them and renamed so that id order says
    # nothing about the summands.  The sweep keeps its live intervals in
    # the absorb order as it makes them; the reference sorts them into that
    # order before every step.  A sweep that puts new top starts at the
    # back of live gets 23 of these 40 sums wrong, but only 8 of 1000
    # small random_summand_sum draws
    rng = random.Random(20261021)
    for _ in range(40):
        ss = workload_shaped_sum(rng)
        cx = shuffled_ids(class_scramble(build_sum(ss), rng, 484), rng)
        maps = _module(_index(cx))
        rad2 = _rad2(maps)
        assert Counter(_string_decomposition(maps, rad2)) == Counter(
            reference_string_decomposition(maps, rad2)
        )
        assert decompose(cx) == reference_decompose(cx) == ss


def test_a_complex_is_numbered_once(monkeypatch):
    # one sorted index, kept on the complex, feeds validation, the module
    # maps, both persistence reductions of the self-check and the
    # generator counts, the spectral pages, both component homologies and
    # both homologies
    calls = []
    gens = FilteredComplex.gens
    monkeypatch.setattr(FilteredComplex, "gens", lambda cx: calls.append(1) or gens(cx))
    monkeypatch.setattr(FilteredComplex, "counts", None)
    ss = workload_shaped_sum(random.Random(5))
    cx = build_sum(ss)
    assert validate(cx)
    assert decompose(cx) == ss
    spectral_pages(cx)
    component_homology(cx, 1)
    component_homology(cx, 2)
    assoc_graded_homology(cx)
    total_homology(cx)
    assert len(calls) == 1


def test_width_zero_x_interval_is_spelled_y():
    # a bottom-to-bottom interval of width zero is X^0, which Summand
    # spells Y^0; the tuple must be spelled so before it is counted
    # (position, is_top, class images, space, rad²)
    bottom = (1, False, ([0], [0]), [1], {})
    t = _interval_summand([bottom], 0, 0, 1, 4)
    assert t == ("Y", 0, 0, (0, 2))
    assert Summand(*t) == Summand("X", 0, 0, (0, 2))


def test_sum_invariants_refuses_a_one_coordinate_summand():
    with pytest.raises(ValueError, match=r"^sum_invariants takes two-coordinate summands, not E\^1\(0\)\[0\]$"):
        sum_invariants([Summand("Y", 0, 0, (0, 0)), Summand("E", 0, 1, (0,))])


@st.composite
def dense_summand_sums(draw):
    """Up to 14 summands of the shapes above on one parity vector, odd
    coordinates included, some squares paired with an X^1 one grading up."""
    kinds = draw(st.sampled_from(["BVHXY", "BX"]))
    parity = draw(st.tuples(st.integers(0, 1), st.integers(0, 1)))
    ss = []
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(kinds))
        lam = 0 if kind == "B" else draw(st.integers(1 if kind in "VH" else 0, 4))
        d = draw(st.integers(-1, 1))
        shift2 = tuple(2 * draw(st.integers(-2, 2)) + p for p in parity)
        ss.append(Summand(kind, d, lam, shift2))
        if kind == "B" and draw(st.booleans()):
            ss.append(Summand("X", d + 1, 1, shift2))
    return sorted(ss)


@settings(max_examples=100, deadline=None)
@given(dense_summand_sums(), st.randoms(use_true_random=False))
def test_decompose_dense_scrambled_round_trips_drawn(ss, rng):
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


def assert_bars_are_the_cancelled_invariants(cx):
    """The bars of ``cx`` filtered by the coordinate other than i, less
    the zero-length pairs, are the e-decomposition of the component
    homology that cancels coordinate i; the unpaired generators, counted
    by Maslov grading, are the total homology."""
    for i in (1, 2):
        pairs, frees = _bars(_index(cx), 2 - i)
        positive = Counter({key: n for key, n in pairs.items() if key[0] > 0})
        assert all(key[0] >= 0 for key in pairs), i
        assert (positive, frees) == e_decomposition(component_homology(cx, i)), i
        by_maslov = Counter()
        for (m, _), n in frees.items():
            by_maslov[m] += n
        assert by_maslov == Counter(total_homology(cx)), i


def test_bars_of_the_golden_complexes():
    golden = json.loads((Path(__file__).parent / "data" / "complex_golden.json").read_text())
    complexes = [FilteredComplex.from_json_dict(entry["complex"])
                 for entry in golden["complexes"].values()]
    complexes = [cx for cx in complexes if cx.nvars == 2]
    assert len(complexes) == 23
    # the random legal complexes have arrows that keep a coordinate's level
    assert any(cx.filt2(a)[axis] == cx.filt2(b)[axis]
               for cx in complexes for a, b in cx.arrows for axis in (0, 1))
    for cx in complexes:
        assert_bars_are_the_cancelled_invariants(cx)


@settings(max_examples=150, deadline=None)
@given(summand_lists(), st.booleans(), st.randoms(use_true_random=False))
def test_bars_of_scrambled_summand_lists(ss, same_class, rng):
    assert_bars_are_the_cancelled_invariants(scramble(build_sum(ss), rng, same_class))


def test_bars_of_dense_scrambles():
    # shaped like the benchmark's sums: every kind, wide shapes, many
    # summands sharing classes
    rng = random.Random(26)
    for _ in range(50):
        ss = random_summand_sum(rng, max_summands=14, kinds="BVHXY", max_lam=4)
        assert_bars_are_the_cancelled_invariants(scramble(build_sum(ss), rng))


def test_bars_of_a_staircase_keep_its_flat_arrow():
    # V^1 at the origin: t (0, (0, 0)) -> u (-1, (-2, 0)).  Filtered by
    # coordinate 1 the arrow is a bar of length one; filtered by
    # coordinate 2 it keeps the level, a pair of length zero
    cx = build_summand(Summand("V", 0, 1, (0, 0)))
    assert _bars(_index(cx), 0) == (Counter({(1, 0, 0): 1}), Counter())
    assert _bars(_index(cx), 1) == (Counter({(0, 0, 0): 1}), Counter())


SQUARE = Summand("B", -1, 0, (-2, -2))
BACKGROUND = [Summand("Y", 0, 2, (0, 0)), Summand("V", 1, 1, (2, -2))]


def rebuild_check(cx, summands):
    """``decompose``'s self-check of ``summands`` against ``cx``, on the
    index and module maps that ``decompose`` hands it."""
    index = _index(cx)
    _verify_rebuild(index, _module(index), summands)


def refused(summands, perturbed):
    cx = scramble(build_sum(summands), random.Random(3))
    rebuild_check(cx, sorted(summands))
    with pytest.raises(AssertionError) as info:
        rebuild_check(cx, sorted(perturbed))
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
        rebuild_check(build_sum([SQUARE]), [])
    assert decompose(FilteredComplex(2, (0, 1), [], [])) == []


def test_rebuild_check_cannot_tell_zigzag_ends_apart():
    # each coordinate sees one end of a Y, so these two lists share every
    # invariant the check compares; a stronger check must flip this
    ys = [Summand("Y", -1, 1, (0, 0)), Summand("Y", -1, 2, (2, -4))]
    rematched = [Summand("Y", -1, 0, (2, 0)), Summand("Y", -1, 3, (0, -4))]
    rebuild_check(build_sum(ys), rematched)
    assert (sum_cells(ys), sum_invariants(ys)) == (sum_cells(rematched), sum_invariants(rematched))

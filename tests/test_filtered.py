import json
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import hfl.filtered
from helpers import (
    euler_number,
    random_filtered_complex,
    random_summand_sum,
    reference_assoc_graded_homology,
    reference_chain_report,
    reference_component_homology,
    reference_spectral_pages,
    reference_total_homology,
    scramble,
    shuffled_ids,
    substitute_one,
)
from hfl.filtered import (
    FilteredComplex,
    MultiGradedVS,
    assoc_graded_homology,
    asymmetric_cell,
    component_homology,
    direct_sum,
    echelon,
    first_difference,
    shift,
    spectral_pages,
    tensor_graded,
    total_homology,
    validate,
)
from hfl.laurent import MultiLaurent
from hfl.summands import build_sum


def hopf_complex():
    # four generators, two arrows: the positive clasp answer
    gens = [
        ("a", 0, (1, 1)),
        ("b", -1, (-1, 1)),
        ("c", -1, (1, -1)),
        ("d", -2, (-1, -1)),
    ]
    return FilteredComplex(2, (1, 1), gens, [("b", "d"), ("c", "d")])


def square_complex():
    gens = [("p", 0, (0, 0)), ("q", 1, (2, 0)), ("r", 1, (0, 2)), ("s", 2, (2, 2))]
    arrows = [("s", "q"), ("s", "r"), ("q", "p"), ("r", "p")]
    return FilteredComplex(2, (0, 0), gens, arrows)


def test_vector_space_aggregation():
    v = MultiGradedVS(1, (0,), [(0, (0,), 1), (0, (0,), 2), (1, (2,), 1)])
    assert v.rank(0, (0,)) == 3
    assert v.total_rank() == 4
    assert v.by_maslov() == {0: 3, 1: 1}
    # a parity entry other than 0 or 1 matches no level
    for parity in ((2,), (-1,)):
        with pytest.raises(ValueError, match="^bad parity vector$"):
            MultiGradedVS(1, parity)
        with pytest.raises(ValueError, match="^bad parity vector$"):
            MultiGradedVS.from_json_dict({"l": 1, "parity": list(parity), "ranks": []})


def test_vector_space_euler():
    v = MultiGradedVS(2, (1, 1), [(0, (1, 1), 1), (-1, (1, -1), 1)])
    assert v.euler() == MultiLaurent(2, {(1, 1): 1, (1, -1): -1})
    assert euler_number(v) == 0


def test_vector_space_json_round_trip():
    v = hopf_complex().counts()
    blob = json.dumps(v.to_json_dict(), sort_keys=True)
    w = MultiGradedVS.from_json_dict(json.loads(blob))
    assert v == w


def test_complex_rejects_duplicate_ids():
    with pytest.raises(ValueError):
        FilteredComplex(1, (0,), [("a", 0, (0,)), ("a", 1, (0,))], [])


def test_complex_rejects_unknown_arrow():
    with pytest.raises(ValueError):
        FilteredComplex(1, (0,), [("a", 0, (0,))], [("a", "zz")])


def test_complex_rejects_parity_break():
    with pytest.raises(ValueError):
        FilteredComplex(1, (0,), [("a", 0, (1,))], [])


def test_validate_passes_hopf():
    rep = validate(hopf_complex())
    assert rep
    assert rep.kind is None


def test_validate_flags_maslov_jump():
    cx = FilteredComplex(
        1, (0,), [("a", 2, (2,)), ("b", 0, (0,))], [("a", "b")]
    )
    rep = validate(cx)
    assert not rep
    assert rep.kind == "arrow_grading"


def test_validate_flags_filtration_raise():
    cx = FilteredComplex(
        1, (0,), [("a", 1, (0,)), ("b", 0, (2,))], [("a", "b")]
    )
    rep = validate(cx)
    assert rep.kind == "filtration"
    assert "1" in rep.detail


def test_validate_flags_d_squared():
    gens = [("a", 2, (2, 2)), ("b", 1, (0, 2)), ("c", 0, (0, 0))]
    cx = FilteredComplex(2, (0, 0), gens, [("a", "b"), ("b", "c")])
    rep = validate(cx)
    assert rep.kind == "d_squared"


def broken_complex():
    return FilteredComplex(2, (0, 0), [("a", 2, (2, 0)), ("b", 0, (0, 0))], [("a", "b")])


def test_validate_reports_once_per_instance(monkeypatch):
    calls = []
    check = hfl.filtered._chain_report
    monkeypatch.setattr(hfl.filtered, "_chain_report", lambda cx: calls.append(cx) or check(cx))
    cx = broken_complex()
    first = validate(cx)
    assert not first and first.kind == "arrow_grading"
    assert validate(cx) is first and len(calls) == 1
    with pytest.raises(ValueError, match="not a legal filtered complex: arrow a->b drops"):
        spectral_pages(cx)
    assert len(calls) == 1


def test_equal_complex_is_validated_on_its_own(monkeypatch):
    calls = []
    check = hfl.filtered._chain_report
    monkeypatch.setattr(hfl.filtered, "_chain_report", lambda cx: calls.append(cx) or check(cx))
    one, two = broken_complex(), broken_complex()
    assert one == two
    first = validate(one)
    second = validate(two)
    assert calls == [one, two] and calls[1] is two
    assert second is not first and second == first


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 255), max_size=8))
def test_echelon_rank_counts_the_span(vectors):
    span = {0}
    for v in vectors:
        span |= {w ^ v for w in span}
    basis = echelon(vectors)
    assert len(span) == 2 ** len(basis)
    assert all(b.bit_length() - 1 == top and b in span for top, b in basis.items())
    grown = echelon(vectors[:1])
    assert echelon(vectors[1:], grown) is grown and len(grown) == len(basis)


def test_complex_json_round_trip():
    cx = hopf_complex()
    blob = json.dumps(cx.to_json_dict(), sort_keys=True)
    back = FilteredComplex.from_json_dict(json.loads(blob))
    assert back.to_json_dict() == cx.to_json_dict()
    assert sorted(back.gen_ids) == sorted(cx.gen_ids)
    assert back.arrows == cx.arrows


def test_assoc_graded_hopf():
    ag = assoc_graded_homology(hopf_complex())
    assert ag.rank(0, (1, 1)) == 1
    assert ag.rank(-1, (-1, 1)) == 1
    assert ag.rank(-1, (1, -1)) == 1
    assert ag.rank(-2, (-1, -1)) == 1
    assert ag.total_rank() == 4


def test_assoc_graded_square_is_free():
    # no arrows preserve the filtration level, so the page is the counts
    ag = assoc_graded_homology(square_complex())
    assert ag == square_complex().counts()


def test_total_homology_hopf():
    assert total_homology(hopf_complex()) == {0: 1, -1: 1}


def test_total_homology_square_vanishes():
    assert total_homology(square_complex()) == {}


def test_spectral_pages_hopf():
    pages = spectral_pages(hopf_complex())
    assert len(pages) == 2
    assert pages[0].total_rank() == 4
    assert pages[1].total_rank() == 2
    assert pages[1].by_maslov() == {0: 1, -1: 1}


def test_spectral_pages_square_dies():
    pages = spectral_pages(square_complex())
    assert pages[-1].total_rank() == 0
    assert pages[0].total_rank() == 4


def test_spectral_pages_need_legal_complex():
    gens = [("a", 2, (2,)), ("b", 0, (0,))]
    bad = FilteredComplex(1, (0,), gens, [("a", "b")])
    with pytest.raises(ValueError, match="not a legal filtered complex"):
        spectral_pages(bad)


def test_spectral_pages_no_arrows():
    cx = FilteredComplex(1, (0,), [("a", 0, (0,)), ("b", 5, (4,))], [])
    pages = spectral_pages(cx)
    assert len(pages) == 1
    assert pages[0] == cx.counts()


def test_component_homology_hopf():
    for i in (1, 2):
        one_var = component_homology(hopf_complex(), i)
        assert one_var.nvars == 1
        assert not one_var.arrows
        ranks = {(one_var.maslov(g), one_var.filt2(g)) for g in one_var.gen_ids}
        assert ranks == {(0, (1,)), (-1, (1,))}


def test_component_homology_square_vanishes():
    for i in (1, 2):
        assert len(component_homology(square_complex(), i)) == 0


def test_component_homology_bad_coordinate():
    with pytest.raises(ValueError):
        component_homology(hopf_complex(), 3)


def test_shift_moves_parity():
    cx = hopf_complex()
    moved = shift(cx, (1, -1))
    assert moved.parity == (0, 0)
    assert moved.filt2("a") == (2, 0)
    assert validate(moved)


def test_direct_sum_disjoint():
    cx = hopf_complex()
    both = direct_sum([cx, cx])
    assert len(both) == 8
    assert total_homology(both) == {0: 2, -1: 2}
    with pytest.raises(ValueError):
        direct_sum([cx, square_complex()])


def test_asymmetric_cell_names_the_first_broken_cell():
    # (d, h) pairs with (d - 2 o(h), -h); the centre pairs with itself
    table = {(0, (1, 1)): 1, (-2, (-1, -1)): 1, (1, (2, -2)): 3, (1, (-2, 2)): 3,
             (0, (0, 0)): 2}
    assert asymmetric_cell(table) is None
    assert asymmetric_cell({(5, (3,)): 1, (2, (-3,)): 1}) is None
    broken = dict(table)
    broken[(0, (1, 1))] = 2
    assert asymmetric_cell(broken) == ((-2, (-1, -1)), (0, (1, 1)))
    broken = dict(table)
    broken[(4, (2, 0))] = 1
    assert asymmetric_cell(broken) == ((4, (2, 0)), (2, (-2, 0)))


def test_first_difference_lists_cells_as_table_str_does():
    # by level first, then Maslov grading: (2, (-1,)) comes before (0, (1,))
    a = {(0, (1,)): 1, (2, (-1,)): 1, (1, (1,)): 3}
    assert first_difference(a, dict(a)) is None
    assert first_difference(a, {(0, (1,)): 2, (1, (1,)): 3}) == (2, (-1,), 1, 0)
    assert first_difference(a, {**a, (0, (1,)): 2, (-5, (3,)): 1}) == (0, (1,), 1, 2)


def test_tensor_graded_hopf_square():
    v = hopf_complex().counts()
    t = tensor_graded(v, v)
    assert t.nvars == 3
    assert t.parity == (0, 1, 1)
    assert t.total_rank() == 16
    # merged coordinate convolves the spliced pair
    assert t.rank(0, (2, 1, 1)) == 1
    assert t.rank(-4, (-2, -1, -1)) == 1


def test_tensor_graded_splice_bounds():
    v = hopf_complex().counts()
    with pytest.raises(ValueError):
        tensor_graded(v, v, splice=(0, 1))
    with pytest.raises(ValueError):
        tensor_graded(v, v, splice=(1, 3))
    # a splice of the wrong length is named, not left to tuple unpacking
    with pytest.raises(ValueError, match=r"^splice \(1,\) is not a pair \(i, j\)$"):
        tensor_graded(v, v, (1,))
    with pytest.raises(ValueError, match=r"^splice \(1, 1, 1\) is not a pair \(i, j\)$"):
        tensor_graded(v, v, [1, 1, 1])


def small_tables(nvars):
    entry = st.tuples(
        st.integers(-2, 2),
        st.tuples(*([st.sampled_from([-2, 0, 2])] * nvars)),
        st.integers(1, 2),
    )
    return st.builds(
        lambda es: MultiGradedVS(nvars, (0,) * nvars, es),
        st.lists(entry, min_size=1, max_size=4),
    )


@given(small_tables(1), small_tables(1), small_tables(1))
@settings(max_examples=60, deadline=None)
def test_tensor_graded_associative(a, b, c):
    left = tensor_graded(tensor_graded(a, b), c)
    right = tensor_graded(a, tensor_graded(b, c))
    assert left == right


@given(small_tables(1), small_tables(1))
@settings(max_examples=60, deadline=None)
def test_tensor_graded_commutative_on_merged_coordinate(a, b):
    assert tensor_graded(a, b) == tensor_graded(b, a)


@given(small_tables(2), small_tables(2))
@settings(max_examples=40, deadline=None)
def test_tensor_graded_euler_multiplies(a, b):
    def flatten(p):
        while p.nvars > 1:
            p = substitute_one(p, p.nvars)
        return p

    lhs = flatten(tensor_graded(a, b).euler())
    rhs = flatten(a.euler()) * flatten(b.euler())
    assert lhs == rhs


def test_spectral_invariants_random():
    rng = random.Random(20260823)
    for _ in range(60):
        nvars = rng.choice([1, 2, 2, 3])
        cx = random_filtered_complex(rng, nvars)
        assert validate(cx)
        pages = spectral_pages(cx)
        assert pages[0] == assoc_graded_homology(cx)
        einf = pages[-1]
        assert einf.total_rank() == sum(total_homology(cx).values())
        assert euler_number(pages[0]) == euler_number(einf)
        assert pages[0].euler() == cx.counts().euler()


def test_scramble_keeps_pages():
    rng = random.Random(5)
    cx = hopf_complex()
    mixed = scramble(direct_sum([cx, cx]), rng, same_class=False)
    assert validate(mixed)
    assert total_homology(mixed) == {0: 2, -1: 2}


def test_cancellation_matches_the_string_keyed_reference():
    # positions are ranks in sorted id order, so every arrow picked, and
    # so every surviving id, is the one the cancellation on string ids
    # picks; ids are shuffled so that insertion, numeric and string
    # order all differ
    rng = random.Random(20261020)
    complexes = [random_filtered_complex(rng, 1 + k % 3) for k in range(90)]
    complexes += [
        scramble(build_sum(random_summand_sum(rng, max_summands=14)), rng, same_class=False)
        for _ in range(30)
    ]
    for cx in complexes:
        cx = shuffled_ids(cx, rng)
        got, want = spectral_pages(cx), reference_spectral_pages(cx)
        assert [list(p.ranks.items()) for p in got] == [list(p.ranks.items()) for p in want]
        for i in range(1, cx.nvars + 1):
            part = component_homology(cx, i)
            assert part.to_json_dict() == reference_component_homology(cx, i).to_json_dict()
            assert part.gen_ids == tuple(sorted(part.gen_ids))


def with_random_arrows(cx, rng):
    """``cx`` with one to three more arrows, so that every check and the
    homology ranks can fail: each joins any two generators, drops Maslov
    by one, or is legal on its own and starts where an arrow ends."""
    ids = list(cx.gen_ids)
    ends = [b for _, b in cx.arrows] or ids
    arrows = set(cx.arrows)
    for _ in range(rng.randrange(1, 4)):
        kind = rng.randrange(4)  # 0: any pair, 1: drops Maslov by one, 2-3: legal
        a = rng.choice(ends if kind > 1 else ids)
        below = [b for b in ids if cx.maslov(b) == cx.maslov(a) - 1]
        if kind > 1:
            below = [b for b in below if all(map(int.__le__, cx.filt2(b), cx.filt2(a)))]
        arrows.add((a, rng.choice(below if kind and below else ids)))
    return FilteredComplex(cx.nvars, cx.parity, cx.gens(), arrows)


def test_checks_and_homologies_match_the_string_keyed_reference():
    # the one numbering kept on a complex gives the reports, the ranks,
    # the degree order and the refusals of the checks on string ids and of
    # the homologies that numbered the generators of each level apart
    rng = random.Random(20261022)
    seen = Counter()
    for k in range(1000):
        cx = random_filtered_complex(rng, 1 + k % 3, max_gens=16)
        if k % 2:
            cx = with_random_arrows(cx, rng)
        cx = shuffled_ids(cx, rng)
        rep = validate(cx)
        assert (rep.kind, rep.detail) == (reference_chain_report(cx) or (None, None))
        seen[rep.kind] += 1
        for run, reference in ((assoc_graded_homology, reference_assoc_graded_homology),
                               (total_homology, reference_total_homology)):
            try:
                want = reference(cx)
            except ValueError as refusal:
                with pytest.raises(ValueError, match=f"^{re.escape(str(refusal))}$"):
                    run(cx)
                seen[run.__name__] += 1
            else:
                got = run(cx)
                assert got == want
                if isinstance(got, dict):
                    assert list(got) == list(want)
    # every report kind, and a refusal from each homology, occurs
    assert set(seen) == {None, "arrow_grading", "filtration", "d_squared",
                         "assoc_graded_homology", "total_homology"}


def test_non_integral_values_are_refused():
    with pytest.raises(ValueError, match=r"^generator 'a' Maslov grading 0\.5 is not an integer$"):
        FilteredComplex(1, (0,), [("a", 0.5, (2.7,)), ("b", -1, (0,))], [("a", "b")])
    with pytest.raises(
        ValueError, match=r"^generator 'a' filtration coordinate 2\.7 is not an integer$"
    ):
        FilteredComplex(1, (0,), [("a", 0, [2.7]), ("b", -1, (0,))], [("a", "b")])
    with pytest.raises(ValueError, match=r"^complex coordinate count 1\.5 is not an integer$"):
        FilteredComplex(1.5, (0,), [])
    with pytest.raises(ValueError, match=r"^complex parity entry 0\.5 is not an integer$"):
        FilteredComplex(1, (0.5,), [])
    with pytest.raises(ValueError, match=r"^cell \(0, \(2,\)\) rank 1\.5 is not an integer$"):
        MultiGradedVS(1, (0,), [(0, (2,), 1.5)])
    with pytest.raises(ValueError, match=r"^rank table Maslov grading 0\.5 is not an integer$"):
        MultiGradedVS(1, (0,), {(0.5, (2,)): 1})
    with pytest.raises(
        ValueError, match=r"^rank table grading coordinate 2\.5 is not an integer$"
    ):
        MultiGradedVS.from_json_dict({"l": 1, "parity": [0], "ranks": [{"d": 0, "h2": [2.5], "r": 1}]})
    with pytest.raises(ValueError, match=r"^rank table coordinate count 1\.5 is not an integer$"):
        MultiGradedVS(1.5, (0,))
    with pytest.raises(ValueError, match=r"^rank table parity entry 0\.5 is not an integer$"):
        MultiGradedVS(1, (0.5,))
    cx = FilteredComplex(1, (0,), [("a", 0, (0,))])
    with pytest.raises(ValueError, match=r"^shift vector coordinate 2\.9 is not an integer$"):
        shift(cx, (2.9,))


def test_integral_values_are_stored_as_ints():
    cx = FilteredComplex(1.0, [0.0], [("a", 1.0, [Fraction(2)]), ("b", 0, (0,))], [("a", "b")])
    moved = shift(cx, [2.0])
    v = MultiGradedVS(1.0, [0.0], [(0.0, [Fraction(2)], 1.0)])
    assert moved.gens() == [("a", 1, (4,)), ("b", 0, (2,))]
    assert v.ranks == {(0, (2,)): 1}
    values = [cx.nvars, *cx.parity, v.nvars, *v.parity, *v.ranks.values()]
    for _, d, h2 in cx.gens() + moved.gens():
        values += [d, *h2]
    for d, h2 in v.ranks:
        values += [d, *h2]
    assert all(type(x) is int for x in values)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 3))
def test_internal_rank_tables_pass_the_public_checks(seed, n1, n2):
    rng = random.Random(seed)
    a = random_filtered_complex(rng, n1, max_gens=16)
    b = random_filtered_complex(rng, n2, max_gens=16)
    tables = [a.counts(), assoc_graded_homology(a), *spectral_pages(a)]
    splice = (rng.randint(1, n1), rng.randint(1, n2))
    tables.append(tensor_graded(tables[1], b.counts(), splice))
    for v in tables:
        assert MultiGradedVS(v.nvars, v.parity, v.ranks) == v


def test_homology_refuses_a_differential_that_does_not_square_to_zero():
    gens = [("a", 2, (0,)), ("b", 1, (0,)), ("c", 0, (0,))]
    cx = FilteredComplex(1, (0,), gens, [("a", "b"), ("b", "c")])
    with pytest.raises(ValueError, match="homology rank is negative"):
        assoc_graded_homology(cx)
    with pytest.raises(ValueError, match="homology rank is negative"):
        total_homology(cx)


def test_entry_guards_name_the_fault():
    with pytest.raises(ValueError, match="parity vector has wrong length"):
        MultiGradedVS(2, (0,))
    with pytest.raises(ValueError, match="grading vector has wrong length"):
        MultiGradedVS.from_json_dict({"l": 1, "parity": [0], "ranks": [{"d": 0, "h2": [0, 0], "r": 1}]})
    with pytest.raises(ValueError, match="ranks must be nonnegative"):
        MultiGradedVS(1, (0,), {(0, (0,)): -1})
    with pytest.raises(ValueError, match=r"^grading \(1,\) violates parity \(0,\)$"):
        MultiGradedVS(1, (0,), {(0, (1,)): 1})
    assert MultiGradedVS(1, (0,)).ranks == {}
    with pytest.raises(ValueError, match="bad parity vector"):
        FilteredComplex.from_json_dict({"l": 1, "parity": [2], "gens": []})
    with pytest.raises(ValueError, match="generator 'a' has a filtration of wrong length"):
        FilteredComplex(2, (0, 0), [("a", 0, (0,))])
    cx = FilteredComplex(1, (0,), [("a", 0, (0,))])
    with pytest.raises(ValueError, match="shift vector has wrong length"):
        shift(cx, (2, 0))
    with pytest.raises(ValueError, match="empty direct sum"):
        direct_sum([])


# complex documents that are not the layout of to_json_dict, each with the
# field its refusal names
MALFORMED_COMPLEXES = [
    ({}, "complex has no 'l' field"),
    ([1, 2], "complex is not a JSON object"),
    ({"l": 1, "parity": 0, "gens": []}, "complex field 'parity' is not a list"),
    ({"l": 1, "parity": [0]}, "complex has no 'gens' field"),
    ({"l": 1, "parity": [0], "gens": ["a"]}, "generator 0 is not a JSON object"),
    ({"l": 1, "parity": [0], "gens": [{"d": 0, "h2": [0]}]}, "generator 0 has no 'id' field"),
    ({"l": 1, "parity": [0], "gens": [{"id": "a", "h2": [0]}]}, "generator 'a' has no 'd' field"),
    ({"l": 1, "parity": [0], "gens": [{"id": "a", "d": 0, "h2": 0}]},
     "generator 'a' field 'h2' is not a list"),
    ({"l": 1, "parity": [0], "gens": [{"id": "a", "d": 0, "h2": [0]}], "arrows": [["a"]]},
     "complex field 'arrows' is not a list of [source, target] pairs"),
    ({"l": 1, "parity": [0], "gens": [], "arrows": "ab"},
     "complex field 'arrows' is not a list of [source, target] pairs"),
]


@pytest.mark.parametrize("doc, message", MALFORMED_COMPLEXES)
def test_malformed_complex_document_is_refused(doc, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        FilteredComplex.from_json_dict(doc)


# rank table documents that are not the layout of to_json_dict, each with
# the field its refusal names
MALFORMED_TABLES = [
    ({}, "rank table has no 'l' field"),
    ([1], "rank table is not a JSON object"),
    ({"l": 1, "parity": [0]}, "rank table has no 'ranks' field"),
    ({"l": 1, "parity": 0, "ranks": []}, "rank table field 'parity' is not a list"),
    ({"l": 1, "parity": [0], "ranks": [{"d": 0, "r": 1}]}, "rank entry 0 has no 'h2' field"),
    ({"l": 1, "parity": [0], "ranks": [{"d": 0, "h2": [0], "r": 1}, 3]},
     "rank entry 1 is not a JSON object"),
]


@pytest.mark.parametrize("doc, message", MALFORMED_TABLES)
def test_malformed_table_document_is_refused(doc, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        MultiGradedVS.from_json_dict(doc)


def test_tables_and_complexes_are_unhashable_values():
    v = MultiGradedVS(1, (0,), {(0, (2,)): 1})
    cx = FilteredComplex(1, (0,), [("a", 0, (0,))])
    assert repr(v) == "MultiGradedVS(1, (0,), {(0, (2,)): 1})"
    assert repr(cx) == "FilteredComplex(l=1, gens=1, arrows=0)"
    for value in (v, cx):
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)

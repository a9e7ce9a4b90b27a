import re
from fractions import Fraction
from math import gcd
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from hfl.alexander import goeritz_determinant
from hfl.linkdiag import (
    CORPUS_NAMES,
    LinkDiagram,
    LinkingData,
    _continued_fraction,
    _positional,
    braid_closure,
    connected_sum,
    corpus,
    keep_component,
    linking_matrix,
    mirror,
    parse_pd,
    reverse,
    two_bridge,
)
from helpers import TupleDiagram, tuple_positional


def test_parse_round_trip():
    d = corpus("trefoil_right")
    assert parse_pd(d.to_pd_text()) == d
    assert parse_pd("U").crossings == []


@st.composite
def pd_texts(draw):
    """A PD code on 1-6 crossings whose labels each occur twice, in any
    order: mostly not planar, sometimes not even traceable."""
    n = draw(st.integers(1, 6))
    labels = draw(st.permutations([e for e in range(1, 2 * n + 1) for _ in range(2)]))
    return "PD[%s]" % ",".join(
        "X[%s]" % ",".join(map(str, labels[i : i + 4])) for i in range(0, 4 * n, 4)
    )


@settings(max_examples=300, deadline=None)
@given(pd_texts())
def test_a_parsed_code_is_planar_or_refused(text):
    try:
        d = parse_pd(text)
    except ValueError:
        return
    assert not d.connected or len(d.faces) == len(d.crossings) + 2


def test_parse_rejects_garbage():
    for bad in ["", "PD[]", "PD[X[1,2,3]]", "X[1,2,3,4]", "PD[X[1,2,3,4],junk]"]:
        with pytest.raises(ValueError):
            parse_pd(bad)
    with pytest.raises(ValueError):
        # edge 1 appears three times
        parse_pd("PD[X[1,1,1,2],X[2,3,3,4]]")


def test_corpus_names_all_build():
    for name in CORPUS_NAMES:
        d = corpus(name)
        assert d.n_components in (1, 2)
    with pytest.raises(ValueError):
        corpus("granny")
    with pytest.raises(ValueError):
        corpus("torus_2_2n(0)")


def test_classify_corpus():
    # (components, alternating projection, writhe); every projection is connected
    rows = {
        "unknot": (1, True, 0),
        "hopf_plus": (2, True, 2),
        "trefoil_left": (1, True, -3),
        "figure8": (1, True, 0),
        "torus_2_2n(3)": (2, True, 6),
        "two_bridge(8,3)": (2, True, 1),
        "L7n1": (2, False, 7),
        "L7n2": (2, False, -3),
    }
    for name, (ncomp, alt, writhe) in rows.items():
        d = corpus(name)
        assert d.n_components == ncomp, name
        assert d.is_alternating() == alt, name
        assert d.connected is True, name
        assert sum(d.signs) == writhe, name


def test_writhe_and_signs():
    assert corpus("hopf_plus").signs == [1, 1]
    assert corpus("hopf_minus").signs == [-1, -1]
    assert sum(corpus("trefoil_right").signs) == 3
    assert sum(corpus("trefoil_left").signs) == -3
    assert sum(corpus("figure8").signs) == 0


def test_linking_numbers():
    assert linking_matrix(corpus("hopf_plus")) == LinkingData(((0, 1), (1, 0)), (1, 1))
    assert linking_matrix(corpus("hopf_plus")).total[0] == 1
    assert linking_matrix(corpus("hopf_minus")).total[0] == -1
    for n in (2, 3, 4):
        assert linking_matrix(corpus("torus_2_2n(%d)" % n)).total[0] == n
    assert linking_matrix(corpus("two_bridge(8,3)")).total[0] == 0
    assert linking_matrix(corpus("L7n1")).total[0] == 2
    assert linking_matrix(corpus("L7n2")).total[0] == 0


def test_faces_euler_count():
    for name in CORPUS_NAMES:
        d = corpus(name)
        if d.crossings:
            assert len(d.faces) == len(d.crossings) + 2, name


def test_mirror_involution():
    for name in ("trefoil_right", "figure8", "L7n2", "two_bridge(8,3)"):
        d = corpus(name)
        assert mirror(mirror(d)) == d
        assert sum(mirror(d).signs) == -sum(d.signs)


def test_reverse_involution():
    d = corpus("torus_2_2n(2)")
    assert reverse(reverse(d, 1), 1) == d
    assert linking_matrix(reverse(d, 1)).total[0] == -2
    with pytest.raises(ValueError):
        reverse(d, 2)
    assert reverse(corpus("unknot"), 0) == corpus("unknot")


def test_keep_component():
    d = corpus("L7n1")
    assert len(keep_component(d, 0).crossings) == 0  # the axis is round
    assert len(keep_component(d, 1).crossings) == 3  # the trefoil survives
    d = corpus("L7n2")
    assert len(keep_component(d, 0).crossings) == 3
    assert sum(keep_component(d, 0).signs) == -3  # left-handed
    assert len(keep_component(d, 1).crossings) == 0
    with pytest.raises(ValueError, match="^no component 2$"):
        keep_component(d, 2)
    assert keep_component(corpus("unknot"), 0) == corpus("unknot")


def test_braid_closure_basic():
    assert len(corpus("figure8").crossings) == 4
    with pytest.raises(ValueError):
        braid_closure([3], 2)
    with pytest.raises(ValueError):
        braid_closure([1], 3)  # strand 3 never crossed


def test_braid_closure_torus_components():
    assert braid_closure([1] * 5, 2).n_components == 1
    assert braid_closure([1] * 6, 2).n_components == 2


def test_two_bridge_validation():
    for p, q in [(1, 1), (4, 2), (5, 0), (3, 4)]:
        with pytest.raises(ValueError):
            two_bridge(p, q)


def test_two_bridge_component_counts():
    for p, q in [(2, 1), (3, 1), (4, 1), (5, 2), (6, 1), (7, 2), (8, 3), (9, 2)]:
        d = two_bridge(p, q)
        assert d.n_components == (2 if p % 2 == 0 else 1), (p, q)
        assert d.is_alternating(), (p, q)
        assert d.connected, (p, q)


def test_two_bridge_is_schuberts_oriented_link():
    # Schubert's S(p, q) has linking number the sum of (-1)^floor(iq/p)
    # over the odd i < p
    for p in range(2, 90, 2):
        for q in range(1, p):
            if gcd(p, q) == 1:
                want = sum((-1) ** (i * q // p) for i in range(1, p, 2))
                assert linking_matrix(two_bridge(p, q)).lk[0][1] == want, (p, q)


def test_two_bridge_hopf_is_positive():
    d = two_bridge(2, 1)
    assert d.n_components == 2
    assert linking_matrix(d).total[0] == 1
    assert d.signs == [1, 1]


def test_connected_sum_counts():
    t = corpus("trefoil_right")
    g = connected_sum(t, t)
    assert len(g.crossings) == 6
    assert g.n_components == 1
    assert sum(g.signs) == 6
    th = connected_sum(t, corpus("hopf_plus"))
    assert th.n_components == 2
    assert len(th.crossings) == 5
    assert th.is_alternating()
    with pytest.raises(ValueError, match="^no component 1 in first diagram$"):
        connected_sum(t, t, 1, 0)
    with pytest.raises(ValueError, match="^no component -1 in second diagram$"):
        connected_sum(t, t, 0, -1)


def test_connected_sum_with_unknot():
    t = corpus("trefoil_left")
    assert connected_sum(t, corpus("unknot")) == t
    assert connected_sum(corpus("unknot"), t) == t


def test_components_sorted_by_min_edge():
    for name in ("hopf_plus", "L7n1", "L7n2", "two_bridge(8,3)"):
        d = corpus(name)
        mins = [min(c) for c in d.components]
        assert mins == sorted(mins), name


def test_all_over_component_rejected():
    # a round circle lying entirely above another cannot be oriented by
    # under-strand propagation alone, and such projections are split anyway
    with pytest.raises(ValueError):
        LinkDiagram([(1, 3, 2, 4), (2, 4, 1, 3)])
    # a kink whose over-strand, edge 2, no walk from a slot 0 reaches
    with pytest.raises(ValueError, match="^orientation of an all-over component is not determined"):
        LinkDiagram([(1, 2, 1, 2)])


def test_strand_entering_at_slot_two_rejected():
    # the walk from crossing 0 comes in at crossing 1 through slot 2
    with pytest.raises(ValueError, match=r"^inconsistent strand orientations \(trace does not close\)$"):
        LinkDiagram([(1, 2, 3, 1), (4, 4, 3, 2)])


# every coprime two-bridge pair with p < 40, and the (s1 s2^-1)^k and
# (s1 s2^-1 s3)^k braid closures
POSITIONAL_SOURCES = (
    [("corpus", name) for name in CORPUS_NAMES]
    + [("two_bridge", p, q) for p in range(2, 40) for q in range(1, p) if gcd(p, q) == 1]
    + [("closure", (1, -2), 3, k) for k in range(1, 13)]
    + [("closure", (1, -2, 3), 4, k) for k in range(1, 10)]
)


def _source(spec):
    if spec[0] == "corpus":
        return corpus(spec[1])
    if spec[0] == "two_bridge":
        return two_bridge(*spec[1:])
    _, word, strands, k = spec
    return braid_closure(list(word) * k, strands)


def _abs_linking(d):
    lk = linking_matrix(d).lk
    return sorted(abs(lk[i][j]) for i in range(len(lk)) for j in range(i + 1, len(lk)))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(POSITIONAL_SOURCES), st.randoms(use_true_random=False))
def test_positional_solver_recovers_turned_crossings(spec, rng):
    # a crossing turned by two slots still lists the under-strand in
    # slots 0 and 2 counterclockwise, so the positional solver must
    # recover the same unoriented diagram
    d = _source(spec)
    turned = [(c, e, a, b) if rng.random() < 0.5 else (a, b, c, e) for a, b, c, e in d.crossings]
    r = LinkDiagram(_positional(turned))
    assert r.n_components == d.n_components
    assert r.is_alternating() == d.is_alternating()
    assert goeritz_determinant(r) == goeritz_determinant(d)
    assert _abs_linking(r) == _abs_linking(d)


def test_constructor_refuses_malformed_crossings():
    with pytest.raises(ValueError, match=r"crossing \(1, 2, 1\) does not have four edges"):
        LinkDiagram([(1, 2, 1)])
    with pytest.raises(ValueError, match="edge labels must be positive"):
        parse_pd("PD[X[0,2,0,2]]")


def test_constructor_refuses_non_integral_labels():
    # the trefoil with one label 3.5: once truncated to 3 and traced
    with pytest.raises(
        ValueError, match=r"^crossing \(5, 2, 6, 3\.5\) edge label 3\.5 is not an integer$"
    ):
        LinkDiagram([(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3.5)])
    with pytest.raises(
        ValueError, match=r"^crossing X\[5,2,6,3\.5\] edge label '3\.5' is not an integer$"
    ):
        parse_pd("PD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,3.5]]")
    # integral values of other types, and lists, are stored as int tuples
    d = LinkDiagram([[1, 4, 2, 5], (3.0, 6, 4, 1), (5, 2, Fraction(6), 3)])
    assert d.crossings == [(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)]
    assert all(type(e) is int for x in d.crossings for e in x)


def test_constructor_refuses_a_split_non_planar_code():
    # two circles crossing three times, which no planar code allows, beside
    # a trefoil: the face count runs on every piece of a split projection
    with pytest.raises(ValueError, match="face count 8 != crossings \\+ 2 per connected piece"):
        parse_pd("PD[X[3,6,1,4],X[4,1,5,2],X[2,5,3,6],"
                 "X[8,10,9,7],X[10,12,11,9],X[12,8,7,11]]")
    # a planar split projection keeps no faces
    d = parse_pd("PD[X[1,2,2,1],X[3,4,4,3]]")
    assert not d.connected and d.faces is None


def test_diagram_repr_is_its_pd_code():
    assert repr(corpus("hopf_plus")) == "LinkDiagram(PD[X[2,4,3,1],X[4,2,1,3]])"
    assert repr(corpus("unknot")) == "LinkDiagram(U)"


def test_corpus_refuses_a_malformed_name():
    with pytest.raises(ValueError, match="unknown corpus name 'two_bridge\\(8,3'"):
        corpus("two_bridge(8,3")


def test_continued_fraction_has_odd_length():
    # the last Euclid quotient of a coprime 0 < q < p is at least 2, so
    # an even-length expansion always ends in a digit that can be split
    for p in range(2, 200):
        for q in range(1, p):
            if gcd(p, q) == 1:
                digits = _continued_fraction(p, q)
                assert len(digits) % 2 == 1 and min(digits) >= 1, (p, q)
                value = Fraction(digits[-1])
                for a in reversed(digits[:-1]):
                    value = a + 1 / value
                assert value == Fraction(p, q), (p, q)


def _traced(make, crossings):
    """The traced attributes of ``make(crossings)``, or its refusal."""
    try:
        d = make(crossings)
    except ValueError as exc:
        return str(exc)
    return (d.crossings, d.signs, d.components, d.edge_comp, d.connected, d.faces,
            d.is_alternating())


def assert_traced_as_tuples(crossings):
    assert _traced(LinkDiagram, crossings) == _traced(TupleDiagram, crossings), crossings


def test_place_tracer_matches_the_tuple_reference():
    # every coprime two-bridge pair with p < 60, and seeded braid closures
    rng = Random(60)
    inputs = [two_bridge(p, q).crossings for p in range(2, 60) for q in range(1, p)
              if gcd(p, q) == 1]
    for _ in range(150):
        strands = rng.randint(2, 5)
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(1, 16))]
        try:
            inputs.append(braid_closure(word, strands).crossings)
        except ValueError:
            pass  # a strand never crossed, or one that only passes over
    assert len(inputs) > 1100
    for crossings in inputs:
        assert_traced_as_tuples(crossings)
        # both strand-start rules of the positional solver, on tuples
        # turned by two slots at random
        turned = [x[2:] + x[:2] if rng.random() < 0.5 else x for x in crossings]
        assert _positional(turned) == tuple_positional(turned)


@settings(max_examples=300, deadline=None)
@given(pd_texts())
def test_place_tracer_matches_the_tuple_reference_on_any_code(text):
    crossings = [tuple(map(int, x)) for x in re.findall(r"X\[(\d+),(\d+),(\d+),(\d+)\]", text)]
    assert_traced_as_tuples(crossings)


def test_place_tracer_refuses_as_the_tuple_reference():
    for crossings in ([(1, 2, 1, 2)], [(1, 2, 3, 1), (4, 4, 3, 2)], [(1, 3, 2, 4), (2, 4, 1, 3)],
                      [(1, 1, 1, 2), (2, 3, 3, 4)], [(1, 2, 3, 4)], [(1, 1, 2, 2), (3, 3, 4, 4)]):
        assert_traced_as_tuples(crossings)

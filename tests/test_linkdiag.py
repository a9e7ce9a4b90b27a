import pytest
from hypothesis import given, settings, strategies as st

from hfl.linkdiag import (
    CORPUS_NAMES,
    LinkDiagram,
    braid_closure,
    classify,
    connected_sum,
    corpus,
    keep_component,
    linking_matrix,
    mirror,
    parse_pd,
    reverse,
    two_bridge,
)


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
    assert not d.is_connected() or len(d.faces()) == len(d.crossings) + 2


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
    rows = {
        "unknot": (1, True),
        "hopf_plus": (2, True),
        "trefoil_left": (1, True),
        "figure8": (1, True),
        "torus_2_2n(3)": (2, True),
        "two_bridge(8,3)": (2, True),
        "L7n1": (2, False),
        "L7n2": (2, False),
    }
    for name, (ncomp, alt) in rows.items():
        got = classify(corpus(name))
        assert got["component_count"] == ncomp, name
        assert got["alternating_projection"] == alt, name
        assert got["connected_projection"] is True, name


def test_writhe_and_signs():
    assert corpus("hopf_plus").signs == [1, 1]
    assert corpus("hopf_minus").signs == [-1, -1]
    assert corpus("trefoil_right").writhe() == 3
    assert corpus("trefoil_left").writhe() == -3
    assert corpus("figure8").writhe() == 0


def test_linking_numbers():
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
            assert len(d.faces()) == len(d.crossings) + 2, name


def test_mirror_involution():
    for name in ("trefoil_right", "figure8", "L7n2", "two_bridge(8,3)"):
        d = corpus(name)
        assert mirror(mirror(d)) == d
        assert mirror(d).writhe() == -d.writhe()


def test_reverse_involution():
    d = corpus("torus_2_2n(2)")
    assert reverse(reverse(d, 1), 1) == d
    assert linking_matrix(reverse(d, 1)).total[0] == -2
    with pytest.raises(ValueError):
        reverse(d, 2)


def test_keep_component():
    d = corpus("L7n1")
    assert len(keep_component(d, 0).crossings) == 0  # the axis is round
    assert len(keep_component(d, 1).crossings) == 3  # the trefoil survives
    d = corpus("L7n2")
    assert len(keep_component(d, 0).crossings) == 3
    assert keep_component(d, 0).writhe() == -3  # left-handed
    assert len(keep_component(d, 1).crossings) == 0


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
        assert d.is_connected(), (p, q)


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
    assert g.writhe() == 6
    th = connected_sum(t, corpus("hopf_plus"))
    assert th.n_components == 2
    assert len(th.crossings) == 5
    assert th.is_alternating()


def test_connected_sum_with_unknot():
    t = corpus("trefoil_left")
    assert connected_sum(t, corpus("unknot")) == t
    assert connected_sum(corpus("unknot"), t) == t


def test_json_round_trip():
    for name in ("hopf_plus", "L7n2"):
        d = corpus(name)
        assert LinkDiagram.from_json_dict(d.to_json_dict()) == d


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

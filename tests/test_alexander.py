import json
import re
from itertools import permutations
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hfl.alexander import (
    _checkerboard,
    _fox_rows,
    _goeritz_data,
    _goeritz_matrix,
    _ldlt,
    _packed_det,
    goeritz_determinant,
    multivariable_alexander,
    signature,
)
from hfl.laurent import MultiLaurent, one, zero
from hfl.linkdiag import (
    CORPUS_NAMES,
    LinkDiagram,
    braid_closure,
    connected_sum,
    corpus,
    mirror,
    parse_pd,
    reverse,
    two_bridge,
)


def poly(nvars, terms):
    return MultiLaurent(nvars, terms)


TREFOIL = poly(1, {(2,): 1, (0,): -1, (-2,): 1})
FIG8 = poly(1, {(2,): 1, (0,): -3, (-2,): 1})
CLASP = poly(2, {(1, 1): 1, (1, -1): -1, (-1, 1): -1, (-1, -1): 1})


def test_wirtinger_generator_count():
    for name in ("trefoil_right", "figure8", "L7n1", "two_bridge(8,3)"):
        d = corpus(name)
        arc_component, rows = _fox_rows(d)
        assert len(arc_component) == len(d.crossings)
        assert len(rows) == len(d.crossings)


def test_wirtinger_needs_connected():
    h = corpus("hopf_plus")
    split = LinkDiagram(h.crossings + [tuple(e + 10 for e in x) for x in h.crossings])
    with pytest.raises(ValueError, match="connected projection"):
        multivariable_alexander(split)
    with pytest.raises(ValueError):
        signature(split)


# the fixed table every other module leans on
CORPUS_TABLE = {
    "unknot": (poly(1, {(0,): 1}), 0, 1),
    "hopf_plus": (poly(2, {(0, 0): 1}), -1, 2),
    "hopf_minus": (poly(2, {(0, 0): 1}), 1, 2),
    "trefoil_right": (TREFOIL, -2, 3),
    "trefoil_left": (TREFOIL, 2, 3),
    "figure8": (FIG8, 0, 5),
    "torus_2_2n(2)": (poly(2, {(1, 1): 1, (-1, -1): 1}), -3, 4),
    "torus_2_2n(3)": (poly(2, {(2, 2): 1, (0, 0): 1, (-2, -2): 1}), -5, 6),
    "torus_2_2n(4)": (
        poly(2, {(3, 3): 1, (1, 1): 1, (-1, -1): 1, (-3, -3): 1}),
        -7,
        8,
    ),
    "two_bridge(8,3)": (CLASP, -1, 8),
    "L7n1": (poly(2, {(1, 3): 1, (-1, -3): 1}), -5, 4),
    "L7n2": (CLASP, 1, 8),
}


@pytest.mark.parametrize("name", sorted(CORPUS_TABLE))
def test_corpus_invariants(name):
    delta, sigma, det = CORPUS_TABLE[name]
    d = corpus(name)
    assert multivariable_alexander(d).delta == delta
    assert signature(d) == sigma
    assert goeritz_determinant(d) == det


def test_mirror_flips_signature():
    for name in ("trefoil_right", "torus_2_2n(2)", "two_bridge(8,3)", "L7n2"):
        d = corpus(name)
        assert signature(mirror(d)) == -signature(d), name


def test_mirror_preserves_normalized_delta():
    for name in ("trefoil_right", "figure8", "torus_2_2n(3)", "two_bridge(8,3)"):
        d = corpus(name)
        assert (
            multivariable_alexander(mirror(d)).delta
            == multivariable_alexander(d).delta
        ), name


def test_reverse_knot_keeps_delta():
    t = corpus("trefoil_right")
    assert multivariable_alexander(reverse(t, 0)).delta == TREFOIL


def test_reverse_component_reflects_variable():
    """Reversing one torus-link component moves Delta to the antidiagonal."""
    d = reverse(corpus("torus_2_2n(2)"), 1)
    assert multivariable_alexander(d).delta == poly(2, {(1, -1): 1, (-1, 1): 1})
    assert signature(d) == 1
    d3 = reverse(corpus("torus_2_2n(3)"), 1)
    assert multivariable_alexander(d3).delta == poly(
        2, {(2, -2): 1, (0, 0): 1, (-2, 2): 1}
    )


# same link, different diagrams: values must agree construction-free
VARIANTS = [
    ("hopf_plus", (2, 1)),
    ("trefoil_right", (3, 1)),
    ("torus_2_2n(2)", (4, 1)),
    ("torus_2_2n(3)", (6, 1)),
    ("figure8", (5, 2)),
]


@pytest.mark.parametrize("name,pq", VARIANTS)
def test_two_bridge_variants_match(name, pq):
    a, b = corpus(name), two_bridge(*pq)
    assert multivariable_alexander(a).delta == multivariable_alexander(b).delta
    assert signature(a) == signature(b)
    assert goeritz_determinant(a) == goeritz_determinant(b)


@pytest.mark.parametrize("p,q", [(2, 1), (3, 1), (5, 2), (7, 3), (8, 3), (8, 5), (9, 2), (12, 5), (13, 5)])
def test_goeritz_determinant_two_bridge(p, q):
    assert goeritz_determinant(two_bridge(p, q)) == p


def test_connected_sum_multiplies_delta():
    t = corpus("trefoil_right")
    h = corpus("hopf_plus")
    assert multivariable_alexander(connected_sum(t, t)).delta == TREFOIL * TREFOIL
    th = multivariable_alexander(connected_sum(t, h))
    assert th.delta == poly(2, {(2, 0): 1, (0, 0): -1, (-2, 0): 1})
    assert signature(connected_sum(t, h)) == -3


def test_connected_sum_three_components():
    h = corpus("hopf_plus")
    chain = connected_sum(h, h)
    assert chain.n_components == 3
    # both Hopf factors are trivial; only the Torres factor of the
    # merged middle component remains
    assert multivariable_alexander(chain).delta == poly(
        3, {(1, 0, 0): 1, (-1, 0, 0): -1}
    )
    assert signature(chain) == -2


def test_kinked_unknot():
    kink = braid_closure([1], 2)
    assert multivariable_alexander(kink).delta == poly(1, {(0,): 1})
    assert signature(kink) == 0
    assert goeritz_determinant(kink) == 1


def test_unknot_trivial_cases():
    d = corpus("unknot")
    assert multivariable_alexander(d).delta == poly(1, {(0,): 1})
    assert signature(d) == 0
    assert goeritz_determinant(d) == 1


def test_non_planar_code_is_refused():
    # two crossings, two faces: no planar diagram has this PD code
    with pytest.raises(ValueError, match="face count"):
        multivariable_alexander(parse_pd("PD[X[1,4,3,3],X[2,1,2,4]]"))


# ----------------------------------------------------------------------
# golden values: Delta of four diagram families, recorded from the
# MultiLaurent Bareiss elimination that the packed kernel replaced

GOLDEN = json.loads((Path(__file__).parent / "data" / "alexander_golden.json").read_text())


def golden_diagram(name):
    """``closure(w)^k`` is the closure of the braid word w repeated k times."""
    m = re.fullmatch(r"closure\(([-\d,]+)\)\^(\d+)", name)
    if m is None:
        return corpus(name)
    word = [int(x) for x in m.group(1).split(",")]
    return braid_closure(word * int(m.group(2)), max(map(abs, word)) + 1)


@pytest.mark.parametrize("family", ["torus_2_2n(", "closure(1,-2)^", "closure(1,-2,3)^", "two_bridge("])
def test_golden_delta(family):
    names = [name for name in GOLDEN if name.startswith(family)]
    assert names
    for name in names:
        assert multivariable_alexander(golden_diagram(name)).delta.to_json_dict() == GOLDEN[name], name


# the same diagram under other edge labels and another crossing order
RELABEL_SOURCES = (
    [name for name in CORPUS_NAMES if name != "unknot"]
    + [f"two_bridge({p},{q})" for p, q in ((7, 3), (12, 5), (14, 5), (20, 7), (21, 8))]
    + [f"closure(1,-2)^{k}" for k in (2, 3, 4)]
    + [f"closure(1,-2,3)^{k}" for k in (1, 2, 4)]
)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(RELABEL_SOURCES), st.randoms(use_true_random=False))
def test_relabelling_keeps_sigma_and_delta(name, rng):
    d = golden_diagram(name)
    labels = sorted(d._occ)
    new = dict(zip(labels, rng.sample(range(1, len(labels) + 1), len(labels))))
    crossings = [tuple(new[e] for e in x) for x in d.crossings]
    rng.shuffle(crossings)
    r = LinkDiagram(crossings)
    assert signature(r) == signature(d)
    # components are numbered by smallest label: component i of d is
    # component moved[i] of r, and T_i becomes T_moved[i]
    moved = [r.edge_comp[new[cycle[0]]] for cycle in d.components]
    want = {}
    for e, c in multivariable_alexander(d).delta.terms.items():
        f = [0] * len(e)
        for i, x in enumerate(e):
            f[moved[i]] = x
        want[tuple(f)] = c
    want = poly(d.n_components, want)
    got = multivariable_alexander(r).delta
    assert got == want or got == -want


# ----------------------------------------------------------------------
# the packed determinant kernel against the Leibniz expansion

def perm_sign(perm):
    inversions = sum(perm[j] > perm[i] for i in range(len(perm)) for j in range(i))
    return -1 if inversions % 2 else 1


def sparse(mat):
    """The rows ``_packed_det`` takes: {column: terms}, zero entries left out."""
    return [{j: p.terms for j, p in enumerate(row) if p} for row in mat]


def leibniz_det(mat, nvars):
    total = zero(nvars)
    for perm in permutations(range(len(mat))):
        term = one(nvars) if perm_sign(perm) == 1 else -one(nvars)
        for i, j in enumerate(perm):
            term = term * mat[i][j]
            if not term:
                break
        total = total + term
    return total


def entries(nvars):
    # doubled exponents: odd values are half-integer exponents
    expo = st.tuples(*([st.integers(-3, 3)] * nvars))
    return st.dictionaries(expo, st.integers(-3, 3), max_size=3).map(
        lambda t: MultiLaurent(nvars, t))


@st.composite
def matrices(draw):
    nvars = draw(st.integers(1, 3))
    n = draw(st.integers(0, 4))
    mat = [[draw(entries(nvars)) for _ in range(n)] for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        # a multiple of another row: the matrix is singular
        src, dst = draw(st.permutations(range(n)))[:2]
        factor = draw(entries(nvars))
        mat[dst] = [factor * p for p in mat[src]]
    divisor = draw(entries(nvars).filter(bool))
    return nvars, mat, divisor


@st.composite
def fox_shaped(draw, max_n=6):
    """Square matrices with at most three nonzero entries per row, as in a Fox matrix.

    Row i meets column i, one column at or after i and one anywhere, so
    a row is empty in the columns before its first entry and stays
    behind for several pivot steps in a row.  Half the draws with n >= 2
    replace a row by a multiple of another: the matrix is singular.
    """
    nvars = draw(st.integers(1, 3))
    n = draw(st.integers(1, max_n))
    mat = [[zero(nvars)] * n for _ in range(n)]
    for i in range(n):
        for j in {i, draw(st.integers(i, n - 1)), draw(st.integers(0, n - 1))}:
            mat[i][j] = draw(entries(nvars).filter(bool))
    if n >= 2 and draw(st.booleans()):
        src, dst = draw(st.permutations(range(n)))[:2]
        factor = draw(entries(nvars))
        mat[dst] = [factor * p for p in mat[src]]
    divisor = draw(entries(nvars).filter(bool))
    return nvars, mat, divisor


@settings(max_examples=500, deadline=None)
@given(st.one_of(matrices(), fox_shaped()))
def test_packed_det_matches_leibniz(case):
    nvars, mat, divisor = case
    want = leibniz_det(mat, nvars)
    assert _packed_det(sparse(mat), nvars) == want
    if mat:
        # scaling one row by the divisor scales the determinant by it too
        scaled = [[divisor * p for p in mat[0]]] + mat[1:]
        assert _packed_det(sparse(scaled), nvars, divisor.terms) == want


@st.composite
def permuted_fox(draw):
    nvars, mat, _ = draw(fox_shaped(max_n=9))
    n = len(mat)
    return nvars, mat, draw(st.permutations(range(n))), draw(st.permutations(range(n)))


@settings(max_examples=200, deadline=None)
@given(permuted_fox())
def test_packed_det_permutes_with_the_sign(case):
    # the pivots move through the row list and the column positions
    # (pos/col_at); the determinant may change only by the sign
    nvars, mat, rows, cols = case
    want = _packed_det(sparse(mat), nvars)
    permuted = [[mat[i][j] for j in cols] for i in rows]
    got = _packed_det(sparse(permuted), nvars)
    assert got == (want if perm_sign(rows) == perm_sign(cols) else -want)


def test_packed_det_refuses_inexact_division():
    t2_plus_1 = {(4,): 1, (0,): 1}
    with pytest.raises(ArithmeticError):
        _packed_det([{0: t2_plus_1}], 1, {(2,): 1, (0,): -1})
    with pytest.raises(ArithmeticError):
        _packed_det([{0: t2_plus_1}], 1, {(0,): 2})


# ----------------------------------------------------------------------
# the rational LDL^T kernel against brute force

def char_poly(mat):
    """Coefficients of det(x I - mat), lowest degree first, by Leibniz."""
    n = len(mat)
    total = [0] * (n + 1)
    for perm in permutations(range(n)):
        term = [perm_sign(perm)]
        for i, j in enumerate(perm):
            entry = [-mat[i][j], 1] if i == j else [-mat[i][j]]
            product = [0] * (len(term) + len(entry) - 1)
            for a, x in enumerate(term):
                for b, y in enumerate(entry):
                    product[a + b] += x * y
            term = product
        for k, c in enumerate(term):
            total[k] += c
    return total


def sign_changes(coeffs):
    signs = [c > 0 for c in coeffs if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


@st.composite
def symmetric_matrices(draw):
    n = draw(st.integers(0, 5))
    zero_diagonal = draw(st.booleans())
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i == j and zero_diagonal:
                continue
            mat[i][j] = mat[j][i] = draw(st.integers(-3, 3))
    return mat


@settings(max_examples=200, deadline=None)
@given(symmetric_matrices())
def test_ldlt_matches_leibniz_and_descartes(mat):
    n = len(mat)
    det = 0
    for perm in permutations(range(n)):
        term = perm_sign(perm)
        for i, j in enumerate(perm):
            term *= mat[i][j]
        det += term
    # det(x I - A) of a symmetric A is real-rooted, so Descartes' rule
    # counts its positive and negative roots exactly
    coeffs = char_poly(mat)
    positive = sign_changes(coeffs)
    negative = sign_changes([c if k % 2 == 0 else -c for k, c in enumerate(coeffs)])
    assert _ldlt(mat) == (positive - negative, det)


def test_ldlt_hyperbolic_block():
    assert _ldlt([[0, 3], [3, 0]]) == (0, -9)
    assert _ldlt([[0, 0], [0, 0]]) == (0, 0)
    assert _ldlt([]) == (0, 1)


# ----------------------------------------------------------------------
# sigma of an alternating projection as a white-face count, against _ldlt

def ldlt_signature(d):
    """sigma through ``_ldlt`` on both colorings' Goeritz matrices, no count."""
    faces, color, face_at = _checkerboard(d)
    values = set()
    for white in (0, 1):
        m, edges, mu = _goeritz_data(d, faces, color, face_at, white)
        values.add(_ldlt(_goeritz_matrix(m, edges))[0] - mu)
    (value,) = values
    return value


def assert_sigma_is_a_count(d):
    faces, color, face_at = _checkerboard(d)
    for white in (0, 1):
        m, edges, _ = _goeritz_data(d, faces, color, face_at, white)
        (eta,) = {eta for _, _, eta in edges}
        assert eta * (m - 1) == _ldlt(_goeritz_matrix(m, edges))[0]
    assert signature(d) == ldlt_signature(d)


ALTERNATING_FAMILIES = {
    "corpus": [name for name in CORPUS_NAMES if name not in ("unknot", "L7n1", "L7n2")],
    "two_bridge": [f"two_bridge({p},{q})" for p in range(2, 42) for q in range(1, p)
                   if gcd(p, q) == 1],
    "ladders": [f"closure(1,-2)^{k}" for k in range(1, 13)]
               + [f"closure(1,-2,3)^{k}" for k in range(1, 10)],
}


@pytest.mark.parametrize("family", sorted(ALTERNATING_FAMILIES))
def test_alternating_sigma_is_a_white_face_count(family):
    for name in ALTERNATING_FAMILIES[family]:
        d = golden_diagram(name)
        assert d.is_alternating(), name
        for x in (d, mirror(d)):
            assert_sigma_is_a_count(x)


@st.composite
def alternating_closures(draw):
    """Closures of braid words in which sigma_i carries the sign (-1)^(i+1).

    Every generator appears, so the projection is connected; a generator
    that appears once makes a nugatory crossing.
    """
    strands = draw(st.integers(2, 5))
    extra = draw(st.lists(st.integers(1, strands - 1), max_size=10))
    word = draw(st.permutations(list(range(1, strands)) + extra))
    return braid_closure([i if i % 2 else -i for i in word], strands)


@settings(max_examples=150, deadline=None)
@given(alternating_closures())
def test_random_alternating_sigma_is_a_white_face_count(d):
    assert d.is_alternating()
    for x in (d, mirror(d)):
        assert_sigma_is_a_count(x)


# non-alternating closures (word, strands) and their sigma, as the rational
# LDL^T gave it before sigma of an alternating projection became a count
MIXED_SIGMA = [
    ((-2, -3, -2, -1, -3, 2, 1), 4, 2),
    ((-2, -1, 1, -1, 2), 3, 0),
    ((1, 2, 2, -3, 1, -3, 2, -1, 2), 4, -2),
    ((1, 1, 1, 2, -2, -2, -1, 1, 2), 3, -2),
    ((-1, -2, 1, 2, -2, -2, -1), 3, 1),
    ((-1, 3, -1, -2, 1, 3, -1, -3, -1), 4, 2),
    ((-1, -2, -1, -2, -2, 1, -1), 3, 3),
    ((2, -2, -2, 1, -1, -1, 2, 2, 1), 3, -1),
    ((2, 1, -3, -2, -2), 4, 0),
    ((1, -2, 1, 3, 3, -1, 2), 4, -1),
]


def test_non_alternating_sigma_takes_the_matrix_path():
    cases = [(corpus("L7n1"), CORPUS_TABLE["L7n1"][1]), (corpus("L7n2"), CORPUS_TABLE["L7n2"][1])]
    cases += [(braid_closure(list(word), strands), sigma) for word, strands, sigma in MIXED_SIGMA]
    for d, sigma in cases:
        assert not d.is_alternating()
        faces, color, face_at = _checkerboard(d)
        for white in (0, 1):
            _, edges, _ = _goeritz_data(d, faces, color, face_at, white)
            assert {eta for _, _, eta in edges} == {-1, 1}
        assert signature(d) == ldlt_signature(d) == sigma
        assert signature(mirror(d)) == -sigma

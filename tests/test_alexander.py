import json
import random
from itertools import permutations
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from helpers import (
    fox_minor_delta,
    golden_diagram,
    relabelled,
    tuple_fox_rows,
    tuple_packed_det,
    unpack_key,
)
from hfl import alexander
from hfl.alexander import (
    _checkerboard,
    _fox_rows,
    _goeritz_data,
    _goeritz_matrix,
    _ldlt,
    _packed_det,
    _packed_divide,
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
        arc_component, rows, _ = _fox_rows(d)
        assert len(arc_component) == len(d.crossings)
        assert len(rows) == len(d.crossings)


def test_wirtinger_needs_connected():
    h = corpus("hopf_plus")
    split = LinkDiagram(h.crossings + [tuple(e + 10 for e in x) for x in h.crossings])
    with pytest.raises(ValueError, match="connected projection"):
        multivariable_alexander(split)
    with pytest.raises(ValueError):
        signature(split)
    with pytest.raises(ValueError, match="^needs a connected projection$"):
        goeritz_determinant(split)


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
    r, new = relabelled(d, rng)
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
# the deleted row and column: any choice gives Delta, and the structural
# choice keeps the elimination small under any labelling

@pytest.mark.parametrize("name", [n for n in CORPUS_NAMES if n != "unknot"]
                         + [f"closure(1,-2)^{k}" for k in range(1, 7)])
def test_every_deletion_gives_delta(name):
    d = golden_diagram(name)
    want = multivariable_alexander(d).delta
    arc_component, _, _ = _fox_rows(d)
    assert len(set(arc_component)) == d.n_components
    for row in range(len(d.crossings)):
        for col in range(len(arc_component)):
            got = fox_minor_delta(d, row, col)
            assert got == want or got == -want, (name, row, col)


def entry_products(d, monkeypatch):
    """Term products of the entry updates of Delta of ``d``: the Gaussian
    steps' (``_subtract``) and the Bareiss tail's (``_entry``)."""
    total = 0
    entry, subtract = alexander._entry, alexander._subtract

    def counting_entry(p, a, left, top, down):
        nonlocal total
        total += len(p) * len(a or ()) + len(left) * len(top)
        return entry(p, a, left, top, down)

    def counting_subtract(cur, left, top):
        nonlocal total
        total += len(left) * len(top)
        return subtract(cur, left, top)

    with monkeypatch.context() as m:
        m.setattr(alexander, "_entry", counting_entry)
        m.setattr(alexander, "_subtract", counting_subtract)
        multivariable_alexander(d)
    return total


def test_fox_cost_stays_small_under_relabelling(monkeypatch):
    # term products on the canonical labels and their most under these 20
    # relabellings: 8919 and 9321 on the 12-closure, and 309568 at most
    # on the 4-component closure
    for name, bound in (("closure(1,-2)^12", 10000), ("closure(1,-2,3)^8", 350000)):
        d = golden_diagram(name)
        assert entry_products(d, monkeypatch) <= bound, name
        for seed in range(20):
            r, _ = relabelled(d, random.Random(seed))
            assert entry_products(r, monkeypatch) <= bound, (name, seed)


# ----------------------------------------------------------------------
# the packed Fox box: rows born packed, balanced base W = 8n + 1, no
# digit carries

def test_packed_fox_rows_decode_to_the_reference():
    d12 = golden_diagram("closure(1,-2)^12")
    diagrams = [corpus(name) for name in CORPUS_NAMES if name != "unknot"]
    diagrams += [d12] + [relabelled(d12, random.Random(seed))[0] for seed in range(20)]
    for d in diagrams:
        arc_component, rows, base = _fox_rows(d)
        assert base == 8 * (len(d.crossings) - 1) + 1
        want_component, want_rows = tuple_fox_rows(d)
        decoded = [{g: {unpack_key(key, d.n_components, base): c for key, c in p.items()}
                    for g, p in row.items()} for row in rows]
        assert (arc_component, decoded) == (want_component, want_rows), d


def fox_box_diagrams():
    """Every corpus diagram and the (s1 s2^-1)^k and (s1 s2^-1 s3)^k closures
    of the alt_tables ladder, each with 5 relabellings."""
    names = [n for n in CORPUS_NAMES if n != "unknot"]
    names += [f"closure(1,-2)^{k}" for k in range(2, 13)]
    names += [f"closure(1,-2,3)^{k}" for k in (1, 2, 3, 4, 5, 6, 7, 9)]
    for name in names:
        d = golden_diagram(name)
        yield d
        for seed in range(5):
            yield relabelled(d, random.Random(seed))[0]


def test_fox_box_is_carry_free(monkeypatch):
    # The production base W must be the bound 4*n*span + 1 of _packed_det
    # for the rows (span = 2).  Then every Fox elimination is re-run in a
    # box about 8W wide: every key that either stage forms (the operands,
    # the term products and the result of each _subtract and _entry, and
    # the numerator, divisor and quotient of each _packed_divide) and
    # every digit of the determinant must stay within (W - 1)/2.
    fox_rows, packed_det = alexander._fox_rows, _packed_det
    subtract, entry, divide = alexander._subtract, alexander._entry, alexander._packed_divide
    box = {}

    def wide_fox_rows(d):
        arc_component, rows, base = fox_rows(d)
        nvars, n = d.n_components, len(rows) - 1
        span = max(x for row in rows for p in row.values() for key in p
                   for x in unpack_key(key, nvars, base))
        assert base == 4 * n * span + 1
        box.update(nvars=nvars, half=base // 2, wide=8 * base + 1)

        def widen(key):
            out = 0
            for x in unpack_key(key, nvars, base):
                out = out * box["wide"] + x
            return out

        wide_rows = [{g: {widen(key): c for key, c in p.items()} for g, p in row.items()}
                     for row in rows]
        return arc_component, wide_rows, box["wide"]

    def check(*keys):
        for key in keys:
            assert abs(key) <= box["wide"] ** box["nvars"] // 2
            assert max(map(abs, unpack_key(key, box["nvars"], box["wide"]))) <= box["half"]

    def checked_subtract(cur, left, top):
        left, top = list(left), list(top)
        check(*cur, *(k1 + k2 for k1, _ in left for k2, _ in top))
        out = subtract(cur, left, top)
        check(*out)
        return out

    def checked_entry(p, a, left, top, down):
        p, left, top = list(p), list(left), list(top)
        check(*down, *(k1 + k2 for k1, _ in p for k2 in a or ()),
              *(k1 + k2 for k1, _ in left for k2, _ in top))
        return entry(p, a, left, top, down)

    def checked_divide(p, q):
        out = divide(p, q)
        check(*p, *q, *out)
        return out

    def checked_det(rows, nvars, base, divisor=None):
        det = packed_det(rows, nvars, base, divisor)
        assert all(max(e) <= box["half"] for e in det.terms)
        return det

    for module in (alexander, helpers):
        monkeypatch.setattr(module, "_fox_rows", wide_fox_rows)
        monkeypatch.setattr(module, "_packed_det", checked_det)
    monkeypatch.setattr(alexander, "_subtract", checked_subtract)
    monkeypatch.setattr(alexander, "_entry", checked_entry)
    monkeypatch.setattr(alexander, "_packed_divide", checked_divide)
    for d in fox_box_diagrams():
        multivariable_alexander(d)
    for name in CORPUS_NAMES:
        d = corpus(name)
        for row in range(len(d.crossings)):
            for col in range(len(d.crossings)):
                fox_minor_delta(d, row, col)


# ----------------------------------------------------------------------
# the packed determinant kernel against the Leibniz expansion

def perm_sign(perm):
    inversions = sum(perm[j] > perm[i] for i in range(len(perm)) for j in range(i))
    return -1 if inversions % 2 else 1


def sparse(mat):
    """The rows ``tuple_packed_det`` takes: {column: terms}, zero entries left out."""
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


def units(nvars):
    # +-1 times a monomial: the pivots of the Gaussian stage
    expo = st.tuples(*([st.integers(-3, 3)] * nvars))
    return st.builds(lambda e, c: MultiLaurent(nvars, {e: c}), expo, st.sampled_from((1, -1)))


@st.composite
def fox_shaped(draw, max_n=6, mostly_units=False):
    """Square matrices with at most three nonzero entries per row, as in a Fox matrix.

    Row i meets column i, one column at or after i and one anywhere, so
    a row is empty in the columns before its first entry and stays
    behind for several pivot steps in a row.  Half the draws with n >= 2
    replace a row by a multiple of another: the matrix is singular.
    With ``mostly_units`` three in four nonzero entries are units, as in
    a Fox matrix, so the Gaussian stage runs several steps before it
    hands the trailing block to Bareiss.
    """
    nvars = draw(st.integers(1, 3))
    n = draw(st.integers(1, max_n))
    mat = [[zero(nvars)] * n for _ in range(n)]
    for i in range(n):
        for j in {i, draw(st.integers(i, n - 1)), draw(st.integers(0, n - 1))}:
            unit = mostly_units and draw(st.integers(0, 3))
            mat[i][j] = draw(units(nvars) if unit else entries(nvars).filter(bool))
    if n >= 2 and draw(st.booleans()):
        src, dst = draw(st.permutations(range(n)))[:2]
        factor = draw(entries(nvars))
        mat[dst] = [factor * p for p in mat[src]]
    divisor = draw(entries(nvars).filter(bool))
    return nvars, mat, divisor


def assert_packed_det_matches_leibniz(case):
    nvars, mat, divisor = case
    want = leibniz_det(mat, nvars)
    assert tuple_packed_det(sparse(mat), nvars) == want
    if mat:
        # scaling one row by the divisor scales the determinant by it too
        scaled = [[divisor * p for p in mat[0]]] + mat[1:]
        assert tuple_packed_det(sparse(scaled), nvars, divisor.terms) == want


@settings(max_examples=500, deadline=None)
@given(st.one_of(matrices(), fox_shaped(), fox_shaped(mostly_units=True)))
def test_packed_det_matches_leibniz(case):
    assert_packed_det_matches_leibniz(case)


@st.composite
def permuted_fox(draw):
    nvars, mat, _ = draw(fox_shaped(max_n=9, mostly_units=draw(st.booleans())))
    n = len(mat)
    return nvars, mat, draw(st.permutations(range(n))), draw(st.permutations(range(n)))


def assert_packed_det_permutes_with_the_sign(case):
    # the pivots move through the row list and the column positions
    # (pos/col_at); the determinant may change only by the sign
    nvars, mat, rows, cols = case
    want = tuple_packed_det(sparse(mat), nvars)
    permuted = [[mat[i][j] for j in cols] for i in rows]
    got = tuple_packed_det(sparse(permuted), nvars)
    assert got == (want if perm_sign(rows) == perm_sign(cols) else -want)


@settings(max_examples=200, deadline=None)
@given(permuted_fox())
def test_packed_det_permutes_with_the_sign(case):
    assert_packed_det_permutes_with_the_sign(case)


def test_packed_det_refuses_inexact_division():
    t2_plus_1 = {(4,): 1, (0,): 1}
    with pytest.raises(ArithmeticError):
        tuple_packed_det([{0: t2_plus_1}], 1, {(2,): 1, (0,): -1})
    with pytest.raises(ArithmeticError):
        tuple_packed_det([{0: t2_plus_1}], 1, {(0,): 2})


def test_packed_det_refuses_a_key_outside_the_box():
    # a determinant's digits are those of a minor of entries with
    # nonnegative digits: a negative digit, or one above T1, is an error
    for rows, nvars in (([{0: {-1: 1}}], 1), ([{0: {-8: 1}}], 2), ([{0: {81: 1}}], 2)):
        with pytest.raises(ArithmeticError, match="packed box"):
            _packed_det(rows, nvars, 9)


# the hand-off from Gaussian steps to fraction-free ones, in T = x^2:
# matrices whose first pivot that is not a unit comes at step 0, in the
# middle and at the last step, and one with a unit pivot after it
CELLS = {"0": {}, "1": {(0,): 1}, "-1": {(0,): -1}, "x": {(2,): 1}, "-x": {(2,): -1},
         "2": {(0,): 2}, "1+x": {(0,): 1, (2,): 1}, "1-x": {(0,): 1, (2,): -1},
         "x-2": {(2,): 1, (0,): -2}}
HANDOFFS = [
    # step 0 swaps rows for the pivot 2, step 1 swaps rows and columns
    (0, ["1-x x-2 0",
         "2 1+x 0",
         "1-x 1+x 1-x"]),
    # steps 0 and 1 are Gaussian, step 1 swaps columns; step 2 hands
    # off after a row swap, and Bareiss's step 3 swaps rows and columns
    (2, ["-1 0 0 1+x 0",
         "0 0 1 1 0",
         "1-x 0 -x x 0",
         "0 2 0 0 0",
         "2 0 1-x 0 1"]),
    # steps 0 and 1 are Gaussian, step 0 swaps columns; the last pivot
    # is not a unit
    (2, ["0 1 1",
         "-1 0 1+x",
         "x-2 1+x -x"]),
    # step 0 hands off; step 1 swaps rows for the unit pivot 1 and still
    # takes the fraction-free update
    (0, ["2 1 0",
         "0 1+x 1-x",
         "1 1 x-2"]),
]


@pytest.mark.parametrize("handoff, text", HANDOFFS)
def test_packed_det_hands_the_tail_to_bareiss(handoff, text, monkeypatch):
    mat = [[poly(1, CELLS[cell]) for cell in line.split()] for line in text]
    pivot, entry = alexander._pivot, alexander._entry
    units, entry_steps, swapped = [], [], set()

    def logged_pivot(a, k, pos, col_at):
        row, col = a[k], col_at[k]
        out = pivot(a, k, pos, col_at)
        if a[k] is not row or col_at[k] != col:
            swapped.add(k)
        c, *more = a[k][out[0]].values()
        units.append(not more and c in (1, -1))
        return out

    def logged_entry(p, a, left, top, down):
        entry_steps.append(len(units) - 1)
        return entry(p, a, left, top, down)

    monkeypatch.setattr(alexander, "_pivot", logged_pivot)
    monkeypatch.setattr(alexander, "_entry", logged_entry)
    want = leibniz_det(mat, 1)
    assert want and tuple_packed_det(sparse(mat), 1) == want
    # the first pivot that is not a unit comes at the hand-off step, and
    # from there on every step below the last makes fraction-free updates
    assert units.index(False) == handoff
    assert sorted(set(entry_steps)) == list(range(handoff, len(mat) - 1))
    # swaps on both sides of the hand-off, where the block leaves room
    assert any(k < handoff for k in swapped) or handoff == 0
    assert any(k > handoff for k in swapped) or handoff == len(mat) - 1
    rng = random.Random(handoff)
    for _ in range(6):
        rows, cols = rng.sample(range(len(mat)), len(mat)), rng.sample(range(len(mat)), len(mat))
        assert_packed_det_permutes_with_the_sign((1, mat, rows, cols))


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


def test_checkerboard_alternates_across_every_edge():
    names = [name for family in ALTERNATING_FAMILIES.values() for name in family]
    diagrams = [golden_diagram(name) for name in names + ["L7n1", "L7n2"]]
    diagrams += [braid_closure(list(word), strands) for word, strands, _ in MIXED_SIGMA]
    for d in diagrams:
        faces, color, face_at = _checkerboard(d)
        assert color[0] == 0
        assert sorted(color) == list(range(len(faces)))
        sides = {}
        for fi, face in enumerate(faces):
            for ci, k in face:
                # the edge at slot k + 1 of crossing ci parts these two faces
                assert color[face_at[ci, (k + 1) % 4]] == 1 - color[fi], (d.crossings, fi, ci, k)
                sides.setdefault(d.crossings[ci][(k + 1) % 4], []).append(color[fi])
        # the corners before an edge's two slots lie on its two sides
        assert all(sorted(c) == [0, 1] for c in sides.values()), d.crossings


def test_packed_divide_drops_zero_coefficients():
    # a numerator formed term by term may keep the zeros its terms cancel to
    assert _packed_divide({7: 0, 4: 1, 0: 0}, {0: 1}) == {4: 1}
    assert _packed_divide({1: 0, 5: 6, 3: -3}, {2: 3}) == {3: 2, 1: -1}
    # (x + 1)(x - 1) over x + 1, with a cancelled x^3 term carried along
    assert _packed_divide({3: 0, 2: 1, 0: -1}, {1: 1, 0: 1}) == {1: 1, 0: -1}
    with pytest.raises(ArithmeticError):
        _packed_divide({5: 7, 1: 0}, {2: 3})


def test_packed_divide_on_balanced_keys():
    # two variables in balanced base 9: key(a, b) = 9a + b, digits -4..4
    def key(a, b):
        return 9 * a + b

    # (T1 - 1)(T1^-1 T2^-2 - 3 T2): a numerator with negative digits
    t1_minus_1 = {key(1, 0): 1, key(0, 0): -1}
    want = {key(-1, -2): 1, key(0, 1): -3}
    p = {}
    for k1, c1 in t1_minus_1.items():
        for k2, c2 in want.items():
            p[k1 + k2] = p.get(k1 + k2, 0) + c1 * c2
    assert min(p) < 0
    assert _packed_divide(p, t1_minus_1) == want
    assert _packed_divide({key(-2, -1): 4, key(0, 3): -6}, {key(-1, 1): 2}) == {
        key(-1, -2): 2, key(1, 2): -3}
    # (x + 1)(x - 1) x^-5 over x + 1: the exact quotient's keys are negative
    assert _packed_divide({-3: 1, -5: -1}, {1: 1, 0: 1}) == {-4: 1, -5: -1}
    # x^2 + 1 over x + 1, also shifted by x^-5: every coefficient divides
    # by the leading 1, and the cancellation only ends when a quotient key
    # falls below min(p) - min(q)
    for shift in (0, -5):
        with pytest.raises(ArithmeticError):
            _packed_divide({2 + shift: 1, shift: 1}, {1: 1, 0: 1})

import json

import pytest
from hypothesis import given, settings, strategies as st

from hfl.laurent import (
    MultiLaurent,
    monomial,
    one,
    series_quotient,
    spin_product,
    symmetric_normalize,
    zero,
)


def L(nvars, terms):
    return MultiLaurent(nvars, terms)


def coeffs(nvars=1, lo=-6, hi=6):
    expo = st.tuples(*([st.integers(lo, hi)] * nvars))
    return st.dictionaries(expo, st.integers(-9, 9).filter(bool), max_size=6)


def polys(nvars=1):
    return st.builds(lambda t: L(nvars, t), coeffs(nvars))


def test_zero_and_one():
    assert not zero(2)
    assert one(2)
    assert one(2) * one(2) == one(2)
    assert zero(3) + one(3) == one(3)


def test_trefoil_square():
    # (T - 1 + T^-1)^2, multiplied by hand
    p = L(1, {(2,): 1, (0,): -1, (-2,): 1})
    sq = L(1, {(4,): 1, (2,): -2, (0,): 3, (-2,): -2, (-4,): 1})
    assert p * p == sq


def test_half_exponent_monomials():
    h = monomial(1, (1,))  # T^1/2
    assert h * h == monomial(1, (2,))
    assert h.bar() == monomial(1, (-1,))
    assert str(h) == "T^1/2"


def test_variable_count_mismatch():
    with pytest.raises(ValueError):
        one(1) + one(2)
    with pytest.raises(ValueError):
        one(2) * one(3)


@given(polys(2), polys(2), polys(2))
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polys(2))
def test_additive_inverse(p):
    assert p + (-p) == zero(2)


@given(polys(2), polys(2))
def test_bar_is_ring_hom(p, q):
    assert p.bar().bar() == p
    assert (p * q).bar() == p.bar() * q.bar()
    assert (p + q).bar() == p.bar() + q.bar()


@given(polys(1))
def test_json_round_trip(p):
    blob = json.dumps(p.to_json_dict())
    assert MultiLaurent.from_json_dict(json.loads(blob)) == p


def test_spin_product_values():
    assert spin_product(1) == L(1, {(1,): 1, (-1,): -1})
    assert spin_product(2) == L(
        2, {(1, 1): 1, (1, -1): -1, (-1, 1): -1, (-1, -1): 1}
    )
    with pytest.raises(ValueError):
        spin_product(0)


@given(st.integers(1, 4))
def test_spin_product_antisymmetry(l):
    sp = spin_product(l)
    assert len(sp.terms) == 2 ** l
    assert sp.bar() == sp if l % 2 == 0 else sp.bar() == -sp


def test_symmetric_normalize_examples():
    assert symmetric_normalize(monomial(1, (4,))) == one(1)
    # T - 1 centers to T^1/2 - T^-1/2 with the leading sign positive
    p = L(1, {(2,): 1, (0,): -1})
    assert symmetric_normalize(p) == L(1, {(1,): 1, (-1,): -1})
    trefoil = L(1, {(2,): 1, (0,): -1, (-2,): 1})
    assert symmetric_normalize(-(trefoil.shift((4,)))) == trefoil


def test_symmetric_normalize_idempotent():
    p = L(2, {(3, 1): 2, (1, -1): -1, (-1, 1): -1, (-3, -1): 2})
    g = symmetric_normalize(p.shift((2, 4)))
    assert symmetric_normalize(g) == g
    assert g.bar() == g


def test_symmetric_normalize_failures():
    with pytest.raises(ValueError):
        symmetric_normalize(L(1, {(2,): 1, (1,): 1, (0,): 2}))
    with pytest.raises(ValueError):
        # support is centered but coefficients pair up neither way
        symmetric_normalize(L(1, {(2,): 1, (0,): 5, (-2,): 3}))


@given(polys(2).filter(bool))
def test_symmetric_normalize_is_unit_multiple(p):
    sym = p + p.bar()
    try:
        g = symmetric_normalize(sym)
    except ValueError:
        return
    assert g.bar() == g
    # g and sym agree up to a monomial shift and sign
    lo_g = g.support()[0]
    lo_s = sym.support()[0]
    shifted = sym.shift(tuple(a - b for a, b in zip(lo_g, lo_s)))
    assert g == shifted or g == -shifted


def test_series_quotient_geometric():
    got = series_quotient(one(1), 1, 3)
    assert got == L(1, {(0,): 1, (-2,): 1, (-4,): 1, (-6,): 1})


def test_series_quotient_telescopes():
    p = spin_product(1)
    got = series_quotient(p, 1, 5)
    # (T^1/2 - T^-1/2)(1 + T^-1 + ... + T^-5) collapses to two terms
    assert got == L(1, {(1,): 1, (-11,): -1})


@given(polys(1).filter(bool), st.integers(0, 8))
def test_series_quotient_window(p, n):
    """Multiplying back by (1 - T^-1) recovers p on the valid window."""
    q = series_quotient(p, 1, n)
    back = q * L(1, {(0,): 1, (-2,): -1})
    floor = max(e[0] for e in p.terms) - 2 * n - 1
    assert back.restrict((floor,)) == p.restrict((floor,))


def test_series_quotient_two_vars_depth_merge():
    p = spin_product(2)
    q1 = series_quotient(p, 1, 4)
    q2 = series_quotient(q1, 2, 4)
    # fully telescoped: four corner terms survive
    assert len(q2.terms) == 4


def test_str_formatting():
    p = L(2, {(2, 1): 1, (0, 0): -3, (-2, -1): 1})
    s = str(p)
    assert "T1^1" in s and "T2^1/2" in s and "- 3" in s
    assert str(zero(2)) == "0"

import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hfl.filtered import FilteredComplex, MultiGradedVS, shift, tensor_graded
from hfl.heegaard import oracle_compare, two_bridge_diagram
from hfl.homology import CollapsedTable, ComponentData, table_from_invariants, two_component_cfl
from hfl.laurent import (
    MultiLaurent,
    monomial,
    one,
    series_quotient,
    spin_product,
    symmetric_normalize,
    zero,
)
from hfl.linkdiag import (
    LinkDiagram,
    braid_closure,
    connected_sum,
    keep_component,
    parse_pd,
    reverse,
    two_bridge,
)
from hfl.summands import Summand


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


# ----------------------------------------------------------------------
# the public constructor is the one validating path; ring results are
# built unchecked, so they must already be what it would keep

def test_constructor_checks_and_cleans_exponents():
    with pytest.raises(ValueError, match="wrong length"):
        L(2, {(1,): 1})
    with pytest.raises(ValueError, match="wrong length"):
        MultiLaurent.from_json_dict({"l": 2, "terms": [{"e2": [1, 0, 0], "c": 1}]})
    with pytest.raises(ValueError):
        monomial(3, (0, 0))
    # integral exponents and coefficients become ints; a string is refused
    p = L(2, {(2.0, Fraction(0)): 3, (True, -1): Fraction(-5), (0, 0): 0.0})
    assert p.terms == {(2, 0): 3, (1, -1): -5}
    assert all(type(x) is int for e, c in p.terms.items() for x in (*e, c))
    with pytest.raises(ValueError, match="^exponent '2' is not an integer$"):
        L(2, {("2", "0"): 3})


def assert_clean(r, nvars):
    """``r`` is what the public constructor keeps: int-tuple keys of
    length ``nvars`` and nonzero int coefficients."""
    assert r.nvars == nvars
    for e, c in r.terms.items():
        assert type(e) is tuple and len(e) == nvars and all(type(x) is int for x in e)
        assert type(c) is int and c != 0
    assert r == MultiLaurent(nvars, r.terms)


@st.composite
def cancelling_pairs(draw):
    """Two polynomials in 1 to 4 variables whose sums, differences and
    products lose terms: ``q`` repeats every term of ``p``, a drawn
    subset of them negated, so p + q and p - q cancel terms and
    (a + b)(a - b) = a^2 - b^2 cancels the cross terms of p * q."""
    n = draw(st.integers(1, 4))
    p = draw(coeffs(n, -3, 3))
    q = draw(coeffs(n, -3, 3))
    flipped = draw(st.sets(st.sampled_from(sorted(p)))) if p else set()
    q.update({e: -c if e in flipped else c for e, c in p.items()})
    return n, L(n, p), L(n, q)


@settings(max_examples=300, deadline=None)
@given(cancelling_pairs(), st.integers(-3, 3), st.data())
def test_ring_results_are_clean(pq, k, data):
    n, p, q = pq
    vec = st.tuples(*([st.integers(-4, 4)] * n))
    results = [p + q, p - q, p * q, q * p, k * p, p * k, p + k, p - k, -p, p.bar(),
               p.shift(data.draw(vec)), p.restrict(data.draw(vec)), spin_product(n)]
    sym = p * q + (p * q).bar()
    try:
        results.append(symmetric_normalize(sym))
    except ValueError:
        pass
    for r in results:
        assert_clean(r, n)


@given(st.integers(1, 4), st.data())
def test_euler_of_cancelling_cells_is_clean(n, data):
    level = st.tuples(*([st.integers(-3, 3).map(lambda x: 2 * x)] * n))
    cells = data.draw(st.dictionaries(st.tuples(st.integers(-3, 3), level), st.integers(1, 3)))
    # each drawn cell gets a partner one grading up with the same rank, or not
    cancelled = data.draw(st.sets(st.sampled_from(sorted(cells)))) if cells else set()
    ranks = dict(cells)
    for d, h2 in cancelled:
        ranks[(d + 1, h2)] = ranks.get((d + 1, h2), 0) + cells[(d, h2)]
    chi = MultiGradedVS(n, (0,) * n, ranks).euler()
    assert_clean(chi, n)


def test_polynomials_compare_only_with_polynomials():
    assert one(1) != 1 and not (one(1) == 1)
    assert one(1).__eq__(1) is NotImplemented
    with pytest.raises(TypeError, match="unhashable"):
        hash(one(1))
    assert repr(L(2, {(1, 1): 2, (-1, -1): -1})) == "MultiLaurent(2, 2*T1^1/2*T2^1/2 - T1^-1/2*T2^-1/2)"


def test_argument_guards():
    with pytest.raises(ValueError, match="shift vector has wrong length"):
        one(2).shift((2,))
    with pytest.raises(ValueError, match=r"odd lattice offset"):
        symmetric_normalize(L(1, {(1,): 1, (0,): 1}))
    for i in (0, 2):
        with pytest.raises(ValueError, match="variable index out of range"):
            series_quotient(one(1), i, 3)
    with pytest.raises(ValueError, match="depth must be nonnegative"):
        series_quotient(one(1), 1, -1)
    with pytest.raises(ValueError, match="need at least one variable"):
        spin_product(-1)


def test_restrict_refuses_a_floor_of_the_wrong_length():
    p = L(2, {(0, 0): 1, (0, -6): 1})
    assert p.restrict((-2, -2)) == L(2, {(0, 0): 1})
    for floor in ((-2,), (-2, -2, 99)):
        with pytest.raises(ValueError, match="^floor vector has wrong length$"):
            p.restrict(floor)


def test_from_json_dict_refuses_a_repeated_exponent():
    doc = {"l": 1, "terms": [{"e2": [0], "c": 1}, {"e2": [0], "c": 2}]}
    with pytest.raises(ValueError, match=r"^duplicate exponent \[0\]$"):
        MultiLaurent.from_json_dict(doc)
    # an integral float names the same exponent
    doc["terms"][1]["e2"] = [0.0]
    with pytest.raises(ValueError, match="duplicate exponent"):
        MultiLaurent.from_json_dict(doc)
    doc["terms"][1]["e2"] = [2]
    assert MultiLaurent.from_json_dict(doc) == L(1, {(0,): 1, (2,): 2})


@pytest.mark.parametrize("doc, message", [
    ([1], "polynomial is not a JSON object"),
    ({"terms": []}, "polynomial has no 'l' field"),
    ({"l": 1}, "polynomial has no 'terms' field"),
    ({"l": 1, "terms": {}}, "polynomial field 'terms' is not a list"),
    ({"l": 1, "terms": [{"c": 1}]}, "term 0 has no 'e2' field"),
    ({"l": 1, "terms": [{"e2": [0], "c": 1}, {"e2": [2]}]}, "term 1 has no 'c' field"),
    ({"l": 1, "terms": [{"e2": 0, "c": 1}]}, "term 0 field 'e2' is not a list"),
])
def test_malformed_polynomial_document_is_refused(doc, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        MultiLaurent.from_json_dict(doc)


HOPF_DATA = (ComponentData(0), ComponentData(0))

# Every public entry that takes a caller's number, as (build with value v,
# a valid int for v, the field its refusal names, formatted with v)
ENTRIES = {
    "MultiLaurent nvars": (lambda v: MultiLaurent(v, {}), 1, "variable count"),
    "MultiLaurent exponent": (lambda v: MultiLaurent(1, {(v,): 1}), 1, "exponent"),
    "MultiLaurent coefficient": (lambda v: MultiLaurent(1, {(0,): v}), 1, "coefficient"),
    "monomial": (lambda v: monomial(1, (v,)), 1, "exponent"),
    "MultiLaurent.from_json_dict l": (
        lambda v: MultiLaurent.from_json_dict({"l": v, "terms": []}), 1, "variable count"),
    "MultiLaurent.from_json_dict c": (
        lambda v: MultiLaurent.from_json_dict({"l": 1, "terms": [{"e2": [0], "c": v}]}),
        1, "coefficient"),
    "MultiLaurent.shift": (lambda v: one(1).shift((v,)), 1, "shift vector coordinate"),
    "MultiLaurent.restrict": (
        lambda v: L(1, {(0,): 1, (2,): 1}).restrict((v,)), 1, "floor coordinate"),
    "p * v": (lambda v: L(1, {(1,): 3}) * v, 1, "coefficient"),
    "p + v": (lambda v: L(1, {(1,): 3}) + v, 1, "coefficient"),
    "p - v": (lambda v: L(1, {(1,): 3}) - v, 1, "coefficient"),
    "FilteredComplex nvars": (lambda v: FilteredComplex(v, (0,), []), 1, "complex coordinate count"),
    "FilteredComplex parity": (
        lambda v: FilteredComplex(1, (v,), [("a", 0, (1,))]), 1, "complex parity entry"),
    "FilteredComplex Maslov": (
        lambda v: FilteredComplex(1, (0,), [("a", v, (0,))]), 1, "generator 'a' Maslov grading"),
    "FilteredComplex level": (
        lambda v: FilteredComplex(1, (0,), [("a", 0, (v,))]), 2,
        "generator 'a' filtration coordinate"),
    "FilteredComplex.from_json_dict d": (
        lambda v: FilteredComplex.from_json_dict(
            {"l": 1, "parity": [0], "gens": [{"id": "a", "d": v, "h2": [0]}]}),
        1, "generator 'a' Maslov grading"),
    "filtered.shift": (
        lambda v: shift(FilteredComplex(1, (0,), [("a", 0, (0,))]), (v,)), 1,
        "shift vector coordinate"),
    "MultiGradedVS nvars": (lambda v: MultiGradedVS(v, (0,)), 1, "rank table coordinate count"),
    "MultiGradedVS parity": (lambda v: MultiGradedVS(1, (v,)), 1, "rank table parity entry"),
    "MultiGradedVS Maslov": (
        lambda v: MultiGradedVS(1, (0,), [(v, (0,), 1)]), 1, "rank table Maslov grading"),
    "MultiGradedVS level": (
        lambda v: MultiGradedVS(1, (0,), [(0, (v,), 1)]), 2, "rank table grading coordinate"),
    "MultiGradedVS rank": (
        lambda v: MultiGradedVS(1, (0,), [(0, (0,), v)]), 1, "cell (0, (0,)) rank"),
    "Summand d": (lambda v: Summand("Y", v, 0, (0, 0)), 1, "summand d"),
    "Summand lparam": (lambda v: Summand("V", 0, v, (0, 0)), 1, "summand lparam"),
    "Summand shift2": (lambda v: Summand("Y", 0, 0, (v, 0)), 1, "summand shift2"),
    "LinkDiagram label": (
        lambda v: LinkDiagram([(v, 4, 2, 5), (3, 6, 4, v), (5, 2, 6, 3)]), 1,
        "crossing ({v!r}, 4, 2, 5) edge label"),
    "linkdiag.two_bridge p": (lambda v: two_bridge(v, 1), 4, "two-bridge parameter"),
    "linkdiag.two_bridge q": (lambda v: two_bridge(4, v), 1, "two-bridge parameter"),
    "braid_closure letter": (lambda v: braid_closure([v, 1], 2), 1, "braid letter"),
    "braid_closure strands": (lambda v: braid_closure([1, 1], v), 2, "strand count"),
    "CollapsedTable grading": (lambda v: CollapsedTable({(v, 0): 1}), 1, "collapsed table grading"),
    "CollapsedTable rank": (lambda v: CollapsedTable({(0, 0): v}), 1, "cell (0, 0) rank"),
    "ComponentData tau": (lambda v: ComponentData(v), 1, "component tau"),
    "ComponentData pair": (lambda v: ComponentData(0, ((v, 0, 2),)), 1, "component pair entry"),
    "table_from_invariants totals": (
        lambda v: table_from_invariants(one(1), 0, (v,)), 2, "linking total"),
    "table_from_invariants sigma": (
        lambda v: table_from_invariants(one(1), v, (0,)), 2, "signature"),
    "two_component_cfl sigma": (
        lambda v: two_component_cfl(monomial(2, (0, 0)), v, 1, HOPF_DATA)[1], -1, "signature"),
    "two_component_cfl n": (
        lambda v: two_component_cfl(monomial(2, (0, 0)), -1, v, HOPF_DATA)[1], 1,
        "linking number"),
    "two_bridge_diagram p": (lambda v: two_bridge_diagram(v, 1), 2, "two-bridge parameter"),
    "two_bridge_diagram q": (lambda v: two_bridge_diagram(2, v), 1, "two-bridge parameter"),
    "oracle_compare": (lambda v: oracle_compare(2, v), 1, "two-bridge parameter"),
    "linkdiag.reverse": (lambda v: reverse(two_bridge(4, 1), v), 1, "component index"),
    "linkdiag.keep_component": (
        lambda v: keep_component(two_bridge(4, 1), v), 1, "component index"),
    "linkdiag.connected_sum c1": (
        lambda v: connected_sum(two_bridge(4, 1), two_bridge(2, 1), v, 0), 1, "component index"),
    "linkdiag.connected_sum c2": (
        lambda v: connected_sum(two_bridge(4, 1), two_bridge(2, 1), 0, v), 1, "component index"),
    "series_quotient i": (lambda v: series_quotient(one(2), v, 2), 1, "variable index"),
    "series_quotient depth": (lambda v: series_quotient(one(1), 1, v), 2, "series depth"),
    "tensor_graded splice i": (
        lambda v: tensor_graded(MultiGradedVS(2, (1, 0), [(0, (1, 0), 1)]),
                                MultiGradedVS(1, (0,), [(0, (2,), 1)]), (v, 1)), 1, "splice index"),
    "tensor_graded splice j": (
        lambda v: tensor_graded(MultiGradedVS(1, (0,), [(0, (2,), 1)]),
                                MultiGradedVS(2, (0, 1), [(1, (0, 1), 1)]), (1, v)), 2,
        "splice index"),
}


def canon(obj) -> str:
    """A spelling that tells 1 from 1.0 and True."""
    if hasattr(obj, "to_json_dict"):
        return json.dumps(obj.to_json_dict(), sort_keys=True)
    return repr(obj)


@pytest.mark.parametrize("bad", [2.5, Fraction(1, 2), "3"], ids=repr)
@pytest.mark.parametrize("make,n,field", ENTRIES.values(), ids=ENTRIES.keys())
def test_every_entry_refuses_a_non_integral_value(make, n, field, bad):
    with pytest.raises(ValueError) as err:
        make(bad)
    assert str(err.value) == f"{field.format(v=bad)} {bad!r} is not an integer"


@pytest.mark.parametrize("make,n,field", ENTRIES.values(), ids=ENTRIES.keys())
def test_every_entry_takes_an_integral_value_as_an_int(make, n, field):
    want = make(n)
    for v in [float(n), Fraction(n)] + [True] * (n == 1):
        got = make(v)
        assert got == want and canon(got) == canon(want), v


@pytest.mark.parametrize("label", ["2.5", "1/2", "3.0", "three"])
def test_parse_pd_refuses_a_non_integral_label(label):
    text = f"X[{label},4,2,5]"
    with pytest.raises(ValueError) as err:
        parse_pd(f"PD[{text},X[3,6,4,{label}],X[5,2,6,3]]")
    assert str(err.value) == f"crossing {text} edge label {label!r} is not an integer"
    assert parse_pd("PD[X[+1,4,2,5],X[3,6,4,1],X[5,2,6,3]]") == LinkDiagram(
        [(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)])

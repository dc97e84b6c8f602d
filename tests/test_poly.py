import json
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from gvand.errors import (
    MissingAssignmentError,
    NegativeExponentError,
    NoRootError,
    RingMismatchError,
    ZeroPolynomialError,
)
from gvand.poly import PolyRing, SparsePoly, graded_lex_key, grid_ring, grid_var
from gvand.rings import GF, ZZ

RXY = PolyRing(ZZ, ("x", "y"))
RXY_F2 = PolyRing(GF(2), ("x", "y"))
RXY_F3 = PolyRing(GF(3), ("x", "y"))
RXY_F5 = PolyRing(GF(5), ("x", "y"))


@st.composite
def small_polys(draw, ring=RXY):
    n_terms = draw(st.integers(0, 5))
    terms = {}
    for _ in range(n_terms):
        exp = (draw(st.integers(0, 4)), draw(st.integers(0, 4)))
        coeff = draw(st.integers(-20, 20))
        if coeff:
            terms[exp] = coeff
    return SparsePoly(ring, terms)


@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(a, b, c):
    assert (a + b) - b == a
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)


@given(small_polys(ring=RXY_F5), small_polys(ring=RXY_F5))
def test_modular_coefficients_stay_reduced(a, b):
    prod = a * b
    assert all(0 < coeff < 5 for coeff in prod.term_map().values())


def test_constructor_normalizes():
    p = SparsePoly(RXY, {(1, 0): 0, (0, 1): 3})
    assert p.term_map() == {(0, 1): 3}
    q = SparsePoly(RXY_F2, {(1, 0): 2, (0, 1): 3})
    assert q.term_map() == {(0, 1): 1}


def test_ring_constructors():
    assert RXY.zero().is_zero()
    assert RXY.one().term_map() == {(0, 0): 1}
    assert RXY.constant(0).is_zero()
    assert RXY.variable("y").term_map() == {(0, 1): 1}
    assert RXY.monomial((2, 1), -3).term_map() == {(2, 1): -3}
    merged = RXY.from_terms([((1, 0), 2), ((1, 0), -2), ((0, 0), 1)])
    assert merged == 1
    with pytest.raises(NegativeExponentError):
        RXY.monomial((-1, 0))
    with pytest.raises(RingMismatchError):
        RXY.monomial((1, 2, 3))
    with pytest.raises(ValueError):
        PolyRing(ZZ, ("x", "x"))


def test_grid_ring_and_vars():
    ring = grid_ring(ZZ, 3, 2)
    assert ring.variables == ("X_1_1", "X_1_2", "X_2_1", "X_2_2", "X_3_1", "X_3_2")
    assert grid_var(2, 1) == "X_2_1"
    v = ring.variable(grid_var(2, 1))
    assert v.term_map() == {(0, 0, 1, 0, 0, 0): 1}


def test_degree_and_leading_term():
    p = SparsePoly(RXY, {(2, 3): 1, (4, 0): -2})
    assert p.total_degree() == 5
    assert p.leading_term() == ((2, 3), 1)
    with pytest.raises(ZeroPolynomialError):
        RXY.zero().total_degree()
    with pytest.raises(ZeroPolynomialError):
        RXY.zero().leading_term()


def test_term_order_is_graded_lex():
    p = SparsePoly(RXY, {(0, 2): 1, (2, 0): 1, (1, 1): 1, (3, 0): 1})
    assert [exp for exp, _ in p.terms()] == [(3, 0), (2, 0), (1, 1), (0, 2)]


@given(
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
        st.integers(-3, 3).filter(bool),
        min_size=2,
        max_size=30,
    )
)
def test_term_order_matches_graded_lex_key(terms):
    degrees = [sum(e) for e in terms]
    # non-homogeneous, with at least one tie in total degree
    assume(len(set(degrees)) > 1 and len(set(degrees)) < len(degrees))
    p = SparsePoly(PolyRing(ZZ, ("x", "y", "z")), terms)
    expected = sorted(terms.items(), key=lambda t: graded_lex_key(t[0]), reverse=True)
    assert p.terms() == expected
    assert [t["coeff"] for t in p.to_terms_json()] == [str(c) for _, c in expected]


def test_power():
    x, y = RXY.variable("x"), RXY.variable("y")
    cube = (x + y) ** 3
    assert cube.term_map() == {(3, 0): 1, (2, 1): 3, (1, 2): 3, (0, 3): 1}
    assert (x**0) == 1
    with pytest.raises(ValueError):
        x ** (-1)


def test_mixed_int_arithmetic():
    x = RXY.variable("x")
    assert (x + 1) * (x - 1) == x * x - 1
    assert 2 - x == -(x - 2)


@given(small_polys(), small_polys())
def test_exact_divide_round_trip(a, b):
    if b.is_zero():
        return
    prod = a * b
    assert prod.exact_divide(b) == a


def _non_homogeneous(p):
    return len({sum(e) for e in p.term_map()}) > 1


@given(st.data())
def test_exact_divide_inverts_multiplication_over_every_ring(data):
    ring = data.draw(st.sampled_from((RXY, RXY_F2, RXY_F3)))
    a = data.draw(small_polys(ring).filter(_non_homogeneous))
    b = data.draw(small_polys(ring).filter(_non_homogeneous))
    assert (a * b).exact_divide(b) == a
    # a nonzero c of lower degree than b is no multiple of b, so neither is a*b + c
    c = data.draw(small_polys(ring))
    if not c.is_zero() and c.total_degree() < b.total_degree():
        assert (a * b + c).exact_divide(b) is None


def test_exact_divide_rejects_non_multiple():
    x, y = RXY.variable("x"), RXY.variable("y")
    assert (x + 1).exact_divide(y) is None
    assert (x * x + 1).exact_divide(x + 1) is None
    for ring in (RXY, RXY_F2, RXY_F3):
        # 1/(1 - x) = 1 + x + x^2 + ... never terminates without the degree bound
        assert ring.one().exact_divide(1 - ring.variable("x")) is None
    x3 = RXY_F3.variable("x")
    assert (x3 * x3 + 1).exact_divide(x3 + 1) is None
    x2 = RXY_F2.variable("x")
    assert (x2 * x2 + 1).exact_divide(x2 + 1) == x2 + 1
    assert SparsePoly(RXY, {(1, 0): 3}).exact_divide(RXY.constant(2)) is None
    with pytest.raises(ZeroDivisionError):
        x.exact_divide(RXY.zero())


def test_exact_divide_over_field_clears_denominators():
    ring = RXY_F5
    x = ring.variable("x")
    assert (x + 1).exact_divide(ring.constant(2)) == (x + 1) * 3


def test_frobenius_root_round_trip():
    p = SparsePoly(RXY_F2, {(2, 0): 1, (0, 2): 1, (2, 2): 1})
    root = p.frobenius_root(1)
    assert root.term_map() == {(1, 0): 1, (0, 1): 1, (1, 1): 1}
    assert root * root == p


def test_frobenius_root_requires_divisible_exponents():
    with pytest.raises(NoRootError):
        SparsePoly(RXY_F2, {(1, 0): 1}).frobenius_root(1)
    with pytest.raises(RingMismatchError):
        SparsePoly(RXY, {(2, 0): 1}).frobenius_root(1)
    with pytest.raises(ValueError):
        SparsePoly(RXY_F2, {(2, 0): 1}).frobenius_root(0)


@given(small_polys(ring=RXY_F2), st.integers(1, 2))
def test_frobenius_power_is_generic_power_and_inverts_root(a, e):
    assert a.frobenius_power(e) == a ** (2**e)
    assert a.frobenius_power(e).frobenius_root(e) == a


def test_frobenius_power_needs_a_prime_field():
    with pytest.raises(RingMismatchError):
        SparsePoly(RXY, {(1, 0): 1}).frobenius_power(1)
    with pytest.raises(ValueError):
        SparsePoly(RXY_F2, {(1, 0): 1}).frobenius_power(0)


def test_frobenius_root_higher_order():
    p = SparsePoly(RXY_F2, {(4, 0): 1, (0, 4): 1})
    assert p.frobenius_root(2).term_map() == {(1, 0): 1, (0, 1): 1}


def test_evaluate_integer_and_fraction_points():
    p = SparsePoly(RXY, {(2, 0): 1, (0, 1): -3})
    assert p.evaluate({"x": 2, "y": 1}) == 1
    assert p.evaluate({"x": Fraction(1, 2), "y": Fraction(1, 3)}) == Fraction(-3, 4)
    with pytest.raises(MissingAssignmentError):
        p.evaluate({"x": 2})


def test_evaluate_ignores_unused_variables():
    p = SparsePoly(RXY, {(2, 0): 1})
    assert p.evaluate({"x": 3}) == 9


def test_variables_used_reads_columns():
    p = SparsePoly(PolyRing(ZZ, ("x", "y", "z")), {(2, 0, 0): 1, (0, 0, 1): -1})
    assert p.variables_used() == {"x", "z"}
    assert PolyRing(ZZ, ("x", "y", "z")).zero().variables_used() == set()
    assert RXY.constant(4).variables_used() == set()
    assert p.evaluate({"x": 3, "z": 2}) == 7


def test_evaluate_modular():
    p = SparsePoly(RXY_F2, {(1, 1): 1, (0, 0): 1})
    assert p.evaluate({"x": 1, "y": 1}) == 0
    assert p.evaluate({"x": 1, "y": 0}) == 1
    q = SparsePoly(RXY_F5, {(1, 0): 1})
    assert q.evaluate({"x": Fraction(1, 2)}) == 3


def test_json_round_trip_and_term_order():
    p = SparsePoly(RXY, {(0, 2): -1, (2, 0): 1, (1, 1): 5})
    blob = p.to_terms_json()
    assert blob == [
        {"coeff": "1", "monomial": {"x": 2}},
        {"coeff": "5", "monomial": {"x": 1, "y": 1}},
        {"coeff": "-1", "monomial": {"y": 2}},
    ]
    json.dumps(blob)  # serializable as-is


def test_json_constant_term_has_empty_monomial():
    assert RXY.constant(7).to_terms_json() == [{"coeff": "7", "monomial": {}}]


def _dumps(p):
    return json.dumps(p.to_terms_json(), separators=(", ", ": "))


@st.composite
def wide_polys(draw):
    """Polynomials on 1-12 variables (names JSON must escape included), exponents past 9."""
    nvars = draw(st.integers(1, 12))
    names = draw(st.lists(st.text(min_size=1, max_size=4), min_size=nvars, max_size=nvars, unique=True))
    ring = PolyRing(draw(st.sampled_from((ZZ, GF(2), GF(3)))), names)
    exponent = st.one_of(st.just(0), st.integers(0, 40))
    terms = draw(
        st.dictionaries(
            st.tuples(*[exponent] * nvars), st.integers(-(10**30), 10**30), max_size=12
        )
    )
    return SparsePoly(ring, terms)


@given(wide_polys())
def test_terms_json_text_is_the_encoded_term_list(p):
    assert p.to_terms_json_text() == _dumps(p)


def test_terms_json_text_edge_cases():
    ring = PolyRing(ZZ, [f"X_{k}" for k in range(12)])
    for p in (
        ring.zero(),
        ring.constant(-(10**40)),
        ring.from_terms([((0,) * 12, 3), ((10,) + (0,) * 10 + (11,), -7), ((1,) * 12, 1)]),
    ):
        assert p.to_terms_json_text() == _dumps(p)
    assert ring.zero().to_terms_json_text() == "[]"
    assert ring.constant(5).to_terms_json_text() == '[{"coeff": "5", "monomial": {}}]'


def test_repr_is_readable():
    p = SparsePoly(RXY, {(2, 0): 1, (1, 1): -1, (0, 0): -2})
    assert repr(p) == "x^2 - x*y - 2"
    assert repr(RXY.zero()) == "0"

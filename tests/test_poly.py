import json
import operator
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
from gvand.rings import ZZ, CoefficientRing

RXY = PolyRing(ZZ, ("x", "y"))
RXY_F2 = PolyRing(CoefficientRing(2), ("x", "y"))
RXY_F3 = PolyRing(CoefficientRing(3), ("x", "y"))
RXY_F5 = PolyRing(CoefficientRing(5), ("x", "y"))


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
    assert all(0 < coeff < 5 for coeff in dict(prod.terms()).values())


def test_constructor_normalizes():
    p = SparsePoly(RXY, {(1, 0): 0, (0, 1): 3})
    assert dict(p.terms()) == {(0, 1): 3}
    q = SparsePoly(RXY_F2, {(1, 0): 2, (0, 1): 3})
    assert dict(q.terms()) == {(0, 1): 1}


def test_ring_constructors():
    assert RXY.zero().is_zero()
    assert dict(RXY.one().terms()) == {(0, 0): 1}
    assert RXY.constant(0).is_zero()
    assert dict(RXY.variable("y").terms()) == {(0, 1): 1}
    assert dict(RXY.monomial((2, 1), -3).terms()) == {(2, 1): -3}
    with pytest.raises(NegativeExponentError):
        RXY.monomial((-1, 0))
    with pytest.raises(RingMismatchError):
        RXY.monomial((1, 2, 3))
    with pytest.raises(ValueError, match="must be integers"):
        RXY.monomial((1.5, 0))
    with pytest.raises(ValueError, match="must be integers"):
        RXY.monomial((True, 0))
    with pytest.raises(ValueError):
        PolyRing(ZZ, ("x", "x"))


@pytest.mark.parametrize("ring", [grid_ring(ZZ, 1, 2), grid_ring(CoefficientRing(3), 1, 2)])
def test_coefficients_and_term_keys_are_ints(ring):
    # every coefficient passes CoefficientRing.normalize and every key of a term map the
    # ring's exponent check, so nothing is kept as given: 1.5 stayed 1.5 (2.5 mod 3 stayed
    # 2.5), True stayed True, and (1.5, 0) and (1, 0, 7) stayed keys
    with pytest.raises(ValueError, match="coefficient must be an integer, got 1.5"):
        ring.monomial((1, 0), 1.5)
    with pytest.raises(ValueError, match="coefficient must be an integer, got True"):
        ring.constant(True)
    with pytest.raises(ValueError, match="coefficient must be an integer"):
        SparsePoly(ring, {(1, 0): 2.5})
    with pytest.raises(ValueError, match="must be integers"):
        SparsePoly(ring, {(1.5, 0): 1})
    with pytest.raises(RingMismatchError):
        SparsePoly(ring, {(1, 0, 7): 1})
    with pytest.raises(NegativeExponentError):
        SparsePoly(ring, {(1, -1): 1})
    # a key is checked even where its coefficient vanishes
    with pytest.raises(ValueError, match="must be integers"):
        SparsePoly(ring, {(True, 0): 0})
    assert dict(SparsePoly(ring, {(1, 0): 4, (0, 2): 0}).terms()) == {(1, 0): ring.coeff_ring.normalize(4)}


def test_ring_is_a_validated_record():
    with pytest.raises(ValueError, match="distinct"):
        RXY._replace(variables=("x", "x"))
    assert RXY._replace(coeff_ring=CoefficientRing(2)) == RXY_F2
    twin = PolyRing(ZZ, ["x", "y"])
    assert twin == RXY and hash(twin) == hash(RXY)
    assert twin != RXY_F2
    with pytest.raises(RingMismatchError, match="unknown variable 'z'"):
        RXY.variable("z")


def test_grid_ring_and_vars():
    ring = grid_ring(ZZ, 3, 2)
    assert ring.variables == ("X_1_1", "X_1_2", "X_2_1", "X_2_2", "X_3_1", "X_3_2")
    assert grid_var(2, 1) == "X_2_1"
    v = ring.variable(grid_var(2, 1))
    assert dict(v.terms()) == {(0, 0, 1, 0, 0, 0): 1}


def test_degree_and_leading_term():
    p = SparsePoly(RXY, {(2, 3): 1, (4, 0): -2})
    assert p.total_degree() == 5
    assert p.terms()[0] == ((2, 3), 1)
    with pytest.raises(ZeroPolynomialError):
        RXY.zero().total_degree()
    assert RXY.zero().terms() == []


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
    assert dict(cube.terms()) == {(3, 0): 1, (2, 1): 3, (1, 2): 3, (0, 3): 1}
    assert (x**0) == RXY.one()
    with pytest.raises(ValueError):
        x ** (-1)


@pytest.mark.parametrize("apply", [operator.add, operator.sub, operator.mul])
def test_int_operands_raise_type_error(apply):
    # the oracles combine polynomials only with polynomials of their own ring
    x = RXY.variable("x")
    for left, right in ((x, 2), (2, x)):
        with pytest.raises(TypeError, match="unsupported operand"):
            apply(left, right)
    assert x != 1 and RXY.one() != 1


@given(small_polys(), small_polys())
def test_exact_divide_round_trip(a, b):
    if b.is_zero():
        return
    prod = a * b
    assert prod.exact_divide(b) == a


def _non_homogeneous(p):
    return len({sum(e) for e in dict(p.terms())}) > 1


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
    x, y, one = RXY.variable("x"), RXY.variable("y"), RXY.one()
    assert (x + one).exact_divide(y) is None
    assert (x * x + one).exact_divide(x + one) is None
    for ring in (RXY, RXY_F2, RXY_F3):
        # 1/(1 - x) = 1 + x + x^2 + ... never terminates without the degree bound
        assert ring.one().exact_divide(ring.one() - ring.variable("x")) is None
    x3, one3 = RXY_F3.variable("x"), RXY_F3.one()
    assert (x3 * x3 + one3).exact_divide(x3 + one3) is None
    x2, one2 = RXY_F2.variable("x"), RXY_F2.one()
    assert (x2 * x2 + one2).exact_divide(x2 + one2) == x2 + one2
    assert SparsePoly(RXY, {(1, 0): 3}).exact_divide(RXY.constant(2)) is None
    with pytest.raises(ZeroDivisionError):
        x.exact_divide(RXY.zero())


def test_exact_divide_over_field_clears_denominators():
    ring = RXY_F5
    x_plus_1 = ring.variable("x") + ring.one()
    assert x_plus_1.exact_divide(ring.constant(2)) == x_plus_1 * ring.constant(3)


def test_frobenius_root_round_trip():
    p = SparsePoly(RXY_F2, {(2, 0): 1, (0, 2): 1, (2, 2): 1})
    root = p.frobenius_root(1)
    assert dict(root.terms()) == {(1, 0): 1, (0, 1): 1, (1, 1): 1}
    assert root * root == p


def test_frobenius_root_requires_divisible_exponents():
    with pytest.raises(NoRootError):
        SparsePoly(RXY_F2, {(1, 0): 1}).frobenius_root(1)
    with pytest.raises(RingMismatchError):
        SparsePoly(RXY, {(2, 0): 1}).frobenius_root(1)
    with pytest.raises(ValueError):
        SparsePoly(RXY_F2, {(2, 0): 1}).frobenius_root(0)


def test_frobenius_root_higher_order():
    p = SparsePoly(RXY_F2, {(4, 0): 1, (0, 4): 1})
    assert dict(p.frobenius_root(2).terms()) == {(1, 0): 1, (0, 1): 1}


def test_evaluate_integer_and_fraction_points():
    p = SparsePoly(RXY, {(2, 0): 1, (0, 1): -3})
    assert p.evaluate({"x": 2, "y": 1}) == 1
    assert p.evaluate({"x": Fraction(1, 2), "y": Fraction(1, 3)}) == Fraction(-3, 4)
    with pytest.raises(MissingAssignmentError):
        p.evaluate({"x": 2})


def test_evaluate_ignores_unused_variables():
    p = SparsePoly(RXY, {(2, 0): 1})
    assert p.evaluate({"x": 3}) == 9
    q = SparsePoly(PolyRing(ZZ, ("x", "y", "z")), {(2, 0, 0): 1, (0, 0, 1): -1})
    assert q.evaluate({"x": 3, "z": 2}) == 7


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

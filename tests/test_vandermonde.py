from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import row_support
from gvand import vandermonde
from gvand.errors import SizeCapError
from gvand.exponents import Support, componentwise_min
from gvand.oracle import leibniz_determinant
from gvand.poly import grid_var
from gvand.rings import GF, ZZ
from gvand.vandermonde import (
    VandermondeInstance,
    build_matrix,
    row_expansion,
    vandermonde_determinant,
)

SQUARE = Support(2, ((2, 0), (0, 2), (2, 2)))


def content_monomial(inst):
    """The monomial prod_rows X_i^(componentwise min)."""
    return inst.poly_ring().monomial(componentwise_min(inst.support) * inst.N)


def _inst(vectors, n, char=0):
    ring = GF(char) if char else ZZ
    return VandermondeInstance(Support(n, tuple(vectors)), ring)


def test_build_matrix_entries():
    inst = VandermondeInstance(SQUARE)
    m = build_matrix(inst)
    ring = inst.poly_ring()
    # entry (2, 3) is X_2^(2,2) = X_2_1^2 X_2_2^2
    expected = ring.monomial((0, 0, 2, 2, 0, 0))
    assert m[1][2] == expected
    assert all(len(row) == 3 for row in m)


def test_square_support_six_terms():
    """The 3x3 worked example: six signed monomials, nothing collected."""
    det = vandermonde_determinant(VandermondeInstance(SQUARE))
    ring = det.ring

    def mono(pairs, sign):
        exps = [0] * 6
        for (i, j), e in pairs.items():
            exps[(i - 1) * 2 + (j - 1)] = e
        return (tuple(exps), sign)

    expected = dict(
        [
            mono({(1, 1): 2, (2, 2): 2, (3, 1): 2, (3, 2): 2}, 1),
            mono({(1, 2): 2, (2, 1): 2, (3, 1): 2, (3, 2): 2}, -1),
            mono({(1, 1): 2, (1, 2): 2, (2, 2): 2, (3, 1): 2}, -1),
            mono({(1, 1): 2, (1, 2): 2, (2, 1): 2, (3, 2): 2}, 1),
            mono({(2, 1): 2, (2, 2): 2, (1, 2): 2, (3, 1): 2}, 1),
            mono({(2, 1): 2, (2, 2): 2, (1, 1): 2, (3, 2): 2}, -1),
        ]
    )
    assert det.term_map() == expected
    assert det.ring == ring


def test_minor_delta_frozen():
    inst = VandermondeInstance(SQUARE)
    d3 = row_expansion(inst).minors[2]
    ring = inst.poly_ring()
    # Delta_3 drops the (2,2) column: X_2^(2,0) X_3^(0,2) - X_2^(0,2) X_3^(2,0)
    expected = ring.monomial((0, 0, 2, 0, 0, 2)) - ring.monomial((0, 0, 0, 2, 2, 0))
    assert d3 == expected


def test_row_expansion_reassembles():
    inst = VandermondeInstance(SQUARE)
    exp = row_expansion(inst)
    assert exp.signs == (0, 1, 0)
    assert len(exp.minors) == 3
    ring = inst.poly_ring()
    matrix = build_matrix(inst)
    total = ring.zero()
    for l, (sign, minor) in enumerate(zip(exp.signs, exp.minors)):
        piece = matrix[0][l] * minor
        total = total - piece if sign else total + piece
    assert total == leibniz_determinant(matrix) == exp.determinant


@st.composite
def instances(draw):
    N = draw(st.integers(1, 6))
    n = draw(st.integers(1, 3))
    vectors = draw(
        st.lists(
            st.tuples(*[st.integers(0, 6)] * n), min_size=N, max_size=N, unique=True
        )
    )
    return _inst(vectors, n, draw(st.sampled_from((0, 2, 3))))


@given(instances())
def test_row_expansion_matches_leibniz_and_reassembles(inst):
    exp = row_expansion(inst)
    matrix = build_matrix(inst)
    assert exp.determinant == leibniz_determinant(matrix)
    total = inst.poly_ring().zero()
    for l, (sign, minor) in enumerate(zip(exp.signs, exp.minors)):
        piece = matrix[0][l] * minor
        total = total - piece if sign else total + piece
    assert total == exp.determinant


@given(instances())
def test_row_expansion_terms_arrive_in_descending_order(inst):
    # the graded-lex sort then finds one run; every term has the same degree
    exp = row_expansion(inst)
    for poly in (exp.determinant, *exp.minors, vandermonde_determinant(inst)):
        keys = list(poly.term_map())
        assert keys == sorted(keys, reverse=True)


@pytest.mark.parametrize("m", range(8))
def test_lex_signs_are_inversion_signs(m):
    def sign(perm):
        inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1 :])
        return -1 if inversions % 2 else 1

    pos, neg = vandermonde._lex_signs(m)
    assert pos == [sign(perm) for perm in permutations(range(m))]
    assert neg == [-s for s in pos]


def test_determinant_builds_no_minors(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the determinant built the first-row minors")

    inst = _inst([(0, 1), (2, 0), (1, 1), (3, 2)], 2, 3)
    expected = row_expansion(inst).determinant
    monkeypatch.setattr(vandermonde, "row_expansion", refuse)
    assert vandermonde_determinant(inst) == expected == leibniz_determinant(build_matrix(inst))


def test_single_variable_classical_shape():
    inst = _inst([(0,), (1,)], 1)
    det = vandermonde_determinant(inst)
    ring = inst.poly_ring()
    x11 = ring.variable(grid_var(1, 1))
    x21 = ring.variable(grid_var(2, 1))
    assert det == x21 - x11


def test_tiny_sizes():
    one_by_one = vandermonde_determinant(_inst([(3, 1)], 2))
    assert one_by_one.term_map() == {(3, 1): 1}


def test_content_monomial_divides_determinant():
    inst = _inst([(1, 2), (3, 2), (1, 4)], 2)
    det = vandermonde_determinant(inst)
    content = content_monomial(inst)
    quotient = det.exact_divide(content)
    assert quotient is not None
    assert quotient * content == det
    # the quotient is the determinant of the normalized support
    norm = _inst([(0, 0), (2, 0), (0, 2)], 2)
    assert quotient == vandermonde_determinant(norm)


def test_modular_determinant_matches_reduction():
    inst0 = VandermondeInstance(SQUARE, ZZ)
    inst2 = VandermondeInstance(SQUARE, GF(2))
    det0 = vandermonde_determinant(inst0)
    det2 = vandermonde_determinant(inst2)
    reduced = {e: c % 2 for e, c in det0.term_map().items() if c % 2}
    assert det2.term_map() == reduced


def test_row_support_collects_exponents():
    inst = VandermondeInstance(SQUARE)
    det = vandermonde_determinant(inst)
    assert row_support(det, inst, row=1) == {(2, 0), (0, 2), (2, 2)}
    assert row_support(det, inst, row=3) == {(2, 0), (0, 2), (2, 2)}


def test_size_cap_enforced():
    vectors = [(k,) for k in range(13)]
    inst = _inst(vectors, 1)
    with pytest.raises(SizeCapError):
        vandermonde_determinant(inst)
    with pytest.raises(SizeCapError):
        row_expansion(inst)
    # N = 10 is refused before any expansion, whatever the caller's cap
    with pytest.raises(SizeCapError, match="expansion cap"):
        row_expansion(_inst(vectors[:10], 1), max_n=12)
    # a lowered cap bites early, a raised one lets the instance through
    small = _inst([(0,), (1,), (2,)], 1)
    with pytest.raises(SizeCapError):
        vandermonde_determinant(small, max_n=2)
    assert not vandermonde_determinant(small, max_n=3).is_zero()

import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import fraction_solve_affine, integer_det, mat_mul
from gvand.linalg import fraction_rank, identity, integer_rank, solve_affine, vec_mat
from gvand.rings import GF, ZZ, CoefficientRing, is_prime


def test_ring_validation():
    assert ZZ.characteristic == 0
    assert GF(7).characteristic == 7
    with pytest.raises(ValueError):
        CoefficientRing(6)
    with pytest.raises(ValueError):
        CoefficientRing(-3)
    with pytest.raises(ValueError):
        GF(0)


def test_is_prime_small():
    primes = [p for p in range(60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_is_prime_matches_sieve_below_1e5():
    sieve = bytearray([1]) * 10**5
    sieve[0] = sieve[1] = 0
    for d in range(2, 317):
        if sieve[d]:
            sieve[d * d :: d] = bytes(len(range(d * d, 10**5, d)))
    assert [p for p in range(10**5) if is_prime(p)] == [p for p in range(10**5) if sieve[p]]


def test_is_prime_rejects_pseudoprimes_and_accepts_large_primes():
    # strong pseudoprimes: 3215031751 to bases 2..7, 3825123056546413051 to bases 2..23
    for composite in (561, 3215031751, 3825123056546413051, (2**31 - 1) ** 2):
        assert not is_prime(composite)
    assert is_prime(2**31 - 1) and is_prime(2**61 - 1)


def test_normalize_and_invert():
    ring = GF(5)
    assert ring.normalize(-1) == 4
    assert ring.normalize(12) == 2
    assert ring.invert(2) == 3
    assert ZZ.normalize(-7) == -7
    with pytest.raises(ZeroDivisionError):
        ring.invert(0)
    with pytest.raises(ZeroDivisionError):
        ZZ.invert(2)


def test_divide_exact():
    assert ZZ.divide_exact(6, 3) == 2
    assert ZZ.divide_exact(7, 3) is None
    assert GF(5).divide_exact(3, 2) == 4  # 3 * inv(2) = 3 * 3 = 9 = 4
    with pytest.raises(ZeroDivisionError):
        ZZ.divide_exact(1, 0)


def _naive_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _naive_det(minor)
    return total


@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3), min_size=3, max_size=3))
def test_integer_det_matches_cofactor_recursion(m):
    assert integer_det(m) == _naive_det(m)


def test_integer_rank_examples():
    assert integer_rank([[1, 2], [2, 4]]) == 1
    assert integer_rank([[1, 2], [3, 4]]) == 2
    assert integer_rank([[0, 0], [0, 0]]) == 0
    assert integer_rank([[1, 1, 1]]) == 1


def test_rank_is_transpose_invariant():
    rng = random.Random(5)
    for _ in range(25):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        mt = [list(col) for col in zip(*m)]
        assert integer_rank(m) == integer_rank(mt) == fraction_rank(m)


def test_mat_mul_identity():
    m = [[1, 2, 3], [4, 5, 6]]
    assert mat_mul(m, identity(3)) == m
    assert vec_mat((1, 1), m) == (5, 7, 9)


def test_solve_linear_and_affine():
    nums, den = solve_affine([(0, 0), (1, 0), (0, 1)], [1, 3, 5])
    assert den > 0
    assert [Fraction(x, den) for x in nums] == [2, 4, 1]
    assert solve_affine([(0, 0), (1, 1), (2, 2)], [0, 1, 2]) is None


@st.composite
def _affine_systems(draw):
    m = draw(st.integers(1, 4))
    coords = st.integers(-3, 3)  # a small box, so singular systems come up often
    points = draw(st.lists(st.tuples(*[coords] * m), min_size=m + 1, max_size=m + 1))
    values = draw(st.lists(st.integers(-(2**70), 2**70), min_size=m + 1, max_size=m + 1))
    return points, values


@given(_affine_systems())
@example(([(0, 0), (1, 0), (0, 1)], [1, 3, 5]))  # zero leading pivot: a row swap
@example(([(1, 0), (0, 0), (0, 1)], [7, -2, 9]))  # negative determinant
@example(([(0, 1), (1, 0), (0, 0)], [-1, 4, 0]))  # swap and negative determinant
@example(([(0, 0), (1, 1), (2, 2)], [0, 1, 5]))  # collinear: singular
@example(([(1, 2, 0), (1, 2, 0), (0, 0, 1), (3, 1, 1)], [0, 0, 0, 1]))  # repeated point
@example(([(2,), (2,)], [1, 2]))  # singular, m = 1
def test_solve_affine_matches_the_fraction_reference(system):
    points, values = system
    ref = fraction_solve_affine(points, values)
    got = solve_affine(points, values)
    if ref is None:
        assert got is None
        return
    nums, den = got
    assert isinstance(den, int) and den > 0
    assert all(isinstance(x, int) for x in nums)
    a, b = ref
    assert tuple(Fraction(x, den) for x in nums[:-1]) == a
    assert Fraction(nums[-1], den) == b

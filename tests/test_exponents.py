import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gvand.errors import DegenerateSupportError, InputError
from gvand.exponents import (
    Support,
    affine_dimension,
    componentwise_min,
    d_gamma,
    normalize,
    reduce_to_span_coordinates,
    smith_normal_form,
)
from conftest import integer_det, mat_mul, random_support


def test_support_validation():
    s = Support(2, ((0, 0), (1, 2)))
    assert s.N == 2
    with pytest.raises(ValueError):
        Support(2, ((0, 0), (0, 0)))
    with pytest.raises(ValueError):
        Support(2, ((0, -1),))
    with pytest.raises(ValueError):
        Support(2, ((0, 0, 1),))
    with pytest.raises(ValueError):
        Support(0, ((),))
    with pytest.raises(ValueError):
        Support(2, ())


def test_from_json_happy_path():
    s = Support.from_json({"n": 2, "exponents": [[2, 0], [0, 2], [2, 2]]})
    assert s.n == 2
    assert s.vectors == ((2, 0), (0, 2), (2, 2))
    assert s.to_json() == {"n": 2, "exponents": [[2, 0], [0, 2], [2, 2]]}


@pytest.mark.parametrize(
    "data, needle",
    [
        ([1, 2], "expected an object"),
        ({"exponents": [[1]]}, "support.n"),
        ({"n": 1}, "support.exponents"),
        ({"n": 0, "exponents": [[1]]}, "support.n"),
        ({"n": True, "exponents": [[1]]}, "support.n"),
        ({"n": 1, "exponents": []}, "support.exponents"),
        ({"n": 2, "exponents": [[1]]}, "support.exponents[0]"),
        ({"n": 1, "exponents": [[1], ["x"]]}, "support.exponents[1][0]"),
        ({"n": 1, "exponents": [[1], [-1]]}, "support.exponents[1][0]"),
        ({"n": 1, "exponents": [[1], [1]]}, "distinct"),
    ],
)
def test_from_json_field_diagnostics(data, needle):
    with pytest.raises(InputError, match=None) as exc:
        Support.from_json(data)
    assert needle in str(exc.value)


def test_normalize_and_min():
    s = Support(2, ((2, 3), (4, 3), (2, 7)))
    assert componentwise_min(s) == (2, 3)
    norm, shift = normalize(s)
    assert shift == (2, 3)
    assert norm.vectors == ((0, 0), (2, 0), (0, 4))
    renorm, reshift = normalize(norm)
    assert renorm is norm and reshift == (0, 0)


def test_d_gamma_examples():
    assert d_gamma(Support(2, ((0, 0), (2, 0), (0, 2)))) == 2
    assert d_gamma(Support(2, ((1, 1), (3, 1), (1, 3)))) == 2
    assert d_gamma(Support(2, ((0, 0), (2, 0), (0, 3)))) == 1
    assert d_gamma(Support(1, ((5,), (8,)))) == 3
    with pytest.raises(DegenerateSupportError):
        d_gamma(Support(1, ((5,),)))


def test_d_gamma_equals_pairwise_difference_gcd():
    rng = random.Random(31)
    for _ in range(40):
        s = random_support(rng, rng.randint(1, 3), rng.randint(2, 6), 9)
        g = 0
        for i in range(s.N):
            for j in range(i + 1, s.N):
                for a, b in zip(s.vectors[i], s.vectors[j]):
                    g = math.gcd(g, a - b)
        assert d_gamma(s) == g


def test_affine_dimension():
    assert affine_dimension(Support(2, ((1, 1),))) == 0
    assert affine_dimension(Support(2, ((0, 0), (3, 3), (1, 1)))) == 1
    assert affine_dimension(Support(2, ((0, 0), (1, 0), (0, 1)))) == 2
    assert affine_dimension(Support(3, ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)))) == 3


#### Smith normal form ####


def _check_snf(matrix):
    snf = smith_normal_form(matrix)
    u, d, v = [list(map(list, m)) for m in (snf.U, snf.D, snf.V)]
    assert mat_mul(mat_mul(u, [list(r) for r in matrix]), v) == d
    assert abs(integer_det(u)) == 1
    assert abs(integer_det(v)) == 1
    diag = [d[k][k] for k in range(min(len(d), len(d[0])))]
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0
    assert snf.rank == sum(1 for x in diag if x)
    # off-diagonal entries vanish
    for i, row in enumerate(d):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0
    return diag


def test_snf_frozen_examples():
    assert _check_snf([[2, 0], [0, 4]]) == [2, 4]
    assert _check_snf([[0, 0], [0, 0]]) == [0, 0]
    assert _check_snf([[1, 0], [0, 1]]) == [1, 1]
    # classic: invariant factors 1, 6
    assert _check_snf([[2, 4], [2, -2]]) == [2, 6]
    assert _check_snf([[6]]) == [6]
    assert _check_snf([[4, 6]]) == [2]
    assert _check_snf([[3], [5]]) == [1]


def test_snf_rectangular_and_random():
    rng = random.Random(99)
    for _ in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = [[rng.randint(-10, 10) for _ in range(cols)] for _ in range(rows)]
        _check_snf(m)


def test_snf_rejects_empty():
    with pytest.raises(ValueError):
        smith_normal_form([])
    with pytest.raises(ValueError):
        smith_normal_form([[1], [2, 3]])


#### span reduction ####


def test_span_reduction_collinear_support():
    s = Support(2, ((1, 1), (3, 3), (7, 7)))
    reduced, reduction = reduce_to_span_coordinates(s)
    assert reduced.n == 1
    assert reduced.N == 3
    # geometry along the line survives: gaps 0-2-6 with gcd 2
    coords = sorted(v[0] for v in reduced.vectors)
    assert coords == [0, 2, 6]
    assert [reduction.apply(v) for v in s.vectors] == [(v[0],) for v in reduced.vectors]


def test_span_reduction_preserves_difference_gcds():
    rng = random.Random(123)
    for _ in range(40):
        s = random_support(rng, rng.randint(1, 3), rng.randint(2, 6), 8)
        reduced, reduction = reduce_to_span_coordinates(s)
        assert reduced.n == affine_dimension(s)
        assert componentwise_min(reduced) == (0,) * reduced.n
        assert d_gamma(reduced) == d_gamma(s)
        images = [reduction.apply(v) for v in s.vectors]
        assert tuple(images) == reduced.vectors
        # injectivity on the support
        assert len(set(images)) == s.N


def test_span_reduction_rejects_outside_points():
    s = Support(2, ((0, 0), (2, 2)))
    _, reduction = reduce_to_span_coordinates(s)
    with pytest.raises(DegenerateSupportError):
        reduction.apply((1, 0))
    with pytest.raises(DegenerateSupportError):
        reduce_to_span_coordinates(Support(1, ((4,),)))


@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 5))
def test_span_reduction_scaled_triangle(a, b, shift):
    s = Support(2, ((shift, shift), (shift + 2 * a, shift), (shift, shift + 2 * b)))
    reduced, _ = reduce_to_span_coordinates(s)
    assert d_gamma(reduced) == d_gamma(s) == math.gcd(2 * a, 2 * b)

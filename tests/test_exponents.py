import math
import random
from itertools import combinations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gvand import exponents
from gvand.errors import DegenerateSupportError, InputError, InvariantViolationError
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
    # a record copied with a field replaced is validated like a new one
    assert s._replace(vectors=[[1, 1], [0, 3]]).vectors == ((1, 1), (0, 3))
    with pytest.raises(ValueError):
        s._replace(vectors=((0, 0), (0, 0)))


@pytest.mark.parametrize(
    "n, vectors, message",
    [
        (2, [(1.5, 0), (0, 2.9), (True, 1)], "exponents[0][0]: must be a non-negative integer"),
        (2, [(0, 0), (1, False)], "exponents[1][1]: must be a non-negative integer"),
        (2.0, [(0, 0), (1, 2)], "n: must be a positive integer"),
        (True, [(0,), (1,)], "n: must be a positive integer"),
    ],
    ids=["float-entry", "bool-entry", "float-n", "bool-n"],
)
def test_support_refuses_non_integers(n, vectors, message):
    with pytest.raises(ValueError) as exc:
        Support(n, vectors)
    assert str(exc.value) == message


# JSON values as json.loads gives them, NaN and infinities included, lists and objects nested
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats() | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6,
)


@st.composite
def _documents(draw):
    """(n, exponents): a support's lists of small ints, in which up to two places, n, the
    list, a vector or an entry, then take any JSON value; repeated vectors come up too."""
    n = draw(st.integers(1, 3))
    exponents = draw(st.lists(st.lists(st.integers(0, 2), min_size=n, max_size=n), min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, 2))):
        value, place = draw(_JSON), draw(st.sampled_from(("n", "list", "vector", "entry")))
        if place == "n":
            n = value
        elif place == "list":
            exponents = value
        elif isinstance(exponents, list) and exponents:
            i = draw(st.integers(0, len(exponents) - 1))
            if place == "vector":
                exponents[i] = value
            elif isinstance(exponents[i], list) and exponents[i]:
                exponents[i][draw(st.integers(0, len(exponents[i]) - 1))] = value
    return n, exponents


@given(_documents())
@example((2, [[0, 1], [1, 0]]))
@example((1, [["x"], 5]))  # two faults: the first one in walk order is named
@example((1, [[0], [0], [-1]]))  # an entry fault after the repeated vector, named first
@example((0, "x"))
def test_from_json_and_a_direct_call_share_one_walk(document):
    n, exponents = document
    try:
        direct = Support(n, exponents)
    except ValueError as exc:
        with pytest.raises(InputError) as refused:
            Support.from_json({"n": n, "exponents": exponents})
        assert str(refused.value) == f"support.{exc}"
    else:
        assert Support.from_json({"n": n, "exponents": exponents}) == direct


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


@pytest.mark.parametrize(
    "data, message",
    [
        ([1, 2], "support: expected an object"),
        ({"exponents": [[1]]}, "support.n: missing"),
        ({"n": 1}, "support.exponents: missing"),
        ({"n": 0, "exponents": [[1]]}, "support.n: must be a positive integer"),
        ({"n": 1.0, "exponents": [[1]]}, "support.n: must be a positive integer"),
        ({"n": True, "exponents": [[1]]}, "support.n: must be a positive integer"),
        ({"n": 1, "exponents": []}, "support.exponents: must be a nonempty list"),
        ({"n": 1, "exponents": {"0": [1]}}, "support.exponents: must be a nonempty list"),
        ({"n": 2, "exponents": [[1]]}, "support.exponents[0]: must be a list of length 2"),
        ({"n": 1, "exponents": [[0], (1,)]}, "support.exponents[1]: must be a list of length 1"),
        ({"n": 1, "exponents": [[1], ["x"]]}, "support.exponents[1][0]: must be a non-negative integer"),
        ({"n": 1, "exponents": [[1], [-1]]}, "support.exponents[1][0]: must be a non-negative integer"),
        ({"n": 2, "exponents": [[0, 1.5]]}, "support.exponents[0][1]: must be a non-negative integer"),
        ({"n": 1, "exponents": [[False]]}, "support.exponents[0][0]: must be a non-negative integer"),
        ({"n": 1, "exponents": [[1], [1]]}, "support.exponents: vectors must be distinct"),
    ],
)
def test_from_json_messages_are_pinned(data, message):
    # from_json checks each field once and builds the record without Support's own checks
    with pytest.raises(InputError) as exc:
        Support.from_json(data)
    assert str(exc.value) == message


def test_from_json_builds_the_record_a_direct_call_builds():
    data = {"n": 2, "exponents": [[3, 0], [0, 2**64 - 1], [1, 1]]}
    s = Support.from_json(data)
    assert type(s) is Support and s == Support(2, data["exponents"])
    assert all(type(x) is int for v in s.vectors for x in v)
    # a direct call keeps its checks
    with pytest.raises(ValueError, match="distinct"):
        Support(2, [[1, 1], [1, 1]])


def test_normalize_and_min():
    s = Support(2, ((2, 3), (4, 3), (2, 7)))
    assert componentwise_min(s) == (2, 3)
    norm = normalize(s)
    assert norm.vectors == ((0, 0), (2, 0), (0, 4))
    assert componentwise_min(norm) == (0, 0)
    assert normalize(norm) is norm


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
    reduced = reduce_to_span_coordinates(s)
    assert reduced.n == 1
    assert reduced.N == 3
    # geometry along the line survives: gaps 0-2-6 with gcd 2
    coords = sorted(v[0] for v in reduced.vectors)
    assert coords == [0, 2, 6]
    # the one span coordinate is the normalized support's first, in the support's order
    assert reduced.vectors == tuple((v[0],) for v in normalize(s).vectors)


def _pair_gcds(support):
    return [math.gcd(*(a - b for a, b in zip(u, v))) for u, v in combinations(support.vectors, 2)]


def test_span_reduction_preserves_difference_gcds():
    # a full-dimensional support is only translated, so every difference gcd survives.
    # Dropping coordinates can only coarsen one: (0, 0), (2, 1) has lattice length 1
    # but span coordinate gap 2, so lattice lengths are read from the support itself
    rng = random.Random(123)
    line = Support(2, ((0, 0), (2, 1), (4, 2)))
    assert reduce_to_span_coordinates(line).vectors == ((0,), (2,), (4,))
    assert (d_gamma(line), _pair_gcds(line)) == (1, [1, 2, 1])
    for _ in range(40):
        s = random_support(rng, rng.randint(1, 3), rng.randint(2, 6), 8)
        reduced = reduce_to_span_coordinates(s)
        assert reduced.n == affine_dimension(s)
        assert componentwise_min(reduced) == (0,) * reduced.n
        if reduced.n == s.n:
            assert d_gamma(reduced) == d_gamma(s)
            assert _pair_gcds(reduced) == _pair_gcds(s)
        else:
            assert d_gamma(reduced) % d_gamma(s) == 0
            assert all(r % g == 0 for r, g in zip(_pair_gcds(reduced), _pair_gcds(s)))
        # injectivity on the support
        assert len(set(reduced.vectors)) == s.N


def test_span_reduction_translates_a_full_dimensional_support():
    # coordinates keep their size, even near 10**18
    big = 10**18
    for s in (Support(2, ((3, 1), (5, 2), (4, 7))), Support(2, ((big, 1), (1, big), (big - 7, big - 3)))):
        assert reduce_to_span_coordinates(s) == normalize(s)


def test_span_reduction_rejects_outside_points():
    # a point off the line is not folded into the line's one coordinate
    assert reduce_to_span_coordinates(Support(2, ((0, 0), (2, 2)))).n == 1
    assert reduce_to_span_coordinates(Support(2, ((0, 0), (2, 2), (1, 0)))).n == 2
    with pytest.raises(DegenerateSupportError):
        reduce_to_span_coordinates(Support(1, ((4,),)))


@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 5))
def test_span_reduction_scaled_triangle(a, b, shift):
    s = Support(2, ((shift, shift), (shift + 2 * a, shift), (shift, shift + 2 * b)))
    reduced = reduce_to_span_coordinates(s)
    assert d_gamma(reduced) == d_gamma(s) == math.gcd(2 * a, 2 * b)


@st.composite
def _lower_dimensional_supports(draw):
    """Supports in NN^k, k <= 3, with up to two appended coordinates that are sums of
    earlier ones or copies of them, so the affine rank is often below n."""
    k = draw(st.integers(1, 3))
    coord = st.one_of(st.integers(0, 4), st.integers(0, 2**64 - 1))
    vecs = draw(st.lists(st.tuples(*[coord] * k), min_size=2, max_size=7, unique=True))
    for _ in range(draw(st.integers(0, 2))):
        cols = draw(st.lists(st.integers(0, len(vecs[0]) - 1), min_size=1, max_size=2))
        vecs = [v + (sum(v[c] for c in cols),) for v in vecs]
    if draw(st.booleans()):  # a constant coordinate
        vecs = [v + (5,) for v in vecs]
    return Support(len(vecs[0]), tuple(vecs))


@given(_lower_dimensional_supports())
def test_span_coordinates_are_columns_of_the_normalized_support(s):
    reduced = reduce_to_span_coordinates(s)
    assert reduced.n == affine_dimension(s) == affine_dimension(reduced)
    norm = normalize(s)
    columns = list(zip(*norm.vectors))
    kept = list(zip(*reduced.vectors))
    # the kept columns appear in order, so no coordinate exceeds the input's
    at = 0
    for col in kept:
        at = columns.index(col, at) + 1
    assert max(map(max, reduced.vectors)) <= max(map(max, s.vectors))
    assert len(set(reduced.vectors)) == s.N


def test_span_coordinates_that_merge_vectors_are_an_invariant_violation(monkeypatch):
    # a wrong pivot set, here the first column alone, folds (0, 1) onto (0, 0)
    monkeypatch.setattr(exponents, "pivot_columns", lambda rows: (0,))
    with pytest.raises(InvariantViolationError, match=r"span coordinates \[0\] merge two exponent vectors"):
        reduce_to_span_coordinates(Support(2, ((0, 0), (0, 1), (1, 0))))

import contextlib
import io
import json
import math
import random
import sys
import types
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import classical_reassembles
from gvand import cli, oracle, vandermonde
from gvand.errors import AllPointsSingularError, DegenerateSupportError, SizeCapError
from gvand.exponents import Support, affine_dimension
from gvand.oracle import (
    JACOBIAN_PRIME,
    POLYGON_DECOMPOSABLE,
    POLYGON_INDECOMPOSABLE,
    POLYGON_UNKNOWN,
    classical_divisibility_check,
    jacobian_independence_evidence,
    leibniz_determinant,
    line_case_factor,
    polygon_indecomposability,
)
from gvand.poly import SparsePoly
from gvand.rings import GF, ZZ
from gvand.vandermonde import VandermondeInstance, build_matrix, vandermonde_determinant


def _inst(vectors, n, char=0):
    ring = GF(char) if char else ZZ
    return VandermondeInstance(Support(n, tuple(vectors)), ring)


#### permutation-sum determinant ####


def test_leibniz_agrees_with_memoized_route():
    for char in (0, 2, 5):
        inst = _inst([(2, 0), (0, 2), (2, 2)], 2, char)
        matrix = build_matrix(inst)
        assert leibniz_determinant(matrix) == vandermonde_determinant(inst)


def test_leibniz_two_by_two_sign():
    inst = _inst([(0,), (1,)], 1)
    matrix = build_matrix(inst)
    det = leibniz_determinant(matrix)
    ring = inst.poly_ring()
    assert det == ring.monomial((0, 1)) - ring.monomial((1, 0))


def test_leibniz_size_cap():
    inst = _inst([(k,) for k in range(9)], 1)
    with pytest.raises(SizeCapError):
        leibniz_determinant(build_matrix(inst))


#### classical alternant divisibility ####


def test_classical_staircase_quotient_is_a_unit():
    support = Support(1, ((0,), (1,), (2,)))
    report = classical_divisibility_check(support)
    assert report["divides"] and classical_reassembles(support, report["quotient"])
    assert report["quotient_terms"] == 1
    quotient = report["quotient"]
    exp, coeff = quotient.leading_term()
    assert set(exp) == {0} and coeff in (1, -1)


def test_classical_gap_quotient_is_symmetric():
    support = Support(1, ((0,), (1,), (3,)))
    report = classical_divisibility_check(support)
    assert report["divides"] and classical_reassembles(support, report["quotient"])
    quotient = report["quotient"]
    # quotient is +-(X_1_1 + X_2_1 + X_3_1)
    assert quotient.n_terms == 3
    coeffs = set(quotient.term_map().values())
    assert coeffs in ({1}, {-1})
    assert quotient.total_degree() == 1


def test_classical_requires_one_coordinate():
    with pytest.raises(ValueError):
        classical_divisibility_check(Support(2, ((0, 0), (1, 1))))


#### collinear binomial split ####


def _reassembles(inst, report):
    """The closed-form quotient size against an exact division of the expansion."""
    det = vandermonde_determinant(inst)
    q = det.exact_divide(report.binomial)
    assert q is not None
    assert q.n_terms == report.quotient_terms
    assert q.total_degree() == report.quotient_degree
    return report.binomial * q == det


@pytest.mark.parametrize("char", [2, 3, 5])
def test_line_case_splits_staircase(char):
    inst = _inst([(0,), (1,), (2,)], 1, char)
    report = line_case_factor(inst)
    assert report.splits
    assert report.w == (1,)
    assert report.line_positions == (0, 1, 2)
    assert _reassembles(inst, report)
    json.dumps(report.to_json())


def test_line_case_diagonal_support():
    inst = _inst([(0, 0), (1, 1), (2, 2)], 2, 5)
    report = line_case_factor(inst)
    assert report.splits and report.w == (1, 1)
    assert _reassembles(inst, report)


def test_line_case_shifted_base():
    # base point (1, 2) is not a multiple of the direction (1, 1), and
    # the content x^(1, 2) does not stop the binomial from dividing
    inst = _inst([(1, 2), (2, 3), (3, 4)], 2, 3)
    report = line_case_factor(inst)
    assert report.splits
    assert _reassembles(inst, report)


def test_line_case_base_on_direction():
    # base point (1, 1) is a multiple of the direction (1, 1)
    inst = _inst([(1, 1), (2, 2), (4, 4)], 2, 5)
    report = line_case_factor(inst)
    assert report.splits and report.line_positions == (0, 1, 3)
    assert _reassembles(inst, report)


def test_line_case_sparse_line():
    inst = _inst([(0,), (2,), (5,)], 1, 5)
    report = line_case_factor(inst)
    assert report.line_positions == (0, 2, 5)
    assert report.splits and _reassembles(inst, report)


def test_line_case_unlucky_small_field():
    # over GF(3) every nonzero square is 1, so the minor x_3_1^2 - x_2_1^2
    # vanishes on the whole torus and no evaluation point there exhibits
    # the split; the binomial division needs no point
    inst = _inst([(0,), (2,), (5,)], 1, 3)
    report = line_case_factor(inst)
    assert report.splits and _reassembles(inst, report)


def test_line_case_input_validation():
    with pytest.raises(ValueError):
        line_case_factor(_inst([(0, 0), (1, 0), (0, 1)], 2, 3))
    # past the expansion cap: 8! * sum_{l<m} (m - l) = 40320 * 165 quotient terms, none built
    report = line_case_factor(_inst([(k,) for k in range(10)], 1, 3))
    assert report.splits and report.quotient_terms == 6652800
    # no prime, characteristic or line-degree restriction
    for inst in (_inst([(0,), (1,), (2,)], 1, 0), _inst([(0,), (1,), (2,)], 1, 7), _inst([(0,), (25,), (50,)], 1, 3)):
        assert line_case_factor(inst).splits


def test_line_case_two_point_lines():
    # N = 2 with positions 0 and 1: the determinant is the binomial itself
    report = line_case_factor(_inst([(0,), (1,)], 1, 0))
    assert report.quotient_degree == 0 and not report.splits
    # positions 0 and 3: X_2_1^3 - X_1_1^3 is a genuine split
    assert line_case_factor(_inst([(0,), (3,)], 1, 0)).splits


def test_line_case_deterministic():
    inst = _inst([(0,), (1,), (3,)], 1, 5)
    a = line_case_factor(inst).to_json()
    b = line_case_factor(inst).to_json()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


@st.composite
def collinear_instances(draw):
    """N = 3..7 points on a lattice line in NN^n, n <= 3, content allowed."""
    n = draw(st.integers(1, 3))
    w = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any))
    g = math.gcd(*w)
    w = [x // g for x in w]
    positions = draw(st.lists(st.integers(1, 7), min_size=2, max_size=6, unique=True))
    positions = [0] + positions
    base = [max(0, -min(k * x for k in positions)) + draw(st.integers(0, 1)) for x in w]
    vectors = [tuple(b + k * x for b, x in zip(base, w)) for k in positions]
    vectors = draw(st.permutations(vectors))
    return _inst(vectors, n, draw(st.sampled_from([0, 2, 3, 5])))


@given(collinear_instances())
@settings(max_examples=80, deadline=None)
def test_line_case_splits_every_collinear_support(inst):
    report = line_case_factor(inst)
    assert report.splits
    assert _reassembles(inst, report)
    stdin = io.StringIO(json.dumps(inst.support.to_json()))
    out = io.StringIO()
    with mock.patch("sys.stdin", stdin), contextlib.redirect_stdout(out):
        code = cli.main(["oracle", "--check", "line", "--char", str(inst.coeff_ring.characteristic)])
    assert code == 0
    assert json.loads(out.getvalue())["report"]["ok"] is True


#### algebraic-independence evidence ####


def test_jacobian_unit_triangle_conclusive():
    report = jacobian_independence_evidence(Support(2, ((0, 0), (1, 0), (0, 1))), seed=0)
    assert report.target_rank == 2
    assert report.achieved_rank == 2
    assert report.conclusive
    assert 1 <= report.trials <= 3
    blob = report.to_json()
    assert blob["conclusive"] is True
    json.dumps(blob)


def test_jacobian_single_coordinate_support():
    report = jacobian_independence_evidence(Support(1, ((0,), (1,), (2,))), seed=0)
    assert report.conclusive
    assert report.target_rank == 2


def test_jacobian_two_vector_support():
    report = jacobian_independence_evidence(Support(1, ((0,), (1,))), seed=0)
    assert report.target_rank == 1
    assert report.conclusive


def test_jacobian_needs_two_vectors():
    with pytest.raises(DegenerateSupportError):
        jacobian_independence_evidence(Support(1, ((0,),)))


def test_jacobian_deterministic():
    support = Support(2, ((0, 0), (2, 1), (1, 2)))
    a = jacobian_independence_evidence(support, seed=5).to_json()
    b = jacobian_independence_evidence(support, seed=5).to_json()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    names = {f"X_{i}_{j}" for i in range(2, 4) for j in range(1, 3)}
    assert a["sample_points"]
    for point in a["sample_points"]:
        assert set(point) == names
        for residue in point.values():
            assert residue == str(int(residue)) and 1 <= int(residue) < JACOBIAN_PRIME


# N = 6, n = 3: a 720-term determinant if anything expanded it
_JACOBIAN_N6 = Support(3, ((0, 0, 0), (1, 0, 2), (0, 3, 1), (2, 2, 0), (1, 1, 1), (4, 0, 1)))


def test_jacobian_expands_nothing(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the Jacobian oracle must not expand or evaluate a polynomial")

    modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("gvand") and m]
    for original in (vandermonde.vandermonde_determinant, vandermonde.row_expansion):
        for module in modules:
            for key, val in list(vars(module).items()):
                if val is original:
                    monkeypatch.setattr(module, key, unreachable)
    monkeypatch.setattr(SparsePoly, "evaluate", unreachable)
    report = jacobian_independence_evidence(_JACOBIAN_N6, seed=0)
    assert report.conclusive and report.target_rank == 5


def test_line_oracle_expands_nothing(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the line oracle must not expand or divide a polynomial")

    modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("gvand") and m]
    for original in (vandermonde.vandermonde_determinant, vandermonde.row_expansion):
        for module in modules:
            for key, val in list(vars(module).items()):
                if val is original:
                    monkeypatch.setattr(module, key, unreachable)
    monkeypatch.setattr(SparsePoly, "exact_divide", unreachable)
    # N = 6, n = 3 on a line with direction +-(2, -1, 1): 4! * 69 quotient terms of degree 128 - 4
    support = Support(3, tuple((1 + 2 * k, 11 - k, 1 + k) for k in (0, 1, 3, 4, 7, 10)))
    report = line_case_factor(VandermondeInstance(support, GF(5)))
    assert report.splits and report.w == (-2, 1, -1)
    assert (report.quotient_terms, report.quotient_degree) == (24 * 69, 124)
    out = io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(json.dumps(support.to_json()))), contextlib.redirect_stdout(out):
        assert cli.main(["oracle", "--check", "line", "--char", "5"]) == 0
    assert json.loads(out.getvalue())["report"]["quotient_terms"] == 24 * 69


class _EqualRows(random.Random):
    """Every draw is the same residue, so all rows of the matrix are equal."""

    def randint(self, a, b):
        return 7


def test_jacobian_singular_at_every_draw(monkeypatch):
    monkeypatch.setattr(oracle, "random", types.SimpleNamespace(Random=_EqualRows))
    with pytest.raises(AllPointsSingularError):
        jacobian_independence_evidence(_JACOBIAN_N6, trials=2, seed=0)
    out, err = io.StringIO(), io.StringIO()
    stdin = io.StringIO(json.dumps(_JACOBIAN_N6.to_json()))
    with mock.patch("sys.stdin", stdin), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["oracle", "--check", "jacobian"])
    assert (code, out.getvalue()) == (1, "")
    assert err.getvalue().startswith("inconclusive: ") and err.getvalue().count("\n") == 1


#### lattice-polygon indecomposability ####


def test_polygon_unit_triangle_indecomposable():
    report = polygon_indecomposability(Support(2, ((0, 0), (1, 0), (0, 1))))
    assert report.status == POLYGON_INDECOMPOSABLE
    assert len(report.hull) == 3
    json.dumps(report.to_json())


def test_polygon_doubled_triangle_decomposable():
    report = polygon_indecomposability(Support(2, ((0, 0), (2, 0), (0, 2))))
    assert report.status == POLYGON_DECOMPOSABLE
    assert [g for _, g in report.edges] == [2, 2, 2]


def test_polygon_unit_square_decomposable():
    report = polygon_indecomposability(Support(2, ((0, 0), (1, 0), (0, 1), (1, 1))))
    assert report.status == POLYGON_DECOMPOSABLE


def test_polygon_steep_triangle_indecomposable():
    report = polygon_indecomposability(Support(2, ((0, 0), (2, 0), (1, 2))))
    assert report.status == POLYGON_INDECOMPOSABLE


def test_polygon_hull_is_counterclockwise_corners_only():
    # interior and edge-interior points must not appear in the hull
    support = Support(2, ((0, 0), (2, 0), (0, 2), (1, 0), (1, 1)))
    report = polygon_indecomposability(support)
    assert set(report.hull) == {(0, 0), (2, 0), (0, 2)}
    area2 = 0
    hull = report.hull
    for k, cur in enumerate(hull):
        nxt = hull[(k + 1) % len(hull)]
        area2 += cur[0] * nxt[1] - nxt[0] * cur[1]
    assert area2 > 0


def test_polygon_out_of_scope_dimensions():
    report = polygon_indecomposability(Support(3, ((0, 0, 0), (1, 0, 0), (0, 1, 0))))
    assert report.status == POLYGON_UNKNOWN
    with pytest.raises(DegenerateSupportError):
        polygon_indecomposability(Support(2, ((0, 0), (1, 1), (2, 2))))


def _brute_force_decomposable(edges) -> bool:
    total = sum(g for _, g in edges)
    for counts in product(*(range(g + 1) for _, g in edges)):
        if 0 < sum(counts) < total and all(
            sum(c * prim[k] for c, (prim, _) in zip(counts, edges)) == 0 for k in (0, 1)
        ):
            return True
    return False


@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=3, max_size=6, unique=True))
@settings(max_examples=150, deadline=None)
def test_polygon_search_matches_sub_multiset_enumeration(points):
    support = Support(2, tuple(points))
    if affine_dimension(support) < 2:
        return
    report = polygon_indecomposability(support)
    expected = POLYGON_DECOMPOSABLE if _brute_force_decomposable(report.edges) else POLYGON_INDECOMPOSABLE
    assert report.status == expected

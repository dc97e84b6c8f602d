import json
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import fraction_solve_affine, zero_min_wide_corpus
from gvand.errors import DegenerateSupportError, NotSimplicialError
from gvand.exponents import Support, affine_dimension, d_gamma, reduce_to_span_coordinates
from gvand.tropical import (
    TROPICAL_IRREDUCIBLE,
    TROPICAL_REDUCIBLE,
    Cell,
    Lifting,
    RegularSubdivision,
    balancing_check,
    combinatorics,
    decide_tropical_irreducibility,
    delaunay_lifting,
    is_ridge_connected,
    multiplicity_gcd,
    regular_subdivision,
    verify_subdivision,
)

UNIT_TRIANGLE = Support(2, ((0, 0), (1, 0), (0, 1)))
SCALED_TRIANGLE = Support(2, ((0, 0), (2, 0), (0, 2)))
UNIT_SQUARE = Support(2, ((0, 0), (1, 0), (0, 1), (1, 1)))


def _flat_lifting(values):
    return Lifting(values=tuple(Fraction(v) for v in values), seed=0, attempts=1)


def test_flat_square_is_one_merged_cell():
    sub = regular_subdivision(UNIT_SQUARE, _flat_lifting([0, 0, 0, 0]))
    assert len(sub.cells) == 1
    assert sub.cells[0].vertices == (0, 1, 2, 3)
    assert not sub.simplicial
    with pytest.raises(NotSimplicialError):
        combinatorics(sub, UNIT_SQUARE)


def test_tilted_square_splits_into_two_triangles():
    sub = regular_subdivision(UNIT_SQUARE, _flat_lifting([0, 0, 0, 1]))
    assert sub.simplicial
    assert tuple(c.vertices for c in sub.cells) == ((0, 1, 2), (1, 2, 3))
    report = verify_subdivision(UNIT_SQUARE, _flat_lifting([0, 0, 0, 1]), sub)
    assert report["ok"], report["failures"]


def test_verify_subdivision_catches_doctoring():
    lifting = _flat_lifting([0, 0, 0, 1])
    sub = regular_subdivision(UNIT_SQUARE, lifting)
    bad = sub.cells[0].__class__(
        vertices=sub.cells[0].vertices,
        normal=sub.cells[0].normal,
        offset=sub.cells[0].offset + 1,
    )
    doctored = sub.__class__(ambient_dim=2, cells=(bad,) + sub.cells[1:], simplicial=True)
    report = verify_subdivision(UNIT_SQUARE, lifting, doctored)
    assert not report["ok"]
    assert report["failures"]


def test_verify_subdivision_checks_on_the_common_denominator():
    # lowering one plane by less than any lifting denominator resolves leaves it
    # below every point, so only the equality set fails
    lifting = _flat_lifting([0, 0, 0, Fraction(1, 7)])
    sub = regular_subdivision(UNIT_SQUARE, lifting)
    cell = sub.cells[0]
    bad = Cell(vertices=cell.vertices, normal=cell.normal, offset=cell.offset - Fraction(1, 3 * 2**64))
    doctored = RegularSubdivision(ambient_dim=2, cells=(bad,) + sub.cells[1:], simplicial=True)
    report = verify_subdivision(UNIT_SQUARE, lifting, doctored)
    assert report["failures"] == ["cell 0: equality set [] != vertices [0, 1, 2]"]


def _fraction_subdivision(support, lifting):
    """Reference: the lower-hull subset search evaluated in Fraction arithmetic."""
    m = support.n
    points, values = support.vectors, lifting.values
    found = {}
    for subset in combinations(range(len(points)), m + 1):
        plane = fraction_solve_affine([points[i] for i in subset], [values[i] for i in subset])
        if plane is None:
            continue
        normal, offset = plane
        vals = [sum(a * x for a, x in zip(normal, pt)) + offset for pt in points]
        if any(v > lift for v, lift in zip(vals, values)):
            continue
        key = tuple(t for t, (v, lift) in enumerate(zip(vals, values)) if v == lift)
        found.setdefault(key, Cell(vertices=key, normal=normal, offset=offset))
    cells = tuple(found[k] for k in sorted(found))
    simplicial = bool(cells) and all(len(c.vertices) == m + 1 for c in cells)
    return RegularSubdivision(ambient_dim=m, cells=cells, simplicial=simplicial)


@st.composite
def _lifted_supports(draw):
    n = draw(st.integers(1, 3))
    N = draw(st.integers(2, 8))
    coords = st.integers(0, 4 if n > 1 else 12)
    vecs = draw(st.lists(st.tuples(*[coords] * n), min_size=N, max_size=N, unique=True))
    support, _ = reduce_to_span_coordinates(Support(n, tuple(vecs)))
    # small numerators make flat, non-simplicial cells common
    dens = st.sampled_from((1, 3, 7, 2**64))
    values = draw(
        st.lists(
            st.builds(Fraction, st.integers(-3, 3), dens), min_size=support.N, max_size=support.N
        )
    )
    return support, Lifting(values=tuple(values), seed=0, attempts=1)


@given(_lifted_supports())
@example((UNIT_SQUARE, _flat_lifting([0, 0, 0, 0])))
@example((UNIT_SQUARE, _flat_lifting([Fraction(1, 3), Fraction(1, 7), 0, Fraction(-4, 21)])))
@example(
    (
        Support(3, ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))),
        _flat_lifting([0, Fraction(1, 2**64), Fraction(-2, 7), Fraction(1, 3), 0]),
    )
)
def test_regular_subdivision_matches_the_fraction_search(case):
    support, lifting = case
    assert affine_dimension(support) == support.n
    sub = regular_subdivision(support, lifting)
    assert sub == _fraction_subdivision(support, lifting)
    assert verify_subdivision(support, lifting, sub)["ok"]


def test_lifting_is_deterministic_per_seed():
    a = delaunay_lifting(UNIT_SQUARE, seed=3)
    b = delaunay_lifting(UNIT_SQUARE, seed=3)
    assert a == b
    c = delaunay_lifting(UNIT_SQUARE, seed=4)
    assert c.values != a.values
    assert all(isinstance(v, Fraction) for v in a.values)


def test_lifting_requires_reduced_support():
    line = Support(2, ((0, 0), (1, 1), (2, 2)))
    with pytest.raises(DegenerateSupportError):
        delaunay_lifting(line)
    with pytest.raises(DegenerateSupportError):
        regular_subdivision(line, _flat_lifting([0, 0, 0]))


def test_witness_covers_all_points_and_verifies():
    support = Support(2, ((0, 0), (3, 0), (0, 3), (1, 1), (2, 2)))
    lifting = delaunay_lifting(support, seed=0)
    sub = regular_subdivision(support, lifting)
    assert sub.simplicial
    covered = set()
    for cell in sub.cells:
        covered.update(cell.vertices)
    assert covered == set(range(support.N))
    assert verify_subdivision(support, lifting, sub)["ok"]


def test_unit_triangle_combinatorics():
    lifting = delaunay_lifting(UNIT_TRIANGLE, seed=0)
    sub = regular_subdivision(UNIT_TRIANGLE, lifting)
    tc = combinatorics(sub, UNIT_TRIANGLE)
    assert [f.vertices for f in tc.facets] == [(0, 1), (0, 2), (1, 2)]
    assert [f.multiplicity for f in tc.facets] == [1, 1, 1]
    assert len(tc.ridges) == 1
    assert tc.ridges[0].vertices == (0, 1, 2)
    assert multiplicity_gcd(tc) == 1
    assert is_ridge_connected(tc)
    assert balancing_check(tc, UNIT_TRIANGLE)["ok"]


def test_scaled_triangle_multiplicities():
    lifting = delaunay_lifting(SCALED_TRIANGLE, seed=0)
    sub = regular_subdivision(SCALED_TRIANGLE, lifting)
    tc = combinatorics(sub, SCALED_TRIANGLE)
    assert [f.multiplicity for f in tc.facets] == [2, 2, 2]
    assert multiplicity_gcd(tc) == 2
    assert balancing_check(tc, SCALED_TRIANGLE)["ok"]


def test_ridge_facet_indices_are_consistent():
    support = Support(2, ((0, 0), (2, 0), (0, 2), (1, 1), (2, 2)))
    lifting = delaunay_lifting(support, seed=1)
    sub = regular_subdivision(support, lifting)
    tc = combinatorics(sub, support)
    from itertools import combinations as combos

    for ridge in tc.ridges:
        pairs = {tc.facets[i].vertices for i in ridge.facets}
        assert pairs == set(combos(ridge.vertices, 2))
    for a, b in tc.adjacency:
        assert 0 <= a < b < len(tc.facets)


def test_decision_unit_triangle_irreducible():
    cert = decide_tropical_irreducibility(UNIT_TRIANGLE, seed=0)
    assert cert.verdict == TROPICAL_IRREDUCIBLE
    assert cert.multiplicity_gcd == 1
    assert cert.ridge_connected is True
    assert all(c.holds for c in cert.conditions)


def test_decision_scaled_triangle_reducible():
    cert = decide_tropical_irreducibility(SCALED_TRIANGLE, seed=0)
    assert cert.verdict == TROPICAL_REDUCIBLE
    assert cert.multiplicity_gcd == 2
    failing = [c.name for c in cert.conditions if not c.holds]
    assert failing == ["scale"]


def test_decision_is_characteristic_blind_content():
    shifted = Support(2, ((1, 1), (2, 1), (1, 2)))
    cert = decide_tropical_irreducibility(shifted, seed=0)
    assert cert.verdict == TROPICAL_REDUCIBLE
    failing = [c.name for c in cert.conditions if not c.holds]
    assert failing == ["content"]
    # the witness still exists and shows scale gcd 1
    assert cert.multiplicity_gcd == 1


def test_decision_collinear_support():
    line = Support(2, ((0, 0), (1, 1), (2, 2)))
    cert = decide_tropical_irreducibility(line, seed=0)
    assert cert.verdict == TROPICAL_REDUCIBLE
    failing = [c.name for c in cert.conditions if not c.holds]
    assert failing == ["span"]
    # 1-dimensional witness: two facets, no ridges, trivially disconnected
    assert cert.multiplicity_gcd == 1
    assert cert.ridge_connected is False


def test_decision_single_point_support():
    cert = decide_tropical_irreducibility(Support(2, ((0, 0),)), seed=0)
    assert cert.verdict == TROPICAL_REDUCIBLE
    assert cert.multiplicity_gcd is None
    assert cert.lifting is None
    blob = cert.to_json()
    assert blob["subdivision"] is None
    json.dumps(blob)


def test_decision_deterministic_json():
    support = Support(2, ((0, 0), (3, 1), (1, 3), (2, 2)))
    a = decide_tropical_irreducibility(support, seed=11).to_json()
    b = decide_tropical_irreducibility(support, seed=11).to_json()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    c = decide_tropical_irreducibility(support, seed=12).to_json()
    assert c["verdict"] == a["verdict"]


def test_multiplicity_gcd_matches_scale_gcd_on_random_supports():
    corpus = zero_min_wide_corpus(25, seed=4255)
    for support in corpus:
        cert = decide_tropical_irreducibility(support, seed=7)
        assert cert.multiplicity_gcd == d_gamma(support)
        reduced, _ = reduce_to_span_coordinates(support)
        assert cert.ridge_connected in (True, False)


def test_span_reduction_feeds_higher_dimensional_supports():
    # a support in 3 ambient coordinates with a 2-dimensional span
    support = Support(3, ((0, 0, 0), (1, 0, 1), (0, 1, 1), (1, 1, 2)))
    cert = decide_tropical_irreducibility(support, seed=0)
    assert cert.verdict == TROPICAL_IRREDUCIBLE
    assert cert.subdivision.ambient_dim == 2

import io
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "deterministic",
    settings(derandomize=True, max_examples=60, suppress_health_check=[HealthCheck.too_slow]),
)
settings.load_profile("deterministic")

from gvand.exponents import Support, affine_dimension, normalize
from gvand.linalg import integer_rank
from gvand.poly import grid_var
from gvand.tropical import (
    LIFT_DENOMINATOR,
    Lifting,
    RegularSubdivision,
    TropicalCombinatorics,
    _integer_lift,
    _witness,
)
from gvand.vandermonde import vandermonde_determinant


def stdin_of(text: str):
    """A stand-in for sys.stdin holding ``text``.  The CLI reads stdin's
    bytes from ``.buffer``, so this is a text stream over a byte buffer,
    as the real stdin is; an io.StringIO has no buffer."""
    return io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8")


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            c = ai[k]
            if c == 0:
                continue
            bk = b[k]
            for j in range(cols):
                oi[j] += c * bk[j]
    return out


def integer_det(rows) -> int:
    """Fraction-free Bareiss determinant: the reference for the SNF tests."""
    a = [list(map(int, r)) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    assert all(len(r) == n for r in a), "determinant needs a square matrix"
    sign = 1
    prev = 1
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        for i in range(col + 1, n):
            for j in range(col + 1, n):
                a[i][j] = (a[col][col] * a[i][j] - a[i][col] * a[col][j]) // prev
            a[i][col] = 0
        prev = a[col][col]
    return sign * a[n - 1][n - 1]


def fraction_solve_affine(points, values):
    """Reference for linalg.solve_affine: Gauss-Jordan over Fraction on [point | 1 | value].

    Returns (a, b) with a a tuple of Fractions, or None when singular.
    """
    n = len(points)
    aug = [[Fraction(x) for x in pt] + [Fraction(1), Fraction(v)] for pt, v in zip(points, values)]
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for i in range(n):
            if i != col:
                c = aug[i][col]
                aug[i] = [x - c * y for x, y in zip(aug[i], aug[col])]
    sol = [row[n] for row in aug]
    return tuple(sol[:-1]), sol[-1]


def row_support(p, n: int, row: int = 1) -> set:
    """Exponent vectors of one row's n variables across the terms of p."""
    base = (row - 1) * n
    return {exp[base : base + n] for exp in dict(p.terms())}


def classical_reassembles(support: Support, quotient) -> bool:
    """quotient * prod_{i<j} (X_i_1 - X_j_1) equals the determinant over ZZ."""
    det = vandermonde_determinant(support)
    ring = det.ring
    product = quotient
    for i in range(1, support.N + 1):
        for j in range(i + 1, support.N + 1):
            product = product * (ring.variable(grid_var(i, 1)) - ring.variable(grid_var(j, 1)))
    return product == det


#### reference checks of the tropical witness and the line split ####


def delaunay_lifting(support: Support, seed: int = 0) -> Lifting:
    """A perturbed-paraboloid lifting whose subdivision is simplicial.

    The witness search keeps the lifting as integers over LIFT_DENOMINATOR**2.
    """
    attempts, lift, _ = _witness(support, seed)
    values = tuple(Fraction(v, LIFT_DENOMINATOR**2) for v in lift)
    return Lifting(values=values, seed=seed, attempts=attempts)


def verify_subdivision(support: Support, lifting: Lifting, sub: RegularSubdivision) -> dict:
    """Re-check every cell witness; returns {'ok': bool, 'failures': [...]}.

    Each cell's plane and the lifting are compared as integers over
    their common denominator.
    """
    failures = []
    m = sub.ambient_dim
    points = support.vectors
    scale, lifted = _integer_lift(lifting.values)
    for idx, cell in enumerate(sub.cells):
        coeffs = (*cell.normal, cell.offset)
        den = math.lcm(scale, *(c.denominator for c in coeffs))
        *normal, offset = (c.numerator * (den // c.denominator) for c in coeffs)
        k = den // scale
        on_plane = []
        for t, pt in enumerate(points):
            val = sum(map(operator.mul, normal, pt)) + offset
            bound = k * lifted[t]
            if val > bound:
                failures.append(f"cell {idx}: witness plane is above lifted point {t}")
            elif val == bound:
                on_plane.append(t)
        if tuple(on_plane) != cell.vertices:
            failures.append(f"cell {idx}: equality set {on_plane} != vertices {list(cell.vertices)}")
        if len(cell.vertices) == m + 1:
            base = points[cell.vertices[0]]
            diffs = [
                [points[v][j] - base[j] for j in range(m)] for v in cell.vertices[1:]
            ]
            if integer_rank(diffs) != m:
                failures.append(f"cell {idx}: simplex vertices are affinely dependent")
    return {"ok": not failures, "failures": failures}


def balancing_check(tc: TropicalCombinatorics, support: Support) -> dict:
    """Oriented multiplicity-weighted edge vectors around each ridge sum to zero.

    This always holds, so the decision does not run it: a triangle's three
    oriented edge vectors telescope to zero, and each stored multiplicity
    is the same gcd of the edge vector recomputed here.
    """
    failures = []
    for ridge in tc.ridges:
        u, v, w = ridge.vertices
        total = [0] * support.n
        for s, t in ((u, v), (v, w), (w, u)):
            vec = [a - b for a, b in zip(support.vectors[t], support.vectors[s])]
            mult = tc.facets[_facet_of(tc, s, t)].multiplicity
            g = math.gcd(*vec) if len(vec) > 1 else abs(vec[0])
            if g != mult:
                failures.append(
                    f"ridge {ridge.vertices}: edge ({s},{t}) lattice length {g} != stored {mult}"
                )
                continue
            prim = [x // g for x in vec]
            for k in range(support.n):
                total[k] += mult * prim[k]
        if any(total):
            failures.append(f"ridge {ridge.vertices}: boundary sum {total} is nonzero")
    return {"ok": not failures, "n_ridges": len(tc.ridges), "failures": failures}


def simplicial_cells(sub: RegularSubdivision) -> tuple:
    """The cells' vertex tuples of a simplicial subdivision, as tropical._dual reads them."""
    assert sub.simplicial, "the dual combinatorics needs a simplicial subdivision"
    return tuple(c.vertices for c in sub.cells)


def multiplicity_gcd(tc: TropicalCombinatorics) -> int:
    """Reference for the decision's multiplicity gcd: the gcd of the facet multiplicities."""
    g = math.gcd(*(f.multiplicity for f in tc.facets))
    assert g > 0, "a nonempty subdivision has at least one facet"
    return g


def is_ridge_connected(tc: TropicalCombinatorics) -> bool:
    """Reference for the decision's ridge connectivity: a search of the facet graph
    (adjacency through shared ridges)."""
    neighbors = [[] for _ in tc.facets]
    for a, b in tc.adjacency:
        neighbors[a].append(b)
        neighbors[b].append(a)
    stack = [0] if neighbors else []
    seen = set(stack)
    while stack:
        for nxt in neighbors[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == len(neighbors)


def _facet_of(tc: TropicalCombinatorics, s: int, t: int) -> int:
    key = (s, t) if s < t else (t, s)
    for i, f in enumerate(tc.facets):
        if f.vertices == key:
            return i
    raise KeyError(f"no facet on vertices {key}")


def line_splits(report) -> bool:
    """Whether a LineCaseReport's binomial divides with a quotient of positive degree."""
    return report.quotient_terms is not None and report.quotient_degree > 0


def random_support(rng: random.Random, n: int, N: int, exp_max: int) -> Support:
    assert N <= (exp_max + 1) ** n, "not enough distinct vectors in the exponent box"
    vecs = set()
    while len(vecs) < N:
        vecs.add(tuple(rng.randint(0, exp_max) for _ in range(n)))
    return Support(n, tuple(sorted(vecs)))


def zero_min_wide_corpus(count: int, seed: int):
    """Supports with zero componentwise minimum and affine dimension >= 2.

    Every third member is scaled by 2 or 3 so the corpus mixes scale
    gcd 1 with larger gcds.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.choice((2, 3))
        s = random_support(rng, n, rng.randint(3, 6), 5)
        s = normalize(s)
        if affine_dimension(s) < 2:
            continue
        if len(out) % 3 == 2:
            k = rng.choice((2, 3))
            s = Support(s.n, tuple(tuple(k * x for x in v) for v in s.vectors))
        out.append(s)
    return out


@pytest.fixture(scope="session")
def agreement_corpus():
    return zero_min_wide_corpus(200, seed=20260814)


@pytest.fixture(scope="session")
def determinant_corpus():
    rng = random.Random(977)
    out = []
    for _ in range(100):
        n = rng.randint(1, 3)
        # the exponent box holds only 5 single-coordinate vectors
        top = 5 if n == 1 else 6
        out.append(random_support(rng, n, rng.randint(2, top), 4))
    return out

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
from gvand.poly import grid_var
from gvand.rings import ZZ
from gvand.vandermonde import VandermondeInstance, vandermonde_determinant


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


def row_support(p, inst, row: int = 1) -> set:
    """Exponent vectors of one row's variables across the terms of p."""
    base = (row - 1) * inst.n
    return {exp[base : base + inst.n] for exp in p.term_map()}


def classical_reassembles(support: Support, quotient) -> bool:
    """quotient * prod_{i<j} (X_i_1 - X_j_1) equals the determinant over ZZ."""
    inst = VandermondeInstance(support, ZZ)
    ring = inst.poly_ring()
    product = quotient
    for i in range(1, inst.N + 1):
        for j in range(i + 1, inst.N + 1):
            product = product * (ring.variable(grid_var(i, 1)) - ring.variable(grid_var(j, 1)))
    return product == vandermonde_determinant(inst)


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
        s, _ = normalize(s)
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

"""Cross-checks run by name through ``oracle --check``.

A permutation-sum determinant, divisibility by the classical alternant,
a Jacobian rank mod a prime that proves the minor ratios independent
with nothing expanded, and a lattice-polygon indecomposability
certificate.  These avoid the decision logic, so agreement between
routes means something.  The line check is not an independent route:
it shows the witness that verify's line_split check reads,
irreducibility.collinear_witness, with the binomial it names written
out.  Nothing is expanded.
"""

import math
import random
from collections import namedtuple
from itertools import combinations, permutations

from gvand.errors import AllPointsSingularError, DegenerateSupportError, SizeCapError
from gvand.exponents import Support, affine_dimension, reduce_to_span_coordinates
from gvand.irreducibility import collinear_witness
from gvand.poly import SparsePoly, grid_ring, grid_var
from gvand.rings import ZZ, CoefficientRing
from gvand.vandermonde import vandermonde_determinant

LEIBNIZ_MAX_N = 8
# The classical division forms up to N! * bound term products, where
# bound = prod_{i<j} (g_j - g_i) / (j - i) over the sorted exponents is
# the Schur quotient's coefficient sum and so caps its term count.  At
# the caps a check takes about a second.
CLASSICAL_MAX_N = 7
CLASSICAL_MAX_WORK = math.factorial(7) * 128


#### permutation-sum determinant ####


def _perm_sign(perm) -> int:
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def leibniz_determinant(matrix) -> SparsePoly:
    """Determinant as the signed permutation sum.

    Independent of the structural permutation enumeration in
    gvand.vandermonde, which shares no code with it: this sum multiplies
    generic matrix entries, takes each sign from its own inversion
    count and accumulates terms inline, cancellation allowed, on
    purpose rather than through the shared kernels.
    """
    n = len(matrix)
    if n > LEIBNIZ_MAX_N:
        raise SizeCapError(f"permutation sum over {n}! terms exceeds the N <= {LEIBNIZ_MAX_N} cap")
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant needs a square matrix")
    ring = matrix[0][0].ring
    char = ring.characteristic
    zero_exp = (0,) * ring.nvars
    acc = {}
    for perm in permutations(range(n)):
        sign = _perm_sign(perm)
        prod = {zero_exp: 1}
        for i in range(n):
            entry = matrix[i][perm[i]]._terms
            if not entry:
                prod = {}
                break
            nxt = {}
            for e1, c1 in prod.items():
                for e2, c2 in entry.items():
                    key = tuple(a + b for a, b in zip(e1, e2))
                    val = nxt.get(key, 0) + c1 * c2
                    if char:
                        val %= char
                    if val:
                        nxt[key] = val
                    elif key in nxt:
                        del nxt[key]
            prod = nxt
        for e, c in prod.items():
            val = acc.get(e, 0) + sign * c
            if char:
                val %= char
            if val:
                acc[e] = val
            elif e in acc:
                del acc[e]
    return SparsePoly(ring, acc, _canonical=True)  # reduced nonzero coefficients on tuple keys


#### classical alternant divisibility ####


def classical_divisibility_check(support: Support) -> dict:
    """For n = 1 supports the classical alternant divides the determinant.

    Builds prod_{i<j} (X_i_1 - X_j_1) and divides the generalized
    determinant by it exactly; a division with no remainder is the
    proof that det = quotient * alternant.  A failure here falsifies
    the build.  Supports past CLASSICAL_MAX_N or CLASSICAL_MAX_WORK raise
    SizeCapError.
    """
    if support.n != 1:
        raise DegenerateSupportError("classical divisibility needs a single-coordinate support")
    if support.N > CLASSICAL_MAX_N:
        raise SizeCapError(f"N = {support.N} exceeds the classical cap {CLASSICAL_MAX_N}")
    g = sorted(v[0] for v in support.vectors)
    pairs = list(combinations(range(support.N), 2))
    bound = math.prod(g[j] - g[i] for i, j in pairs) // math.prod(j - i for i, j in pairs)
    if math.factorial(support.N) * bound > CLASSICAL_MAX_WORK:
        raise SizeCapError(
            f"classical quotient bound {bound} times N! exceeds the cap {CLASSICAL_MAX_WORK}"
        )
    det = vandermonde_determinant(support)
    ring = det.ring
    alternant = ring.one()
    for i, j in combinations(range(1, support.N + 1), 2):
        alternant = alternant * (ring.variable(grid_var(i, 1)) - ring.variable(grid_var(j, 1)))
    quotient = det.exact_divide(alternant)
    divides = quotient is not None
    return {
        "divides": divides,
        "quotient_terms": quotient.n_terms if divides else None,
        "quotient": quotient,
        "alternant_terms": alternant.n_terms,
    }


#### collinear binomial split ####


class LineCaseReport(
    namedtuple("LineCaseReport", "w line_positions binomial quotient_terms quotient_degree")
):
    """The binomial split of a collinear-support determinant.

    ``w`` is the primitive direction of the line and ``line_positions``
    the position of each support vector along it.  ``quotient_terms``
    and ``quotient_degree`` are the term count and total degree of
    determinant / ``binomial``, both None when the support is off the
    line.
    """

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "w": list(self.w),
            "line_positions": list(self.line_positions),
            "binomial": self.binomial.to_terms_json(),
            "quotient_terms": self.quotient_terms,
        }


def line_case_factor(support: Support, coeff_ring: CoefficientRing = ZZ) -> LineCaseReport:
    """The binomial that divides a collinear support's determinant.

    collinear_witness, the witness that verify's line_split check reads,
    gives the direction w, the positions k and the quotient's size; this
    builds f = X_1^(w+) X_2^(w-) - X_1^(w-) X_2^(w+) over ``coeff_ring``
    from w.  The support lies on the line gamma_lo + k * w, so f
    divides the determinant in every characteristic and whatever the
    monomial content.  Nothing is expanded, so every admitted N runs.
    """
    if support.N < 2 or (reduced := reduce_to_span_coordinates(support)).n != 1:
        raise DegenerateSupportError("line-case factoring needs a support on an affine line")
    w, positions, terms, degree = collinear_witness(support, reduced)
    w_plus, w_minus = tuple(max(x, 0) for x in w), tuple(max(-x, 0) for x in w)
    rest, ring = (0,) * (support.n * (support.N - 2)), grid_ring(coeff_ring, support.N, support.n)
    f = ring.monomial(w_plus + w_minus + rest) - ring.monomial(w_minus + w_plus + rest)
    return LineCaseReport(w, positions, f, terms, degree)


#### algebraic-independence evidence ####


JACOBIAN_PRIME = 2**61 - 1
# the most points at which the rank is evaluated before it is called inconclusive
JACOBIAN_TRIALS = 3


class JacobianReport(namedtuple("JacobianReport", "trials achieved_rank target_rank sample_points")):
    """``sample_points`` holds one {X_i_j: residue mod JACOBIAN_PRIME} per point used."""

    __slots__ = ()

    @property
    def conclusive(self) -> bool:
        return self.achieved_rank == self.target_rank

    def to_json(self) -> dict:
        return {
            "trials": self.trials,
            "achieved_rank": self.achieved_rank,
            "target_rank": self.target_rank,
            "conclusive": self.conclusive,
            "sample_points": [
                {name: str(v) for name, v in sorted(pt.items())}
                for pt in self.sample_points
            ],
        }


def _kernel_vector(rows, q: int):
    """v with rows . v = 0 mod q and v[-1] = 1, from one Gauss-Jordan
    elimination of [M' | -M[:, -1]]; None when M', ``rows`` less their
    last column, is singular mod q."""
    a = [row[:-1] + [-row[-1] % q] for row in rows]
    for col in range(len(a)):
        piv = next((i for i in range(col, len(a)) if a[i][col]), None)
        if piv is None:
            return None
        inv = pow(a[piv][col], -1, q)
        a[piv], a[col] = a[col], [x * inv % q for x in a[piv]]
        for i, row in enumerate(a):
            f = row[col]
            if f and i != col:
                a[i] = [(x - f * y) % q for x, y in zip(row, a[col])]
    return [row[-1] for row in a] + [1]


def jacobian_independence_evidence(support: Support, seed: int = 0) -> JacobianReport:
    """Rank of the Jacobian of the minor ratios Delta_l / Delta_N (l < N)
    at up to JACOBIAN_TRIALS random points mod JACOBIAN_PRIME, with
    nothing expanded.

    Rows 2..N at a point make M, M[i][c] = X_i^(gamma_c).  Its kernel
    vector v = (v', 1) holds the ratios up to sign, and one elimination
    of M' (M less its last column, det M' = Delta_N) finds it, or the
    point is redrawn.  Two columns of M' whose exponents agree mod
    q - 1 coincide at every point, by Fermat, so M' is singular whatever
    the seed: that raises AllPointsSingularError before any sample.
    Differentiating M v = 0 in X_i_j gives
    dv'/dX_i_j = -s_ij M'^-1 e_i, s_ij X_i_j = sum_c gamma_c_j M[i][c] v_c,
    so the rank is the number of rows i with some s_ij nonzero.  Rank
    N - 1 mod the prime at an integer point makes an (N-1)-minor of the
    integer quotient-rule Jacobian nonzero, so the generic rank is N - 1;
    less after all trials is inconclusive.
    """
    if support.N < 2:
        raise DegenerateSupportError("independence evidence needs N >= 2")
    q = JACOBIAN_PRIME
    gammas = support.vectors
    seen = {}
    for g in gammas[:-1]:
        twin = seen.setdefault(tuple(x % (q - 1) for x in g), g)
        if twin != g:
            raise AllPointsSingularError(
                f"exponent vectors {list(twin)} and {list(g)} agree mod 2^61 - 2, so their "
                "columns coincide at every point and the reference minor always vanishes"
            )
    by_coordinate = list(zip(*gammas))  # gamma_c_j over c, one tuple per j
    rng = random.Random(seed)
    target = support.N - 1
    best = 0
    used_points = []
    for _ in range(JACOBIAN_TRIALS):
        for _ in range(20):
            point = [[rng.randint(1, q - 1) for _ in range(support.n)] for _ in range(target)]
            matrix = [
                [math.prod(pow(x, e, q) for x, e in zip(xs, g)) % q for g in gammas]
                for xs in point
            ]
            v = _kernel_vector(matrix, q)
            if v is not None:
                break
        else:
            continue
        used_points.append(
            {grid_var(i, j): x for i, xs in enumerate(point, 2) for j, x in enumerate(xs, 1)}
        )
        rank = sum(
            any(sum(g * m * vc for g, m, vc in zip(gj, row, v)) % q for gj in by_coordinate)
            for row in matrix
        )
        best = max(best, rank)
        if best == target:
            break
    if not used_points:
        raise AllPointsSingularError("the reference minor vanished at every sample; reseed")
    return JacobianReport(
        trials=len(used_points),
        achieved_rank=best,
        target_rank=target,
        sample_points=tuple(used_points),
    )


#### lattice-polygon indecomposability ####


POLYGON_DECOMPOSABLE = "decomposable"
POLYGON_INDECOMPOSABLE = "indecomposable"
POLYGON_UNKNOWN = "unknown"
# The search's time and memory grow with the hull's lattice perimeter;
# decomposability is NP-complete in general (Gao & Lauder 2001).
POLYGON_MAX_PERIMETER = 128
_ZERO, _FULL, _MIXED = 1, 2, 4


class PolygonReport(namedtuple("PolygonReport", "status hull edges")):
    """``edges`` holds (primitive vector, lattice length) pairs, counterclockwise."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "hull": [list(v) for v in self.hull],
            "edges": [
                {"primitive": list(prim), "length": g} for prim, g in self.edges
            ],
        }


def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _convex_hull(points):
    """Monotone chain; counterclockwise corner vertices only."""
    pts = sorted(set(points))
    if len(pts) == 1:
        return pts
    lower = []
    for pt in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], pt) <= 0:
            lower.pop()
        lower.append(pt)
    upper = []
    for pt in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], pt) <= 0:
            upper.pop()
        upper.append(pt)
    return lower[:-1] + upper[:-1]


def polygon_indecomposability(support: Support) -> PolygonReport:
    """Minkowski indecomposability of the support's hull (n = 2 only).

    Decomposable means some proper nonempty sub-multiset of the
    primitive boundary segments closes up to zero, i.e. a proper
    Minkowski summand exists.  Indecomposable together with zero
    monomial content is a sufficient (never necessary) certificate of
    absolute irreducibility in every characteristic.  Supports with
    n != 2 are out of this test's scope and report unknown; hulls whose
    lattice perimeter exceeds POLYGON_MAX_PERIMETER raise SizeCapError.
    """
    if support.n != 2:
        return PolygonReport(status=POLYGON_UNKNOWN, hull=(), edges=())
    if affine_dimension(support) < 2:
        raise DegenerateSupportError("polygon test needs a 2-dimensional hull")
    hull = _convex_hull(support.vectors)
    edges = []
    for k, cur in enumerate(hull):
        nxt = hull[(k + 1) % len(hull)]
        diff = (nxt[0] - cur[0], nxt[1] - cur[1])
        g = math.gcd(diff[0], diff[1])
        edges.append(((diff[0] // g, diff[1] // g), g))

    total = sum(g for _, g in edges)
    if total > POLYGON_MAX_PERIMETER:
        raise SizeCapError(
            f"hull lattice perimeter {total} exceeds the polygon cap {POLYGON_MAX_PERIMETER}"
        )
    # Per partial sum, which kinds of choice reach it: every edge so far
    # takes none of its segments (ZERO), every segment (FULL), or neither
    # (MIXED).  The first edge seeds the table, because the empty choice
    # is both ZERO and FULL.  A MIXED choice closing up at the origin is
    # a proper nonempty summand.
    (px, py), g0 = edges[0]
    reachable = {(c * px, c * py): _ZERO if c == 0 else _FULL if c == g0 else _MIXED for c in range(g0 + 1)}
    for (px, py), g in edges[1:]:
        nxt = {}
        for (sx, sy), kinds in reachable.items():
            for c in range(g + 1):
                grown = kinds & _MIXED
                if kinds & _ZERO:
                    grown |= _ZERO if c == 0 else _MIXED
                if kinds & _FULL:
                    grown |= _FULL if c == g else _MIXED
                key = (sx + c * px, sy + c * py)
                nxt[key] = nxt.get(key, 0) | grown
        reachable = nxt
    decomposable = bool(reachable.get((0, 0), 0) & _MIXED)
    return PolygonReport(
        status=POLYGON_DECOMPOSABLE if decomposable else POLYGON_INDECOMPOSABLE,
        hull=tuple(hull),
        edges=tuple(edges),
    )

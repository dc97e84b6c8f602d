"""Independent verification machinery.

Everything here deliberately avoids the main determinant kernels and
decision logic so that agreement between routes means something: a
permutation-sum determinant, divisibility by the classical alternant,
specialized factoring of collinear supports, numeric rank evidence for
the algebraic independence of minor ratios, and a lattice-polygon
indecomposability certificate.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations

from gvand.errors import (
    AllPointsSingularError,
    DegenerateSupportError,
    SizeCapError,
    SpecializationUnluckyError,
)
from gvand.exponents import (
    Support,
    affine_dimension,
    reduce_to_span_coordinates,
    smith_normal_form,
)
from gvand.linalg import fraction_rank
from gvand.poly import PolyRing, SparsePoly, grid_var
from gvand.reporting import frac_str
from gvand.rings import ZZ
from gvand.vandermonde import (
    VandermondeInstance,
    row_expansion,
    vandermonde_determinant,
)

LEIBNIZ_MAX_N = 8
LINE_CASE_PRIMES = (2, 3, 5)
LINE_CASE_MAX_DEGREE = 24
TRIAL_DIVISOR_MAX_DEGREE = 6
SAMPLE_NUMERATOR_BOUND = 100
SAMPLE_DENOMINATOR_BOUND = 16
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


def leibniz_determinant(matrix, max_n: int = LEIBNIZ_MAX_N) -> SparsePoly:
    """Determinant as the signed permutation sum.

    Independent of the memoized cofactor route: term accumulation is
    done inline here, on purpose, rather than through the shared
    kernels.
    """
    n = len(matrix)
    if n > max_n:
        raise SizeCapError(f"permutation sum over {n}! terms exceeds the N <= {max_n} cap")
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
    return SparsePoly(ring, acc)


#### classical alternant divisibility ####


def classical_divisibility_check(support: Support) -> dict:
    """For n = 1 supports the classical alternant divides the determinant.

    Builds prod_{i<j} (X_i_1 - X_j_1) and divides the generalized
    determinant by it exactly; a division with no remainder is the
    proof that det = quotient * alternant.  A failure here falsifies
    the build.  Supports past CLASSICAL_MAX_N or CLASSICAL_MAX_WORK
    raise SizeCapError.
    """
    if support.n != 1:
        raise ValueError("classical divisibility needs a single-coordinate support")
    if support.N > CLASSICAL_MAX_N:
        raise SizeCapError(f"N = {support.N} exceeds the classical cap {CLASSICAL_MAX_N}")
    g = sorted(v[0] for v in support.vectors)
    pairs = list(combinations(range(support.N), 2))
    bound = math.prod(g[j] - g[i] for i, j in pairs) // math.prod(j - i for i, j in pairs)
    if math.factorial(support.N) * bound > CLASSICAL_MAX_WORK:
        raise SizeCapError(
            f"classical quotient bound {bound} times N! exceeds the cap {CLASSICAL_MAX_WORK}"
        )
    inst = VandermondeInstance(support, ZZ)
    ring = inst.poly_ring()
    det = vandermonde_determinant(inst)
    alternant = ring.one()
    for i, j in combinations(range(1, inst.N + 1), 2):
        alternant = alternant * (ring.variable(grid_var(i, 1)) - ring.variable(grid_var(j, 1)))
    quotient = det.exact_divide(alternant)
    divides = quotient is not None
    return {
        "divides": divides,
        "quotient_terms": quotient.n_terms if divides else None,
        "quotient": quotient,
        "alternant_terms": alternant.n_terms,
    }


#### collinear-case specialized factoring ####


@dataclass(frozen=True)
class LineCaseReport:
    """Specialized univariate split of a collinear-support determinant."""

    prime: int
    specialization: dict  # variable name -> residue
    exponent_map: tuple  # the functional applied to row-1 exponents
    line_positions: tuple  # position of each support vector along the line
    univariate: SparsePoly
    factors: tuple  # (factor poly, multiplicity) pairs, unit omitted
    unit: int
    n_factors: int

    def to_json(self) -> dict:
        return {
            "prime": self.prime,
            "specialization": dict(sorted(self.specialization.items())),
            "exponent_map": list(self.exponent_map),
            "line_positions": list(self.line_positions),
            "univariate": self.univariate.to_terms_json(),
            "unit": self.unit,
            "factors": [
                {"poly": f.to_terms_json(), "multiplicity": m} for f, m in self.factors
            ],
            "n_factors": self.n_factors,
        }


def _line_functional(support: Support, positions) -> tuple:
    """Integer u with u . direction = +-1 and u . gamma >= 0 on the support.

    The support is collinear: gamma_l = base + positions[l] * w with w
    primitive.  A Bezout functional for w comes from the Smith form of
    w as a column; rows of U below the first annihilate w, so they can
    shift the functional until it is non-negative on the base point.
    """
    base = next(v for v, r in zip(support.vectors, positions) if r == 0)
    ref_idx = max(range(support.N), key=lambda k: positions[k])
    r_ref = positions[ref_idx]
    w = tuple((a - b) // r_ref for a, b in zip(support.vectors[ref_idx], base))
    snf = smith_normal_form([[x] for x in w])
    assert snf.D[0][0] == 1, "line direction is primitive"
    u0 = snf.U[0]
    dot = lambda a, b: sum(x * y for x, y in zip(a, b))
    u = tuple(u0)
    if dot(u, base) < 0:
        shift = next((row for row in snf.U[1:] if dot(row, base) != 0), None)
        if shift is None:
            # base is itself a multiple of w; the reversed functional works
            u = tuple(-x for x in u0)
        else:
            if dot(shift, base) < 0:
                shift = tuple(-x for x in shift)
            need, step = -dot(u, base), dot(shift, base)
            k = (need + step - 1) // step
            u = tuple(a + k * b for a, b in zip(u, shift))
    assert all(dot(u, v) >= 0 for v in support.vectors), "functional must stay non-negative"
    assert abs(dot(u, w)) == 1, "functional must be unimodular along the line"
    return u


def _univariate_coeffs(p: SparsePoly):
    """Dense coefficient list of a one-variable polynomial, low degree first."""
    deg = 0 if p.is_zero() else max(e[0] for e in p.term_map())
    out = [0] * (deg + 1)
    for exp, c in p.term_map().items():
        out[exp[0]] = c
    return out


def _u_divmod(num, den, p):
    """Polynomial divmod of dense coefficient lists over GF(p), den monic-izable."""
    num = list(num)
    dden = len(den) - 1
    inv_lead = pow(den[-1], p - 2, p)
    quot = [0] * (len(num) - dden) if len(num) > dden else [0]
    for k in range(len(num) - 1, dden - 1, -1):
        c = (num[k] * inv_lead) % p
        if c:
            quot[k - dden] = c
            for i, d in enumerate(den):
                num[k - dden + i] = (num[k - dden + i] - c * d) % p
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


def _u_is_zero(coeffs) -> bool:
    return all(c == 0 for c in coeffs)


def _monic_candidates(degree, p):
    """All monic dense polynomials of the given degree over GF(p)."""
    lows = [[]]
    for _ in range(degree):
        lows = [low + [c] for low in lows for c in range(p)]
    for low in lows:
        yield low + [1]


def _factor_univariate(poly: SparsePoly, p: int):
    """Brute-force trial division over GF(p); returns (unit, [(factor, mult)]).

    Monic candidate divisors are tried in increasing degree.  Candidate
    degree is capped (TRIAL_DIVISOR_MAX_DEGREE); a remaining cofactor of
    higher degree is reported as a single unsplit piece, which keeps
    the product reconstruction exact.
    """
    assert not poly.is_zero()
    ring = poly.ring
    coeffs = _univariate_coeffs(poly)
    factors = []
    # monomial factors first: T with multiplicity = low-degree gap
    shift = next(i for i, c in enumerate(coeffs) if c)
    if shift:
        factors.append((ring.variable("T"), shift))
        coeffs = coeffs[shift:]
    unit = coeffs[-1] % p
    inv_unit = pow(unit, p - 2, p)
    coeffs = [(c * inv_unit) % p for c in coeffs]
    degree = 1
    while 2 * degree <= len(coeffs) - 1 and degree <= TRIAL_DIVISOR_MAX_DEGREE:
        for cand in _monic_candidates(degree, p):
            if 2 * degree > len(coeffs) - 1:
                break
            mult = 0
            while len(coeffs) - 1 >= degree:
                quot, rem = _u_divmod(coeffs, cand, p)
                if _u_is_zero(rem):
                    mult += 1
                    coeffs = quot
                else:
                    break
            if mult:
                fpoly = ring.from_terms(((i,), c) for i, c in enumerate(cand))
                factors.append((fpoly, mult))
        degree += 1
    if len(coeffs) > 1:
        fpoly = ring.from_terms(((i,), c) for i, c in enumerate(coeffs))
        factors.append((fpoly, 1))
    return unit, factors


def line_case_factor(
    inst: VandermondeInstance,
    seed: int = 0,
    max_degree: int = LINE_CASE_MAX_DEGREE,
    max_attempts: int = 200,
) -> LineCaseReport:
    """Exhibit a factorization after specializing a collinear support.

    Rows 2..N are specialized at random residues (nonzero ones for
    p > 2), turning the determinant into a univariate polynomial in one
    line parameter via substitute_monomial_map on row 1.  The last
    minor must not vanish and the specialized support must keep degree
    >= 2; failing draws are resampled.  Every specialized row is a root
    of the univariate (two equal matrix rows), which is what forces the
    split for p in {3, 5}.
    """
    p = inst.coeff_ring.characteristic
    if p not in LINE_CASE_PRIMES:
        raise ValueError(f"line-case factoring runs over GF(p) for p in {LINE_CASE_PRIMES}")
    support = inst.support
    if affine_dimension(support) != 1:
        raise ValueError("line-case factoring needs a support on an affine line")
    reduced, _ = reduce_to_span_coordinates(support)
    positions = tuple(v[0] for v in reduced.vectors)
    if max(positions) > max_degree:
        raise SizeCapError(
            f"reduced line degree {max(positions)} exceeds the cap {max_degree}"
        )
    u = _line_functional(support, positions)

    expansion = row_expansion(inst)
    grid = inst.poly_ring()
    tring = PolyRing(inst.coeff_ring, ("T",))
    spec_vars = [grid_var(i, j) for i in range(2, inst.N + 1) for j in range(1, inst.n + 1)]
    exp_matrix = [list(u) + [0] * ((inst.N - 1) * inst.n)]

    rng = random.Random(seed)
    for _ in range(max_attempts):
        if p == 2:
            point = {v: rng.randrange(2) for v in spec_vars}
        else:
            point = {v: rng.randrange(1, p) for v in spec_vars}
        reference = expansion.minors[-1].evaluate(point)
        if reference == 0:
            continue
        coeffs = [minor.evaluate(point) for minor in expansion.minors[:-1]] + [reference]
        specialized = grid.zero()
        for l in range(inst.N):
            c = coeffs[l] if expansion.signs[l] == 0 else -coeffs[l]
            specialized = specialized + grid.monomial(
                _row1_exponents(inst, l), c
            )
        univariate = specialized.substitute_monomial_map(exp_matrix, tring)
        if univariate.total_degree() < 2:
            continue
        unit, factors = _factor_univariate(univariate, p)
        n_factors = sum(m for _, m in factors)
        if n_factors < 2:
            continue
        check = tring.constant(unit)
        for f, m in factors:
            check = check * f**m
        assert check == univariate, "factor product must reassemble the univariate"
        return LineCaseReport(
            prime=p,
            specialization=point,
            exponent_map=u,
            line_positions=positions,
            univariate=univariate,
            factors=tuple(factors),
            unit=unit,
            n_factors=n_factors,
        )
    raise SpecializationUnluckyError(
        f"no split-exhibiting specialization within {max_attempts} draws over GF({p})"
    )


def _row1_exponents(inst: VandermondeInstance, l: int) -> tuple:
    exps = [0] * (inst.N * inst.n)
    for j, e in enumerate(inst.support.vectors[l]):
        exps[j] = e
    return tuple(exps)


#### algebraic-independence evidence ####


@dataclass(frozen=True)
class JacobianReport:
    trials: int
    achieved_rank: int
    target_rank: int
    sample_points: tuple

    def __post_init__(self):
        assert self.achieved_rank <= self.target_rank

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
                {name: frac_str(v) for name, v in sorted(pt.items())}
                for pt in self.sample_points
            ],
        }


def jacobian_independence_evidence(
    support: Support, trials: int = 3, seed: int = 0
) -> JacobianReport:
    """Numeric rank evidence that the minor ratios are independent.

    The ratios Delta_l / Delta_N (l < N) are differentiated by the
    quotient rule; only the numerator matrix [d Delta_l * Delta_N -
    Delta_l * d Delta_N] matters for rank.  Reaching rank N - 1 at any
    sampled rational point is positive evidence; anything less after
    all trials is merely inconclusive.
    """
    if support.N < 2:
        raise DegenerateSupportError("independence evidence needs N >= 2")
    inst = VandermondeInstance(support, ZZ)
    expansion = row_expansion(inst)
    minors = expansion.minors
    var_names = [
        grid_var(i, j) for i in range(2, inst.N + 1) for j in range(1, inst.n + 1)
    ]
    partials = [[m.partial_derivative(v) for v in var_names] for m in minors]

    rng = random.Random(seed)
    target = inst.N - 1
    best = 0
    used_points = []
    singular_only = True
    for _ in range(trials):
        point = None
        for _ in range(20):
            cand = {
                name: Fraction(
                    rng.randint(-SAMPLE_NUMERATOR_BOUND, SAMPLE_NUMERATOR_BOUND),
                    rng.randint(1, SAMPLE_DENOMINATOR_BOUND),
                )
                for name in var_names
            }
            if minors[-1].evaluate(cand) != 0:
                point = cand
                break
        if point is None:
            continue
        singular_only = False
        used_points.append(point)
        d_n = minors[-1].evaluate(point)
        v_n = [pd.evaluate(point) for pd in partials[-1]]
        rows = []
        for l in range(target):
            d_l = minors[l].evaluate(point)
            rows.append(
                [
                    partials[l][k].evaluate(point) * d_n - d_l * v_n[k]
                    for k in range(len(var_names))
                ]
            )
        best = max(best, fraction_rank(rows))
        if best == target:
            break
    if singular_only:
        raise AllPointsSingularError(
            "the reference minor vanished at every sample; widen the sample range or reseed"
        )
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


@dataclass(frozen=True)
class PolygonReport:
    status: str
    hull: tuple
    edges: tuple  # (primitive vector, lattice length) pairs, counterclockwise

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
    reachable = {(0, 0): {0}}  # partial sum -> set of segment counts used
    for prim, g in edges:
        nxt = {}
        for (sx, sy), counts in reachable.items():
            for c in range(g + 1):
                key = (sx + c * prim[0], sy + c * prim[1])
                bucket = nxt.setdefault(key, set())
                bucket.update(k + c for k in counts)
        reachable = nxt
    closed_counts = reachable.get((0, 0), set())
    decomposable = any(0 < k < total for k in closed_counts)
    return PolygonReport(
        status=POLYGON_DECOMPOSABLE if decomposable else POLYGON_INDECOMPOSABLE,
        hull=tuple(hull),
        edges=tuple(edges),
    )

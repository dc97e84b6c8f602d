"""Generalized Vandermonde matrices and their exact determinants.

An instance pairs a support (N exponent vectors in NN^n) with a
coefficient ring.  The matrix is N x N over the grid variables X_i_j:
row i is the point X_i = (X_i_1 .. X_i_n) and column l is the monomial
X_i^(gamma_l).  Determinants expand by memoized cofactors along the
topmost remaining row, sharing minors across column subsets.  One memo
over the full matrix yields the determinant and every first-row minor:
minor l is the entry for the column subset without l.  The memo works
on raw term maps keyed by exponent suffixes (only the rows a subset
covers), so multiplying by an entry is a tuple concatenation; only the
determinant and the minors become SparsePoly values.  build_matrix
serves the permutation-sum oracle, which takes its own route.
"""

import math
from dataclasses import dataclass

from gvand.errors import InvariantViolationError, SizeCapError
from gvand.exponents import Support
from gvand.poly import PolyRing, SparsePoly, grid_ring
from gvand.rings import ZZ, CoefficientRing

DEFAULT_MAX_N = 12
# N! terms held as tuples: N = 9 peaks near 1 GB, N = 10 would need ~10 GB
EXPAND_MAX_N = 9


@dataclass(frozen=True)
class VandermondeInstance:
    support: Support
    coeff_ring: CoefficientRing = ZZ

    @property
    def N(self) -> int:
        return self.support.N

    @property
    def n(self) -> int:
        return self.support.n

    def poly_ring(self) -> PolyRing:
        return grid_ring(self.coeff_ring, self.N, self.n)


def _entry_exponents(inst: VandermondeInstance, row: int, col: int) -> tuple:
    """Exponent vector of the (row, col) entry over the full grid (0-based)."""
    n, gamma = inst.n, inst.support.vectors[col]
    exps = [0] * (inst.N * n)
    base = row * n
    for j in range(n):
        exps[base + j] = gamma[j]
    return tuple(exps)


def build_matrix(inst: VandermondeInstance):
    """The N x N matrix of monomial entries X_i^(gamma_l)."""
    ring = inst.poly_ring()
    one = ring.coeff_ring.normalize(1)
    return [
        [
            SparsePoly(ring, {_entry_exponents(inst, i, l): one}, _canonical=True)
            for l in range(inst.N)
        ]
        for i in range(inst.N)
    ]


class _SubsetMinors:
    """Memoized cofactor expansion over column subsets of the last rows.

    det(mask) is the determinant of the submatrix on the columns in
    ``mask`` and the last popcount(mask) rows, expanded along the topmost
    of those rows and shared across overlapping subsets.  It is a raw
    term map whose keys hold only the exponents of the rows it covers: a
    suffix of the full grid vector.  Every entry is the monomial
    X_i^(gamma_l), so the product with the top row's entry is the tuple
    concatenation gamma_l + e, and no vector is ever added slot by slot.
    """

    def __init__(self, support: Support, coeff_ring: CoefficientRing):
        self.gammas = support.vectors
        # every key of det(mask) starts with the gamma of the column it took
        # from the top row, so visiting columns by descending gamma inserts
        # the keys in descending order: the graded-lex sort finds one run
        self.order = sorted(range(support.N), key=self.gammas.__getitem__, reverse=True)
        self.modulus = coeff_ring.characteristic
        self.memo = {0: {(): coeff_ring.normalize(1)}}

    def det(self, mask: int) -> dict:
        cached = self.memo.get(mask)
        if cached is not None:
            return cached
        modulus = self.modulus
        acc = {}
        get = acc.get
        for col in self.order:
            bit = 1 << col
            if not mask & bit:
                continue
            # cofactor sign: the column's place among the subset's columns
            sign = -1 if (mask & (bit - 1)).bit_count() & 1 else 1
            gamma = self.gammas[col]
            for e, c in self.det(mask ^ bit).items():
                key = gamma + e
                val = get(key, 0) + sign * c
                if modulus:
                    val %= modulus
                if val:
                    acc[key] = val
                elif key in acc:
                    del acc[key]
        self.memo[mask] = acc
        return acc


@dataclass(frozen=True)
class RowExpansion:
    """First-row cofactor data: V = sum_l (-1)^(1+l) X_1^(gamma_l) Delta_l.

    ``signs`` holds (1 + l) mod 2 per column (0 means +1), so the sign
    factor is (-1)^signs[l-1]; ``determinant`` is V itself.
    """

    signs: tuple
    minors: tuple
    determinant: SparsePoly


def require_expandable(N: int):
    """Raise SizeCapError when N! terms would not fit in memory."""
    if N > EXPAND_MAX_N:
        raise SizeCapError(
            f"N = {N} exceeds the expansion cap {EXPAND_MAX_N}: {N}! terms do not fit in memory"
        )


def row_expansion(inst: VandermondeInstance, max_n: int = DEFAULT_MAX_N) -> RowExpansion:
    """The determinant and all first-row minors with their cofactor signs.

    Rows use disjoint variables and the gamma are distinct, so the
    determinant has exactly N! terms, one per permutation, each with
    coefficient +-1; anything else raises InvariantViolationError.
    N above EXPAND_MAX_N raises SizeCapError whatever ``max_n`` says.
    """
    N = inst.N
    if N > max_n:
        raise SizeCapError(f"N = {N} exceeds the cap {max_n}")
    require_expandable(N)
    # det(full) fills the memo, so each minor at full ^ (1 << l) is a hit
    memo = _SubsetMinors(inst.support, inst.coeff_ring)
    full = (1 << N) - 1
    terms = memo.det(full)
    units = {inst.coeff_ring.normalize(1), inst.coeff_ring.normalize(-1)}
    expected = math.factorial(N)
    if len(terms) != expected or not units.issuperset(terms.values()):
        raise InvariantViolationError(
            f"determinant has {len(terms)} terms, expected N! = {expected} with coefficients +-1"
        )
    ring = inst.poly_ring()
    # minor l covers rows 2..N; row 1's exponents are zero
    row1 = (0,) * inst.n
    minors = tuple(
        SparsePoly(ring, {row1 + e: c for e, c in memo.det(full ^ (1 << l)).items()}, _canonical=True)
        for l in range(N)
    )
    signs = tuple((1 + l) % 2 for l in range(1, N + 1))
    return RowExpansion(signs=signs, minors=minors, determinant=SparsePoly(ring, terms, _canonical=True))


def vandermonde_determinant(inst: VandermondeInstance, max_n: int = DEFAULT_MAX_N) -> SparsePoly:
    return row_expansion(inst, max_n=max_n).determinant


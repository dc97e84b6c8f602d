"""Generalized Vandermonde matrices and their exact determinants.

An instance pairs a support (N exponent vectors in NN^n) with a
coefficient ring.  The matrix is N x N over the grid variables X_i_j:
row i is the point X_i = (X_i_1 .. X_i_n) and column l is the monomial
X_i^(gamma_l).  Determinants expand by memoized cofactors along the
topmost remaining row, sharing minors across column subsets.  One memo
over the full matrix yields the determinant and every first-row minor:
minor l is the entry for the column subset without l.
"""

import math
from dataclasses import dataclass

from gvand import kernels
from gvand.errors import InvariantViolationError, SizeCapError
from gvand.exponents import Support
from gvand.poly import PolyRing, SparsePoly, grid_ring
from gvand.rings import ZZ, CoefficientRing

DEFAULT_MAX_N = 12


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
    """Memoized cofactor expansion over column subsets of fixed rows.

    det(mask) is the determinant of the submatrix on the columns in
    ``mask`` and the last popcount(mask) rows; expansion runs along the
    topmost of those rows.  Minors are shared across overlapping
    subsets, which is what makes repeated first-row minors cheap.
    """

    def __init__(self, rows):
        self.rows = rows
        self.ring = rows[0][0].ring
        self.memo = {}

    def det(self, mask: int) -> SparsePoly:
        size = bin(mask).count("1")
        if size == 0:
            return self.ring.one()
        cached = self.memo.get(mask)
        if cached is not None:
            return cached
        row = self.rows[len(self.rows) - size]
        char = self.ring.characteristic
        acc = {}
        pos = 0
        rest = mask
        while rest:
            col = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            entry = row[col]
            if not entry.is_zero():
                sub = self.det(mask ^ (1 << col))
                if not sub.is_zero():
                    prod = kernels.mul_terms(entry._terms, sub._terms, char)
                    if pos % 2:
                        neg = self.ring.coeff_ring.normalize(-1)
                        prod = {e: self.ring.coeff_ring.normalize(neg * c) for e, c in prod.items()}
                    acc = kernels.add_terms(acc, prod, char)
            pos += 1
        result = SparsePoly(self.ring, acc, _canonical=True)
        self.memo[mask] = result
        return result


@dataclass(frozen=True)
class RowExpansion:
    """First-row cofactor data: V = sum_l (-1)^(1+l) X_1^(gamma_l) Delta_l.

    ``signs`` holds (1 + l) mod 2 per column (0 means +1), so the sign
    factor is (-1)^signs[l-1]; ``determinant`` is V itself.
    """

    signs: tuple
    minors: tuple
    determinant: SparsePoly


def row_expansion(inst: VandermondeInstance, max_n: int = DEFAULT_MAX_N) -> RowExpansion:
    """The determinant and all first-row minors with their cofactor signs.

    Rows use disjoint variables and the gamma are distinct, so the
    determinant has exactly N! terms, one per permutation, each with
    coefficient +-1; anything else raises InvariantViolationError.
    """
    if inst.N > max_n:
        raise SizeCapError(f"N = {inst.N} exceeds the cap {max_n}")
    # det(full) fills the memo, so each minor at full ^ (1 << l) is a hit
    memo = _SubsetMinors(build_matrix(inst))
    full = (1 << inst.N) - 1
    det = memo.det(full)
    minors = tuple(memo.det(full ^ (1 << l)) for l in range(inst.N))
    units = {inst.coeff_ring.normalize(1), inst.coeff_ring.normalize(-1)}
    terms = det._terms
    expected = math.factorial(inst.N)
    if len(terms) != expected or not units.issuperset(terms.values()):
        raise InvariantViolationError(
            f"determinant has {len(terms)} terms, expected N! = {expected} with coefficients +-1"
        )
    signs = tuple((1 + l) % 2 for l in range(1, inst.N + 1))
    return RowExpansion(signs=signs, minors=minors, determinant=det)


def vandermonde_determinant(inst: VandermondeInstance, max_n: int = DEFAULT_MAX_N) -> SparsePoly:
    return row_expansion(inst, max_n=max_n).determinant


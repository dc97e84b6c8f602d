"""Generalized Vandermonde matrices and their exact determinants.

An instance pairs a support (N exponent vectors in NN^n) with a
coefficient ring.  The matrix is N x N over the grid variables X_i_j:
row i is the point X_i = (X_i_1 .. X_i_n) and column l is the monomial
X_i^(gamma_l).  Rows use disjoint variables and the gamma are distinct,
so the determinant is one term per permutation sigma, the monomial
prod_i X_i^(gamma_sigma(i)) with coefficient sign(sigma), and nothing
cancels.  Terms come straight from itertools.permutations: a key is the
concatenation of the gammas a permutation takes, and the signs come as
one list in lex order.  The determinant alone is one enumeration over
all N columns; the first-row expansion enumerates each minor once and
builds the determinant from the minors' keys.  build_matrix serves the
permutation-sum oracle, which takes its own route.
"""

from dataclasses import dataclass
from itertools import chain, permutations

from gvand.errors import SizeCapError
from gvand.exponents import Support
from gvand.poly import PolyRing, SparsePoly, grid_ring
from gvand.rings import ZZ, CoefficientRing

DEFAULT_MAX_N = 12
# N! terms held as tuples.  At N = 9, n = 3 (Python 3.11) expand peaks at
# 0.66 GB with JSON output and 2.0 GB with text, verify at 0.35-0.37 GB;
# N = 10 would need about ten times that
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
    return (0,) * (row * inst.n) + inst.support.vectors[col] + (0,) * ((inst.N - 1 - row) * inst.n)


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


def _lex_signs(m: int, one: int = 1, minus: int = -1) -> tuple:
    """The signs of S_m in lex order, and their negations.

    A permutation that starts with j has j inversions from its head and
    a tail ranked like a permutation of S_(m-1), so the sequence is the
    concatenation over j of (-1)^j times the sequence of S_(m-1).
    """
    pos, neg = [one], [minus]
    for k in range(2, m + 1):
        tail = k % 2
        pos, neg = (pos + neg) * (k // 2) + pos * tail, (neg + pos) * (k // 2) + neg * tail
    return pos, neg


def _permutation_terms(gammas: tuple, coeff_ring: CoefficientRing) -> tuple:
    """The determinant on columns ``gammas`` and the last len(gammas) rows.

    Rows use disjoint variables and the gamma are distinct, so each
    permutation gives its own monomial with coefficient its sign and
    nothing cancels.  Returns (keys, coeffs, negated coeffs): a key holds
    only the exponents of the rows covered, a suffix of the full grid
    vector.  The columns are taken by descending gamma, so the keys come
    in descending order and the graded-lex sort finds one run; the signs
    in that order are the lex-order signs times the order's own sign.
    """
    order = sorted(range(len(gammas)), key=gammas.__getitem__, reverse=True)
    pos, neg = _lex_signs(len(gammas), coeff_ring.normalize(1), coeff_ring.normalize(-1))
    inversions = sum(a > b for i, a in enumerate(order) for b in order[i + 1 :])
    if inversions % 2:
        pos, neg = neg, pos
    keys = list(map(tuple, map(chain.from_iterable, permutations([gammas[c] for c in order]))))
    return keys, pos, neg


@dataclass(frozen=True)
class RowExpansion:
    """First-row cofactor data: V = sum_l (-1)^(1+l) X_1^(gamma_l) Delta_l.

    ``signs`` holds (1 + l) mod 2 per column (0 means +1), so the sign
    factor is (-1)^signs[l-1]; ``determinant`` is V itself.
    """

    signs: tuple
    minors: tuple
    determinant: SparsePoly


def require_expandable(N: int, max_n: int = DEFAULT_MAX_N):
    """Raise SizeCapError when N exceeds ``max_n`` or N! terms would not fit in memory."""
    if N > max_n:
        raise SizeCapError(f"N = {N} exceeds the cap {max_n}")
    if N > EXPAND_MAX_N:
        raise SizeCapError(
            f"N = {N} exceeds the expansion cap {EXPAND_MAX_N}: {N}! terms do not fit in memory"
        )


def row_expansion(inst: VandermondeInstance, max_n: int = DEFAULT_MAX_N) -> RowExpansion:
    """The determinant and all first-row minors with their cofactor signs.

    Each minor is one permutation enumeration over rows 2..N; the
    determinant is assembled from the minors' raw keys by one top-row
    step.  N above EXPAND_MAX_N raises SizeCapError whatever ``max_n``
    says.
    """
    N, gammas = inst.N, inst.support.vectors
    require_expandable(N, max_n)
    ring = inst.poly_ring()
    # minor l covers rows 2..N; row 1's exponents are zero
    row1 = (0,) * inst.n
    minors, det = [None] * N, {}
    for l in sorted(range(N), key=gammas.__getitem__, reverse=True):
        keys, pos, neg = _permutation_terms(gammas[:l] + gammas[l + 1 :], inst.coeff_ring)
        minors[l] = SparsePoly(ring, dict(zip(map(row1.__add__, keys), pos)), _canonical=True)
        # visiting l by descending gamma keeps the determinant's keys descending
        det.update(zip(map(gammas[l].__add__, keys), neg if l % 2 else pos))
    signs = tuple(l % 2 for l in range(N))
    return RowExpansion(signs=signs, minors=tuple(minors), determinant=SparsePoly(ring, det, _canonical=True))


def vandermonde_determinant(inst: VandermondeInstance, max_n: int = DEFAULT_MAX_N) -> SparsePoly:
    """The determinant alone, from one enumeration over all N columns; no minors."""
    require_expandable(inst.N, max_n)
    keys, pos, _ = _permutation_terms(inst.support.vectors, inst.coeff_ring)
    return SparsePoly(inst.poly_ring(), dict(zip(keys, pos)), _canonical=True)

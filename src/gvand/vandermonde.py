"""Generalized Vandermonde matrices and their exact determinants.

An instance pairs a support (N exponent vectors in NN^n) with a
coefficient ring.  The matrix is N x N over the grid variables X_i_j:
row i is the point X_i = (X_i_1 .. X_i_n) and column l is the monomial
X_i^(gamma_l).  Rows use disjoint variables and the gamma are distinct,
so the determinant is one term per permutation sigma, the monomial
prod_i X_i^(gamma_sigma(i)) with coefficient sign(sigma), and nothing
cancels.  Terms come straight from itertools.permutations over a table
of what each row contributes in each column, and the signs come as one
list in lex order.  With gamma_c as every row's entry a term is an
exponent key, the concatenation of the gammas a permutation takes; with
text fragments it is a term of expand's output, which the CLI writes
without building the key.  The determinant alone is one enumeration
over all N columns; the first-row expansion enumerates each minor once
and builds the determinant from the minors' keys.  build_matrix serves
the permutation-sum oracle, which takes its own route.
"""

from dataclasses import dataclass
from itertools import chain, permutations, repeat
from operator import getitem

from gvand.errors import SizeCapError
from gvand.exponents import Support
from gvand.poly import PolyRing, SparsePoly, grid_ring
from gvand.rings import ZZ, CoefficientRing

DEFAULT_MAX_N = 12
# verify holds the N! terms as tuples only for power and collinear verdicts:
# at N = 9 those peak at about 0.35 GB (Python 3.11, measured in a child
# process under RLIMIT_AS), and N = 10 would need about ten times that.  expand streams its output and peaks at
# 56 MB with JSON and 68 MB with text there (about 0.1 GB at n = 8), so
# output size, not memory, bounds it; it shares this cap for now
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


def _lex_signs(m: int, one=1, minus=-1) -> tuple:
    """The signs of S_m in lex order, and their negations, as ``one`` and
    ``minus``: coefficients, or the text that opens a term of each sign.

    A permutation that starts with j has j inversions from its head and
    a tail ranked like a permutation of S_(m-1), so the sequence is the
    concatenation over j of (-1)^j times the sequence of S_(m-1).
    """
    pos, neg = [one], [minus]
    for k in range(2, m + 1):
        tail = k % 2
        pos, neg = (pos + neg) * (k // 2) + pos * tail, (neg + pos) * (k // 2) + neg * tail
    return pos, neg


def permutation_terms(table, gammas: tuple, cols, one, minus) -> tuple:
    """The determinant on columns ``cols`` and the last len(cols) rows.

    Rows use disjoint variables and the gamma are distinct, so each
    permutation gives its own monomial with coefficient its sign and
    nothing cancels.  ``table[r][c]`` is what row r contributes when it
    takes column c: gamma_c itself for exponent keys, a text fragment for
    output.  Returns (terms, coeffs, negated coeffs): terms yields, per
    permutation, the contributions of the rows covered in row order.  The
    columns are taken by descending gamma, so the terms come in descending
    order of their keys and the graded-lex sort finds one run; the signs
    in that order are the lex-order signs times the order's own sign.
    """
    order = sorted(cols, key=gammas.__getitem__, reverse=True)
    pos, neg = _lex_signs(len(order), one, minus)
    inversions = sum(a > b for i, a in enumerate(order) for b in order[i + 1 :])
    if inversions % 2:
        pos, neg = neg, pos
    rows = table[len(table) - len(order) :]
    if all(row is table[-1] for row in rows):
        # rows that share one table permute its entries directly, with no lookup per term
        return permutations([table[-1][c] for c in order]), pos, neg
    return map(map, repeat(getitem), repeat(rows), permutations(order)), pos, neg


def first_row_terms(table, gammas: tuple, one, minus):
    """The determinant's terms, one top-row column at a time.

    Yields (l, terms, coeffs, determinant coeffs) for each column l by
    descending gamma: terms and coeffs are minor l's, from
    permutation_terms over rows 2..N, and the determinant's terms with
    row 1 in column l carry coeffs times (-1)^l.  Visiting l by descending
    gamma keeps the determinant's terms descending.
    """
    N = len(gammas)
    for l in sorted(range(N), key=gammas.__getitem__, reverse=True):
        terms, pos, neg = permutation_terms(table, gammas, [c for c in range(N) if c != l], one, minus)
        yield l, terms, pos, neg if l % 2 else pos


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


def _units(inst: VandermondeInstance) -> tuple:
    """The coefficients 1 and -1 in the instance's coefficient ring."""
    return inst.coeff_ring.normalize(1), inst.coeff_ring.normalize(-1)


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
    for l, terms, pos, det_coeffs in first_row_terms([gammas] * N, gammas, *_units(inst)):
        keys = list(map(tuple, map(chain.from_iterable, terms)))
        minors[l] = SparsePoly(ring, dict(zip(map(row1.__add__, keys), pos)), _canonical=True)
        det.update(zip(map(gammas[l].__add__, keys), det_coeffs))
    signs = tuple(l % 2 for l in range(N))
    return RowExpansion(signs=signs, minors=tuple(minors), determinant=SparsePoly(ring, det, _canonical=True))


def vandermonde_determinant(inst: VandermondeInstance, max_n: int = DEFAULT_MAX_N) -> SparsePoly:
    """The determinant alone, from one enumeration over all N columns; no minors."""
    N, gammas = inst.N, inst.support.vectors
    require_expandable(N, max_n)
    terms, pos, _ = permutation_terms([gammas] * N, gammas, range(N), *_units(inst))
    keys = map(tuple, map(chain.from_iterable, terms))
    return SparsePoly(inst.poly_ring(), dict(zip(keys, pos)), _canonical=True)


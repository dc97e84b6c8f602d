"""Generalized Vandermonde matrices and their exact determinants.

An instance pairs a support (N exponent vectors in NN^n) with a
coefficient ring.  The matrix is N x N over the grid variables X_i_j:
row i is the point X_i = (X_i_1 .. X_i_n) and column l is the monomial
X_i^(gamma_l).  Rows use disjoint variables and the gamma are distinct,
so the determinant is one term per permutation sigma, the monomial
prod_i X_i^(gamma_sigma(i)) with coefficient sign(sigma), and nothing
cancels.  Terms come straight from itertools.permutations of the
columns taken by descending gamma, and the signs come as one list in
lex order.  As an exponent key a term is the concatenation of the gammas
a permutation takes.  As text, a term of expand's output, it is joined
from a table of what each row contributes in each column: the rows above
the last four make a prefix, joined once per prefix, and the last four
rows' texts on each set of four columns are joined once per table, so no
row is looked up per term.  The determinant alone is one enumeration
over all N columns; the first-row expansion enumerates each minor once
and builds the determinant from the minors' keys.  build_matrix serves
the permutation-sum oracle, which takes its own route.
"""

from dataclasses import dataclass
from itertools import chain, combinations, permutations
from math import factorial
from operator import add, getitem

from gvand.errors import SizeCapError
from gvand.exponents import Support
from gvand.poly import PolyRing, SparsePoly, grid_ring
from gvand.rings import ZZ, CoefficientRing

DEFAULT_MAX_N = 12
# verify holds the N! terms as tuples only for a power verdict: at N = 9 it
# peaks at about 0.35 GB (Python 3.11, n = 2 and 3, measured in a child
# process), and N = 10 would need about ten times that.
# expand streams its output: at N = 9 it takes 0.24 s and peaks at 46 MB with
# JSON, 53 MB with text at n = 3, and at most 0.62 s and 107 MB at n = 8 in
# either format, so output size, not memory, bounds it; it shares this cap
# for now
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


def _descending(gammas: tuple, cols) -> list:
    """``cols`` by descending gamma, the order every enumeration takes them in."""
    return sorted(cols, key=gammas.__getitem__, reverse=True)


def _column_order(gammas: tuple, cols, signs: tuple) -> tuple:
    """(order, coeffs, negated coeffs) of the permutations of ``cols``.

    ``order`` is ``cols`` by descending gamma, so the terms of its
    permutations in lex order come in descending order of their keys and
    the graded-lex sort finds one run; their signs are ``signs``, the
    lex-order signs of S_len(cols) from _lex_signs, times the order's own
    sign.
    """
    order = _descending(gammas, cols)
    pos, neg = signs
    inversions = sum(a > b for i, a in enumerate(order) for b in order[i + 1 :])
    return (order, neg, pos) if inversions % 2 else (order, pos, neg)


def _first_row(gammas: tuple, cols, one, minus):
    """The determinant on columns ``cols``, expanded along its first row.

    Yields (c, order, coeffs, determinant coeffs) for each column c the
    first row takes, by descending gamma: order and coeffs are the minor
    on the other columns', from _column_order, and the determinant's
    terms with the first row in column c carry coeffs times (-1)^i, c
    being the i-th of ``cols``.  Visiting c by descending gamma keeps the
    determinant's terms in the lex order of its own permutations.
    """
    cols = sorted(cols)
    signs = _lex_signs(len(cols) - 1, one, minus)
    for c in _descending(gammas, cols):
        i = cols.index(c)
        order, pos, neg = _column_order(gammas, cols[:i] + cols[i + 1 :], signs)
        yield c, order, pos, neg if i % 2 else pos


def _keys(gammas: tuple, order) -> map:
    """The exponent keys of the permutations of ``order``, in lex order.

    A key is the gammas the rows take in row order; every row takes
    gamma_c in column c, so the keys come from permuting the gammas
    themselves, with no lookup per term.
    """
    return map(tuple, map(chain.from_iterable, permutations([gammas[c] for c in order])))


def _tail_rows(table) -> int:
    """k, the bottom rows of ``table`` that text_terms joins once per set of k columns.

    Four: with three the prefixes are too many and each costs Python
    work; five is no faster at N = 7 and holds up to five times the
    strings.  The tail stays below a minor's first row, so k is at most
    N - 2.
    """
    return max(0, min(len(table) - 2, 4))


def text_tails(table, gammas: tuple) -> dict:
    """The tails text_terms reads: for each set of k = _tail_rows(table)
    columns, the text of the last k rows on it, one string per permutation
    of the set by descending gamma, in lex order.  C(N, k)*k! strings."""
    k = _tail_rows(table)
    last = table[len(table) - k :]
    return {
        frozenset(cols): ["".join(map(getitem, last, p)) for p in permutations(cols)]
        for cols in combinations(_descending(gammas, range(len(gammas))), k)
    }


def text_terms(table, gammas: tuple, cols, one, minus, tails: dict, drop: int):
    """The determinant on columns ``cols``, all N or all but one, and the
    last m = len(cols) rows, as text.

    ``table[r][c]`` is the text row r contributes in column c, led by a
    separator of ``drop`` characters, which a term's first text drops;
    ``one`` and ``minus`` open a term of each sign, and ``tails`` is
    text_tails(table, gammas).  Yields one run of terms per column the
    first row takes, from _first_row, so the terms come in the lex order
    of the permutations.  The rows between the first and the last k are a
    prefix: each prefix is joined once, after either head, and each of
    its k! terms is that plus one of the tails on the columns it leaves.
    """
    m = len(cols)
    if not m:
        yield [one]
        return
    k = _tail_rows(table)
    block = factorial(k)
    first, mid = table[-m], table[len(table) - m + 1 : len(table) - k]

    def run(lead, order, coeffs):
        columns = frozenset(order)
        for at, p in enumerate(permutations(order, len(mid))):
            tail = tails[columns.difference(p)]
            prefix = lead + "".join(map(getitem, mid, p))
            if not prefix:  # the zero vector's column with no row between: its tails open the term
                tail = [t[drop:] for t in tail]
            body = prefix[drop:]
            heads = {one: one + body, minus: minus + body}
            yield map(add, map(heads.__getitem__, coeffs[at * block : (at + 1) * block]), tail)

    for c, order, _, coeffs in _first_row(gammas, cols, one, minus):
        yield chain.from_iterable(run(first[c], order, coeffs))


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
    for l, order, pos, det_coeffs in _first_row(gammas, range(N), *_units(inst)):
        keys = list(_keys(gammas, order))
        minors[l] = SparsePoly(ring, dict(zip(map(row1.__add__, keys), pos)), _canonical=True)
        det.update(zip(map(gammas[l].__add__, keys), det_coeffs))
    signs = tuple(l % 2 for l in range(N))
    return RowExpansion(signs=signs, minors=tuple(minors), determinant=SparsePoly(ring, det, _canonical=True))


def vandermonde_determinant(inst: VandermondeInstance, max_n: int = DEFAULT_MAX_N) -> SparsePoly:
    """The determinant alone, from one enumeration over all N columns; no minors."""
    N, gammas = inst.N, inst.support.vectors
    require_expandable(N, max_n)
    order, pos, _ = _column_order(gammas, range(N), _lex_signs(N, *_units(inst)))
    return SparsePoly(inst.poly_ring(), dict(zip(_keys(gammas, order), pos)), _canonical=True)

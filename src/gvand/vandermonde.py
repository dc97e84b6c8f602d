"""Generalized Vandermonde matrices and their exact determinants.

Each function takes a support (N exponent vectors in NN^n) and a
coefficient ring.  The matrix is N x N over the grid variables X_i_j:
row i is the point X_i = (X_i_1 .. X_i_n) and column l is the monomial
X_i^(gamma_l).  Rows use disjoint variables and the gamma are distinct,
so the determinant is one term per permutation sigma, the monomial
prod_i X_i^(gamma_sigma(i)) with coefficient sign(sigma), and nothing
cancels.  Terms come straight from itertools.permutations of the
columns taken by descending gamma, and the signs come as one list in
lex order.  As an exponent key a term is the concatenation of the gammas
a permutation takes.

expand_chunks is expand's document, the determinant and its first-row
minors in JSON or text, yielded one block of 4! = 24 terms at a time.
A block's terms share the rows above the last four, and the block is
their text joined once between pieces built once per table: the last
four rows' texts on each set of four columns, keyed by the set's column
bitmask, with heads and joiners folded in, one list per sign, or one for
both where they print alike (characteristic 2).  One permutation walk
over the prefixes and their bits finds each block's pieces; the signs
are walked once per document.  No term is a string of its own, so the
writer holds no more than the pieces and one block, at most 23 MB at
N = 9.

The determinant alone is one enumeration over all N columns; the
first-row expansion enumerates each minor once and builds the
determinant from the minors' keys.  build_matrix serves the
permutation-sum oracle, which takes its own route.
"""

import json
from collections import namedtuple
from itertools import chain, combinations, permutations
from operator import add, getitem

from gvand.errors import SizeCapError
from gvand.exponents import Support
from gvand.poly import SparsePoly, grid_ring, grid_var
from gvand.reporting import render_text
from gvand.rings import ZZ, CoefficientRing

# expand streams its output one block of 24 terms at a time: at N = 9 and n = 8 it
# peaks at 20 MB and takes under 0.2 s, and with exponents near 2^64 (1.55 GB of
# JSON, 1.75 GB of text) 23 MB and 0.3 s, start-up included, so output size, not
# memory, bounds it; admitting N = 10 by the predicted output size is a later step.
# The expanding oracles and library callers hold the N! terms as tuples: about
# 0.35 GB at N = 9 (Python 3.11, n = 2 and 3, measured in a child process), and
# N = 10 would need about ten times that.  verify expands nothing.
EXPAND_MAX_N = 9


def _entry_exponents(support: Support, row: int, col: int) -> tuple:
    """Exponent vector of the (row, col) entry over the full grid (0-based)."""
    return (0,) * (row * support.n) + support.vectors[col] + (0,) * ((support.N - 1 - row) * support.n)


def build_matrix(support: Support, coeff_ring: CoefficientRing = ZZ):
    """The N x N matrix of monomial entries X_i^(gamma_l) over ``coeff_ring``."""
    ring = grid_ring(coeff_ring, support.N, support.n)
    one = coeff_ring.normalize(1)
    return [
        [
            SparsePoly(ring, {_entry_exponents(support, i, l): one}, _canonical=True)
            for l in range(support.N)
        ]
        for i in range(support.N)
    ]


def _lex_signs(m: int, one=1, minus=-1, k: int = 1) -> tuple:
    """The signs of S_m in lex order, and their negations, as ``one`` and
    ``minus``: coefficients, or the text that opens a term of each sign.
    With ``k``, only every k!-th: the signs at the starts of the blocks of
    k! permutations that share their first m - k entries.

    A permutation that starts with j has j inversions from its head and
    a tail ranked like a permutation of S_(m-1), so the sequence is the
    concatenation over j of (-1)^j times the sequence of S_(m-1).  A
    block starts where its last k entries ascend, with no inversion among
    them, so the block starts of S_k are its identity alone, and the
    recursion starts there.
    """
    pos, neg = [one], [minus]
    for level in range(k + 1, m + 1):
        tail = level % 2
        pos, neg = (pos + neg) * (level // 2) + pos * tail, (neg + pos) * (level // 2) + neg * tail
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


def _first_row(gammas: tuple, one, minus):
    """The determinant, expanded along its first row, for row_expansion.

    Yields (c, order, coeffs, determinant coeffs) for each column c the
    first row takes, by descending gamma: order and coeffs are the minor
    on the other columns', from _column_order, and the determinant's
    terms with the first row in column c carry coeffs times (-1)^c.
    Visiting c by descending gamma keeps the determinant's terms in the
    lex order of its own permutations.
    """
    N = len(gammas)
    signs = _lex_signs(N - 1, one, minus)
    for c in _descending(gammas, range(N)):
        order, pos, neg = _column_order(gammas, [d for d in range(N) if d != c], signs)
        yield c, order, pos, neg if c % 2 else pos


def _keys(gammas: tuple, order) -> map:
    """The exponent keys of the permutations of ``order``, in lex order.

    A key is the gammas the rows take in row order; every row takes
    gamma_c in column c, so the keys come from permuting the gammas
    themselves, with no lookup per term.
    """
    return map(tuple, map(chain.from_iterable, permutations([gammas[c] for c in order])))


def _tail_rows(N: int) -> int:
    """k, the bottom rows whose texts _TermText joins once per set of k columns.

    Four.  Hot, in process on a 2-core host (JSON, medians of seven
    runs, two runs), a document of the benchmark's N = 6, n = 1
    operations, which hold its median, takes 309-317 us with four (176
    us of set-up) and 392-414 us with three; N = 6 admits no more.  Over
    its 18 N = 7 operations four take 0.88-1.01 ms, five 1.10-1.12 ms
    (set-up 0.35 -> 0.77 ms, joins 0.66 -> 0.35 ms) and three 1.84-1.90
    ms.  At N = 9 five's pieces would hold 42 MB, not 7 MB, for the text
    document with exponents near 2^64.  The tail stays below a minor's
    first row, so k is at most N - 2.
    """
    return max(0, min(N - 2, 4))


class _TermText:
    """Term lists of the determinant and its minors as output text.

    A term is a head, then one fragment per nonzero exponent, the
    variable's ``name`` and the exponent; ``joiner`` goes between terms.
    ``table[r][c]`` holds row r's fragments when it takes column c, each
    led by ``sep``, which the first fragment of a term drops.  Each row's
    names and each column's exponents are formatted once, and a cell
    joins them.  A term with no variables has ``blank`` after its head;
    only a determinant on no column or on the zero vector's alone has one.

    ``pieces`` maps the bitmask of each set of k = _tail_rows(N) columns
    (bit c for column c) to lists of k! + 1 strings.  A block's terms
    share their rows above the last k and take the lex signs of S_k times
    one sign.  With h_i the i-th term's head, t_i the last k rows' text
    on the i-th permutation of the set by ``order`` (descending gamma)
    and J the joiner, the block is the shared text joined between
    [J + h_0, t_0 + J + h_1, ..., t_(k!-1)], the list at 0 if its signs
    start with +1, at ``negative`` if with -1; ``negative`` is 0 where -1
    prints as 1.  Tails are built from the bottom row up, a j-set's from
    those on its mask less each bit; a k-set keeps only its pieces.
    """

    def __init__(self, gammas, ring: CoefficientRing, head, name, sep, joiner, blank):
        N = len(gammas)
        self.gammas, self.drop, self.cut, self.k = gammas, len(sep), len(joiner), _tail_rows(N)
        one, minus = head.format(ring.normalize(1)), head.format(ring.normalize(-1))
        self.constant = one + blank  # the one term with no variables
        exponents = [[(j, str(e)) for j, e in enumerate(g) if e] for g in gammas]
        self.table = []
        for r in range(1, N + 1):
            names = [sep + name.format(grid_var(r, j)) for j in range(1, len(gammas[0]) + 1)]
            self.table.append(["".join([names[j] + e for j, e in column]) for column in exponents])
        self.order = order = _descending(gammas, range(N))
        self.negative = int(one != minus)
        opens = [[joiner + h for h in heads] for heads in _lex_signs(self.k, one, minus)[: 1 + self.negative]]
        level = {0: [""]}.items()
        for j in range(1, self.k + 1):
            level = self._grow_tails(self.table[N - j], dict(level), order, j)
        self.pieces = {mask: [[o[0], *map(add, tails, o[1:]), tails[-1]] for o in opens] for mask, tails in level}

    @staticmethod
    def _grow_tails(row, below: dict, order, j):
        """Each j-set's mask with its tails, the texts of ``row`` and the rows under it on the
        set's permutations in lex order: ``row[c]`` ahead of ``below``'s on the mask less c's bit."""
        for cols, bits in zip(combinations(order, j), combinations([1 << c for c in order], j)):
            mask = sum(bits)
            yield mask, [row[c] + tail for c, bit in zip(cols, bits) for tail in below[mask - bit]]

    @classmethod
    def json(cls, gammas, ring):
        return cls(gammas, ring, '{{"coeff": "{}", "monomial": {{', '"{}": ', ", ", "}}, ", "")

    @classmethod
    def text(cls, gammas, ring, indent):
        pad = "  " * indent
        return cls(gammas, ring, f"\n{pad}-\n{pad}  coeff: {{}}\n{pad}  monomial:", f"\n{pad}    {{}}: ", "", "", " {}")

    def chunks(self, order, signs):
        """The determinant on columns ``order``, all N or all but one by
        descending gamma, and the last m = len(order) rows, as text: one
        chunk per block of k! terms, with the joiner between blocks.

        The blocks come in the lex order of the permutations of ``order``,
        the terms' order: each is one arrangement of the m - k rows above
        the last k, their prefix, joined once and then between the pieces
        on the mask it leaves, the list that ``signs[i]`` picks for block i.
        """
        if not any(map(any, map(self.gammas.__getitem__, order))):  # no columns, or the zero vector's alone
            yield self.constant
            return
        table, pieces, drop, k, m = self.table, self.pieces, self.drop, self.k, len(order)
        bits = [1 << c for c in order]
        full, rows = sum(bits), table[len(table) - m : len(table) - k]
        cut = self.cut  # the first block opens with no joiner
        for p, b, sign in zip(permutations(order, m - k), permutations(bits, m - k), signs):
            prefix = "".join(map(getitem, rows, p))
            between = pieces[full - sum(b)][sign]
            if not prefix:  # the zero vector's column alone above the tail: each tail opens its term
                between = [between[0], *(t[drop:] for t in between[1:])]
            yield prefix[drop:].join(between)[cut:]
            cut = 0


def _minors(order: list, parity: int):
    """Minor l's order, ``order`` less l, and its parity, flipped by i + l for l at place i:
    with b of the i columns before l below it, l is in (i - b) + (l - b) inversions."""
    for l in range(len(order)):
        i = order.index(l)
        yield order[:i] + order[i + 1 :], (parity + i + l) % 2


def expand_chunks(support: Support, coeff_ring: CoefficientRing, fmt: str, head: dict):
    """expand's document in ``fmt``, "json" or "text", as chunks of output text.

    The document is ``head``'s fields, then support, variables, the
    determinant, the cofactor signs and the first-row minors.  It comes
    one block of at most 24 terms at a time, and no term map, run of
    terms or whole document is ever built, so memory stays bounded at
    any N; the cap on N is the caller's, from require_expandable.
    """
    gammas, N = support.vectors, support.N
    variables = list(grid_ring(coeff_ring, N, support.n).variables)
    head = {**head, "support": support.to_json(), "variables": variables}
    signs = [l % 2 for l in range(N)]
    if fmt == "text":
        terms = _TermText.text(gammas, coeff_ring, 1)
        yield "\n".join(render_text(head)) + "\ndeterminant:"
        after_det = "\n" + "\n".join(render_text({"signs": signs})) + "\nminors:"
        minor_open, minor_close, minor_sep, end = "\n  -", "", "", "\n"
    else:
        terms = _TermText.json(gammas, coeff_ring)
        yield json.dumps(head)[:-1] + ', "determinant": ['
        after_det = f'}}}}], "signs": {json.dumps(signs)}, "minors": ['
        minor_open, minor_close, minor_sep, end = "[", "}}]", ", ", "]}\n"
    order, k, negative = terms.order, terms.k, terms.negative
    parity = sum(a > b for i, a in enumerate(order) for b in order[i + 1 :]) % 2
    det_signs, minor_signs = _lex_signs(N, 0, negative, k), _lex_signs(N - 1, 0, negative, k)
    yield from terms.chunks(order, det_signs[parity])
    if fmt == "text":
        # the minors sit one level deeper.  Their table is built only once the
        # determinant's is freed, so one set of pieces is held at a time, and
        # between chunks, where its strings leave no gaps among freed blocks
        del terms
        terms = _TermText.text(gammas, coeff_ring, 2)
    yield after_det
    for l, (cols, p) in enumerate(_minors(order, parity)):
        yield (minor_sep if l else "") + minor_open
        yield from terms.chunks(cols, minor_signs[p])
        yield minor_close
    yield end


class RowExpansion(namedtuple("RowExpansion", "signs minors determinant")):
    """First-row cofactor data: V = sum_l (-1)^(1+l) X_1^(gamma_l) Delta_l.

    ``signs`` holds (1 + l) mod 2 per column (0 means +1), so the sign
    factor is (-1)^signs[l-1]; ``determinant`` is V itself.
    """

    __slots__ = ()


def require_expandable(N: int):
    """Raise SizeCapError when N! terms would not fit in memory."""
    if N > EXPAND_MAX_N:
        raise SizeCapError(
            f"N = {N} exceeds the expansion cap {EXPAND_MAX_N}: {N}! terms do not fit in memory"
        )


def row_expansion(support: Support, coeff_ring: CoefficientRing = ZZ) -> RowExpansion:
    """The determinant and all first-row minors with their cofactor signs.

    Each minor is one permutation enumeration over rows 2..N; the
    determinant is assembled from the minors' raw keys by one top-row
    step.  N above EXPAND_MAX_N raises SizeCapError.
    """
    N, gammas = support.N, support.vectors
    require_expandable(N)
    ring = grid_ring(coeff_ring, N, support.n)
    # minor l covers rows 2..N; row 1's exponents are zero
    row1 = (0,) * support.n
    minors, det = [None] * N, {}
    for l, order, pos, det_coeffs in _first_row(gammas, coeff_ring.normalize(1), coeff_ring.normalize(-1)):
        keys = list(_keys(gammas, order))
        minors[l] = SparsePoly(ring, dict(zip(map(row1.__add__, keys), pos)), _canonical=True)
        det.update(zip(map(gammas[l].__add__, keys), det_coeffs))
    signs = tuple(l % 2 for l in range(N))
    return RowExpansion(signs=signs, minors=tuple(minors), determinant=SparsePoly(ring, det, _canonical=True))


def vandermonde_determinant(support: Support, coeff_ring: CoefficientRing = ZZ) -> SparsePoly:
    """The determinant alone over ``coeff_ring``, from one enumeration over all N columns; no minors."""
    N, gammas = support.N, support.vectors
    require_expandable(N)
    signs = _lex_signs(N, coeff_ring.normalize(1), coeff_ring.normalize(-1))
    order, pos, _ = _column_order(gammas, range(N), signs)
    return SparsePoly(grid_ring(coeff_ring, N, support.n), dict(zip(_keys(gammas, order), pos)), _canonical=True)

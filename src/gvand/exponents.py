"""Exponent supports and their lattice invariants.

A support is an ordered tuple of N distinct vectors in NN^n; a direct
call and from_json check it in one walk, _vectors, which names the
first fault by its path in the JSON document.  The quantities that
drive every decision downstream live here: the componentwise minimum
(monomial content), the normalized support, the scale gcd d (gcd of all
coordinates after normalization, equivalently of all pairwise
differences), the affine dimension, and the span coordinates: the
normalized support on its first coordinates of full affine rank.
smith_normal_form has no runtime caller: the tests keep it, and the
benchmark's layer table names it.
"""

import math
from collections import namedtuple
from itertools import chain

from gvand.errors import DegenerateSupportError, InputError, InvariantViolationError
from gvand.linalg import identity, integer_rank, pivot_columns


def _vectors(n, vectors, seq=(list, tuple)) -> tuple:
    """``vectors`` as a tuple of tuples, checked as a support in NN^n.

    The first fault in order (n, each vector's length and then entries,
    distinctness) raises ValueError("path: problem"), the path as in the
    JSON document.  The list and the vectors must be ``seq`` instances, n
    and the entries exactly ints: no float, bool or other int stand-in.
    """
    if type(n) is not int or n < 1:
        raise ValueError("n: must be a positive integer")
    if not isinstance(vectors, seq) or not vectors:
        raise ValueError("exponents: must be a nonempty list")
    for i, row in enumerate(vectors):
        if not isinstance(row, seq) or len(row) != n:
            raise ValueError(f"exponents[{i}]: must be a list of length {n}")
        for j, x in enumerate(row):
            if type(x) is not int or x < 0:
                raise ValueError(f"exponents[{i}][{j}]: must be a non-negative integer")
    vecs = tuple(map(tuple, vectors))
    if len(set(vecs)) != len(vecs):
        raise ValueError("exponents: vectors must be distinct")
    return vecs


class Support(namedtuple("Support", "n vectors")):
    """Ordered exponent set: N distinct vectors in NN^n, given as lists or tuples."""

    __slots__ = ()

    def __new__(cls, n: int, vectors):
        return super().__new__(cls, n, _vectors(n, vectors))

    @classmethod
    def _make(cls, fields):  # _replace builds through _make, so it validates too
        return cls(*fields)

    @property
    def N(self) -> int:
        return len(self.vectors)

    def to_json(self) -> dict:
        return {"n": self.n, "exponents": [list(v) for v in self.vectors]}

    @classmethod
    def from_json(cls, data) -> "Support":
        """The support a JSON document holds; a fault raises InputError("support." + path: problem)."""
        if not isinstance(data, dict):
            raise InputError("support: expected an object")
        if "n" not in data:
            raise InputError("support.n: missing")
        if "exponents" not in data:
            raise InputError("support.exponents: missing")
        try:
            vectors = _vectors(data["n"], data["exponents"], list)
        except ValueError as exc:
            raise InputError(f"support.{exc}") from None
        return super().__new__(cls, data["n"], vectors)


def componentwise_min(support: Support) -> tuple:
    return tuple(map(min, zip(*support.vectors)))


def normalize(support: Support) -> Support:
    """Translate so the componentwise minimum is zero."""
    mins = componentwise_min(support)
    if not any(mins):
        return support
    shifted = tuple(tuple(x - m for x, m in zip(v, mins)) for v in support.vectors)
    # a translate of a valid support is valid: built without __new__'s checks, as from_json builds
    return tuple.__new__(Support, (support.n, shifted))


def d_gamma(support: Support) -> int:
    """gcd of all coordinates of the normalized support.

    Equals the gcd of all pairwise difference coordinates.  Needs at
    least two vectors; with N = 1 the normalized support is {0} and no
    positive gcd exists.
    """
    if support.N < 2:
        raise DegenerateSupportError("d_gamma needs at least two exponent vectors")
    g = math.gcd(*chain.from_iterable(normalize(support).vectors))
    assert g > 0, "distinct vectors leave a nonzero normalized coordinate"
    return g


def affine_dimension(support: Support) -> int:
    """Dimension of the affine span of the support."""
    base = support.vectors[0]
    diffs = [[x - b for x, b in zip(v, base)] for v in support.vectors[1:]]
    if not diffs:
        return 0
    return integer_rank(diffs)


#### Smith normal form ####


class SNFResult(namedtuple("SNFResult", "U D V rank")):
    """Invertible U, V and diagonal D with U . M . V = D.

    Diagonal entries are non-negative and each divides the next; rank
    is the count of nonzero diagonal entries.
    """

    __slots__ = ()


def _pick_pivot(a, t):
    """Smallest nonzero |entry| in the block from (t, t); row-major ties."""
    best = None
    for i in range(t, len(a)):
        for j in range(t, len(a[0])):
            x = abs(a[i][j])
            if x and (best is None or x < best[0]):
                best = (x, i, j)
    if best is None:
        return None
    return best[1], best[2]


def smith_normal_form(matrix) -> SNFResult:
    a = [list(map(int, row)) for row in matrix]
    if not a or not a[0]:
        raise ValueError("smith_normal_form needs a nonempty matrix")
    nrows, ncols = len(a), len(a[0])
    if any(len(r) != ncols for r in a):
        raise ValueError("matrix rows must have equal length")
    u = identity(nrows)
    v = identity(ncols)

    def row_axpy(dst, src, c):
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def col_axpy(dst, src, c):
        for row in a:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    for t in range(min(nrows, ncols)):
        if _pick_pivot(a, t) is None:
            break
        while True:
            i0, j0 = _pick_pivot(a, t)
            if i0 != t:
                a[t], a[i0] = a[i0], a[t]
                u[t], u[i0] = u[i0], u[t]
            if j0 != t:
                for row in a:
                    row[t], row[j0] = row[j0], row[t]
                for row in v:
                    row[t], row[j0] = row[j0], row[t]
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
                u[t] = [-x for x in u[t]]
            pivot = a[t][t]
            dirty = False
            for i in range(t + 1, nrows):
                if a[i][t]:
                    row_axpy(i, t, -(a[i][t] // pivot))
                    if a[i][t]:
                        dirty = True
            for j in range(t + 1, ncols):
                if a[t][j]:
                    col_axpy(j, t, -(a[t][j] // pivot))
                    if a[t][j]:
                        dirty = True
            if dirty:
                continue
            # pivot row and column are clear; enforce divisibility of the rest
            bad = next(
                (
                    i
                    for i in range(t + 1, nrows)
                    if any(a[i][j] % pivot for j in range(t + 1, ncols))
                ),
                None,
            )
            if bad is None:
                break
            row_axpy(t, bad, 1)

    rank = sum(1 for k in range(min(nrows, ncols)) if a[k][k] != 0)
    freeze = lambda m: tuple(tuple(r) for r in m)
    return SNFResult(U=freeze(u), D=freeze(a), V=freeze(v), rank=rank)


#### span coordinates ####


def reduce_to_span_coordinates(support: Support) -> Support:
    """The normalized support on the first m coordinates of full rank.

    m is the affine dimension, and the kept coordinates are the first m
    on which the difference vectors have rank m.  They are independent
    on the affine span, so the result is full-dimensional in NN^m and
    injective on the support, keeps the vectors' order, and has no
    coordinate larger than the input's.  Lattice lengths in these
    coordinates can differ from the support's; read those from the
    support itself.  Two vectors that merge mean a wrong pivot set and
    raise InvariantViolationError.
    """
    if support.N < 2:
        raise DegenerateSupportError("span reduction needs at least two vectors")
    norm = normalize(support)
    base = norm.vectors[0]
    cols = pivot_columns([[x - b for x, b in zip(v, base)] for v in norm.vectors[1:]])
    vectors = tuple(tuple(v[j] for j in cols) for v in norm.vectors)
    if len(set(vectors)) != len(vectors):
        raise InvariantViolationError(f"span coordinates {list(cols)} merge two exponent vectors")
    # columns of a normalized support: m entries each, all ints >= 0, as __new__ would check
    return tuple.__new__(Support, (len(cols), vectors))

"""Small exact linear-algebra helpers over the integers and rationals.

Matrices are lists (or tuples) of equal-length rows.  Integer routines,
including the pivot columns behind the span coordinates and the affine
solve behind the tropical witness search, use fraction-free Bareiss
elimination and return rational results as integer numerators over one
common denominator.  fraction_rank, plain Gaussian elimination over
Fraction, has no runtime caller: the tests use it as an independent
reference for integer_rank, and the benchmark's layer table names it.
identity serves only exponents.smith_normal_form, which has no runtime
caller either.
"""

from fractions import Fraction


def identity(k: int):
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def pivot_columns(rows) -> tuple:
    """Indices of the columns that raise the rank of the columns before them.

    They are the first columns on which the rows reach their full rank,
    so their count is the rank.
    """
    a = [list(map(int, r)) for r in rows]
    if not a or not a[0]:
        return ()
    nrows, ncols = len(a), len(a[0])
    pivots = []
    prev = 1
    for col in range(ncols):
        row = len(pivots)
        piv = next((i for i in range(row, nrows) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        for i in range(row + 1, nrows):
            for j in range(col + 1, ncols):
                # Bareiss step: the division by the previous pivot is exact
                a[i][j] = (a[row][col] * a[i][j] - a[i][col] * a[row][j]) // prev
            a[i][col] = 0
        prev = a[row][col]
        pivots.append(col)
        if len(pivots) == nrows:
            break
    return tuple(pivots)


def integer_rank(rows) -> int:
    return len(pivot_columns(rows))


def fraction_rank(rows) -> int:
    a = [[Fraction(x) for x in r] for r in rows]
    if not a or not a[0]:
        return 0
    nrows, ncols = len(a), len(a[0])
    rank = 0
    row = 0
    for col in range(ncols):
        piv = next((i for i in range(row, nrows) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = 1 / a[row][col]
        a[row] = [x * inv for x in a[row]]
        for i in range(nrows):
            if i != row and a[i][col] != 0:
                c = a[i][col]
                a[i] = [x - c * y for x, y in zip(a[i], a[row])]
        row += 1
        rank += 1
        if row == nrows:
            break
    return rank


def solve_affine(points, values):
    """Affine function through the given integer graph points, or None.

    Solves a . x + b = value for every (point, value) pair, where the
    points are m-tuples of ints, the values are ints, and there are
    exactly m + 1 pairs.  Bareiss elimination on the rows
    [point | 1 | value] and fraction-free back substitution give
    (nums, den) with den > 0, a_j = nums[j] / den and b = nums[m] / den.
    Returns None when the points are affinely dependent (the system is
    singular).
    """
    m = len(points[0])
    assert len(points) == m + 1
    n = m + 1
    aug = [[*pt, 1, val] for pt, val in zip(points, values)]
    prev = 1
    for col in range(n):
        if not aug[col][col]:
            piv = next((i for i in range(col + 1, n) if aug[i][col]), None)
            if piv is None:
                return None
            aug[col], aug[piv] = aug[piv], aug[col]
        top = aug[col]
        p = top[col]
        for i in range(col + 1, n):
            row = aug[i]
            c = row[col]
            for j in range(col + 1, n + 1):
                # Bareiss step: the division by the previous pivot is exact
                row[j] = (p * row[j] - c * top[j]) // prev
            row[col] = 0
        prev = p
    # prev = det of the row-permuted system; by Cramer's rule every
    # prev * x_i is an integer, so each back-substitution division is exact
    nums = [0] * n
    for i in range(n - 1, -1, -1):
        row = aug[i]
        acc = prev * row[n]
        for j in range(i + 1, n):
            acc -= row[j] * nums[j]
        nums[i] = acc // row[i]
    if prev < 0:
        return [-x for x in nums], -prev
    return nums, prev

"""Small exact linear-algebra helpers over the integers and rationals.

Matrices are lists (or tuples) of equal-length rows.  Integer routines
use fraction-free Bareiss elimination; rational ones use plain Gaussian
elimination over Fraction.
"""

from fractions import Fraction


def identity(k: int):
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def vec_mat(v, m):
    """Row vector times matrix."""
    cols = len(m[0])
    return tuple(sum(v[k] * m[k][j] for k in range(len(v))) for j in range(cols))


def integer_rank(rows) -> int:
    a = [list(map(int, r)) for r in rows]
    if not a or not a[0]:
        return 0
    nrows, ncols = len(a), len(a[0])
    rank = 0
    row = 0
    prev = 1
    for col in range(ncols):
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
        row += 1
        rank += 1
        if row == nrows:
            break
    return rank


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
    """Affine function through the given graph points, or None.

    Solves a . x + b = value for every (point, value) pair, where the
    points are m-tuples and there are exactly m + 1 of them.  Returns
    (a, b) with Fraction entries, or None when the points are affinely
    dependent (the system is singular).
    """
    m = len(points[0])
    assert len(points) == m + 1
    aug = []
    for pt, val in zip(points, values):
        aug.append([Fraction(x) for x in pt] + [Fraction(1), Fraction(val)])
    n = m + 1
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                c = aug[i][col]
                aug[i] = [x - c * y for x, y in zip(aug[i], aug[col])]
    sol = [aug[i][n] for i in range(n)]
    return tuple(sol[:m]), sol[m]

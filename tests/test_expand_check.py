"""expand's document, from the library's expand_chunks, checked by arithmetic
that shares no code with gvand.

Each term list of the JSON document is evaluated at a seeded random
point mod the prime P = 2^61 - 1 and compared with the determinant of
the numeric matrix mod P, by Gaussian elimination: the determinant
against the whole matrix, minor l against the matrix without its first
row and column l.  Two different polynomials of degree d agree at a
random point with probability at most d / P (Schwartz-Zippel).  Over
GF(2) and GF(3) the document must be the characteristic-0 one with each
coefficient reduced mod p, term by term.
"""

import json
import random

import pytest

from gvand.exponents import Support
from gvand.rings import CoefficientRing
from gvand.vandermonde import expand_chunks

P = 2**61 - 1


def _supports():
    draw = random.Random(61)
    for N in range(1, 8):
        for n in (1, 2, 3):
            vecs = [(0,) * n] if (N + n) % 2 else []  # half the supports hold the zero vector
            while len(vecs) < N:
                v = tuple(draw.randrange(N + 1) for _ in range(n))
                if v not in vecs:
                    vecs.append(v)
            yield pytest.param({"n": n, "exponents": vecs}, id=f"N{N}-n{n}")
    yield pytest.param({"n": 3, "exponents": [[2**64 - 1 - (3 * i + j) for j in range(3)] for i in range(5)]}, id="N5-2e64")


def _expand(support, char):
    return json.loads("".join(expand_chunks(Support(support["n"], support["exponents"]), CoefficientRing(char), "json", {})))


def _det_mod(rows):
    """The determinant mod P of a square matrix of residues, by Gaussian elimination."""
    a, det = [list(row) for row in rows], 1
    for c in range(len(a)):
        pivot = next((r for r in range(c, len(a)) if a[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            a[c], a[pivot], det = a[pivot], a[c], -det
        det = det * a[c][c] % P
        inverse = pow(a[c][c], P - 2, P)
        for r in range(c + 1, len(a)):
            factor = a[r][c] * inverse % P
            a[r] = [(x - factor * y) % P for x, y in zip(a[r], a[c])]
    return det % P


def _evaluate(terms, point):
    total = 0
    for term in terms:
        value = int(term["coeff"])
        for name, e in term["monomial"].items():
            value = value * pow(point[name], e, P) % P
        total += value
    return total % P


@pytest.mark.parametrize("support", _supports())
def test_expand_agrees_with_elimination_mod_a_prime(support):
    N, n, vecs = len(support["exponents"]), support["n"], support["exponents"]
    doc = _expand(support, 0)
    draw = random.Random(f"{N}/{n}")
    x = [[draw.randrange(1, P) for _ in range(n)] for _ in range(N)]
    point = {f"X_{i + 1}_{j + 1}": x[i][j] for i in range(N) for j in range(n)}
    matrix = [[1] * N for _ in range(N)]
    for i in range(N):
        for l, gamma in enumerate(vecs):
            for j, e in enumerate(gamma):
                matrix[i][l] = matrix[i][l] * pow(x[i][j], e, P) % P
    assert doc["variables"] == list(point)
    assert _evaluate(doc["determinant"], point) == _det_mod(matrix)
    assert doc["signs"] == [l % 2 for l in range(N)]
    assert len(doc["minors"]) == N
    for l, minor in enumerate(doc["minors"]):
        rows = [[v for c, v in enumerate(row) if c != l] for row in matrix[1:]]
        assert _evaluate(minor, point) == _det_mod(rows)
    for p in (2, 3):
        reduced = _expand(support, p)
        for ours, theirs in zip([reduced["determinant"], *reduced["minors"]], [doc["determinant"], *doc["minors"]]):
            assert [t["monomial"] for t in ours] == [t["monomial"] for t in theirs]
            assert [int(t["coeff"]) for t in ours] == [int(t["coeff"]) % p for t in theirs]

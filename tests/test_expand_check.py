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

The same check judges two mutants of the block signs: _lex_signs
started at the wrong k, and minors that keep the determinant's order
parity instead of flipping it by the inversions of the column they
drop.
"""

import json
import random

import pytest

from gvand import vandermonde
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
    # a four-row prefix above the four tail rows, so the walk meets all C(8, 4) = 70 masks
    yield pytest.param({"n": 1, "exponents": [[3], [1], [0], [7], [4], [8], [2], [6]]}, id="N8-n1")


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


def _point_and_matrix(support):
    """A seeded random point and the numeric matrix there, mod P."""
    N, n, vecs = len(support["exponents"]), support["n"], support["exponents"]
    draw = random.Random(f"{N}/{n}")
    x = [[draw.randrange(1, P) for _ in range(n)] for _ in range(N)]
    point = {f"X_{i + 1}_{j + 1}": x[i][j] for i in range(N) for j in range(n)}
    matrix = [[1] * N for _ in range(N)]
    for i in range(N):
        for l, gamma in enumerate(vecs):
            for j, e in enumerate(gamma):
                matrix[i][l] = matrix[i][l] * pow(x[i][j], e, P) % P
    return point, matrix


@pytest.mark.parametrize("support", _supports())
def test_expand_agrees_with_elimination_mod_a_prime(support):
    N = len(support["exponents"])
    doc = _expand(support, 0)
    point, matrix = _point_and_matrix(support)
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


def _disagrees_with_elimination(support) -> bool:
    """Whether the determinant or a minor of the characteristic-0 document
    differs from elimination mod P at the seeded point."""
    doc = _expand(support, 0)
    point, matrix = _point_and_matrix(support)
    if _evaluate(doc["determinant"], point) != _det_mod(matrix):
        return True
    return any(
        _evaluate(minor, point) != _det_mod([[v for c, v in enumerate(row) if c != l] for row in matrix[1:]])
        for l, minor in enumerate(doc["minors"])
    )


def _lex_signs_from_wrong_k(monkeypatch):
    # the block signs of S_m taken every (k-1)!-th, not every k!-th; k = 1 and 0 agree,
    # so only the writer's calls with k > 1 change
    original = vandermonde._lex_signs
    monkeypatch.setattr(vandermonde, "_lex_signs", lambda m, one=1, minus=-1, k=1: original(m, one, minus, max(k - 1, 0)))


def _minors_without_their_flip(monkeypatch):
    # each minor keeps the determinant's parity, not flipped by the inversions of l
    original = vandermonde._minors
    monkeypatch.setattr(vandermonde, "_minors", lambda order, parity: ((cols, parity) for cols, _ in original(order, parity)))


@pytest.mark.parametrize("mutate", [_lex_signs_from_wrong_k, _minors_without_their_flip], ids=["lex-signs-k", "minor-parity"])
def test_sign_mutants_are_caught_by_elimination(monkeypatch, mutate):
    supports = [param.values[0] for param in _supports() if len(param.values[0]["exponents"]) < 8]
    assert not any(map(_disagrees_with_elimination, supports))
    mutate(monkeypatch)
    assert any(map(_disagrees_with_elimination, supports))

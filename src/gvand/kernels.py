"""Term-map kernels: sums and products of SparsePoly.

The determinant does not run through them: its terms come straight
from permutations, each key a concatenation of exponent vectors (see
gvand.vandermonde).

A term map is a dict from exponent vector (tuple of non-negative ints)
to a nonzero coefficient; over GF(p) coefficients are residues in
1..p-1.  ``modulus`` is 0 for the integers, else the field characteristic.
"""


def add_terms(a, b, modulus):
    """Sum of two term maps as a new canonical term map."""
    out = dict(a)
    for exp, c in b.items():
        acc = out.get(exp, 0) + c
        if modulus:
            acc %= modulus
        if acc:
            out[exp] = acc
        elif exp in out:
            del out[exp]
    return out


def addmul_terms(acc, coeff, expvec, b, modulus):
    """In-place acc += coeff * X^expvec * b.  Returns acc."""
    for exp, c in b.items():
        key = tuple(x + y for x, y in zip(expvec, exp))
        val = acc.get(key, 0) + coeff * c
        if modulus:
            val %= modulus
        if val:
            acc[key] = val
        elif key in acc:
            del acc[key]
    return acc


def mul_terms(a, b, modulus):
    """Product of two term maps as a new canonical term map."""
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for ea, ca in a.items():
        addmul_terms(out, ca, ea, b, modulus)
    return out

"""Coefficient rings: the integers and prime fields.

Ring elements are plain Python ints.  Over GF(p) the canonical
representative is the residue in 0..p-1; over the integers every int is
canonical.  Characteristic 0 means the integers throughout.
"""

from collections import namedtuple

MAX_CHARACTERISTIC = 2**61
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(p: int) -> bool:
    """Strong-pseudoprime test to the first twelve prime bases.

    Exact below 3.18e23 (Sorenson & Webster 2015), which covers every
    characteristic up to MAX_CHARACTERISTIC.
    """
    if p < 2:
        return False
    for b in _MILLER_RABIN_BASES:
        if p % b == 0:
            return p == b
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^s with d odd
    d = (p - 1) >> s
    for b in _MILLER_RABIN_BASES:
        x = pow(b, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class CoefficientRing(namedtuple("CoefficientRing", "characteristic")):
    """The integers (characteristic 0) or the prime field GF(p)."""

    __slots__ = ()

    def __new__(cls, characteristic: int):
        p = characteristic
        if type(p) is not int:  # no float, bool or other int stand-in
            raise ValueError(f"characteristic must be an integer, got {p!r}")
        if p > MAX_CHARACTERISTIC:
            raise ValueError(f"characteristic {p} exceeds cap {MAX_CHARACTERISTIC}")
        if p and not is_prime(p):
            raise ValueError(f"characteristic must be 0 or prime, got {p}")
        return super().__new__(cls, p)

    @classmethod
    def _make(cls, fields):  # _replace builds through _make, so it validates too
        return cls(*fields)

    def normalize(self, c: int) -> int:
        """Canonical representative of c in this ring; c must be exactly an int."""
        if type(c) is not int:  # every polynomial coefficient passes here: no float or bool
            raise ValueError(f"coefficient must be an integer, got {c!r}")
        if self.characteristic:
            return c % self.characteristic
        return c

    def invert(self, c: int) -> int:
        """Multiplicative inverse; only defined over a prime field."""
        p = self.characteristic
        if p == 0:
            raise ZeroDivisionError("the integers are not a field")
        c = c % p
        if c == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(c, p - 2, p)

    def divide_exact(self, a: int, b: int):
        """a / b when the quotient exists in the ring, else None."""
        if b == 0:
            raise ZeroDivisionError("division by zero coefficient")
        if self.characteristic:
            return (a * self.invert(b)) % self.characteristic
        if a % b != 0:
            return None
        return a // b


ZZ = CoefficientRing(0)


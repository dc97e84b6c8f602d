"""Shared report primitives: named condition checks, rational strings."""

from collections import namedtuple
from fractions import Fraction


class ConditionCheck(namedtuple("ConditionCheck", "name holds detail")):
    """One named yes/no condition with a human-readable detail line."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {"name": self.name, "holds": self.holds, "detail": self.detail}


def frac_str(q) -> str:
    """Canonical string for a rational: '5', '-3/4'."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"

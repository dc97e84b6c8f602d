"""Shared report primitives: named condition checks, rational strings, and
the text rendering of plain JSON data."""

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


def render_text(data, indent: int = 0) -> list:
    """The lines of the text format for plain JSON data: a dict's keys as
    "key:" and a list's items as "-", nested one level deeper each."""
    pad = "  " * indent
    if isinstance(data, dict):
        entries = [(f"{pad}{key}:", val) for key, val in data.items()]
    elif isinstance(data, list):
        entries = [(f"{pad}-", val) for val in data]
    else:
        return [f"{pad}{_scalar(data)}"]
    lines = []
    for label, val in entries:
        if isinstance(val, (dict, list)) and val:
            lines.append(label)
            lines.extend(render_text(val, indent + 1))
        else:
            lines.append(f"{label} {_scalar(val)}")
    return lines


def _scalar(val) -> str:
    if val is None:
        return "null"
    if isinstance(val, bool):
        return "true" if val else "false"
    if isinstance(val, (dict, list)):
        return "{}" if isinstance(val, dict) else "[]"
    return str(val)

"""Output checks for one CLI operation.

``check`` returns None when the operation is correct, else a one-line
reason.  A reason that starts with "exit" means the CLI exited non-zero;
any other reason means it exited 0 with output that fails a check.
"""

import hashlib
import json
import math

from corpus import IRREDUCIBLE, expand_key

ALLOWED_COEFFS = {0: (b"1", b"-1"), 2: (b"1",), 3: (b"1", b"2")}


def expand_digest(out: str) -> str:
    """sha256 over the raw "determinant" and "minors" fields of expand's stdout."""
    raw = out.encode("ascii")
    det, minors = _fields(raw)
    h = hashlib.sha256()
    h.update(memoryview(raw)[det[0] : det[1]])
    h.update(b"|")
    h.update(memoryview(raw)[minors[0] : minors[1]])
    return h.hexdigest()


def _fields(raw: bytes):
    det_start = raw.index(b'"determinant": ') + len(b'"determinant": ')
    det_end = raw.index(b', "signs": ', det_start)
    minors_start = raw.index(b'"minors": ', det_end) + len(b'"minors": ')
    minors_end = raw.rindex(b"}")
    return (det_start, det_end), (minors_start, minors_end)


def _count_terms(raw, span, coeffs):
    total = raw.count(b'{"coeff": ', *span)
    plain = sum(raw.count(b'"coeff": "' + c + b'"', *span) for c in coeffs)
    return total, plain


def check_expand(op, out: str, digests: dict):
    N = len(op["support"]["exponents"])
    raw = out.encode("ascii")
    try:
        det, minors = _fields(raw)
    except ValueError:
        return "expand: determinant or minors field missing"
    coeffs = ALLOWED_COEFFS[op["char"]]
    terms, plain = _count_terms(raw, det, coeffs)
    if terms != math.factorial(N):
        return f"expand: determinant has {terms} terms, expected {N}! = {math.factorial(N)}"
    if plain != terms:
        return f"expand: {terms - plain} determinant coefficients outside {[c.decode() for c in coeffs]}"
    n_minors = raw.count(b"[", *minors) - 1
    if n_minors != N:
        return f"expand: {n_minors} minors, expected {N}"
    minor_terms, minor_plain = _count_terms(raw, minors, coeffs)
    if minor_terms != math.factorial(N) or minor_plain != minor_terms:
        return f"expand: minors hold {minor_terms} terms ({minor_plain} with unit coefficients), expected {N}!"
    expected = digests.get(expand_key(op))
    if expected is None:
        return "expand: support missing from the digest table"
    if expand_digest(out) != expected:
        return "expand: determinant/minors digest differs from the recorded table"
    return None


def _failing_check(data) -> str:
    """First failing named check in a verify payload that exited 1."""
    for check in data.get("verification", {}).get("checks", []):
        if not check.get("holds"):
            return f"{check.get('name')}: {check.get('detail')}"
    for name, report in data.get("oracles", {}).items():
        if not report.get("ok"):
            return f"oracle {name} not ok"
    return "ok is false"


def check(op, rc: int, out: str, err: str, digests: dict):
    command = op["command"]
    if rc != 0:
        first = err.strip().splitlines()[0] if err.strip() else ""
        if not first and command == "verify" and out:
            first = f"verify not ok: {_failing_check(json.loads(out))}"
        return f"exit {rc}: {first[:160]}"
    if command == "expand":
        return check_expand(op, out, digests)
    data = json.loads(out)
    klass = op["klass"]
    if command in ("decide", "verify"):
        verdict = data["certificate"]["verdict"]
        if verdict != klass:
            return f"{command}: verdict {verdict}, built as {klass}"
        if command == "verify" and data.get("ok") is not True:
            return "verify: ok is not true"
        return None
    if command == "tropical":
        cert = data["certificate"]
        expect_irreducible = klass == IRREDUCIBLE and op["d"] == 1
        if (cert["verdict"] == "irreducible") != expect_irreducible:
            return f"tropical: verdict {cert['verdict']} for a {klass} support with d = {op['d']}"
        if cert["multiplicity_gcd"] != op["d"]:
            return f"tropical: multiplicity gcd {cert['multiplicity_gcd']}, d = {op['d']}"
        return None
    raise ValueError(f"no check for command {command!r}")


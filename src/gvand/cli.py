"""Command-line front end.

Subcommands: decide, expand, tropical, verify, oracle.  Input is a
support as JSON ({"n": ..., "exponents": [[...], ...]}) from --input or
stdin; field and seed come from flags.  Each command takes --input,
--char, --seed and --format, and oracle adds --check; the caps N <= 12,
n <= 8 and exponents <= 2^64 - 1 are fixed.  A command followed by
pairs of an exact flag and a value that does not start with "-" is read
directly (_read_argv), without importing argparse.  Every other argv
(help, --flag=value, abbreviations, unknown flags, bad values) goes to
argparse, which prints the help or the usage error or parses it; an
argv read either way gives the same arguments.  Payloads are plain JSON
data, and text output renders the same data and nothing more.  For a
fixed input and seed every command prints byte-identical output across
runs.  expand writes
its document, in either format, one block of 24 terms at a time, as
gvand.vandermonde.text_terms joins it: the terms of a block share every
row above the last four, and the block is their text joined once between
pieces built once per document.  So it holds no more than the pieces and
one block, at most 23 MB at N = 9.  A reader that closes stdout early ends
the command with exit 0 and nothing on stderr.

Exit codes: 0 success, 1 falsified invariant or certificate mismatch
(also inconclusive randomized checks), 2 malformed input or cap
violation.
"""

import functools
import json
import os
import sys
import types

from gvand.errors import (
    CertificateMismatchError,
    DegenerateSupportError,
    GvandError,
    InputError,
    InvariantViolationError,
    SizeCapError,
)
from gvand.exponents import Support
from gvand.irreducibility import (
    VERDICT_IRREDUCIBLE,
    VERDICT_POWER,
    decide,
    verify_certificate,
)
from gvand.oracle import (
    classical_divisibility_check,
    jacobian_independence_evidence,
    leibniz_determinant,
    line_case_factor,
    polygon_indecomposability,
)
from gvand.poly import grid_var
from gvand.rings import CoefficientRing
from gvand.tropical import TROPICAL_IRREDUCIBLE, decide_tropical_irreducibility
from gvand.vandermonde import (
    VandermondeInstance,
    build_matrix,
    require_expandable,
    text_tails,
    text_terms,
    vandermonde_determinant,
)

MAX_SEED = 2**64 - 1
MAX_N = 12
MAX_VARS = 8
MAX_EXPONENT = 2**64 - 1
ORACLE_CHECKS = ("leibniz", "classical", "line", "jacobian", "polygon")


def _load_support(args) -> Support:
    if args.input_path and args.input_path != "-":
        try:
            with open(args.input_path, "r", encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as exc:
            raise InputError(f"input: cannot read {args.input_path}: {exc.strerror}")
    else:
        raw = sys.stdin.read()
    try:
        data = json.loads(raw)
    except ValueError as exc:  # a JSONDecodeError, or an integer past the digit limit
        raise InputError(f"input: invalid JSON: {exc}")
    support = Support.from_json(data)
    if support.N > MAX_N:
        raise InputError(f"support.exponents: N = {support.N} exceeds the cap {MAX_N}")
    if support.n > MAX_VARS:
        raise InputError(f"support.n: n = {support.n} exceeds the cap {MAX_VARS}")
    for i, v in enumerate(support.vectors):
        for j, x in enumerate(v):
            if x > MAX_EXPONENT:
                raise InputError(f"support.exponents[{i}][{j}]: exceeds the cap {MAX_EXPONENT}")
    return support


def _render_text(data, indent: int = 0):
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
            lines.extend(_render_text(val, indent + 1))
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


def _emit(args, payload):
    """Print a payload of plain JSON data.

    A payload that is not a dict is the document itself, as chunks of
    text already in the output format, each written as it comes and freed
    before the next is built.
    """
    if isinstance(payload, dict):
        text = "\n".join(_render_text(payload)) if args.fmt == "text" else json.dumps(payload)
        payload = (text + "\n",)
    sys.stdout.writelines(payload)


class _TermText:
    """Term lists of the determinant and its minors as output text.

    A term is a head, then one fragment per nonzero exponent; ``joiner``
    goes between terms.  ``table[r][c]`` holds row r's fragments when it
    takes column c, each led by ``sep``, which the first fragment of a
    term drops.  A term with no variables has ``blank`` after its head;
    only a determinant on no column or on the zero vector's alone has one.
    ``pieces`` holds the texts of the bottom four rows with the heads and
    joiners between them, for both signs, built once with the table,
    before the first term: vandermonde.text_tails.  text_terms joins each
    block of 24 terms from a prefix and one list of them, and chunks
    yields the blocks as they come.
    """

    def __init__(self, gammas, ring: CoefficientRing, head, fragment, sep, joiner, blank):
        self.gammas, self.drop, self.joiner = gammas, len(sep), joiner
        one, minus = head.format(ring.normalize(1)), head.format(ring.normalize(-1))
        self.constant = one + blank  # the one term with no variables
        self.table = [
            ["".join(sep + fragment.format(grid_var(r, j), e) for j, e in enumerate(g, 1) if e) for g in gammas]
            for r in range(1, len(gammas) + 1)
        ]
        self.pieces = text_tails(self.table, gammas, one, minus, joiner)

    @classmethod
    def json(cls, gammas, ring):
        return cls(gammas, ring, '{{"coeff": "{}", "monomial": {{', '"{}": {}', ", ", "}}, ", "")

    @classmethod
    def text(cls, gammas, ring, indent):
        pad = "  " * indent
        return cls(gammas, ring, f"\n{pad}-\n{pad}  coeff: {{}}\n{pad}  monomial:", f"\n{pad}    {{}}: {{}}", "", "", " {}")

    def chunks(self, cols):
        """The terms on columns ``cols`` and the last len(cols) rows as text,
        one chunk per block of text_terms, with ``joiner`` between: every
        block opens with it but the first."""
        if not any(map(any, map(self.gammas.__getitem__, cols))):  # no columns, or the zero vector's alone
            yield self.constant
            return
        blocks = text_terms(self.table, self.gammas, cols, self.pieces, self.drop)
        yield next(blocks)[len(self.joiner) :]
        yield from blocks


def _expand_document(args, inst: VandermondeInstance):
    """expand's output in chunks: the determinant, then each first-row
    minor, one block of 24 terms at a time.  No term map, no run of terms
    and no whole document is ever built."""
    support, ring = inst.support, inst.coeff_ring
    gammas, N = support.vectors, support.N
    head = {
        "command": "expand",
        "seed": args.seed,
        "characteristic": args.characteristic,
        "support": support.to_json(),
        "variables": list(inst.poly_ring().variables),
    }
    signs = [l % 2 for l in range(N)]
    if args.fmt == "text":
        terms = _TermText.text(gammas, ring, 1)
        yield "\n".join(_render_text(head)) + "\ndeterminant:"
        after_det = "\n" + "\n".join(_render_text({"signs": signs})) + "\nminors:"
        minor_open, minor_close, minor_sep, end = "\n  -", "", "", "\n"
    else:
        terms = _TermText.json(gammas, ring)
        yield json.dumps(head)[:-1] + ', "determinant": ['
        after_det = f'}}}}], "signs": {json.dumps(signs)}, "minors": ['
        minor_open, minor_close, minor_sep, end = "[", "}}]", ", ", "]}\n"
    yield from terms.chunks(range(N))
    if args.fmt == "text":
        # the minors sit one level deeper.  Their table is built only once the
        # determinant's is freed, so one set of pieces is held at a time, and
        # between chunks, where its strings leave no gaps among freed blocks
        del terms
        terms = _TermText.text(gammas, ring, 2)
    yield after_det
    for l in range(N):
        yield (minor_sep if l else "") + minor_open
        yield from terms.chunks([c for c in range(N) if c != l])
        yield minor_close
    yield end


def _cmd_decide(args) -> int:
    support = _load_support(args)
    cert = decide(support, args.characteristic)
    _emit(
        args,
        {
            "command": "decide",
            "seed": args.seed,
            "characteristic": args.characteristic,
            "support": support.to_json(),
            "certificate": cert.to_json(),
        },
    )
    return 0


def _cmd_expand(args) -> int:
    support = _load_support(args)
    inst = VandermondeInstance(support, CoefficientRing(args.characteristic))
    require_expandable(support.N)
    _emit(args, _expand_document(args, inst))
    return 0


def _cmd_tropical(args) -> int:
    support = _load_support(args)
    cert = decide_tropical_irreducibility(support, seed=args.seed)
    _emit(
        args,
        {
            "command": "tropical",
            "seed": args.seed,
            "support": support.to_json(),
            "certificate": cert.to_json(),
        },
    )
    return 0


def _cmd_verify(args) -> int:
    support = _load_support(args)
    cert = decide(support, args.characteristic)
    payload = {
        "command": "verify",
        "seed": args.seed,
        "characteristic": args.characteristic,
        "support": support.to_json(),
        "certificate": cert.to_json(),
    }
    # one tropical decision serves the certificate check and the agreement oracle
    tropical_cert = decide_tropical_irreducibility(support, seed=args.seed)
    failed = False
    try:
        payload["verification"] = verify_certificate(support, cert, tropical_cert)
    except CertificateMismatchError as exc:
        payload["verification"] = exc.report or {"ok": False, "error": str(exc)}
        failed = True

    # irreducible in char 0 <=> N >= 3, content and span <=> irreducible or power here
    expected = cert.verdict in (VERDICT_IRREDUCIBLE, VERDICT_POWER) and cert.d_gamma == 1
    agree = (tropical_cert.verdict == TROPICAL_IRREDUCIBLE) == expected
    payload["oracles"] = {
        "tropical_agreement": {
            "ok": agree,
            "tropical_verdict": tropical_cert.verdict,
            "multiplicity_gcd": tropical_cert.multiplicity_gcd,
        }
    }
    payload["ok"] = not failed and agree
    _emit(args, payload)
    return 0 if payload["ok"] else 1


def _cmd_oracle(args) -> int:
    support = _load_support(args)
    payload = {
        "command": "oracle",
        "check": args.check,
        "seed": args.seed,
        "characteristic": args.characteristic,
        "support": support.to_json(),
    }
    failed = False
    if args.check == "leibniz":
        inst = VandermondeInstance(support, CoefficientRing(args.characteristic))
        matrix = build_matrix(inst)
        agree = leibniz_determinant(matrix) == vandermonde_determinant(inst)
        payload["report"] = {"ok": agree}
        failed = not agree
    elif args.check == "classical":
        report = classical_divisibility_check(support)
        ok = report["divides"]
        payload["report"] = {
            "ok": ok,
            "quotient_terms": report["quotient_terms"],
            "quotient": report["quotient"].to_terms_json() if ok else None,
        }
        failed = not ok
    elif args.check == "line":
        report = line_case_factor(VandermondeInstance(support, CoefficientRing(args.characteristic)))
        # the binomial divides whenever the support lies on its line; at N = 2 the
        # quotient is a unit, and that is no falsification
        divides = report.quotient_terms is not None
        payload["report"] = dict(report.to_json(), ok=divides)
        failed = not divides
    elif args.check == "jacobian":
        report = jacobian_independence_evidence(support, seed=args.seed)
        payload["report"] = dict(report.to_json(), ok=True)
    elif args.check == "polygon":
        report = polygon_indecomposability(support)
        payload["report"] = dict(report.to_json(), ok=True)
    else:
        raise InputError(f"check: unknown oracle check {args.check!r}")
    _emit(args, payload)
    return 1 if failed else 0


_COMMANDS = {
    "decide": _cmd_decide,
    "expand": _cmd_expand,
    "tropical": _cmd_tropical,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
}


def run(args) -> int:
    """Dispatch one command; returns the process exit code."""
    try:
        return _COMMANDS[args.command](args)
    except (InputError, SizeCapError, DegenerateSupportError) as exc:
        # malformed input and caps: declined, not falsified
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (CertificateMismatchError, InvariantViolationError) as exc:
        sys.stderr.write(f"falsified: {exc}\n")
        return 1
    except GvandError as exc:
        # unlucky randomized runs
        sys.stderr.write(f"inconclusive: {exc}\n")
        return 1


@functools.cache  # argparse parsers are reusable; in-process callers build one
def _build_parser():
    """The full parser, built only for the argv that _read_argv declines:
    help, usage errors and every spelling but the plain one."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="gvand",
        description="Exact generalized Vandermonde determinants: decisions, expansions, tropical cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("decide", "classify the determinant's irreducibility over a field"),
        ("expand", "expand the determinant and its first-row minors"),
        ("tropical", "characteristic-blind tropical decision with witness"),
        ("verify", "decide, re-check the certificate, and run consistency oracles"),
        ("oracle", "run one independent check by name"),
    ):
        cmd = sub.add_parser(name, help=blurb)
        cmd.add_argument("--input", default="-", dest="input_path", help="support JSON file, or - for stdin")
        cmd.add_argument(
            "--char", type=int, default=0, metavar="P", dest="characteristic", help="field characteristic (0 or a prime)"
        )
        cmd.add_argument("--seed", type=int, default=0, help="seed for all randomized steps (echoed in output)")
        cmd.add_argument("--format", choices=("json", "text"), default="json", dest="fmt")
        if name == "oracle":
            cmd.add_argument("--check", required=True, choices=ORACLE_CHECKS)
    return parser


_FLAGS = {"--input": "input_path", "--char": "characteristic", "--seed": "seed", "--format": "fmt"}
_ORACLE_FLAGS = {**_FLAGS, "--check": "check"}
_CHOICES = {"fmt": ("json", "text"), "check": ORACLE_CHECKS}


def _read_argv(argv):
    """The arguments _build_parser().parse_args(argv) returns, read without it,
    or None when argv is anything but COMMAND followed by pairs of an exact
    flag and a value that does not start with "-".  Integers convert as
    argparse's type=int does, choices are checked the same, the last of a
    repeated flag wins, and oracle needs --check.  What it declines goes to
    argparse, so help, usage errors and their exit codes come from argparse."""
    if not argv or len(argv) % 2 == 0 or argv[0] not in _COMMANDS:
        return None
    flags = _ORACLE_FLAGS if argv[0] == "oracle" else _FLAGS
    args = {"command": argv[0], "input_path": "-", "characteristic": 0, "seed": 0, "fmt": "json"}
    for flag, value in zip(argv[1::2], argv[2::2]):
        dest = flags.get(flag)
        if dest is None or value.startswith("-"):
            return None
        if dest in ("characteristic", "seed"):
            try:
                value = int(value)
            except ValueError:
                return None
        elif dest in _CHOICES and value not in _CHOICES[dest]:
            return None
        args[dest] = value
    if flags is _ORACLE_FLAGS and "check" not in args:
        return None
    return types.SimpleNamespace(**args)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
        args = _build_parser().parse_args(argv)
    try:
        if not 0 <= args.seed <= MAX_SEED:
            raise InputError("seed: must fit in an unsigned 64-bit integer")
        try:
            CoefficientRing(args.characteristic)
        except ValueError as exc:
            raise InputError(f"char: {exc}")
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    try:
        return run(args)
    except BrokenPipeError:
        # the reader closed stdout: stop, and send what is still buffered to
        # the null device so that the exit flush reports nothing either
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0


if __name__ == "__main__":
    sys.exit(main())

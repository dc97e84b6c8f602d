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
runs.  expand writes its document as gvand.vandermonde.expand_chunks
yields it, one block of at most 24 terms at a time.  A reader that
closes stdout early ends the command with exit 0 and nothing on stderr.

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
from gvand.reporting import render_text
from gvand.rings import CoefficientRing
from gvand.tropical import TROPICAL_IRREDUCIBLE, decide_tropical_irreducibility
from gvand.vandermonde import build_matrix, expand_chunks, require_expandable, vandermonde_determinant

MAX_SEED = 2**64 - 1
MAX_N = 12
MAX_VARS = 8
MAX_EXPONENT = 2**64 - 1
ORACLE_CHECKS = ("leibniz", "classical", "line", "jacobian", "polygon")


def _load_support(args) -> Support:
    if args.input_path and args.input_path != "-":
        try:
            with open(args.input_path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise InputError(f"input: cannot read {args.input_path}: {exc.strerror}")
    else:
        raw = sys.stdin.buffer.read()  # bytes, not text decoded by the locale's rules
    try:
        # decoded here, strictly, on both routes: json.loads on bytes would also take UTF-16 or a BOM
        data = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise InputError(f"input: invalid UTF-8: {exc}")
    except (ValueError, RecursionError) as exc:
        # a JSONDecodeError, an integer past the digit limit, or nesting past the recursion limit
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


def _emit(args, payload):
    """Print a payload of plain JSON data.

    A payload that is not a dict is the document itself, as chunks of
    text already in the output format, each written as it comes and freed
    before the next is built.
    """
    if isinstance(payload, dict):
        text = "\n".join(render_text(payload)) if args.fmt == "text" else json.dumps(payload)
        payload = (text + "\n",)
    sys.stdout.writelines(payload)


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
    require_expandable(support.N)
    head = {"command": "expand", "seed": args.seed, "characteristic": args.characteristic}
    _emit(args, expand_chunks(support, CoefficientRing(args.characteristic), args.fmt, head))
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
        ring = CoefficientRing(args.characteristic)
        agree = leibniz_determinant(build_matrix(support, ring)) == vandermonde_determinant(support, ring)
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
        report = line_case_factor(support, CoefficientRing(args.characteristic))
        # the binomial divides whenever the support lies on its line; at N = 2 the
        # quotient is a unit, and that is no falsification
        divides = report.quotient_terms is not None
        payload["report"] = dict(report.to_json(), ok=divides)
        failed = not divides
    elif args.check == "jacobian":
        report = jacobian_independence_evidence(support, seed=args.seed)
        payload["report"] = dict(report.to_json(), ok=True)
    else:  # polygon: both argv readers admit only ORACLE_CHECKS
        report = polygon_indecomposability(support)
        payload["report"] = dict(report.to_json(), ok=True)
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


# flag -> (dest, default, argparse options): what _build_parser adds and _read_argv reads
_FLAGS = {
    "--input": ("input_path", "-", {"help": "support JSON file, or - for stdin"}),
    "--char": ("characteristic", 0, {"type": int, "metavar": "P", "help": "field characteristic (0 or a prime)"}),
    "--seed": ("seed", 0, {"type": int, "help": "seed for all randomized steps (echoed in output)"}),
    "--format": ("fmt", "json", {"choices": ("json", "text")}),
}
_ORACLE_FLAGS = {**_FLAGS, "--check": ("check", None, {"required": True, "choices": ORACLE_CHECKS})}
_DEFAULTS = {dest: default for dest, default, _ in _FLAGS.values()}  # --check is required: no default


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
        for flag, (dest, default, options) in (_ORACLE_FLAGS if name == "oracle" else _FLAGS).items():
            cmd.add_argument(flag, dest=dest, default=default, **options)
    return parser


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
    args = {"command": argv[0], **_DEFAULTS}
    for flag, value in zip(argv[1::2], argv[2::2]):
        spec = flags.get(flag)
        if spec is None or value.startswith("-"):
            return None
        dest, _, options = spec
        if "type" in options:
            try:
                value = options["type"](value)
            except ValueError:
                return None
        elif "choices" in options and value not in options["choices"]:
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

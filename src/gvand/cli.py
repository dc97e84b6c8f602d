"""Command-line front end.

Subcommands: decide, expand, tropical, verify, oracle.  Input is a
support as JSON ({"n": ..., "exponents": [[...], ...]}) from --input or
stdin; field and seed come from flags.  Each command takes --input,
--char, --seed and --format, and oracle adds --check; the caps N <= 12
and n <= 8 are fixed.  Payloads are plain JSON data, and text output
renders the same data and nothing more.  For a fixed input and seed
every command prints byte-identical output across runs.  expand writes
its document, in either format, in chunks straight from
gvand.vandermonde.text_terms, which joins each term from a prefix and a
tail of the last rows built once per document: one chunk per top-row
column of the determinant, and per first-row minor one per column of
its own first row.  A reader that closes stdout early ends the command
with exit 0 and nothing on stderr.

Exit codes: 0 success, 1 falsified invariant or certificate mismatch
(also inconclusive randomized checks), 2 malformed input or cap
violation.
"""

import argparse
import functools
import json
import os
import sys

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
    FieldSpec,
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
ORACLE_CHECKS = ("leibniz", "classical", "line", "jacobian", "polygon")


def _load_support(args: argparse.Namespace) -> Support:
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


def _emit(args: argparse.Namespace, payload):
    """Print a payload of plain JSON data.

    A payload that is not a dict is the document itself, as chunks of
    text already in the output format, written as they come.
    """
    if isinstance(payload, dict):
        text = "\n".join(_render_text(payload)) if args.fmt == "text" else json.dumps(payload)
        payload = (text + "\n",)
    write = sys.stdout.write
    for chunk in payload:
        write(chunk)
        del chunk  # not held while the next chunk is built


class _TermText:
    """Term lists of the determinant and its minors as output text.

    A term is a head, then one fragment per nonzero exponent; ``joiner``
    goes between terms.  ``table[r][c]`` holds row r's fragments when it
    takes column c, each led by ``sep``, which the first fragment of a
    term drops.  A term with no variables has ``blank`` after its head.
    ``tails`` holds the texts of the bottom rows, built once with the
    table, before the first term; vandermonde.text_terms puts each term
    together from a prefix and one of them.
    """

    def __init__(self, gammas, head, fragment, sep, joiner, blank):
        self.gammas, self.head, self.sep, self.joiner, self.blank = gammas, head, sep, joiner, blank
        self.table = [
            ["".join(sep + fragment.format(grid_var(r, j), e) for j, e in enumerate(g, 1) if e) for g in gammas]
            for r in range(1, len(gammas) + 1)
        ]
        self.tails = text_tails(self.table, gammas)

    @classmethod
    def json(cls, gammas):
        return cls(gammas, '{{"coeff": "{}", "monomial": {{', '"{}": {}', ", ", "}}, ", "")

    @classmethod
    def text(cls, gammas, indent):
        pad = "  " * indent
        return cls(gammas, f"\n{pad}-\n{pad}  coeff: {{}}\n{pad}  monomial:", f"\n{pad}    {{}}: {{}}", "", "", " {}")

    def chunks(self, ring: CoefficientRing, cols):
        """The terms on columns ``cols`` and the last len(cols) rows as text:
        one chunk per run of text_terms, that is per column the first of
        those rows takes, with ``joiner`` between."""
        blank = "" if any(map(any, map(self.gammas.__getitem__, cols))) else self.blank
        heads = (self.head.format(ring.normalize(1)) + blank, self.head.format(ring.normalize(-1)) + blank)
        between = ""
        for run in text_terms(self.table, self.gammas, cols, *heads, self.tails, len(self.sep)):
            yield between
            yield self.joiner.join(run)
            between = self.joiner


def _expand_document(args: argparse.Namespace, inst: VandermondeInstance):
    """expand's output in chunks: the determinant one top-row column at a
    time, then each first-row minor one column of its first row at a time.
    No term map and no whole document is ever built."""
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
        terms = _TermText.text(gammas, 1)
        yield "\n".join(_render_text(head)) + "\ndeterminant:"
        after_det = "\n" + "\n".join(_render_text({"signs": signs})) + "\nminors:"
        minor_open, minor_close, minor_sep, end = "\n  -", "", "", "\n"
    else:
        terms = _TermText.json(gammas)
        yield json.dumps(head)[:-1] + ', "determinant": ['
        after_det = f'}}}}], "signs": {json.dumps(signs)}, "minors": ['
        minor_open, minor_close, minor_sep, end = "[", "}}]", ", ", "]}\n"
    yield from terms.chunks(ring, range(N))
    if args.fmt == "text":
        # the minors sit one level deeper.  Their table is built only once the
        # determinant's is freed, so one set of tails is held at a time, and
        # between chunks, where its strings leave no gaps among freed terms
        del terms
        terms = _TermText.text(gammas, 2)
    yield after_det
    for l in range(N):
        yield (minor_sep if l else "") + minor_open
        yield from terms.chunks(ring, [c for c in range(N) if c != l])
        yield minor_close
    yield end


def _cmd_decide(args: argparse.Namespace) -> int:
    support = _load_support(args)
    cert = decide(support, FieldSpec(args.characteristic))
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


def _cmd_expand(args: argparse.Namespace) -> int:
    support = _load_support(args)
    inst = VandermondeInstance(support, CoefficientRing(args.characteristic))
    require_expandable(support.N)
    _emit(args, _expand_document(args, inst))
    return 0


def _cmd_tropical(args: argparse.Namespace) -> int:
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


def _cmd_verify(args: argparse.Namespace) -> int:
    support = _load_support(args)
    field = FieldSpec(args.characteristic)
    cert = decide(support, field)
    inst = VandermondeInstance(support, field.ring)
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
        payload["verification"] = verify_certificate(inst, cert, seed=args.seed, tropical=tropical_cert)
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


def _cmd_oracle(args: argparse.Namespace) -> int:
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
        payload["report"] = dict(report.to_json(), ok=report.splits)
        failed = not report.splits
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


def run(args: argparse.Namespace) -> int:
    """Dispatch one command; returns the process exit code."""
    try:
        return _COMMANDS[args.command](args)
    except (InputError, SizeCapError, DegenerateSupportError, ValueError) as exc:
        # malformed input and caps: declined, not falsified.  ValueError stays until
        # the tropical witness of an admitted support stops outgrowing int-to-str
        # conversion.
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
def _build_parser() -> argparse.ArgumentParser:
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


def main(argv=None) -> int:
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

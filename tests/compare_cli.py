"""Compare the CLI's bytes between this tree and another source tree.

    python tests/compare_cli.py OTHER_SRC [--every K]

OTHER_SRC is the src/ directory of another checkout.  Every case is a
command line and the bytes on stdin; it runs in this process through
gvand.cli.main, once with gvand imported from this tree's src/ and once
from OTHER_SRC, and the two runs are compared on stdout, stderr and exit
code.  Each run that differs is printed, and the exit code is 1 if any
does.  --every K runs only every K-th case.

The cases:
- the seed-1 supports of the benchmark's corpora (perfbench/corpus.py):
  every second classify operation (one per support), every verify
  operation and the expand operations with N <= 6, each as its own
  command at its own characteristic;
- each of them also as decide, tropical and verify, in JSON and text;
- at N <= 5, also expand in both formats and the five oracle checks;
- refused inputs: the documents tests/test_exponents.py pins, NaN,
  Infinity and 1e400, empty input, double faults such as [["x"], 5],
  the caps, undecodable and over-deep input and bad flags, each through
  every command.
"""

import argparse
import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ORACLE_CHECKS = ("leibniz", "classical", "line", "jacobian", "polygon")
EVERY_COMMAND = [["decide"], ["expand"], ["tropical"], ["verify"]] + [["oracle", "--check", c] for c in ORACLE_CHECKS]

VALID = b'{"n": 2, "exponents": [[2, 0], [0, 2], [2, 2]]}'
REFUSED_DOCUMENTS = [
    # the from_json rows
    b"[1, 2]",
    b'{"exponents": [[1]]}',
    b'{"n": 1}',
    b'{"n": 0, "exponents": [[1]]}',
    b'{"n": 1.0, "exponents": [[1]]}',
    b'{"n": true, "exponents": [[1]]}',
    b'{"n": 1, "exponents": []}',
    b'{"n": 1, "exponents": {"0": [1]}}',
    b'{"n": 2, "exponents": [[1]]}',
    b'{"n": 1, "exponents": [[1], ["x"]]}',
    b'{"n": 1, "exponents": [[1], [-1]]}',
    b'{"n": 2, "exponents": [[0, 1.5]]}',
    b'{"n": 1, "exponents": [[false]]}',
    b'{"n": 1, "exponents": [[1], [1]]}',
    # values json.loads takes that are no numbers of the schema
    b'{"n": 1, "exponents": [[0], [NaN]]}',
    b'{"n": NaN, "exponents": [[0]]}',
    b'{"n": 1, "exponents": [[Infinity], [0]]}',
    b'{"n": -Infinity, "exponents": [[0]]}',
    b'{"n": 1, "exponents": [[0], [1e400]]}',
    b'{"n": 1e400, "exponents": [[0]]}',
    # no document, or no object
    b"",
    b"  \n",
    b"null",
    b'"support"',
    b"5",
    # two faults: the first in walk order is named
    b'{"n": 1, "exponents": [["x"], 5]}',
    b'{"n": 0, "exponents": "x"}',
    b'{"n": 2, "exponents": [[1], [1, -1]]}',
    b'{"n": 1, "exponents": [[0], [0], [-1]]}',
    b'{"n": 1, "exponents": [[0], [0], [1.5]]}',
    # the caps, and a duplicate key (the last one wins)
    json.dumps({"n": 1, "exponents": [[k] for k in range(13)]}).encode(),
    json.dumps({"n": 9, "exponents": [[0] * 9, [1] * 9]}).encode(),
    json.dumps({"n": 1, "exponents": [[0], [2**64]]}).encode(),
    json.dumps({"n": 1, "exponents": [[k] for k in range(10)]}).encode(),
    b'{"n": 1, "n": 2, "exponents": [[0, 0], [1, 0], [0, 1]]}',
    # unreadable input
    b'{"n": 1, "exponents": [[0], [' + b"7" * 5001 + b"]]}",
    b'{"n": 1, "exponents": [[0], [1]], "note": "\xff"}',
    b"\xef\xbb\xbf" + VALID,
    b"[" * 100000,
]
REFUSED_FLAGS = [
    ["decide", "--char", "4"],
    ["decide", "--char", "x"],
    ["decide", "--seed", "18446744073709551616"],
    ["decide", "--format", "yaml"],
    ["decide", "--nope", "1"],
    ["oracle"],
    ["oracle", "--check", "nope"],
]


def _corpus():
    spec = importlib.util.spec_from_file_location("corpus", ROOT / "perfbench" / "corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return corpus


def cases():
    """Every case as (argv, stdin bytes), in a fixed order, each once."""
    corpus = _corpus()
    ops = corpus.classify_ops(1)[::2] + corpus.verify_ops(1)
    ops += [op for op in corpus.expand_ops(1) if len(op["support"]["exponents"]) <= 6]
    out = []
    for op in ops:
        doc, char = json.dumps(op["support"]).encode(), ["--char", str(op["char"])]
        out.append(([op["command"], *char], doc))
        for command in ("decide", "tropical", "verify"):
            for fmt in ("json", "text"):
                out.append(([command, *char, "--format", fmt], doc))
        if len(op["support"]["exponents"]) <= 5:
            out += [(["expand", *char, "--format", fmt], doc) for fmt in ("json", "text")]
            out += [(["oracle", "--check", check, *char], doc) for check in ORACLE_CHECKS]
    out += [(command, doc) for doc in REFUSED_DOCUMENTS for command in EVERY_COMMAND]
    out += [(argv, VALID) for argv in REFUSED_FLAGS]
    return list({(tuple(argv), doc): (argv, doc) for argv, doc in out}.values())


def _import_cli(src):
    """gvand.cli imported afresh from ``src``, with no bytecode written into it."""
    for name in [m for m in sys.modules if m == "gvand" or m.startswith("gvand.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        return importlib.import_module("gvand.cli")
    finally:
        sys.path.remove(str(src))


class _Digest(io.TextIOBase):
    """A stdout that keeps only the sha256 and length of what is written: a tree
    that admits more than this one may write gigabytes."""

    def __init__(self):
        self.sha256, self.length = hashlib.sha256(), 0

    def write(self, text):
        self.sha256.update(text.encode())
        self.length += len(text)
        return len(text)


def _run(cli, argv, stdin):
    """(exit code, sha256 and length of stdout, stderr) of one in-process run."""
    out, err = _Digest(), io.StringIO()
    old_stdin, sys.stdin = sys.stdin, io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
            except Exception as exc:  # a traceback the CLI let through
                code = f"raised {type(exc).__name__}: {exc}"
    finally:
        sys.stdin = old_stdin
    return code, out.sha256.hexdigest(), out.length, err.getvalue()


def run_all(src, todo):
    cli = _import_cli(src)
    return [_run(cli, argv, stdin) for argv, stdin in todo]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other_src", type=Path, help="the src/ directory of the tree to compare with")
    parser.add_argument("--every", type=int, default=1, metavar="K", help="run only every K-th case")
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True
    todo = cases()[:: args.every]
    start = time.perf_counter()
    ours, theirs = run_all(ROOT / "src", todo), run_all(args.other_src.resolve(), todo)
    seconds = time.perf_counter() - start
    differ = 0
    for (argv, stdin), a, b in zip(todo, ours, theirs):
        if a != b:
            differ += 1
            print(f"differs: {argv} stdin {stdin[:80]!r}")
            for field, x, y in zip(("exit", "stdout sha256", "stdout length", "stderr"), a, b):
                if x != y:
                    print(f"  {field}: {x!r} here, {y!r} in {args.other_src}")
    print(f"{differ} of {len(todo)} runs differ ({len(todo)} cases on each tree, {seconds:.2f} s)")
    return int(differ > 0)


if __name__ == "__main__":
    sys.exit(main())

"""What the benchmark reads from gvand must keep working.

perfbench/layers.py patches every (module, attribute) in its WRAPPED
table; a name missing from gvand would break the benchmark run, so it
fails here first.  The benchmark's expand check compares a digest of
expand's output bytes with perfbench/expand_digests.json; an encoder
change that moves one byte fails here too, not only in the benchmark's
ok_rate.  The tropical certificate has the same guard: digests of
`tropical` output over the benchmark's classify supports, recorded in
tests/data/tropical_digests.json, and so does `verify` output over the
benchmark's seed-1 verify corpus, in tests/data/verify_digests.json,
`expand --format text` output over its seed-1 expand corpus, in
tests/data/expand_text_digests.json,
`oracle --check line` output over the classify supports on an affine
line, in tests/data/line_digests.json, and `oracle --check classical`
output, JSON and text, over the single-coordinate classify supports, in
tests/data/classical_digests.json.  The benchmark files are only read,
never changed.
"""

import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import sys
from pathlib import Path

from conftest import stdin_of
from gvand import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
DATA = Path(__file__).resolve().parent / "data"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run_digest(monkeypatch, argv, support, digest=_sha256):
    """Run cli.main on argv with the support on stdin; returns
    (exit code, stderr, digest of stdout)."""
    monkeypatch.setattr("sys.stdin", stdin_of(json.dumps(support)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue(), digest(out.getvalue())


def _key(op) -> str:
    return f"{op['char']}|{json.dumps(op['support'], separators=(',', ':'))}"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    layers = _load("layers")
    assert layers.WRAPPED
    missing = []
    for modname, attr, _ in layers.WRAPPED:
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{modname}.{attr}")
    assert missing == []


def test_expand_output_matches_the_recorded_digests(monkeypatch):
    corpus = _load("corpus")
    monkeypatch.setitem(sys.modules, "corpus", corpus)  # checks.py imports it by name
    checks = _load("checks")
    digests = json.loads((PERFBENCH / "expand_digests.json").read_text())
    ops = corpus.expand_ops(1)
    assert len(ops) == 109  # N = 8, n = 3, the largest expansion the benchmark runs, among them
    for op in ops:
        argv = ["expand", "--char", str(op["char"])]
        rc, err, digest = _run_digest(monkeypatch, argv, op["support"], checks.expand_digest)
        assert rc == 0 and err == ""
        assert digest == digests[corpus.expand_key(op)], op


def test_expand_text_matches_the_recorded_digests(monkeypatch):
    # sha256 of the whole text document, recorded while expand still joined (N - 1)! terms
    # per write: the benchmark checks JSON only
    corpus = _load("corpus")
    digests = json.loads((DATA / "expand_text_digests.json").read_text())
    ops = corpus.expand_ops(1)
    assert len(ops) == len(digests) == 109
    for op in ops:
        argv = ["expand", "--char", str(op["char"]), "--format", "text"]
        rc, err, digest = _run_digest(monkeypatch, argv, op["support"])
        assert rc == 0 and err == ""
        assert digest == digests[_key(op)], _key(op)


def test_tropical_output_matches_the_recorded_digests(monkeypatch):
    corpus = _load("corpus")
    digests = json.loads((DATA / "tropical_digests.json").read_text())
    ops = [op for op in corpus.classify_ops(1) if op["command"] == "tropical"]
    assert len(ops) > 100
    for seed in (0, 7):
        for op in ops:
            rc, err, digest = _run_digest(monkeypatch, ["tropical", "--seed", str(seed)], op["support"])
            assert rc == 0 and err == ""
            key = f"{seed}|{json.dumps(op['support'], separators=(',', ':'))}"
            assert digest == digests[key], key


def test_line_oracle_output_matches_the_recorded_digests(monkeypatch):
    # recorded from the oracle that divided the expanded determinant, on the supports
    # where it exited 0 (N = 2..9), and the three N = 2 lines whose quotient is a unit,
    # recorded once the oracle stopped reading a unit quotient as a falsification
    corpus = _load("corpus")
    digests = json.loads((DATA / "line_digests.json").read_text())
    assert len(digests) == 41
    checked = 0
    for op in corpus.classify_ops(1):
        key = _key(op)
        if op["command"] != "tropical" or key not in digests:
            continue
        argv = ["oracle", "--check", "line", "--char", str(op["char"])]
        rc, err, digest = _run_digest(monkeypatch, argv, op["support"])
        assert rc == 0 and err == ""
        assert digest == digests[key], key
        checked += 1
    assert checked == len(digests)


def test_classical_oracle_output_matches_the_recorded_digests(monkeypatch):
    # recorded while the quotient still had an encoder of its own: the only payload
    # whose JSON came from a second route.  The supports past the classical caps
    # are refused with one line.
    corpus = _load("corpus")
    digests = json.loads((DATA / "classical_digests.json").read_text())
    ops = {_key(op): op for op in corpus.classify_ops(1) if op["support"]["n"] == 1}
    assert len(ops) == 34 and len(digests) == 2 * 13
    refused = 0
    for key, op in ops.items():
        for fmt in ("json", "text"):
            argv = ["oracle", "--check", "classical", "--char", str(op["char"]), "--format", fmt]
            rc, err, digest = _run_digest(monkeypatch, argv, op["support"])
            if f"{fmt}|{key}" in digests:
                assert rc == 0 and err == ""
                assert digest == digests[f"{fmt}|{key}"], (fmt, key)
            else:
                assert rc == 2 and digest == _sha256("")
                assert err.startswith("error: ") and err.count("\n") == 1, (fmt, key)
                refused += 1
    assert refused == 2 * 21


def test_verify_output_matches_the_recorded_digests(monkeypatch):
    corpus = _load("corpus")
    digests = json.loads((DATA / "verify_digests.json").read_text())
    ops = corpus.verify_ops(1)
    assert len(ops) == 173
    for op in ops:
        rc, err, digest = _run_digest(monkeypatch, ["verify", "--char", str(op["char"])], op["support"])
        assert rc == 0 and err == ""
        assert digest == digests[_key(op)], _key(op)

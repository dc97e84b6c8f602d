"""What the benchmark reads from gvand must keep working.

perfbench/layers.py patches every (module, attribute) in its WRAPPED
table; a name missing from gvand would break the benchmark run, so it
fails here first.  The benchmark's expand check compares a digest of
expand's output bytes with perfbench/expand_digests.json; an encoder
change that moves one byte fails here too, not only in the benchmark's
ok_rate.  The tropical certificate has the same guard: digests of
`tropical` output over the benchmark's classify supports, recorded in
tests/data/tropical_digests.json, and so does `verify` output over the
benchmark's seed-1 verify corpus, in tests/data/verify_digests.json, and
`oracle --check line` output over the classify supports on an affine
line, in tests/data/line_digests.json.  The benchmark files are only
read, never changed.
"""

import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import sys
from pathlib import Path

from gvand import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
DATA = Path(__file__).resolve().parent / "data"


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
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(op["support"])))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(["expand", "--char", str(op["char"])])
        assert rc == 0 and err.getvalue() == ""
        assert checks.expand_digest(out.getvalue()) == digests[corpus.expand_key(op)], op


def test_tropical_output_matches_the_recorded_digests(monkeypatch):
    corpus = _load("corpus")
    digests = json.loads((DATA / "tropical_digests.json").read_text())
    ops = [op for op in corpus.classify_ops(1) if op["command"] == "tropical"]
    assert len(ops) > 100
    for seed in (0, 7):
        for op in ops:
            monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(op["support"])))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(["tropical", "--seed", str(seed)])
            assert rc == 0 and err.getvalue() == ""
            key = f"{seed}|{json.dumps(op['support'], separators=(',', ':'))}"
            assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digests[key], key


def test_line_oracle_output_matches_the_recorded_digests(monkeypatch):
    # recorded from the oracle that divided the expanded determinant, on the supports
    # where it exited 0: N = 2..9 less the lines whose quotient has degree 0
    corpus = _load("corpus")
    digests = json.loads((DATA / "line_digests.json").read_text())
    assert len(digests) == 38
    checked = 0
    for op in corpus.classify_ops(1):
        key = f"{op['char']}|{json.dumps(op['support'], separators=(',', ':'))}"
        if op["command"] != "tropical" or key not in digests:
            continue
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(op["support"])))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(["oracle", "--check", "line", "--char", str(op["char"])])
        assert rc == 0 and err.getvalue() == ""
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digests[key], key
        checked += 1
    assert checked == len(digests)


def test_verify_output_matches_the_recorded_digests(monkeypatch):
    corpus = _load("corpus")
    digests = json.loads((DATA / "verify_digests.json").read_text())
    ops = corpus.verify_ops(1)
    assert len(ops) == 173
    for op in ops:
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(op["support"])))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(["verify", "--char", str(op["char"])])
        assert rc == 0 and err.getvalue() == ""
        key = f"{op['char']}|{json.dumps(op['support'], separators=(',', ':'))}"
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digests[key], key

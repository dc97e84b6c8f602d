"""Checks of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

The count metrics of a traced pass must repeat exactly for a fixed seed;
the output checks must reject a changed output; the layer wrappers must
come off cleanly.  Uses the cheap part of each corpus (N <= 5).
"""

import contextlib
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import corpus  # noqa: E402
from checks import check  # noqa: E402
from layers import EXACT, Tracer, summarize  # noqa: E402
from passrun import import_cli, run_pass  # noqa: E402
from run import DIGESTS  # noqa: E402

SEED = 3


@pytest.fixture(scope="module")
def cli():
    return import_cli()[0]


@pytest.fixture(scope="module")
def digests():
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def small_ops(workload):
    return [op for op in corpus.WORKLOADS[workload](SEED) if len(op["support"]["exponents"]) <= 5][:40]


def traced_pass(cli, ops, workdir, digests):
    tracer = Tracer()
    tracer.install()
    try:
        result = run_pass(cli, ops, workdir, digests, tracer)
    finally:
        tracer.uninstall()
    return result, summarize(tracer, result["wall_ns"], result["emit_bytes"])


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_exact_counters_repeat(workload, cli, digests, tmp_path):
    ops = small_ops(workload)
    first, layers1 = traced_pass(cli, ops, str(tmp_path), digests)
    second, layers2 = traced_pass(cli, ops, str(tmp_path), digests)
    counts1 = {k: layers1[k] for k in EXACT}
    counts2 = {k: layers2[k] for k in EXACT}
    assert counts1 == counts2
    assert counts1["cli.emit.bytes"] > 0
    assert first["wrong"] == second["wrong"] == 0
    assert first["failures"] == second["failures"]
    assert 0 < layers1["trace.coverage"] <= 1


def test_corpus_depends_only_on_seed():
    for make in corpus.WORKLOADS.values():
        assert make(SEED) == make(SEED)
        assert make(SEED) != make(SEED + 1)


def test_install_and_uninstall_restore_every_site(cli):
    from gvand import irreducibility, poly

    originals = (cli.decide, irreducibility.decide, poly.SparsePoly.__dict__["exact_divide"])
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.decide is irreducibility.decide
        assert cli.decide is not originals[0]
        assert cli.decide.__wrapped__ is originals[0]
    finally:
        tracer.uninstall()
    assert (cli.decide, irreducibility.decide, poly.SparsePoly.__dict__["exact_divide"]) == originals


def test_checks_reject_changed_output(cli, digests, tmp_path):
    op = next(op for op in small_ops("expand") if op["char"] == 0)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(op["support"]))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(["expand", "--input", str(path), "--char", "0"]) == 0
    text = buf.getvalue()
    assert check(op, 0, text, "", digests) is None
    flipped = text.replace('"coeff": "1"', '"coeff": "-1"', 1)
    assert "digest" in check(op, 0, flipped, "", digests)
    assert "terms" in check(op, 0, text.replace('{"coeff": ', '{"c": ', 1), "", digests)

    decide = {"command": "decide", "char": 2, "klass": corpus.POWER, "d": 2}
    payload = json.dumps({"certificate": {"verdict": corpus.IRREDUCIBLE}})
    assert "verdict" in check(decide, 0, payload, "", digests)
    assert check(decide, 1, "", "falsified: boom\n", digests) == "exit 1: falsified: boom"

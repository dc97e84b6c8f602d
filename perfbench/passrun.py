"""One pass over a workload corpus, in this (fresh) process.

Reads the corpus that run.py wrote, imports gvand.cli from the
checkout's src/, then issues the operations one at a time (closed loop,
one caller): each writes its support to an input file and calls
``cli.main`` in process with stdout and stderr captured.  Output checks
run between operations and their time is left out of the pass wall time.
Prints one JSON object with the pass's numbers.

    python3 perfbench/passrun.py CORPUS.json WORKDIR [--trace] [--setup-only]
"""

import contextlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def import_cli():
    """Import gvand.cli from the checkout; returns (module, seconds taken)."""
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    from gvand import cli

    return cli, time.perf_counter() - start


def run_pass(cli, ops, workdir, digests, tracer=None):
    """Issue every operation once; returns the pass's numbers."""
    # Imported only now: checks imports fractions and random (through
    # corpus), and set-up time must include gvand importing them.
    from checks import check

    path = os.path.join(workdir, "input.json")
    latencies = []
    failures = []
    wrong = 0
    emitted = 0
    check_ns = 0
    begin = time.perf_counter_ns()
    for op in ops:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(op["support"], fh)
        argv = [op["command"], "--input", path, "--char", str(op["char"])]
        out, err = io.StringIO(), io.StringIO()
        if tracer:
            tracer.open("cli.main")
        t0 = time.perf_counter_ns()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except Exception as exc:  # a traceback is a failed operation, not a broken benchmark
            rc = None
            err.write(f"traceback: {type(exc).__name__}: {exc}\n")
        t1 = time.perf_counter_ns()
        if tracer:
            tracer.close()
        latencies.append((t1 - t0) / 1e6)
        text = out.getvalue()
        emitted += len(text)
        try:
            reason = check(op, rc, text, err.getvalue(), digests)
        except (ValueError, KeyError, TypeError) as exc:
            reason = f"output: cannot read {op['command']} output: {exc}"
        if reason:
            wrong += not reason.startswith(("exit", "traceback"))
            failures.append(reason)
        check_ns += time.perf_counter_ns() - t1
    wall_ns = time.perf_counter_ns() - begin - check_ns
    return {
        "wall_ns": wall_ns,
        "ops": len(ops),
        "latencies_ms": latencies,
        "failed": len(failures),
        "wrong": wrong,
        "failures": failures,
        "emit_bytes": emitted,
    }


def main(argv):
    corpus_path, workdir = argv[0], argv[1]
    with open(corpus_path, encoding="utf-8") as fh:
        corpus = json.load(fh)
    cli, setup_s = import_cli()
    if "--setup-only" in argv:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    tracer = None
    if "--trace" in argv:
        from layers import Tracer, summarize

        tracer = Tracer()
        tracer.install()
    result = run_pass(cli, corpus["ops"], workdir, corpus["digests"], tracer)
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()
        result["layers"] = summarize(tracer, result["wall_ns"], result["emit_bytes"])
        with open(os.path.join(workdir, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

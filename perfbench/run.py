"""End-to-end benchmark of the gvand CLI over seeded support corpora.

    python3 perfbench/run.py --workload {classify,expand,verify} --seed N \\
        --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all --seed N --seconds S

Generates the workload's corpus from the seed, then runs passes over it,
each in a fresh process (perfbench/passrun.py), until S seconds are
used.  Every operation's output is checked.  Time metrics take each
operation at its best over the run's passes, which keeps swings in host
speed out of them.  Prints a report with every
metric by name and unit, and as the last line one JSON object with
"correct", "attempted", "failed" and "metrics": the end-to-end metrics
with --trace 0, the per-layer metrics (from a traced run, alternating
with untraced passes) with --trace 1.  "--workload all" runs every
workload untraced and traced, one report and result line each.  Exits
non-zero only when the benchmark itself cannot run.
"""

import argparse
import collections
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import corpus  # noqa: E402
from layers import METRICS as LAYER_METRICS  # noqa: E402

WORKDIR = os.path.join(HERE, ".work")
DIGESTS = os.path.join(HERE, "expand_digests.json")
SETUP_PROBES = 5
MIN_PASSES = 2
CALIBRATION_LOOPS = 3_000_000

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
}


def quantile(sorted_vals, q):
    """Nearest-rank quantile of an ascending list."""
    return sorted_vals[max(0, math.ceil(len(sorted_vals) * q) - 1)]


class BenchError(Exception):
    """The benchmark itself cannot run (as opposed to a failed operation)."""


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop: a host-speed diagnostic, never a metric."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i & 7
    return time.perf_counter() - start


def _child(rundir, *flags, timeout):
    corpus_path = os.path.join(rundir, "corpus.json")
    cmd = [sys.executable, os.path.join(HERE, "passrun.py"), corpus_path, rundir, *flags]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass exceeded {timeout:.0f} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise BenchError(f"pass process exited {proc.returncode}: {tail[0]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def write_corpus(workload, seed, rundir):
    ops = corpus.WORKLOADS[workload](seed)
    digests = {}
    if workload == "expand":
        with open(DIGESTS, encoding="utf-8") as fh:
            digests = json.load(fh)
    with open(os.path.join(rundir, "corpus.json"), "w", encoding="utf-8") as fh:
        json.dump({"ops": ops, "digests": digests}, fh)


def run_passes(rundir, seconds, trace, start):
    """Fresh-process passes until the time is used; tracing alternates with untraced passes.

    Once MIN_PASSES untraced passes are done (one untraced and one traced
    in a traced run), no pass starts that would likely end more than half
    a pass after ``seconds``, counted from ``start``: runs end within half
    a pass of ``seconds`` either way.
    """
    plain, traced = [], []
    longest = 0.0
    while True:
        elapsed = time.perf_counter() - start
        need_more = len(plain) < (1 if trace else MIN_PASSES) or (trace and not traced)
        if not need_more and elapsed + longest / 2 > seconds:
            break
        use_trace = trace and len(traced) < len(plain)
        t0 = time.perf_counter()
        result = _child(rundir, *(["--trace"] if use_trace else []), timeout=170 - elapsed)
        longest = max(longest, time.perf_counter() - t0)
        (traced if use_trace else plain).append(result)
    return plain, traced


def best_latencies(passes):
    """Each operation's lowest latency (ms) over the passes.

    A slower host only ever adds time, so the best of several passes,
    spread over the run, is the closest reading of the program's own cost.
    """
    return [min(lat) for lat in zip(*(p["latencies_ms"] for p in passes))]


def e2e_metrics(plain, setups):
    best = best_latencies(plain)
    per_op = sorted(best)
    attempted = sum(p["ops"] for p in plain)
    failed = sum(p["failed"] for p in plain)
    return {
        "setup_s": min(setups),
        "wall_s": sum(best) / 1e3,
        "op_p50_ms": quantile(per_op, 0.5),
        "op_p90_ms": quantile(per_op, 0.9),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "ok_rate": 1 - failed / attempted,
    }


def layer_metrics(plain, traced):
    out = {}
    for name in LAYER_METRICS:
        if name == "trace.overhead":
            continue
        # median_low keeps exact counts as the integers they are
        out[name] = statistics.median_low(p["layers"][name] for p in traced)
    out["trace.overhead"] = sum(best_latencies(traced)) / sum(best_latencies(plain))
    return out


def report(workload, seed, passes, metrics, units, probes):
    print(f"workload {workload}  seed {seed}  passes {len(passes)}  ops/pass {passes[0]['ops']}")
    print(f"host probe ({CALIBRATION_LOOPS} loop iterations): "
          f"{probes[0]:.3f} s before, {probes[1]:.3f} s after (diagnostic only)")
    fails = collections.Counter(r for p in passes[:1] for r in p["failures"])
    total = sum(fails.values())
    print(f"failed operations in the first pass: {total} of {passes[0]['ops']} "
          f"(fail_rate {total / passes[0]['ops']:.4f})")
    for reason, count in fails.most_common(8):
        print(f"  {count:4d} x {reason}")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>16.6f} {units[name]}")


def measure(workload, seed, seconds, trace) -> dict:
    """One run: report printed, result line returned.  Raises BenchError."""
    start = time.perf_counter()
    os.makedirs(WORKDIR, exist_ok=True)
    # a directory of its own, so that two runs in one checkout share no input files
    rundir = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORKDIR)
    try:
        write_corpus(workload, seed, rundir)
        probes = [host_probe()]
        setups = [_child(rundir, "--setup-only", timeout=60)["setup_s"] for _ in range(SETUP_PROBES)]
        plain, traced = run_passes(rundir, seconds, trace, start)
        probes.append(host_probe())
        if traced:
            os.replace(os.path.join(rundir, "spans.json"), os.path.join(WORKDIR, f"spans-{workload}-{seed}.json"))
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    passes = plain + traced
    setups += [p["setup_s"] for p in passes]
    if trace:
        metrics, units = layer_metrics(plain, traced), LAYER_METRICS
    else:
        metrics, units = e2e_metrics(plain, setups), E2E_UNITS
    report(workload, seed, passes, metrics, units, probes)
    with open(os.path.join(WORKDIR, f"result-{workload}-{seed}-{int(trace)}.json"), "w") as fh:
        json.dump({"passes": passes, "setups": setups, "host_probe_s": probes, "metrics": metrics}, fh)
    return {
        "correct": all(p["wrong"] == 0 for p in passes),
        "attempted": sum(p["ops"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    every = args.workload == "all"
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "gvand", "cli.py")):
            raise BenchError(f"no gvand sources under {os.path.join(ROOT, 'src')}")
        for workload in sorted(corpus.WORKLOADS) if every else [args.workload]:
            for trace in (0, 1) if every else (args.trace,):
                print(json.dumps(measure(workload, args.seed, args.seconds, bool(trace))), flush=True)
    except (BenchError, OSError, ValueError) as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

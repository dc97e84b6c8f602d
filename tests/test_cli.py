import ast
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import stdin_of
import gvand
from gvand import cli, exponents, irreducibility, kernels, oracle, reporting, tropical, vandermonde
from gvand.cli import main
from gvand.errors import AllPointsSingularError, DegenerateSupportError, SizeCapError
from gvand.exponents import Support
from gvand.poly import SparsePoly
from gvand.rings import CoefficientRing

SQUARE = {"n": 2, "exponents": [[2, 0], [0, 2], [2, 2]]}
TRIANGLE = {"n": 2, "exponents": [[0, 0], [1, 0], [0, 1]]}
STAIRCASE = {"n": 1, "exponents": [[0], [1], [2]]}
LINE = {"n": 2, "exponents": [[0, 0], [1, 1], [2, 2]]}
# the benchmark's N = 8, n = 3 expand operation: 20.6 MB of JSON
BENCH_N8 = {"n": 3, "exponents": [[2, 4, 4], [1, 2, 1], [5, 3, 6], [0, 0, 0], [3, 6, 6], [3, 2, 6], [4, 7, 0], [1, 4, 3]]}
SRC = str(Path(gvand.__file__).resolve().parents[1])
EVERY_COMMAND = [["decide"], ["expand"], ["tropical"], ["verify"]] + [["oracle", "--check", c] for c in cli.ORACLE_CHECKS]


@pytest.fixture
def support_file(tmp_path):
    def write(data, name="support.json"):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    return write


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decide_json(support_file, capsys):
    code, out, err = _run(capsys, ["decide", "--input", support_file(SQUARE), "--char", "2"])
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["command"] == "decide"
    assert payload["characteristic"] == 2
    assert payload["certificate"]["verdict"] == "power_of_irreducible"
    assert payload["certificate"]["power_r"] == 1
    assert payload["certificate"]["reduced_support"]["exponents"] == [[1, 0], [0, 1], [1, 1]]


def test_decide_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", stdin_of(json.dumps(TRIANGLE)))
    code, out, _ = _run(capsys, ["decide"])
    assert code == 0
    assert json.loads(out)["certificate"]["verdict"] == "irreducible"


def test_expand_square_support(support_file, capsys):
    code, out, _ = _run(capsys, ["expand", "--input", support_file(SQUARE)])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["determinant"]) == 6
    assert payload["signs"] == [0, 1, 0]
    assert len(payload["minors"]) == 3
    assert payload["variables"][:2] == ["X_1_1", "X_1_2"]
    coeffs = sorted(term["coeff"] for term in payload["determinant"])
    assert coeffs == ["-1", "-1", "-1", "1", "1", "1"]


def test_expand_single_vector(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", stdin_of('{"n": 1, "exponents": [[3]]}'))
    code, out, err = _run(capsys, ["expand"])
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["determinant"] == [{"coeff": "1", "monomial": {"X_1_1": 3}}]
    assert payload["minors"] == [[{"coeff": "1", "monomial": {}}]]
    assert payload["signs"] == [0]


def test_expand_runs_no_kernel(support_file, capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("expand must not call the term-map kernels")

    for name in ("mul_terms", "add_terms", "addmul_terms"):
        monkeypatch.setattr(kernels, name, unreachable)
    for char in ("0", "2", "3"):
        code, out, err = _run(capsys, ["expand", "--input", support_file(SQUARE), "--char", char])
        assert code == 0 and err == ""
        assert len(json.loads(out)["determinant"]) == 6


def test_expand_walks_the_permutations_once(support_file, capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("expand must not expand each minor along the first row")

    monkeypatch.setattr(vandermonde, "_first_row", unreachable)
    for N in (1, 2, 3, 5, 7):
        path = support_file({"n": 2, "exponents": [[i, 3 * i % 5] for i in range(N)]})
        for char in ("0", "2", "3"):
            for fmt in ("json", "text"):
                code, out, err = _run(capsys, ["expand", "--input", path, "--char", char, "--format", fmt])
                assert code == 0 and err == ""
                assert out.count("coeff") == 2 * math.factorial(N)  # N! in the determinant, (N - 1)! per minor


@pytest.mark.parametrize("command, exponents", [("expand", [[k] for k in range(10)])])
def test_expansion_cap_beyond_memory(support_file, command, exponents):
    big = {"n": len(exponents[0]), "exponents": exponents}
    for fmt in ("json", "text"):  # the cap refuses before the first byte of either format
        done = _run_bounded([command, "--format", fmt], support_file(big))
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert "expansion cap" in done.stderr


# the largest expands the caps admit: N = EXPAND_MAX_N = 9, n = MAX_VARS = 8, every exponent
# nonzero; 2 * 9! = 725 760 terms.  CAP_EDGE writes 0.61 GB of JSON or 0.81 GB of text, and
# CAP_EDGE_2E64, with 20-digit exponents, 1.55 GB or 1.75 GB.
CAP_EDGE = {"n": 8, "exponents": [[(7 * i + 3 * j) % 9 + 1 for j in range(8)] for i in range(9)]}
CAP_EDGE_2E64 = {"n": 8, "exponents": [[2**64 - 1 - (8 * i + j) for j in range(8)] for i in range(9)]}
# sha256 of each whole stream, recorded while expand still joined (N - 1)! terms per write
EXPAND_CAP_EDGE = {
    "expand-N9-n8-json": (CAP_EDGE, "83eb55d96c7214c8f51379bb11df20fbc277a0581aec27315a8d72a6858ba5cc"),
    "expand-N9-n8-text": (CAP_EDGE, "63a83bca6d5d434fee3bd0e838270fcf0ef2d9099adf409d77320a57fb07e642"),
    "expand-N9-n8-json-2e64": (CAP_EDGE_2E64, "fd01a437ac146b92d76816f25d8ee08e42cfd2fc99f63c1dce2518306b4c210b"),
    "expand-N9-n8-text-2e64": (CAP_EDGE_2E64, "eda1146d1df29095c352a1439644565f624ba000fd146fd995da888cf32efb67"),
}
# Writing one block of 24 terms at a time, expand peaks at 20-23 MB on each row and takes at
# most 0.5 s on a 2-core host, interpreter start-up included; read, counted and hashed by the
# contract rows below, the slowest row (text-2e64) takes 4.3-4.7 s under pytest.  Joining 8!
# terms per write, it peaked at 89-213 MB.  The child itself uses 0.17-0.38 s of CPU.  Its
# budget, about five times that, is on its own CPU time, so the reader's share does not count
# against expand.  As on the other bounded rows, the wall timer ends a hang at HANG_FACTOR
# times the budget.
EXPAND_ADDRESS_SPACE = 64 * 2**20
CAP_EDGE_CPU_SECONDS = 2
# the address space of the bounded rows below
CAP_EDGE_ADDRESS_SPACE = 512 * 2**20


def _limit_address_space(limit=CAP_EDGE_ADDRESS_SPACE):
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def _reap(proc):
    """Wait for the child: its exit code and the CPU seconds it used, from its own rusage."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_utime + usage.ru_stime


# the largest shape oracle --check jacobian admits: N = 12, n = MAX_VARS = 8, exponents near 10**18
JACOBIAN_CAP_EDGE = {"n": 8, "exponents": [[10**18 - (8 * i + j) ** 2 for j in range(8)] for i in range(12)]}
# It and BENCH_N8 each take about 0.05 s of CPU and 32 MB on a 2-core host, interpreter
# start-up included.  A bounded row's budget is on the child's own CPU time: ten times the
# slowest of three measured runs, rounded up to a whole second.  Every row below that names
# no budget of its own takes 0.03-0.08 s, so it gets 1 s, and a slowdown like the 2.2 s the
# rank 7 verify row took on Smith form coordinates fails it.  A child still running after
# HANG_FACTOR times its budget in wall time is killed.
BOUNDED_CPU_SECONDS = 1
HANG_FACTOR = 5


def _run_bounded(argv, support_path, cpu_seconds=BOUNDED_CPU_SECONDS):
    """Run the CLI in a child under CAP_EDGE_ADDRESS_SPACE; fail if it uses more than
    ``cpu_seconds`` of CPU."""
    args = [sys.executable, "-m", "gvand.cli", *argv, "--input", support_path]
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(
            args, stdout=out, stderr=err, env=dict(os.environ, PYTHONPATH=SRC), preexec_fn=_limit_address_space
        )
        timer = threading.Timer(HANG_FACTOR * cpu_seconds, proc.kill)
        timer.start()
        try:
            code, cpu = _reap(proc)
        finally:
            timer.cancel()
        out.seek(0)
        err.seek(0)
        done = subprocess.CompletedProcess(args, code, out.read().decode(), err.read().decode())
    assert cpu <= cpu_seconds, f"{argv}: {cpu:.2f} s of CPU against a budget of {cpu_seconds} s"
    return done


# N = MAX_N = 12, n = MAX_VARS = 8 up to the exponent cap 2^64 - 1, a zero vector among them,
# at affine rank 8 (with the largest admitted vector), 7 (x_8 = x_1 + x_2) and 4 (x_5..x_8 are
# sums of two of x_1..x_4).  The span coordinates are columns of the support, so the tropical
# witness stays near the input's size; tropical, verify and the Jacobian oracle each take
# under 0.1 s on a 2-core host, interpreter start-up included.  A Smith form transform grew
# the rank 7 coordinates to over a thousand digits: tropical then exited 2 at Python's
# 4 300-digit int-to-str limit and verify took over 2 s.
def _near_cap(free, extra):
    draw = random.Random(0)
    rows = [[draw.randrange(2**63) for _ in range(free)] for _ in range(11)]
    return {"n": 8, "exponents": [[0] * 8] + [r + [r[a] + r[b] for a, b in extra] for r in rows]}


EXPONENT_CAP_EDGE = {
    "rank8": {"n": 8, "exponents": [[0] * 8, [2**64 - 1] * 8] + _near_cap(8, [])["exponents"][2:]},
    "rank7": _near_cap(7, [(0, 1)]),
    "rank4": _near_cap(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
}


@pytest.mark.parametrize(
    "support",
    [JACOBIAN_CAP_EDGE, BENCH_N8, *EXPONENT_CAP_EDGE.values()],
    ids=["N12-n8-1e18", "N8-n3", *(f"N12-n8-{rank}-2e64" for rank in EXPONENT_CAP_EDGE)],
)
def test_jacobian_oracle_at_the_cap_edge_ends_within_bounds(support_file, support):
    done = _run_bounded(["oracle", "--check", "jacobian"], support_file(support))
    assert done.returncode == 0 and done.stderr == ""
    assert json.loads(done.stdout)["report"]["conclusive"] is True


# a zero vector and 11 vectors drawn below 10**18, full-dimensional in n = MAX_VARS = 8 at
# N = MAX_N = 12: the span coordinates are the support translated.  A Smith form transform
# would grow them to about 1 750 digits and the witness past Python's 4 300-digit int-to-str
# limit.  Both commands take about 0.06 s on a 2-core host, interpreter start-up included.
_DRAW = random.Random(0)
TROPICAL_CAP_EDGE = {"n": 8, "exponents": [[0] * 8] + [[_DRAW.randrange(10**18) for _ in range(8)] for _ in range(11)]}


@pytest.mark.parametrize("command", ["tropical", "verify"])
def test_full_dimensional_tropical_at_the_cap_edge_ends_within_bounds(support_file, command):
    done = _run_bounded([command], support_file(TROPICAL_CAP_EDGE))
    assert done.returncode == 0 and done.stderr == ""
    payload = json.loads(done.stdout)
    assert payload["certificate"]["verdict"] == "irreducible"
    assert command == "tropical" or payload["ok"] is True


@pytest.mark.parametrize("command", ["tropical", "verify"])
@pytest.mark.parametrize("support", list(EXPONENT_CAP_EDGE))
def test_exponents_at_the_cap_edge_end_within_bounds(support_file, support, command):
    done = _run_bounded([command], support_file(EXPONENT_CAP_EDGE[support]))
    assert done.returncode == 0 and done.stderr == ""
    payload = json.loads(done.stdout)
    assert payload["certificate"]["verdict"] == "irreducible"
    assert command == "tropical" or payload["ok"] is True


# Collinear supports whose determinant or quotient would not fit: gaps of 10**6, 10**7 and
# 10**18 along the line, N = 10, and the largest shape the caps admit, N = 12, n = 8.  Both
# commands read the witness off the line and take about 0.04 s on a 2-core host, interpreter
# start-up included.  Expanding the determinant and dividing it would exceed this address
# space on each gap, and the expansion cap refuses N >= 10.
COLLINEAR_CAP_EDGE = {
    "gap1e6": {"n": 2, "exponents": [[0, 0], [1, 2], [10**6, 2 * 10**6]]},
    "gap1e7": {"n": 2, "exponents": [[0, 0], [1, 2], [10**7, 2 * 10**7]]},
    "gap1e18": {"n": 2, "exponents": [[0, 0], [1, 1], [10**18, 10**18]]},
    "N10-n2": {"n": 2, "exponents": [[k, 2 * k] for k in range(10)]},
    "N12-n8": {"n": 8, "exponents": [[k * j for j in range(1, 9)] for k in range(12)]},
}
# n = 1, far past the classical oracle's caps, which verify does not run
LINE_GAP_N1 = {"n": 1, "exponents": [[0], [1], [10**7]]}


@pytest.mark.parametrize("command", ["verify", "line"])
@pytest.mark.parametrize("support", list(COLLINEAR_CAP_EDGE))
def test_collinear_at_the_cap_edge_ends_within_bounds(support_file, support, command):
    argv = ["verify", "--char", "0"] if command == "verify" else ["oracle", "--check", "line"]
    done = _run_bounded(argv, support_file(COLLINEAR_CAP_EDGE[support]))
    assert done.returncode == 0 and done.stderr == ""
    payload = json.loads(done.stdout)
    assert (payload if command == "verify" else payload["report"])["ok"] is True


def test_wide_single_coordinate_line_splits_past_the_classical_cap(support_file):
    path = support_file(LINE_GAP_N1)
    done = _run_bounded(["oracle", "--check", "line"], path)
    assert done.returncode == 0 and done.stderr == ""
    assert json.loads(done.stdout)["report"]["ok"] is True
    done = _run_bounded(["verify", "--char", "0"], path)
    assert done.returncode == 0 and done.stderr == ""
    assert json.loads(done.stdout)["ok"] is True


# verify at N past the expansion cap (9) and the classical oracle's (7): power verdicts
# over GF(3) and GF(2), and the n = 1 staircase.  Each reads its certificate in about
# 0.06 s on a 2-core host, interpreter start-up included; holding the N! terms would
# need gigabytes.
VERIFY_CAP_EDGE = {
    "power-N10-n2-gf3": (3, {"n": 2, "exponents": [[3 * a, 3 * b] for a in range(4) for b in range(4 - a)]}),
    # twice the zero vector, the unit vectors, and (1,1,0..), (0,0,2,1,0..), (3,0..,1,2)
    "power-N12-n8-gf2": (
        2,
        {
            "n": 8,
            "exponents": [[2 * (j == i) for j in range(8)] for i in range(-1, 8)]
            + [[2, 2, 0, 0, 0, 0, 0, 0], [0, 0, 4, 2, 0, 0, 0, 0], [6, 0, 0, 0, 0, 0, 2, 4]],
        },
    ),
    "staircase-N12-n1": (0, {"n": 1, "exponents": [[k] for k in range(12)]}),
}


@pytest.mark.parametrize("support", list(VERIFY_CAP_EDGE))
def test_verify_at_the_cap_edge_ends_within_bounds(support_file, support):
    char, data = VERIFY_CAP_EDGE[support]
    done = _run_bounded(["verify", "--char", str(char)], support_file(data))
    assert done.returncode == 0 and done.stderr == ""
    assert json.loads(done.stdout)["ok"] is True


# The contract table's other rows: the largest admitted input of each kind for decide, expand
# and the oracle checks that the rows above leave out.  Each must end with exit 0, 1 or 2 and
# at most one line on stderr, within a budget set like the bounded rows'; each expand row must
# also exit 0 with nothing on stderr and stream its recorded digest, under its own CPU budget
# and address space (see EXPAND_CAP_EDGE).  The slowest of three runs
# on a 2-core host, interpreter start-up included: decide 0.04 s of CPU on the near-2^64
# supports; Leibniz 1.26 s (181 MB) at N = LEIBNIZ_MAX_N = 8 with n = 8 and 20-digit
# exponents; classical 0.21 s at CLASSICAL_MAX_WORK (N = 6, bound 896) and 0.44 s at
# N = CLASSICAL_MAX_N = 7 (bound 112, the most N = 7 admits); polygon 0.11 s on a 12-gon of
# lattice perimeter POLYGON_MAX_PERIMETER = 128.
_POLYGON_12 = [[11, 0], [22, 0], [44, 11], [54, 21], [64, 41], [64, 52], [53, 63], [42, 63], [20, 52], [10, 42], [0, 22], [0, 11]]
CONTRACT_ROWS = {
    **{f"decide-N12-n8-{rank}-2e64": (["decide"], data, 1) for rank, data in EXPONENT_CAP_EDGE.items()},
    "leibniz-N8-n8-2e64": (["oracle", "--check", "leibniz"], {"n": 8, "exponents": CAP_EDGE_2E64["exponents"][:8]}, 13),
    "classical-work-cap-N6": (["oracle", "--check", "classical"], {"n": 1, "exponents": [[0], [1], [2], [4], [6], [8]]}, 3),
    "classical-N7": (["oracle", "--check", "classical"], {"n": 1, "exponents": [[0], [1], [2], [3], [4], [6], [8]]}, 5),
    "polygon-perimeter128": (["oracle", "--check", "polygon"], {"n": 2, "exponents": _POLYGON_12}, 2),
    **{row: (["expand", "--format", row.split("-")[3]], data, CAP_EDGE_CPU_SECONDS) for row, (data, _) in EXPAND_CAP_EDGE.items()},
}


def _run_streamed(argv, support_path, cpu_seconds):
    """Run the CLI in a child under EXPAND_ADDRESS_SPACE, reading its stdout as it comes;
    returns (exit code, stderr, sha256 of stdout, count of "coeff" in stdout), and fails if
    the child uses more than ``cpu_seconds`` of CPU."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "gvand.cli", *argv, "--input", support_path],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=SRC),
        preexec_fn=lambda: _limit_address_space(EXPAND_ADDRESS_SPACE),
    )
    timer = threading.Timer(HANG_FACTOR * cpu_seconds, proc.kill)
    timer.start()
    coeffs, carry, stream = 0, b"", hashlib.sha256()
    try:
        while chunk := proc.stdout.read(1 << 20):
            stream.update(chunk)
            # a "coeff" across the seam lies in carry + chunk[:4]; neither part holds a whole one
            coeffs += chunk.count(b"coeff") + (carry + chunk[:4]).count(b"coeff")
            carry = chunk[-4:]
        err = proc.stderr.read()
        code, cpu = _reap(proc)
    finally:
        timer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    assert cpu <= cpu_seconds, f"{argv}: {cpu:.2f} s of CPU against a budget of {cpu_seconds} s"
    return code, err, stream.hexdigest(), coeffs


@pytest.mark.parametrize("row", list(CONTRACT_ROWS))
def test_contract_rows_end_cleanly_within_bounds(support_file, row):
    argv, data, cpu_seconds = CONTRACT_ROWS[row]
    if row in EXPAND_CAP_EDGE:  # gigabytes of output: counted and hashed as they come, not kept
        code, err, digest, coeffs = _run_streamed(argv, support_file(data), cpu_seconds)
        assert code == 0 and err == b""
        assert coeffs == 2 * 362880
        assert digest == EXPAND_CAP_EDGE[row][1]
        return
    done = _run_bounded(argv, support_file(data), cpu_seconds)
    assert done.returncode in (0, 1, 2)
    assert done.stderr.count("\n") <= 1


class _WriteTerms(io.StringIO):
    def __init__(self):
        super().__init__()
        self.terms = []

    def write(self, text):
        self.terms.append(text.count("coeff"))
        return super().write(text)


def test_expand_holds_no_document(support_file, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("expand must not build a term map or a term list")

    monkeypatch.setattr(vandermonde, "row_expansion", unreachable)
    monkeypatch.setattr(SparsePoly, "to_terms_json", unreachable)
    # N = 7: 5040 terms
    path = support_file({"n": 2, "exponents": [[0, 0], [1, 0], [0, 1], [2, 1], [1, 3], [3, 3], [4, 0]]})
    for fmt in ("json", "text"):
        out = _WriteTerms()
        with contextlib.redirect_stdout(out):
            assert main(["expand", "--input", path, "--format", fmt]) == 0
        # the header holds no term, and each later write at most one block of 4! terms
        assert out.terms[0] == 0 and max(out.terms) <= 24, fmt
        assert sum(out.terms) == 2 * 5040


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_closed_stdout_ends_cleanly(support_file, fmt):
    path = support_file(BENCH_N8)
    proc = subprocess.Popen(
        [sys.executable, "-m", "gvand.cli", "expand", "--input", path, "--format", fmt],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    head = proc.stdout.read(100)
    proc.stdout.close()  # long before the whole document is written
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert len(head) == 100 and err == b""


def test_cli_imports_only_stdlib():
    probe = "import sys; old = set(sys.modules); import gvand.cli; print(*set(sys.modules) - old)"
    loaded = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=SRC),
    ).stdout.split()
    assert "gvand.cli" in loaded
    foreign = [m for m in loaded if m.split(".")[0] not in sys.stdlib_module_names | {"gvand"}]
    assert foreign == []


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # the records are named tuples: importing dataclasses, with the inspect, ast and dis
    # modules it pulls in, costs more start-up than a median verify operation takes
    probe = "import sys, gvand.cli; print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    loaded = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=SRC),
    ).stdout.split()
    assert loaded == []


def test_tropical_scaled_triangle(support_file, capsys):
    path = support_file({"n": 2, "exponents": [[0, 0], [2, 0], [0, 2]]})
    code, out, _ = _run(capsys, ["tropical", "--input", path, "--seed", "7"])
    assert code == 0
    payload = json.loads(out)
    assert payload["seed"] == 7
    cert = payload["certificate"]
    assert cert["verdict"] == "reducible"
    assert cert["multiplicity_gcd"] == 2
    assert cert["lifting"]["seed"] == 7
    assert [c["name"] for c in cert["conditions"]] == ["span", "content", "scale"]


def test_verify_happy_path(support_file, capsys):
    code, out, _ = _run(capsys, ["verify", "--input", support_file(TRIANGLE)])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["verification"]["ok"] is True
    assert payload["oracles"]["tropical_agreement"]["ok"] is True
    assert "polygon" not in payload["oracles"]
    assert "jacobian_evidence" not in payload["oracles"]


def test_verify_decides_once(support_file, capsys, monkeypatch):
    calls = []
    original = cli.decide

    def counting(support, characteristic):
        calls.append(characteristic)
        return original(support, characteristic)

    monkeypatch.setattr(cli, "decide", counting)
    code, _, _ = _run(capsys, ["verify", "--input", support_file(TRIANGLE), "--char", "3"])
    assert code == 0
    assert calls == [3]


# one support of each verdict class, for the guards on what verify builds
VERIFY_GUARD_ROWS = [
    (TRIANGLE, 0),
    (SQUARE, 2),
    ({"n": 2, "exponents": [[0, 0], [2, 0], [0, 2], [2, 2]]}, 3),
    (LINE, 0),
    ({"n": 2, "exponents": [[1, 2]]}, 0),
]


@pytest.mark.parametrize("support, char", VERIFY_GUARD_ROWS)
def test_verify_builds_no_fraction(support_file, capsys, monkeypatch, support, char):
    # the tropical witness is built as integers; only the tropical command's
    # output turns its lifting and planes into Fractions
    argv = ["verify", "--input", support_file(support), "--char", str(char)]
    expected = _run(capsys, argv)

    def no_fraction(*args):
        raise AssertionError("verify must build no Fraction")

    monkeypatch.setattr(tropical, "Fraction", no_fraction)
    assert _run(capsys, argv) == expected
    assert expected[0] == 0


@pytest.mark.parametrize("support, char", VERIFY_GUARD_ROWS)
def test_verify_builds_no_dual_records(support_file, capsys, monkeypatch, support, char):
    # the decision reads the multiplicity gcd and the ridge connectivity off its cells;
    # only the tropical command's output builds the facet and ridge records
    path = support_file(support)
    argv = ["verify", "--input", path, "--char", str(char)]
    expected = _run(capsys, argv)

    def no_record(*args):
        raise AssertionError("verify must build no Facet, Ridge or TropicalCombinatorics")

    for name in ("Facet", "Ridge", "TropicalCombinatorics"):
        monkeypatch.setattr(tropical, name, no_record)
    assert _run(capsys, argv) == expected
    assert expected[0] == 0
    if len(support["exponents"]) >= 2:  # the patch is live: a written witness needs the records
        with pytest.raises(AssertionError):
            main(["tropical", "--input", path])


@pytest.mark.parametrize("command", ["tropical", "verify"])
def test_merged_span_coordinates_exit_1(support_file, capsys, monkeypatch, command):
    # a wrong pivot set that merges two vectors is a falsified invariant, not a traceback
    monkeypatch.setattr(exponents, "pivot_columns", lambda rows: (0,))
    code, out, err = _run(capsys, [command, "--input", support_file(TRIANGLE)])
    assert (code, out) == (1, "")
    assert err == "falsified: span coordinates [0] merge two exponent vectors\n"


def test_verify_catches_a_content_helper_shared_with_decide(support_file, capsys, monkeypatch):
    # componentwise_min keeping only coordinate 1's minimum, at every gvand site
    # that holds it: decide then misses the content (0, 1) and reconstructs the
    # support anyway, so only a tropical content read by another route disagrees
    original = exponents.componentwise_min

    def first_coordinate_only(support):
        return (original(support)[0],) + (0,) * (support.n - 1)

    for name, module in list(sys.modules.items()):
        if name.startswith("gvand") and module is not None:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, first_coordinate_only)
    support = {"n": 2, "exponents": [[0, 1], [1, 1], [0, 2]]}
    code, out, _ = _run(capsys, ["verify", "--input", support_file(support), "--char", "0"])
    payload = json.loads(out)
    assert payload["certificate"]["verdict"] == "irreducible"
    assert code == 1
    assert payload["verification"]["ok"] is False


def test_verify_runs_no_polygon_search(support_file, capsys, monkeypatch):
    def unreachable(support):
        raise AssertionError("verify must not run the polygon search")

    monkeypatch.setattr(cli, "polygon_indecomposability", unreachable)
    code, out, _ = _run(capsys, ["verify", "--input", support_file(TRIANGLE)])
    assert code == 0
    assert "polygon" not in json.loads(out)["oracles"]


@pytest.mark.parametrize(
    "support, char",
    [(TRIANGLE, 0), (SQUARE, 2), ({"n": 2, "exponents": [[1, 1], [3, 1], [1, 3]]}, 0)],
)
def test_verify_runs_no_jacobian_oracle_or_division(
    support_file, capsys, monkeypatch, support, char
):
    def unreachable(*args, **kwargs):
        raise AssertionError("verify must not run this")

    monkeypatch.setattr(cli, "jacobian_independence_evidence", unreachable)
    monkeypatch.setattr(oracle, "jacobian_independence_evidence", unreachable)
    monkeypatch.setattr(gvand.SparsePoly, "exact_divide", unreachable)
    code, out, err = _run(capsys, ["verify", "--input", support_file(support), "--char", str(char)])
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["ok"] is True
    assert "jacobian_evidence" not in payload["oracles"]


@pytest.mark.parametrize(
    "exponents",
    [
        [[0, 0], [10**5, 0], [0, 10**5], [1, 1]],
        # monomial_factor at N = 12, past the expansion cap: its check reads no determinant
        [[k + 1, j + 1] for j in range(2) for k in range(6)],
    ],
    ids=["wide", "monomial_n12"],
)
def test_verify_wide_exponents_finish(support_file, exponents):
    wide = {"n": 2, "exponents": exponents}
    done = _run_bounded(["verify"], support_file(wide))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["ok"] is True


def test_verify_power_at_n6_finishes(support_file):
    # 3 x {(0,0), (1,0), (0,1), (1,1), (2,0), (0,2)}: a power of an irreducible over GF(3)
    scaled = {"n": 2, "exponents": [[0, 0], [3, 0], [0, 3], [3, 3], [6, 0], [0, 6]]}
    done = _run_bounded(["verify", "--char", "3"], support_file(scaled))
    assert done.returncode == 0, done.stderr
    payload = json.loads(done.stdout)
    assert payload["certificate"]["verdict"] == "power_of_irreducible"
    checks = {c["name"]: c["holds"] for c in payload["verification"]["checks"]}
    assert checks == {"support": True, "root_is_reduced_det": True, "reduced_verdict": True}


def test_verify_runs_tropical_once(support_file, capsys, monkeypatch):
    calls = []
    original = tropical.decide_tropical_irreducibility

    def counting(support, seed=0, **kwargs):
        calls.append(seed)
        return original(support, seed=seed, **kwargs)

    monkeypatch.setattr(cli, "decide_tropical_irreducibility", counting)
    monkeypatch.setattr(tropical, "decide_tropical_irreducibility", counting)
    code, out, _ = _run(capsys, ["verify", "--input", support_file(TRIANGLE), "--seed", "5"])
    assert code == 0
    assert json.loads(out)["certificate"]["verdict"] == "irreducible"
    assert calls == [5]


@pytest.mark.parametrize(
    "exponents, char",
    [
        ([[k, 2 * k] for k in range(8)], 3),  # N - 1 = 7 rows outnumber the 2 nonzero residues of GF(3)
        ([[0, 0], [1, 1], [25, 25]], 0),  # reduced line degree 25: the witness reads it off the line
    ],
)
def test_verify_collinear_finishes(support_file, exponents, char):
    line = {"n": 2, "exponents": exponents}
    done = _run_bounded(["verify", "--char", str(char)], support_file(line))
    assert done.returncode == 0, done.stderr
    payload = json.loads(done.stdout)
    assert payload["certificate"]["verdict"] == "collinear_split"
    assert payload["ok"] is True


def test_verify_collinear_refuses_an_off_line_support(support_file, capsys, monkeypatch):
    # span coordinates that move every vector but the base one step up the line
    # put the support off gamma_lo + k * w for every w the witness can derive
    original = irreducibility.reduce_to_span_coordinates

    def shifted(support):
        vectors = tuple((k + 1,) if k else (k,) for (k,) in original(support).vectors)
        return gvand.Support(1, vectors)

    monkeypatch.setattr(irreducibility, "reduce_to_span_coordinates", shifted)
    code, out, err = _run(capsys, ["verify", "--input", support_file(LINE)])
    assert code == 1 and err == ""
    payload = json.loads(out)
    assert payload["ok"] is False
    checks = {c["name"]: c for c in payload["verification"]["checks"]}
    assert checks["line_split"]["holds"] is False
    assert checks["line_split"]["detail"] == (
        "binomial X_1^w - X_2^w with w = [1, 1]: the support is not gamma_lo + k * w at positions [0, 2, 3]"
    )


def _load_corpus():
    # the benchmark's corpus module, loaded read-only from its file
    spec = importlib.util.spec_from_file_location("corpus", Path(SRC).parent / "perfbench" / "corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return corpus


def test_verify_expands_nothing(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("verify must not expand or divide a determinant")

    # refuse each expansion at every site that bound it by name
    originals = (vandermonde.vandermonde_determinant, vandermonde.row_expansion, oracle.classical_divisibility_check)
    for module in [m for name, m in sorted(sys.modules.items()) if name.startswith("gvand") and m]:
        for key, val in list(vars(module).items()):
            if any(val is original for original in originals):
                monkeypatch.setattr(module, key, unreachable)
    monkeypatch.setattr(SparsePoly, "exact_divide", unreachable)
    monkeypatch.setattr(SparsePoly, "frobenius_root", unreachable)
    ops = _load_corpus().verify_ops(1)
    assert len(ops) == 173 and len({op["klass"] for op in ops}) == 5
    for op in ops:
        code, out, err = _main_in_process(["verify", "--char", str(op["char"])], json.dumps(op["support"]))
        assert code == 0 and err == "", op
        assert json.loads(out)["ok"] is True, op


def test_no_command_takes_a_smith_normal_form(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("span coordinates are columns of the support, not a Smith form's")

    for module in [m for name, m in sorted(sys.modules.items()) if name.startswith("gvand") and m]:
        for key, val in list(vars(module).items()):
            if val is exponents.smith_normal_form:
                monkeypatch.setattr(module, key, unreachable)
    corpus = _load_corpus()
    supports = {(op["char"], json.dumps(op["support"])): op for op in corpus.classify_ops(1) + corpus.verify_ops(1)}
    assert len(supports) == 314
    for (char, text), op in supports.items():
        for command in EVERY_COMMAND:
            # expand and the Leibniz oracle only expand the determinant; past N = 6 they
            # would take seconds of this sweep
            if command[-1] in ("expand", "leibniz") and len(op["support"]["exponents"]) > 6:
                continue
            code, _, err = _main_in_process([*command, "--char", str(char)], text)
            assert code in (0, 2) and err.count("\n") == (code != 0), (command, op)


def test_verify_single_coordinate_runs_no_classical_oracle(support_file, capsys):
    code, out, _ = _run(capsys, ["verify", "--input", support_file(STAIRCASE)])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert list(payload["oracles"]) == ["tropical_agreement"]


def test_oracle_leibniz(support_file, capsys):
    code, out, _ = _run(
        capsys, ["oracle", "--check", "leibniz", "--input", support_file(SQUARE), "--char", "3"]
    )
    assert code == 0
    assert json.loads(out)["report"]["ok"] is True


def test_oracle_classical(support_file, capsys):
    code, out, _ = _run(capsys, ["oracle", "--check", "classical", "--input", support_file(STAIRCASE)])
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["ok"] is True
    assert payload["report"]["quotient_terms"] == 1


@pytest.mark.parametrize(
    "exponents",
    [
        [[k] for k in range(8)],  # N = 8 exceeds the N cap
        [[0], [1], [5], [9], [10]],  # quotient bound 18000 at N = 5
    ],
)
def test_oracle_classical_caps(support_file, capsys, exponents):
    path = support_file({"n": 1, "exponents": exponents})
    code, out, err = _run(capsys, ["oracle", "--check", "classical", "--input", path])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "classical" in err
    # verify runs no classical division, so its caps do not bind it
    code, out, err = _run(capsys, ["verify", "--input", path])
    assert code == 0 and err == ""
    assert json.loads(out)["ok"] is True


def test_oracle_leibniz_cap(support_file, capsys):
    path = support_file({"n": 1, "exponents": [[k] for k in range(9)]})
    code, out, err = _run(capsys, ["oracle", "--check", "leibniz", "--input", path])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_oracle_line(support_file, capsys):
    code, out, _ = _run(
        capsys, ["oracle", "--check", "line", "--input", support_file(LINE), "--char", "3"]
    )
    assert code == 0
    report = json.loads(out)["report"]
    assert report["ok"] is True
    assert report["w"] == [1, 1] and report["line_positions"] == [0, 1, 2]
    assert report["binomial"] == [
        {"coeff": "1", "monomial": {"X_1_1": 1, "X_1_2": 1}},
        {"coeff": "2", "monomial": {"X_2_1": 1, "X_2_2": 1}},
    ]
    assert report["quotient_terms"] == 4


def test_oracle_line_needs_no_small_prime(support_file, capsys):
    # the binomial witness needs no small prime: it holds in every characteristic
    for char in ("7", "0"):
        code, out, err = _run(
            capsys, ["oracle", "--check", "line", "--input", support_file(LINE), "--char", char]
        )
        assert code == 0 and err == ""
        assert json.loads(out)["report"]["ok"] is True


def test_oracle_line_accepts_a_two_point_line(support_file, capsys):
    # N = 2 at positions 0 and 1: the determinant is the binomial itself, the quotient a unit
    path = support_file({"n": 2, "exponents": [[0, 0], [1, 0]]})
    code, out, err = _run(capsys, ["oracle", "--check", "line", "--input", path])
    assert code == 0 and err == ""
    report = json.loads(out)["report"]
    assert report["ok"] is True and report["quotient_terms"] == 1


def test_oracle_line_splits_at_n8_over_gf3(support_file):
    # seven rows and two nonzero residues in GF(3): no evaluation point could
    # exhibit this split, and the witness, read off the line, needs none
    line = {"n": 2, "exponents": [[k, 2 * k] for k in range(8)]}
    done = _run_bounded(["oracle", "--check", "line", "--char", "3"], support_file(line))
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)["report"]
    assert report["ok"] is True and report["w"] == [1, 2]


def test_oracle_jacobian(support_file, capsys):
    code, out, _ = _run(
        capsys,
        ["oracle", "--check", "jacobian", "--input", support_file(TRIANGLE)],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["conclusive"] is True
    assert payload["report"]["target_rank"] == 2


def test_oracle_polygon(support_file, capsys):
    code, out, _ = _run(capsys, ["oracle", "--check", "polygon", "--input", support_file(TRIANGLE)])
    assert code == 0
    assert json.loads(out)["report"]["status"] == "indecomposable"


def test_oracle_polygon_perimeter_cap(support_file, capsys):
    wide = {"n": 2, "exponents": [[0, 0], [200, 0], [0, 200], [1, 1]]}
    code, out, err = _run(capsys, ["oracle", "--check", "polygon", "--input", support_file(wide)])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "perimeter" in err


#### exit code 2: malformed input and caps ####


class _NarrowCap(SizeCapError):
    pass


@pytest.mark.parametrize(
    "exc, code, prefix",
    [
        (SizeCapError("over the cap"), 2, "error: "),
        (_NarrowCap("a subclass is still a cap"), 2, "error: "),
        (DegenerateSupportError("too flat"), 2, "error: "),
        (AllPointsSingularError("every point singular"), 1, "inconclusive: "),
    ],
    ids=["cap", "cap-subclass", "degenerate", "singular"],
)
def test_run_maps_library_errors_by_class(support_file, capsys, monkeypatch, exc, code, prefix):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "decide", fail)
    rc, out, err = _run(capsys, ["decide", "--input", support_file(TRIANGLE)])
    assert (rc, out, err) == (code, "", f"{prefix}{exc}\n")


def test_internal_key_error_is_not_an_input_error(support_file, monkeypatch):
    # a KeyError inside a command is a defect: it propagates, it is not reported as exit 2
    def fail(*args, **kwargs):
        raise KeyError("no facet on vertices (0, 1)")

    monkeypatch.setattr(cli, "decide", fail)
    with pytest.raises(KeyError):
        main(["decide", "--input", support_file(TRIANGLE)])


@pytest.mark.parametrize("check", ["classical", "line"])
def test_oracle_refuses_a_support_of_the_wrong_shape(support_file, capsys, check):
    # TRIANGLE has two coordinates and affine dimension 2: a DegenerateSupportError
    code, out, err = _run(capsys, ["oracle", "--check", check, "--input", support_file(TRIANGLE)])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_missing_file_is_input_error(capsys):
    code, out, err = _run(capsys, ["decide", "--input", "/nonexistent/support.json"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_invalid_json_is_input_error(support_file, capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = _run(capsys, ["decide", "--input", str(path)])
    assert code == 2
    assert "invalid JSON" in err
    # an integer past Python's digit limit for int conversion fails in the parser too
    path.write_text('{"n": 1, "exponents": [[' + "1" * 5000 + "]]}")
    code, out, err = _run(capsys, ["decide", "--input", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error: input: invalid JSON: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "raw, message",
    [
        # strict UTF-8 on the file route
        (b'{"n": 1, "exponents": [[0], [1], [2]]}\xff', "error: input: invalid UTF-8: "),
        # a byte-order mark stays invalid JSON: the bytes never reach json.loads, which would take it
        (b'\xef\xbb\xbf{"n": 1, "exponents": [[0], [1], [2]]}', "error: input: invalid JSON: "),
        (b"[" * 200_000, "error: input: invalid JSON: "),
    ],
    ids=["invalid-utf8", "utf8-bom", "nested-200000"],
)
def test_undecodable_input_file_is_input_error(capsys, tmp_path, raw, message):
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    code, out, err = _run(capsys, ["decide", "--input", str(path)])
    assert code == 2 and out == ""
    assert err.startswith(message) and err.count("\n") == 1


def test_deeply_nested_stdin_is_input_error():
    code, out, err = _main_in_process(["decide"], stdin="[" * 200_000)
    assert code == 2 and out == ""
    assert err.startswith("error: input: invalid JSON: ") and err.count("\n") == 1


@pytest.mark.parametrize("locale", ["C", "C.UTF-8"])
def test_undecodable_stdin_is_input_error(locale):
    # stdin is read as bytes and decoded as strictly as --input: under the C locale a text
    # stdin would decode with surrogateescape and take the stray byte inside the string
    raw = b'{"n": 1, "exponents": [[0], [1], [2]], "note": "\xff"}'
    env = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "PYTHONIOENCODING", "PYTHONUTF8"))}
    done = subprocess.run(
        [sys.executable, "-m", "gvand.cli", "decide"],
        input=raw,
        capture_output=True,
        env=dict(env, PYTHONPATH=SRC, LC_ALL=locale, LANG=locale),
    )
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr.startswith(b"error: input: invalid UTF-8: ") and done.stderr.count(b"\n") == 1


def test_schema_errors_name_the_field(support_file, capsys):
    code, _, err = _run(capsys, ["decide", "--input", support_file({"n": 2})])
    assert code == 2
    assert "support.exponents" in err
    code, _, err = _run(
        capsys, ["decide", "--input", support_file({"n": 2, "exponents": [[1, -1]]})]
    )
    assert code == 2
    assert "support.exponents[0][1]" in err


def test_largest_admitted_prime_characteristic(support_file):
    # 2^61 - 1 is prime and below the characteristic cap
    done = _run_bounded(["decide", "--char", str(2**61 - 1)], support_file(TRIANGLE))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["certificate"]["verdict"] == "irreducible"


def test_composite_characteristic_rejected(support_file, capsys):
    code, _, err = _run(capsys, ["decide", "--input", support_file(SQUARE), "--char", "6"])
    assert code == 2
    assert "char" in err


def test_size_caps_are_input_errors(support_file, capsys):
    # N <= MAX_N = 12, n <= MAX_VARS = 8 and every exponent <= MAX_EXPONENT = 2^64 - 1 hold
    # for every command; no flag moves them
    big = {"n": 1, "exponents": [[k] for k in range(13)]}
    wide = {"n": 9, "exponents": [[0] * 8 + [1]]}
    over = {"n": 2, "exponents": [[0, 0], [1, 2**64], [2**64 - 1, 3]]}
    refusals = (
        (big, "error: support.exponents: N = 13 exceeds the cap 12\n"),
        (wide, "error: support.n: n = 9 exceeds the cap 8\n"),
        (over, "error: support.exponents[1][1]: exceeds the cap 18446744073709551615\n"),
    )
    for data, message in refusals:
        for command in (["decide"], ["expand"], ["tropical"], ["verify"], ["oracle", "--check", "jacobian"]):
            assert _run(capsys, [*command, "--input", support_file(data)]) == (2, "", message)


@pytest.mark.parametrize("flag", ["--max-n", "--max-vars", "--trials"])
def test_removed_knobs_are_unknown_flags(support_file, flag):
    argv = ["oracle", "--check", "jacobian", "--input", support_file(TRIANGLE), flag, "3"]
    code, out, err = _main_in_process(argv)
    assert code == 2 and out == ""
    assert f"unrecognized arguments: {flag} 3" in err


# every residue is a root of x^(q-1) - 1 mod q = 2^61 - 1, so all three columns agree at
# every point and the reference minor vanishes at every draw; the oracle names the first
# congruent pair instead of drawing, in about 0.05 s on a 2-core host, interpreter
# start-up included
FERMAT_SINGULAR = {"n": 1, "exponents": [[0], [2305843009213693950], [4611686018427387900]]}


def test_fermat_singular_jacobian_is_inconclusive_within_budget(support_file):
    done = _run_bounded(["oracle", "--check", "jacobian"], support_file(FERMAT_SINGULAR))
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr == (
        "inconclusive: exponent vectors [0] and [2305843009213693950] agree mod 2^61 - 2, so their "
        "columns coincide at every point and the reference minor always vanishes\n"
    )


def test_negative_seed_rejected(support_file, capsys):
    code, _, err = _run(capsys, ["decide", "--input", support_file(SQUARE), "--seed", "-1"])
    assert code == 2
    assert "seed" in err


#### in-process reuse and fuzzing ####


def _main_in_process(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    with (
        mock.patch("sys.stdin", stdin_of(stdin)),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_one_parser_serves_every_call_in_a_process(support_file, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at the terminal width
    path = support_file(SQUARE)
    runs = (
        ["decide", "--input", path],
        ["decide", "--input", path, "--char", "x"],  # argparse usage error
        ["expand", "--input", path],
        ["decide", f"--input={path}"],  # argparse spellings the direct read declines
        ["decide", "--inp", path],
    )
    cli._build_parser.cache_clear()
    in_process = [_main_in_process(argv) for argv in runs]
    # only the declined argv build the parser, and they share one
    assert cli._build_parser.cache_info().misses == 1
    assert [code for code, _, _ in in_process] == [0, 2, 0, 0, 0]
    assert "invalid int value: 'x'" in in_process[1][2]
    assert in_process[3] == in_process[4] == in_process[0]
    for argv, (code, out, err) in zip(runs, in_process):
        fresh = subprocess.run(
            [sys.executable, "-m", "gvand.cli", *argv],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=SRC),
        )
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)


def test_well_formed_commands_import_no_argparse(support_file):
    path = support_file(TRIANGLE)
    probe = (
        "import contextlib, io, sys\n"
        "from gvand import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.main([c, '--input', {path!r}, '--char', '2']) for c in ('decide', 'verify', 'expand')]\n"
        "print(*codes, *sorted({'argparse', 'gettext'} & set(sys.modules)))"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=SRC),
    ).stdout.split()
    assert loaded == ["0", "0", "0"]


@pytest.mark.parametrize(
    "argv, read",
    [
        (["decide"], True),
        (["verify", "--input", "s.json", "--char", "2", "--seed", "7", "--format", "text"], True),
        (["oracle", "--check", "line", "--check", "polygon"], True),
        (["decide", "--input", ""], True),
        (["oracle", "--input", "s.json"], False),  # --check is required
        (["decide", "--check", "line"], False),
        (["decide", "-h"], False),
        (["decide", "--input=s.json"], False),
        (["decide", "--inp", "s.json"], False),
        (["decide", "--input", "-"], False),
        (["decide", "--seed", "-1"], False),
        (["decide", "--char", "x"], False),
        (["decide", "--format", "yaml"], False),
        (["decide", "--input"], False),
        ([], False),
    ],
)
def test_direct_read_takes_only_the_plain_spelling(argv, read):
    assert (cli._read_argv(argv) is not None) == read


# values of each flag that argparse takes, and tokens it reads otherwise or refuses
ARGV_VALUES = {
    "--input": ["s.json", "", "decide"],
    "--char": ["2", " 3", "3_0", "\u0663"],
    "--seed": ["0", "+7", "3_0", "\u0663"],
    "--format": ["json", "text"],
    "--check": list(cli.ORACLE_CHECKS),
}
ARGV_ODD = ["--inp", "--char=2", "-h", "--", "-", "-1", "x", "", "yaml"]
ARGV_TOKENS = [*cli._COMMANDS, *ARGV_VALUES, *ARGV_ODD, *(v for vs in ARGV_VALUES.values() for v in vs)]


@st.composite
def argv_lists(draw):
    """A command and well-formed flag-value pairs, repeated flags among them, then
    up to two tokens replaced, inserted or deleted: odd lengths, misplaced and
    malformed flags, and values argparse reads but the direct read declines."""
    argv = [draw(st.sampled_from([*cli._COMMANDS, "-h", "--"]))]
    for _ in range(draw(st.integers(0, 5))):
        flag = draw(st.sampled_from(list(ARGV_VALUES)))
        argv += [flag, draw(st.sampled_from(ARGV_VALUES[flag]))]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(("replace", "insert", "delete")))
        if edit != "insert" and at < len(argv):
            del argv[at]
        if edit != "delete":
            argv.insert(at, draw(st.sampled_from(ARGV_TOKENS)))
    return argv


@settings(max_examples=2000, deadline=None)
@given(argv_lists())
def test_direct_read_agrees_with_argparse(argv):
    read = cli._read_argv(argv)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            parsed = cli._build_parser().parse_args(argv)
    except SystemExit:
        assert read is None
    else:
        assert read is None or vars(read) == vars(parsed)


@st.composite
def schema_supports(draw):
    n = draw(st.integers(1, 3))
    N = draw(st.integers(1, 6))
    entry = st.one_of(st.integers(0, 6), st.integers(0, 10**6))
    vectors = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=N, max_size=N, unique_by=tuple))
    return {"n": n, "exponents": vectors}


def _first_difference(a, b, block=1 << 12):
    """Offset of the first character where the unequal strings a and b differ."""
    at = 0
    while a[at : at + block] == b[at : at + block]:
        at += block
    pairs = zip(a[at : at + block], b[at : at + block])
    return at + next((k for k, (x, y) in enumerate(pairs) if x != y), min(len(a), len(b)) - at)


def _assert_text_renders_json(argv, json_out, stdin=""):
    code, text_out, _ = _main_in_process(argv + ["--format", "text"], stdin)
    assert code == 0
    expected = "\n".join(reporting.render_text(json.loads(json_out))) + "\n"
    # compared through names: pytest would diff megabyte strings on a failure
    same = text_out == expected
    if not same:
        at = _first_difference(text_out, expected)
        window = slice(max(0, at - 40), at + 40)
        pytest.fail(f"text differs from the JSON data at offset {at}: {text_out[window]!r} != {expected[window]!r}")


@settings(max_examples=100, deadline=None)
@given(schema_supports(), st.sampled_from(("0", "2", "3")))
def test_expand_and_decide_end_cleanly_on_every_admitted_support(support, char):
    text = json.dumps(support)
    for command in ("expand", "decide"):
        code, out, err = _main_in_process([command, "--char", char], text)
        assert code in (0, 1, 2)
        assert "Traceback" not in err and err.count("\n") == (code != 0)
        if command == "expand" and code == 0:
            _assert_text_renders_json([command, "--char", char], out, text)


@st.composite
def near_cap_supports(draw):
    """Cheap shapes whose entries are small or up to the exponent cap 2^64 - 1.  Now and
    then the last coordinate becomes the first plus the second-to-last, so the affine rank
    falls below n."""
    n = draw(st.integers(1, 3))
    N = draw(st.integers(1, 6))
    entry = st.one_of(st.integers(0, 4), st.integers(2**64 - 4, 2**64 - 1), st.integers(0, 2**63))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=N, max_size=N, unique_by=tuple))
    if n >= 2 and draw(st.booleans()):
        rows = [r[:-1] + [min(r[0] + r[-2], 2**64 - 1)] for r in rows]
        rows = list({tuple(r): r for r in rows}.values())
    return {"n": n, "exponents": rows}


@settings(max_examples=60, deadline=None)
@given(near_cap_supports(), st.sampled_from(("0", "2", "3")))
def test_every_command_ends_cleanly_up_to_the_exponent_cap(support, char):
    text = json.dumps(support)
    for command in EVERY_COMMAND:
        code, _, err = _main_in_process([*command, "--char", char], text)
        assert code in (0, 1, 2)
        assert "Traceback" not in err and err.count("\n") == (code != 0)


@pytest.mark.parametrize(
    "support, char",
    [
        (BENCH_N8, "0"),
        ({"n": 2, "exponents": [[0, 0]]}, "3"),  # no variables in the determinant or the minor
        ({"n": 1, "exponents": [[4]]}, "0"),
        ({"n": 2, "exponents": [[1, 2], [0, 0]]}, "2"),  # minor 1 has no variables
    ],
)
def test_expand_text_renders_the_json_data(support, char):
    code, out, _ = _main_in_process(["expand", "--char", char], json.dumps(support))
    assert code == 0
    _assert_text_renders_json(["expand", "--char", char], out, json.dumps(support))


# nonzero exponent vectors in no order of their own; the zero vector goes in among them
_NONZERO = {
    1: [[3], [1], [6], [2], [5], [4]],
    2: [[1, 0], [0, 2], [2, 1], [1, 3], [3, 0], [0, 1]],
}


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("N", range(1, 8))
def test_expand_terms_match_the_row_expansion_encoder(N, n):
    """expand's term lists, byte for byte, against json.dumps of
    SparsePoly.to_terms_json over row_expansion: exponent keys, a graded-lex
    sort and dicts, a route that shares no text table with expand.  The zero vector
    in each column position runs the empty prefix in the determinant and the
    minors; over GF(2) both signs have one head."""
    others = _NONZERO[n][: N - 1]
    for pos in range(N):
        support = {"n": n, "exponents": others[:pos] + [[0] * n] + others[pos:]}
        for char in ("0", "2", "3"):
            code, out, err = _main_in_process(["expand", "--char", char], json.dumps(support))
            assert code == 0 and err == ""
            exp = vandermonde.row_expansion(Support.from_json(support), CoefficientRing(int(char)))
            minors = ", ".join(json.dumps(minor.to_terms_json()) for minor in exp.minors)
            expected = (
                f', "determinant": {json.dumps(exp.determinant.to_terms_json())}, '
                f'"signs": {json.dumps(list(exp.signs))}, "minors": [{minors}]}}\n'
            )
            same = out[out.index(', "determinant": ') :] == expected  # no diff of megabytes on failure
            assert same, (support, char)
            _assert_text_renders_json(["expand", "--char", char], out, json.dumps(support))


def _first_digest_support(path):
    """The char and support of the first row of an expand digest table."""
    char, support = next(iter(json.loads(path.read_text()))).split("|", 1)
    return json.loads(support), char


@pytest.mark.parametrize(
    "support, char",
    [
        ({"n": 2, "exponents": [[3, 1]]}, "0"),  # N = 1
        ({"n": 1, "exponents": [[0]]}, "3"),  # the zero vector alone
        ({"n": 2, "exponents": [[1, 2], [0, 0]]}, "2"),
        ({"n": 1, "exponents": [[2], [5]]}, "0"),
        _first_digest_support(Path(__file__).resolve().parents[1] / "perfbench" / "expand_digests.json"),
        _first_digest_support(Path(__file__).parent / "data" / "expand_text_digests.json"),
    ],
)
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_expand_chunks_is_the_cli_document(support, char, fmt):
    code, out, err = _main_in_process(["expand", "--char", char, "--seed", "5", "--format", fmt], json.dumps(support))
    assert code == 0 and err == ""
    head = {"command": "expand", "seed": 5, "characteristic": int(char)}
    chunks = vandermonde.expand_chunks(Support.from_json(support), CoefficientRing(int(char)), fmt, head)
    assert "".join(chunks) == out


def test_cli_knows_no_term_format():
    # the term encoder lives in gvand.vandermonde alone: the CLI imports its entry
    # point and the cap from there, the two names the leibniz oracle compares, and
    # no grid variable name
    tree = ast.parse(Path(cli.__file__).read_text())
    from_vandermonde, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
            if node.module == "gvand.vandermonde":
                from_vandermonde.update(alias.name for alias in node.names)
    assert from_vandermonde == {"build_matrix", "expand_chunks", "require_expandable", "vandermonde_determinant"}
    assert "grid_var" not in names and "grid_ring" not in names


#### text format ####


def test_text_format_renders_same_data(support_file, capsys):
    path = support_file(SQUARE)
    code, text_out, _ = _run(capsys, ["decide", "--input", path, "--format", "text"])
    assert code == 0
    assert "verdict: irreducible" in text_out
    assert "command: decide" in text_out
    assert not text_out.startswith("{")
    code, json_out, _ = _run(capsys, ["decide", "--input", path])
    payload = json.loads(json_out)
    assert payload["certificate"]["verdict"] == "irreducible"


#### determinism ####


@pytest.mark.parametrize(
    "argv_tail",
    [
        ["decide", "--char", "2"],
        ["expand"],
        ["tropical", "--seed", "13"],
        ["verify", "--seed", "13"],
        ["oracle", "--check", "jacobian", "--seed", "13"],
    ],
)
def test_byte_identical_reruns(support_file, capsys, argv_tail):
    path = support_file(SQUARE)
    argv = argv_tail[:1] + ["--input", path] + argv_tail[1:]
    code1, out1, _ = _run(capsys, argv)
    code2, out2, _ = _run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_seed_is_echoed(support_file, capsys):
    code, out, _ = _run(
        capsys, ["tropical", "--input", support_file(TRIANGLE), "--seed", "42"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["seed"] == 42
    assert payload["certificate"]["seed"] == 42

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gvand
from gvand import cli, irreducibility, kernels, oracle, tropical, vandermonde
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
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(TRIANGLE)))
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
    monkeypatch.setattr("sys.stdin", io.StringIO('{"n": 1, "exponents": [[3]]}'))
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


@pytest.mark.parametrize("command, exponents", [("expand", [[k] for k in range(10)])])
def test_expansion_cap_beyond_memory(support_file, command, exponents):
    big = {"n": len(exponents[0]), "exponents": exponents}
    for fmt in ("json", "text"):  # the cap refuses before the first byte of either format
        done = subprocess.run(
            [sys.executable, "-m", "gvand.cli", command, "--input", support_file(big), "--format", fmt],
            capture_output=True,
            text=True,
            timeout=5,
            env=dict(os.environ, PYTHONPATH=SRC),
        )
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert "expansion cap" in done.stderr


# the largest expand the caps admit: N = EXPAND_MAX_N = 9, n = --max-vars = 8, every exponent
# nonzero; 2 * 9! = 725 760 terms
CAP_EDGE = {"n": 8, "exponents": [[(7 * i + 3 * j) % 9 + 1 for j in range(8)] for i in range(9)]}
# Streaming, expand runs on it in about 0.1 GB of address space in either format; a
# document held whole would need more than its 0.61 GB (JSON) or 0.81 GB (text).  The
# budget sits four times above the first and below the second.
CAP_EDGE_ADDRESS_SPACE = 512 * 2**20
CAP_EDGE_SECONDS = 30  # it takes under 1 s on a 2-core host


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (CAP_EDGE_ADDRESS_SPACE, CAP_EDGE_ADDRESS_SPACE))


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_expand_at_the_cap_edge_ends_within_bounds(support_file, fmt):
    proc = subprocess.Popen(
        [sys.executable, "-m", "gvand.cli", "expand", "--input", support_file(CAP_EDGE), "--format", fmt],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=SRC),
        preexec_fn=_limit_address_space,
    )
    timer = threading.Timer(CAP_EDGE_SECONDS, proc.kill)
    timer.start()
    coeffs, carry = 0, b""
    try:
        while chunk := proc.stdout.read(1 << 20):
            coeffs += (carry + chunk).count(b"coeff")
            carry = chunk[-4:]  # too short to hold a whole "coeff" twice
        err = proc.stderr.read()
    finally:
        timer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    assert proc.wait() == 0 and err == b""
    assert coeffs == 2 * 362880


# the largest shape oracle --check jacobian admits: N = 12, n = --max-vars = 8, exponents near 10**18
JACOBIAN_CAP_EDGE = {"n": 8, "exponents": [[10**18 - (8 * i + j) ** 2 for j in range(8)] for i in range(12)]}
# It and BENCH_N8 each take about 0.05 s and 17 MB on a 2-core host, interpreter start-up
# included; the budget leaves a hundredfold margin for a loaded host.  The collinear rows
# below share it.
BOUNDED_SECONDS = 5


def _run_bounded(argv, support_path):
    return subprocess.run(
        [sys.executable, "-m", "gvand.cli", *argv, "--input", support_path],
        capture_output=True,
        text=True,
        timeout=BOUNDED_SECONDS,
        env=dict(os.environ, PYTHONPATH=SRC),
        preexec_fn=_limit_address_space,
    )


@pytest.mark.parametrize("support", [JACOBIAN_CAP_EDGE, BENCH_N8], ids=["N12-n8-1e18", "N8-n3"])
def test_jacobian_oracle_at_the_cap_edge_ends_within_bounds(support_file, support):
    done = _run_bounded(["oracle", "--check", "jacobian"], support_file(support))
    assert done.returncode == 0 and done.stderr == ""
    assert json.loads(done.stdout)["report"]["conclusive"] is True


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
# n = 1: the line oracle admits it, while verify's classical oracle refuses it at its cap
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
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: classical ") and done.stderr.count("\n") == 1


class _WriteSizes(io.StringIO):
    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


def test_expand_holds_no_document(support_file, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("expand must not build a term map or a term list")

    monkeypatch.setattr(vandermonde, "row_expansion", unreachable)
    monkeypatch.setattr(SparsePoly, "to_terms_json", unreachable)
    monkeypatch.setattr(SparsePoly, "to_terms_json_text", unreachable)
    N = 7  # 5040 terms
    path = support_file({"n": 2, "exponents": [[0, 0], [1, 0], [0, 1], [2, 1], [1, 3], [3, 3], [4, 0]]})
    for fmt in ("json", "text"):
        out = _WriteSizes()
        with contextlib.redirect_stdout(out):
            assert main(["expand", "--input", path, "--format", fmt]) == 0
        text = out.getvalue()
        header = text[: text.index("determinant")]
        # each top-row column owns one determinant chunk and one minor
        assert max(out.sizes) <= len(header) + len(text) // N, fmt
        assert text.count("coeff") == 2 * 5040


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

    def counting(support, field):
        calls.append(field.characteristic)
        return original(support, field)

    monkeypatch.setattr(cli, "decide", counting)
    code, _, _ = _run(capsys, ["verify", "--input", support_file(TRIANGLE), "--char", "3"])
    assert code == 0
    assert calls == [3]


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
    done = subprocess.run(
        [sys.executable, "-m", "gvand.cli", "verify", "--input", support_file(wide)],
        capture_output=True,
        text=True,
        timeout=10,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["ok"] is True


def test_verify_power_at_n6_finishes(support_file):
    # 3 x {(0,0), (1,0), (0,1), (1,1), (2,0), (0,2)}: a power of an irreducible over GF(3)
    scaled = {"n": 2, "exponents": [[0, 0], [3, 0], [0, 3], [3, 3], [6, 0], [0, 6]]}
    done = subprocess.run(
        [sys.executable, "-m", "gvand.cli", "verify", "--input", support_file(scaled), "--char", "3"],
        capture_output=True,
        text=True,
        timeout=10,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert done.returncode == 0, done.stderr
    payload = json.loads(done.stdout)
    assert payload["certificate"]["verdict"] == "power_of_irreducible"
    checks = {c["name"]: c["holds"] for c in payload["verification"]["checks"]}
    assert checks["root_repowers"] is True


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
        ([[0, 0], [1, 1], [25, 25]], 0),  # reduced line degree 25: the division needs no degree cap
    ],
)
def test_verify_collinear_finishes(support_file, exponents, char):
    line = {"n": 2, "exponents": exponents}
    done = subprocess.run(
        [sys.executable, "-m", "gvand.cli", "verify", "--input", support_file(line), "--char", str(char)],
        capture_output=True,
        text=True,
        timeout=15,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert done.returncode == 0, done.stderr
    payload = json.loads(done.stdout)
    assert payload["certificate"]["verdict"] == "collinear_split"
    assert payload["ok"] is True


def test_verify_collinear_refuses_an_off_line_support(support_file, capsys, monkeypatch):
    # span coordinates that move every vector but the base one step up the line
    # put the support off gamma_lo + k * w for every w the witness can derive
    original = irreducibility.reduce_to_span_coordinates

    def shifted(support):
        reduced, reduction = original(support)
        vectors = tuple((k + 1,) if k else (k,) for (k,) in reduced.vectors)
        return gvand.Support(1, vectors), reduction

    monkeypatch.setattr(irreducibility, "reduce_to_span_coordinates", shifted)
    code, out, err = _run(capsys, ["verify", "--input", support_file(LINE)])
    assert code == 1 and err == ""
    payload = json.loads(out)
    assert payload["ok"] is False
    checks = {c["name"]: c for c in payload["verification"]["checks"]}
    assert checks["line_split"]["holds"] is False
    assert checks["line_split"]["detail"] == (
        "binomial X_1^w - X_2^w with w = [0, 0]: the support is not gamma_lo + k * w at positions [0, 2, 3]"
    )


def _verify_expands_once(char, support_file, capsys, monkeypatch):
    support = {"n": 1, "exponents": [[0], [1], [3], [4], [7]]}
    expansions = []
    modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("gvand") and m]
    # count every determinant build at each site that bound the builder by name
    for original in (vandermonde.vandermonde_determinant, vandermonde.row_expansion):

        def counting(inst, *args, _original=original, **kwargs):
            expansions.append(inst.support)
            return _original(inst, *args, **kwargs)

        for module in modules:
            for key, val in list(vars(module).items()):
                if val is original:
                    monkeypatch.setattr(module, key, counting)
    code, out, err = _run(capsys, ["verify", "--input", support_file(support), "--char", str(char)])
    assert code == 0 and err == ""
    assert len(expansions) == 1  # the classical oracle's; the collinear witness expands nothing
    payload = json.loads(out)
    assert payload["certificate"]["verdict"] == "collinear_split"
    # the same report as a certificate check run alone, which expands nothing either
    field = irreducibility.FieldSpec(char)
    inst = vandermonde.VandermondeInstance(gvand.Support.from_json(support), field.ring)
    cert = irreducibility.decide(inst.support, field)
    assert payload["verification"] == irreducibility.verify_certificate(inst, cert)
    assert len(expansions) == 1


def test_verify_expands_once_over_the_integers(support_file, capsys, monkeypatch):
    _verify_expands_once(0, support_file, capsys, monkeypatch)


def test_verify_expands_once_over_gf_p(support_file, capsys, monkeypatch):
    _verify_expands_once(3, support_file, capsys, monkeypatch)


def test_verify_single_coordinate_runs_classical(support_file, capsys):
    code, out, _ = _run(capsys, ["verify", "--input", support_file(STAIRCASE)])
    assert code == 0
    payload = json.loads(out)
    assert payload["oracles"]["classical_divisibility"]["ok"] is True
    assert payload["oracles"]["classical_divisibility"]["quotient_terms"] == 1


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
    for argv in (["oracle", "--check", "classical"], ["verify"]):
        code, out, err = _run(capsys, argv + ["--input", path])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "classical" in err


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


def test_oracle_line_needs_small_prime(support_file, capsys):
    # the binomial division needs no small prime: it runs in every characteristic
    for char in ("7", "0"):
        code, out, err = _run(
            capsys, ["oracle", "--check", "line", "--input", support_file(LINE), "--char", char]
        )
        assert code == 0 and err == ""
        assert json.loads(out)["report"]["ok"] is True


def test_oracle_line_splits_at_n8_over_gf3(support_file):
    # seven rows to specialize and two nonzero residues in GF(3): no
    # evaluation point exhibits this split, and the division needs none
    line = {"n": 2, "exponents": [[k, 2 * k] for k in range(8)]}
    done = subprocess.run(
        [sys.executable, "-m", "gvand.cli", "oracle", "--check", "line", "--input", support_file(line), "--char", "3"],
        capture_output=True,
        text=True,
        timeout=15,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)["report"]
    assert report["ok"] is True and report["w"] == [1, 2]


def test_oracle_jacobian(support_file, capsys):
    code, out, _ = _run(
        capsys,
        ["oracle", "--check", "jacobian", "--input", support_file(TRIANGLE), "--trials", "2"],
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
    done = subprocess.run(
        [sys.executable, "-m", "gvand.cli", "decide", "--input", support_file(TRIANGLE),
         "--char", str(2**61 - 1)],
        capture_output=True,
        text=True,
        timeout=10,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["certificate"]["verdict"] == "irreducible"


def test_composite_characteristic_rejected(support_file, capsys):
    code, _, err = _run(capsys, ["decide", "--input", support_file(SQUARE), "--char", "6"])
    assert code == 2
    assert "char" in err


def test_size_caps_are_input_errors(support_file, capsys):
    big = {"n": 1, "exponents": [[k] for k in range(13)]}
    code, _, err = _run(capsys, ["decide", "--input", support_file(big)])
    assert code == 2
    assert "exceeds the cap" in err
    code, _, err = _run(
        capsys, ["decide", "--input", support_file(STAIRCASE), "--max-n", "2"]
    )
    assert code == 2
    wide = {"n": 9, "exponents": [[0] * 8 + [1]]}
    code, _, err = _run(capsys, ["decide", "--input", support_file(wide)])
    assert code == 2
    assert "support.n" in err


def test_max_n_cannot_exceed_hard_cap(support_file, capsys):
    code, _, err = _run(
        capsys, ["decide", "--input", support_file(STAIRCASE), "--max-n", "20"]
    )
    assert code == 2
    assert "max-n" in err


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_oracle_trials_must_be_positive(support_file, capsys, trials):
    argv = ["oracle", "--check", "jacobian", "--input", support_file(TRIANGLE), "--trials", trials]
    assert _run(capsys, argv) == (2, "", "error: trials: must be positive\n")


def test_negative_seed_rejected(support_file, capsys):
    code, _, err = _run(capsys, ["decide", "--input", support_file(SQUARE), "--seed", "-1"])
    assert code == 2
    assert "seed" in err


#### in-process reuse and fuzzing ####


def _main_in_process(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    with (
        mock.patch("sys.stdin", io.StringIO(stdin)),
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
    )
    cli._build_parser.cache_clear()
    in_process = [_main_in_process(argv) for argv in runs]
    assert cli._build_parser.cache_info().misses == 1
    assert [code for code, _, _ in in_process] == [0, 2, 0]
    assert "invalid int value: 'x'" in in_process[1][2]
    for argv, (code, out, err) in zip(runs, in_process):
        fresh = subprocess.run(
            [sys.executable, "-m", "gvand.cli", *argv],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=SRC),
        )
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)


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
    expected = "\n".join(cli._render_text(json.loads(json_out))) + "\n"
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
    """expand's term lists, byte for byte, against SparsePoly.to_terms_json_text
    over row_expansion: exponent keys, a graded-lex sort and per-variable
    fragments, a route that shares no text table with expand.  The zero vector
    in each column position runs the empty prefix in the determinant and the
    minors; over GF(2) both signs have one head."""
    others = _NONZERO[n][: N - 1]
    for pos in range(N):
        support = {"n": n, "exponents": others[:pos] + [[0] * n] + others[pos:]}
        for char in ("0", "2", "3"):
            code, out, err = _main_in_process(["expand", "--char", char], json.dumps(support))
            assert code == 0 and err == ""
            inst = vandermonde.VandermondeInstance(Support.from_json(support), CoefficientRing(int(char)))
            exp = vandermonde.row_expansion(inst)
            minors = ", ".join(minor.to_terms_json_text() for minor in exp.minors)
            expected = (
                f', "determinant": {exp.determinant.to_terms_json_text()}, '
                f'"signs": {json.dumps(list(exp.signs))}, "minors": [{minors}]}}\n'
            )
            same = out[out.index(', "determinant": ') :] == expected  # no diff of megabytes on failure
            assert same, (support, char)
            _assert_text_renders_json(["expand", "--char", char], out, json.dumps(support))


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

"""Acceptance suite: twelve end-to-end criteria with runtime bounds.

Each test prints one pass/fail line (visible with -v through the test
name, and in captured stdout) and enforces the stated runtime bound
where one exists.  Corpora are seeded, so every run checks identical
instances.
"""

import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

from conftest import (
    balancing_check,
    classical_reassembles,
    delaunay_lifting,
    random_support,
    row_support,
    verify_subdivision,
)
from gvand.exponents import (
    Support,
    affine_dimension,
    componentwise_min,
    d_gamma,
    normalize,
    reduce_to_span_coordinates,
)
from gvand.irreducibility import (
    VERDICT_IRREDUCIBLE,
    VERDICT_POWER,
    decide,
    verify_certificate,
)
from gvand.oracle import (
    POLYGON_DECOMPOSABLE,
    POLYGON_INDECOMPOSABLE,
    classical_divisibility_check,
    jacobian_independence_evidence,
    leibniz_determinant,
    polygon_indecomposability,
)
from gvand.poly import grid_var
from gvand.rings import GF, ZZ, CoefficientRing
from gvand.tropical import (
    TROPICAL_IRREDUCIBLE,
    TROPICAL_REDUCIBLE,
    combinatorics,
    decide_tropical_irreducibility,
    is_ridge_connected,
    multiplicity_gcd,
    regular_subdivision,
)
from gvand.vandermonde import (
    VandermondeInstance,
    build_matrix,
    row_expansion,
    vandermonde_determinant,
)

SQUARE_SUPPORT = Support(2, ((2, 0), (0, 2), (2, 2)))
HALF_SQUARE = ((1, 0), (0, 1), (1, 1))


@contextmanager
def criterion(num, name, bound=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"acceptance {num:>2}/12 {name}: FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    if bound is not None:
        assert elapsed < bound, f"{name} took {elapsed:.2f}s, bound is {bound}s"
    print(f"acceptance {num:>2}/12 {name}: PASS ({elapsed:.2f}s)")


def test_criterion_01_square_support_expansion():
    with criterion(1, "square-support expansion", bound=1.0):
        det = vandermonde_determinant(VandermondeInstance(SQUARE_SUPPORT, ZZ))
        assert det.to_terms_json() == [
            {"coeff": "1", "monomial": {"X_1_1": 2, "X_1_2": 2, "X_2_1": 2, "X_3_2": 2}},
            {"coeff": "-1", "monomial": {"X_1_1": 2, "X_1_2": 2, "X_2_2": 2, "X_3_1": 2}},
            {"coeff": "-1", "monomial": {"X_1_1": 2, "X_2_1": 2, "X_2_2": 2, "X_3_2": 2}},
            {"coeff": "1", "monomial": {"X_1_1": 2, "X_2_2": 2, "X_3_1": 2, "X_3_2": 2}},
            {"coeff": "1", "monomial": {"X_1_2": 2, "X_2_1": 2, "X_2_2": 2, "X_3_1": 2}},
            {"coeff": "-1", "monomial": {"X_1_2": 2, "X_2_1": 2, "X_3_1": 2, "X_3_2": 2}},
        ]


def test_criterion_02_char2_squaring():
    with criterion(2, "char-2 squaring", bound=1.0):
        inst = VandermondeInstance(SQUARE_SUPPORT, GF(2))
        det = vandermonde_determinant(inst)
        root = det.frobenius_root(1)
        for row in (1, 2, 3):
            assert row_support(root, inst, row=row) == set(HALF_SQUARE)
        assert (root * root).term_map() == det.term_map()


def test_criterion_03_classical_product():
    with criterion(3, "classical-product determinants", bound=2.0):
        for size in (3, 4, 5):
            support = Support(1, tuple((k,) for k in range(size)))
            inst = VandermondeInstance(support, ZZ)
            det = vandermonde_determinant(inst)
            ring = inst.poly_ring()
            product = ring.one()
            for i in range(1, size + 1):
                for j in range(i + 1, size + 1):
                    product = product * (
                        ring.variable(grid_var(j, 1)) - ring.variable(grid_var(i, 1))
                    )
            quotient = det.exact_divide(product)
            assert quotient is not None, f"classical product does not divide at N={size}"
            assert quotient in (ring.one(), -ring.one())


def test_criterion_04_single_coordinate_divisibility():
    with criterion(4, "single-coordinate alternant divisibility", bound=30.0):
        rng = random.Random(40404)
        for _ in range(50):
            support = random_support(rng, 1, rng.randint(2, 5), 10)
            report = classical_divisibility_check(support)
            assert report["divides"], f"division failed on {support.vectors}"
            assert classical_reassembles(support, report["quotient"]), (
                f"reassembly failed on {support.vectors}"
            )


def test_criterion_05_determinant_route_agreement(determinant_corpus):
    with criterion(5, "memoized vs permutation-sum determinants", bound=60.0):
        chars = (0, 0, 2, 3, 5)
        for k, support in enumerate(determinant_corpus):
            inst = VandermondeInstance(support, CoefficientRing(chars[k % len(chars)]))
            matrix = build_matrix(inst)
            assert leibniz_determinant(matrix) == vandermonde_determinant(inst), (
                f"route disagreement on {support.vectors} char {chars[k % len(chars)]}"
            )


def test_criterion_06_repeated_row_vanishing(determinant_corpus):
    with criterion(6, "repeated-row substitution vanishes", bound=120.0):
        for support in determinant_corpus:
            inst = VandermondeInstance(support, ZZ)
            expansion = row_expansion(inst)
            ring = inst.poly_ring()
            N, n = inst.N, inst.n
            for ell in range(2, N + 1):
                total = ring.zero()
                for l in range(N):
                    exps = [0] * (N * n)
                    base = (ell - 1) * n
                    for j, e in enumerate(support.vectors[l]):
                        exps[base + j] = e
                    piece = ring.monomial(exps) * expansion.minors[l]
                    total = total - piece if expansion.signs[l] else total + piece
                assert total.is_zero(), (
                    f"row {ell} substitution did not vanish on {support.vectors}"
                )


def test_criterion_07_decision_vs_tropical_agreement(agreement_corpus):
    with criterion(7, "field decision vs tropical decision", bound=300.0):
        for support in agreement_corpus:
            cert0 = decide(support, 0)
            assert cert0.verdict == VERDICT_IRREDUCIBLE, (
                f"char-0 decision failed on {support.vectors}"
            )
            tcert = decide_tropical_irreducibility(support, seed=0)
            if d_gamma(support) == 1:
                assert tcert.verdict == TROPICAL_IRREDUCIBLE, (
                    f"tropical disagreement at d=1 on {support.vectors}"
                )
            else:
                assert tcert.verdict == TROPICAL_REDUCIBLE, (
                    f"tropical decision must be char-blind on {support.vectors}"
                )


def test_criterion_08_tropical_witness_invariants(agreement_corpus):
    with criterion(8, "tropical witness invariants", bound=300.0):
        failures = []
        for support in agreement_corpus:
            reduced = reduce_to_span_coordinates(support)
            lifting = delaunay_lifting(reduced, seed=0)
            sub = regular_subdivision(reduced, lifting)
            report = verify_subdivision(reduced, lifting, sub)
            if not report["ok"]:
                failures.append((support.vectors, report["failures"][:2]))
                continue
            covered = set()
            for cell in sub.cells:
                covered.update(cell.vertices)
            if covered != set(range(reduced.N)):
                failures.append((support.vectors, "vertex dropped from subdivision"))
                continue
            # multiplicities are lattice lengths of the support's own edge vectors
            tc = combinatorics(sub, support)
            balance = balancing_check(tc, support)
            if not balance["ok"]:
                failures.append((support.vectors, balance["failures"][:2]))
                continue
            if reduced.n >= 2 and not is_ridge_connected(tc):
                failures.append((support.vectors, "facet graph disconnected"))
                continue
            if multiplicity_gcd(tc) != d_gamma(support):
                failures.append((support.vectors, "multiplicity gcd mismatch"))
        assert not failures, f"{len(failures)} witness failures, first: {failures[:3]}"


def _scaled_support_corpus(count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p = 2 if len(out) % 2 == 0 else 3
        s = random_support(rng, rng.choice((2, 3)), rng.randint(3, 5), 3)
        s, _ = normalize(s)
        if affine_dimension(s) < 2 or d_gamma(s) != 1:
            continue
        scaled = Support(s.n, tuple(tuple(p * x for x in v) for v in s.vectors))
        out.append((p, scaled))
    return out


def test_criterion_09_power_structure():
    with criterion(9, "power-of-irreducible structure", bound=120.0):
        for p, support in _scaled_support_corpus(20, seed=909):
            cert = decide(support, p)
            assert cert.verdict == VERDICT_POWER, f"expected power verdict on {support.vectors}"
            d = d_gamma(support)
            r = 0
            while d % p == 0:
                d //= p
                r += 1
            assert cert.power_r == r, f"power exponent mismatch on {support.vectors}"
            inst = VandermondeInstance(support, GF(p))
            report = verify_certificate(support, cert, decide_tropical_irreducibility(support, seed=0))
            assert report["ok"], f"certificate re-check failed on {support.vectors}"
            # the Frobenius identity verify reads off the certificate, checked on the expansions
            root = vandermonde_determinant(inst).frobenius_root(cert.power_r)
            reduced = vandermonde_determinant(VandermondeInstance(cert.reduced_support, GF(p)))
            assert root == reduced, f"p^r-th root is not the reduced determinant on {support.vectors}"


def test_criterion_10_jacobian_rank_evidence():
    with criterion(10, "minor-ratio independence evidence", bound=120.0):
        rng = random.Random(1010)
        for _ in range(20):
            support = random_support(rng, rng.randint(1, 3), rng.randint(2, 5), 4)
            report = jacobian_independence_evidence(support, seed=77)
            assert report.conclusive, (
                f"rank {report.achieved_rank} < {report.target_rank} within "
                f"{report.trials} samples on {support.vectors}"
            )


def test_criterion_11_polygon_consistency(agreement_corpus):
    with criterion(11, "polygon indecomposability consistency", bound=120.0):
        for support in agreement_corpus:
            if support.n != 2:
                continue
            report = polygon_indecomposability(support)
            if report.status == POLYGON_INDECOMPOSABLE and not any(componentwise_min(support)):
                cert = decide(support, 0)
                assert cert.verdict == VERDICT_IRREDUCIBLE, (
                    f"indecomposable polygon but not irreducible: {support.vectors}"
                )
        triangle = Support(2, ((0, 0), (1, 0), (0, 1)))
        doubled = Support(2, ((0, 0), (2, 0), (0, 2)))
        assert polygon_indecomposability(triangle).status == POLYGON_INDECOMPOSABLE
        assert polygon_indecomposability(doubled).status == POLYGON_DECOMPOSABLE


def test_criterion_12_cli_byte_determinism(tmp_path):
    with criterion(12, "byte-identical CLI reruns", bound=120.0):
        square = tmp_path / "square.json"
        square.write_text(json.dumps(SQUARE_SUPPORT.to_json()))
        staircase = tmp_path / "staircase.json"
        staircase.write_text(json.dumps({"n": 1, "exponents": [[0], [1], [2]]}))
        diagonal = tmp_path / "diagonal.json"
        diagonal.write_text(json.dumps({"n": 2, "exponents": [[0, 0], [1, 1], [2, 2]]}))
        invocations = [
            ["decide", "--input", str(square), "--char", "2"],
            ["decide", "--input", str(square), "--format", "text"],
            ["expand", "--input", str(square)],
            ["tropical", "--input", str(square), "--seed", "13"],
            ["verify", "--input", str(square), "--seed", "13"],
            ["oracle", "--check", "leibniz", "--input", str(square), "--char", "3"],
            ["oracle", "--check", "classical", "--input", str(staircase)],
            ["oracle", "--check", "line", "--input", str(diagonal), "--char", "3", "--seed", "5"],
            ["oracle", "--check", "jacobian", "--input", str(square), "--seed", "5"],
            ["oracle", "--check", "polygon", "--input", str(square)],
        ]
        for argv in invocations:
            first = subprocess.run(
                [sys.executable, "-m", "gvand.cli"] + argv, capture_output=True
            )
            second = subprocess.run(
                [sys.executable, "-m", "gvand.cli"] + argv, capture_output=True
            )
            assert first.returncode == 0, (argv, first.stderr.decode())
            assert first.returncode == second.returncode
            assert first.stdout == second.stdout, f"stdout drift for {argv}"
            assert first.stderr == second.stderr, f"stderr drift for {argv}"

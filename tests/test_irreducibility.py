import ast
import json
import random
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import random_support
from gvand import irreducibility, vandermonde
from gvand.errors import CertificateMismatchError
from gvand.exponents import Support, affine_dimension, componentwise_min, d_gamma, normalize
from gvand.irreducibility import (
    VERDICT_COLLINEAR,
    VERDICT_IRREDUCIBLE,
    VERDICT_MONOMIAL_FACTOR,
    VERDICT_POWER,
    VERDICT_SMALL_N,
    IrreducibilityCertificate,
    decide,
    verify_certificate,
)
from gvand.poly import SparsePoly
from gvand.rings import CoefficientRing
from gvand.tropical import decide_tropical_irreducibility


def test_decide_validates_the_characteristic():
    support = Support(2, ((0, 0), (1, 0), (0, 1)))
    assert decide(support, 0).characteristic == 0
    assert decide(support, 7).characteristic == 7
    for char in (4, -3):
        with pytest.raises(ValueError):
            decide(support, char)
    for char in (2.0, False):
        with pytest.raises(ValueError, match="must be an integer"):
            decide(support, char)


def test_decision_layer_imports_no_polynomial_or_tropical_module():
    # gvand/__init__ loads every module, so only the source can show what this one imports
    tree = ast.parse(Path(irreducibility.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
    assert "gvand.exponents" in imported
    assert imported.isdisjoint({"gvand.vandermonde", "gvand.poly", "gvand.tropical"})


def test_verdict_small_n():
    cert = decide(Support(1, ((3,),)), 0)
    assert cert.verdict == VERDICT_SMALL_N
    assert cert.d_gamma is None
    assert cert.affine_dim == 0
    cert2 = decide(Support(2, ((0, 0), (2, 2))), 0)
    assert cert2.verdict == VERDICT_SMALL_N
    assert cert2.d_gamma == 2


def test_verdict_irreducible():
    cert = decide(Support(2, ((0, 0), (1, 0), (0, 1))), 0)
    assert cert.verdict == VERDICT_IRREDUCIBLE
    assert cert.power_r == 0
    assert all(c.holds for c in cert.conditions)


def test_verdict_monomial_factor():
    cert = decide(Support(2, ((1, 1), (3, 1), (1, 3))), 0)
    assert cert.verdict == VERDICT_MONOMIAL_FACTOR
    assert cert.gamma_bar == (1, 1)
    assert cert.reduced_support.vectors == ((0, 0), (2, 0), (0, 2))


def test_verdict_collinear():
    cert = decide(Support(2, ((0, 0), (1, 1), (3, 3))), 0)
    assert cert.verdict == VERDICT_COLLINEAR
    assert cert.affine_dim == 1


def test_verdict_power():
    cert = decide(Support(2, ((0, 0), (2, 0), (0, 2), (2, 2))), 2)
    assert cert.verdict == VERDICT_POWER
    assert cert.power_r == 1
    assert cert.reduced_support.vectors == ((0, 0), (1, 0), (0, 1), (1, 1))
    # same support in characteristic 0 or 3 is irreducible
    assert decide(cert.reduced_support, 2).verdict == VERDICT_IRREDUCIBLE
    assert decide(Support(2, ((0, 0), (2, 0), (0, 2), (2, 2))), 0).verdict == VERDICT_IRREDUCIBLE
    assert decide(Support(2, ((0, 0), (2, 0), (0, 2), (2, 2))), 3).verdict == VERDICT_IRREDUCIBLE


def test_power_r_is_p_adic_valuation():
    support = Support(1, ((0,), (12,), (24,)))  # d = 12 = 2^2 * 3
    assert decide(support, 2).power_r == 2
    assert decide(support, 3).power_r == 1
    assert decide(support, 5).power_r == 0
    assert decide(support, 2).reduced_support.vectors == ((0,), (3,), (6,))


def test_verdict_priority():
    # content beats collinearity and the characteristic condition
    shifted_line = Support(2, ((1, 1), (2, 2), (3, 3)))
    assert decide(shifted_line, 0).verdict == VERDICT_MONOMIAL_FACTOR
    shifted_even = Support(2, ((1, 1), (3, 1), (1, 3)))
    assert decide(shifted_even, 2).verdict == VERDICT_MONOMIAL_FACTOR
    # collinearity beats the characteristic condition
    even_line = Support(1, ((0,), (2,), (4,)))
    assert decide(even_line, 2).verdict == VERDICT_COLLINEAR
    # small N beats everything
    assert decide(Support(2, ((1, 1), (3, 3))), 2).verdict == VERDICT_SMALL_N


def test_verdict_iff_three_conditions():
    rng = random.Random(7130)
    for _ in range(120):
        s = random_support(rng, rng.randint(1, 3), rng.randint(1, 6), 6)
        for p in (0, 2, 3, 5):
            cert = decide(s, p)
            d = d_gamma(s) if s.N >= 2 else None
            expected = (
                s.N >= 3
                and affine_dimension(s) >= 2
                and not any(componentwise_min(s))
                and (p == 0 or d % p != 0)
            )
            assert (cert.verdict == VERDICT_IRREDUCIBLE) == expected
            assert cert.d_gamma == d
            by_conditions = all(c.holds for c in cert.conditions) and s.N >= 3
            assert (cert.verdict == VERDICT_IRREDUCIBLE) == by_conditions


def test_certificate_json_serializable():
    cert = decide(Support(2, ((0, 0), (2, 0), (0, 2))), 2)
    blob = cert.to_json()
    text = json.dumps(blob)
    assert '"power_of_irreducible"' in text
    assert blob["power_r"] == 1
    assert blob["d_gamma"] == 2
    assert [c["name"] for c in blob["conditions"]] == ["span", "content", "characteristic"]


#### constructive verification ####


def _verify(vectors, n, char, seed=0):
    support = Support(n, tuple(vectors))
    cert = decide(support, char)
    return cert, verify_certificate(support, cert, decide_tropical_irreducibility(support, seed=seed))


def test_verify_irreducible():
    cert, report = _verify([(0, 0), (1, 0), (0, 1)], 2, 0)
    assert report["ok"] is True
    assert report["verdict"] == VERDICT_IRREDUCIBLE
    names = [c["name"] for c in report["checks"]]
    assert "tropical" in names and "polygon" not in names


def test_verify_irreducible_nontrivial_d():
    # d = 2 but char 3 does not divide it: still irreducible, tropical sees d
    cert, report = _verify([(0, 0), (2, 0), (0, 2)], 2, 3)
    assert report["ok"] is True
    tropical = next(c for c in report["checks"] if c["name"] == "tropical")
    assert tropical["holds"] is True


def test_verify_monomial_factor():
    cert, report = _verify([(1, 1), (3, 1), (1, 3)], 2, 0)
    assert report["ok"] is True
    checks = {c["name"]: c["holds"] for c in report["checks"]}
    assert checks["content_divides"] is True
    assert "content_quotient" not in checks


def test_verify_power():
    cert, report = _verify([(0, 0), (2, 0), (0, 2)], 2, 2)
    assert report["ok"] is True
    names = [c["name"] for c in report["checks"]]
    assert names == ["support", "root_is_reduced_det", "reduced_verdict"]


def test_verify_collinear():
    cert, report = _verify([(0,), (1,), (2,), (3,)], 1, 0, seed=5)
    assert report["ok"] is True
    split = next(c for c in report["checks"] if c["name"] == "line_split")
    assert split["holds"] is True


def test_verify_irreducible_and_collinear_do_not_expand(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the determinant was expanded or divided")

    # the global too, so that a name imported into irreducibility would be refused
    for module in (vandermonde, irreducibility):
        monkeypatch.setattr(module, "vandermonde_determinant", refuse, raising=False)
    monkeypatch.setattr(SparsePoly, "exact_divide", refuse)
    # the collinear witness reads the line; the other verdicts read the certificate
    for vectors, n, char, verdict in (
        ([(0, 0), (1, 0), (0, 1)], 2, 0, VERDICT_IRREDUCIBLE),
        ([(0,), (1,), (2,), (3,)], 1, 0, VERDICT_COLLINEAR),
        ([(1, 1), (3, 1), (1, 3)], 2, 0, VERDICT_MONOMIAL_FACTOR),
        ([(0, 3), (4, 1)], 2, 0, VERDICT_SMALL_N),
    ):
        _, report = _verify(vectors, n, char, seed=5)
        assert report["verdict"] == verdict and report["ok"] is True


@st.composite
def wide_unit_scale_supports(draw):
    """Supports with zero componentwise minimum, affine dimension >= 2 and d = 1."""
    n = draw(st.integers(2, 3))
    N = draw(st.integers(3, 7))
    vectors = draw(st.lists(st.tuples(*[st.integers(0, 4)] * n), min_size=N, max_size=N, unique=True))
    support = normalize(Support(n, tuple(vectors)))
    assume(affine_dimension(support) >= 2 and d_gamma(support) == 1)
    return support


@given(wide_unit_scale_supports(), st.sampled_from((2, 3, 5)), st.integers(1, 2))
def test_power_determinant_is_a_frobenius_power_of_the_reduced_one(reduced, p, r):
    # what verify's power branch reads off the support check: Gamma = p^r * reduced
    # makes det_Gamma = det_reduced^(p^r), so its Frobenius root is det_reduced
    q = p**r
    support = Support(reduced.n, tuple(tuple(q * x for x in v) for v in reduced.vectors))
    cert = decide(support, p)
    assert cert.verdict == VERDICT_POWER and cert.power_r == r
    det = vandermonde.vandermonde_determinant(support, CoefficientRing(p))
    reduced_det = vandermonde.vandermonde_determinant(cert.reduced_support, CoefficientRing(p))
    assert det.frobenius_root(r) == reduced_det


def test_verify_collinear_falls_back_to_a_luckier_prime():
    # over GF(3) this support's reference minor dies on the whole torus,
    # which sank specialized factoring; the binomial witness needs no point
    cert, report = _verify([(0,), (2,), (5,)], 1, 3, seed=1)
    assert report["ok"] is True
    split = next(c for c in report["checks"] if c["name"] == "line_split")
    assert split["detail"].startswith("binomial X_1^w - X_2^w with w = [1] divides")


@pytest.mark.parametrize(
    "vectors",
    [
        ((0,), (1,), (4,), (5,)),
        tuple((k,) for k in range(6)),
        tuple((k, k) for k in range(6)),
        tuple((k, k, k) for k in range(6)),
        tuple((k, 2 * k) for k in range(6)),
        ((3, 0), (2, 1), (1, 2), (0, 3)),  # w = (1, -1) has mixed signs
    ],
)
def test_verify_collinear_in_every_characteristic(vectors):
    for char in (0, 2, 3):
        cert, report = _verify(vectors, len(vectors[0]), char)
        assert cert.verdict == VERDICT_COLLINEAR
        assert report["ok"] is True
        split = next(c for c in report["checks"] if c["name"] == "line_split")
        assert "divides the determinant" in split["detail"]


def test_verify_small_n():
    cert, report = _verify([(0, 3), (4, 1)], 2, 0)
    assert report["ok"] is True
    cert1, report1 = _verify([(2, 5)], 2, 0)
    assert report1["ok"] is True


def test_verify_rejects_wrong_support():
    support = Support(2, ((0, 0), (1, 0), (0, 1)))
    other = Support(2, ((0, 0), (2, 0), (0, 1)))
    cert = decide(support, 0)
    with pytest.raises(CertificateMismatchError):
        verify_certificate(other, cert, decide_tropical_irreducibility(other, seed=0))


def test_verify_rejects_doctored_verdict():
    support = Support(2, ((1, 1), (3, 1), (1, 3)))
    genuine = decide(support, 0)
    doctored = IrreducibilityCertificate(
        verdict=VERDICT_POWER,
        characteristic=genuine.characteristic,
        gamma_bar=genuine.gamma_bar,
        d_gamma=genuine.d_gamma,
        affine_dim=genuine.affine_dim,
        power_r=genuine.power_r,
        reduced_support=genuine.reduced_support,
        conditions=genuine.conditions,
    )
    with pytest.raises(CertificateMismatchError) as exc:
        verify_certificate(support, doctored, decide_tropical_irreducibility(support, seed=0))
    assert exc.value.report["verdict"] == VERDICT_POWER


def test_verify_rejects_negative_content():
    # gamma_bar = (-1, 0) plus this reduced support reconstructs the unit triangle
    support = Support(2, ((0, 0), (1, 0), (0, 1)))
    forged = decide(support, 0)._replace(
        verdict=VERDICT_MONOMIAL_FACTOR,
        gamma_bar=(-1, 0),
        reduced_support=Support(2, ((1, 0), (2, 0), (1, 1))),
    )
    with pytest.raises(CertificateMismatchError) as exc:
        verify_certificate(support, forged, decide_tropical_irreducibility(support, seed=0))
    checks = {c["name"]: c["holds"] for c in exc.value.report["checks"]}
    assert checks == {"support": True, "content_divides": False}


VERDICTS = (
    VERDICT_SMALL_N,
    VERDICT_MONOMIAL_FACTOR,
    VERDICT_COLLINEAR,
    VERDICT_POWER,
    VERDICT_IRREDUCIBLE,
)


@pytest.mark.parametrize(
    "vectors",
    [
        ((3, 1),),  # small_n, N = 1
        ((0, 3), (4, 1)),  # small_n with content
        ((0,), (2,)),  # small_n with d = 2
        ((1, 1), (3, 1), (1, 3)),  # monomial_factor with d = 2
        ((1, 1), (2, 2), (3, 3)),  # monomial_factor on a line
        ((0,), (1,), (2,), (3,)),  # collinear_split
        ((0,), (2,), (4,)),  # collinear_split with d = 2
        ((0, 0), (1, 2), (2, 4)),  # collinear_split in two variables
        ((0, 0), (2, 0), (0, 2), (2, 2)),  # power_of_irreducible over GF(2)
        ((0, 0), (3, 0), (0, 3)),  # power_of_irreducible over GF(3)
        ((0, 0), (1, 0), (0, 1)),  # irreducible everywhere
        ((2, 2), (4, 2), (2, 4)),  # monomial_factor whose power swap has a root over GF(2)
    ],
)
def test_verify_refuses_every_swapped_verdict(vectors):
    # each verdict's check must fail on a support of another class
    support = Support(len(vectors[0]), vectors)
    tropical = decide_tropical_irreducibility(support, seed=1)  # characteristic-blind
    passed = []
    for char in (0, 2, 3):
        genuine = decide(support, char)
        assert verify_certificate(support, genuine, tropical)["ok"] is True
        for verdict in VERDICTS:
            if verdict == genuine.verdict:
                continue
            try:
                verify_certificate(support, genuine._replace(verdict=verdict), tropical)
            except CertificateMismatchError as exc:
                assert exc.report["ok"] is False
            else:
                passed.append((char, genuine.verdict, verdict))
    assert passed == []


@pytest.mark.parametrize(
    "gamma_bar",
    [(-1, 0), (0, 0, 5)],
    ids=["negative", "longer-than-n"],
)
def test_a_certificate_content_that_reconstructs_no_support_fails_the_support_check(gamma_bar):
    # neither content gives a valid support, and neither leaks the record's own ValueError
    support = Support(2, ((0, 0), (1, 0), (0, 1)))
    cert = decide(support, 0)._replace(gamma_bar=gamma_bar)
    with pytest.raises(CertificateMismatchError) as info:
        verify_certificate(support, cert, decide_tropical_irreducibility(support, 0))
    assert info.value.report["checks"] == [
        {"name": "support", "holds": False, "detail": "certificate does not reconstruct this support"}
    ]

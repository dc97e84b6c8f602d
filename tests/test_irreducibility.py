import dataclasses
import json
import random

import pytest

from conftest import random_support
from gvand import irreducibility
from gvand.errors import CertificateMismatchError
from gvand.exponents import Support, affine_dimension, componentwise_min, d_gamma
from gvand.irreducibility import (
    VERDICT_COLLINEAR,
    VERDICT_IRREDUCIBLE,
    VERDICT_MONOMIAL_FACTOR,
    VERDICT_POWER,
    VERDICT_SMALL_N,
    FieldSpec,
    IrreducibilityCertificate,
    decide,
    verify_certificate,
)
from gvand.poly import SparsePoly
from gvand.rings import GF, ZZ
from gvand.vandermonde import VandermondeInstance

CHAR0 = FieldSpec(0)


def test_field_spec_validates():
    assert FieldSpec(0).ring == ZZ
    assert FieldSpec(7).ring == GF(7)
    with pytest.raises(ValueError):
        FieldSpec(4)


def test_verdict_small_n():
    cert = decide(Support(1, ((3,),)), CHAR0)
    assert cert.verdict == VERDICT_SMALL_N
    assert cert.d_gamma is None
    assert cert.affine_dim == 0
    cert2 = decide(Support(2, ((0, 0), (2, 2))), CHAR0)
    assert cert2.verdict == VERDICT_SMALL_N
    assert cert2.d_gamma == 2


def test_verdict_irreducible():
    cert = decide(Support(2, ((0, 0), (1, 0), (0, 1))), CHAR0)
    assert cert.verdict == VERDICT_IRREDUCIBLE
    assert cert.power_r == 0
    assert all(c.holds for c in cert.conditions)


def test_verdict_monomial_factor():
    cert = decide(Support(2, ((1, 1), (3, 1), (1, 3))), CHAR0)
    assert cert.verdict == VERDICT_MONOMIAL_FACTOR
    assert cert.gamma_bar == (1, 1)
    assert cert.reduced_support.vectors == ((0, 0), (2, 0), (0, 2))


def test_verdict_collinear():
    cert = decide(Support(2, ((0, 0), (1, 1), (3, 3))), CHAR0)
    assert cert.verdict == VERDICT_COLLINEAR
    assert cert.affine_dim == 1


def test_verdict_power():
    cert = decide(Support(2, ((0, 0), (2, 0), (0, 2), (2, 2))), FieldSpec(2))
    assert cert.verdict == VERDICT_POWER
    assert cert.power_r == 1
    assert cert.reduced_support.vectors == ((0, 0), (1, 0), (0, 1), (1, 1))
    # same support in characteristic 0 or 3 is irreducible
    assert decide(cert.reduced_support, FieldSpec(2)).verdict == VERDICT_IRREDUCIBLE
    assert decide(Support(2, ((0, 0), (2, 0), (0, 2), (2, 2))), CHAR0).verdict == VERDICT_IRREDUCIBLE
    assert decide(Support(2, ((0, 0), (2, 0), (0, 2), (2, 2))), FieldSpec(3)).verdict == VERDICT_IRREDUCIBLE


def test_power_r_is_p_adic_valuation():
    support = Support(1, ((0,), (12,), (24,)))  # d = 12 = 2^2 * 3
    assert decide(support, FieldSpec(2)).power_r == 2
    assert decide(support, FieldSpec(3)).power_r == 1
    assert decide(support, FieldSpec(5)).power_r == 0
    assert decide(support, FieldSpec(2)).reduced_support.vectors == ((0,), (3,), (6,))


def test_verdict_priority():
    # content beats collinearity and the characteristic condition
    shifted_line = Support(2, ((1, 1), (2, 2), (3, 3)))
    assert decide(shifted_line, CHAR0).verdict == VERDICT_MONOMIAL_FACTOR
    shifted_even = Support(2, ((1, 1), (3, 1), (1, 3)))
    assert decide(shifted_even, FieldSpec(2)).verdict == VERDICT_MONOMIAL_FACTOR
    # collinearity beats the characteristic condition
    even_line = Support(1, ((0,), (2,), (4,)))
    assert decide(even_line, FieldSpec(2)).verdict == VERDICT_COLLINEAR
    # small N beats everything
    assert decide(Support(2, ((1, 1), (3, 3))), FieldSpec(2)).verdict == VERDICT_SMALL_N


def test_verdict_iff_three_conditions():
    rng = random.Random(7130)
    for _ in range(120):
        s = random_support(rng, rng.randint(1, 3), rng.randint(1, 6), 6)
        for p in (0, 2, 3, 5):
            cert = decide(s, FieldSpec(p))
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
    cert = decide(Support(2, ((0, 0), (2, 0), (0, 2))), FieldSpec(2))
    blob = cert.to_json()
    text = json.dumps(blob)
    assert '"power_of_irreducible"' in text
    assert blob["power_r"] == 1
    assert blob["d_gamma"] == 2
    assert [c["name"] for c in blob["conditions"]] == ["span", "content", "characteristic"]


#### constructive verification ####


def _verify(vectors, n, char, seed=0):
    support = Support(n, tuple(vectors))
    field = FieldSpec(char)
    cert = decide(support, field)
    inst = VandermondeInstance(support, field.ring)
    return cert, verify_certificate(inst, cert, seed=seed)


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
    for expected in ("frobenius_root", "root_is_reduced_det", "root_repowers", "reduced_verdict"):
        assert expected in names
    assert "root_row_support" not in names


def test_verify_collinear():
    cert, report = _verify([(0,), (1,), (2,), (3,)], 1, 0, seed=5)
    assert report["ok"] is True
    split = next(c for c in report["checks"] if c["name"] == "line_split")
    assert split["holds"] is True


def test_verify_irreducible_and_collinear_do_not_expand(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the determinant was expanded")

    monkeypatch.setattr("gvand.irreducibility.vandermonde_determinant", refuse)
    _, report = _verify([(0, 0), (1, 0), (0, 1)], 2, 0)
    assert report["verdict"] == VERDICT_IRREDUCIBLE
    monkeypatch.undo()
    # the collinear witness reads the line: no expansion and no division
    calls = []
    expand, divide = irreducibility.vandermonde_determinant, SparsePoly.exact_divide

    def counted_expand(inst):
        calls.append("expand")
        return expand(inst)

    def counted_divide(num, den):
        calls.append("divide")
        return divide(num, den)

    monkeypatch.setattr(irreducibility, "vandermonde_determinant", counted_expand)
    monkeypatch.setattr(SparsePoly, "exact_divide", counted_divide)
    _, report = _verify([(0,), (1,), (2,), (3,)], 1, 0, seed=5)
    assert report["verdict"] == VERDICT_COLLINEAR
    assert report["ok"] is True
    assert calls == []
    # monomial_factor and small_n read the certificate; power expands once for its root
    for vectors, char, verdict, expected in (
        ([(1, 1), (3, 1), (1, 3)], 0, VERDICT_MONOMIAL_FACTOR, []),
        ([(0, 3), (4, 1)], 0, VERDICT_SMALL_N, []),
        ([(0, 0), (2, 0), (0, 2), (2, 2)], 2, VERDICT_POWER, ["expand"]),
    ):
        calls.clear()
        _, report = _verify(vectors, 2, char)
        assert report["verdict"] == verdict and report["ok"] is True
        assert calls == expected, verdict


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


def test_verify_rejects_wrong_field():
    support = Support(2, ((0, 0), (1, 0), (0, 1)))
    cert = decide(support, CHAR0)
    inst = VandermondeInstance(support, GF(3))
    with pytest.raises(CertificateMismatchError) as exc:
        verify_certificate(inst, cert)
    assert exc.value.report["ok"] is False


def test_verify_rejects_wrong_support():
    support = Support(2, ((0, 0), (1, 0), (0, 1)))
    other = Support(2, ((0, 0), (2, 0), (0, 1)))
    cert = decide(support, CHAR0)
    inst = VandermondeInstance(other, ZZ)
    with pytest.raises(CertificateMismatchError):
        verify_certificate(inst, cert)


def test_verify_rejects_doctored_verdict():
    support = Support(2, ((1, 1), (3, 1), (1, 3)))
    genuine = decide(support, CHAR0)
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
    inst = VandermondeInstance(support, ZZ)
    with pytest.raises(CertificateMismatchError) as exc:
        verify_certificate(inst, doctored)
    assert exc.value.report["verdict"] == VERDICT_POWER


def test_verify_rejects_negative_content():
    # gamma_bar = (-1, 0) plus this reduced support reconstructs the unit triangle
    support = Support(2, ((0, 0), (1, 0), (0, 1)))
    forged = dataclasses.replace(
        decide(support, CHAR0),
        verdict=VERDICT_MONOMIAL_FACTOR,
        gamma_bar=(-1, 0),
        reduced_support=Support(2, ((1, 0), (2, 0), (1, 1))),
    )
    with pytest.raises(CertificateMismatchError) as exc:
        verify_certificate(VandermondeInstance(support, ZZ), forged)
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
    passed = []
    for char in (0, 2, 3):
        field = FieldSpec(char)
        genuine = decide(support, field)
        inst = VandermondeInstance(support, field.ring)
        assert verify_certificate(inst, genuine, seed=1)["ok"] is True
        for verdict in VERDICTS:
            if verdict == genuine.verdict:
                continue
            try:
                verify_certificate(inst, dataclasses.replace(genuine, verdict=verdict), seed=1)
            except CertificateMismatchError as exc:
                assert exc.report["ok"] is False
            else:
                passed.append((char, genuine.verdict, verdict))
    assert passed == []

"""Irreducibility decisions for generalized Vandermonde determinants.

For N >= 3 the determinant is absolutely irreducible over a field of
characteristic p exactly when three support conditions hold: the affine
span of the exponent set has dimension >= 2, the componentwise minimum
is zero (no monomial content), and p does not divide the scale gcd d.
Each failure mode names its witness: a monomial content factor, a
collinear support whose determinant a binomial divides, or a p-th power
structure coming from the Frobenius.  A certificate is re-checked from
its own data and the support: once gamma_bar + p^r * reduced support
reconstructs the instance, the small_n and monomial_factor verdicts need
nothing more, the collinear check reads its binomial and the quotient's
size off the line, and only the power check expands the determinant.
"""

import math
from dataclasses import dataclass
from itertools import combinations

from gvand.errors import CertificateMismatchError, NoRootError
from gvand.exponents import (
    Support,
    affine_dimension,
    componentwise_min,
    d_gamma,
    normalize,
    reduce_to_span_coordinates,
)
from gvand.reporting import ConditionCheck
from gvand.rings import CoefficientRing
from gvand.vandermonde import VandermondeInstance, vandermonde_determinant

VERDICT_IRREDUCIBLE = "irreducible"
VERDICT_MONOMIAL_FACTOR = "monomial_factor"
VERDICT_POWER = "power_of_irreducible"
VERDICT_COLLINEAR = "collinear_split"
VERDICT_SMALL_N = "small_n"


@dataclass(frozen=True)
class FieldSpec:
    """Ground-field data: characteristic 0 or a prime."""

    characteristic: int

    def __post_init__(self):
        CoefficientRing(self.characteristic)  # validates

    @property
    def ring(self) -> CoefficientRing:
        return CoefficientRing(self.characteristic)


@dataclass(frozen=True)
class IrreducibilityCertificate:
    verdict: str
    characteristic: int
    gamma_bar: tuple
    d_gamma: object  # int, or None for a single-vector support
    affine_dim: int
    power_r: int
    reduced_support: Support
    conditions: tuple

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "characteristic": self.characteristic,
            "gamma_bar": list(self.gamma_bar),
            "d_gamma": self.d_gamma,
            "affine_dimension": self.affine_dim,
            "power_r": self.power_r,
            "reduced_support": self.reduced_support.to_json(),
            "conditions": [c.to_json() for c in self.conditions],
        }


def _p_adic_valuation(d: int, p: int) -> int:
    r = 0
    while d % p == 0:
        d //= p
        r += 1
    return r


def decide(support: Support, field: FieldSpec) -> IrreducibilityCertificate:
    """Classify the determinant of the given support over the given field."""
    p = field.characteristic
    gamma_bar = componentwise_min(support)
    norm, _ = normalize(support)
    dim = affine_dimension(support)
    d = d_gamma(support) if support.N >= 2 else None

    span_ok = dim >= 2
    content_ok = not any(gamma_bar)
    if p == 0:
        char_ok = True
        char_detail = "characteristic 0 divides no positive scale gcd"
    elif d is None:
        char_ok = False
        char_detail = "scale gcd undefined for a single exponent vector"
    else:
        char_ok = d % p != 0
        char_detail = f"char {p} {'does not divide' if char_ok else 'divides'} d = {d}"

    conditions = (
        ConditionCheck("span", span_ok, f"affine dimension {dim} (needs >= 2)"),
        ConditionCheck(
            "content",
            content_ok,
            "componentwise minimum is zero"
            if content_ok
            else f"componentwise minimum {gamma_bar} extracts a monomial factor",
        ),
        ConditionCheck("characteristic", char_ok, char_detail),
    )

    power_r = 0
    reduced = norm
    if support.N >= 2 and p > 0 and d is not None and d % p == 0:
        power_r = _p_adic_valuation(d, p)
        q = p**power_r
        reduced = Support(norm.n, tuple(tuple(x // q for x in v) for v in norm.vectors))

    if support.N < 3:
        verdict = VERDICT_SMALL_N
    elif not content_ok:
        verdict = VERDICT_MONOMIAL_FACTOR
    elif not span_ok:
        verdict = VERDICT_COLLINEAR
    elif not char_ok:
        verdict = VERDICT_POWER
    else:
        verdict = VERDICT_IRREDUCIBLE

    return IrreducibilityCertificate(
        verdict=verdict,
        characteristic=p,
        gamma_bar=gamma_bar,
        d_gamma=d,
        affine_dim=dim,
        power_r=power_r,
        reduced_support=reduced,
        conditions=conditions,
    )


def _reconstruct_support(cert: IrreducibilityCertificate) -> Support:
    mult = cert.characteristic**cert.power_r if cert.power_r else 1
    vectors = tuple(
        tuple(mult * x + g for x, g in zip(v, cert.gamma_bar))
        for v in cert.reduced_support.vectors
    )
    return Support(len(cert.gamma_bar), vectors)


def verify_certificate(
    inst: VandermondeInstance,
    cert: IrreducibilityCertificate,
    seed: int = 0,
    tropical=None,
) -> dict:
    """Re-check a certificate against the support it claims to describe.

    Returns a report of named checks when everything passes; raises
    CertificateMismatchError (report attached) when any check fails.
    Each check tests only what can fail: the small_n, monomial_factor
    and irreducible branches read the certificate, the support and the
    tropical decision, and the collinear branch checks that the support
    lies on its line; only the power branch expands the determinant,
    once, and raises SizeCapError past vandermonde.EXPAND_MAX_N.  A
    caller that already holds decide_tropical_irreducibility(inst.support,
    seed) passes it as ``tropical``; otherwise it is computed when needed.
    """
    checks = []

    def add(name, ok, detail):
        checks.append(ConditionCheck(name, bool(ok), detail))
        return ok

    if inst.coeff_ring.characteristic != cert.characteristic:
        add(
            "field",
            False,
            f"instance char {inst.coeff_ring.characteristic} vs certificate {cert.characteristic}",
        )
        _finish(cert, checks, "field characteristic mismatch")
    reconstructed = _reconstruct_support(cert)
    if reconstructed != inst.support:
        add("support", False, "certificate does not reconstruct this support")
        _finish(cert, checks, "support mismatch")
    add("support", True, "gamma_bar + p^r-scaled reduced support reconstructs the instance")

    verdict = cert.verdict

    # N < 3 is small_n whatever else holds; every other verdict needs N >= 3
    if (inst.N < 3) != (verdict == VERDICT_SMALL_N):
        add("small_n", False, f"{verdict} verdict with N = {inst.N}")
    elif verdict == VERDICT_SMALL_N:
        add("small_n", True, f"N = {inst.N} < 3 decides small_n whatever else holds")
    elif verdict == VERDICT_MONOMIAL_FACTOR:
        _check_monomial_factor(cert, add)
    elif verdict == VERDICT_POWER:
        _check_power(inst, cert, vandermonde_determinant(inst), add)
    elif verdict == VERDICT_COLLINEAR:
        _check_collinear(inst, add)
    elif verdict == VERDICT_IRREDUCIBLE:
        _check_irreducible(inst, cert, seed, add, tropical)
    else:
        add("verdict", False, f"unknown verdict {verdict!r}")

    report = {
        "verdict": verdict,
        "ok": all(c.holds for c in checks),
        "checks": [c.to_json() for c in checks],
    }
    if not report["ok"]:
        failing = next(c for c in checks if not c.holds)
        raise CertificateMismatchError(f"check {failing.name!r} failed: {failing.detail}", report)
    return report


def _finish(cert, checks, message):
    report = {
        "verdict": cert.verdict,
        "ok": False,
        "checks": [c.to_json() for c in checks],
    }
    raise CertificateMismatchError(message, report)


def _check_monomial_factor(cert, add):
    # the support check proved Gamma = gamma_bar + p^r * reduced with the reduced
    # support in NN^n, so a nonzero gamma_bar >= 0 is a monomial dividing every term
    gamma_bar = cert.gamma_bar
    holds = any(gamma_bar) and min(gamma_bar) >= 0
    add(
        "content_divides",
        holds,
        "componentwise-min monomial divides the determinant"
        if holds
        else f"certificate content {gamma_bar} is not a nonzero monomial",
    )


def _check_power(inst, cert, det, add):
    p, r = cert.characteristic, cert.power_r
    if p == 0 or r < 1:
        add("power_shape", False, f"power verdict needs p > 0 and r >= 1, got p={p}, r={r}")
        return
    try:
        root = det.frobenius_root(r)
    except NoRootError as exc:
        add("frobenius_root", False, f"no p^{r}-th root: {exc}")
        return
    add("frobenius_root", True, f"determinant admits a p^{r}-th Frobenius root")
    # Gamma = gamma_bar + q * reduced (q = p^r) makes det = X^gamma_bar * det_reduced^q,
    # so the root is X^(gamma_bar / q) * det_reduced: the reduced determinant iff gamma_bar = 0
    add(
        "root_is_reduced_det",
        not any(cert.gamma_bar),
        "root equals the determinant of the reduced support",
    )
    add("root_repowers", root.frobenius_power(r) == det, "root re-raised to p^r reproduces the determinant")
    sub = decide(cert.reduced_support, FieldSpec(p))
    add(
        "reduced_verdict",
        sub.verdict == VERDICT_IRREDUCIBLE,
        f"reduced support decides {sub.verdict}",
    )


def collinear_witness(inst):
    """The binomial that splits a collinear determinant, and the quotient's size.

    The support must have affine dimension 1: positions k_l come from its
    span coordinates and w from its two ends, and the lattice condition
    gamma_l = gamma_lo + k_l * w is checked for every l.  Then f =
    X_1^(w+) X_2^(w-) - X_1^(w-) X_2^(w+) divides each 2x2 minor M_lm on
    rows 1 and 2, leaving a geometric series of |k_l - k_m| monomials,
    and rows 3..N fix the pair {l, m}: det / f has (N-2)! * sum_{l<m}
    |k_l - k_m| terms, all +-1, and degree sum_l |gamma_l|_1 - |w|_1 in
    every characteristic.  det = f * q with q of positive degree is a
    split over every field.  Returns (w, positions, f, terms, degree),
    the last two None when the lattice condition fails.
    """
    support = inst.support
    reduced, _ = reduce_to_span_coordinates(support)
    positions = tuple(v[0] for v in reduced.vectors)
    lo, hi = positions.index(0), positions.index(max(positions))
    base = support.vectors[lo]
    w = tuple((a - b) // positions[hi] for a, b in zip(support.vectors[hi], base))
    w_plus = tuple(max(x, 0) for x in w)
    w_minus = tuple(max(-x, 0) for x in w)
    rest = (0,) * (inst.n * (inst.N - 2))
    ring = inst.poly_ring()
    f = ring.monomial(w_plus + w_minus + rest) - ring.monomial(w_minus + w_plus + rest)
    on_line = all(
        v == tuple(b + k * x for b, x in zip(base, w)) for k, v in zip(positions, support.vectors)
    )
    if not on_line:
        return w, positions, f, None, None
    terms = math.factorial(inst.N - 2) * sum(abs(a - b) for a, b in combinations(positions, 2))
    degree = sum(map(sum, support.vectors)) - sum(map(abs, w))
    return w, positions, f, terms, degree


def _check_collinear(inst, add):
    dim, gamma_min = affine_dimension(inst.support), componentwise_min(inst.support)
    if dim != 1 or any(gamma_min):
        detail = f"affine dimension {dim}, componentwise minimum {gamma_min} (needs 1 and zero)"
        add("line_split", False, detail)
        return
    w, positions, _, terms, degree = collinear_witness(inst)
    binomial = f"binomial X_1^w - X_2^w with w = {list(w)}"
    if terms is None:
        add("line_split", False, f"{binomial}: the support is not gamma_lo + k * w at positions {list(positions)}")
        return
    add("line_split", degree > 0, f"{binomial} divides the determinant, quotient of {terms} terms")


def _check_irreducible(inst, cert, seed, add, tcert):
    if tcert is None:
        from gvand.tropical import decide_tropical_irreducibility

        tcert = decide_tropical_irreducibility(inst.support, seed=seed)
    span_ok, content_ok = (c.holds for c in tcert.conditions[:2])
    # the tropical route raises unless its multiplicity gcd equals d_gamma
    g, d, p = tcert.multiplicity_gcd, cert.d_gamma, cert.characteristic
    holds = span_ok and content_ok and g == d and (p == 0 or g % p != 0)
    if d == 1:
        detail = f"tropical decision is {tcert.verdict} (d = 1 expects irreducible)"
    else:
        detail = (
            f"tropical decision {tcert.verdict} with facet-multiplicity gcd "
            f"{g} (char-blind scale d = {d})"
        )
    add("tropical", holds, detail)

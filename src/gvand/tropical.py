"""Tropical irreducibility via regular subdivisions of the support.

The tropicalization of the determinant is decided combinatorially and
characteristic-blind: the support (span-reduced to full affine
dimension m) is lifted by a perturbed paraboloid, the induced regular
subdivision is required to be simplicial, and the dual-hypersurface
data is read off the subdivision: facets are subdivision edges weighted
by lattice length, ridges are subdivision triangles.  Tropical
irreducibility holds exactly when the span, content, and scale (d = 1)
conditions all pass; the witness exhibits multiplicity gcd d in the
reducible scaled case.

Every rational quantity is exact.  The subdivision search and its
re-check run on integers: the lifting is scaled to integers by the lcm
of its denominators, each candidate plane is solved fraction-free as
integer numerators over one denominator, and every above/on-plane test
is an integer comparison.  Fractions are built only for the lifting
values and the witness planes of the cells kept.  Given the same
support and seed the whole construction is deterministic.
"""

import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from gvand.errors import (
    DegenerateSupportError,
    InvariantViolationError,
    NotSimplicialError,
    PerturbationExhaustedError,
)
from gvand.exponents import (
    Support,
    affine_dimension,
    componentwise_min,
    d_gamma,
    reduce_to_span_coordinates,
)
from gvand.linalg import integer_rank, solve_affine
from gvand.reporting import ConditionCheck, frac_str

LIFT_DENOMINATOR = 2**32
EPS_MAX_NUMERATOR = 2**16
DEFAULT_MAX_RETRIES = 32

TROPICAL_IRREDUCIBLE = "irreducible"
TROPICAL_REDUCIBLE = "reducible"


@dataclass(frozen=True)
class Lifting:
    """Exact lifting values per support vector, plus provenance."""

    values: tuple
    seed: int
    attempts: int

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "attempts": self.attempts,
            "values": [frac_str(v) for v in self.values],
        }


@dataclass(frozen=True)
class Cell:
    """One cell of a regular subdivision with its witness plane.

    The witness satisfies normal . point + offset <= lift everywhere,
    with equality exactly on the cell's vertices (0-based indices into
    the support).
    """

    vertices: tuple
    normal: tuple
    offset: Fraction

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "witness": {
                "normal": [frac_str(x) for x in self.normal],
                "offset": frac_str(self.offset),
            },
        }


@dataclass(frozen=True)
class RegularSubdivision:
    ambient_dim: int
    cells: tuple
    simplicial: bool

    def to_json(self) -> dict:
        return {
            "ambient_dim": self.ambient_dim,
            "simplicial": self.simplicial,
            "cells": [c.to_json() for c in self.cells],
        }


@dataclass(frozen=True)
class Facet:
    """Dual facet: a subdivision edge with its lattice-length multiplicity."""

    vertices: tuple
    multiplicity: int

    def to_json(self) -> dict:
        return {"vertices": list(self.vertices), "multiplicity": self.multiplicity}


@dataclass(frozen=True)
class Ridge:
    """Dual ridge: a subdivision triangle linking its three facets."""

    vertices: tuple
    facets: tuple  # indices into the facet list

    def to_json(self) -> dict:
        return {"vertices": list(self.vertices), "facets": list(self.facets)}


@dataclass(frozen=True)
class TropicalCombinatorics:
    facets: tuple
    ridges: tuple
    adjacency: tuple  # pairs of facet indices sharing a ridge

    def to_json(self) -> dict:
        return {
            "facets": [f.to_json() for f in self.facets],
            "ridges": [r.to_json() for r in self.ridges],
            "facet_graph": [list(pair) for pair in self.adjacency],
        }


@dataclass(frozen=True)
class TropicalCertificate:
    verdict: str
    conditions: tuple
    seed: int
    multiplicity_gcd: object  # int, or None when no witness was built
    ridge_connected: object  # bool, or None
    lifting: object
    subdivision: object
    combinatorics: object

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "seed": self.seed,
            "conditions": [c.to_json() for c in self.conditions],
            "multiplicity_gcd": self.multiplicity_gcd,
            "ridge_connected": self.ridge_connected,
            "lifting": None if self.lifting is None else self.lifting.to_json(),
            "subdivision": None if self.subdivision is None else self.subdivision.to_json(),
            "combinatorics": None if self.combinatorics is None else self.combinatorics.to_json(),
        }


#### lifting and subdivision ####


def _paraboloid_values(support: Support, eps) -> tuple:
    """sum_j (v_j + e_j)^2 - last_j^2 per vector v, with e_j = eps[v][j] / LIFT_DENOMINATOR.

    Each value is one integer over LIFT_DENOMINATOR**2.
    """
    den = LIFT_DENOMINATOR
    base = sum((x * den) ** 2 for x in support.vectors[-1])
    return tuple(
        Fraction(sum((x * den + e) ** 2 for x, e in zip(v, row)) - base, den * den)
        for v, row in zip(support.vectors, eps)
    )


def _covers_all_points(sub: RegularSubdivision, n_points: int) -> bool:
    seen = set()
    for cell in sub.cells:
        seen.update(cell.vertices)
    return len(seen) == n_points


def _witness(support: Support, seed: int, max_retries: int):
    """Perturbed-paraboloid lifting with a simplicial all-vertex subdivision.

    The unperturbed paraboloid keeps every point on the lower hull, so
    a draw that is non-simplicial or drops a point (possible only in
    near-degenerate configurations) is rejected and redrawn.  Full
    vertex coverage is what makes the facet-multiplicity gcd equal the
    support's scale gcd.
    """
    rng = random.Random(seed)
    for attempt in range(1, max_retries + 1):
        eps = [[rng.randint(1, EPS_MAX_NUMERATOR) for _ in range(support.n)] for _ in range(support.N)]
        lifting = Lifting(values=_paraboloid_values(support, eps), seed=seed, attempts=attempt)
        sub = regular_subdivision(support, lifting)
        if sub.simplicial and _covers_all_points(sub, support.N):
            return lifting, sub
    raise PerturbationExhaustedError(
        f"no simplicial all-vertex subdivision within {max_retries} perturbation attempts"
    )


def delaunay_lifting(support: Support, seed: int = 0, max_retries: int = DEFAULT_MAX_RETRIES) -> Lifting:
    """A perturbed-paraboloid lifting whose subdivision is simplicial."""
    return _witness(support, seed, max_retries)[0]


def _integer_lift(values):
    """(scale, ints): scale is the lcm of the denominators, ints[t] = values[t] * scale."""
    scale = math.lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def regular_subdivision(support: Support, lifting: Lifting) -> RegularSubdivision:
    """Lower-hull subdivision of the support induced by the lifting.

    Brute-force witness search: every (m+1)-subset of support points
    that spans an affine plane lying weakly below all lifted points
    contributes the cell given by the plane's equality set.  The search
    runs on the integer lifting ints = values * scale: a plane solved as
    (nums, den) lies weakly below point t iff
    nums . point + nums[m] <= den * ints[t].
    """
    if affine_dimension(support) != support.n:
        raise DegenerateSupportError(
            "lifting needs a span-reduced support (affine dimension = ambient dimension)"
        )
    m = support.n
    if m < 1:
        raise DegenerateSupportError("subdivision needs ambient dimension >= 1")
    points = support.vectors
    values = lifting.values
    assert len(values) == len(points), "one lifting value per support vector"
    scale, lifted = _integer_lift(values)
    found = {}
    for subset in combinations(range(len(points)), m + 1):
        plane = solve_affine([points[i] for i in subset], [lifted[i] for i in subset])
        if plane is None:
            continue
        nums, den = plane
        normal, offset = nums[:m], nums[m]
        below = True
        cell_verts = []
        for t, pt in enumerate(points):
            val = sum(map(operator.mul, normal, pt)) + offset
            bound = den * lifted[t]
            if val > bound:
                below = False
                break
            if val == bound:
                cell_verts.append(t)
        if not below:
            continue
        key = tuple(cell_verts)
        if key not in found:
            den *= scale
            found[key] = Cell(
                vertices=key,
                normal=tuple(Fraction(a, den) for a in normal),
                offset=Fraction(offset, den),
            )
    cells = tuple(found[k] for k in sorted(found))
    simplicial = bool(cells) and all(len(c.vertices) == m + 1 for c in cells)
    return RegularSubdivision(ambient_dim=m, cells=cells, simplicial=simplicial)


def verify_subdivision(support: Support, lifting: Lifting, sub: RegularSubdivision) -> dict:
    """Re-check every cell witness; returns {'ok': bool, 'failures': [...]}.

    Each cell's plane and the lifting are compared as integers over
    their common denominator.
    """
    failures = []
    m = sub.ambient_dim
    points = support.vectors
    scale, lifted = _integer_lift(lifting.values)
    for idx, cell in enumerate(sub.cells):
        coeffs = (*cell.normal, cell.offset)
        den = math.lcm(scale, *(c.denominator for c in coeffs))
        *normal, offset = (c.numerator * (den // c.denominator) for c in coeffs)
        k = den // scale
        on_plane = []
        for t, pt in enumerate(points):
            val = sum(map(operator.mul, normal, pt)) + offset
            bound = k * lifted[t]
            if val > bound:
                failures.append(f"cell {idx}: witness plane is above lifted point {t}")
            elif val == bound:
                on_plane.append(t)
        if tuple(on_plane) != cell.vertices:
            failures.append(f"cell {idx}: equality set {on_plane} != vertices {list(cell.vertices)}")
        if len(cell.vertices) == m + 1:
            base = points[cell.vertices[0]]
            diffs = [
                [points[v][j] - base[j] for j in range(m)] for v in cell.vertices[1:]
            ]
            if integer_rank(diffs) != m:
                failures.append(f"cell {idx}: simplex vertices are affinely dependent")
    return {"ok": not failures, "failures": failures}


#### dual combinatorics ####


def _edge_multiplicity(support: Support, u: int, v: int) -> int:
    diff = [a - b for a, b in zip(support.vectors[u], support.vectors[v])]
    return math.gcd(*diff) if len(diff) > 1 else abs(diff[0])


def combinatorics(sub: RegularSubdivision, support: Support) -> TropicalCombinatorics:
    """Dual facets (edges + lattice lengths), ridges (triangles), adjacency."""
    if not sub.simplicial:
        raise NotSimplicialError("dual combinatorics needs a simplicial subdivision")
    edge_set = set()
    tri_set = set()
    for cell in sub.cells:
        for pair in combinations(cell.vertices, 2):
            edge_set.add(pair)
        for tri in combinations(cell.vertices, 3):
            tri_set.add(tri)
    facets = tuple(
        Facet(vertices=pair, multiplicity=_edge_multiplicity(support, *pair))
        for pair in sorted(edge_set)
    )
    facet_index = {f.vertices: i for i, f in enumerate(facets)}
    ridges = []
    adjacency = set()
    for tri in sorted(tri_set):
        idx = tuple(facet_index[pair] for pair in combinations(tri, 2))
        ridges.append(Ridge(vertices=tri, facets=idx))
        for a, b in combinations(sorted(idx), 2):
            adjacency.add((a, b))
    return TropicalCombinatorics(
        facets=facets, ridges=tuple(ridges), adjacency=tuple(sorted(adjacency))
    )


def multiplicity_gcd(tc: TropicalCombinatorics) -> int:
    g = 0
    for f in tc.facets:
        g = math.gcd(g, f.multiplicity)
    assert g > 0, "a nonempty subdivision has at least one facet"
    return g


def balancing_check(tc: TropicalCombinatorics, support: Support) -> dict:
    """Oriented multiplicity-weighted edge vectors around each ridge sum to zero.

    This always holds, so the decision does not run it: a triangle's three
    oriented edge vectors telescope to zero, and each stored multiplicity
    is the same gcd of the edge vector recomputed here.
    """
    failures = []
    for ridge in tc.ridges:
        u, v, w = ridge.vertices
        total = [0] * support.n
        for s, t in ((u, v), (v, w), (w, u)):
            vec = [a - b for a, b in zip(support.vectors[t], support.vectors[s])]
            mult = tc.facets[_facet_of(tc, s, t)].multiplicity
            g = math.gcd(*vec) if len(vec) > 1 else abs(vec[0])
            if g != mult:
                failures.append(
                    f"ridge {ridge.vertices}: edge ({s},{t}) lattice length {g} != stored {mult}"
                )
                continue
            prim = [x // g for x in vec]
            for k in range(support.n):
                total[k] += mult * prim[k]
        if any(total):
            failures.append(f"ridge {ridge.vertices}: boundary sum {total} is nonzero")
    return {"ok": not failures, "n_ridges": len(tc.ridges), "failures": failures}


def _facet_of(tc: TropicalCombinatorics, s: int, t: int) -> int:
    key = (s, t) if s < t else (t, s)
    for i, f in enumerate(tc.facets):
        if f.vertices == key:
            return i
    raise KeyError(f"no facet on vertices {key}")


def is_ridge_connected(tc: TropicalCombinatorics) -> bool:
    """Whether the facet graph (adjacency through shared ridges) is connected."""
    n = len(tc.facets)
    if n <= 1:
        return True
    neighbors = {i: set() for i in range(n)}
    for a, b in tc.adjacency:
        neighbors[a].add(b)
        neighbors[b].add(a)
    seen = {0}
    stack = [0]
    while stack:
        cur = stack.pop()
        for nxt in neighbors[cur]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == n


#### decision ####


def decide_tropical_irreducibility(
    support: Support,
    seed: int = 0,
    max_retries: int = DEFAULT_MAX_RETRIES,
) -> TropicalCertificate:
    """Characteristic-blind tropical decision with a combinatorial witness.

    Tropically irreducible exactly when the span (affine dimension
    >= 2), content (componentwise minimum zero), and scale (d = 1)
    conditions all hold.  A witness subdivision is built for every
    support with N >= 2 so that the reducible scaled case still
    exhibits its facet-multiplicity gcd.
    """
    gamma_bar = componentwise_min(support)
    dim = affine_dimension(support)
    d = d_gamma(support) if support.N >= 2 else None

    span_ok = dim >= 2
    content_ok = not any(gamma_bar)
    scale_ok = d == 1
    conditions = (
        ConditionCheck("span", span_ok, f"affine dimension {dim} (needs >= 2)"),
        ConditionCheck(
            "content",
            content_ok,
            "componentwise minimum is zero"
            if content_ok
            else f"componentwise minimum {gamma_bar} is a monomial content",
        ),
        ConditionCheck(
            "scale",
            scale_ok,
            f"scale gcd d = {d}" if d is not None else "scale gcd undefined for N = 1",
        ),
    )

    lifting = sub = tc = None
    mult_gcd = connected = None
    if support.N >= 2:
        reduced, _ = reduce_to_span_coordinates(support)
        lifting, sub = _witness(reduced, seed, max_retries)
        tc = combinatorics(sub, reduced)
        wreport = verify_subdivision(reduced, lifting, sub)
        if not wreport["ok"]:
            raise InvariantViolationError(f"witness re-check failed: {wreport['failures'][:3]}")
        mult_gcd = multiplicity_gcd(tc)
        connected = is_ridge_connected(tc)
        if d is not None and mult_gcd != d:
            raise InvariantViolationError(
                f"facet-multiplicity gcd {mult_gcd} differs from scale gcd {d}"
            )

    if span_ok and content_ok and scale_ok:
        if not connected:
            raise InvariantViolationError("ridge graph disconnected on a d = 1 support")
        verdict = TROPICAL_IRREDUCIBLE
    else:
        verdict = TROPICAL_REDUCIBLE

    return TropicalCertificate(
        verdict=verdict,
        conditions=conditions,
        seed=seed,
        multiplicity_gcd=mult_gcd,
        ridge_connected=connected,
        lifting=lifting,
        subdivision=sub,
        combinatorics=tc,
    )

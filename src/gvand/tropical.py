"""Tropical irreducibility via regular subdivisions of the support.

The tropicalization of the determinant is decided combinatorially and
characteristic-blind: the support, in its span coordinates (its first m
coordinates of full affine rank, m the affine dimension), is lifted by
a perturbed paraboloid, the induced regular subdivision is required to
be simplicial, and the dual-hypersurface data is read off the
subdivision: facets are subdivision edges weighted by the lattice
length of the edge vector in the support itself, ridges are
subdivision triangles.  Tropical irreducibility holds exactly when the
span, content, and scale (d = 1) conditions all pass; the witness
exhibits multiplicity gcd d in the reducible scaled case.

Every rational quantity is exact.  The subdivision search runs on
integers: the lifting is scaled to integers by the lcm of its
denominators, each candidate plane is solved fraction-free as integer
numerators over one denominator, and every above/on-plane test is an
integer comparison.  The tests re-check the witnesses the same way;
the decision keeps only cells that pass that re-check by construction.  Fractions are built only for the lifting values
and the witness planes of the cells kept.  Given the same support and
seed the whole construction is deterministic.
"""

import math
import operator
import random
from collections import namedtuple
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
from gvand.linalg import solve_affine
from gvand.reporting import ConditionCheck, frac_str

LIFT_DENOMINATOR = 2**32
EPS_MAX_NUMERATOR = 2**16
MAX_RETRIES = 32

TROPICAL_IRREDUCIBLE = "irreducible"
TROPICAL_REDUCIBLE = "reducible"


class Lifting(namedtuple("Lifting", "values seed attempts")):
    """Exact lifting values per support vector, plus provenance."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "attempts": self.attempts,
            "values": [frac_str(v) for v in self.values],
        }


class Cell(namedtuple("Cell", "vertices normal offset")):
    """One cell of a regular subdivision with its witness plane.

    The witness satisfies normal . point + offset <= lift everywhere,
    with equality exactly on the cell's vertices (0-based indices into
    the support).
    """

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "witness": {
                "normal": [frac_str(x) for x in self.normal],
                "offset": frac_str(self.offset),
            },
        }


class RegularSubdivision(namedtuple("RegularSubdivision", "ambient_dim cells simplicial")):
    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "ambient_dim": self.ambient_dim,
            "simplicial": self.simplicial,
            "cells": [c.to_json() for c in self.cells],
        }


class Facet(namedtuple("Facet", "vertices multiplicity")):
    """Dual facet: a subdivision edge with its lattice-length multiplicity."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {"vertices": list(self.vertices), "multiplicity": self.multiplicity}


class Ridge(namedtuple("Ridge", "vertices facets")):
    """Dual ridge: a subdivision triangle linking its three facets (indices into the facet list)."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {"vertices": list(self.vertices), "facets": list(self.facets)}


class TropicalCombinatorics(namedtuple("TropicalCombinatorics", "facets ridges adjacency")):
    """``adjacency`` holds the pairs of facet indices sharing a ridge."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "facets": [f.to_json() for f in self.facets],
            "ridges": [r.to_json() for r in self.ridges],
            "facet_graph": [list(pair) for pair in self.adjacency],
        }


class TropicalCertificate(
    namedtuple(
        "TropicalCertificate",
        "verdict conditions seed multiplicity_gcd ridge_connected lifting subdivision combinatorics",
    )
):
    """``multiplicity_gcd``, ``ridge_connected`` and the witness fields are
    None when no witness was built (N = 1)."""

    __slots__ = ()

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


def _witness(support: Support, seed: int):
    """Perturbed-paraboloid lifting with a simplicial all-vertex subdivision.

    The unperturbed paraboloid keeps every point on the lower hull, so
    a draw that is non-simplicial or drops a point (possible only in
    near-degenerate configurations) is rejected and redrawn.  Full
    vertex coverage is what makes the facet-multiplicity gcd equal the
    support's scale gcd.
    """
    rng = random.Random(seed)
    for attempt in range(1, MAX_RETRIES + 1):
        eps = [[rng.randint(1, EPS_MAX_NUMERATOR) for _ in range(support.n)] for _ in range(support.N)]
        lifting = Lifting(values=_paraboloid_values(support, eps), seed=seed, attempts=attempt)
        sub = regular_subdivision(support, lifting)
        if sub.simplicial and _covers_all_points(sub, support.N):
            return lifting, sub
    raise PerturbationExhaustedError(
        f"no simplicial all-vertex subdivision within {MAX_RETRIES} perturbation attempts"
    )


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


#### dual combinatorics ####


def _edge_multiplicity(support: Support, u: int, v: int) -> int:
    diff = [a - b for a, b in zip(support.vectors[u], support.vectors[v])]
    return math.gcd(*diff) if len(diff) > 1 else abs(diff[0])


def combinatorics(sub: RegularSubdivision, support: Support) -> TropicalCombinatorics:
    """Dual facets (edges + lattice lengths), ridges (triangles), adjacency.

    The lattice lengths are gcds of edge vectors of ``support``; the
    subdivision may index the same vectors in their span coordinates.
    """
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


def decide_tropical_irreducibility(support: Support, seed: int = 0) -> TropicalCertificate:
    """Characteristic-blind tropical decision with a combinatorial witness.

    Tropically irreducible exactly when the span (affine dimension
    >= 2), content (componentwise minimum zero), and scale (d = 1)
    conditions all hold.  A witness subdivision is built for every
    support with N >= 2 so that the reducible scaled case still
    exhibits its facet-multiplicity gcd.  The subdivision is searched
    in the span coordinates, and its edges, the same vertex pairs, take
    their lattice lengths from the support.
    """
    gamma_bar = componentwise_min(support)
    dim = 0
    d = lifting = sub = tc = mult_gcd = connected = None
    if support.N >= 2:
        # the span coordinates' dimension is the affine rank, computed once.  Every
        # cell regular_subdivision keeps has its plane on the integer lifting, its
        # equality set as its vertices and, as a simplex, the vertices solve_affine
        # found independent, so the tests' re-check of the witness could not fail here
        reduced = reduce_to_span_coordinates(support)
        dim, d = reduced.n, d_gamma(support)
        lifting, sub = _witness(reduced, seed)
        tc = combinatorics(sub, support)
        mult_gcd = multiplicity_gcd(tc)
        connected = is_ridge_connected(tc)
        if mult_gcd != d:
            raise InvariantViolationError(
                f"facet-multiplicity gcd {mult_gcd} differs from scale gcd {d}"
            )

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

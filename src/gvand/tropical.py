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

Every rational quantity is exact, and the decision runs on integers.
The lifting values are integers over LIFT_DENOMINATOR**2, each
candidate plane is solved fraction-free as integer numerators over one
denominator, and every above/on-plane test is an integer comparison.
The decision keeps the cells as vertex tuples with their integer
planes; the tests re-check those witnesses, which pass by construction.
Fractions are built only when a certificate is written: its lifting
and subdivision are made from the integers when they are read.  Given
the same support and seed the whole construction is deterministic.
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
from gvand.exponents import Support, d_gamma, reduce_to_span_coordinates
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
        "verdict conditions seed multiplicity_gcd ridge_connected combinatorics attempts lift hull",
    )
):
    """The witness is held as integers: ``lift`` gives each support vector's
    lifting value times LIFT_DENOMINATOR**2, and ``hull`` the cells as
    (vertices, (nums, den)) pairs, the plane nums . (point, 1) / den in the
    same units.  ``lifting`` and ``subdivision`` are built from them when
    read.  ``multiplicity_gcd``, ``ridge_connected`` and the witness fields
    are None when no witness was built (N = 1)."""

    __slots__ = ()

    @property
    def lifting(self):
        if self.lift is None:
            return None
        values = tuple(Fraction(v, LIFT_DENOMINATOR**2) for v in self.lift)
        return Lifting(values=values, seed=self.seed, attempts=self.attempts)

    @property
    def subdivision(self):
        return None if self.hull is None else _subdivision(self.hull, LIFT_DENOMINATOR**2)

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "seed": self.seed,
            "conditions": [c.to_json() for c in self.conditions],
            "multiplicity_gcd": self.multiplicity_gcd,
            "ridge_connected": self.ridge_connected,
            "lifting": None if self.lift is None else self.lifting.to_json(),
            "subdivision": None if self.hull is None else self.subdivision.to_json(),
            "combinatorics": None if self.combinatorics is None else self.combinatorics.to_json(),
        }


#### lifting and subdivision ####


def _lower_hull(points, lifted) -> tuple:
    """The cells of the lower hull of the integer lifting, sorted.

    Brute-force witness search: every (m+1)-subset of points that spans
    an affine plane lying weakly below all lifted points contributes the
    cell given by the plane's equality set.  A plane solved as
    (nums, den) lies weakly below point t iff
    nums . point + nums[m] <= den * lifted[t].  Returns
    (vertices, (nums, den)) pairs, one per cell with the first plane
    found for it.  Raises DegenerateSupportError when no subset spans a
    plane, which happens exactly when the points are affinely dependent.
    """
    m = len(points[0])
    found = {}
    for subset in combinations(range(len(points)), m + 1):
        plane = solve_affine([points[i] for i in subset], [lifted[i] for i in subset])
        if plane is None:
            continue
        nums, den = plane
        normal, offset = nums[:m], nums[m]
        cell = []
        for t, pt in enumerate(points):
            if t in subset:  # the plane is solved exactly through these
                cell.append(t)
                continue
            val = sum(map(operator.mul, normal, pt)) + offset
            bound = den * lifted[t]
            if val > bound:
                break
            if val == bound:
                cell.append(t)
        else:
            found.setdefault(tuple(cell), plane)
    if not found:
        raise DegenerateSupportError(
            "lifting needs a span-reduced support (affine dimension = ambient dimension)"
        )
    return tuple(sorted(found.items()))


def _is_simplicial(hull) -> bool:
    # a simplex in m coordinates has m + 1 vertices, its plane m + 1 numerators
    return all(len(verts) == len(nums) for verts, (nums, _) in hull)


def _subdivision(hull, scale) -> RegularSubdivision:
    """The subdivision of a hull searched on a lifting scaled to integers by ``scale``."""
    m = len(hull[0][1][0]) - 1  # a plane in m coordinates has m + 1 numerators
    cells = []
    for verts, (nums, den) in hull:
        den *= scale
        cells.append(Cell(verts, tuple(Fraction(a, den) for a in nums[:m]), Fraction(nums[m], den)))
    return RegularSubdivision(ambient_dim=m, cells=tuple(cells), simplicial=_is_simplicial(hull))


def _witness(support: Support, seed: int):
    """(attempts, lift, hull) of a perturbed paraboloid with a simplicial all-vertex subdivision.

    lift[t] = sum_j (x_j * D + e_j)^2 - sum_j (last_j * D)^2 for vector
    t = x, with D = LIFT_DENOMINATOR, e_j = rng.randint(1,
    EPS_MAX_NUMERATOR) drawn vector by vector, and last the support's
    last vector: the paraboloid lifting times D^2.  It keeps every point
    on the lower hull, so a draw that is non-simplicial or drops a point
    (possible only in near-degenerate configurations) is rejected and
    redrawn.  Full vertex coverage is what makes the facet-multiplicity
    gcd equal the support's scale gcd.
    """
    den = LIFT_DENOMINATOR
    points = support.vectors
    base = sum((x * den) ** 2 for x in points[-1])
    rng = random.Random(seed)
    for attempt in range(1, MAX_RETRIES + 1):
        lift = tuple(
            [sum((x * den + rng.randint(1, EPS_MAX_NUMERATOR)) ** 2 for x in v) - base for v in points]
        )
        hull = _lower_hull(points, lift)
        if _is_simplicial(hull) and len({t for verts, _ in hull for t in verts}) == support.N:
            return attempt, lift, hull
    raise PerturbationExhaustedError(
        f"no simplicial all-vertex subdivision within {MAX_RETRIES} perturbation attempts"
    )


def _integer_lift(values):
    """(scale, ints): scale is the lcm of the denominators, ints[t] = values[t] * scale."""
    scale = math.lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def regular_subdivision(support: Support, lifting: Lifting) -> RegularSubdivision:
    """Lower-hull subdivision of the span-reduced support induced by the lifting.

    The search runs on the integer lifting values * scale, with scale
    the lcm of their denominators; each cell's witness plane is that
    scale's integer plane over it.
    """
    assert len(lifting.values) == support.N, "one lifting value per support vector"
    scale, lifted = _integer_lift(lifting.values)
    return _subdivision(_lower_hull(support.vectors, lifted), scale)


#### dual combinatorics ####


def combinatorics(sub: RegularSubdivision, support: Support) -> TropicalCombinatorics:
    """Dual facets (edges + lattice lengths), ridges (triangles), adjacency.

    The lattice lengths are gcds of edge vectors of ``support``; the
    subdivision may index the same vectors in their span coordinates.
    """
    if not sub.simplicial:
        raise NotSimplicialError("dual combinatorics needs a simplicial subdivision")
    return _dual(tuple(c.vertices for c in sub.cells), support)


def _dual(cells, support: Support) -> TropicalCombinatorics:
    """The dual combinatorics of a simplicial subdivision given by its cells' sorted vertex tuples."""
    vectors = support.vectors
    edges = sorted({pair for verts in cells for pair in combinations(verts, 2)})
    index = {pair: i for i, pair in enumerate(edges)}
    ridges = []
    adjacency = set()
    for tri in sorted({tri for verts in cells for tri in combinations(verts, 3)}):
        a, b, c = tri
        # edges sort lexicographically and a < b < c, so ab < ac < bc
        ab, ac, bc = index[a, b], index[a, c], index[b, c]
        ridges.append(Ridge(tri, (ab, ac, bc)))
        adjacency.update(((ab, ac), (ab, bc), (ac, bc)))
    facets = tuple(Facet((u, v), math.gcd(*map(operator.sub, vectors[u], vectors[v]))) for u, v in edges)
    return TropicalCombinatorics(
        facets=facets, ridges=tuple(ridges), adjacency=tuple(sorted(adjacency))
    )


def multiplicity_gcd(tc: TropicalCombinatorics) -> int:
    g = math.gcd(*(f.multiplicity for f in tc.facets))
    assert g > 0, "a nonempty subdivision has at least one facet"
    return g


def is_ridge_connected(tc: TropicalCombinatorics) -> bool:
    """Whether the facet graph (adjacency through shared ridges) is connected."""
    neighbors = [[] for _ in tc.facets]
    for a, b in tc.adjacency:
        neighbors[a].append(b)
        neighbors[b].append(a)
    stack = [0] if neighbors else []
    seen = set(stack)
    while stack:
        for nxt in neighbors[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == len(neighbors)


#### decision ####


def decide_tropical_irreducibility(support: Support, seed: int = 0) -> TropicalCertificate:
    """Characteristic-blind tropical decision with a combinatorial witness.

    Tropically irreducible exactly when the span (affine dimension
    >= 2), content (componentwise minimum zero), and scale (d = 1)
    conditions all hold.  A witness subdivision is built for every
    support with N >= 2 so that the reducible scaled case still
    exhibits its facet-multiplicity gcd.  The subdivision is searched
    in the span coordinates, and its edges, the same vertex pairs, take
    their lattice lengths from the support.  The content is read off the
    vectors and the scale off the witness, so neither shares a helper
    with irreducibility.decide; the witness's gcd must equal d_gamma.
    """
    gamma_bar = tuple(map(min, zip(*support.vectors)))
    dim = 0
    tc = mult_gcd = connected = attempts = lift = hull = None
    if support.N >= 2:
        # the span coordinates have full affine rank, so every attempt's hull is
        # nonempty.  Every cell _lower_hull keeps has its plane on the integer lifting,
        # its equality set as its vertices and, as a simplex, the vertices solve_affine
        # found independent, so the tests' re-check of the witness could not fail here
        reduced = reduce_to_span_coordinates(support)
        dim = reduced.n
        attempts, lift, hull = _witness(reduced, seed)
        tc = _dual([verts for verts, _ in hull], support)
        mult_gcd = multiplicity_gcd(tc)
        connected = is_ridge_connected(tc)
        d = d_gamma(support)
        if mult_gcd != d:
            raise InvariantViolationError(
                f"facet-multiplicity gcd {mult_gcd} differs from scale gcd {d}"
            )

    span_ok = dim >= 2
    content_ok = not any(gamma_bar)
    scale_ok = mult_gcd == 1
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
            f"scale gcd d = {mult_gcd}" if mult_gcd is not None else "scale gcd undefined for N = 1",
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
        combinatorics=tc,
        attempts=attempts,
        lift=lift,
        hull=hull,
    )

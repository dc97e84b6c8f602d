"""Sparse multivariate polynomials over the integers or a prime field.

A polynomial stores its terms as a dict from exponent vector (a tuple
of non-negative ints, one slot per ring variable) to a nonzero
coefficient.  The canonical term order is graded lexicographic: total
degree first, ties broken by the exponent vector with earlier variables
weighing more.  Variable order is positional in the ring's variable
tuple, never alphabetical.
"""

import heapq
from fractions import Fraction
from itertools import compress
from operator import add, sub

from gvand import kernels
from gvand.errors import (
    MissingAssignmentError,
    NegativeExponentError,
    NoRootError,
    RingMismatchError,
    ZeroPolynomialError,
)
from gvand.rings import ZZ, CoefficientRing


def graded_lex_key(exp):
    return (sum(exp), exp)


class PolyRing:
    """A coefficient ring together with an ordered tuple of variable names."""

    __slots__ = ("coeff_ring", "variables", "_index")

    def __init__(self, coeff_ring: CoefficientRing, variables):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError("variable names must be distinct")
        if not all(isinstance(v, str) and v for v in variables):
            raise ValueError("variable names must be nonempty strings")
        object.__setattr__(self, "coeff_ring", coeff_ring)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "_index", {v: i for i, v in enumerate(variables)})

    def __setattr__(self, name, value):
        raise AttributeError("PolyRing is immutable")

    @property
    def characteristic(self) -> int:
        return self.coeff_ring.characteristic

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def var_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise RingMismatchError(f"unknown variable {name!r}") from None

    def zero(self) -> "SparsePoly":
        return SparsePoly(self, {})

    def one(self) -> "SparsePoly":
        return self.constant(1)

    def constant(self, c: int) -> "SparsePoly":
        c = self.coeff_ring.normalize(c)
        if c == 0:
            return self.zero()
        return SparsePoly(self, {(0,) * self.nvars: c}, _canonical=True)

    def monomial(self, exponents, coeff: int = 1) -> "SparsePoly":
        exponents = tuple(int(e) for e in exponents)
        if len(exponents) != self.nvars:
            raise RingMismatchError("exponent vector length does not match ring")
        if any(e < 0 for e in exponents):
            raise NegativeExponentError(f"negative exponent in {exponents}")
        coeff = self.coeff_ring.normalize(coeff)
        if coeff == 0:
            return self.zero()
        return SparsePoly(self, {exponents: coeff}, _canonical=True)

    def variable(self, name: str) -> "SparsePoly":
        exps = [0] * self.nvars
        exps[self.var_index(name)] = 1
        return self.monomial(exps)

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.coeff_ring == other.coeff_ring
            and self.variables == other.variables
        )

    def __hash__(self):
        return hash((self.coeff_ring, self.variables))

    def __repr__(self):
        return f"PolyRing({self.coeff_ring}, {list(self.variables)})"


def grid_var(i: int, j: int) -> str:
    """Name of the grid variable in row i, coordinate j (both 1-based)."""
    return f"X_{i}_{j}"


def grid_ring(coeff_ring: CoefficientRing, n_rows: int, n_cols: int) -> PolyRing:
    """Ring in the row-major grid variables X_1_1 .. X_nrows_ncols."""
    names = [grid_var(i, j) for i in range(1, n_rows + 1) for j in range(1, n_cols + 1)]
    return PolyRing(coeff_ring, names)


class SparsePoly:
    __slots__ = ("ring", "_terms")

    def __init__(self, ring: PolyRing, terms, _canonical: bool = False):
        if not _canonical:
            clean = {}
            for exp, c in terms.items():
                c = ring.coeff_ring.normalize(c)
                if c:
                    clean[tuple(exp)] = c
            terms = clean
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError("SparsePoly is immutable")

    #### basic structure ####

    def is_zero(self) -> bool:
        return not self._terms

    @property
    def n_terms(self) -> int:
        return len(self._terms)

    def _ordered_exponents(self) -> list:
        """Exponent vectors in graded-lex order, leading first.

        Two C-level sorts: by vector, then stably by total degree (sort
        stays stable under reverse=True), so ties in degree keep the
        descending vector order.
        """
        exps = sorted(self._terms, reverse=True)
        exps.sort(key=sum, reverse=True)
        return exps

    def terms(self):
        """Terms as (exponent vector, coeff), leading term first."""
        terms = self._terms
        return [(e, terms[e]) for e in self._ordered_exponents()]

    def term_map(self) -> dict:
        """Copy of the raw exponent -> coefficient dict."""
        return dict(self._terms)

    def total_degree(self) -> int:
        if not self._terms:
            raise ZeroPolynomialError("the zero polynomial has no degree")
        return max(sum(e) for e in self._terms)

    def _used_positions(self) -> list:
        """Positions of the variables with a positive exponent somewhere."""
        return [k for k, column in enumerate(zip(*self._terms)) if any(column)]

    def _check_ring(self, other):
        if self.ring != other.ring:
            raise RingMismatchError(f"rings differ: {self.ring!r} vs {other.ring!r}")

    #### arithmetic ####

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        self._check_ring(other)
        char = self.ring.characteristic
        return SparsePoly(self.ring, kernels.add_terms(self._terms, other._terms, char), _canonical=True)

    __radd__ = __add__

    def __neg__(self):
        char = self.ring.characteristic
        if char:
            return SparsePoly(self.ring, {e: (char - c) % char for e, c in self._terms.items()}, _canonical=True)
        return SparsePoly(self.ring, {e: -c for e, c in self._terms.items()}, _canonical=True)

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        self._check_ring(other)
        char = self.ring.characteristic
        return SparsePoly(self.ring, kernels.mul_terms(self._terms, other._terms, char), _canonical=True)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers need a non-negative integer")
        result = self.ring.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.ring == other.ring and self._terms == other._terms

    __hash__ = None

    #### divisibility ####

    def exact_divide(self, den: "SparsePoly"):
        """Quotient self / den when den divides exactly, else None.

        Divides by trailing terms: the graded-lex order is multiplicative,
        so the smallest remainder term over den's smallest term is the
        next quotient term.  A min-heap of (degree, exponent) entries that
        share the remainder's key tuples yields that term; entries whose
        key has since cancelled are skipped.  Quotient terms come in
        ascending order, so one whose degree exceeds
        deg(self) - deg(den) proves that den does not divide.
        """
        self._check_ring(den)
        if den.is_zero():
            raise ZeroDivisionError("exact_divide by the zero polynomial")
        if self.is_zero():
            return self.ring.zero()
        ring = self.ring
        coeff_ring = ring.coeff_ring
        char = ring.characteristic
        den_terms = den._terms
        den_exp = min(den_terms, key=graded_lex_key)
        den_coeff = den_terms[den_exp]
        den_low = sum(den_exp)
        max_degree = self.total_degree() - den.total_degree()
        rem = dict(self._terms)
        heap = [(sum(e), e) for e in rem]
        heapq.heapify(heap)
        quot = {}
        while rem:
            degree, r_exp = heapq.heappop(heap)
            r_coeff = rem.get(r_exp)
            if r_coeff is None:
                continue
            diff = tuple(map(sub, r_exp, den_exp))
            if degree - den_low > max_degree or any(d < 0 for d in diff):
                return None
            q = coeff_ring.divide_exact(r_coeff, den_coeff)
            if q is None:
                return None
            quot[diff] = q
            neg_q = -q
            for exp, c in den_terms.items():
                key = tuple(map(add, diff, exp))
                old = rem.get(key)
                val = (0 if old is None else old) + neg_q * c
                if char:
                    val %= char
                if val:
                    rem[key] = val
                    if old is None:
                        heapq.heappush(heap, (sum(key), key))
                elif old is not None:
                    del rem[key]
        return SparsePoly(ring, quot, _canonical=True)

    def frobenius_root(self, e: int = 1) -> "SparsePoly":
        """The p^e-th root under the Frobenius, over a prime field.

        Exists iff every exponent is divisible by q = p^e; coefficients
        carry over unchanged since c^q = c on GF(p).
        """
        p = self.ring.characteristic
        if p == 0:
            raise RingMismatchError("frobenius_root needs a prime-field ring")
        if e < 1:
            raise ValueError("root order must be >= 1")
        q = p**e
        out = {}
        for exp, c in self._terms.items():
            if any(x % q for x in exp):
                raise NoRootError(f"exponent vector {exp} is not divisible by {q}")
            out[tuple(x // q for x in exp)] = c
        return SparsePoly(self.ring, out, _canonical=True)

    #### evaluation ####

    def evaluate(self, assignment):
        """Value at a point; keys are variable names.

        Over the integers values may be ints or Fractions.  Over GF(p)
        values are reduced mod p (Fractions via modular inverse of the
        denominator).
        """
        names = self.ring.variables
        used = self._used_positions()
        missing = {names[k] for k in used} - set(assignment)
        if missing:
            raise MissingAssignmentError(f"no value for {sorted(missing)}")
        char = self.ring.characteristic
        point = {}
        for k in used:
            val = assignment[names[k]]
            if char:
                if isinstance(val, Fraction):
                    val = val.numerator * self.ring.coeff_ring.invert(val.denominator)
                point[k] = val % char
            else:
                point[k] = val
        total = 0
        for exp, c in self._terms.items():
            term = c
            for k in used:
                e = exp[k]
                if e:
                    term *= point[k] ** e
            total += term
        if char:
            total %= char
        return total

    #### serialization and display ####

    def to_terms_json(self) -> list:
        """Terms as JSON data, leading term first.

        Each entry is {"coeff": "<signed int>", "monomial": {var: exp}}
        with zero exponents omitted and monomial keys in variable order.
        """
        names = self.ring.variables
        terms = self._terms
        return [
            {"coeff": str(terms[exp]), "monomial": dict(compress(zip(names, exp), exp))}
            for exp in self._ordered_exponents()
        ]

    def __repr__(self):
        if not self._terms:
            return "0"
        names = self.ring.variables
        parts = []
        for exp, c in self.terms():
            factors = []
            for k, e in enumerate(exp):
                if e == 1:
                    factors.append(names[k])
                elif e:
                    factors.append(f"{names[k]}^{e}")
            body = "*".join(factors)
            if not body:
                chunk = str(c)
            elif c == 1:
                chunk = body
            elif c == -1:
                chunk = f"-{body}"
            else:
                chunk = f"{c}*{body}"
            parts.append(chunk)
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

"""Hecke algebra of a Coxeter system over Z[v, v^-1].

Two bases are carried: the natural basis T_x and its rescaling
Tt_x = v^(l(x)) T_x.  Right multiplication by a generator:

    T_x  T_s  = T_xs                               if l(xs) > l(x)
    T_x  T_s  = v^-2 T_xs + (v^-2 - 1) T_x         otherwise
    Tt_x Tt_s = Tt_xs                              if l(xs) > l(x)
    Tt_x Tt_s = Tt_xs + (v^-1 - v) Tt_x            otherwise

The duality d is the ring involution with d(v) = v^-1 and
d(T_x) = (T_{x^-1})^-1, where T_s^-1 = v^2 T_s + (v^2 - 1).

The self-dual basis element C_x = sum_y h_y Tt_y is the unique d-fixed
element with h_x = 1 and h_y in v Z[v] for y < x.  Two independent
routes compute it:

  kl_basis    the product recursion: multiply C_xs by C_s = Tt_s + v and
              subtract the constant terms of the lower coefficients;
  kl_oracle   solve d(C) = C directly on the interval below x, using only
              the bar matrix of the Tt basis.  The walk goes down the
              interval by length; each h_y is settled from the defect
              accumulated so far, then d(h_y) times the column d(Tt_y) is
              pushed into the defects of the elements below y.  The cost
              is the total support of the d(Tt_y), not |[e, x]|^2.

The two routes share nothing but the element containers, so agreement is
a genuine cross-check.  The classical polynomial normalization is
recovered by P_{y,x}(v^-2) = v^(l(y)-l(x)) h_{y,x}(v).
"""

from __future__ import annotations

from collections import defaultdict

from .coxeter import (
    Element,
    bruhat_interval,
    bruhat_leq,
    multiply,
    right_descents,
    sort_key,
)
from .errors import InconsistencyError, InputError
from .laurent import LaurentPoly

__all__ = ["BASIS_T", "BASIS_TT", "HeckeElt", "HeckeAlgebra"]

BASIS_T = "T"
BASIS_TT = "Tt"

_V = LaurentPoly({1: 1})
_VINV = LaurentPoly({-1: 1})


class HeckeElt:
    """Finite Z[v,v^-1]-combination of basis elements, tagged by basis."""

    __slots__ = ("basis", "coeffs")

    def __init__(self, basis, coeffs=None):
        if basis not in (BASIS_T, BASIS_TT):
            raise InputError(f"unknown basis tag {basis!r}")
        self.basis = basis
        self.coeffs = {x: c for x, c in (coeffs or {}).items() if c}

    def convert(self, basis):
        """Change basis using Tt_x = v^(l(x)) T_x."""
        if basis == self.basis:
            return self
        sign = -1 if basis == BASIS_TT else 1
        return HeckeElt(
            basis,
            {x: c.shift(sign * x.length) for x, c in self.coeffs.items()},
        )

    def coeff(self, x, basis=None):
        if basis is not None and basis != self.basis:
            return self.convert(basis).coeff(x)
        return self.coeffs.get(x, LaurentPoly.zero())

    @property
    def support(self):
        return set(self.coeffs)

    def __add__(self, other):
        other = other.convert(self.basis)
        out = dict(self.coeffs)
        for x, c in other.coeffs.items():
            nv = out.get(x, LaurentPoly.zero()) + c
            if nv:
                out[x] = nv
            else:
                out.pop(x, None)
        return HeckeElt(self.basis, out)

    def __neg__(self):
        return HeckeElt(self.basis, {x: -c for x, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, poly):
        """Multiply by a scalar Laurent polynomial (or int)."""
        if isinstance(poly, int):
            poly = LaurentPoly({0: poly})
        return HeckeElt(self.basis, {x: c * poly for x, c in self.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, HeckeElt):
            return NotImplemented
        return self.coeffs == other.convert(self.basis).coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def to_json(self):
        return {
            "basis": self.basis,
            "terms": [
                {"word": str(x), "coeff": c.to_json()}
                for x, c in sorted(self.coeffs.items(), key=lambda t: sort_key(t[0]))
            ],
        }

    def format(self):
        if not self.coeffs:
            return "0"
        parts = []
        for x in sorted(self.coeffs, key=sort_key):
            c = self.coeffs[x]
            body = c.format()
            if "+" in body or "-" in body[1:]:
                body = f"({body})"
            parts.append(f"{body}*{self.basis}({x})")
        return " + ".join(parts)

    def __str__(self):
        return self.format()

    __repr__ = __str__


class HeckeAlgebra:
    """Operations and per-session memo tables for one Coxeter system."""

    def __init__(self, system):
        self.system = system
        self._kl = {}
        self._bar_tt = {}
        self._inv_T = {}
        # products C_xs * C_s recorded by kl_basis, keyed by x
        self.kl_products = {}

    # -- element constructors ------------------------------------------

    def T(self, x: Element, coeff=None):
        return HeckeElt(BASIS_T, {x: coeff or LaurentPoly.one()})

    def Tt(self, x: Element, coeff=None):
        return HeckeElt(BASIS_TT, {x: coeff or LaurentPoly.one()})

    def one(self):
        return self.Tt(self.system.identity)

    # -- multiplication --------------------------------------------------

    def _mult_gen_tt(self, a: HeckeElt, s: int):
        out = {}
        gen = self.system.generators[s]
        vdiff = _VINV - _V
        for x, c in a.coeffs.items():
            xs = multiply(x, gen)
            out[xs] = out.get(xs, LaurentPoly.zero()) + c
            if xs.length < x.length:
                out[x] = out.get(x, LaurentPoly.zero()) + c * vdiff
        return HeckeElt(BASIS_TT, {x: c for x, c in out.items() if c})

    def _mult_gen_t(self, a: HeckeElt, s: int):
        out = {}
        gen = self.system.generators[s]
        v2inv = LaurentPoly({-2: 1})
        v2inv_m1 = v2inv - 1
        for x, c in a.coeffs.items():
            xs = multiply(x, gen)
            if xs.length > x.length:
                out[xs] = out.get(xs, LaurentPoly.zero()) + c
            else:
                out[xs] = out.get(xs, LaurentPoly.zero()) + c * v2inv
                out[x] = out.get(x, LaurentPoly.zero()) + c * v2inv_m1
        return HeckeElt(BASIS_T, {x: c for x, c in out.items() if c})

    def mult(self, a: HeckeElt, b: HeckeElt) -> HeckeElt:
        """Product, computed in the Tt basis along reduced words of b."""
        basis = a.basis
        a = a.convert(BASIS_TT)
        b = b.convert(BASIS_TT)
        total = HeckeElt(BASIS_TT)
        for y, c in b.coeffs.items():
            term = a
            for s in y.word:
                term = self._mult_gen_tt(term, s)
            total = total + term.scale(c)
        return total.convert(basis)

    # -- duality -----------------------------------------------------------

    def _inverse_T(self, x: Element) -> HeckeElt:
        """(T_{x^-1})^-1 in the T basis, memoized along prefixes of x."""
        cached = self._inv_T.get(x)
        if cached is not None:
            return cached
        if x.length == 0:
            out = self.T(x)
        else:
            # With s the last letter of word(x), T_{x^-1}^-1 is
            # T_{(xs)^-1}^-1 T_s^-1, and h -> h T_s^-1 = v^2 (h T_s) +
            # (v^2 - 1) h.  ShortLex words are prefix-closed, so xs has the
            # word x.word[:-1] and this is one step from that prefix.
            s = x.word[-1]
            prev = self._inverse_T(multiply(x, self.system.generators[s]))
            v2 = LaurentPoly({2: 1})
            out = self._mult_gen_t(prev, s).scale(v2) + prev.scale(v2 - 1)
        self._inv_T[x] = out
        return out

    def bar(self, a: HeckeElt) -> HeckeElt:
        """The duality d: v -> v^-1, T_x -> (T_{x^-1})^-1."""
        basis = a.basis
        a = a.convert(BASIS_T)
        total = HeckeElt(BASIS_T)
        for x, c in a.coeffs.items():
            total = total + self._inverse_T(x).scale(c.bar())
        return total.convert(basis)

    def bar_tt(self, x: Element) -> HeckeElt:
        """d(Tt_x) in the Tt basis, memoized (unitriangular with 1 at x)."""
        cached = self._bar_tt.get(x)
        if cached is None:
            cached = self.bar(self.Tt(x))
            if cached.coeff(x) != LaurentPoly.one():
                raise InconsistencyError(f"d(Tt_{x}) is not unitriangular")
            self._bar_tt[x] = cached
        return cached

    # -- self-dual basis, route 1: product recursion -----------------------

    def kl_basis(self, x: Element) -> HeckeElt:
        cached = self._kl.get(x)
        if cached is not None:
            return cached
        if x.length == 0:
            out = self.Tt(x)
        elif x.length == 1:
            out = self.Tt(x) + self.Tt(self.system.identity, _V)
        else:
            s = min(right_descents(x))
            xs = multiply(x, self.system.generators[s])
            prod = self.mult(self.kl_basis(xs), self.kl_basis(self.system.generators[s]))
            if prod.coeff(x) != LaurentPoly.one():
                raise InconsistencyError(
                    f"product coefficient at {x} is {prod.coeff(x)}, expected 1"
                )
            self.kl_products[x] = (s, prod)
            out = prod
            for y, c in prod.coeffs.items():
                if y == x:
                    continue
                if not c.is_polynomial():
                    raise InconsistencyError(
                        f"product coefficient h at {y} not in Z[v]: {c}"
                    )
                if not bruhat_leq(y, x):
                    raise InconsistencyError(f"product support {y} not below {x}")
                c0 = c.constant_term
                if c0:
                    out = out - self.kl_basis(y).scale(c0)
        for y, c in out.coeffs.items():
            if y != x and not c.is_v_times_polynomial():
                raise InconsistencyError(f"coefficient at {y} not in vZ[v]: {c}")
        self._kl[x] = out
        return out

    # -- self-dual basis, route 2: duality solve ---------------------------

    def kl_oracle(self, x: Element) -> HeckeElt:
        """Solve d(C) = C on [e, x] without the product recursion.

        Writing C = sum h_y Tt_y and d(Tt_y) = sum_z r_{z,y} Tt_z, the fixed
        point condition at z reads h_z - d(h_z) = g_z, where the defect g_z
        is sum_{y > z} d(h_y) r_{z,y}.  The walk goes down the interval,
        which is sorted by length.  Each y is settled from its defect,
        which by then holds the pushes of every y' above it: g_y must be
        skew under bar with zero constant term, and h_y is its
        positive-exponent part (uniquely, given h_y in v Z[v] for y < x).
        Then d(h_y) r_{z,y} is pushed into the defect of each z below y
        in the support of d(Tt_y), so the cost is the sum of those
        supports rather than |[e, x]|^2.  A term of d(Tt_y) at an element
        already settled, or outside [e, x], cannot be pushed and raises.
        """
        h = {}
        # defects {z: {exponent: coefficient}} pushed from settled elements
        defect = {}
        for y in reversed(bruhat_interval(x)):
            g = LaurentPoly(defect.pop(y, None))
            if y == x:
                hy = LaurentPoly.one()
            elif g + g.bar() != LaurentPoly.zero() or g.constant_term:
                raise InconsistencyError(
                    f"duality defect at {y} is not skew: {g}; no self-dual "
                    "solution exists"
                )
            else:
                hy = g.positive_part()
            h[y] = hy
            if not hy:
                continue
            dh = hy.bar().c.items()
            for z, r in self.bar_tt(y).coeffs.items():
                if z is y:
                    continue
                acc = defect.get(z)
                if acc is None:
                    if z in h:
                        raise InconsistencyError(
                            f"d(Tt_{y}) has a term at {z}, which is settled"
                        )
                    acc = defect[z] = defaultdict(int)
                for e2, c2 in r.c.items():
                    for e1, c1 in dh:
                        acc[e1 + e2] += c1 * c2
        if defect:
            z = next(iter(defect))
            raise InconsistencyError(f"a d(Tt_y) term at {z} lies outside [e, {x}]")
        return HeckeElt(BASIS_TT, h)

    # -- classical polynomial normalization -------------------------------

    def kl_polynomial(self, y: Element, x: Element) -> LaurentPoly:
        """P_{y,x} as a polynomial in q, via P(v^-2) = v^(l(y)-l(x)) h_{y,x}."""
        if not bruhat_leq(y, x):
            return LaurentPoly.zero()
        h = self.kl_basis(x).coeff(y)
        shifted = h.shift(y.length - x.length)
        out = {}
        for e, c in shifted.c.items():
            if e > 0 or e % 2:
                raise InconsistencyError(
                    f"h_({y},{x}) = {h} does not normalize to a polynomial in q"
                )
            out[-e // 2] = c
        return LaurentPoly(out)

    # -- expansion in the self-dual basis ----------------------------------

    def expand_kl(self, a: HeckeElt):
        """Coefficients of a in the self-dual basis (downward elimination)."""
        rem = a.convert(BASIS_TT)
        out = {}
        while rem:
            y = max(rem.coeffs, key=sort_key)
            c = rem.coeff(y)
            out[y] = c
            rem = rem - self.kl_basis(y).scale(c)
        return out

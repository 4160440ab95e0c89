"""Hecke algebra of a Coxeter system over Z[v, v^-1].

Two bases are carried: the natural basis T_x and its rescaling
Tt_x = v^(l(x)) T_x.  Right multiplication by a generator:

    T_x  T_s  = T_xs                               if l(xs) > l(x)
    T_x  T_s  = v^-2 T_xs + (v^-2 - 1) T_x         otherwise
    Tt_x Tt_s = Tt_xs                              if l(xs) > l(x)
    Tt_x Tt_s = Tt_xs + (v^-1 - v) Tt_x            otherwise

The duality d is the ring involution with d(v) = v^-1 and
d(T_x) = (T_{x^-1})^-1, where T_s^-1 = v^2 T_s + (v^2 - 1).  Its values
on the Tt basis are memoized once per element, each one step from the
value at the word's prefix (see `HeckeAlgebra.bar_tt`).

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

Inner loops add into integer accumulators {element: {exponent: coeff}}
and build one HeckeElt at the end; a power of v is an exponent shift.

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

# exponent dicts of the factors in the one-letter steps
_ONE = {0: 1}
_V_MINUS_VINV = {1: 1, -1: -1}
_VINV_MINUS_V = {-1: 1, 1: -1}


def _add_into(acc, x, p, q, shift=0):
    """acc[x] += v^shift p q, for exponent dicts p and q."""
    tgt = acc.get(x)
    if tgt is None:
        tgt = acc[x] = defaultdict(int)
    for e2, c2 in q.items():
        e2 += shift
        for e1, c1 in p.items():
            tgt[e1 + e2] += c1 * c2


def _elt(basis, acc):
    """The HeckeElt of an accumulator {x: {exponent: coefficient}}."""
    return HeckeElt(basis, {x: LaurentPoly(t) for x, t in acc.items()})


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

    def coeff(self, x):
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
        self._bar_tt = {system.identity: self.one()}
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

    def _mult_gen_tt(self, terms, s: int):
        """terms * Tt_s, for an accumulator terms in the Tt basis."""
        gen = self.system.generators[s]
        out = {}
        for x, r in terms.items():
            xs = multiply(x, gen)
            _add_into(out, xs, r, _ONE)
            if xs.length < x.length:
                _add_into(out, x, r, _VINV_MINUS_V)
        return out

    def _mult_acc(self, a: HeckeElt, b: HeckeElt):
        """a b in the Tt basis, as one accumulator."""
        acc = {}
        start = {x: c.c for x, c in a.convert(BASIS_TT).coeffs.items()}
        for y, c in b.convert(BASIS_TT).coeffs.items():
            term = start
            for s in y.word:
                term = self._mult_gen_tt(term, s)
            for x, r in term.items():
                _add_into(acc, x, r, c.c)
        return acc

    def mult(self, a: HeckeElt, b: HeckeElt) -> HeckeElt:
        """Product, computed in the Tt basis along reduced words of b."""
        return _elt(BASIS_TT, self._mult_acc(a, b)).convert(a.basis)

    # -- duality -----------------------------------------------------------

    def bar(self, a: HeckeElt) -> HeckeElt:
        """The duality d: v -> v^-1, T_x -> (T_{x^-1})^-1.

        Each term c X_x adds d(c) d(X_x) into one accumulator.  In the Tt
        basis d(Tt_x) is `bar_tt(x)`; in the T basis (T_{x^-1})^-1 =
        d(T_x) = v^l(x) d(Tt_x), whose term r Tt_z is v^(l(x)+l(z)) r T_z.
        """
        in_t = a.basis == BASIS_T
        acc = {}
        for x, c in a.coeffs.items():
            cbar = c.bar().c
            for z, r in self.bar_tt(x).coeffs.items():
                shift = x.length + z.length if in_t else 0
                _add_into(acc, z, r.c, cbar, shift)
        return _elt(a.basis, acc)

    def bar_tt(self, x: Element) -> HeckeElt:
        """d(Tt_x) in the Tt basis, memoized (unitriangular with 1 at x).

        With s the last letter of x's ShortLex word, x = zs with z shorter
        and z's word the prefix, so (T_{x^-1})^-1 = (T_{z^-1})^-1 T_s^-1
        and d(Tt_x) = v^-1 d(Tt_z) T_s^-1.  From T_s^-1 = v^2 T_s +
        (v^2 - 1) and the multiplication rule,

            T_y T_s^-1 = T_ys                          if l(ys) < l(y)
            T_y T_s^-1 = v^2 T_ys + (v^2 - 1) T_y      otherwise,

        so in Tt coordinates a term r Tt_y of d(Tt_z) goes to r Tt_ys,
        plus (v - v^-1) r Tt_y when l(ys) > l(y).  The memo is filled
        along the prefixes of x, one such step each; it calls no product.
        """
        memo = self._bar_tt
        cached = memo.get(x)
        if cached is not None:
            return cached
        gens = self.system.generators
        chain = []
        while x not in memo:
            chain.append(x)
            x = multiply(x, gens[x.word[-1]])
        prev = memo[x]
        for x in reversed(chain):
            gen = gens[x.word[-1]]
            acc = {}
            for y, r in prev.coeffs.items():
                ys = multiply(y, gen)
                _add_into(acc, ys, r.c, _ONE)
                if ys.length > y.length:
                    _add_into(acc, y, r.c, _V_MINUS_VINV)
            prev = _elt(BASIS_TT, acc)
            if prev.coeff(x) != LaurentPoly.one():
                raise InconsistencyError(f"d(Tt_{x}) is not unitriangular")
            memo[x] = prev
        return prev

    # -- self-dual basis, route 1: product recursion -----------------------

    def kl_basis(self, x: Element) -> HeckeElt:
        """C_x by the product recursion C_xs C_s = C_x + sum_y c_y C_y.

        The product C_xs C_s comes from `mult`'s accumulator, and each
        c_y C_y (c_y the constant term at y < x) is subtracted from that
        same accumulator.  No duality is used.
        """
        cached = self._kl.get(x)
        if cached is not None:
            return cached
        if x.length == 0:
            out = self.Tt(x)
        elif x.length == 1:
            out = self.Tt(x) + self.Tt(self.system.identity, LaurentPoly.v())
        else:
            s = min(right_descents(x))
            gen = self.system.generators[s]
            acc = self._mult_acc(self.kl_basis(multiply(x, gen)), self.kl_basis(gen))
            prod = _elt(BASIS_TT, acc)
            if prod.coeff(x) != LaurentPoly.one():
                raise InconsistencyError(
                    f"product coefficient at {x} is {prod.coeff(x)}, expected 1"
                )
            self.kl_products[x] = (s, prod)
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
                    for z, r in self.kl_basis(y).coeffs.items():
                        _add_into(acc, z, r.c, {0: -c0})
            out = _elt(BASIS_TT, acc)
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
                for e1, c1 in dh:
                    for e2, c2 in r.c.items():
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

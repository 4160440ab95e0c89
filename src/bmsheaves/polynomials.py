"""Multivariate polynomials over the rationals, graded with deg(x_i) = 2.

Monomials are exponent tuples ordered degree first, then lexicographically
descending within a degree (so for two variables and polynomial degree 2:
x0^2 > x0 x1 > x1^2).  Coefficients are exact rationals (ints are allowed
and mix freely).  Only the operations the structure-algebra layer needs
are implemented: ring arithmetic, evaluation-free exact division by a
linear form, and reduction modulo a linear form by eliminating its pivot
variable (the lowest-index variable with nonzero coefficient).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError

__all__ = ["Poly", "linear_form", "monomials_of_degree"]


def _unit(nvars):
    return (0,) * nvars


class Poly:
    """Polynomial as a {exponent tuple: coefficient} dict."""

    __slots__ = ("nvars", "c")

    def __init__(self, nvars, coeffs=None):
        self.nvars = nvars
        self.c = {m: co for m, co in (coeffs or {}).items() if co}

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def constant(cls, nvars, value):
        return cls(nvars, {_unit(nvars): value})

    @classmethod
    def variable(cls, nvars, i):
        m = [0] * nvars
        m[i] = 1
        return cls(nvars, {tuple(m): 1})

    def __add__(self, other):
        out = dict(self.c)
        for m, co in other.c.items():
            nv = out.get(m, 0) + co
            if nv:
                out[m] = nv
            else:
                del out[m]
        p = Poly.__new__(Poly)
        p.nvars, p.c = self.nvars, out
        return p

    def __neg__(self):
        p = Poly.__new__(Poly)
        p.nvars = self.nvars
        p.c = {m: -co for m, co in self.c.items()}
        return p

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Poly(self.nvars)
            p = Poly.__new__(Poly)
            p.nvars = self.nvars
            p.c = {m: co * other for m, co in self.c.items()}
            return p
        out = {}
        for m1, c1 in self.c.items():
            for m2, c2 in other.c.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                nv = out.get(m, 0) + c1 * c2
                if nv:
                    out[m] = nv
                else:
                    del out[m]
        p = Poly.__new__(Poly)
        p.nvars, p.c = self.nvars, out
        return p

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            return self.c == ({_unit(self.nvars): other} if other else {})
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.c == other.c

    def __bool__(self):
        return bool(self.c)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.c.items())))

    def divmod_linear(self, alpha):
        """Divide by the linear form alpha (coefficient vector).

        Returns (quotient, remainder) with remainder free of the pivot
        variable of alpha; exact rational long division in that variable.
        """
        pivot = next((i for i, a in enumerate(alpha) if a), None)
        if pivot is None:
            raise InputError("division by the zero linear form")
        lead = Fraction(1, alpha[pivot])
        quot = {}
        rem = dict(self.c)
        while True:
            cand = None
            for m in rem:
                if m[pivot] > 0 and (cand is None or m[pivot] > cand[pivot]):
                    cand = m
            if cand is None:
                break
            co = rem[cand] * lead
            qm = list(cand)
            qm[pivot] -= 1
            qm = tuple(qm)
            quot[qm] = quot.get(qm, 0) + co
            for j, aj in enumerate(alpha):
                if not aj:
                    continue
                m = list(qm)
                m[j] += 1
                m = tuple(m)
                nv = rem.get(m, 0) - co * aj
                if nv:
                    rem[m] = nv
                else:
                    rem.pop(m, None)
        q = Poly.__new__(Poly)
        q.nvars, q.c = self.nvars, {m: co for m, co in quot.items() if co}
        r = Poly.__new__(Poly)
        r.nvars, r.c = self.nvars, rem
        return q, r

    def divisible_by_linear(self, alpha):
        return not self.divmod_linear(alpha)[1]

    def div_exact_linear(self, alpha):
        q, r = self.divmod_linear(alpha)
        if r:
            raise InputError(f"{self} is not divisible by the linear form {alpha}")
        return q

    def __str__(self):
        if not self.c:
            return "0"
        names = [f"x{i}" for i in range(self.nvars)]

        def mono(m):
            parts = []
            for i, e in enumerate(m):
                if e == 1:
                    parts.append(names[i])
                elif e > 1:
                    parts.append(f"{names[i]}^{e}")
            return "*".join(parts) or "1"

        terms = []
        for m, co in sorted(self.c.items(), reverse=True):
            body = mono(m)
            if body == "1":
                terms.append(str(co))
            elif co == 1:
                terms.append(body)
            elif co == -1:
                terms.append(f"-{body}")
            else:
                terms.append(f"{co}*{body}")
        return " + ".join(terms).replace("+ -", "- ")

    __repr__ = __str__


def linear_form(coeffs) -> Poly:
    """The linear polynomial with the given coefficient vector."""
    n = len(coeffs)
    out = {}
    for i, a in enumerate(coeffs):
        if a:
            m = [0] * n
            m[i] = 1
            out[tuple(m)] = a
    return Poly(n, out)


def monomials_of_degree(nvars, pdeg):
    """Exponent tuples of total polynomial degree pdeg, lex descending."""
    if pdeg < 0:
        return []
    if nvars == 1:
        return [(pdeg,)]
    out = []
    for e in range(pdeg, -1, -1):
        for rest in monomials_of_degree(nvars - 1, pdeg - e):
            out.append((e,) + rest)
    return out

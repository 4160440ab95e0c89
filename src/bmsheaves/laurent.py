"""Laurent polynomials in one variable with integer coefficients.

Used for three things that share arithmetic: elements of Z[v, v^-1]
(Hecke coefficients), graded ranks Sum v^(generator degree) of graded
free modules, and ordinary polynomials in q (the classical normalization
of the self-dual basis coefficients).  The representation is a dict
{exponent: coefficient} with no zero values stored.

A LaurentPoly is a hashable value: every operation returns a new one,
and no code mutates one in place, so one instance may be shared by many
holders (the Hecke layer hands out one per distinct coefficient).

>>> p = LaurentPoly({1: 1, -1: 1})
>>> str(p * p)
'v^-2 + 2 + v^2'
>>> str(p.bar())
'v^-1 + v'
"""

from __future__ import annotations

__all__ = ["LaurentPoly"]


class LaurentPoly:
    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        if coeffs:
            self.c = {e: c for e, c in coeffs.items() if c}
        else:
            self.c = {}

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def v(cls, exp=1, coeff=1):
        return cls({exp: coeff})

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        out = dict(self.c)
        for e, c in other.c.items():
            nv = out.get(e, 0) + c
            if nv:
                out[e] = nv
            else:
                del out[e]
        p = LaurentPoly.__new__(LaurentPoly)
        p.c = out
        return p

    __radd__ = __add__

    def __neg__(self):
        p = LaurentPoly.__new__(LaurentPoly)
        p.c = {e: -c for e, c in self.c.items()}
        return p

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return LaurentPoly()
            p = LaurentPoly.__new__(LaurentPoly)
            p.c = {e: c * other for e, c in self.c.items()}
            return p
        out = {}
        for e1, c1 in self.c.items():
            for e2, c2 in other.c.items():
                e = e1 + e2
                nv = out.get(e, 0) + c1 * c2
                if nv:
                    out[e] = nv
                else:
                    del out[e]
        p = LaurentPoly.__new__(LaurentPoly)
        p.c = out
        return p

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            return self.c == ({0: other} if other else {})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.c == other.c

    def __bool__(self):
        return bool(self.c)

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    # -- queries ---------------------------------------------------------

    def coeff(self, exp):
        return self.c.get(exp, 0)

    @property
    def constant_term(self):
        return self.c.get(0, 0)

    def is_v_times_polynomial(self):
        """True when every exponent is >= 1 (element of v Z[v])."""
        return all(e >= 1 for e in self.c)

    def is_nonnegative(self):
        return all(c >= 0 for c in self.c.values())

    # bar and shift keep nonzero coefficients nonzero, so
    # they skip the filtering constructor, as __add__ does

    def bar(self):
        """The involution v -> v^-1."""
        p = LaurentPoly.__new__(LaurentPoly)
        p.c = {-e: c for e, c in self.c.items()}
        return p

    def shift(self, k):
        """Multiply by v^k."""
        p = LaurentPoly.__new__(LaurentPoly)
        p.c = {e + k: c for e, c in self.c.items()}
        return p

    # -- io ---------------------------------------------------------------

    def to_json(self):
        return {str(e): c for e, c in sorted(self.c.items())}

    def format(self, var="v"):
        if not self.c:
            return "0"
        parts = []
        for e in sorted(self.c):
            c = self.c[e]
            if e == 0:
                term = str(c)
            else:
                pw = var if e == 1 else f"{var}^{e}"
                if c == 1:
                    term = pw
                elif c == -1:
                    term = f"-{pw}"
                else:
                    term = f"{c}*{pw}"
            parts.append(term)
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    def __str__(self):
        return self.format()

    def __repr__(self):
        return f"LaurentPoly({self.format()})"

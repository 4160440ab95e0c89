"""Hecke algebra of a Coxeter system over Z[v, v^-1].

Elements are held in one basis, the rescaling Tt_x = v^(l(x)) T_x of
the natural basis T_x; T_x appears only in the definitions.  Right
multiplication by a generator:

    T_x  T_s  = T_xs                               if l(xs) > l(x)
    T_x  T_s  = v^-2 T_xs + (v^-2 - 1) T_x         otherwise
    Tt_x Tt_s = Tt_xs                              if l(xs) > l(x)
    Tt_x Tt_s = Tt_xs + (v^-1 - v) Tt_x            otherwise

The duality d is the ring involution with d(v) = v^-1 and
d(T_x) = (T_{x^-1})^-1, where T_s^-1 = v^2 T_s + (v^2 - 1).  Its values
on the Tt basis are memoized once per element, each one step from the
value at xs, for s the least right descent of x (see
`HeckeAlgebra._column`); `bar` reads them from that memo.  On A2, with
s the first generator:

    >>> from bmsheaves.coxeter import make_system
    >>> alg = HeckeAlgebra(make_system([[1, 3], [3, 1]]))
    >>> s = alg.system.generators[0]
    >>> alg.mult(alg.Tt(s), alg.Tt(s))
    1*Tt(e) + (v^-1 - v)*Tt(1)
    >>> alg.bar(alg.Tt(s))
    (-v^-1 + v)*Tt(e) + 1*Tt(1)
    >>> alg.kl_basis(s)
    v*Tt(e) + 1*Tt(1)

The self-dual basis element C_x = sum_y h_y Tt_y is the unique d-fixed
element with h_x = 1 and h_y in v Z[v] for y < x.  Two independent
routes compute it:

  kl_basis    the product recursion: multiply C_xs by C_s = Tt_s + v and
              subtract the constant terms of the lower coefficients;
  kl_oracle   solve d(C) = C directly on the interval below x, using only
              the bar matrix of the Tt basis.  The walk goes down the
              interval by length; each h_y is decoded from the upper
              digits of the packed defect accumulated so far, then
              d(h_y), packed once, is checked against the lower digits
              with one integer comparison and pushed into the defect of
              each element below y with one product per entry of the
              column d(Tt_y).  The cost is the total support of the
              d(Tt_y), not |[e, x]|^2.

Both routes pack polynomials into integers (Kronecker substitution), each
in its own memo and with its own digit width B: a polynomial is held as
its value at a power of two, one balanced B-bit digit per power, so a
power of the variable is a shift by B bits and a sum of polynomials is a
sum of integers.  Packing is a ring map, so the integers are exact; a
value is decoded only when a bound puts every coefficient below 2^(B-1)
in absolute value, and then the digits are exact too.

The product route packs the classical polynomial P_{y,x}(q), q = v^-2,
of Kazhdan and Lusztig's own recursion at q = 2^B: with d = l(x) - l(y),
h_y = v^d P_{y,x}(v^-2), so a monomial costs one digit whatever d is.
A term of C_xs C_s is kept or shifted up by B bits (see
`HeckeAlgebra._kl_column`), and exactness follows from

  * each coefficient of P = C_xs C_s is at most 2 |C_xs|_1, and
    |C_x|_1 <= |P|_1 + sum |c_y| |C_y|_1, with c_y the constant terms
    subtracted; the second bound is recorded per element.

The duality route writes d(Tt_y) = sum_z r_{z,y} Tt_z.  For z <= y the
exponents of r_{z,y} have the parity of l(y) - l(z) and lie in
+-(l(y) - l(z)), so v^(l(y)-l(z)) r_{z,y} is a polynomial in v^2; the
memo holds its value at v^2 = 2^B.  Its bounds are:

  * each step by a least right descent at most triples the L1 norm of a
    column, so |r_{z,y}|_1 <= 3^l(y);
  * a defect of the duality solve is bounded by the sum of
    |d(h_y)|_1 3^l(y) over the elements y settled so far.  Packing d(h_y)
    first and pushing it with one product per entry gives the same
    integers as pushing it term by term, so the bound is the same.  Under
    this bound the lower digits of a defect, those of the exponents <= 0,
    are its centered residue modulo a power of two, so h_y and the skew
    check need no decode of them (see `HeckeAlgebra._solve`).

Each B starts at `_START_BITS`.  When a bound reaches 2^(B-1), B doubles
until it fits and the memo is repacked once (`_fit`); a duality solve in
progress starts over, and a product in progress is formed again.

Each route decodes a distinct packed value once, into a table of its
own.  The product route keeps {(packed int, d): LaurentPoly} for its
current width, replaced whenever the width changes, and every C_x and
product it returns reads its coefficients from that table, so equal
coefficients are one shared LaurentPoly (a value type that nothing
mutates).  A duality solve keeps, for its own length, h_y, the packed
d(h_y) and |h_y|_1 keyed by the upper digits of the defect and the
depth l(x) - l(y); its skew check still runs at every element.

The two routes share nothing but the element containers, the digit
coding (`_unpack`, `_repack`) and the width rule (`_fit`), so agreement
is a genuine cross-check.  `kl_polynomial` reads P_{y,x}(q) from the
product route's digits as they are.
"""

from __future__ import annotations

from .coxeter import (
    Element,
    _mul_gen,
    bruhat_interval,
    bruhat_leq,
    sort_key,
)
from .errors import InconsistencyError, InputError
from .laurent import LaurentPoly

__all__ = ["HeckeElt", "HeckeAlgebra"]

# the factor of Tt_x in Tt_x Tt_s when l(xs) < l(x)
_VINV_MINUS_V = LaurentPoly({-1: 1, 1: -1})

# digit width B of a fresh algebra's packed memos
_START_BITS = 64


def _unpack(n, bits, low, step=2):
    """{low + step k: d_k} for the nonzero balanced base-2^bits digits d_k
    of n.  Each pass reads the digit at n's lowest set bit and clears it,
    so zero digits cost nothing."""
    out = {}
    half = 1 << (bits - 1)
    mask = (1 << bits) - 1
    while n:
        k = ((n & -n).bit_length() - 1) // bits
        sh = bits * k
        d = (n >> sh) & mask
        if d >= half:
            d -= mask + 1
        out[low + step * k] = d
        n -= d << sh
    return out


def _repack(cols, old, bits):
    """Rewrite each packed column {key: n} in cols from old-bit to bits-bit
    digits, in place."""
    for col in cols:
        for z, n in col.items():
            digits = _unpack(n, old, 0, 1).items()
            col[z] = sum(d << (bits * k) for k, d in digits)


def _fit(cols, bits, bound):
    """The width for coefficients of absolute value <= bound: bits, doubled
    until bound < 2^(bits-1).  When it grows, the packed columns in cols
    are repacked to it once, in place."""
    wide = bits
    while bound >> (wide - 1):
        wide *= 2
    if wide != bits:
        _repack(cols, bits, wide)
    return wide


def _poly(digits):
    """LaurentPoly(digits) for a dict with no zero value, built without
    filtering it again."""
    p = LaurentPoly.__new__(LaurentPoly)
    p.c = digits
    return p


def _not_skew(y, n, bits, d):
    """The refusal of a packed defect n of y that is not skew."""
    return InconsistencyError(
        f"duality defect at {y} is not skew: {_poly(_unpack(n, bits, -d))}; "
        "no self-dual solution exists"
    )


def _decoded(coeffs):
    """HeckeElt(coeffs) for nonzero coeffs, built without filtering them
    again."""
    a = HeckeElt.__new__(HeckeElt)
    a.coeffs = coeffs
    return a


class HeckeElt:
    """Finite Z[v,v^-1]-combination {x: c} of the Tt_x."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {x: c for x, c in (coeffs or {}).items() if c}

    def coeff(self, x):
        return self.coeffs.get(x, LaurentPoly.zero())

    @property
    def support(self):
        return set(self.coeffs)

    def __add__(self, other):
        out = dict(self.coeffs)
        for x, c in other.coeffs.items():
            nv = out.get(x, LaurentPoly.zero()) + c
            if nv:
                out[x] = nv
            else:
                out.pop(x, None)
        return HeckeElt(out)

    def __neg__(self):
        return HeckeElt({x: -c for x, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, poly):
        """Multiply by a scalar Laurent polynomial (or int)."""
        if isinstance(poly, int):
            poly = LaurentPoly({0: poly})
        return HeckeElt({x: c * poly for x, c in self.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, HeckeElt):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def to_json(self):
        return {
            "basis": "Tt",
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
            parts.append(f"{body}*Tt({x})")
        return " + ".join(parts)

    def __str__(self):
        return self.format()

    __repr__ = __str__


class HeckeAlgebra:
    """Operations and per-session memo tables for one Coxeter system."""

    def __init__(self, system):
        self.system = system
        # packed C_x {x: {y: P_{y,x}(2^B)}} with digits of self._kl_bits
        # bits, and a bound on each one's L1 norm (see `_kl_column`)
        self._kl_bits = _START_BITS
        self._kl_cols = {system.identity: {system.identity: 1}}
        self._kl_norms = {system.identity: 1}
        # {(packed int, l(x) - l(y)): LaurentPoly} decoded at
        # self._kl_bits, the one instance of each coefficient the product
        # route returns
        self._kl_polys = {}
        # packed columns {y: {z: n_{z,y}}} of d(Tt_y), with digits of
        # self._bits bits (see the module docstring)
        self._bits = _START_BITS
        self._bar_tt = {system.identity: {system.identity: 1}}
        # products C_xs * C_s recorded by kl_basis, keyed by x
        self.kl_products = {}

    # -- element constructors ------------------------------------------

    def Tt(self, x: Element, coeff=None):
        """coeff Tt_x: coeff is 1 when omitted, and an int is a constant;
        a zero coeff gives the zero element."""
        if coeff is None:
            coeff = LaurentPoly.one()
        elif isinstance(coeff, int):
            coeff = LaurentPoly({0: coeff})
        return HeckeElt({x: coeff})

    # -- multiplication --------------------------------------------------

    def mult(self, a: HeckeElt, b: HeckeElt) -> HeckeElt:
        """Product: a times each term c Tt_y of b is a multiplied by Tt_s
        along the reduced word of y, then by c."""
        acc = {}
        for y, c in b.coeffs.items():
            term = a.coeffs
            for s in y.word:
                step = {}
                for x, r in term.items():
                    xs = _mul_gen(x, s)
                    step[xs] = step.get(xs, 0) + r
                    if xs.length < x.length:
                        step[x] = step.get(x, 0) + r * _VINV_MINUS_V
                term = step
            for x, r in term.items():
                acc[x] = acc.get(x, 0) + r * c
        return HeckeElt(acc)

    # -- duality -----------------------------------------------------------

    def bar(self, a: HeckeElt) -> HeckeElt:
        """The duality d: v -> v^-1, T_x -> (T_{x^-1})^-1.

        Each term c Tt_x adds d(c) d(Tt_x), and d(Tt_x) = sum_z r_{z,x} Tt_z
        with r_{z,x} = v^(l(z)-l(x)) N(v^2), N the packed entry.  So a term
        c_e v^e of c adds c_e v^t N(v^2) to v^-l(z) times the output at z,
        with t = -e - l(x).  These sums go into one integer per z and
        parity of t, after a per-call offset that makes every t
        nonnegative: the terms of c of one parity are packed once, as
        m = sum c_e << B floor(t/2), and each entry n of the column of x
        adds n m.  Each output coefficient is decoded once.  The output is
        bounded by the sum of |c|_1 3^l(x) over the terms, and the width
        is fitted to it first.
        """
        terms = [(x, c.c, self._column(x)) for x, c in a.coeffs.items()]
        bound = sum(sum(map(abs, c.values())) * 3**x.length for x, c, _ in terms)
        bits = self._bits = _fit(self._bar_tt.values(), self._bits, bound)
        offset = max((e + x.length for x, c, _ in terms for e in c), default=0)
        accs = ({}, {})
        for x, c, col in terms:
            base = offset - x.length
            packed = [0, 0]
            for e, ce in c.items():
                t = base - e
                packed[t & 1] += ce << (bits * (t >> 1))
            for acc, m in zip(accs, packed):
                if m:
                    for z, n in col.items():
                        acc[z] = acc.get(z, 0) + n * m
        out = {}
        for p, acc in enumerate(accs):
            for z, n in acc.items():
                got = _unpack(n, bits, p - offset + z.length)
                if got:
                    out.setdefault(z, {}).update(got)
        return _decoded({z: _poly(c) for z, c in out.items()})

    def _column(self, x: Element):
        """The packed column {z: n_{z,x}} of d(Tt_x), memoized.

        With s the least right descent of x, x = zs with z shorter, so
        (T_{x^-1})^-1 = (T_{z^-1})^-1 T_s^-1 and
        d(Tt_x) = v^-1 d(Tt_z) T_s^-1.  From T_s^-1 = v^2 T_s +
        (v^2 - 1) and the multiplication rule,

            T_y T_s^-1 = T_ys                          if l(ys) < l(y)
            T_y T_s^-1 = v^2 T_ys + (v^2 - 1) T_y      otherwise,

        so in Tt coordinates a term r Tt_y of d(Tt_z) goes to r Tt_ys,
        plus (v - v^-1) r Tt_y when l(ys) > l(y).  Packed, a term (y, n)
        adds n << B at ys when ys < y, and otherwise n at ys and
        (n << B) - n at y.  The memo is filled down the chain of least
        right descents from x, one such step each, after the width is
        fitted to 3^l(x); it calls no product.
        """
        memo = self._bar_tt
        col = memo.get(x)
        if col is not None:
            return col
        if x.system is not self.system:
            raise InputError("elements of different systems")
        chain = []
        while x not in memo:
            chain.append(x)
            x = _mul_gen(x, x.descent)
        bits = self._bits = _fit(memo.values(), self._bits, 3 ** chain[0].length)
        col = memo[x]
        for x in reversed(chain):
            s = x.descent
            acc = {}
            for y, n in col.items():
                ys = _mul_gen(y, s)
                if ys.length < y.length:
                    acc[ys] = acc.get(ys, 0) + (n << bits)
                else:
                    acc[ys] = acc.get(ys, 0) + n
                    acc[y] = acc.get(y, 0) + (n << bits) - n
            if acc.get(x) != 1:
                raise InconsistencyError(f"d(Tt_{x}) is not unitriangular")
            col = memo[x] = {y: n for y, n in acc.items() if n}
        return col

    # -- self-dual basis, route 1: product recursion -----------------------

    def kl_basis(self, x: Element) -> HeckeElt:
        """C_x by the product recursion C_xs C_s = C_x + sum_y c_y C_y.

        Filled in the packed memo (see `_kl_column`) and read through the
        coefficient table on each call (see `_kl_decode`).  No duality is
        used.  An element of another system is refused (InputError) before
        the memo is read.
        """
        if x.system is not self.system:
            raise InputError("elements of different systems")
        return _decoded(self._kl_decode(self._kl_column(x), x.length))

    def _kl_decode(self, col, length):
        """{y: h_y} of a packed column {y: n} of an element of the given
        length at the current width, zero entries skipped.  With
        d = length - l(y), n is P_y(2^B) and h_y = v^d P_y(v^-2), so digit
        k is the coefficient of v^(d - 2k).  Each distinct (n, d) is
        decoded once per width: the table `_kl_polys` holds its
        LaurentPoly, and is replaced when `_kl_width` changes the width."""
        polys = self._kl_polys
        out = {}
        for y, n in col.items():
            if n:
                d = length - y.length
                p = polys.get((n, d))
                if p is None:
                    p = polys[n, d] = _poly(_unpack(n, self._kl_bits, d, -2))
                out[y] = p
        return out

    def _kl_width(self, bound):
        """Fit the product route's width to bound (`_fit`), with a fresh
        coefficient table after a widening: a packed int read at another
        width is another polynomial."""
        bits = _fit(self._kl_cols.values(), self._kl_bits, bound)
        if bits != self._kl_bits:
            self._kl_bits = bits
            self._kl_polys = {}
        return bits

    def _kl_column(self, x):
        """The packed C_x {y: P_y(2^B)}, memoized with a bound on its norm.

        With d = l(x) - l(y), h_y = v^d P_y(v^-2): h_x = 1, and h_y is in
        v Z[v] for y < x exactly when P_y has degree below d/2, that is
        when |P_y(2^B)| < 2^(B ceil(d/2) - 1), one shift.  With s the least
        right descent of x, C_s = Tt_s + v and the multiplication rule give

            Tt_y C_s = Tt_ys + v Tt_y          if l(ys) > l(y)
            Tt_y C_s = Tt_ys + v^-1 Tt_y       otherwise.

        One step up from xs adds 1 to every d, so a term (y, n) of C_xs
        adds n at ys and at y when ys > y, and n << B at both otherwise
        (see `_kl_product`).  The constant terms of P = C_xs C_s are the
        c_y, nonzero only at even d, and each c_y C_y is subtracted as
        c_y m << B d/2 per term (z, m) of C_y.  P, decoded through the
        coefficient table (see `_kl_decode`), goes into `kl_products` when
        the column is written, so it shares its coefficients with every
        C_x returned at that width.

        The memo is filled by a work list, not by recursion, so a long word
        costs no stack.  The list starts as [x], and each pass looks at its
        last element w: a known column is popped; else a missing C_ws is
        pushed; else P is formed and the lower y with c_y != 0 and C_y
        missing are pushed; else the column of w is finished and written.

        Packing is evaluation at q = 2^B, a ring map, so the integers are
        exact, and a value decodes exactly once every coefficient is below
        2^(B-1).  Each coefficient of P is at most 2 |C_xs|_1, and each of
        C_x at most |P|_1 + sum |c_y| |C_y|_1, the bound recorded for
        |C_x|_1.  The width is fitted to the first bound before P is
        formed and to the second once the C_y are filled, before the
        subtraction; a widening repacks the memo, replaces the coefficient
        table (`_kl_width`), and P is formed again at the new width.
        """
        cols, norms = self._kl_cols, self._kl_norms
        todo = [x]
        while todo:
            w = todo[-1]
            if w in cols:
                todo.pop()
                continue
            if w.length == 1:
                # C_s = Tt_s + v Tt_e; only lengths >= 2 record a product
                cols[w] = {w: 1, self.system.identity: 1}
                norms[w] = 2
                continue
            s = w.descent
            ws = _mul_gen(w, s)
            if ws not in cols:
                todo.append(ws)
                continue
            acc, prod = self._kl_product(w, s, ws)
            lower = [
                (y, c.constant_term)
                for y, c in prod.items()
                if y is not w and c.constant_term
            ]
            missing = [y for y, _ in lower if y not in cols]
            if missing:
                todo += missing
                continue
            norm = sum(abs(c) for p in prod.values() for c in p.c.values())
            norm += sum(abs(c) * norms[y] for y, c in lower)
            old = self._kl_bits
            bits = self._kl_width(norm)
            if bits != old:
                acc, prod = self._kl_product(w, s, ws)
            lw = w.length
            for y, c in lower:
                shift = bits * ((lw - y.length) // 2)
                for z, m in cols[y].items():
                    acc[z] = acc.get(z, 0) - (c * m << shift)
            for y, n in acc.items():
                if y is not w and abs(n) >> (bits * ((lw - y.length + 1) // 2) - 1):
                    raise InconsistencyError(f"coefficient at {y} not in vZ[v]")
            cols[w] = {y: n for y, n in acc.items() if n}
            norms[w] = norm
            self.kl_products[w] = (s, _decoded(prod))
        return cols[x]

    def _kl_product(self, x, s, xs):
        """The packed P = C_xs C_s {y: n} and its decoded {y: p}, at the
        width fitted to 2 |C_xs|_1.  A term (y, n) of C_xs with ys < y adds
        n << B at ys and y, and is refused unless h_y is in v Z[v] (one
        shift, see `_kl_column`); P must have the coefficient 1 at x and
        lie below x."""
        bits = self._kl_width(2 * self._kl_norms[xs])
        lxs = xs.length
        acc = {}
        for y, n in self._kl_cols[xs].items():
            ys = _mul_gen(y, s)
            if ys.length < y.length:
                if abs(n) >> (bits * ((lxs - y.length + 1) // 2) - 1):
                    raise InconsistencyError(f"coefficient at {y} not in vZ[v]")
                n <<= bits
            acc[ys] = acc.get(ys, 0) + n
            acc[y] = acc.get(y, 0) + n
        prod = self._kl_decode(acc, x.length)
        if acc.get(x) != 1:
            raise InconsistencyError(
                f"product coefficient at {x} is {prod.get(x, 0)}, expected 1"
            )
        for y in prod:
            if y is not x and not bruhat_leq(y, x):
                raise InconsistencyError(f"product support {y} not below {x}")
        return acc, prod

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
        h_y is decoded from the upper digits of the packed g_y alone, and
        skewness is one integer comparison of its lower digits with the
        packed d(h_y) (see `_solve`).
        Then d(h_y) r_{z,y} is pushed into the defect of each z below y
        in the support of d(Tt_y), so the cost is the sum of those
        supports rather than |[e, x]|^2.  A term of d(Tt_y) at an element
        already settled, or outside [e, x], cannot be pushed and raises.

        The defect of z is packed as the value at v^2 = 2^B of
        v^(l(x)-l(z)) g_z.  A term c v^f of d(h_y) then adds c n_{z,y}
        shifted by B (l(x) - l(y) + f) / 2 bits, so d(h_y) is packed once
        as D = sum c << B (l(x) - l(y) + f) / 2 and each entry n_{z,y} adds
        n_{z,y} D: one product per entry.  Every coefficient of a defect
        is at most the sum of |d(h_y)|_1 3^l(y) over the settled y; when
        that bound reaches 2^(B-1) before a decode, the width grows and
        the solve restarts.
        """
        if x.system is not self.system:
            raise InputError("elements of different systems")
        interval = bruhat_interval(x)
        # every column below x then fits, so no fill during the walk
        # changes the width the packed defects were built with
        self._bits = _fit(self._bar_tt.values(), self._bits, 3**x.length)
        h = None
        while h is None:
            h = self._solve(x, interval)
        return _decoded(h)

    def _solve(self, x, interval):
        """The coefficients h_y of `kl_oracle`, or None after a widening.

        With d = l(x) - l(y), digit k of the packed defect n of y holds the
        exponent -d + 2k of g_y, so the K = floor(d/2) + 1 digits below
        the cut c = B K hold the exponents <= 0.  Every digit is below
        2^(B-1) in absolute value once the bound check has passed, so their
        value L is the centered residue of n mod 2^c, and (n - L) >> c holds
        exactly the digits of h_y, the positive part; only those are
        decoded.  d(h_y) is taken with `LaurentPoly.bar` and packed once as
        `push`, in the digits of the defect below y.  g_y is skew with zero
        constant term exactly when L == -push (an exponent of h_y above d
        has no mirror in g_y), so one integer comparison checks it; the
        whole defect is decoded only to word a refusal.  Then push is added
        with one product per entry of y's column.  A zero h_y is refused:
        P_{y,x}(0) = 1 for every y <= x, so only a wrong memo gives one.

        h_y, push and |h_y|_1 depend only on the upper digits and on d, so
        the solve keeps them in a table under that key: `_unpack`, `bar`
        and the packing run once per distinct key, while the comparison
        with L, the bound and the pushes run at every y.  The table lives
        for one call, so a restart after a widening starts a fresh one.
        """
        bits = self._bits
        half = 1 << (bits - 1)
        lx = x.length
        h = {}
        # packed defects {z: int} pushed from settled elements
        defect = {}
        bound = 0
        # {(upper digits, d): (h_y, push, |h_y|_1)}, and x's own entry
        settled = {None: (LaurentPoly.one(), 1, 1)}
        for y in reversed(interval):
            d = lx - y.length
            if y is x:
                key = None
            else:
                if bound >= half:
                    self._bits = _fit(self._bar_tt.values(), self._bits, bound)
                    return None
                n = defect.pop(y, 0)
                # low: the digits of the exponents <= 0, centered
                cut = bits * (d // 2 + 1)
                low = n & ((1 << cut) - 1)
                if low >> (cut - 1):
                    low -= 1 << cut
                key = ((n - low) >> cut, d)
            entry = settled.get(key)
            if entry is None:
                hy = _poly(_unpack(key[0], bits, 2 - (d & 1)))
                push = 0
                for f, c in hy.bar().c.items():
                    if d + f < 0:
                        raise _not_skew(y, n, bits, d)
                    push += c << (bits * ((d + f) >> 1))
                entry = settled[key] = (hy, push, sum(map(abs, hy.c.values())))
            hy, push, norm = entry
            bound += norm * 3**y.length
            if y is not x and low != -push:
                raise _not_skew(y, n, bits, d)
            if not hy:
                raise InconsistencyError(f"duality solve gives h = 0 at {y}")
            h[y] = hy
            for z, m in self._column(y).items():
                if z is y:
                    continue
                acc = defect.get(z)
                if acc is None:
                    if z in h:
                        raise InconsistencyError(
                            f"d(Tt_{y}) has a term at {z}, which is settled"
                        )
                    acc = 0
                defect[z] = acc + m * push
        if defect:
            z = next(iter(defect))
            raise InconsistencyError(f"a d(Tt_y) term at {z} lies outside [e, {x}]")
        return h

    # -- classical polynomial normalization -------------------------------

    def kl_polynomial(self, y: Element, x: Element) -> LaurentPoly:
        """P_{y,x} as a polynomial in q: the digits of the packed entry at y
        of C_x, which has no entry off [e, x]."""
        if x.system is not self.system or y.system is not self.system:
            raise InputError("elements of different systems")
        return _poly(_unpack(self._kl_column(x).get(y, 0), self._kl_bits, 0, 1))

    # -- expansion in the self-dual basis ----------------------------------

    def expand_kl(self, a: HeckeElt):
        """Coefficients of a in the self-dual basis (downward elimination)."""
        rem = a
        out = {}
        while rem:
            y = max(rem.coeffs, key=sort_key)
            c = rem.coeff(y)
            out[y] = c
            rem = rem - self.kl_basis(y).scale(c)
        return out

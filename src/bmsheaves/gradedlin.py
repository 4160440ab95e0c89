"""Degreewise exact linear algebra for graded modules over S = Sym(V*).

V* sits in degree 2, so every module and map here lives on even degrees
and each degree piece is a finite dimensional rational vector space.
Three module shapes cover everything downstream:

  FreeModule      direct sum of shifted copies of S, recorded by the
                  multiset of generator degrees (S{-d} has its generator
                  in degree +d);
  QuotientModule  the same but over S/alpha for a nonzero linear form
                  alpha, realized by eliminating alpha's pivot variable;
  DirectSum       a finite concatenation of the above.

Elements of a degree piece are dense coordinate vectors over the module's
canonical basis (generator index, monomial), monomials in degree-then-lex
order.  Maps out of a FreeModule are stored by generator images and their
per-degree matrices are materialized lazily, one degree from the previous
one, so a map built under some cap extends to any degree on demand.

The graded-rank bookkeeping follows one convention everywhere: the rank
of a graded free module is the Laurent polynomial sum of v^(generator
degree).  Deconvolving a dimension table against the Hilbert series of S
recovers that rank and detects failure of graded freeness (a negative
coefficient) exactly.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import comb

from .errors import CapError, InputError, NotGradedFreeError
from .laurent import LaurentPoly
from .linalg import Echelon, sparse
from .polynomials import monomials_of_degree

__all__ = [
    "PolyRing",
    "FreeModule",
    "QuotientModule",
    "DirectSum",
    "ModuleMap",
    "minimal_generators",
    "rank_from_dims",
    "hilbert_dim",
]


def hilbert_dim(nvars, d):
    """dim of the degree-d piece of S in nvars variables (deg x_i = 2)."""
    if d < 0 or d % 2:
        return 0
    return comb(nvars - 1 + d // 2, nvars - 1)


class PolyRing:
    """Monomial bookkeeping for S = Q[x_0..x_{n-1}], deg x_i = 2."""

    def __init__(self, nvars):
        if nvars < 1:
            raise InputError("need at least one variable")
        self.nvars = nvars

    @functools.lru_cache(maxsize=None)
    def monomials(self, d):
        """Monomial basis of the degree-d piece, degree-then-lex order."""
        if d < 0 or d % 2:
            return ()
        return tuple(monomials_of_degree(self.nvars, d // 2))

    @functools.lru_cache(maxsize=None)
    def quotient_monomials(self, pivot, d):
        """Monomials of degree d omitting the pivot variable."""
        if d < 0 or d % 2:
            return ()
        return tuple(
            m for m in self.monomials(d) if m[pivot] == 0
        )

    def dim(self, d):
        return hilbert_dim(self.nvars, d)

    def __eq__(self, other):
        return isinstance(other, PolyRing) and self.nvars == other.nvars

    def __hash__(self):
        return hash(("PolyRing", self.nvars))


class FreeModule:
    """Direct sum of S{-d_i}, presented by the generator degree tuple."""

    def __init__(self, ring, gens):
        self.ring = ring
        self.gens = tuple(int(g) for g in gens)
        if any(g % 2 for g in self.gens):
            raise InputError("generator degrees must be even")
        self._basis = {}
        self._index = {}
        self._dims = {}
        self._varmaps = {}

    @property
    def rank_poly(self):
        out = {}
        for g in self.gens:
            out[g] = out.get(g, 0) + 1
        return LaurentPoly(out)

    def basis(self, d):
        b = self._basis.get(d)
        if b is None:
            b = []
            for i, g in enumerate(self.gens):
                for m in self.ring.monomials(d - g):
                    b.append((i, m))
            b = tuple(b)
            self._basis[d] = b
            self._index[d] = {bm: j for j, bm in enumerate(b)}
        return b

    def index(self, d):
        self.basis(d)
        return self._index[d]

    def dim(self, d):
        n = self._dims.get(d)
        if n is None:
            nv = self.ring.nvars
            n = self._dims[d] = sum(hilbert_dim(nv, d - g) for g in self.gens)
        return n

    def _var_map(self, k, d):
        """Basis position map for multiplication by x_k: degree d -> d+2."""
        key = (k, d)
        vm = self._varmaps.get(key)
        if vm is None:
            tindex = self.index(d + 2)
            vm = []
            for i, m in self.basis(d):
                mm = list(m)
                mm[k] += 1
                vm.append(tindex[(i, tuple(mm))])
            self._varmaps[key] = vm
        return vm

    def mul_var(self, vec, k, d):
        out = [0] * self.dim(d + 2)
        for pos, tpos in zip(range(len(vec)), self._var_map(k, d)):
            v = vec[pos]
            if v:
                out[tpos] = v
        return out

    def mul_linear(self, vec, coeffs, d):
        out = [0] * self.dim(d + 2)
        for k, a in enumerate(coeffs):
            if not a:
                continue
            vm = self._var_map(k, d)
            for pos, v in enumerate(vec):
                if v:
                    out[vm[pos]] += a * v
        return out


class QuotientModule:
    """Direct sum of (S/alpha){-d_i} for a nonzero linear form alpha.

    Realized by eliminating the pivot variable (lowest index with nonzero
    alpha coefficient); the basis consists of pivot-free monomials.
    """

    def __init__(self, ring, gens, alpha):
        self.ring = ring
        self.gens = tuple(int(g) for g in gens)
        self.alpha = tuple(alpha)
        if len(self.alpha) != ring.nvars:
            raise InputError("linear form has wrong arity")
        self.pivot = next((i for i, a in enumerate(self.alpha) if a), None)
        if self.pivot is None:
            raise InputError("cannot quotient by the zero linear form")
        # x_pivot = sum of _subst[j] x_j over the other variables, mod alpha
        p = self.alpha[self.pivot]
        self._subst = {
            j: -a // p if a % p == 0 else Fraction(-a, p)
            for j, a in enumerate(self.alpha)
            if a and j != self.pivot
        }
        self._basis = {}
        self._index = {}
        self._dims = {}
        self._varcols = {}

    def basis(self, d):
        b = self._basis.get(d)
        if b is None:
            b = []
            for i, g in enumerate(self.gens):
                for m in self.ring.quotient_monomials(self.pivot, d - g):
                    b.append((i, m))
            b = tuple(b)
            self._basis[d] = b
            self._index[d] = {bm: j for j, bm in enumerate(b)}
        return b

    def index(self, d):
        self.basis(d)
        return self._index[d]

    def dim(self, d):
        n = self._dims.get(d)
        if n is None:
            nv = self.ring.nvars - 1
            if nv == 0:
                n = sum(1 for g in self.gens if g == d)
            else:
                n = sum(hilbert_dim(nv, d - g) for g in self.gens)
            self._dims[d] = n
        return n

    def _var_cols(self, k, d):
        """Sparse columns of multiplication by x_k on the degree-d basis."""
        key = (k, d)
        cols = self._varcols.get(key)
        if cols is None:
            tindex = self.index(d + 2)
            cols = []
            for i, m in self.basis(d):
                if k != self.pivot:
                    mm = list(m)
                    mm[k] += 1
                    cols.append({tindex[(i, tuple(mm))]: 1})
                else:
                    col = {}
                    for j, a in self._subst.items():
                        mm = list(m)
                        mm[j] += 1
                        col[tindex[(i, tuple(mm))]] = a
                    cols.append(col)
            self._varcols[key] = cols
        return cols

    def mul_var(self, vec, k, d):
        out = [0] * self.dim(d + 2)
        for pos, v in enumerate(vec):
            if v:
                for tpos, a in self._var_cols(k, d)[pos].items():
                    out[tpos] += a * v
        return out


class DirectSum:
    """Concatenation of component modules; basis blocks in order."""

    def __init__(self, ring, parts):
        self.ring = ring
        self.parts = tuple(parts)
        if any(p.ring != ring for p in self.parts):
            raise InputError("direct sum over mixed rings")
        self._offsets = {}

    def dim(self, d):
        return self.offsets(d)[-1]

    def offsets(self, d):
        """Start of each part's block in degree d, then the total."""
        out = self._offsets.get(d)
        if out is None:
            out = [0]
            for p in self.parts:
                out.append(out[-1] + p.dim(d))
            out = self._offsets[d] = tuple(out)
        return out

    def component(self, vec, idx, d):
        off = self.offsets(d)
        return vec[off[idx]:off[idx + 1]]

    def mul_var(self, vec, k, d):
        out = []
        off = self.offsets(d)
        for i, p in enumerate(self.parts):
            out.extend(p.mul_var(vec[off[i]:off[i + 1]], k, d))
        return out


class ModuleMap:
    """S-linear map out of a FreeModule, stored by generator images.

    The degree-d matrix (as columns over the source basis) is derived
    lazily from degree d-2, so the map is usable at any degree, not just
    those materialized when it was built.  S-linearity holds by
    construction.
    """

    def __init__(self, source, target, images):
        if len(images) != len(source.gens):
            raise InputError("one image per generator required")
        self.source = source
        self.target = target
        self.images = [list(v) for v in images]
        for g, img in zip(source.gens, self.images):
            if len(img) != target.dim(g):
                raise InputError("generator image has wrong dimension")
        self._cols = {}

    def columns(self, d):
        cols = self._cols.get(d)
        if cols is not None:
            return cols
        basis = self.source.basis(d)
        if not basis:
            self._cols[d] = []
            return []
        prev = None
        pindex = None
        cols = []
        for i, m in basis:
            if d == self.source.gens[i]:
                cols.append(self.images[i])
                continue
            if prev is None:
                prev = self.columns(d - 2)
                pindex = self.source.index(d - 2)
            k = next(j for j, e in enumerate(m) if e)
            mm = list(m)
            mm[k] -= 1
            parent = pindex[(i, tuple(mm))]
            cols.append(self.target.mul_var(prev[parent], k, d - 2))
        self._cols[d] = cols
        return cols

    def apply(self, vec, d):
        cols = self.columns(d)
        out = [0] * self.target.dim(d)
        for j, v in enumerate(vec):
            if v:
                col = cols[j]
                for r, a in enumerate(col):
                    if a:
                        out[r] += a * v
        return out


def _even_cap(cap):
    return cap if cap % 2 == 0 else cap - 1


def minimal_generators(candidates, ambient, cap):
    """Minimal generators of the submodule spanned by candidate vectors.

    `candidates` maps even degrees to lists of dense vectors in the ambient
    module's coordinates; the submodule is their S-span, and the vectors
    need not be closed under multiplication by the variables.  One loop
    walks the degrees up to the last one with a candidate, keeping a
    basis of the span: first the products x_k * (basis at d-2) that are
    new, then the candidates of degree d that are still new.  By the
    graded Nakayama lemma those candidates are minimal generators, and
    they are returned as (degree, vector) pairs in that order.  When the
    candidates of each degree are already a basis of a submodule's degree
    piece, the picks depend only on that submodule.

    Raises CapError when generators appear in the top two even degrees,
    since further generators above the cap could then not be ruled out.
    """
    cap = _even_cap(cap)
    nvars = ambient.ring.nvars
    last = max((d for d, vs in candidates.items() if vs and d <= cap), default=-2)
    gens = []
    basis = []
    for d in range(0, last + 1, 2):
        ech = Echelon()
        span = []
        for v in basis:
            for k in range(nvars):
                prod = ambient.mul_var(v, k, d - 2)
                if ech.insert(sparse(prod)) is not None:
                    span.append(prod)
        for v in candidates.get(d, ()):
            if ech.insert(sparse(v)) is not None:
                span.append(v)
                gens.append((d, v))
        basis = span
    unstable = [d for d, _ in gens if d >= cap - 2]
    if unstable:
        raise CapError(
            f"minimal generators found in degrees {sorted(set(unstable))} at "
            f"cap {cap}; raise the cap to trust this computation"
        )
    return gens


def rank_from_dims(dims, nvars, cap, require_stable=True):
    """Graded rank (sum of v^degree over generators) from a dimension table.

    Greedily deconvolves against the Hilbert series of S.  A negative
    residual means the module is not graded free at this cap; generators
    in the top two degrees mean the cap is too small to be conclusive.
    """
    cap = _even_cap(cap)
    gens = {}
    for d in range(0, cap + 1, 2):
        have = dims.get(d, 0)
        pred = sum(
            c * hilbert_dim(nvars, d - g) for g, c in gens.items()
        )
        residual = have - pred
        if residual < 0:
            raise NotGradedFreeError(
                f"dimension table is not graded free at this cap: degree {d} "
                f"has dimension {have}, predicted at least {pred}"
            )
        if residual:
            gens[d] = residual
    if require_stable and any(d >= cap - 2 for d in gens):
        raise CapError(
            f"graded-rank generators at the top of the range (cap {cap}); "
            "raise the cap to trust this computation"
        )
    return LaurentPoly(gens)

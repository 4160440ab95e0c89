"""Degreewise exact linear algebra for graded modules over S = Sym(V*).

V* sits in degree 2, so every module and map here lives on even degrees
and each degree piece is a finite dimensional rational vector space.
Three module shapes cover everything downstream:

  FreeModule      direct sum of shifted copies of S, recorded by the
                  multiset of generator degrees (S{-d} has its generator
                  in degree +d);
  QuotientModule  the same but over S/alpha for a nonzero linear form
                  alpha, realized by eliminating alpha's pivot variable
                  x_p over the integral basis x^m / |a_p|^|m|;
  DirectSum       a finite concatenation of the above.

Elements of a degree piece are sparse {position: coefficient} dicts with
no zero entries; they go into `linalg` as they are.  A module is a row
of blocks, one per generator, each a shifted copy of S or of S/alpha
with its (scaled) monomials in degree-then-lex order, so the canonical
basis is (generator index, monomial).  The ring enumerates those
monomials itself; the structure algebra of `momentgraph` keeps its
polynomials as vectors of S = FreeModule(ring, (0,)) in that basis.
There is one ring per Coxeter system (`CoxeterSystem.ring`), and it
keeps its monomials and columns in plain dicts that go with it.  A
block's size in degree e comes from the Hilbert function, without
listing its monomials: dim S_e, or for S/alpha the dimension of S_e in
one variable fewer.
Multiplication by a variable walks the blocks by offset over sparse
columns that the PolyRing keeps once per (alpha, variable, degree) for
every module over it.  A generator's columns in degree d, the images of
its monomial multiples, come from its columns in degree d - 2 by one
x_k-step each.  Maps out of a FreeModule are stored by generator images
and their per-degree columns are materialized lazily by that step, so a
map built under some cap extends to any degree on demand.  A
`KernelSweep` steps a map's columns too, but only those that the kernel
one degree down has not settled, and holds one degree of them.  It is
what steps an S-span: the sheaf builder and the pair costalks read its
kernel vectors, and the costalk ranks, the flabbiness certificate's
cover and `minimal_generators` read its spans.  The edge action xi of a
momentgraph.ZEModule is a ModuleMap, from the module shifted up by 2
into itself.  A map applies its columns through `combine_columns`.
`quotient_map` makes every edge module F/alpha F of a free module F,
once per (generator degrees of F, alpha): the ring keeps it by that
value, and the module holds the one canonical map F -> F/alpha F as its
`projection`, out of a free module on those degrees that it owns.

The graded-rank bookkeeping follows one convention everywhere: the rank
of a graded free module is the Laurent polynomial sum of v^(generator
degree).  Deconvolving a dimension table against the Hilbert series of S
recovers that rank and detects failure of graded freeness (a negative
coefficient) exactly.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import combinations_with_replacement
from math import comb

from .errors import CapError, InputError, NotGradedFreeError
from .laurent import LaurentPoly
from .linalg import column_echelon, insert_lead

__all__ = [
    "PolyRing",
    "FreeModule",
    "QuotientModule",
    "DirectSum",
    "ModuleMap",
    "quotient_map",
    "combine_columns",
    "KernelSweep",
    "check_generator_cap",
    "minimal_generators",
    "rank_from_dims",
    "hilbert_dim",
]


def hilbert_dim(nvars, d):
    """dim of the degree-d piece of S in nvars variables (deg x_i = 2);
    with no variables S is Q, in degree 0 alone."""
    if d < 0 or d % 2:
        return 0
    if nvars == 0:
        return int(d == 0)
    return comb(nvars - 1 + d // 2, nvars - 1)


class PolyRing:
    """Monomial bookkeeping for S = Q[x_0..x_{n-1}], deg x_i = 2.

    A ring instance also keeps its monomial lists, the sparse columns
    of multiplication by each variable on S and on each S/alpha, and the
    quotients F/alpha F that `quotient_map` makes, in plain dicts shared
    by every module built over it and living as long as it does.  A ring
    compares by identity: modules meet only over the same instance,
    `CoxeterSystem.ring` for everything built on a system.
    """

    def __init__(self, nvars):
        if nvars < 1:
            raise InputError("need at least one variable")
        self.nvars = nvars
        self._monos = {}
        self._qmonos = {}
        self._varcols = {}
        self._stepmemo = {}
        self._quotients = {}

    def monomials(self, d):
        """Exponent tuples of the degree-d piece, lex descending: for two
        variables in degree 4, x0^2, x0 x1, x1^2."""
        out = self._monos.get(d)
        if out is None:
            n = self.nvars
            out = ()
            if d >= 0 and not d % 2:
                out = tuple(
                    tuple(c.count(i) for i in range(n))
                    for c in combinations_with_replacement(range(n), d // 2)
                )
            self._monos[d] = out
        return out

    def quotient_monomials(self, pivot, d):
        """Monomials of degree d omitting the pivot variable."""
        key = (pivot, d)
        out = self._qmonos.get(key)
        if out is None:
            out = self._qmonos[key] = tuple(
                m for m in self.monomials(d) if m[pivot] == 0
            )
        return out

    def _block_monomials(self, alpha, d):
        """Basis of the degree-d piece of S (alpha None) or of S/alpha."""
        if alpha is None:
            return self.monomials(d)
        return self.quotient_monomials(_pivot(alpha), d)

    def _var_cols(self, alpha, k, d):
        """Integer columns of multiplication by x_k from degree d to d+2
        of S (alpha None) or of S/alpha, over `_block_monomials`.  On
        S/alpha, with pivot p and basis b_m = x^m / |a_p|^|m|, x_k b_m =
        |a_p| b_(m+e_k) for k != p and, by alpha = 0, x_p b_m =
        -sign(a_p) sum_(j != p) a_j b_(m+e_j)."""
        key = (alpha, k, d)
        cols = self._varcols.get(key)
        if cols is None:
            tindex = {m: j for j, m in enumerate(self._block_monomials(alpha, d + 2))}
            subst = {k: 1}
            if alpha is not None:
                p = _pivot(alpha)
                if k != p:
                    subst = {k: abs(alpha[p])}
                else:
                    sign = -1 if alpha[p] > 0 else 1
                    subst = {j: sign * a for j, a in enumerate(alpha) if a and j != p}
            cols = []
            for m in self._block_monomials(alpha, d):
                col = {}
                for j, a in subst.items():
                    mm = list(m)
                    mm[j] += 1
                    col[tindex[tuple(mm)]] = a
                cols.append(col)
            self._varcols[key] = cols
        return cols

    def _steps(self, d):
        """(k, j, divisors) per monomial m of degree d: m is x_k times
        monomial j of degree d-2, with x_k its first variable, and
        `divisors` is the frozenset of the indices in degree d-2 of
        m / x_i for every variable x_i of m, j among them."""
        out = self._stepmemo.get(d)
        if out is None:
            pindex = {m: j for j, m in enumerate(self.monomials(d - 2))}
            out = []
            for m in self.monomials(d):
                divisors = []
                for i, e in enumerate(m):
                    if e:
                        mm = list(m)
                        mm[i] -= 1
                        divisors.append(pindex[tuple(mm)])
                k = next(i for i, e in enumerate(m) if e)
                out.append((k, divisors[0], frozenset(divisors)))
            self._stepmemo[d] = out
        return out


def _pivot(alpha):
    return next(i for i, a in enumerate(alpha) if a)


def combine_columns(vec, cols):
    """The sum of v * cols[pos] over the entries (pos, v) of a sparse vector."""
    out = {}
    for pos, v in vec.items():
        for t, a in cols[pos].items():
            s = out.get(t, 0) + a * v
            if s:
                out[t] = s
            else:
                del out[t]
    return out


class _Module:
    """A concatenation of blocks (alpha, g), each one copy of S{-g}
    (alpha None) or of (S/alpha){-g}.  Subclasses set `ring` and
    `_blocks`; multiplication by a variable walks the blocks by offset
    over the ring's shared columns."""

    def __init__(self, ring, blocks):
        self.ring = ring
        self._blocks = tuple(blocks)
        self._starts = {}
        self._plans = {}

    def block_starts(self, d):
        """Start of each block in degree d, then the total."""
        out = self._starts.get(d)
        if out is None:
            n = self.ring.nvars
            out = [0]
            for alpha, g in self._blocks:
                size = hilbert_dim(n if alpha is None else n - 1, d - g)
                out.append(out[-1] + size)
            out = self._starts[d] = tuple(out)
        return out

    def dim(self, d):
        return self.block_starts(d)[-1]

    def mul_var(self, vec, k, d):
        """Multiplication by x_k: degree d -> d+2."""
        plan = self._plans.get((k, d))
        if plan is None:
            plan = self._plans[(k, d)] = (
                self.block_starts(d),
                self.block_starts(d + 2),
                [self.ring._var_cols(alpha, k, d - g) for alpha, g in self._blocks],
            )
        src, dst, cols = plan
        out = {}
        for pos, v in vec.items():
            b = bisect_right(src, pos) - 1
            shift = dst[b]
            for t, a in cols[b][pos - src[b]].items():
                t += shift
                s = out.get(t, 0) + a * v
                if s:
                    out[t] = s
                else:
                    del out[t]
        return out

    def mul_mono(self, vec, mono, d):
        """Multiplication by the monomial with exponent tuple mono."""
        for k, e in enumerate(mono):
            for _ in range(e):
                vec = self.mul_var(vec, k, d)
                d += 2
        return vec

    def mul_linear(self, vec, coeffs, d):
        """Multiplication by the linear form sum_k coeffs[k] x_k: d -> d+2."""
        return combine_columns(
            {k: c for k, c in enumerate(coeffs) if c},
            {k: self.mul_var(vec, k, d) for k, c in enumerate(coeffs) if c},
        )


class _Shifted(_Module):
    """Shifted copies of S, or of S/alpha when the module set its form
    `alpha` first (a QuotientModule), one per generator degree."""

    def __init__(self, ring, gens):
        self.gens = tuple(int(g) for g in gens)
        if any(g % 2 for g in self.gens):
            raise InputError("generator degrees must be even")
        super().__init__(ring, [(getattr(self, "alpha", None), g) for g in self.gens])
        self._basis = {}
        self._index = {}

    def basis(self, d):
        """(generator index, monomial) per position of degree d."""
        b = self._basis.get(d)
        if b is None:
            b = self._basis[d] = tuple(
                (i, m)
                for i, (alpha, g) in enumerate(self._blocks)
                for m in self.ring._block_monomials(alpha, d - g)
            )
            self._index[d] = {bm: j for j, bm in enumerate(b)}
        return b

    def index(self, d):
        self.basis(d)
        return self._index[d]


class FreeModule(_Shifted):
    """Direct sum of S{-d_i}, presented by the generator degree tuple."""

    @property
    def rank_poly(self):
        out = {}
        for g in self.gens:
            out[g] = out.get(g, 0) + 1
        return LaurentPoly(out)


class QuotientModule(_Shifted):
    """Direct sum of (S/alpha){-d_i} for a nonzero linear form alpha.

    The pivot x_p is the first variable with a nonzero coefficient; the
    basis is x^m / |a_p|^|m| over the pivot-free monomials x^m, so every
    column is an integer, and it is x^m itself when |a_p| = 1.
    `projection` is the canonical map from the free module on the same
    generator degrees, set by `quotient_map` and None on a module built
    here.
    """

    def __init__(self, ring, gens, alpha):
        self.alpha = tuple(alpha)
        if len(self.alpha) != ring.nvars:
            raise InputError("linear form has wrong arity")
        if not any(self.alpha):
            raise InputError("cannot quotient by the zero linear form")
        super().__init__(ring, gens)
        self.projection = None


class DirectSum(_Module):
    """Concatenation of component modules; basis blocks in order."""

    def __init__(self, ring, parts):
        self.parts = tuple(parts)
        if any(p.ring is not ring for p in self.parts):
            raise InputError("direct sum over mixed rings")
        super().__init__(ring, [b for p in self.parts for b in p._blocks])
        # index of each part's first block, then the block count
        self._first = [0]
        for p in self.parts:
            self._first.append(self._first[-1] + len(p._blocks))

    def offsets(self, d):
        """Start of each part in degree d, then the total."""
        starts = self.block_starts(d)
        return tuple(starts[b] for b in self._first)

    def component(self, vec, idx, d):
        lo, hi = self.offsets(d)[idx : idx + 2]
        return {pos - lo: v for pos, v in vec.items() if lo <= pos < hi}


class ModuleMap:
    """S-linear map out of a FreeModule, stored by generator images.

    Images and columns are sparse vectors of the target.  The degree-d
    columns (one per source basis position) are derived lazily from
    degree d-2, so the map is usable at any degree, not just those
    materialized when it was built.  S-linearity holds by construction.
    """

    def __init__(self, source, target, images):
        if len(images) != len(source.gens):
            raise InputError("one image per generator required")
        self.source = source
        self.target = target
        self.images = [{t: a for t, a in img.items() if a} for img in images]
        for g, img in zip(source.gens, self.images):
            if any(not 0 <= t < target.dim(g) for t in img):
                raise InputError("generator image does not fit the target")
        self._cols = {}

    def columns(self, d):
        """The degree-d columns.  A generator's columns in degree d are
        the images of m g for the monomials m of degree d - g, in the
        ring's order, and the column of x_k m g is x_k times that of m g
        in degree d - 2."""
        cols = self._cols.get(d)
        if cols is None:
            cols = []
            start = self.source.block_starts(d - 2)
            steps = self.target.ring._steps
            mul = self.target.mul_var
            for i, g in enumerate(self.source.gens):
                if d == g:
                    cols.append(self.images[i])
                elif d > g:
                    block = self.columns(d - 2)[start[i] : start[i + 1]]
                    cols += [mul(block[j], k, d - 2) for k, j, _ in steps(d - g)]
            self._cols[d] = cols
        return cols

    def apply(self, vec, d):
        return combine_columns(vec, self.columns(d))


def quotient_map(module, alpha):
    """The one F/alpha F of a free module F and a linear form alpha on
    F's ring, holding the canonical map F -> F/alpha F as its
    `projection`: each generator goes to the unit of its block, the
    block's first position.  The module depends only on F's generator
    degrees and alpha, and the ring keeps it by that value, so every free
    module on those degrees, and every edge with such an upper stalk and
    that label, reads one module and one column memo.  The map's source
    is a free module on F's degrees that the module owns, not F, so a
    stalk is held by nothing the ring keeps.  A miss builds the module;
    a bad alpha is refused on every call, and nothing is stored for it."""
    key = (module.gens, tuple(alpha))
    q = module.ring._quotients.get(key)
    if q is None:
        q = QuotientModule(module.ring, module.gens, key[1])
        images = [{q.block_starts(g)[i]: 1} for i, g in enumerate(module.gens)]
        q.projection = ModuleMap(FreeModule(module.ring, module.gens), q, images)
        module.ring._quotients[key] = q
    return q


class KernelSweep:
    """An S-linear map out of a free module, eliminated one degree at a
    time over the columns that the degree below leaves open.

    The map is given by generator images in `target`, as a ModuleMap is,
    and its degree-d columns are the source positions (generator,
    monomial) in the source's basis order; the generators need not come
    in degree order.  A sweep goes up d = 0, 2, 4, ... in turn by one of
    two steps.  `step(d)` builds the column system (`column_echelon`) of
    the kept columns, then of the caller's `extra` columns, for callers
    that read kernel vectors: the sheaf builder and the Z(E)-module of a
    pair costalk.  `span(d)` gives only the span, for callers that read
    ranks or which vectors are new: it inserts the kept columns
    themselves, in source order, as rows of a span over the target
    coordinates (`linalg.insert_lead`), and `rank(d)` is its size.  A
    `step` may not follow a `span`, and raises InputError if asked to.

    The criterion.  A stored row's pivot is its least column, so the
    kernel basis vector at a free column f holds f and pivots below it:
    the free columns are the largest columns of the kernel's vectors.
    The column order, generator block and then the ring's lex monomial
    order, commutes with multiplication by x_k.  So a kernel vector of
    degree d-2 whose largest column is mu gives one, x_k times it, whose
    largest column is x_k mu, and the column x_k mu is a combination of
    smaller columns.  Such a column is dropped, and the span of the
    columns below a kept one does not change.  Hence the pivots, the rank
    and the kernel vectors at the kept free columns, whose other entries
    lie at pivots, are those of the system over all the columns, and the
    kernel's dimension is `dim(d)` minus the rank: every dropped column
    is free.  A column is kept when every x_k-divisor of its monomial is
    a pivot one degree down.  Its predecessor under `PolyRing._steps`,
    whose column one x_k-step carries to its own, is one of them, so the
    sweep holds per generator only the pivot columns of the last degree.
    The `extra` columns come after every source column, so they change
    none of this.

    `span` holds each pivot column as its stored row in the span, which
    is lambda col_c (lambda != 0) plus columns of its degree before c.
    Multiplication by x_k keeps the source order, so x_k times that row
    is lambda x_k col_c plus columns before x_k c, and the span of the
    rows inserted up to each kept position is that of all the columns up
    to it: the same pivots and ranks as `step`.
    """

    def __init__(self, target, gens=(), images=()):
        self.target = target
        self.gens = []
        self.images = []
        self._degree = -2  # the degree stepped last
        self._held = []  # per generator, {monomial index: column or row} at its pivots
        self._rows = False  # True once `span` holds rows, not columns
        for g, image in zip(gens, images):
            self.add(g, image)

    def add(self, g, image):
        """Append a generator of degree g.  One added right after
        `step(g)` or `span(g)` must be independent of that degree's
        columns, as a new minimal generator is, and is held as a pivot by
        its column; a span may hold a pivot by its column or its row."""
        if g < self._degree:
            raise InputError(f"generator of degree {g} after step {self._degree}")
        self.gens.append(g)
        self.images.append(image)
        self._held.append({0: image} if g == self._degree else {})

    def dim(self, d):
        """Dimension of the source in degree d."""
        nvars = self.target.ring.nvars
        return sum(hilbert_dim(nvars, d - g) for g in self.gens)

    def _kept(self, d):
        """The kept columns of degree d, the degree after the last step,
        in source order: (generator, monomial index, column), the column
        x_k times the held one of its predecessor."""
        if d != self._degree + 2:
            raise InputError(f"step to degree {d} after degree {self._degree}")
        steps = self.target.ring._steps
        mul = self.target.mul_var
        for i, g in enumerate(self.gens):
            if g == d:
                yield i, 0, self.images[i]
            elif g < d:
                held = self._held[i]
                for j, (k, p, divisors) in enumerate(steps(d - g)):
                    if held.keys() >= divisors:
                        yield i, j, mul(held[p], k, d - 2)

    def step(self, d, extra=()):
        """(Echelon, positions) of degree d, the degree after the last
        step.  The Echelon's columns are the kept source columns, at the
        source positions `positions` in order, then the columns `extra`."""
        if self._rows:
            raise InputError("step after span: the pivots are held as rows")
        nvars = self.target.ring.nvars
        starts = [0]
        for g in self.gens:
            starts.append(starts[-1] + hilbert_dim(nvars, d - g))
        owners, cols = [], []
        for i, j, col in self._kept(d):
            owners.append((i, j))
            cols.append(col)
        ech = column_echelon(cols + list(extra), self.target.dim(d))
        self._held = [{} for _ in self.gens]
        for c, (i, j) in enumerate(owners):
            if c in ech.rows:
                self._held[i][j] = cols[c]
        self._degree = d
        return ech, [starts[i] + j for i, j in owners]

    def span(self, d):
        """The span of the map's columns in degree d, the degree after
        the last step, as `insert_lead` keeps it: a dict of rows by their
        least column.  The pivots are held as rows of the span, not as
        columns, so no `step` may follow."""
        self._rows = True
        span = {}
        held = [{} for _ in self.gens]
        for i, j, col in self._kept(d):
            row = insert_lead(span, col)
            if row is not None:
                held[i][j] = row
        self._held = held
        self._degree = d
        return span

    def rank(self, d):
        """The rank of the map in degree d (`span`)."""
        return len(self.span(d))


def check_generator_cap(degrees, cap):
    """Refuse (CapError) a cap below 0, which leaves no degree to
    compute, and generators in the top two even degrees up to cap, since
    further generators above the cap could then not be ruled out."""
    cap -= cap % 2
    if cap < 0:
        raise CapError(f"degree cap {cap} leaves no degree to compute")
    unstable = [d for d in degrees if d >= cap - 2]
    if unstable:
        raise CapError(
            f"minimal generators found in degrees {sorted(set(unstable))} at "
            f"cap {cap}; raise the cap to trust this computation"
        )


def minimal_generators(candidates, ambient, cap):
    """Minimal generators of the submodule spanned by candidate vectors.

    `candidates` maps even degrees to lists of sparse vectors in the
    ambient module's coordinates; the submodule is their S-span, and the
    vectors need not be closed under multiplication by the variables.
    One `KernelSweep` into the ambient module walks the degrees up to
    the last one with a candidate.  In degree d its span is that of the
    monomial multiples of the generators picked so far, the submodule
    generated below d.  The candidates of degree d go into it one by one,
    in order (`insert_lead`), and each one that is new joins the sweep as
    a generator.  By the graded Nakayama lemma those candidates are
    minimal generators, and they are returned, the same dict objects, as
    (degree, vector) pairs in that order.  When the candidates of each
    degree are already a basis of a submodule's degree piece, the picks
    depend only on that submodule.

    Raises CapError on a cap below 0 and when generators appear in the
    top two even degrees (`check_generator_cap`).
    """
    cap -= cap % 2
    last = max((d for d, vs in candidates.items() if vs and d <= cap), default=-2)
    sweep = KernelSweep(ambient)
    for d in range(0, last + 1, 2):
        span = sweep.span(d)
        # one by one and in order: which candidates are new depends on it
        for v in candidates.get(d, ()):
            if insert_lead(span, v) is not None:
                sweep.add(d, v)
    check_generator_cap(sweep.gens, cap)
    return list(zip(sweep.gens, sweep.images))


def rank_from_dims(dims, nvars, cap):
    """Graded rank (sum of v^degree over generators) from a dimension table.

    Greedily deconvolves against the Hilbert series of S.  A negative
    residual means the module is not graded free at this cap; a cap below
    0 and generators in the top two degrees are refused by
    `check_generator_cap`.
    """
    cap -= cap % 2
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
    check_generator_cap(gens, cap)
    return LaurentPoly(gens)

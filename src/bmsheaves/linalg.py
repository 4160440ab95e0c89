"""Sparse exact linear algebra by fraction-free integer elimination.

Everything here goes through one data structure: a row-echelon basis
whose rows are {column: int} dicts.  The section systems this package
solves are block sparse (each constraint couples the stalk variables of
just two vertices), so sparse rows beat dense elimination by a wide
margin while staying exact.

Every scalar is an int, and an input row is made primitive on entry.  A
stored row is primitive, its pivot is its smallest column and its lead
(the entry there) is positive.  Rows are reduced as in Bareiss'
fraction-free elimination: scale by the pivot's lead, subtract, divide
by the content.  The form is lazy: `insert` reduces only the incoming
row, and `kernel` back-substitutes once.  Kernel bases are sparse
primitive integer vectors, {column: int} dicts without zeros like every
other vector in the package, one per free column, in increasing
free-column order, which keeps all downstream output deterministic.

A stored row with one entry is the unit row {p: 1}, since it is
primitive with a positive lead, and it clears column p by deletion
alone: `insert` runs `del r[p]` for such a pivot instead of calling
`_eliminate`, which with b = 1 would do exactly that deletion and push
nothing.  So the stored rows are those of the plain elimination.

The pivot columns are the least columns of the vectors in the row
space, and `kernel` returns the primitive null-space basis of the
reduced form, so both depend only on the row space, never on the order
the rows came in.  Only the work does: fill-in grows with the rows
already stored.  So a batch of rows goes in through `extend`, sparsest
first, and every system in the package is eliminated that way.

Most systems arrive as columns, one sparse vector per unknown, and
`column_echelon` is their one entry: it transposes the columns into
equations and extends an Echelon by them.  `solve_in_span`, the
builder's per-vertex system, the gluing map of a sheaf where kernel
vectors are read (its sections and the pair costalks' Z(E)-modules) and
the Z(E)-module kernels all go through it.  Only a span of vectors
stays row-built, since its rows are the vectors themselves.

A span that is only asked its rank needs no reduced form: `insert_lead`
reduces an incoming row only until its least column leads no stored
row, so the stored rows have distinct leads and nothing more.  Which
rows are new, and so the rank, are those of `Echelon.insert`.  The
rank-only costalk sweeps take the span of their columns this way
(`gradedlin.KernelSweep.rank`).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd, lcm

__all__ = ["Echelon", "column_echelon", "insert_lead", "solve_in_span"]


def _primitive(row):
    """Divide an integer row by its content (in place when it is > 1)."""
    g = gcd(*row.values())
    if g > 1:
        for c in row:
            row[c] //= g


def _eliminate(row, prow, p, rows, heap):
    """Clear row[p] with the pivot row prow: row <- b row - a prow for
    a, b proportional to row[p], prow[p].  Pivot columns of `rows` that
    enter row are pushed on `heap`."""
    a = row[p]
    b = prow[p]
    g = gcd(a, b)
    if g != 1:
        a //= g
        b //= g
    if b != 1:
        for c in row:
            row[c] *= b
    for c, v in prow.items():
        old = row.get(c)
        if old is None:
            row[c] = -a * v
            if c in rows:
                heappush(heap, c)
        else:
            nv = old - a * v
            if nv:
                row[c] = nv
            else:
                del row[c]
    if b != 1:
        _primitive(row)


class Echelon:
    """Incrementally maintained, lazily reduced integer row-echelon basis."""

    __slots__ = ("rows",)

    def __init__(self):
        self.rows = {}  # pivot column -> primitive integer sparse row

    @property
    def dim(self):
        return len(self.rows)

    def insert(self, vec):
        """Add vec, a {column: int} dict, to the row space; return its
        pivot column, or None if vec was already in the span."""
        r = {c: v for c, v in vec.items() if v}
        rows = self.rows
        heap = [c for c in r if c in rows]
        heapify(heap)
        # pivot rows hold no earlier columns, so eliminating pivots in
        # increasing order never reintroduces one already cleared
        while heap:
            p = heappop(heap)
            if p in r:
                prow = rows[p]
                if len(prow) == 1:
                    del r[p]
                else:
                    _eliminate(r, prow, p, rows, heap)
        if not r:
            return None
        _primitive(r)
        p = min(r)
        if r[p] < 0:
            for c in r:
                r[c] = -r[c]
        rows[p] = r
        return p

    def extend(self, rows):
        """Insert every nonempty row of `rows`, fewest nonzeros first;
        the sort is stable, so rows of equal length keep their order."""
        for r in sorted(filter(None, rows), key=len):
            self.insert(r)

    def kernel(self, ncols):
        """Kernel of the linear system whose equations are the rows,
        over variables 0..ncols-1.  One sparse primitive integer basis
        vector per free column f, a {column: int} dict with a positive
        entry at f and none at the other free columns."""
        rows = self.rows
        # Back-substitute, last pivot first: row q is already free of
        # every other pivot column when it is used to clear row p.
        for p in sorted(rows, reverse=True):
            r = rows[p]
            for q in [c for c in r if c != p and c in rows]:
                _eliminate(r, rows[q], q, rows, [])
        entries = {}  # free column -> [(pivot, coefficient)]
        for p, r in rows.items():
            for c, v in r.items():
                if c != p:
                    entries.setdefault(c, []).append((p, v))
        basis = []
        for f in range(ncols):
            if f in rows:
                continue
            col = entries.get(f, ())
            scale = lcm(*(rows[p][p] for p, _ in col))
            vec = {p: -v * (scale // rows[p][p]) for p, v in col}
            vec[f] = scale
            if scale != 1:
                _primitive(vec)
            basis.append(vec)
        return basis


def column_echelon(columns, nrows):
    """The Echelon of the linear system of nrows equations whose j-th
    column is columns[j].

    Columns are sparse {row: int} dicts with rows below nrows.  Equation
    i, the row holding every columns[j][i] at column j, goes in as one
    batch with the others in increasing i, sparsest first
    (`Echelon.extend`).  The kernel over len(columns) variables solves
    sum_j c_j columns[j] == 0.
    """
    rows = [{} for _ in range(nrows)]
    for j, col in enumerate(columns):
        for i, a in col.items():
            rows[i][j] = a
    ech = Echelon()
    ech.extend(rows)
    return ech


def insert_lead(rows, vec):
    """Add vec, a {column: int} dict, to the span of `rows`, a dict that
    maps the least column of each of its rows to the row; return the
    stored row, or None if vec was already in the span.

    Only the least column is cleared, until it leads no row: the stored
    rows keep distinct leads, which makes them independent, and are not
    reduced further."""
    r = {c: v for c, v in vec.items() if v}
    while r:
        p = min(r)
        prow = rows.get(p)
        if prow is None:
            _primitive(r)
            rows[p] = r
            return r
        if len(prow) == 1:  # a multiple of {p: 1}, as in `insert`
            del r[p]
        else:
            _eliminate(r, prow, p, rows, [])
    return None


def solve_in_span(columns, target):
    """Express den * target as an integer combination of the columns.

    Columns and target are sparse {row: int} dicts.  Returns (coeffs,
    den), coeffs a {column: int} dict without zeros and den > 0 the
    least integer with sum_j coeffs[j] * columns[j] == den * target, or
    None if target is not in the span.  When the columns are dependent,
    the solution is the one that vanishes on the free columns.
    """
    n = len(columns)
    cols = [*columns, {i: -a for i, a in target.items()}]
    ech = column_echelon(cols, 1 + max((max(c) for c in cols if c), default=-1))
    if n in ech.rows:
        return None
    # column n is free and the last one, so its vector comes last; that
    # vector is primitive, so its entry at n is the least denominator
    vec = ech.kernel(n + 1)[-1]
    return vec, vec.pop(n)

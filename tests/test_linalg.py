"""Differential tests of the fraction-free elimination kernel.

Every check compares `bmsheaves.linalg` against a small dense reduced
row-echelon reference over `fractions.Fraction`, written out below, on
seeded random systems: sparse and low-rank integer matrices, rational
entries with denominators 2 and 3, and zero or empty rows.  `linalg`
takes int rows only, so a rational row is scaled to an int row before it
reaches it, while the reference works on the row as drawn.  The same
reference checks the rank-one test that finds the moment-graph edges.

Batches go in sparsest first (`Echelon.extend`), which is safe only
because no output depends on the order of the rows; the order tests pin
that on random systems and on the gluing systems of a real sheaf.
"""

import heapq
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from bmsheaves import linalg
from bmsheaves.bmsheaf import _pair_systems, bm_construct
from bmsheaves.coxeter import _differ_by_rank_one, multiply, parse_word
from bmsheaves.linalg import Echelon, column_echelon, insert_lead, solve_in_span
from bmsheaves.momentgraph import build_graph

ENTRIES = (0, 0, 0, 1, -1, 2, -3, 5)
RATIONAL = ENTRIES + (Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3), Fraction(-1, 3))


def rref(rows, ncols):
    """Pivot columns and reduced rows (row[pivot] == 1) of dense rows."""
    mat = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        i = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if i is None:
            continue
        mat[r], mat[i] = mat[i], mat[r]
        lead = mat[r][c]
        mat[r] = [v / lead for v in mat[r]]
        for k in range(len(mat)):
            if k != r and mat[k][c]:
                f = mat[k][c]
                mat[k] = [a - f * b for a, b in zip(mat[k], mat[r])]
        pivots.append(c)
    return pivots, mat[: len(pivots)]


def ref_kernel(rows, ncols):
    """Kernel basis: one vector per free column f, 1 at f, 0 at other free columns."""
    pivots, red = rref(rows, ncols)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for p, row in zip(pivots, red):
            vec[p] = -row[f]
        basis.append(vec)
    return basis


def random_matrix(rng, entries):
    nrows, ncols = rng.randint(0, 8), rng.randint(1, 9)
    if rng.random() < 0.4 and nrows:
        # low rank: a product of two thin random matrices
        k = rng.randint(1, 3)
        left = [[rng.choice(entries) for _ in range(k)] for _ in range(nrows)]
        right = [[rng.choice(entries) for _ in range(ncols)] for _ in range(k)]
        rows = [
            [sum(a * right[j][c] for j, a in enumerate(lrow)) for c in range(ncols)]
            for lrow in left
        ]
    else:
        rows = [[rng.choice(entries) for _ in range(ncols)] for _ in range(nrows)]
    if rows and rng.random() < 0.3:
        rows.insert(rng.randrange(len(rows) + 1), [0] * ncols)
    return rows, ncols


def integral(row):
    """A dense rational row times the lcm of its denominators."""
    den = lcm(*(Fraction(v).denominator for v in row))
    return [int(v * den) for v in row]


def sparse(vec):
    """Dense list -> {index: value} dict, dropping zeros."""
    return {i: v for i, v in enumerate(vec) if v}


def dense(vec, ncols):
    """{index: value} dict -> dense list of length ncols."""
    return [vec.get(i, 0) for i in range(ncols)]


def matvec(rows, vec):
    return [sum(a * v for a, v in zip(row, vec)) for row in rows]


@pytest.mark.parametrize("entries", [ENTRIES, RATIONAL], ids=["int", "rational"])
@pytest.mark.parametrize("seed", range(4))
def test_rank_pivots_and_kernel_match_the_reference(seed, entries):
    rng = random.Random(seed)
    for _ in range(80):
        rows, ncols = random_matrix(rng, entries)
        pivots, _ = rref(rows, ncols)
        ech = Echelon()
        for row in rows:
            ech.insert(sparse(integral(row)))
        assert ech.dim == len(pivots)
        assert sorted(ech.rows) == pivots
        ker = ech.kernel(ncols)
        ref = ref_kernel(rows, ncols)
        assert len(ker) == ncols - len(pivots)
        batch = Echelon()
        batch.extend([sparse(integral(r)) for r in rows])
        assert ker == batch.kernel(ncols)
        free = [f for f in range(ncols) if f not in pivots]
        for f, vec, rvec in zip(free, ker, ref):
            # sparse: a {column: int} dict with no zero entry
            assert type(vec) is dict
            assert all(c in range(ncols) for c in vec)
            assert all(type(v) is int and v for v in vec.values())
            assert gcd(*vec.values()) == 1
            assert vec.get(f, 0) > 0
            full = dense(vec, ncols)
            assert not any(matvec(rows, full))
            # a positive multiple of the reference vector of column f
            assert [Fraction(v, vec[f]) for v in full] == rvec


@pytest.mark.parametrize("seed", range(4))
def test_insert_reports_exactly_the_new_directions(seed):
    rng = random.Random(100 + seed)
    for _ in range(60):
        rows, ncols = random_matrix(rng, RATIONAL)
        ech = Echelon()
        for i, row in enumerate(rows):
            grew = len(rref(rows[: i + 1], ncols)[0]) > len(rref(rows[:i], ncols)[0])
            p = ech.insert(sparse(integral(row)))
            assert (p is not None) == grew
            if grew:
                stored = ech.rows[p]
                assert min(stored) == p and stored[p] > 0
                assert all(type(v) is int for v in stored.values())
                assert gcd(*stored.values()) == 1


@pytest.mark.parametrize("seed", range(4))
def test_lead_only_insert_finds_the_new_rows_of_insert(seed):
    """The seeded random rows, zero entries and zero rows included, go
    one by one into an Echelon and into a lead-only span: the same rows
    are new, the span has the rank, and its rows have distinct least
    columns, each the key it is stored under."""
    rng = random.Random(100 + seed)
    for _ in range(60):
        rows, ncols = random_matrix(rng, ENTRIES)
        ech, span = Echelon(), {}
        for row in rows:
            vec = dict(enumerate(row))  # explicit zeros kept
            new = insert_lead(span, vec)
            assert (new is not None) == (ech.insert(vec) is not None)
            assert new is None or span[min(new)] is new
        assert len(span) == ech.dim == len(rref(rows, ncols)[0])
        assert all(min(r) == p and all(r.values()) for p, r in span.items())


def test_zero_and_empty_rows():
    ech = Echelon()
    assert ech.insert({}) is None
    assert ech.insert({0: 0, 3: 0}) is None
    assert ech.dim == 0
    assert ech.kernel(2) == [{0: 1}, {1: 1}]
    assert ech.kernel(0) == []
    assert column_echelon([{}, {1: 0}], 2).kernel(2) == [{0: 1}, {1: 1}]


def test_insert_takes_int_rows_only():
    ech = Echelon()
    with pytest.raises(TypeError):
        ech.insert({0: Fraction(1, 2), 1: Fraction(-1, 3)})
    assert ech.dim == 0
    assert ech.insert({0: 6, 1: -4}) == 0
    assert ech.rows[0] == {0: 3, 1: -2}
    assert ech.insert({0: -3, 1: 2}) is None
    assert ech.kernel(2) == [{0: 2, 1: 3}]
    assert column_echelon([{0: 2}, {0: 4}], 1).kernel(2) == [{0: -2, 1: 1}]


def plain_insert(rows, vec):
    """`Echelon.insert` without the unit-row rule: every pivot of the
    incoming row, a unit row's too, is cleared by `_eliminate`."""
    r = {c: v for c, v in vec.items() if v}
    heap = sorted(c for c in r if c in rows)
    while heap:
        p = heapq.heappop(heap)
        if p in r:
            linalg._eliminate(r, rows[p], p, rows, heap)
    if not r:
        return None
    linalg._primitive(r)
    p = min(r)
    if r[p] < 0:
        for c in r:
            r[c] = -r[c]
    rows[p] = r
    return p


def unit_row_outputs(sequence, ncols):
    """Insert the sequence one by one into an Echelon and by
    `plain_insert`: the same pivots, the same rows key for key and the
    same kernel.  Returns the Echelon, kernel taken."""
    ech, plain = Echelon(), {}
    assert [ech.insert(vec) for vec in sequence] == [
        plain_insert(plain, vec) for vec in sequence
    ]
    assert ech.rows == plain
    ref = Echelon()
    ref.rows = plain
    assert ech.kernel(ncols) == ref.kernel(ncols)
    return ech


def test_unit_rows_are_cleared_by_deletion(monkeypatch):
    """A unit row {2: 1} stored after a longer row that holds column 2:
    eliminating the longer row from a later one without column 2 brings
    it in by fill-in, and it is deleted without a call to `_eliminate`."""
    calls = []
    eliminate = linalg._eliminate

    def counting(row, prow, p, rows, heap):
        calls.append(dict(prow))
        return eliminate(row, prow, p, rows, heap)

    monkeypatch.setattr(linalg, "_eliminate", counting)
    sequence = [{0: 1, 2: 3}, {2: -2}, {0: 1, 1: 1}]
    ech, plain = Echelon(), {}
    for vec in sequence:
        ech.insert(vec)
    by_echelon = calls[:]
    calls.clear()
    for vec in sequence:
        plain_insert(plain, vec)
    assert ech.rows == plain == {0: {0: 1, 2: 3}, 1: {1: 1}, 2: {2: 1}}
    assert by_echelon == [{0: 1, 2: 3}]
    assert calls == [{0: 1, 2: 3}, {2: 1}]
    unit_row_outputs(sequence, 3)


@pytest.mark.parametrize("seed", range(4))
def test_unit_rows_store_the_rows_of_plain_elimination(seed):
    """Seeded integer systems with singleton equations mixed in, inserted
    one by one: the same pivots, the same rows key for key and the same
    kernel as the plain elimination."""
    rng = random.Random(700 + seed)
    units = 0
    for _ in range(60):
        rows, ncols = random_matrix(rng, ENTRIES)
        sequence = [sparse(row) for row in rows]
        for _ in range(rng.randint(1, 4)):
            single = {rng.randrange(ncols): rng.choice((1, -1, 2, -3))}
            sequence.insert(rng.randrange(len(sequence) + 1), single)
        ech = unit_row_outputs(sequence, ncols)
        units += sum(len(row) == 1 for row in ech.rows.values())
        # a batch, inserted sparsest first, stores the rows of the plain
        # elimination of the batch in that order
        batch, plain = Echelon(), {}
        batch.extend(sequence)
        for vec in sorted(sequence, key=len):
            plain_insert(plain, vec)
        assert batch.rows == plain
    assert units


@pytest.mark.parametrize("seed", range(4))
def test_solve_in_span_is_exact_or_none(seed):
    rng = random.Random(200 + seed)
    for _ in range(80):
        rows, ncols = random_matrix(rng, RATIONAL)
        nrows = len(rows)
        if rng.random() < 0.5:
            coeffs = [rng.choice(RATIONAL) for _ in range(ncols)]
            target = [sum(c * a for c, a in zip(coeffs, row)) for row in rows]
        else:
            target = [rng.choice(RATIONAL) for _ in range(nrows)]
        # scaling an equation keeps the solutions: make each one integral
        system = [integral(row + [t]) for row, t in zip(rows, target)]
        target = [row.pop() for row in system]
        columns = [[system[i][j] for i in range(nrows)] for j in range(ncols)]
        inside = len(rref(columns, nrows)[0]) == len(rref(columns + [target], nrows)[0])
        sol = solve_in_span([sparse(col) for col in columns], sparse(target))
        if not inside:
            assert sol is None
            continue
        coeffs, den = sol
        assert all(type(c) is int and c and 0 <= j < ncols for j, c in coeffs.items())
        # the least denominator: no common factor is left to cancel
        assert type(den) is int and den > 0 and gcd(den, *coeffs.values()) == 1
        combo = [
            sum(coeffs.get(j, 0) * col[i] for j, col in enumerate(columns))
            for i in range(nrows)
        ]
        assert combo == [den * t for t in target]


def test_solve_in_span_small_cases():
    assert solve_in_span([{0: 2}, {1: 3}], {0: 1, 1: 1}) == ({0: 3, 1: 2}, 6)
    assert solve_in_span([{0: 2}, {1: 3}], {0: 4, 1: 3}) == ({0: 2, 1: 1}, 1)
    assert solve_in_span([{0: 1, 1: 1}, {0: 2, 1: 2}], {0: 3, 1: 3}) == ({0: 3}, 1)
    assert solve_in_span([{0: 1, 1: 1}], {0: 1, 1: 2}) is None
    assert solve_in_span([], {}) == ({}, 1)
    assert solve_in_span([], {0: 1}) is None


@pytest.mark.parametrize("seed", range(4))
def test_column_echelon_matches_extend_over_the_transposed_rows(seed):
    """Random column systems with empty columns and explicit zero
    entries: the same stored pivot rows and the same kernel as
    `Echelon.extend` over the transposed rows in row order, and the
    kernel of the dense reference."""
    rng = random.Random(600 + seed)
    empties = zeros = 0
    for _ in range(60):
        rows, ncols = random_matrix(rng, ENTRIES)
        columns = [sparse([row[j] for row in rows]) for j in range(ncols)]
        for col in columns:
            i = rng.randrange(len(rows) + 2)
            if rng.random() < 0.3 and i not in col:
                col[i] = 0
        empties += sum(not any(col.values()) for col in columns)
        zeros += sum(0 in col.values() for col in columns)
        transposed = transpose(columns)
        ref = Echelon()
        ref.extend([transposed[i] for i in sorted(transposed)])
        ech = column_echelon(columns, len(rows) + 2)
        assert ech.rows == ref.rows
        assert ech.kernel(ncols) == ref.kernel(ncols)
        assert ech.kernel(ncols) == ref_kernel_int(rows, ncols)
    assert empties and zeros


def ref_kernel_int(rows, ncols):
    """The reference kernel scaled to primitive integer vectors."""
    out = []
    for vec in ref_kernel(rows, ncols):
        ints = integral(vec)
        g = gcd(*ints)
        out.append(sparse([v // g for v in ints]))
    return out


def reorders(rng, rows):
    """Five other orders of rows: densest first, then four shuffles."""
    orders = [sorted(rows, key=len, reverse=True)]
    for _ in range(4):
        orders.append(rng.sample(rows, len(rows)))
    return orders


def transpose(vectors):
    """Sparse vectors with the roles of index and position swapped."""
    out = {}
    for j, vec in enumerate(vectors):
        for i, a in vec.items():
            out.setdefault(i, {})[j] = a
    return out


def order_outputs(rows, ncols):
    """Pivots and kernel with the rows inserted one by one in the given
    order, then the same as one batch, then the kernel of the same
    system given by columns to `column_echelon`."""
    ech = Echelon()
    for row in rows:
        ech.insert(row)
    batch = Echelon()
    batch.extend(rows)
    columns = transpose(rows)
    by_columns = column_echelon([columns.get(j, {}) for j in range(ncols)], len(rows))
    return (
        ech.rows.keys(),
        ech.kernel(ncols),
        batch.rows.keys(),
        batch.kernel(ncols),
        by_columns.kernel(ncols),
    )


@pytest.mark.parametrize("seed", range(4))
def test_row_order_changes_no_output(seed):
    rng = random.Random(500 + seed)
    for _ in range(60):
        rows, ncols = random_matrix(rng, RATIONAL)
        system_dense = [integral(row) for row in rows]
        system = [sparse(row) for row in system_dense]
        pivots, kernel, *rest = order_outputs(system, ncols)
        assert rest == [pivots, kernel, kernel]
        for order in reorders(rng, system):
            assert order_outputs(order, ncols) == (pivots, kernel, pivots, kernel, kernel)
        # the same system read by columns: permuting its equations keeps
        # the solution (coefficients and least denominator) as it is
        nrows = len(rows)
        columns = [sparse([row[j] for row in system_dense]) for j in range(ncols)]
        if rng.random() < 0.5:
            coeffs = [rng.choice(ENTRIES) for _ in range(ncols)]
            target = sparse(matvec(system_dense, coeffs))
        else:
            target = sparse([rng.choice(ENTRIES) for _ in range(nrows)])
        sol = solve_in_span(columns, target)
        for _ in range(5):
            perm = rng.sample(range(nrows), nrows)
            assert sol == solve_in_span(
                [{perm[i]: a for i, a in col.items()} for col in columns],
                {perm[i]: a for i, a in target.items()},
            )


def test_gluing_systems_change_no_output_under_edge_or_row_order(a3, monkeypatch):
    """Every costalk and pair costalk system of A3 12321, its gluing map
    built from five shuffled edge orders, has the pivots and kernel of the
    map in graph order in every degree up to the cap, also with its
    equations inserted in the order they were given.  The costalk systems
    are the gluing maps of the upward edges at each vertex."""
    bm = bm_construct(build_graph(a3, a3.element(parse_word("12321", 3))))
    graph = bm.graph
    calls = [([w], graph.up[w]) for w in graph.vertices]
    gluing_map = bm.gluing_map

    def record(verts, edges):
        calls.append((verts, edges))
        return gluing_map(verts, edges)

    monkeypatch.setattr(bm, "gluing_map", record)
    for s, gen in enumerate(a3.generators):
        for y in graph.vertices:
            if multiply(y, gen).length < y.length:
                _pair_systems(bm, y, s)
    monkeypatch.undo()
    assert {len(verts) for verts, _ in calls} == {1, 2}

    class Given(Echelon):
        def extend(self, rows):
            self.given = list(rows)
            super().extend(self.given)

    monkeypatch.setattr(linalg, "Echelon", Given)
    rng = random.Random(7)
    for verts, edges in calls:
        ref = gluing_map(verts, edges)
        shuffled = [gluing_map(verts, rng.sample(edges, len(edges))) for _ in range(5)]
        for d in range(0, bm.caps[verts[0]] + 1, 2):
            width = ref.source.dim(d)
            ech = column_echelon(ref.columns(d), ref.target.dim(d))
            pivots, kernel = ech.rows.keys(), ech.kernel(width)
            for m in shuffled:
                ech = column_echelon(m.columns(d), m.target.dim(d))
                assert ech.rows.keys() == pivots
                assert ech.kernel(width) == kernel
                want = (pivots, kernel, pivots, kernel, kernel)
                assert order_outputs(ech.given, width) == want


def ref_rank(vectors, ncols):
    return len(rref(vectors, ncols)[0])


@pytest.mark.parametrize("seed", range(4))
def test_differ_by_rank_one_matches_the_reference_rank(seed):
    rng = random.Random(400 + seed)
    ranks = set()
    for _ in range(60):
        n = rng.randint(2, 4)
        b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        # a difference of rank 0, 1 or 2: a sum of that many outer products
        diff = [[0] * n for _ in range(n)]
        for _ in range(rng.randint(0, 2)):
            u = [rng.choice(ENTRIES) for _ in range(n)]
            v = [rng.choice(ENTRIES) for _ in range(n)]
            diff = [[d + ui * vj for d, vj in zip(row, v)] for row, ui in zip(diff, u)]
        a = [[x + d for x, d in zip(rb, rd)] for rb, rd in zip(b, diff)]
        rank = ref_rank(diff, n)
        ranks.add(rank)
        assert _differ_by_rank_one(a, b) == (rank == 1)
    assert ranks == {0, 1, 2}

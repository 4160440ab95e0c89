"""Coxeter systems realized by integer generalized Cartan matrices.

The space V* has the simple roots alpha_1..alpha_n as basis and the
generator s_i acts by alpha_j -> alpha_j - a_ij alpha_i, where a is the
Cartan matrix.  A bond order m_st is realizable over the integers exactly
when 4 cos^2(pi/m_st) is an integer, which restricts finite orders to
{1, 2, 3, 4, 6}; m_st = 5 is rejected.  Infinite bond order is recorded
as the integer 0 and requires a_st * a_ts >= 4.

Group elements are stored as the pair (canonical reduced word, matrix),
where the canonical word is the ShortLex-least reduced expression.  The
matrix is the element's action on V* in the simple-root basis and is an
integer matrix throughout.  All descent, reflection and Bruhat-order
computations are driven by root signs, so that a violation of the
expected total negativity or positivity of a column is detected rather
than silently accepted (RealizationError).

Arithmetic goes one generator at a time.  The matrix of s differs from
the identity in row s only, so G_s A changes row s of A and A G_s adds a
multiple of column s to each column: O(n^2) integer operations, never a
full matrix product.  Normal forms, word extraction (stripping left
descents) and inversion roots are built from these two steps; a full
product is left only for `multiply` by an element of length > 1.

A right product ws by a generator takes one step for its matrices and
reads its word from w's, with no extraction.  Let a be the first letter
of w's word and t the least left descent of ws (from ws's inverse
matrix).  The exchange lemma says: if l(tw) > l(w) and l(ws) > l(w),
then tws = w or l(tws) = l(w) + 2 (Bjorner-Brenti, ch. 1-2).  Then:

  t < a   word(ws) = t word(w).  t is no left descent of w, as a is the
          least.  Were ws < w, t would be a left descent of ws and then
          of w; so ws > w, the lemma applies, and l(tws) = l(ws) - 1 =
          l(w) leaves tws = w.
  t > a   word(ws) = word(w) without a, i.e. ws = aw.  When ws > w, a is
          a left descent of ws (l(aws) <= l(aw) + 1 < l(ws)), so t <= a;
          hence ws < w.  For u = ws, l(au) > l(u) and l(us) > l(u), and
          l(aus) = l(aw) = l(u), so the lemma gives aus = u.
  t = a   word(ws) = a word((aw)s), a product of the shorter aw.

At w = e the rule reads as t < a, and ws = e (w = s) has no t.  A
suffix of a ShortLex-least word is ShortLex least, so aw has the word of
w without its first letter.  Each case is checked on the matrices
(t ws = w; ws = aw; a ws = (aw)s), and a disagreement raises
RealizationError.  Each element keeps its right products in one slot per
generator, its tail aw, and its least right descent.  Each system keeps
a {word: Element} table and hands out one instance per canonical word;
`normal_form` of a canonical word reads that table.  The system also
keeps the elements recovered from matrices, keyed by matrix, and
memoizes Bruhat intervals and the pairs of the Bruhat order that
`bruhat_leq` has decided.  The word table holds every element and so
every slot, and all four tables live exactly as long as the
CoxeterSystem that owns them.  So does `ring`, the one PolyRing of the
modules built on the system, with its memos.  `make_system` hands out
one system per Coxeter and Cartan datum, so equal elements are one
object: elements and systems compare and hash by identity.

Words cross the API boundary 0-based as tuples of generator indices and
are serialized 1-based, as digit strings for rank <= 9 and comma
separated otherwise ("", "121", "2,10,3").
"""

from __future__ import annotations

import functools
import json
import weakref
from collections import namedtuple
from dataclasses import dataclass, field
from math import gcd

from .errors import InputError, RealizationError
from .gradedlin import PolyRing

__all__ = [
    "INFINITE",
    "CoxeterSystem",
    "Element",
    "Root",
    "make_system",
    "load_system",
    "normal_form",
    "multiply",
    "right_descents",
    "reflection_root",
    "bruhat_leq",
    "bruhat_interval",
    "element_ball",
    "parse_word",
    "word_str",
    "sort_key",
]

INFINITE = 0  # bond order m_st = infinity

# 4 cos^2(pi/m) for the realizable finite bond orders
_COS2X4 = {2: 0, 3: 1, 4: 2, 6: 3}

_DEFAULT_PAIR = {
    2: (0, 0),
    3: (-1, -1),
    4: (-1, -2),
    6: (-1, -3),
    INFINITE: (-2, -2),
}


def _tupmat(rows, name):
    """A list of lists of ints as a tuple of tuples; refuses, never converts."""
    seq = (list, tuple)
    if not isinstance(rows, seq) or not all(isinstance(r, seq) for r in rows):
        raise InputError(f"{name} matrix rows must be lists")
    if any(type(x) is not int for r in rows for x in r):
        raise InputError(f"{name} matrix entries must be integers")
    return tuple(tuple(r) for r in rows)


def _matmul(a, b):
    n = len(a)
    rng = range(n)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in rng) for j in rng) for i in rng
    )


def _identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _gen_left(system, s, a):
    """G_s a: row s becomes a[s] - sum_k a_sk a[k]; other rows are kept."""
    terms = system._cartan_terms[s]
    row = tuple(
        x - sum(c * a[k][j] for k, c in terms) for j, x in enumerate(a[s])
    )
    return a[:s] + (row,) + a[s + 1 :]


def _gen_right(system, s, a):
    """a G_s: column j loses a_sj times column s."""
    terms = system._cartan_terms[s]
    out = []
    for r in a:
        x = r[s]
        if x:
            r = list(r)
            for j, c in terms:
                r[j] -= c * x
            r = tuple(r)
        out.append(r)
    return tuple(out)


@dataclass(frozen=True)
class Root:
    """Primitive nonnegative integer coordinates in the simple-root basis
    of V*; see `reflection_root`."""

    coords: tuple

    def __str__(self):
        return "(" + ",".join(str(c) for c in self.coords) + ")"


@dataclass(frozen=True, eq=False)
class CoxeterSystem:
    """A Coxeter matrix together with a compatible integer Cartan matrix.

    Build systems with `make_system`, which hands out one per datum.
    """

    rank: int
    coxeter: tuple
    cartan: tuple

    @functools.cached_property
    def _cartan_terms(self):
        """Nonzero entries (j, a_sj) of each Cartan row s."""
        return tuple(
            tuple((j, c) for j, c in enumerate(row) if c) for row in self.cartan
        )

    @functools.cached_property
    def _elements(self):
        """{word: Element}: the one instance of each canonical word."""
        return {}

    @functools.cached_property
    def _by_matrix(self):
        """{matrix: Element} of the results of `_from_matrices`."""
        return {}

    @functools.cached_property
    def _interval_memo(self):
        """{word: tuple of Elements} of Bruhat intervals below an element."""
        return {}

    @functools.cached_property
    def _bruhat_memo(self):
        """{(y, x): y <= x} of every pair a `bruhat_leq` walk has visited."""
        return {}

    @functools.cached_property
    def ring(self):
        """The one PolyRing of the system: every moment graph on it, the
        regular one and the quotients, builds its modules over it, so
        they share its memos, which go when the system goes."""
        return PolyRing(self.rank)

    @functools.cached_property
    def _identity_matrix(self):
        return _identity(self.rank)

    @functools.cached_property
    def identity(self):
        m = self._identity_matrix
        return _intern(self, (), m, m)

    @functools.cached_property
    def generators(self):
        out = []
        for i in range(self.rank):
            m = _gen_right(self, i, self._identity_matrix)
            out.append(_intern(self, (i,), m, m))
        return tuple(out)

    def generator(self, s):
        """The generator of 0-based index s; InputError for any other s."""
        if not 0 <= s < self.rank:
            raise InputError(f"generator index {s} out of range")
        return self.generators[s]

    def element(self, word):
        return normal_form(self, word)

    def __str__(self):
        return f"CoxeterSystem(rank={self.rank})"


# {(coxeter, cartan): the live system}; holds no system alive
_SYSTEMS = weakref.WeakValueDictionary()


def make_system(coxeter, cartan=None) -> CoxeterSystem:
    """Validate a Coxeter matrix and (optional) Cartan matrix.

    Bond order infinity is written 0.  When `cartan` is omitted, each bond
    gets the standard realization: m=2 -> (0,0), m=3 -> (-1,-1),
    m=4 -> (-1,-2), m=6 -> (-1,-3), m=infinity -> (-2,-2).

    Equal data give one instance while it is alive: the registry holds
    each system weakly, so a system that nothing else holds is collected
    with its element table and memos, and a later call builds it anew.
    """
    cox = _tupmat(coxeter, "Coxeter")
    n = len(cox)
    if n == 0:
        raise InputError("empty Coxeter matrix")
    if any(len(row) != n for row in cox):
        raise InputError("Coxeter matrix must be square")
    for i in range(n):
        if cox[i][i] != 1:
            raise InputError("diagonal Coxeter entries must be 1")
        for j in range(n):
            if cox[i][j] != cox[j][i]:
                raise InputError("Coxeter matrix must be symmetric")
            if i != j:
                m = cox[i][j]
                if m == 5 or (m not in _COS2X4 and m != INFINITE):
                    raise InputError(
                        f"bond order {m} has no integer Cartan realization; "
                        "supported orders are 2, 3, 4, 6 and 0 (infinity)"
                    )
    if cartan is None:
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = 2
            for j in range(i + 1, n):
                a, b = _DEFAULT_PAIR[cox[i][j]]
                rows[i][j], rows[j][i] = a, b
        car = _tupmat(rows, "Cartan")
    else:
        car = _tupmat(cartan, "Cartan")
        if len(car) != n or any(len(r) != n for r in car):
            raise InputError("Cartan matrix shape must match the Coxeter matrix")
        for i in range(n):
            if car[i][i] != 2:
                raise InputError("diagonal Cartan entries must be 2")
            for j in range(n):
                if i != j:
                    if car[i][j] > 0:
                        raise InputError("off-diagonal Cartan entries must be <= 0")
                    m = cox[i][j]
                    prod = car[i][j] * car[j][i]
                    if m == INFINITE:
                        if prod < 4:
                            raise InputError(
                                "infinite bond order needs a_st*a_ts >= 4"
                            )
                    elif prod != _COS2X4[m]:
                        raise InputError(
                            f"bond order {m} needs a_st*a_ts = {_COS2X4[m]}, "
                            f"got {prod}"
                        )
    system = _SYSTEMS.get((cox, car))
    if system is None:
        system = _SYSTEMS[cox, car] = CoxeterSystem(n, cox, car)
    return system


def load_system(path) -> CoxeterSystem:
    """Read a system from a JSON file {"rank", "coxeter", "cartan"?}."""
    try:
        with open(path) as fh:
            data = json.load(fh)
        rank, coxeter = data["rank"], data["coxeter"]
    except KeyError as exc:
        raise InputError(f"bad system file: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad system file: {exc}") from exc
    system = make_system(coxeter, data.get("cartan"))
    if type(rank) is not int or rank != system.rank:
        raise InputError("rank does not match the Coxeter matrix size")
    return system


@dataclass(frozen=True, eq=False)
class Element:
    """Group element: canonical reduced word plus its action on V*.

    Build elements with `CoxeterSystem.element` or the arithmetic below,
    never directly: each system hands out one instance per canonical word,
    and there is one system per datum, so equal elements are the same
    object and compare and hash by identity.
    """

    system: CoxeterSystem
    word: tuple
    matrix: tuple
    inv_matrix: tuple = field(repr=False)
    length: int = field(init=False, repr=False)
    # the least right descent, None at the identity
    descent: int = field(init=False, repr=False)
    # [w s for each generator s], filled by _mul_gen
    _right: list = field(init=False, repr=False)
    # a w for a the first letter of the word, filled by _tail and _prepend
    _tail: Element = field(init=False, repr=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "length", len(self.word))
        object.__setattr__(self, "descent", _least_descent(self.matrix))
        object.__setattr__(self, "_right", [None] * self.system.rank)

    def __mul__(self, other):
        return multiply(self, other)

    def inverse(self):
        return _from_matrices(self.system, self.inv_matrix, self.matrix)

    def apply(self, coords):
        """Image of the covector with the given simple-root coordinates."""
        return tuple(
            sum(self.matrix[i][j] * coords[j] for j in range(self.system.rank))
            for i in range(self.system.rank)
        )

    def __str__(self):
        return word_str(self.word) or "e"

    def __repr__(self):
        return f"Element({self})"


def sort_key(w: Element):
    """Sort elements by (length, ShortLex word)."""
    return (len(w.word), w.word)


def _least_descent(mat):
    """The least s whose column of mat is nonpositive, or None.

    On an element's matrix this is its least right descent, and on its
    inverse matrix its least left descent.
    """
    for s in range(len(mat)):
        if all(row[s] <= 0 for row in mat):
            return s
    return None


_MAX_EXTRACT = 10_000


def _intern(system, word, mat, inv) -> Element:
    """The system's Element with this canonical word, built on first use."""
    table = system._elements
    w = table.get(word)
    if w is None:
        w = table[word] = Element(system, word, mat, inv)
    return w


def _from_matrices(system, mat, inv) -> Element:
    """Recover the canonical word of the element with the given matrices.

    Repeatedly strips the smallest left descent (the first letter of every
    reduced word is a left descent, so taking the minimum at each step
    yields the ShortLex-least reduced word).  The element is a function of
    its matrix, so each result is kept on the system, keyed by matrix, and
    a matrix met before costs one lookup.
    """
    memo = system._by_matrix
    w = memo.get(mat)
    if w is not None:
        return w
    ident = system._identity_matrix
    word = []
    a, ainv = mat, inv
    for _ in range(_MAX_EXTRACT):
        if a == ident:
            w = _intern(system, tuple(word), mat, inv)
            memo[w.matrix] = w
            return w
        s = _least_descent(ainv)
        if s is None:
            raise RealizationError(
                "non-identity matrix with no left descent; the realization "
                "is not reflection faithful"
            )
        word.append(s)
        a = _gen_left(system, s, a)
        ainv = _gen_right(system, s, ainv)
    raise RealizationError("reduced-word extraction did not terminate")


def normal_form(system: CoxeterSystem, word) -> Element:
    """Canonical Element of an arbitrary word in the generators.

    The system's table is keyed by canonical words, so a word found there
    is answered by its entry; any other word goes through its matrices.
    """
    if isinstance(word, str):
        raise InputError(
            "words are sequences of 0-based generator indices; "
            "parse text like '121' with parse_word(text, rank)"
        )
    word = tuple(word)
    for s in word:
        if not (0 <= s < system.rank):
            raise InputError(f"generator index {s} out of range")
    w = system._elements.get(word)
    if w is not None:
        return w
    mat = inv = system._identity_matrix
    for s in word:
        mat = _gen_right(system, s, mat)
        inv = _gen_left(system, s, inv)
    return _from_matrices(system, mat, inv)


def multiply(a: Element, b: Element) -> Element:
    if a.system is not b.system:
        raise InputError("elements of different systems")
    if b.length == 0:
        return a
    if b.length == 1:
        return _mul_gen(a, b.word[0])
    return _from_matrices(
        a.system, _matmul(a.matrix, b.matrix), _matmul(b.inv_matrix, a.inv_matrix)
    )


def _tail(w: Element) -> Element:
    """a w, for a the first letter of w's word: w's word without a."""
    tail = w._tail
    if tail is None:
        system, a = w.system, w.word[0]
        tail = _intern(
            system,
            w.word[1:],
            _gen_left(system, a, w.matrix),
            _gen_right(system, a, w.inv_matrix),
        )
        object.__setattr__(w, "_tail", tail)
    return tail


def _prepend(system, t, mat, inv, below) -> Element:
    """The element t below, whose matrices are mat and inv, with the word
    t word(below); refused unless G_t mat is below's matrix."""
    if _gen_left(system, t, mat) != below.matrix:
        raise RealizationError(
            f"the generator step to {word_str((t,) + below.word)} disagrees "
            "with its matrices"
        )
    w = _intern(system, (t,) + below.word, mat, inv)
    if w._tail is None:
        object.__setattr__(w, "_tail", below)
    return w


def _mul_gen(w: Element, s: int) -> Element:
    """w s, memoized in w's slot for s, by the step rule of the module
    docstring.

    While t = a, the step waits for (aw)s: the walk goes down the tails
    until a product is known or settles without one, then prepends the
    waiting first letters on the way back up.
    """
    ws = w._right[s]
    if ws is not None:
        return ws
    system = w.system
    waiting = []
    while ws is None:
        mat = _gen_right(system, s, w.matrix)
        inv = _gen_left(system, s, w.inv_matrix)
        t = _least_descent(inv)
        a = w.word[0] if w.word else None
        if t is None:
            if mat != system._identity_matrix:
                raise RealizationError(
                    "non-identity matrix with no left descent; the "
                    "realization is not reflection faithful"
                )
            ws = system.identity
        elif a is None or t < a:
            ws = _prepend(system, t, mat, inv, w)
        elif t > a:
            ws = _tail(w)
            if ws.matrix != mat:
                raise RealizationError(
                    f"{w} s{s + 1} is not s{a + 1} {w}, against the exchange "
                    "condition"
                )
        else:
            waiting.append((w, mat, inv))
            w = _tail(w)
            ws = w._right[s]
            continue
        w._right[s] = ws
    for w, mat, inv in reversed(waiting):
        ws = w._right[s] = _prepend(system, w.word[0], mat, inv, ws)
    return ws


def right_descents(w: Element):
    """Generators s with l(ws) < l(w), i.e. w(alpha_s) negative."""
    return {s for s in range(w.system.rank) if all(r[s] <= 0 for r in w.matrix)}


def _differ_by_rank_one(a, b):
    """True when the matrix a - b has rank one.

    Every nonzero row of a - b must be a multiple of the first one, which
    is a test of the 2x2 minors against that row.  For vertices y, z with
    matrices Y, Z, t = z y^-1 satisfies t - 1 = (Z - Y) Y^-1, so
    `_differ_by_rank_one(Z, Y)` tells whether t - 1 has rank one, as
    `_reflection_deviation(t)` does, without forming t.
    """
    lead = None
    for ra, rb in zip(a, b):
        row = [x - y for x, y in zip(ra, rb)]
        if lead is None:
            p = next((j for j, v in enumerate(row) if v), None)
            if p is not None:
                lead = row
        elif any(v * lead[p] != row[p] * u for v, u in zip(row, lead)):
            return False
    return lead is not None


def _reflection_deviation(w: Element):
    """The matrix of w minus the identity when it has rank one, else None.

    A rank-one deviation from the identity that fails to be an involution
    (or appears at even length) falsifies the realization and raises.  A
    rank-one D has D^2 = tr(D) D, so (1 + D)^2 = 1 exactly when tr(D) = -2.
    """
    system = w.system
    if not _differ_by_rank_one(w.matrix, system._identity_matrix):
        return None
    n = system.rank
    mat = [
        [w.matrix[i][j] - (1 if i == j else 0) for j in range(n)]
        for i in range(n)
    ]
    if sum(mat[i][i] for i in range(n)) != -2:
        raise RealizationError("rank-one element that is not an involution")
    if w.length % 2 == 0:
        raise RealizationError("reflection of even length")
    return mat


def reflection_root(w: Element) -> Root:
    """The positive root of a reflection, primitive in the root lattice.

    For an involution t with rank(t - 1) = 1, (t + 1)(t - 1) = 0, so the
    image of t - 1 is the (-1)-eigenline: the root is a multiple of any
    nonzero column of t - 1.  The column is scaled to make its last
    nonzero entry positive; the root must then be nonnegative, and a
    column of mixed signs is refused.
    """
    mat = _reflection_deviation(w)
    if mat is None:
        raise InputError(f"{w} is not a reflection")
    col = next(c for c in zip(*mat) if any(c))
    if next(v for v in reversed(col) if v) < 0:
        col = [-v for v in col]
    if any(v < 0 for v in col):
        raise RealizationError(f"reflection {w} has a mixed-sign root")
    g = gcd(*col)
    return Root(tuple(v // g for v in col))


def bruhat_leq(y: Element, x: Element) -> bool:
    """Bruhat order via the lifting property.

    With s the smallest right descent of x: y <= x iff min(y, ys) <= xs.
    The pairs (min(y, ys), xs) are walked in a loop until one is known
    or settles by length or equality, and the answer is memoized on the
    system for every pair the walk visited.  `bruhat_leq.cache_info()`
    gives the number of memo entries over the live systems as
    `currsize`; it exists for perfbench, which reports that count.
    """
    if y.system is not x.system:
        raise InputError("elements of different systems")
    memo = x.system._bruhat_memo
    leq = memo.get((y, x))
    if leq is not None:
        return leq
    walked = []
    while leq is None:
        walked.append((y, x))
        if y.length > x.length or y is x:
            leq = y is x
        else:
            s = x.descent
            ys = _mul_gen(y, s)
            if ys.length < y.length:
                y = ys
            x = _mul_gen(x, s)
            leq = memo.get((y, x))
    for pair in walked:
        memo[pair] = leq
    return leq


_MemoInfo = namedtuple("MemoInfo", "currsize")


def _bruhat_memo_info():
    """The size of `bruhat_leq`'s memos over the live systems."""
    systems = list(_SYSTEMS.values())
    return _MemoInfo(sum(len(s.__dict__.get("_bruhat_memo", ())) for s in systems))


bruhat_leq.cache_info = _bruhat_memo_info


def bruhat_interval(x: Element):
    """All y <= x, sorted by (length, ShortLex word).

    Uses the subword property: the interval below x is exactly the set of
    elements represented by subwords of one reduced expression of x.  The
    subword products are built by folding the word, I <- I u I s for each
    letter s in turn starting from I = {e}, so each element costs one
    generator step instead of one normal form per subword.  Intervals are
    memoized per system.
    """
    memo = x.system._interval_memo
    out = memo.get(x.word)
    if out is None:
        seen = {x.system.identity}
        for s in x.word:
            seen.update([_mul_gen(w, s) for w in seen])
        out = memo[x.word] = tuple(sorted(seen, key=sort_key))
    return out


def element_ball(system: CoxeterSystem, max_length: int):
    """All elements of length <= max_length, sorted by (length, word)."""
    layer = [system.identity]
    seen = {system.identity}
    for _ in range(max_length):
        nxt = []
        for w in layer:
            for s in range(system.rank):
                ws = _mul_gen(w, s)
                if ws.length > w.length and ws not in seen:
                    seen.add(ws)
                    nxt.append(ws)
        layer = nxt
        if not layer:
            break
    return sorted(seen, key=sort_key)


def parse_word(text: str, rank: int):
    """Parse a 1-based word string ("", "121", "2,10,3") to 0-based indices.

    The empty string and "e" both denote the identity.
    """
    text = text.strip()
    if not text or text == "e":
        return ()
    if "," in text:
        parts = text.split(",")
    else:
        parts = list(text)
    word = []
    for p in parts:
        p = p.strip()
        if not p.isdigit():
            raise InputError(f"bad word {text!r}: {p!r} is not a generator index")
        idx = int(p) - 1
        if not (0 <= idx < rank):
            raise InputError(
                f"bad word {text!r}: generator {p} out of range for rank {rank}"
            )
        word.append(idx)
    return tuple(word)


def word_str(word) -> str:
    """Serialize a 0-based word tuple to the 1-based string form."""
    if any(s > 8 for s in word):
        return ",".join(str(s + 1) for s in word)
    return "".join(str(s + 1) for s in word)

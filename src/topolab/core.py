"""Finite topological spaces with exact set operators.

Points are labeled 0..n-1 and subsets are integer bitmasks.  A finite
topology is the family of up-sets of its specialization preorder, so a
space stores each point's up-set row, the smallest open set holding it,
and derives the open family (every union of rows, in canonical order) when
first read.  All values are immutable and all operations are pure; each
space memoizes its derived objects in its own ``memo``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple


class TopologyError(ValueError):
    """Malformed space, subset, map or space file."""


# the largest carrier the explicit operators take: preopen and cover
# families scan all 2^n subsets
MAX_EXPLICIT_POINTS = 16


def bits(mask: int):
    """Iterate the set bits of a mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(points, n: int) -> int:
    m = 0
    for p in points:
        if not 0 <= p < n:
            raise TopologyError(f"point {p} outside carrier 0..{n - 1}")
        m |= 1 << p
    return m


def numeral(text: str) -> int | None:
    """The value of a string of ASCII digits, or None for any other string
    (``str.isdigit`` also accepts superscripts, which ``int`` rejects) and
    for one longer than ``int`` converts."""
    if not (text.isascii() and text.isdigit()):
        return None
    try:
        return int(text)
    except ValueError:  # beyond the interpreter's digit limit
        return None


def signed_numeral(text: str) -> int | None:
    """``numeral`` with an optional leading ``-``."""
    if text.startswith("-"):
        value = numeral(text[1:])
        return None if value is None else -value
    return numeral(text)


def points_of(mask: int) -> tuple[int, ...]:
    return tuple(bits(mask))


def _canon(opens) -> tuple[int, ...]:
    return tuple(sorted(set(opens), key=lambda m: (bin(m).count("1"), m)))


def up_sets(rows) -> tuple[int, ...]:
    """Every union of the up-set rows of a preorder, in canonical order: the
    opens of its topology.  Row x is the set of points above x."""
    opens = {0}
    for row in rows:
        opens |= {o | row for o in opens}
    return _canon(opens)


class TopClasses(NamedTuple):
    classes: frozenset  # each top class, as a mask
    top: int  # Top: the union of the top classes
    single: int  # S: the union of the one-point top classes


def top_classes(rows) -> TopClasses:
    """The top classes of the preorder whose up-set rows are ``rows``.

    A point x is top when every y >= x has y <= x; its top class [x] = up(x)
    is then open.  In a space of finite height every point lies below a top
    class.  A finite space reads its ``min_nbhd``, a skeleton the rows of its
    validation probe (``SkeletonSpace.top_patterns``)."""
    classes = frozenset(r for r in rows if all(rows[y] == r for y in bits(r)))
    # distinct top classes are disjoint, so their sum is their union
    return TopClasses(classes, sum(classes), sum(r for r in classes if r & (r - 1) == 0))


CLASS_FLAG_NAMES = (
    "open",
    "closed",
    "regular_open",
    "regular_closed",
    "preopen",
    "preclosed",
    "semi_open",
    "semi_closed",
    "semi_regular",
    "alpha_open",
    "delta_preopen",
    "delta_preclosed",
    "preregular",
    "pre_theta_open",
    "pre_theta_closed",
    "dense",
    "nowhere_dense",
    "locally_closed",
    "locally_dense",
)


@dataclass(frozen=True)
class ClassFlags:
    """Classification of one subset against the full zoo of set classes."""

    open: bool
    closed: bool
    regular_open: bool
    regular_closed: bool
    preopen: bool
    preclosed: bool
    semi_open: bool
    semi_closed: bool
    semi_regular: bool
    alpha_open: bool
    delta_preopen: bool
    delta_preclosed: bool
    preregular: bool
    pre_theta_open: bool
    pre_theta_closed: bool
    dense: bool
    nowhere_dense: bool
    locally_closed: bool
    locally_dense: bool

    def as_dict(self) -> dict[str, bool]:
        return {name: getattr(self, name) for name in CLASS_FLAG_NAMES}


# the set operators by name, in the order ``topolab ops`` prints them: the
# method of each, on ``FiniteSpace`` and on a skeleton's ``Config`` frame;
# ``skeleton.sym_operator`` answers the same names on skeletons
OPERATORS = {
    "int": "interior",
    "cl": "closure",
    "consolidation": "consolidation",
    "pcl": "preclosure",
    "pint": "preinterior",
    "scl": "semi_closure",
    "delta-cl": "delta_closure",
    "delta-pcl": "delta_preclosure",
    "pcl-theta": "pre_theta_closure",
}


@dataclass(frozen=True, init=False)
class FiniteSpace:
    """A topology on the carrier {0, .., n-1}, stored as its preorder:
    ``min_nbhd[x]`` is the up-set row of x, the smallest open set holding
    x.  Equality and hash come from ``(n, min_nbhd)``; ``opens`` is every
    union of rows, in canonical order (cardinality, then mask value).
    ``FiniteSpace(n, opens)`` checks an open family given in any order;
    ``from_rows(n, rows)`` checks that the rows form a preorder.
    """

    n: int
    min_nbhd: tuple[int, ...]

    def __init__(self, n: int, opens):
        if n < 1:
            raise TopologyError("carrier must have at least one point")
        full = (1 << n) - 1
        seen = set(opens)
        if len(seen) != len(opens):
            raise TopologyError("duplicate open sets")
        if 0 not in seen or full not in seen:
            raise TopologyError("opens must contain the empty set and the carrier")
        for m in seen:
            if m & ~full:
                raise TopologyError(f"open set {m:b} exceeds the carrier")
        rows = [full] * n
        for o in seen:
            for x in bits(o):
                rows[x] &= o
        # each open set is the union of the rows of its points, so the family
        # is a topology iff it holds every union of rows
        canon = up_sets(rows)
        if len(canon) != len(seen):
            for row in rows:
                if row not in seen:
                    raise TopologyError(
                        f"not closed under intersection: missing {points_of(row)}")
            missing = next(m for m in canon if m not in seen)
            raise TopologyError(f"not closed under union: missing {points_of(missing)}")
        self._store(n, rows)
        object.__setattr__(self, "opens", canon)

    @classmethod
    def from_rows(cls, n: int, rows) -> "FiniteSpace":
        """The space whose up-set row of point x is ``rows[x]``, checked in
        O(n^2) to be a preorder: each row holds its own point, fits the
        carrier and contains the row of each of its points."""
        if n < 1:
            raise TopologyError("carrier must have at least one point")
        rows = tuple(rows)
        if len(rows) != n:
            raise TopologyError(f"{len(rows)} up-set rows for {n} points")
        full = (1 << n) - 1
        for x, row in enumerate(rows):
            if row & ~full:
                raise TopologyError(f"up-set row of {x} exceeds the carrier")
            if not row >> x & 1:
                raise TopologyError(f"up-set row of {x} misses {x}")
            for y in bits(row):
                if rows[y] & ~row:
                    raise TopologyError(
                        f"not transitive: {x} <= {y}, but row {y} leaves row {x}")
        space = cls.__new__(cls)
        space._store(n, rows)
        return space

    def _store(self, n: int, rows):
        # past the frozen guard; a ``__dict__`` write would lose the compact layout
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "min_nbhd", tuple(rows))
        object.__setattr__(self, "full", (1 << n) - 1)

    # -- basic structure ------------------------------------------------

    @cached_property
    def opens(self) -> tuple[int, ...]:
        return up_sets(self.min_nbhd)

    def is_open(self, a: int) -> bool:
        return self.interior(a) == a

    def check_fits(self, a: int):
        if a & ~self.full:
            raise TopologyError(f"subset {a:b} does not fit carrier of size {self.n}")

    # -- primitive operators --------------------------------------------

    # the opens are the up-sets of the specialization preorder, so a point
    # is interior to ``a`` iff its minimal neighbourhood lies in ``a``, and
    # in the closure of ``a`` iff its minimal neighbourhood meets ``a``

    def interior(self, a: int) -> int:
        if a & ~self.full:
            self.check_fits(a)
        m = 0
        for x, u in enumerate(self.min_nbhd):
            if not u & ~a:
                m |= 1 << x
        return m

    def closure(self, a: int) -> int:
        if a & ~self.full:
            self.check_fits(a)
        m = 0
        for x, u in enumerate(self.min_nbhd):
            if u & a:
                m |= 1 << x
        return m

    def up(self, a: int) -> int:
        """The smallest open set holding ``a``: the union of its rows."""
        m = 0
        for x in bits(a):
            m |= self.min_nbhd[x]
        return m

    @cached_property
    def _min_regular_nbhd(self) -> tuple[int, ...]:
        """Smallest regular open set holding each point: int(cl(row))."""
        return tuple(self.interior(self.closure(u)) for u in self.min_nbhd)

    def delta_closure(self, a: int) -> int:
        self.check_fits(a)
        m = 0
        for x in range(self.n):
            if self._min_regular_nbhd[x] & a:
                m |= 1 << x
        return m

    @cached_property
    def tops(self) -> tuple[int, int]:
        """Top and S (``top_classes``) as masks."""
        tops = top_classes(self.min_nbhd)
        return tops.top, tops.single

    # -- derived operators -------------------------------------------------

    # Written once, over the primitives interior, closure, delta_closure and
    # up, plus ``full`` and ``tops``: ``skeleton.Config`` answers the same
    # names on the values of a frame and borrows these bodies.  None checks
    # its mask: each first hands ``a``, or ``full ^ a``, which has the same
    # bits outside the carrier, to a primitive that checks it.

    def consolidation(self, a: int) -> int:
        """int(cl(a)): the largest open set a dense-ish set fills."""
        return self.interior(self.closure(a))

    def preclosure(self, a: int) -> int:
        return a | self.closure(self.interior(a))

    def preinterior(self, a: int) -> int:
        """The largest preopen subset of S = ``a``: S & int(cl(S)).

        Let U be int(cl(S)) and P = S & U.  A point y of U lies in cl(S), so
        every open W around y meets S inside the open W & U: U lies in
        cl(P).  So P lies in U, inside int(cl(P)), and P is preopen.  A
        preopen Q inside S lies in int(cl(Q)), inside U, so in P."""
        return a & self.interior(self.closure(a))

    def semi_closure(self, a: int) -> int:
        return a | self.interior(self.closure(a))

    def is_delta_preopen(self, a: int) -> bool:
        return a & ~self.interior(self.delta_closure(a)) == 0

    def delta_preclosure(self, a: int) -> int:
        """The smallest delta-preclosed superset of ``a``: the complement of
        the largest delta-preopen subset of the complement S, which is
        S & int(cl_delta(S)).

        U = int(cl_delta(S)) is regular open, the complement of the closure
        of the union of the regular open sets that miss S.  A regular open W
        around a point y of U holds the regular open int(cl(W & U)) around
        y, inside W & U, which meets S as y lies in cl_delta(S); so U lies
        in cl_delta(S & U), and S & U lies in U, inside
        int(cl_delta(S & U)): it is delta-preopen.  A delta-preopen subset
        Q of S lies in int(cl_delta(Q)), inside U, so in S & U."""
        rest = self.full ^ a
        return self.full ^ (rest & self.interior(self.delta_closure(rest)))

    def pre_theta_closure(self, a: int) -> int:
        """pcl_theta(a) = a | cl((Top & int a) | (S & up a)).

        A set is preopen iff every top class above each of its points meets
        it, so the smallest preopen sets around x are {x} plus one point from
        each top class above x.  For x outside ``a`` one of them has a
        preclosure U | cl(int U) missing ``a`` (int U holds at most x and the
        one-point tops above x, which every such U holds) unless a top class
        above x lies inside ``a`` or a one-point top above x lies in up(a).
        """
        top, single = self.tops
        # ``interior`` comes first: it checks ``a`` before ``up`` reads it
        return a | self.closure(top & self.interior(a) | single & self.up(a))

    # -- preopen families --------------------------------------------------

    @cached_property
    def preopen_masks(self) -> tuple[int, ...]:
        return _canon(
            a for a in range(self.full + 1) if a & ~self.consolidation(a) == 0
        )

    @cached_property
    def preclosed_masks(self) -> tuple[int, ...]:
        """Complements of the preopen sets, in increasing mask order."""
        return tuple(sorted(self.full ^ a for a in self.preopen_masks))

    @cached_property
    def _preopen_pcl(self) -> tuple[tuple[int, int], ...]:
        return tuple((v, self.preclosure(v)) for v in self.preopen_masks)

    def operator(self, name: str, a: int) -> int:
        """The operator ``name`` of ``OPERATORS`` applied to ``a``."""
        if name not in OPERATORS:
            raise TopologyError(f"unknown operator {name!r}")
        return getattr(self, OPERATORS[name])(a)

    # -- the memo ------------------------------------------------------------

    @cached_property
    def memo(self) -> dict:
        """Results computed from this space, keyed by a tag and their
        arguments: class flags, subspaces, cover families and verdicts; on
        a ``SkeletonSpace``, which borrows this memo and ``recall``, also
        operator results and ``Config`` layouts, keyed by a template's
        counts or group kinds (not by a SymbolicSet, whose hash walks the
        space).  Only results are stored, never an exception."""
        return {}

    def recall(self, key, compute):
        """``compute()``, memoized under ``key``; nothing is stored when it
        raises."""
        memo = self.memo
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    # -- classification ----------------------------------------------------

    def classify(self, a: int) -> ClassFlags:
        return self.recall(("flags", a), lambda: self.class_flags(a))

    def class_flags(self, a: int) -> ClassFlags:
        """Every class flag of ``a``, by int comparisons of what the
        primitives and the derived operators give; ``Config`` borrows this
        body too.  ``closure`` checks ``a`` first."""
        cl_a = self.closure(a)
        int_a = self.interior(a)
        int_cl = self.interior(cl_a)
        cl_int = self.closure(int_a)
        preopen = a & ~int_cl == 0
        preclosed = cl_int & ~a == 0
        semi_open = a & ~cl_int == 0
        semi_closed = int_cl & ~a == 0
        pth = self.pre_theta_closure(a)
        pth_c = self.pre_theta_closure(self.full ^ a)
        return ClassFlags(
            open=int_a == a,
            closed=cl_a == a,
            regular_open=a == int_cl,
            regular_closed=a == cl_int,
            preopen=preopen,
            preclosed=preclosed,
            semi_open=semi_open,
            semi_closed=semi_closed,
            semi_regular=semi_open and semi_closed,
            alpha_open=a & ~self.interior(self.closure(int_a)) == 0,
            delta_preopen=self.is_delta_preopen(a),
            delta_preclosed=self.is_delta_preopen(self.full ^ a),
            preregular=preopen and preclosed,
            pre_theta_open=pth_c == self.full ^ a,
            pre_theta_closed=pth == a,
            dense=cl_a == self.full,
            nowhere_dense=int_cl == 0,
            locally_closed=self.up(a) & cl_a == a,
            locally_dense=preopen,
        )

    # -- derived spaces ------------------------------------------------------

    def subspace(self, a: int) -> tuple["FiniteSpace", tuple[int, ...]]:
        """Relative topology on ``a``, plus the old labels of the new points.

        Kept in the memo, so equal subspaces of one space are one object
        whose memo stays warm."""
        return self.recall(("subspace", a), lambda: self._subspace(a))

    def _subspace(self, a: int):
        self.check_fits(a)
        if a == 0:
            raise TopologyError("empty subspace rejected")
        pts = points_of(a)
        index = {p: i for i, p in enumerate(pts)}
        rows = [sum(1 << index[q] for q in bits(self.min_nbhd[p] & a))
                for p in pts]
        return FiniteSpace.from_rows(len(pts), rows), pts

    def __str__(self):
        sets = ",".join("{" + " ".join(map(str, points_of(o))) + "}" for o in self.opens)
        return f"FiniteSpace(n={self.n}, opens=[{sets}])"


def build_space(n: int, generators) -> FiniteSpace:
    """Smallest topology on ``n`` points containing every generator: the
    up-set row of a point is the intersection of the generators holding it."""
    if n < 1:
        raise TopologyError("carrier must have at least one point")
    full = (1 << n) - 1
    rows = [full] * n
    for g in generators:
        if g & ~full:
            raise TopologyError(f"generator {g:b} does not fit carrier of size {n}")
        for x in bits(g):
            rows[x] &= g
    return FiniteSpace.from_rows(n, rows)


def product(x: FiniteSpace, y: FiniteSpace) -> FiniteSpace:
    """Product topology with row-major point order: (p, q) -> p*|Y| + q.
    The up-set row of (p, q) is the product of the rows of p and q."""
    rows = [sum(v << (p * y.n) for p in bits(u))
            for u in x.min_nbhd for v in y.min_nbhd]
    return FiniteSpace.from_rows(x.n * y.n, rows)


@dataclass(frozen=True)
class MapFlags:
    continuous: bool
    precontinuous: bool
    preirresolute: bool


@dataclass(frozen=True)
class SpaceMap:
    """A point map between two finite spaces."""

    domain: FiniteSpace
    codomain: FiniteSpace
    assignment: tuple[int, ...]

    def __post_init__(self):
        if len(self.assignment) != self.domain.n:
            raise TopologyError("assignment length must equal the domain carrier")
        for q in self.assignment:
            if not 0 <= q < self.codomain.n:
                raise TopologyError(f"image point {q} outside codomain")

    def image(self, a: int) -> int:
        m = 0
        for p in bits(a):
            m |= 1 << self.assignment[p]
        return m

    def preimage(self, b: int) -> int:
        m = 0
        for p, q in enumerate(self.assignment):
            if b >> q & 1:
                m |= 1 << p
        return m


def map_classify(f: SpaceMap) -> MapFlags:
    x, y = f.domain, f.codomain
    continuous = all(x.is_open(f.preimage(v)) for v in y.opens)
    po_x = frozenset(x.preopen_masks)
    precontinuous = all(f.preimage(v) in po_x for v in y.opens)
    preirresolute = all(f.preimage(v) in po_x for v in y.preopen_masks)
    return MapFlags(continuous, precontinuous, preirresolute)


# -- the .topo text format ---------------------------------------------------


def parse_topo(text: str) -> FiniteSpace:
    """Parse the ``.topo`` format: ``points N`` then one ``open ...`` per line.

    The empty set and the full carrier may be omitted.  ``N`` is at most
    ``MAX_EXPLICIT_POINTS``.  The listed family must already be a topology;
    the constructor names a missing intersection or union.
    """
    n = None
    fam = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "points":
            if n is not None:
                raise TopologyError(f"line {lineno}: duplicate points declaration")
            n = numeral(parts[1]) if len(parts) == 2 else None
            if n is None or n < 1:
                raise TopologyError(f"line {lineno}: expected 'points N' with N >= 1")
            if n > MAX_EXPLICIT_POINTS:  # before any set of n bits is built
                raise TopologyError(f"line {lineno}: {n} points exceed the limit of "
                                    f"{MAX_EXPLICIT_POINTS} for explicit spaces")
        elif parts[0] == "open":
            if n is None:
                raise TopologyError(f"line {lineno}: 'open' before 'points'")
            pts = [numeral(t) for t in parts[1:]]
            if None in pts:
                raise TopologyError(f"line {lineno}: non-integer point label")
            fam.add(mask_of(pts, n))
        else:
            raise TopologyError(f"line {lineno}: unknown directive {parts[0]!r}")
    if n is None:
        raise TopologyError("missing 'points N' line")
    return FiniteSpace(n, tuple(fam | {0, (1 << n) - 1}))


# -- named tiny spaces used throughout the tests -----------------------------


def sierpinski() -> FiniteSpace:
    return build_space(2, [0b10])


def indiscrete(n: int) -> FiniteSpace:
    return build_space(n, [])


def discrete(n: int) -> FiniteSpace:
    return build_space(n, [1 << i for i in range(n)])


def excluded_point(n: int, p: int = 0) -> FiniteSpace:
    """All sets avoiding ``p`` are open; only the whole space contains it."""
    gens = [1 << i for i in range(n) if i != p]
    return build_space(n, gens)

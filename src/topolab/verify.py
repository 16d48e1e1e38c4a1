"""Topology enumeration, the claim registry, exhaustive claim checking,
and counterexample hunts.

Claims are universally quantified statements whose predicates are built
from the operator, property and filter checkers.  Each claim has an
instance-level predicate over native instances: its sets, under
``"sets"``, are masks of a finite space or templates of a skeleton, and a
map's codomain is a space.  An instance becomes JSON only in a violation
record (``_instance_json``), and ``replay`` reads it back
(``_instance_from_json``), so any recorded violation can be replayed
bit-for-bit.  Unknown verdicts on skeletons are never counted as pass or
fail; they land in a separate bucket of the report.
"""

from __future__ import annotations

import itertools
import random
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache

from topolab import filters as flt
from topolab.core import (
    FiniteSpace,
    SpaceMap,
    bits,
    map_classify,
    mask_of,
    numeral,
    points_of,
    product,
    signed_numeral,
    up_sets,
)
from topolab.properties import (
    COVER_PROPERTIES,
    SIMPLE_PROPERTIES,
    check_cover,
    check_cover_relative,
    check_simple,
    classified_templates,
    flagged,
)
from topolab.skeleton import (
    SkeletonError,
    SkeletonSpace,
    SymbolicSet,
    catalog,
    format_skel,
    parse_skel,
    remark_product_factors,
    restrict,
    sym_complement,
)


# -- enumeration of all labeled topologies -------------------------------------


def topologies_by_family_scan(n: int) -> tuple[FiniteSpace, ...]:
    """Brute-force scan of all set families on the powerset lattice."""
    if not 1 <= n <= 4:
        raise ValueError("family scan supported for 1 <= n <= 4")
    full = (1 << n) - 1
    middle = [m for m in range(full + 1) if m not in (0, full)]
    out = []
    for pick in range(1 << len(middle)):
        fam = {0, full}
        for i, m in enumerate(middle):
            if pick >> i & 1:
                fam.add(m)
        ok = True
        for a in fam:
            if not ok:
                break
            for b in fam:
                if a | b not in fam or a & b not in fam:
                    ok = False
                    break
        if ok:
            out.append(FiniteSpace(n, tuple(fam)))
    out.sort(key=lambda sp: sp.opens)
    return tuple(out)


def _one_point_extensions(level, k: int):
    """The up-set rows of every extension of each preorder on k points in
    ``level`` (given by its rows) by a new point k.

    The new point picks the points above it (an open set U of the parent)
    and the points below it (a closed set D), with U inside the row of
    every point of D so the relation stays transitive.  Each point of D
    gains k in its row, and the row of k is U | {k}.
    """
    full, new = (1 << k) - 1, 1 << k
    for rows in level:
        opens = up_sets(rows)
        for o in opens:
            down = full ^ o
            cap = full
            for x in bits(down):
                cap &= rows[x]
            lifted = tuple(r | new if down >> x & 1 else r
                           for x, r in enumerate(rows))
            for up in opens:
                if not up & ~cap:
                    yield lifted + (up | new,)


def topologies_by_preorder(n: int) -> tuple[FiniteSpace, ...]:
    """Grow every preorder one point at a time; opens are its up-sets."""
    if not 1 <= n <= 5:
        raise ValueError("preorder enumeration supported for 1 <= n <= 5")
    level = [()]  # the one preorder on the empty carrier
    for k in range(n):
        level = list(_one_point_extensions(level, k))
    # in the order of the open families, without keeping them
    level.sort(key=up_sets)
    return tuple(FiniteSpace.from_rows(n, rows) for rows in level)


_TOPOLOGY_CACHE: dict[int, tuple] = {}


def all_topologies(n: int) -> tuple[FiniteSpace, ...]:
    """Every labeled topology on n points, 1 <= n <= 5."""
    if not 1 <= n <= 5:
        raise ValueError("all_topologies supports 1 <= n <= 5")
    if n not in _TOPOLOGY_CACHE:
        _TOPOLOGY_CACHE[n] = topologies_by_preorder(n)
    return _TOPOLOGY_CACHE[n]


# -- homeomorphism classes -------------------------------------------------------


def _signature(sp: FiniteSpace):
    """Each point's (|row x|, |cl{x}|), and what a homeomorphism keeps of
    the whole space."""
    points = [(bin(u).count("1"), bin(sp.closure(1 << x)).count("1"))
              for x, u in enumerate(sp.min_nbhd)]
    return points, (sp.n, sorted(bin(o).count("1") for o in sp.opens), sorted(points))


def homeomorphic(a: FiniteSpace, b: FiniteSpace) -> bool:
    (sig_a, whole_a), (sig_b, whole_b) = _signature(a), _signature(b)
    if whole_a != whole_b:
        return False
    opens_b = set(b.opens)
    assign = [None] * a.n
    used = [False] * b.n

    def image(mask):
        m = 0
        for x in bits(mask):
            m |= 1 << assign[x]
        return m

    def backtrack(x):
        if x == a.n:
            return all(image(o) in opens_b for o in a.opens)
        for y in range(b.n):
            if used[y] or sig_a[x] != sig_b[y]:
                continue
            assign[x] = y
            used[y] = True
            if backtrack(x + 1):
                return True
            used[y] = False
        return False

    return backtrack(0)


def homeomorphism_classes(spaces) -> list[list[int]]:
    """Partition indices of the given finite spaces by homeomorphism."""
    spaces = list(spaces)
    classes: list[list[int]] = []
    for i, sp in enumerate(spaces):
        for cls in classes:
            if homeomorphic(sp, spaces[cls[0]]):
                cls.append(i)
                break
        else:
            classes.append([i])
    return classes


# -- universes ----------------------------------------------------------------------


CATALOG_UNIVERSE = (
    "sierpinski",
    "indiscrete-2",
    "indiscrete-3",
    "discrete-2",
    "discrete-3",
    "excluded-point-3",
    "e1iii",
    "excluded-point-omega",
    "excluded-point-omega-isolated",
    "indiscrete-omega",
    "discrete-omega",
    "remark-product",
)


@dataclass(frozen=True)
class Universe:
    """A reproducible iterator over spaces."""

    kind: str  # exhaustive | sampled | catalog | explicit
    n: int | None = None
    seed: int | None = None
    count: int | None = None
    explicit: tuple = ()

    @staticmethod
    def parse(text: str) -> "Universe":
        """``catalog``, ``exhaustive:<n>`` or ``sampled:<n>:<seed>:<count>``,
        each number in ASCII digits, the seed with an optional leading -."""
        kind, *fields = text.split(":")
        if kind == "catalog" and not fields:
            return Universe("catalog")
        values = [numeral(f) for f in fields]
        if kind == "sampled" and len(fields) == 3:
            values[1] = signed_numeral(fields[1])
        if None in values or (kind, len(values)) not in (("exhaustive", 1), ("sampled", 3)):
            raise ValueError(f"bad universe spec {text!r}")
        universe = Universe(kind, *values)
        if not 1 <= universe.n <= 5:
            raise ValueError(f"universe {text!r}: n must be 1..5")
        return universe

    def label(self) -> str:
        if self.kind == "exhaustive":
            return f"exhaustive:{self.n}"
        if self.kind == "sampled":
            return f"sampled:{self.n}:{self.seed}:{self.count}"
        return self.kind

    def to_json(self):
        return {"kind": self.kind, "n": self.n, "seed": self.seed,
                "count": self.count}

    def spaces(self):
        if self.kind == "exhaustive":
            for i, sp in enumerate(all_topologies(self.n)):
                yield f"n{self.n}#{i}", sp
        elif self.kind == "sampled":
            rng = random.Random(self.seed)
            pool = all_topologies(self.n)
            idxs = sorted(rng.sample(range(len(pool)), min(self.count, len(pool))))
            for i in idxs:
                yield f"n{self.n}#{i}", pool[i]
        elif self.kind == "catalog":
            for name in CATALOG_UNIVERSE:
                yield name, catalog(name).space
        elif self.kind == "explicit":
            for label, sp in self.explicit:
                yield label, sp
        else:
            raise ValueError(f"unknown universe kind {self.kind!r}")


# -- shared claim helpers -------------------------------------------------------------


def space_to_json(space) -> dict:
    if isinstance(space, FiniteSpace):
        return {"kind": "finite", "n": space.n,
                "opens": [list(points_of(o)) for o in space.opens]}
    return {"kind": "skeleton", "skel": format_skel(space)}


def space_from_json(data) -> FiniteSpace | SkeletonSpace:
    """The space a JSON record names; equal JSON gives one object."""
    if data["kind"] == "finite":
        n = data["n"]
        return _parsed_space((n, tuple(mask_of(pts, n) for pts in data["opens"])))
    return _parsed_space(data["skel"])


# the replays of one claim's violations share a space, and those of a map
# claim a few codomains, so their memos stay warm
PARSED_SPACES = 256


@lru_cache(maxsize=PARSED_SPACES)
def _parsed_space(key) -> FiniteSpace | SkeletonSpace:
    """A finite space by ``(n, opens)``, a skeleton by its text."""
    if isinstance(key, str):
        return parse_skel(key)
    return FiniteSpace(*key)


def _instance_json(space, inst: dict) -> dict:
    """A claim instance as its violation record writes it: the sets become
    ``"subsets"`` (point lists) on a finite space and ``"templates"`` on a
    skeleton, a codomain its space JSON; other keys keep value and place."""
    out = {}
    for key, value in inst.items():
        if key == "sets" and isinstance(space, FiniteSpace):
            out["subsets"] = [list(points_of(a)) for a in value]
        elif key == "sets":
            out["templates"] = [t.to_json() for t in value]
        else:
            out[key] = space_to_json(value) if key == "codomain" else value
    return out


def _instance_from_json(space, data: dict) -> dict:
    """The claim instance a violation record names (``_instance_json``
    inverted)."""
    out = {}
    for key, value in data.items():
        if key == "subsets":
            out["sets"] = [mask_of(pts, space.n) for pts in value]
        elif key == "templates":
            out["sets"] = [SymbolicSet.from_json(space, t) for t in value]
        else:
            out[key] = space_from_json(value) if key == "codomain" else value
    return out


@dataclass
class Ctx:
    rng: random.Random
    exhaustive: bool = False
    budget: int = 64


def _subsets(space: FiniteSpace, ctx: Ctx):
    if space.n <= 3 or ctx.exhaustive:
        yield from range(space.full + 1)
    else:
        for _ in range(ctx.budget):
            yield ctx.rng.randrange(space.full + 1)


def _subset_pairs(space: FiniteSpace, ctx: Ctx):
    if space.n <= 3 or ctx.exhaustive:
        for a in range(space.full + 1):
            for b in range(space.full + 1):
                yield a, b
    else:
        for _ in range(ctx.budget):
            yield ctx.rng.randrange(space.full + 1), ctx.rng.randrange(space.full + 1)


def _sub_mask(relabel, mask_parent: int) -> int:
    out = 0
    for i, p in enumerate(relabel):
        if mask_parent >> p & 1:
            out |= 1 << i
    return out


def _parent_mask(relabel, mask_sub: int) -> int:
    out = 0
    for i, p in enumerate(relabel):
        if mask_sub >> i & 1:
            out |= 1 << p
    return out


def _cover_outcome(space, prop):
    return check_cover(space, prop).outcome


def _relative_p_closed(space, a):
    return check_cover_relative(space, a, "p-closed").outcome


def _bool3_and(*vals):
    """Three-valued conjunction for hypothesis chains."""
    if any(v is False for v in vals):
        return False
    if any(v is None for v in vals):
        return None
    return True


def _implies(hypothesis, conclusion):
    """Three-valued implication: a False hypothesis gives True, an Unknown
    (None) one gives None without calling ``conclusion``, and a True one
    gives ``conclusion()``."""
    if hypothesis is None:
        return None
    return conclusion() if hypothesis else True


def _every(values):
    """Three-valued "for all" over lazily read values: the first that is
    not True (False, or None for Unknown) decides, else True."""
    for v in values:
        if v is not True:
            return v
    return True


def _same(a, b):
    """Unknown-aware equality: None if either side is None, else a == b."""
    if a is None or b is None:
        return None
    return a == b


def _complement(space, a):
    if isinstance(space, FiniteSpace):
        return space.full ^ a
    return sym_complement(space, a)


def _trivial(space, a) -> bool:
    """Is the set empty or the whole carrier?"""
    if isinstance(space, FiniteSpace):
        return a in (0, space.full)
    return a.is_empty() or a.is_full()


def subspace_p_closed(space, a):
    """p-closedness of the subspace carried by a mask or a template, or
    None.  The empty subspace is p-closed.

    FIN groups have no definite size; the verdict must agree for two
    realizations or it is not trusted.
    """
    if isinstance(space, FiniteSpace):
        return not a or check_cover(space.subspace(a)[0], "p-closed").outcome
    if a.is_empty():
        return True
    outcomes = set()
    for fin_as in (1, 2):
        try:
            sub = restrict(space, a, fin_as=fin_as)
        except SkeletonError:
            return None
        outcomes.add(check_cover(sub, "p-closed").outcome)
    if len(outcomes) == 1:
        return outcomes.pop()
    return None


def _split_forces_p_closed(space, flag, verdict):
    """Whether a proper set with the class ``flag`` and its complement, both
    p-closed by ``verdict``, force the space p-closed: the first such split
    gives the space's p-closedness, an Unknown met first gives Unknown, and
    no split gives True."""
    for a in flagged(space, flag):
        if _trivial(space, a):
            continue
        v1 = verdict(space, a)
        v2 = verdict(space, _complement(space, a))
        if v1 is True and v2 is True:
            return _cover_outcome(space, "p-closed")
        if v1 is None or v2 is None:
            return None
    return True


# -- claim registry ---------------------------------------------------------------------


@dataclass(frozen=True)
class Claim:
    """A claim and everything the runner needs of it.  A claim about single
    universe members has ``gen(space, ctx)``, which yields its instances on
    a member, and ``pred(space, inst)``, which judges one: True, False, or
    None for Unknown.  A claim about a universe as a whole has
    ``run(universe)`` instead, returning ``(checked, violations, unknowns,
    extra)``.  ``summary(universe)``, if set, adds to a report's extra."""

    id: str
    description: str
    kinds: tuple  # subset of ("finite", "skeleton", "universe")
    expected_status: str = "theorem"
    gen: Callable | None = None
    pred: Callable | None = None
    run: Callable | None = None
    summary: Callable | None = None


CLAIMS: dict[str, Claim] = {}


def _claim(cid, description, kinds, gen, **fields):
    """Register the decorated ``pred(space, inst)`` as claim ``cid``, with
    its instance generator ``gen``."""
    def deco(pred):
        CLAIMS[cid] = Claim(cid, description, kinds, gen=gen, pred=pred, **fields)
        return pred

    return deco


def _universe_claim(cid, description):
    """Register the decorated ``run(universe)`` as claim ``cid``, which is
    about a universe as a whole."""
    def deco(run):
        CLAIMS[cid] = Claim(cid, description, ("universe",), run=run)
        return run

    return deco


def _whole_space_gen(space, ctx):
    yield {}


def _sets(flag=None, nonempty=False):
    """A generator of one-set instances: each subset a finite space draws,
    whose predicate tests the hypothesis, or each template of a skeleton
    with the class flag (and nonempty, if asked)."""
    def gen(space, ctx):
        if isinstance(space, FiniteSpace):
            sets = _subsets(space, ctx)
        elif flag is None:
            sets = (t for t, _flags in classified_templates(space))
        else:
            sets = (t for t in flagged(space, flag) if not (nonempty and t.is_empty()))
        for s in sets:
            yield {"sets": [s]}

    return gen


def _pairs(space, ctx):
    for a, b in _subset_pairs(space, ctx):
        yield {"sets": [a, b]}


def _maps(onto: bool):
    """A generator of map instances into the spaces of 1 to 3 points: every
    map from a carrier of 3 points or fewer, else ``ctx.budget`` drawn ones;
    only the surjections when ``onto``."""
    def every_map(space, ctx):
        for m in range(1, 4):
            for cod in all_topologies(m):
                for values in itertools.product(range(m), repeat=space.n):
                    yield cod, list(reversed(values))  # point 0 turns fastest

    def drawn_maps(space, ctx):
        for _ in range(ctx.budget):
            m = ctx.rng.randint(1, 3)
            cod = ctx.rng.choice(all_topologies(m))
            yield cod, [ctx.rng.randrange(m) for _ in range(space.n)]

    def gen(space, ctx):
        for cod, assignment in (drawn_maps if space.n > 3 else every_map)(space, ctx):
            if not onto or len(set(assignment)) == cod.n:
                yield {"codomain": cod, "assignment": assignment}

    return gen


# T1: QHC and strongly irresolvable imply p-closed


@_claim("T1", "qhc and strongly-irresolvable imply p-closed",
        ("finite", "skeleton"), _whole_space_gen)
def _t1(space, inst):
    h = _bool3_and(_cover_outcome(space, "qhc"),
                   check_simple(space, "strongly-irresolvable"))
    return _implies(h, lambda: _cover_outcome(space, "p-closed"))


@_claim("C1", "for strongly-irresolvable or submaximal spaces, "
              "p-closed and qhc coincide", ("finite", "skeleton"), _whole_space_gen)
def _c1(space, inst):
    if not (check_simple(space, "strongly-irresolvable")
            or check_simple(space, "submaximal")):
        return True
    return _same(_cover_outcome(space, "p-closed"), _cover_outcome(space, "qhc"))


@_claim("T2", "p-closed t0 spaces are strongly irresolvable",
        ("finite", "skeleton"), _whole_space_gen)
def _t2(space, inst):
    h = _bool3_and(_cover_outcome(space, "p-closed"), check_simple(space, "t0"))
    return _implies(h, lambda: check_simple(space, "strongly-irresolvable"))


@_claim("T3", "on t0 spaces: p-closed iff qhc and strongly irresolvable",
        ("finite", "skeleton"), _whole_space_gen)
def _t3(space, inst):
    if not check_simple(space, "t0"):
        return True
    pc = _cover_outcome(space, "p-closed")
    qhc = _cover_outcome(space, "qhc")
    if _same(pc, qhc) is None:
        return None
    return pc == (qhc and check_simple(space, "strongly-irresolvable"))


@_claim("T4", "p-closed plus aleph0-ed gives nearly compact; "
              "plus extremally disconnected gives s-closed",
        ("finite", "skeleton"), _whole_space_gen)
def _t4(space, inst):
    """An Unknown conclusion decides even after a False one: the two
    conclusions are read in order, and the first Unknown gives Unknown."""
    def conclusion():
        ok = True
        for flag, prop in (("aleph0-ed", "nearly-compact"),
                           ("extremally-disconnected", "s-closed")):
            if check_simple(space, flag):
                v = _cover_outcome(space, prop)
                if v is None:
                    return None
                ok = ok and v
        return ok

    return _implies(_cover_outcome(space, "p-closed"), conclusion)


def _t41_instances(space, ctx):
    # clause (c) is exhaustive over principal bases everywhere; raw
    # antichain-generated bases are sampled on carriers of 4+ points
    yield {"samples": flt.SAMPLED_BASES if space.n >= 4 else 0}


def _t41_clause_c_note(universe) -> dict:
    """How clause (c) was checked, on a universe of carriers of 4+ points."""
    if universe.kind in ("exhaustive", "sampled") and (universe.n or 0) >= 4:
        return {"clause_c": "exhaustive over principal bases; antichain-generated "
                f"bases sampled ({flt.SAMPLED_BASES} draws per space, each "
                "checked whole)"}
    return {}


@_claim("T41", "the four faces of p-closedness agree", ("finite",),
        _t41_instances, summary=_t41_clause_c_note)
def _t41(space, inst):
    rng = random.Random(f"t41|{space.opens}")
    a, b, c, d = flt.check_t41(space, rng, samples=inst.get("samples", 0))
    return a == b == c == d


# each rung: a p-regularity and the compactness it gives a p-closed space
T42_LADDER = (
    ("strongly-p-regular", "strongly-compact"),
    ("p-regular", "compact"),
    ("almost-p-regular", "nearly-compact"),
)


@_claim("T42", "p-closed plus the p-regularity ladder gives the "
               "compactness ladder", ("finite", "skeleton"), _whole_space_gen)
def _t42(space, inst):
    """The first rung whose regularity holds and whose compactness is not
    True decides."""
    return _implies(_cover_outcome(space, "p-closed"), lambda: _every(
        _cover_outcome(space, comp) for reg, comp in T42_LADDER
        if check_simple(space, reg)))


def _t43_instances(space, ctx):
    for s in _subsets(space, ctx):
        yield {"sets": [s], "samples": 30}


@_claim("T43", "the four relative faces agree for every subset", ("finite",),
        _t43_instances)
def _t43(space, inst):
    s = inst["sets"][0]
    rng = random.Random(f"t43|{space.opens}|{s}")
    a, b, c, d = flt.check_t43(space, s, rng, samples=inst.get("samples", 0))
    return a == b == c == d


@_claim("P41", "preopen sets have pre-theta-closure equal to preclosure; "
               "preregular sets are pre-theta-closed; semi-open sets have "
               "preclosure equal to closure", ("finite", "skeleton"), _sets())
def _p41(space, inst):
    a = inst["sets"][0]
    flags = space.classify(a)
    if flags.preopen:
        if space.operator("pcl-theta", a) != space.operator("pcl", a):
            return False
    if flags.preregular and not flags.pre_theta_closed:
        return False
    if flags.semi_open:
        if space.operator("pcl", a) != space.operator("cl", a):
            return False
    return True


@_claim("L2A", "preopen intersected with semi-open is preopen in the "
               "subspace; preopen in a preopen subspace is preopen",
        ("finite",), _pairs)
def _l2a(space, inst):
    a, b = inst["sets"]
    ok = True
    if b:
        fa = space.classify(a)
        fb = space.classify(b)
        sub, relabel = space.subspace(b)
        if fa.preopen and fb.semi_open:
            ok = ok and sub.classify(_sub_mask(relabel, a & b)).preopen
        if fb.preopen and a & ~b == 0:
            if sub.classify(_sub_mask(relabel, a)).preopen:
                ok = ok and space.classify(a).preopen
    return ok


@_claim("L2", "relative preclosure inside a semi-open subspace is below "
              "the ambient preclosure", ("finite",), _pairs,
        expected_status="empirical")
def _l2(space, inst):
    a, b = inst["sets"]  # the semi-open superset, the subset
    if not a or b & ~a or not space.classify(a).semi_open:
        return True
    sub, relabel = space.subspace(a)
    pcl_rel = _parent_mask(relabel, sub.preclosure(_sub_mask(relabel, b)))
    return pcl_rel & ~space.preclosure(b) == 0


def _l3_inclusions(space, sub, relabel, a_sub):
    """Both inclusions between the ambient preclosure of ``a_sub``, a set
    of the subspace ``sub`` on the points ``relabel``, and its preclosure
    relative to ``sub``: ambient below relative (as L3 states it), and
    relative below ambient (reversed)."""
    pcl = space.preclosure(_parent_mask(relabel, a_sub))
    pcl_rel = _parent_mask(relabel, sub.preclosure(a_sub))
    return pcl & ~pcl_rel == 0, pcl_rel & ~pcl == 0


def _l3_direction_summary(universe: Universe) -> dict:
    """Empirical directions for the relative-preclosure comparison: the
    reversed inclusion, and the stated one restricted to preregular
    ambient sets."""
    reversed_bad = 0
    restricted_bad = 0
    minimal = None
    for label, sp in universe.spaces():
        if not isinstance(sp, FiniteSpace):
            continue
        for b in range(sp.full + 1):
            fb = sp.classify(b)
            if not b or not fb.preopen:
                continue
            sub, relabel = sp.subspace(b)
            for a_sub in range(sub.full + 1):
                if not sub.classify(a_sub).preopen:
                    continue
                stated, rev = _l3_inclusions(sp, sub, relabel, a_sub)
                if not rev:
                    reversed_bad += 1
                if fb.preregular and not stated:
                    restricted_bad += 1
                if not stated and minimal is None:
                    a = _parent_mask(relabel, a_sub)
                    minimal = {
                        "space": space_to_json(sp),
                        "subsets": [list(points_of(a)), list(points_of(b))],
                    }
    return {
        "reversed_direction_violations": reversed_bad,
        "preregular_restricted_violations": restricted_bad,
        "minimal_stated_counterexample": minimal,
    }


@_claim("L3", "ambient preclosure of a relatively preopen set is below its "
              "relative preclosure in a preopen subspace", ("finite",), _pairs,
        expected_status="empirical", summary=_l3_direction_summary)
def _l3(space, inst):
    a, b = inst["sets"]  # the subset, the preopen superset
    if not b or a & ~b or not space.classify(b).preopen:
        return True
    sub, relabel = space.subspace(b)
    a_sub = _sub_mask(relabel, a)
    if not sub.classify(a_sub).preopen:
        return True
    return _l3_inclusions(space, sub, relabel, a_sub)[0]


@_claim("LP1", "preirresolute (precontinuous) maps are exactly those "
               "shrinking preclosures into preclosures (closures)",
        ("finite",), _maps(onto=False))
def _lp1(space, inst):
    cod = inst["codomain"]
    f = SpaceMap(space, cod, tuple(inst["assignment"]))
    flags = map_classify(f)
    shrink_pcl = all(
        f.image(space.preclosure(a)) & ~cod.preclosure(f.image(a)) == 0
        for a in range(space.full + 1)
    )
    shrink_cl = all(
        f.image(space.preclosure(a)) & ~cod.closure(f.image(a)) == 0
        for a in range(space.full + 1)
    )
    return flags.preirresolute == shrink_pcl and flags.precontinuous == shrink_cl


@_claim("T5", "a hyperdisconnected space whose proper semi-regular "
              "subspaces are all p-closed is p-closed", ("finite", "skeleton"),
        _whole_space_gen)
def _t5(space, inst):
    if not check_simple(space, "hyperdisconnected"):
        return True
    h = _every(subspace_p_closed(space, a) for a in flagged(space, "semi_regular")
               if not _trivial(space, a))
    return _implies(h, lambda: _cover_outcome(space, "p-closed"))


@_claim("T6", "a proper semi-regular split into two p-closed subspaces "
              "forces p-closedness", ("finite", "skeleton"), _whole_space_gen)
def _t6(space, inst):
    return _split_forces_p_closed(space, "semi_regular", subspace_p_closed)


@_claim("T7", "preregular subsets of p-closed spaces are p-closed "
              "subspaces", ("finite", "skeleton"), _sets("preregular", nonempty=True))
def _t7(space, inst):
    a = inst["sets"][0]
    h = space.classify(a).preregular and _cover_outcome(space, "p-closed")
    return _implies(h, lambda: subspace_p_closed(space, a))


@_claim("TN1", "p-closed spaces are pre-theta-compact", ("finite", "skeleton"),
        _whole_space_gen)
def _tn1(space, inst):
    return _implies(_cover_outcome(space, "p-closed"),
                    lambda: _cover_outcome(space, "pre-theta-compact"))


def _tn2_instances(space, ctx):
    if isinstance(space, FiniteSpace):
        yield from _pairs(space, ctx)
        return
    temps = classified_templates(space)
    for t1 in flagged(space, "pre_theta_closed"):
        for t2, _f2 in temps:
            yield {"sets": [t1, t2]}


@_claim("TN2", "a pre-theta-closed set meets a relatively p-closed set in "
               "a relatively p-closed set", ("finite", "skeleton"), _tn2_instances)
def _tn2(space, inst):
    a, b = inst["sets"]
    if isinstance(space, FiniteSpace):
        h = space.classify(a).pre_theta_closed and _relative_p_closed(space, b) is True
        return _implies(h, lambda: _relative_p_closed(space, a & b) is True)
    # the intersection is not template-determined in general; it is decided
    # when it is finite (b has no infinite part), empty, or b itself
    return _implies(_relative_p_closed(space, b), lambda: True if (
        not b.has_infinite_part() or a.is_empty() or a.is_full()) else None)


@_claim("C45", "pre-theta-closed sets of p-closed spaces are p-closed "
               "relative to the space", ("finite", "skeleton"),
        _sets("pre_theta_closed"))
def _c45(space, inst):
    a = inst["sets"][0]
    h = space.classify(a).pre_theta_closed and _cover_outcome(space, "p-closed")
    return _implies(h, lambda: _relative_p_closed(space, a))


@_claim("TN3", "on predisconnected spaces: p-closed iff every preregular "
               "subset is p-closed relative to the space",
        ("finite", "skeleton"), _whole_space_gen)
def _tn3(space, inst):
    if not check_simple(space, "predisconnected"):
        return True
    pc = _cover_outcome(space, "p-closed")
    if pc is None:
        return None
    return _same(pc, _every(_relative_p_closed(space, a)
                            for a in flagged(space, "preregular")))


@_claim("TN4", "a proper preregular set and its complement both p-closed "
               "relative to the space force p-closedness",
        ("finite", "skeleton"), _whole_space_gen)
def _tn4(space, inst):
    return _split_forces_p_closed(space, "preregular", _relative_p_closed)


@_claim("TN5", "semi-open p-closed subspaces are p-closed relative to the "
               "space", ("finite", "skeleton"), _sets("semi_open", nonempty=True))
def _tn5(space, inst):
    a = inst["sets"][0]
    h = space.classify(a).semi_open and subspace_p_closed(space, a)
    return _implies(h, lambda: _relative_p_closed(space, a))


@_claim("TN6", "preopen sets p-closed relative to the space are p-closed "
               "subspaces", ("finite", "skeleton"), _sets("preopen", nonempty=True))
def _tn6(space, inst):
    a = inst["sets"][0]
    h = space.classify(a).preopen and _relative_p_closed(space, a)
    return _implies(h, lambda: subspace_p_closed(space, a))


@_claim("C-ALPHA", "for alpha-open sets: p-closed subspace iff p-closed "
                   "relative to the space", ("finite", "skeleton"),
        _sets("alpha_open", nonempty=True))
def _c_alpha(space, inst):
    a = inst["sets"][0]
    if not space.classify(a).alpha_open:
        return True
    return _same(subspace_p_closed(space, a), _relative_p_closed(space, a))


@_claim("T-IMG", "preirresolute (precontinuous) surjections push sets "
                 "p-closed relative to the domain to sets p-closed (qhc) "
                 "relative to the codomain", ("finite",), _maps(onto=True))
def _t_img(space, inst):
    cod = inst["codomain"]
    f = SpaceMap(space, cod, tuple(inst["assignment"]))
    flags = map_classify(f)
    if not (flags.preirresolute or flags.precontinuous):
        return True
    for k in range(space.full + 1):
        if _relative_p_closed(space, k) is not True:
            continue
        img = f.image(k)
        if flags.preirresolute:
            if _relative_p_closed(cod, img) is not True:
                return False
        if flags.precontinuous:
            if check_cover_relative(cod, img, "qhc").outcome is not True:
                return False
    return True


@_universe_claim("C-TOPINV", "p-closedness and its companions are "
                             "topological invariants")
def _c_topinv(universe):
    checked = 0
    violations = []
    spaces = [sp for _l, sp in universe.spaces() if isinstance(sp, FiniteSpace)]
    classes = homeomorphism_classes(spaces)
    for cls in classes:
        rep = spaces[cls[0]]
        rep_simple = {p: check_simple(rep, p) for p in SIMPLE_PROPERTIES}
        rep_cover = {p: check_cover(rep, p).outcome for p in COVER_PROPERTIES}
        for i in cls[1:]:
            checked += 1
            sp = spaces[i]
            same = all(
                check_simple(sp, p) == rep_simple[p] for p in SIMPLE_PROPERTIES
            ) and all(
                check_cover(sp, p).outcome == rep_cover[p]
                for p in COVER_PROPERTIES
            )
            if not same:
                violations.append({
                    "space": space_to_json(sp),
                    "label": f"class-of-{cls[0]}",
                    "instance": {"representative": space_to_json(rep)},
                })
        checked += 1
    return checked, violations, 0, {"classes": len(classes)}


@_universe_claim("C-PROD", "a p-closed finite product has p-closed factors")
def _c_prod(universe):
    checked = 0
    violations = []
    unknowns = 0
    extra = {}
    finites = [sp for _l, sp in universe.spaces()
               if isinstance(sp, FiniteSpace) and sp.n <= 3]
    rng = random.Random(17)
    pairs = []
    if finites:
        for _ in range(min(40, len(finites) ** 2)):
            pairs.append((rng.choice(finites), rng.choice(finites)))
    for x, y in pairs:
        checked += 1
        prod = product(x, y)
        if check_cover(prod, "p-closed").outcome is True:
            if not (check_cover(x, "p-closed").outcome is True
                    and check_cover(y, "p-closed").outcome is True):
                violations.append({
                    "space": space_to_json(prod),
                    "label": "finite-product",
                    "instance": {"factors": [space_to_json(x), space_to_json(y)]},
                })
    has_product = any(l == "remark-product" for l, _ in universe.spaces())
    if has_product:
        checked += 1
        prod = catalog("remark-product").space
        pc = check_cover(prod, "p-closed").outcome
        f1, f2 = remark_product_factors()
        fpc = (check_cover(f1, "p-closed").outcome,
               check_cover(f2, "p-closed").outcome)
        extra["catalog_product_p_closed"] = pc
        extra["catalog_factor_p_closed"] = list(fpc)
        if pc is None or None in fpc:
            unknowns += 1
        elif pc is True and not all(fpc):
            violations.append({
                "space": space_to_json(prod),
                "label": "remark-product",
                "instance": {"factors": "catalog"},
            })
    return checked, violations, unknowns, extra


def _remark_facts(space, ctx):
    if space != catalog("remark-product").space:
        return
    yield {"fact": "factors-p-closed"}
    yield {"fact": "product-not-p-closed"}
    for t in flagged(space, "preregular"):
        if not _trivial(space, t):
            yield {"fact": "preregular-relative", "sets": [t]}


@_claim("REMARK", "the catalog product splits p-closedness from its "
                  "factors and from the relative behaviour of preregular "
                  "subsets", ("skeleton",), _remark_facts)
def _remark(space, inst):
    if inst["fact"] == "factors-p-closed":
        f1, f2 = remark_product_factors()
        v1 = check_cover(f1, "p-closed").outcome
        v2 = check_cover(f2, "p-closed").outcome
        if v1 is None or v2 is None:
            return None
        return v1 and v2
    if inst["fact"] == "product-not-p-closed":
        return _same(_cover_outcome(space, "p-closed"), False)
    return _relative_p_closed(space, inst["sets"][0])


# -- running claims -------------------------------------------------------------------


@dataclass
class Report:
    claim: str
    universe: dict
    checked: int
    violations: list
    unknowns: int
    status: str
    ms: int
    extra: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "claim": self.claim,
            "universe": self.universe,
            "checked": self.checked,
            "violations": self.violations,
            "unknowns": self.unknowns,
            "status": self.status,
            "ms": self.ms,
            "extra": self.extra,
        }

    @staticmethod
    def from_json(data) -> "Report":
        return Report(
            data["claim"], data["universe"], data["checked"],
            data["violations"], data["unknowns"], data["status"], data["ms"],
            data.get("extra", {}),
        )


def _space_kind(space) -> str:
    return "finite" if isinstance(space, FiniteSpace) else "skeleton"


def _run_on_space(cid, label, space, seed, budget, exhaustive):
    rng = random.Random(f"{seed}|{cid}|{label}")
    ctx = Ctx(rng=rng, exhaustive=exhaustive, budget=budget)
    checked = 0
    unknowns = 0
    violations = []
    claim = CLAIMS[cid]
    for inst in claim.gen(space, ctx):
        checked += 1
        ok = claim.pred(space, inst)
        if ok is None:
            unknowns += 1
        elif ok is False:
            violations.append({
                "space": space_to_json(space),
                "label": label,
                "instance": _instance_json(space, inst),
            })
    return checked, violations, unknowns


def run_claim(cid: str, universe: Universe, seed: int = 0,
              samples: int = 10_000, exhaustive: bool = False,
              jobs: int = 1) -> Report:
    """Evaluate one claim over a universe; violations are replayable."""
    if cid not in CLAIMS:
        raise ValueError(f"unknown claim {cid!r}")
    claim = CLAIMS[cid]
    t0 = time.monotonic()
    if claim.run is not None:
        checked, violations, unknowns, extra = claim.run(universe)
    else:
        checked = 0
        unknowns = 0
        violations = []
        extra = {}
        members = [
            (label, sp) for label, sp in universe.spaces()
            if _space_kind(sp) in claim.kinds
        ]
        budget = max(1, -(-samples // max(1, len(members))))
        jobs = max(1, min(jobs, len(members)))
        if jobs > 1:
            import multiprocessing as mp

            with mp.get_context("fork").Pool(jobs) as pool:
                results = pool.starmap(
                    _run_on_space,
                    [(cid, label, sp, seed, budget, exhaustive)
                     for label, sp in members],
                )
        else:
            results = [
                _run_on_space(cid, label, sp, seed, budget, exhaustive)
                for label, sp in members
            ]
        for c, v, u in results:
            checked += c
            violations.extend(v)
            unknowns += u
    if claim.expected_status == "empirical":
        extra["verified_direction"] = (
            "as stated" if not violations else "fails as stated; see violations"
        )
    if claim.summary is not None:
        extra.update(claim.summary(universe))
    status = "fail" if violations else ("undetermined" if checked == 0 else "pass")
    ms = int((time.monotonic() - t0) * 1000)
    return Report(cid, universe.to_json(), checked, violations, unknowns,
                  status, ms, extra)


def replay(record: dict, cid: str):
    """Re-evaluate one recorded violation; returns the predicate value.  A
    universe-level claim has no predicate, so its records do not replay."""
    pred = CLAIMS[cid].pred
    if pred is None:
        raise ValueError(f"{cid} is a universe-level claim; its records do not replay")
    space = space_from_json(record["space"])
    return pred(space, _instance_from_json(space, record["instance"]))




# -- counterexample hunts ------------------------------------------------------------


HUNT_TARGETS = ("tn1-converse", "c45-converse")


def search_counterexample(target, universe: Universe) -> dict:
    """Find a universe member refuting a reversed edge or a posed question.

    ``target`` is either a pair of cover properties (p, q), read as the
    reversed arrow q-without-p, or one of the named question targets:
    ``tn1-converse`` is the reversed arrow of TN1 (pre-theta-compact
    without p-closed).
    """
    checked = 0
    skipped = 0
    witness = None
    details = None
    pair = ("p-closed", "pre-theta-compact") if target == "tn1-converse" else target
    for label, space in universe.spaces():
        checked += 1
        if isinstance(pair, tuple):
            p, q = pair
            vq = check_cover(space, q).outcome
            vp = check_cover(space, p).outcome
            if vq is None or vp is None:
                skipped += 1
                continue
            if vq is True and vp is False:
                witness, details = label, {q: True, p: False}
                break
        elif target == "c45-converse":
            if isinstance(space, FiniteSpace):
                continue
            vpc = check_cover(space, "p-closed").outcome
            if vpc is None or vpc is True:
                if vpc is None:
                    skipped += 1
                continue
            all_rel = True
            for t in flagged(space, "pre_theta_closed"):
                if t.is_full():
                    continue
                v = check_cover_relative(space, t, "p-closed").outcome
                if v is None:
                    all_rel = None
                    break
                if v is False:
                    all_rel = False
                    break
            if all_rel is None:
                skipped += 1
            elif all_rel is True:
                witness, details = label, {"every-proper-pre-theta-closed-relative":
                                           True, "p-closed": False}
                break
        else:
            raise ValueError(f"unknown hunt target {target!r}")
    return {
        "target": list(target) if isinstance(target, tuple) else target,
        "witness": witness,
        "details": details,
        "checked": checked,
        "skipped_unknown": skipped,
    }

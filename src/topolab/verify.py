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
        sign = 1
        if kind == "sampled" and len(fields) == 3 and fields[1].startswith("-"):
            sign, fields[1] = -1, fields[1][1:]
        values = [numeral(f) for f in fields]
        if None in values or (kind, len(values)) not in (("exhaustive", 1), ("sampled", 3)):
            raise ValueError(f"bad universe spec {text!r}")
        if kind == "sampled":
            values[1] *= sign
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


# -- claim registry ---------------------------------------------------------------------


@dataclass(frozen=True)
class Claim:
    id: str
    description: str
    kinds: tuple  # subset of ("finite", "skeleton", "universe")
    expected_status: str = "theorem"


CLAIMS: dict[str, Claim] = {}
_GENS = {}
_PREDS = {}


def _claim(cid, description, kinds, expected_status="theorem"):
    def deco(fn_pair):
        gen, pred = fn_pair()
        CLAIMS[cid] = Claim(cid, description, kinds, expected_status)
        _GENS[cid] = gen
        _PREDS[cid] = pred
        return fn_pair

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
        ("finite", "skeleton"))
def _t1():
    def pred(space, inst):
        qhc = _cover_outcome(space, "qhc")
        si = check_simple(space, "strongly-irresolvable")
        h = _bool3_and(qhc, si)
        if h is False:
            return True
        pc = _cover_outcome(space, "p-closed")
        if h is None or pc is None:
            return None
        return pc

    return _whole_space_gen, pred


@_claim("C1", "for strongly-irresolvable or submaximal spaces, "
              "p-closed and qhc coincide", ("finite", "skeleton"))
def _c1():
    def pred(space, inst):
        h = check_simple(space, "strongly-irresolvable") or check_simple(
            space, "submaximal")
        if not h:
            return True
        pc = _cover_outcome(space, "p-closed")
        qhc = _cover_outcome(space, "qhc")
        if pc is None or qhc is None:
            return None
        return pc == qhc

    return _whole_space_gen, pred


@_claim("T2", "p-closed t0 spaces are strongly irresolvable",
        ("finite", "skeleton"))
def _t2():
    def pred(space, inst):
        pc = _cover_outcome(space, "p-closed")
        t0 = check_simple(space, "t0")
        h = _bool3_and(pc, t0)
        if h is False:
            return True
        if h is None:
            return None
        return check_simple(space, "strongly-irresolvable")

    return _whole_space_gen, pred


@_claim("T3", "on t0 spaces: p-closed iff qhc and strongly irresolvable",
        ("finite", "skeleton"))
def _t3():
    def pred(space, inst):
        if not check_simple(space, "t0"):
            return True
        pc = _cover_outcome(space, "p-closed")
        qhc = _cover_outcome(space, "qhc")
        if pc is None or qhc is None:
            return None
        return pc == (qhc and check_simple(space, "strongly-irresolvable"))

    return _whole_space_gen, pred


@_claim("T4", "p-closed plus aleph0-ed gives nearly compact; "
              "plus extremally disconnected gives s-closed",
        ("finite", "skeleton"))
def _t4():
    def pred(space, inst):
        pc = _cover_outcome(space, "p-closed")
        if pc is False:
            return True
        if pc is None:
            return None
        ok = True
        if check_simple(space, "aleph0-ed"):
            nc = _cover_outcome(space, "nearly-compact")
            if nc is None:
                return None
            ok = ok and nc
        if check_simple(space, "extremally-disconnected"):
            sc = _cover_outcome(space, "s-closed")
            if sc is None:
                return None
            ok = ok and sc
        return ok

    return _whole_space_gen, pred


@_claim("T41", "the four faces of p-closedness agree", ("finite",))
def _t41():
    def gen(space, ctx):
        # clause (c) is exhaustive over principal bases everywhere; raw
        # antichain-generated bases are sampled on carriers of 4+ points
        yield {"samples": flt.SAMPLED_BASES if space.n >= 4 else 0}

    def pred(space, inst):
        rng = random.Random(f"t41|{space.opens}")
        a, b, c, d = flt.check_t41(space, rng, samples=inst.get("samples", 0))
        return a == b == c == d

    return gen, pred


@_claim("T42", "p-closed plus the p-regularity ladder gives the "
               "compactness ladder", ("finite", "skeleton"))
def _t42():
    ladder = (
        ("strongly-p-regular", "strongly-compact"),
        ("p-regular", "compact"),
        ("almost-p-regular", "nearly-compact"),
    )

    def pred(space, inst):
        pc = _cover_outcome(space, "p-closed")
        if pc is False:
            return True
        if pc is None:
            return None
        for reg, comp in ladder:
            if check_simple(space, reg):
                v = _cover_outcome(space, comp)
                if v is None:
                    return None
                if not v:
                    return False
        return True

    return _whole_space_gen, pred


@_claim("T43", "the four relative faces agree for every subset", ("finite",))
def _t43():
    def gen(space, ctx):
        for s in _subsets(space, ctx):
            yield {"sets": [s], "samples": 30}

    def pred(space, inst):
        s = inst["sets"][0]
        rng = random.Random(f"t43|{space.opens}|{s}")
        a, b, c, d = flt.check_t43(space, s, rng, samples=inst.get("samples", 0))
        return a == b == c == d

    return gen, pred


@_claim("P41", "preopen sets have pre-theta-closure equal to preclosure; "
               "preregular sets are pre-theta-closed; semi-open sets have "
               "preclosure equal to closure", ("finite", "skeleton"))
def _p41():
    def pred(space, inst):
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

    return _sets(), pred


@_claim("L2A", "preopen intersected with semi-open is preopen in the "
               "subspace; preopen in a preopen subspace is preopen",
        ("finite",))
def _l2a():
    def pred(space, inst):
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

    return _pairs, pred


@_claim("L2", "relative preclosure inside a semi-open subspace is below "
              "the ambient preclosure", ("finite",), expected_status="empirical")
def _l2():
    def pred(space, inst):
        a, b = inst["sets"]  # the semi-open superset, the subset
        if not a or b & ~a or not space.classify(a).semi_open:
            return True
        sub, relabel = space.subspace(a)
        pcl_rel = _parent_mask(relabel, sub.preclosure(_sub_mask(relabel, b)))
        return pcl_rel & ~space.preclosure(b) == 0

    return _pairs, pred


@_claim("L3", "ambient preclosure of a relatively preopen set is below its "
              "relative preclosure in a preopen subspace", ("finite",),
        expected_status="empirical")
def _l3():
    def pred(space, inst):
        a, b = inst["sets"]  # the subset, the preopen superset
        if not b or a & ~b or not space.classify(b).preopen:
            return True
        sub, relabel = space.subspace(b)
        if not sub.classify(_sub_mask(relabel, a)).preopen:
            return True
        pcl_rel = _parent_mask(relabel, sub.preclosure(_sub_mask(relabel, a)))
        return space.preclosure(a) & ~pcl_rel == 0

    return _pairs, pred


@_claim("LP1", "preirresolute (precontinuous) maps are exactly those "
               "shrinking preclosures into preclosures (closures)",
        ("finite",))
def _lp1():
    def pred(space, inst):
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

    return _maps(onto=False), pred


@_claim("T5", "a hyperdisconnected space whose proper semi-regular "
              "subspaces are all p-closed is p-closed", ("finite", "skeleton"))
def _t5():
    def pred(space, inst):
        if not check_simple(space, "hyperdisconnected"):
            return True
        for a in flagged(space, "semi_regular"):
            if _trivial(space, a):
                continue
            sub_pc = subspace_p_closed(space, a)
            if sub_pc is None:
                return None
            if sub_pc is False:
                return True  # the hypothesis fails
        return _cover_outcome(space, "p-closed")

    return _whole_space_gen, pred


@_claim("T6", "a proper semi-regular split into two p-closed subspaces "
              "forces p-closedness", ("finite", "skeleton"))
def _t6():
    def pred(space, inst):
        for a in flagged(space, "semi_regular"):
            if _trivial(space, a):
                continue
            pc1 = subspace_p_closed(space, a)
            pc2 = subspace_p_closed(space, _complement(space, a))
            if pc1 is True and pc2 is True:
                return _cover_outcome(space, "p-closed")
            if pc1 is None or pc2 is None:
                return None
        return True

    return _whole_space_gen, pred


@_claim("T7", "preregular subsets of p-closed spaces are p-closed "
              "subspaces", ("finite", "skeleton"))
def _t7():
    def pred(space, inst):
        a = inst["sets"][0]
        if not space.classify(a).preregular:
            return True
        pc = _cover_outcome(space, "p-closed")
        if pc is False:
            return True
        if pc is None:
            return None
        return subspace_p_closed(space, a)

    return _sets("preregular", nonempty=True), pred


@_claim("TN1", "p-closed spaces are pre-theta-compact", ("finite", "skeleton"))
def _tn1():
    def pred(space, inst):
        pc = _cover_outcome(space, "p-closed")
        if pc is False:
            return True
        if pc is None:
            return None
        return _cover_outcome(space, "pre-theta-compact")

    return _whole_space_gen, pred


@_claim("TN2", "a pre-theta-closed set meets a relatively p-closed set in "
               "a relatively p-closed set", ("finite", "skeleton"))
def _tn2():
    def gen(space, ctx):
        if isinstance(space, FiniteSpace):
            yield from _pairs(space, ctx)
            return
        temps = classified_templates(space)
        for t1 in flagged(space, "pre_theta_closed"):
            for t2, _f2 in temps:
                yield {"sets": [t1, t2]}

    def pred(space, inst):
        a, b = inst["sets"]
        if isinstance(space, FiniteSpace):
            if not space.classify(a).pre_theta_closed:
                return True
            if _relative_p_closed(space, b) is not True:
                return True
            return _relative_p_closed(space, a & b) is True
        rel = _relative_p_closed(space, b)
        if rel is False:
            return True
        if rel is None:
            return None
        # the intersection is not template-determined in general; decide
        # through cardinality or triviality
        if not b.has_infinite_part():
            return True  # any intersection is finite, hence relatively p-closed
        if a.is_empty():
            return True
        if a.is_full():
            return True  # intersection is b itself, rel-p-closed by hypothesis
        return None

    return gen, pred


@_claim("C45", "pre-theta-closed sets of p-closed spaces are p-closed "
               "relative to the space", ("finite", "skeleton"))
def _c45():
    def pred(space, inst):
        a = inst["sets"][0]
        if not space.classify(a).pre_theta_closed:
            return True
        pc = _cover_outcome(space, "p-closed")
        if pc is False:
            return True
        if pc is None:
            return None
        return _relative_p_closed(space, a)

    return _sets("pre_theta_closed"), pred


@_claim("TN3", "on predisconnected spaces: p-closed iff every preregular "
               "subset is p-closed relative to the space",
        ("finite", "skeleton"))
def _tn3():
    def pred(space, inst):
        if not check_simple(space, "predisconnected"):
            return True
        pc = _cover_outcome(space, "p-closed")
        if pc is None:
            return None
        rhs = True
        for a in flagged(space, "preregular"):
            v = _relative_p_closed(space, a)
            if v is None:
                return None
            if v is False:
                rhs = False
                break
        return pc == rhs

    return _whole_space_gen, pred


@_claim("TN4", "a proper preregular set and its complement both p-closed "
               "relative to the space force p-closedness",
        ("finite", "skeleton"))
def _tn4():
    def pred(space, inst):
        for a in flagged(space, "preregular"):
            if _trivial(space, a):
                continue
            v1 = _relative_p_closed(space, a)
            v2 = _relative_p_closed(space, _complement(space, a))
            if v1 is True and v2 is True:
                return _cover_outcome(space, "p-closed")
            if v1 is None or v2 is None:
                return None
        return True

    return _whole_space_gen, pred


@_claim("TN5", "semi-open p-closed subspaces are p-closed relative to the "
               "space", ("finite", "skeleton"))
def _tn5():
    def pred(space, inst):
        a = inst["sets"][0]
        if not space.classify(a).semi_open:
            return True
        sub_pc = subspace_p_closed(space, a)
        if sub_pc is False:
            return True
        if sub_pc is None:
            return None
        return _relative_p_closed(space, a)

    return _sets("semi_open", nonempty=True), pred


@_claim("TN6", "preopen sets p-closed relative to the space are p-closed "
               "subspaces", ("finite", "skeleton"))
def _tn6():
    def pred(space, inst):
        a = inst["sets"][0]
        if not space.classify(a).preopen:
            return True
        rel = _relative_p_closed(space, a)
        if rel is False:
            return True
        if rel is None:
            return None
        return subspace_p_closed(space, a)

    return _sets("preopen", nonempty=True), pred


@_claim("C-ALPHA", "for alpha-open sets: p-closed subspace iff p-closed "
                   "relative to the space", ("finite", "skeleton"))
def _c_alpha():
    def pred(space, inst):
        a = inst["sets"][0]
        if not space.classify(a).alpha_open:
            return True
        sub_pc = subspace_p_closed(space, a)
        rel = _relative_p_closed(space, a)
        if sub_pc is None or rel is None:
            return None
        return sub_pc == rel

    return _sets("alpha_open", nonempty=True), pred


@_claim("T-IMG", "preirresolute (precontinuous) surjections push sets "
                 "p-closed relative to the domain to sets p-closed (qhc) "
                 "relative to the codomain", ("finite",))
def _t_img():
    def pred(space, inst):
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

    return _maps(onto=True), pred


@_claim("C-TOPINV", "p-closedness and its companions are topological "
                    "invariants", ("universe",))
def _c_topinv():
    def gen(space, ctx):
        yield {}

    def pred(space, inst):
        raise NotImplementedError("universe-level claim")

    return gen, pred


@_claim("C-PROD", "a p-closed finite product has p-closed factors",
        ("universe",))
def _c_prod():
    def gen(space, ctx):
        yield {}

    def pred(space, inst):
        raise NotImplementedError("universe-level claim")

    return gen, pred


@_claim("REMARK", "the catalog product splits p-closedness from its "
                  "factors and from the relative behaviour of preregular "
                  "subsets", ("skeleton",))
def _remark():
    def gen(space, ctx):
        if space != catalog("remark-product").space:
            return
        yield {"fact": "factors-p-closed"}
        yield {"fact": "product-not-p-closed"}
        for t in flagged(space, "preregular"):
            if not _trivial(space, t):
                yield {"fact": "preregular-relative", "sets": [t]}

    def pred(space, inst):
        if inst["fact"] == "factors-p-closed":
            f1, f2 = remark_product_factors()
            v1 = check_cover(f1, "p-closed").outcome
            v2 = check_cover(f2, "p-closed").outcome
            if v1 is None or v2 is None:
                return None
            return v1 and v2
        if inst["fact"] == "product-not-p-closed":
            pc = _cover_outcome(space, "p-closed")
            if pc is None:
                return None
            return pc is False
        return _relative_p_closed(space, inst["sets"][0])

    return gen, pred


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
    pred = _PREDS[cid]
    for inst in _GENS[cid](space, ctx):
        checked += 1
        ok = pred(space, inst)
        if ok is None:
            unknowns += 1
        elif ok is False:
            violations.append({
                "space": space_to_json(space),
                "label": label,
                "instance": _instance_json(space, inst),
            })
    return checked, violations, unknowns


def _run_universe_claim(cid, universe: Universe):
    """Claims about a universe as a whole rather than single members."""
    checked = 0
    violations = []
    unknowns = 0
    extra = {}
    if cid == "C-TOPINV":
        spaces = [sp for _l, sp in universe.spaces()
                  if isinstance(sp, FiniteSpace)]
        classes = homeomorphism_classes(spaces)
        extra["classes"] = len(classes)
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
        return checked, violations, unknowns, extra
    if cid == "C-PROD":
        from topolab.core import product as fs_product

        finites = [sp for _l, sp in universe.spaces()
                   if isinstance(sp, FiniteSpace) and sp.n <= 3]
        rng = random.Random(17)
        pairs = []
        if finites:
            for _ in range(min(40, len(finites) ** 2)):
                pairs.append((rng.choice(finites), rng.choice(finites)))
        for x, y in pairs:
            checked += 1
            prod = fs_product(x, y)
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
    raise ValueError(f"not a universe-level claim: {cid}")


def run_claim(cid: str, universe: Universe, seed: int = 0,
              samples: int = 10_000, exhaustive: bool = False,
              jobs: int = 1) -> Report:
    """Evaluate one claim over a universe; violations are replayable."""
    if cid not in CLAIMS:
        raise ValueError(f"unknown claim {cid!r}")
    claim = CLAIMS[cid]
    t0 = time.monotonic()
    checked = 0
    unknowns = 0
    violations = []
    extra = {}
    if "universe" in claim.kinds:
        checked, violations, unknowns, extra = _run_universe_claim(cid, universe)
    else:
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
        if cid == "L3":
            extra.update(_l3_direction_summary(universe, seed))
    if cid == "T41" and universe.kind in ("exhaustive", "sampled") and (
            universe.n or 0) >= 4:
        extra["clause_c"] = (
            "exhaustive over principal bases; antichain-generated bases "
            f"sampled ({flt.SAMPLED_BASES} draws per space, each checked whole)")
    status = "fail" if violations else ("undetermined" if checked == 0 else "pass")
    ms = int((time.monotonic() - t0) * 1000)
    return Report(cid, universe.to_json(), checked, violations, unknowns,
                  status, ms, extra)


def _l3_direction_summary(universe: Universe, seed: int) -> dict:
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
                a = _parent_mask(relabel, a_sub)
                pcl_rel = _parent_mask(relabel, sub.preclosure(a_sub))
                stated = sp.preclosure(a) & ~pcl_rel == 0
                rev = pcl_rel & ~sp.preclosure(a) == 0
                if not rev:
                    reversed_bad += 1
                if fb.preregular and not stated:
                    restricted_bad += 1
                if not stated and minimal is None:
                    minimal = {
                        "space": space_to_json(sp),
                        "subsets": [list(points_of(a)), list(points_of(b))],
                    }
    return {
        "reversed_direction_violations": reversed_bad,
        "preregular_restricted_violations": restricted_bad,
        "minimal_stated_counterexample": minimal,
    }


def replay(record: dict, cid: str):
    """Re-evaluate one recorded violation; returns the predicate value."""
    space = space_from_json(record["space"])
    return _PREDS[cid](space, _instance_from_json(space, record["instance"]))


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

"""Topology enumeration, the claim registry, exhaustive claim checking,
and counterexample hunts.

Claims are universally quantified statements whose predicates are built
from the operator, property and filter checkers.  Each claim has an
instance-level predicate, so any recorded violation can be replayed
bit-for-bit.  Unknown verdicts on skeletons are never counted as pass or
fail; they land in a separate bucket of the report.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from topolab import filters as flt
from topolab.core import (
    FiniteSpace,
    SpaceMap,
    bits,
    map_classify,
    mask_of,
    points_of,
)
from topolab.properties import (
    COVER_PROPERTIES,
    SIMPLE_PROPERTIES,
    check_cover,
    check_cover_relative,
    check_simple,
    classified_templates,
    diagram_edges,
)
from topolab.skeleton import (
    SkeletonError,
    SkeletonSpace,
    SymbolicSet,
    catalog,
    format_skel,
    parse_skel,
    restrict,
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
    """The opens of every extension of each topology on k points in
    ``level`` (given by its opens) by a new point k.

    The new point picks the points above it (an open set U of the parent)
    and the points below it (a closed set D), with U inside the minimal
    neighbourhood of every point of D so the relation stays transitive.
    The opens of the extension are the parent's opens missing D, plus
    O | {k} for each parent open O containing U.
    """
    full, new = (1 << k) - 1, 1 << k
    for opens in level:
        nbhd = [full] * k
        for o in opens:
            for x in bits(o):
                nbhd[x] &= o
        for down in (full ^ o for o in opens):
            cap = full
            for x in bits(down):
                cap &= nbhd[x]
            apart = tuple(o for o in opens if not o & down)
            for up in opens:
                if not up & ~cap:
                    yield apart + tuple(o | new for o in opens if not up & ~o)


def topologies_by_preorder(n: int) -> tuple[FiniteSpace, ...]:
    """Grow every preorder one point at a time; opens are its up-sets."""
    if not 1 <= n <= 5:
        raise ValueError("preorder enumeration supported for 1 <= n <= 5")
    level = [(0,)]  # the one topology on the empty carrier
    for k in range(n - 1):
        level = list(_one_point_extensions(level, k))
    spaces = [FiniteSpace(n, opens)
              for opens in _one_point_extensions(level, n - 1)]
    spaces.sort(key=lambda sp: sp.opens)
    return tuple(spaces)


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
    pts = sorted(
        (bin(sp.min_nbhd[x]).count("1"), bin(sp.closure(1 << x)).count("1"))
        for x in range(sp.n)
    )
    return (sp.n, tuple(sorted(bin(o).count("1") for o in sp.opens)), tuple(pts))


def homeomorphic(a: FiniteSpace, b: FiniteSpace) -> bool:
    if _signature(a) != _signature(b):
        return False
    sig_a = [(bin(a.min_nbhd[x]).count("1"), bin(a.closure(1 << x)).count("1"))
             for x in range(a.n)]
    sig_b = [(bin(b.min_nbhd[x]).count("1"), bin(b.closure(1 << x)).count("1"))
             for x in range(b.n)]
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
        parts = text.split(":")
        if parts[0] == "catalog" and len(parts) == 1:
            return Universe("catalog")
        if parts[0] == "exhaustive" and len(parts) == 2:
            universe = Universe("exhaustive", n=int(parts[1]))
        elif parts[0] == "sampled" and len(parts) == 4:
            universe = Universe("sampled", n=int(parts[1]), seed=int(parts[2]),
                                count=int(parts[3]))
        else:
            raise ValueError(f"bad universe spec {text!r}")
        if not 1 <= universe.n <= 5:
            raise ValueError(f"universe {text!r}: n must be 1..5")
        if universe.count is not None and universe.count < 0:
            raise ValueError(f"universe {text!r}: count must not be negative")
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
    if data["kind"] == "finite":
        return FiniteSpace(
            data["n"], tuple(mask_of(pts, data["n"]) for pts in data["opens"])
        )
    return parse_skel(data["skel"])


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


def _bool3_and(*vals):
    """Three-valued conjunction for hypothesis chains."""
    if any(v is False for v in vals):
        return False
    if any(v is None for v in vals):
        return None
    return True


def subspace_p_closed(space: SkeletonSpace, t: SymbolicSet):
    """p-closedness of the subspace carried by a template, or None.

    FIN groups have no definite size; the verdict must agree for two
    realizations or it is not trusted.
    """
    outcomes = set()
    for fin_as in (1, 2):
        try:
            sub = restrict(space, t, fin_as=fin_as)
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


def _verdicts_imply(hypos, concl):
    h = _bool3_and(*hypos)
    if h is False:
        return True
    if h is None:
        return None
    return concl() if callable(concl) else concl


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
            yield {"subsets": [list(points_of(s))], "samples": 30}

    def pred(space, inst):
        s = mask_of(inst["subsets"][0], space.n)
        rng = random.Random(f"t43|{space.opens}|{s}")
        a, b, c, d = flt.check_t43(space, s, rng, samples=inst.get("samples", 0))
        return a == b == c == d

    return gen, pred


@_claim("P41", "preopen sets have pre-theta-closure equal to preclosure; "
               "preregular sets are pre-theta-closed; semi-open sets have "
               "preclosure equal to closure", ("finite", "skeleton"))
def _p41():
    def gen(space, ctx):
        if isinstance(space, FiniteSpace):
            for s in _subsets(space, ctx):
                yield {"subsets": [list(points_of(s))]}
        else:
            for t, _flags in classified_templates(space):
                yield {"templates": [t.to_json()]}

    def pred(space, inst):
        if isinstance(space, FiniteSpace):
            a = mask_of(inst["subsets"][0], space.n)
            flags = space.classify(a)
            if flags.preopen:
                if space.pre_theta_closure(a) != space.preclosure(a):
                    return False
            if flags.preregular and not flags.pre_theta_closed:
                return False
            if flags.semi_open:
                if space.preclosure(a) != space.closure(a):
                    return False
            return True
        from topolab.properties import (
            _sym_saturate, _template_from_json, template_flags)
        from topolab.skeleton import SymbolicIncomplete

        t = _template_from_json(space, inst["templates"][0])
        try:
            flags = template_flags(space, t)
            if flags.preopen:
                if _sym_saturate(space, "pcl-theta", t) != _sym_saturate(
                        space, "pcl", t):
                    return False
            if flags.preregular and not flags.pre_theta_closed:
                return False
        except SymbolicIncomplete:
            return None
        if flags.semi_open:
            if _sym_saturate(space, "pcl", t) != _sym_saturate(space, "cl", t):
                return False
        return True

    return gen, pred


@_claim("L2A", "preopen intersected with semi-open is preopen in the "
               "subspace; preopen in a preopen subspace is preopen",
        ("finite",))
def _l2a():
    def gen(space, ctx):
        for a, b in _subset_pairs(space, ctx):
            yield {"subsets": [list(points_of(a)), list(points_of(b))]}

    def pred(space, inst):
        a = mask_of(inst["subsets"][0], space.n)
        b = mask_of(inst["subsets"][1], space.n)
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

    return gen, pred


@_claim("L2", "relative preclosure inside a semi-open subspace is below "
              "the ambient preclosure", ("finite",), expected_status="empirical")
def _l2():
    def gen(space, ctx):
        for a, b in _subset_pairs(space, ctx):
            yield {"subsets": [list(points_of(a)), list(points_of(b))]}

    def pred(space, inst):
        a = mask_of(inst["subsets"][0], space.n)  # the semi-open superset
        b = mask_of(inst["subsets"][1], space.n)  # the subset
        if not a or b & ~a or not space.classify(a).semi_open:
            return True
        sub, relabel = space.subspace(a)
        pcl_rel = _parent_mask(relabel, sub.preclosure(_sub_mask(relabel, b)))
        return pcl_rel & ~space.preclosure(b) == 0

    return gen, pred


@_claim("L3", "ambient preclosure of a relatively preopen set is below its "
              "relative preclosure in a preopen subspace", ("finite",),
        expected_status="empirical")
def _l3():
    def gen(space, ctx):
        for a, b in _subset_pairs(space, ctx):
            yield {"subsets": [list(points_of(a)), list(points_of(b))]}

    def pred(space, inst):
        a = mask_of(inst["subsets"][0], space.n)  # the subset
        b = mask_of(inst["subsets"][1], space.n)  # the preopen superset
        if not b or a & ~b or not space.classify(b).preopen:
            return True
        sub, relabel = space.subspace(b)
        if not sub.classify(_sub_mask(relabel, a)).preopen:
            return True
        pcl_rel = _parent_mask(relabel, sub.preclosure(_sub_mask(relabel, a)))
        return space.preclosure(a) & ~pcl_rel == 0

    return gen, pred


@_claim("LP1", "preirresolute (precontinuous) maps are exactly those "
               "shrinking preclosures into preclosures (closures)",
        ("finite",))
def _lp1():
    def gen(space, ctx):
        if space.n > 3:
            for _ in range(ctx.budget):
                m = ctx.rng.randint(1, 3)
                cod = ctx.rng.choice(all_topologies(m))
                yield {
                    "codomain": space_to_json(cod),
                    "assignment": [ctx.rng.randrange(m) for _ in range(space.n)],
                }
            return
        for m in range(1, 4):
            for cod in all_topologies(m):
                for pick in range(m ** space.n):
                    assignment = []
                    v = pick
                    for _ in range(space.n):
                        assignment.append(v % m)
                        v //= m
                    yield {
                        "codomain": space_to_json(cod),
                        "assignment": assignment,
                    }

    def pred(space, inst):
        cod = space_from_json(inst["codomain"])
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

    return gen, pred


def _skel_semiregular_proper(space):
    for t, flags in classified_templates(space):
        if flags.semi_regular and not t.is_empty() and not t.is_full():
            yield t


@_claim("T5", "a hyperdisconnected space whose proper semi-regular "
              "subspaces are all p-closed is p-closed", ("finite", "skeleton"))
def _t5():
    def pred(space, inst):
        if isinstance(space, FiniteSpace):
            if not check_simple(space, "hyperdisconnected"):
                return True
            for a in range(1, space.full):
                if space.classify(a).semi_regular:
                    sub, _ = space.subspace(a)
                    if check_cover(sub, "p-closed").outcome is not True:
                        return True  # hypothesis fails
            return check_cover(space, "p-closed").outcome
        if not check_simple(space, "hyperdisconnected"):
            return True
        hypo = True
        for t in _skel_semiregular_proper(space):
            sub_pc = subspace_p_closed(space, t)
            if sub_pc is None:
                return None
            if sub_pc is False:
                hypo = False
                break
        if not hypo:
            return True
        pc = _cover_outcome(space, "p-closed")
        return pc

    return _whole_space_gen, pred


@_claim("T6", "a proper semi-regular split into two p-closed subspaces "
              "forces p-closedness", ("finite", "skeleton"))
def _t6():
    def pred(space, inst):
        if isinstance(space, FiniteSpace):
            for a in range(1, space.full):
                if space.classify(a).semi_regular:
                    sub1, _ = space.subspace(a)
                    sub2, _ = space.subspace(space.full ^ a)
                    if (check_cover(sub1, "p-closed").outcome is True
                            and check_cover(sub2, "p-closed").outcome is True):
                        return check_cover(space, "p-closed").outcome is True
            return True
        from topolab.skeleton import sym_complement

        for t in _skel_semiregular_proper(space):
            comp = sym_complement(space, t)
            pc1 = subspace_p_closed(space, t)
            pc2 = subspace_p_closed(space, comp)
            if pc1 is True and pc2 is True:
                pc = _cover_outcome(space, "p-closed")
                if pc is None:
                    return None
                if not pc:
                    return False
            elif pc1 is None or pc2 is None:
                return None
        return True

    return _whole_space_gen, pred


@_claim("T7", "preregular subsets of p-closed spaces are p-closed "
              "subspaces", ("finite", "skeleton"))
def _t7():
    def gen(space, ctx):
        if isinstance(space, FiniteSpace):
            for s in _subsets(space, ctx):
                yield {"subsets": [list(points_of(s))]}
        else:
            for t, flags in classified_templates(space):
                if flags.preregular and not t.is_empty():
                    yield {"templates": [t.to_json()]}

    def pred(space, inst):
        if isinstance(space, FiniteSpace):
            a = mask_of(inst["subsets"][0], space.n)
            if not a or not space.classify(a).preregular:
                return True
            if check_cover(space, "p-closed").outcome is not True:
                return True
            sub, _ = space.subspace(a)
            return check_cover(sub, "p-closed").outcome is True
        from topolab.properties import _template_from_json

        t = _template_from_json(space, inst["templates"][0])
        pc = _cover_outcome(space, "p-closed")
        if pc is False:
            return True
        if pc is None:
            return None
        return subspace_p_closed(space, t)

    return gen, pred


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
            for a, b in _subset_pairs(space, ctx):
                yield {"subsets": [list(points_of(a)), list(points_of(b))]}
        else:
            temps = classified_templates(space)
            for t1, f1 in temps:
                if not f1.pre_theta_closed:
                    continue
                for t2, _f2 in temps:
                    yield {"templates": [t1.to_json(), t2.to_json()]}

    def pred(space, inst):
        if isinstance(space, FiniteSpace):
            a = mask_of(inst["subsets"][0], space.n)
            b = mask_of(inst["subsets"][1], space.n)
            if not space.classify(a).pre_theta_closed:
                return True
            if check_cover_relative(space, b, "p-closed").outcome is not True:
                return True
            return check_cover_relative(space, a & b, "p-closed").outcome is True
        from topolab.properties import _template_from_json

        t1 = _template_from_json(space, inst["templates"][0])
        t2 = _template_from_json(space, inst["templates"][1])
        rel = check_cover_relative(space, t2, "p-closed").outcome
        if rel is False:
            return True
        if rel is None:
            return None
        # the intersection is not template-determined in general; decide
        # through cardinality or triviality
        if not t2.has_infinite_part():
            return True  # any intersection is finite, hence relatively p-closed
        if t1.is_empty():
            return True
        if t1.is_full():
            return True  # intersection is t2 itself, rel-p-closed by hypothesis
        return None

    return gen, pred


@_claim("C45", "pre-theta-closed sets of p-closed spaces are p-closed "
               "relative to the space", ("finite", "skeleton"))
def _c45():
    def gen(space, ctx):
        if isinstance(space, FiniteSpace):
            for s in _subsets(space, ctx):
                yield {"subsets": [list(points_of(s))]}
        else:
            for t, flags in classified_templates(space):
                if flags.pre_theta_closed:
                    yield {"templates": [t.to_json()]}

    def pred(space, inst):
        if isinstance(space, FiniteSpace):
            a = mask_of(inst["subsets"][0], space.n)
            if not space.classify(a).pre_theta_closed:
                return True
            if check_cover(space, "p-closed").outcome is not True:
                return True
            return check_cover_relative(space, a, "p-closed").outcome is True
        from topolab.properties import _template_from_json

        t = _template_from_json(space, inst["templates"][0])
        pc = _cover_outcome(space, "p-closed")
        if pc is False:
            return True
        if pc is None:
            return None
        return check_cover_relative(space, t, "p-closed").outcome

    return gen, pred


@_claim("TN3", "on predisconnected spaces: p-closed iff every preregular "
               "subset is p-closed relative to the space",
        ("finite", "skeleton"))
def _tn3():
    def pred(space, inst):
        if not check_simple(space, "predisconnected"):
            return True
        if isinstance(space, FiniteSpace):
            pc = check_cover(space, "p-closed").outcome is True
            rhs = all(
                check_cover_relative(space, a, "p-closed").outcome is True
                for a in range(space.full + 1)
                if space.classify(a).preregular
            )
            return pc == rhs
        pc = _cover_outcome(space, "p-closed")
        if pc is None:
            return None
        rhs = True
        for t, flags in classified_templates(space):
            if not flags.preregular:
                continue
            v = check_cover_relative(space, t, "p-closed").outcome
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
        if isinstance(space, FiniteSpace):
            for a in range(1, space.full):
                if not space.classify(a).preregular:
                    continue
                if (check_cover_relative(space, a, "p-closed").outcome is True and
                        check_cover_relative(space, space.full ^ a, "p-closed")
                        .outcome is True):
                    return check_cover(space, "p-closed").outcome is True
            return True
        from topolab.skeleton import sym_complement

        for t, flags in classified_templates(space):
            if not flags.preregular or t.is_empty() or t.is_full():
                continue
            v1 = check_cover_relative(space, t, "p-closed").outcome
            v2 = check_cover_relative(
                space, sym_complement(space, t), "p-closed").outcome
            if v1 is True and v2 is True:
                pc = _cover_outcome(space, "p-closed")
                if pc is None:
                    return None
                if not pc:
                    return False
            elif v1 is None or v2 is None:
                return None
        return True

    return _whole_space_gen, pred


@_claim("TN5", "semi-open p-closed subspaces are p-closed relative to the "
               "space", ("finite", "skeleton"))
def _tn5():
    def gen(space, ctx):
        if isinstance(space, FiniteSpace):
            for s in _subsets(space, ctx):
                yield {"subsets": [list(points_of(s))]}
        else:
            for t, flags in classified_templates(space):
                if flags.semi_open and not t.is_empty():
                    yield {"templates": [t.to_json()]}

    def pred(space, inst):
        if isinstance(space, FiniteSpace):
            a = mask_of(inst["subsets"][0], space.n)
            if not a or not space.classify(a).semi_open:
                return True
            sub, _ = space.subspace(a)
            if check_cover(sub, "p-closed").outcome is not True:
                return True
            return check_cover_relative(space, a, "p-closed").outcome is True
        from topolab.properties import _template_from_json

        t = _template_from_json(space, inst["templates"][0])
        sub_pc = subspace_p_closed(space, t)
        if sub_pc is False:
            return True
        if sub_pc is None:
            return None
        return check_cover_relative(space, t, "p-closed").outcome

    return gen, pred


@_claim("TN6", "preopen sets p-closed relative to the space are p-closed "
               "subspaces", ("finite", "skeleton"))
def _tn6():
    def gen(space, ctx):
        if isinstance(space, FiniteSpace):
            for s in _subsets(space, ctx):
                yield {"subsets": [list(points_of(s))]}
        else:
            for t, flags in classified_templates(space):
                if flags.preopen and not t.is_empty():
                    yield {"templates": [t.to_json()]}

    def pred(space, inst):
        if isinstance(space, FiniteSpace):
            a = mask_of(inst["subsets"][0], space.n)
            if not a or not space.classify(a).preopen:
                return True
            if check_cover_relative(space, a, "p-closed").outcome is not True:
                return True
            sub, _ = space.subspace(a)
            return check_cover(sub, "p-closed").outcome is True
        from topolab.properties import _template_from_json

        t = _template_from_json(space, inst["templates"][0])
        rel = check_cover_relative(space, t, "p-closed").outcome
        if rel is False:
            return True
        if rel is None:
            return None
        return subspace_p_closed(space, t)

    return gen, pred


@_claim("C-ALPHA", "for alpha-open sets: p-closed subspace iff p-closed "
                   "relative to the space", ("finite", "skeleton"))
def _c_alpha():
    def gen(space, ctx):
        if isinstance(space, FiniteSpace):
            for s in _subsets(space, ctx):
                yield {"subsets": [list(points_of(s))]}
        else:
            for t, flags in classified_templates(space):
                if flags.alpha_open and not t.is_empty():
                    yield {"templates": [t.to_json()]}

    def pred(space, inst):
        if isinstance(space, FiniteSpace):
            a = mask_of(inst["subsets"][0], space.n)
            if not a or not space.classify(a).alpha_open:
                return True
            sub, _ = space.subspace(a)
            sub_pc = check_cover(sub, "p-closed").outcome is True
            rel = check_cover_relative(space, a, "p-closed").outcome is True
            return sub_pc == rel
        from topolab.properties import _template_from_json

        t = _template_from_json(space, inst["templates"][0])
        sub_pc = subspace_p_closed(space, t)
        rel = check_cover_relative(space, t, "p-closed").outcome
        if sub_pc is None or rel is None:
            return None
        return sub_pc == rel

    return gen, pred


@_claim("T-IMG", "preirresolute (precontinuous) surjections push sets "
                 "p-closed relative to the domain to sets p-closed (qhc) "
                 "relative to the codomain", ("finite",))
def _t_img():
    def gen(space, ctx):
        if space.n > 3:
            for _ in range(ctx.budget):
                m = ctx.rng.randint(1, 3)
                cod = ctx.rng.choice(all_topologies(m))
                assignment = [ctx.rng.randrange(m) for _ in range(space.n)]
                if set(assignment) != set(range(m)):
                    continue
                yield {
                    "codomain": space_to_json(cod),
                    "assignment": assignment,
                }
            return
        for m in range(1, 4):
            for cod in all_topologies(m):
                for pick in range(m ** space.n):
                    assignment = []
                    v = pick
                    for _ in range(space.n):
                        assignment.append(v % m)
                        v //= m
                    if set(assignment) != set(range(m)):
                        continue  # surjections only
                    yield {
                        "codomain": space_to_json(cod),
                        "assignment": assignment,
                    }

    def pred(space, inst):
        cod = space_from_json(inst["codomain"])
        f = SpaceMap(space, cod, tuple(inst["assignment"]))
        flags = map_classify(f)
        if not (flags.preirresolute or flags.precontinuous):
            return True
        for k in range(space.full + 1):
            if check_cover_relative(space, k, "p-closed").outcome is not True:
                continue
            img = f.image(k)
            if flags.preirresolute:
                if check_cover_relative(cod, img, "p-closed").outcome is not True:
                    return False
            if flags.precontinuous:
                if check_cover_relative(cod, img, "qhc").outcome is not True:
                    return False
        return True

    return gen, pred


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
        for t, flags in classified_templates(space):
            if flags.preregular and not t.is_empty() and not t.is_full():
                yield {"fact": "preregular-relative", "templates": [t.to_json()]}

    def pred(space, inst):
        from topolab.properties import _template_from_json
        from topolab.skeleton import remark_product_factors

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
        t = _template_from_json(space, inst["templates"][0])
        return check_cover_relative(space, t, "p-closed").outcome

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
    from topolab.skeleton import SymbolicAmbiguity, SymbolicIncomplete

    rng = random.Random(f"{seed}|{cid}|{label}")
    ctx = Ctx(rng=rng, exhaustive=exhaustive, budget=budget)
    checked = 0
    unknowns = 0
    violations = []
    pred = _PREDS[cid]
    try:
        for inst in _GENS[cid](space, ctx):
            checked += 1
            try:
                ok = pred(space, inst)
            except (SymbolicIncomplete, SymbolicAmbiguity):
                ok = None
            if ok is None:
                unknowns += 1
            elif ok is False:
                violations.append({
                    "space": space_to_json(space),
                    "label": label,
                    "instance": inst,
                })
    except (SymbolicIncomplete, SymbolicAmbiguity):
        unknowns += 1
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
        from topolab.skeleton import remark_product_factors

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
    return _PREDS[cid](space, record["instance"])


# -- counterexample hunts ------------------------------------------------------------


HUNT_TARGETS = ("tn1-converse", "c45-converse")


def search_counterexample(target, universe: Universe) -> dict:
    """Find a universe member refuting a reversed edge or a posed question.

    ``target`` is either a pair of cover properties (p, q), read as the
    reversed arrow q-without-p, or one of the named question targets.
    """
    checked = 0
    skipped = 0
    witness = None
    details = None
    for label, space in universe.spaces():
        checked += 1
        if isinstance(target, tuple):
            p, q = target
            vq = check_cover(space, q).outcome
            vp = check_cover(space, p).outcome
            if vq is None or vp is None:
                skipped += 1
                continue
            if vq is True and vp is False:
                witness, details = label, {q: True, p: False}
                break
        elif target == "tn1-converse":
            vtc = check_cover(space, "pre-theta-compact").outcome
            vpc = check_cover(space, "p-closed").outcome
            if vtc is None or vpc is None:
                skipped += 1
                continue
            if vtc is True and vpc is False:
                witness, details = label, {"pre-theta-compact": True,
                                           "p-closed": False}
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
            for t, flags in classified_templates(space):
                if not flags.pre_theta_closed or t.is_full():
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


def reversal_report(universe: Universe) -> dict:
    """Reversal witnesses for every diagram edge, with not-attempted notes."""
    out = {}
    for p, q in diagram_edges():
        res = search_counterexample((p, q), universe)
        out[f"{p}=>{q}"] = res
        if res["witness"] is None:
            res["note"] = (
                "no witness in this universe; known witnesses need spaces "
                "outside the finitely-presented fragment"
            )
    return out

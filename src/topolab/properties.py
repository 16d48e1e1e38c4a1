"""Space-level properties: cover-saturation compactness variants and the
simple separation/resolvability/connectedness/regularity properties.

Every compactness variant is one configuration of a single scheme: a class
of admissible cover members plus an expansive saturation applied to a
chosen finite subfamily.  Finite spaces satisfy every such property
outright (the subfamily can be the whole, finite, family), so the checkers
return definite verdicts there.  On skeletons two sound searches run: an
escape-witness search (per-point-class cover templates whose saturations
trace only finitely onto some infinite class) proving failure, and a
pivot search (a class whose every admissible template saturates to the
whole carrier) proving success.  Neither search is complete; Unknown is a
legal outcome away from the catalog.

A saturation is ``"id"`` or an operator name of ``core.OPERATORS``, which
both kinds of space answer through ``space.operator`` (``_saturate``).  A
cover class is a class flag, and ``flagged`` gives the sets of a space that
carry one: masks of a finite space, templates of a skeleton.

Every simple property is decided from top classes, but for the
p-regularity trio on skeletons with omega nodes, which searches templates
for separating preopen sets.  A finite space passes its up-set rows, a
skeleton the rows of its validation probe (see ``_top_class_simple``).
aleph0-ed holds outright on a finite space and reads the probe rows of a
skeleton (``_aleph0_ed``); the trio reads the rows on finite carriers
(``_p_regularity``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from topolab.core import FiniteSpace, bits, points_of, top_classes
from topolab.skeleton import (
    INF,
    SkeletonOverflow,
    SkeletonSpace,
    SymbolicAmbiguity,
    SymbolicSet,
    _marked_config,
    all_symbolic_sets,
    expand,
    finite_probe,
    full_set,
    probe_set,
)


@dataclass(frozen=True)
class CoverProperty:
    """A cover class paired with an expansive saturation operator."""

    name: str
    cover_class: str
    saturation: str


COVER_PROPERTIES = {
    cp.name: cp
    for cp in (
        CoverProperty("p-closed", "preopen", "pcl"),
        CoverProperty("qhc", "open", "cl"),
        CoverProperty("strongly-compact", "preopen", "id"),
        CoverProperty("compact", "open", "id"),
        CoverProperty("nearly-compact", "regular-open", "id"),
        CoverProperty("alpha-compact", "alpha-open", "id"),
        CoverProperty("delta-p-closed", "delta-preopen", "delta-pcl"),
        CoverProperty("pre-theta-compact", "pre-theta-open", "id"),
        CoverProperty("S-closed", "semi-open", "cl"),
        CoverProperty("s-closed", "semi-open", "scl"),
        CoverProperty("semi-compact", "semi-open", "id"),
    )
}

_CLASS_FLAG = {
    "open": "open",
    "preopen": "preopen",
    "semi-open": "semi_open",
    "alpha-open": "alpha_open",
    "regular-open": "regular_open",
    "delta-preopen": "delta_preopen",
    "pre-theta-open": "pre_theta_open",
}

SIMPLE_PROPERTIES = (
    "t0",
    "submaximal",
    "resolvable",
    "irresolvable",
    "strongly-irresolvable",
    "hyperconnected",
    "hyperdisconnected",
    "extremally-disconnected",
    "aleph0-ed",
    "preconnected",
    "predisconnected",
    "strongly-p-regular",
    "p-regular",
    "almost-p-regular",
)


@dataclass(frozen=True)
class Verdict:
    """Three-valued answer: True with a certificate, False with a witness,
    or Unknown (None) when neither search concludes."""

    outcome: bool | None
    certificate: dict | None = None
    witness: dict | None = None

    def to_json(self):
        return {
            "outcome": self.outcome,
            "certificate": self.certificate,
            "witness": self.witness,
        }


def _saturate(space, sat: str, a):
    """``a`` saturated by ``sat``: itself for ``"id"``, else the operator of
    that name (memoized on a skeleton, not on a finite space)."""
    return a if sat == "id" else space.operator(sat, a)


def flagged(space, flag: str) -> tuple:
    """The sets of a space with a class flag (a ``ClassFlags`` field),
    memoized: masks in increasing order on a finite space, templates in
    ``all_symbolic_sets`` order on a skeleton."""
    def scan():
        if isinstance(space, FiniteSpace):
            classified = ((a, space.classify(a)) for a in range(space.full + 1))
        else:
            classified = classified_templates(space)
        return tuple(s for s, flags in classified if getattr(flags, flag))

    return space.recall(("flagged", flag), scan)


def _finite_family(space: FiniteSpace, cp: CoverProperty) -> tuple:
    """(member, saturation) for every admissible cover member, by mask."""
    return space.recall(("family", cp.cover_class, cp.saturation), lambda: tuple(
        (a, _saturate(space, cp.saturation, a))
        for a in flagged(space, _CLASS_FLAG[cp.cover_class])))


def _finite_certificate(space: FiniteSpace, cp: CoverProperty,
                        target: int) -> dict:
    """One member always suffices: the carrier lies in every cover class and
    saturates to itself.  The subcover is the smallest such member."""
    family = _finite_family(space, cp)
    member = next(a for a, sat in family if not target & ~sat)
    return {
        "kind": "finite",
        "family_size": len(family),
        "subcover": [list(points_of(member))],
    }


class _FiniteVerdict(Verdict):
    """True, with the certificate built when first read: claim predicates
    read only the outcome of finite verdicts."""

    def __init__(self, space: FiniteSpace, cp: CoverProperty, target: int):
        object.__setattr__(self, "outcome", True)
        object.__setattr__(self, "witness", None)
        object.__setattr__(self, "_cover", (space, cp, target))

    @cached_property
    def certificate(self) -> dict:
        return _finite_certificate(*self._cover)


# -- symbolic results, memoized on the space (space.recall) --------------------


def classified_templates(space: SkeletonSpace):
    """All templates of the skeleton with their class flags, memoized."""
    return space.recall(("templates",), lambda: tuple(
        (t, space.classify(t)) for t in all_symbolic_sets(space)))


def _element_classes(space: SkeletonSpace):
    for i, nd in enumerate(space.nodes):
        for e in range(nd.size):
            yield i, e


def _covering_templates(space, cp, i, e):
    """Templates admissible as the per-point cover member of class (i, e):
    in the cover class, containing the class with a shrinkable (non-INF)
    pattern count."""
    for t in flagged(space, _CLASS_FLAG[cp.cover_class]):
        for pat, card in t.counts[i]:
            if pat >> e & 1 and card != INF:
                yield t
                break


def _escape_search(space: SkeletonSpace, cp: CoverProperty, classes, pis):
    """Try to find an escape witness: an infinite class pi and, per point
    class, a cover template whose saturation traces finitely onto pi."""
    for pi in pis:
        templates = {}
        ok = True
        for (i, e) in classes:
            found = None
            for t in _covering_templates(space, cp, i, e):
                if _saturate(space, cp.saturation, t).trace_card(*pi) != INF:
                    found = t
                    break
            if found is None:
                ok = False
                break
            templates[i, e] = found
        if ok:
            return {
                "escape_class": {
                    "node": space.nodes[pi[0]].name,
                    "elem": pi[1],
                },
                "templates": {
                    f"{space.nodes[i].name}.e{e}": t.to_json()
                    for (i, e), t in templates.items()
                },
            }
    return None


def _pivot_search(space: SkeletonSpace, cp: CoverProperty, classes):
    """Try to find a pivot class: every admissible template containing a
    point of the class saturates to the full carrier."""
    flag = _CLASS_FLAG[cp.cover_class]
    for (i, e) in classes:
        if all(_saturate(space, cp.saturation, t).is_full()
               for t in flagged(space, flag) if t.touches(i, e)):
            return {
                "kind": "pivot",
                "class": {"node": space.nodes[i].name, "elem": e},
                "reason": "every admissible cover member through this class "
                          "saturates to the whole carrier",
            }
    return None


def check_cover(space, prop) -> Verdict:
    """Decide a cover-saturation property; finite spaces are always True."""
    cp = COVER_PROPERTIES[prop] if isinstance(prop, str) else prop
    return space.recall(("cover", cp.name),
                        lambda: _check_cover_uncached(space, cp))


def _check_cover_uncached(space, cp) -> Verdict:
    if isinstance(space, FiniteSpace):
        return _FiniteVerdict(space, cp, space.full)
    if space.finite:
        fs, _ = expand(space)
        return check_cover(fs, cp)
    return _check_relative_uncached(space, full_set(space), cp)


def check_cover_relative(space, subset, prop) -> Verdict:
    """Relative version: covers of the subset by admissible subsets of the
    ambient space, finite subfamilies saturating over the subset."""
    cp = COVER_PROPERTIES[prop] if isinstance(prop, str) else prop
    if isinstance(space, FiniteSpace):
        space.check_fits(subset)
        if subset == 0:
            return Verdict(True, certificate={"kind": "empty"})
        return _FiniteVerdict(space, cp, subset)
    return space.recall(("relative", cp.name, subset.counts),
                        lambda: _check_relative_uncached(space, subset, cp))


def _check_relative_uncached(space: SkeletonSpace, s: SymbolicSet,
                             cp: CoverProperty) -> Verdict:
    if s.is_empty():
        return Verdict(True, certificate={"kind": "empty"})
    if not s.has_infinite_part():
        return Verdict(True, certificate={
            "kind": "finite-subset",
            "reason": "the subset is finite; one cover member per point",
        })
    classes = [(i, e) for (i, e) in _element_classes(space)
               if s.trace_card(i, e) != 0]
    pis = [(i, e) for (i, e) in classes if s.trace_card(i, e) == INF]
    try:
        witness = _escape_search(space, cp, classes, pis)
        if witness is not None:
            return Verdict(False, witness=witness)
        cert = _pivot_search(space, cp, classes)
    except SkeletonOverflow:  # all_symbolic_sets past its cap
        return Verdict(None)
    if cert is not None:
        return Verdict(True, certificate=cert)
    return Verdict(None)


# -- escape witness smoke test ---------------------------------------------------


def smoke_test_witness(space: SkeletonSpace, cp: CoverProperty, witness: dict,
                       omega_size: int = 6) -> bool:
    """Instantiate an escape witness on a finite probe and verify that two
    greedily chosen saturated members of the induced cover leave probe
    points of the escape class uncovered.  A smoke test, not a proof."""
    probe = finite_probe(space, omega_size)
    fs, labels = expand(probe)
    point_idx = {lab: k for k, lab in enumerate(labels)}
    name_to_idx = {nd.name: i for i, nd in enumerate(space.nodes)}

    def instance_at(t: SymbolicSet, node: int, copy: int, sigma: int) -> int:
        inst = probe_set(space, probe, t)
        mask = 0
        for nj, pairs in enumerate(inst.counts):
            pats = []
            for pat, card in pairs:
                pats.extend([pat] * card)
            if nj == node:
                k = pats.index(sigma)
                pats[copy], pats[k] = pats[k], pats[copy]
            for c2, pat in enumerate(pats):
                for el in bits(pat):
                    mask |= 1 << point_idx[nj, c2, el]
        return mask

    cover = []
    for key, tjson in witness["templates"].items():
        node_name, elem_tok = key.rsplit(".e", 1)
        i, e = name_to_idx[node_name], int(elem_tok)
        t = SymbolicSet.from_json(space, tjson)
        sigma = next(
            pat for pat, card in t.counts[i]
            if pat >> e & 1 and card not in (0, INF)
        )
        for c in range(probe.nodes[i].card):
            cover.append(instance_at(t, i, c, sigma))
    if not cover:
        return False
    pi = witness["escape_class"]
    pi_i = name_to_idx[pi["node"]]
    target = 0
    for idx, (ni, _c, el) in enumerate(labels):
        if ni == pi_i and el == pi["elem"]:
            target |= 1 << idx
    covered = 0
    for _ in range(2):
        best, gain = None, -1
        for v in cover:
            g = bin(_saturate(fs, cp.saturation, v) & target & ~covered).count("1")
            if g > gain:
                best, gain = v, g
        if best is None:
            break
        covered |= _saturate(fs, cp.saturation, best)
    return bool(target & ~covered)


# -- simple properties -------------------------------------------------------------


_TOP_CLASS_PROPERTIES = ("t0", "submaximal", "resolvable", "strongly-irresolvable",
                         "hyperconnected", "extremally-disconnected", "preconnected")
_NEGATIONS = {
    "irresolvable": "resolvable",
    "hyperdisconnected": "hyperconnected",
    "predisconnected": "preconnected",
}
# the p-regularity trio: the closed sets separated from outside points
_SEPARATED_CLASS = {
    "strongly-p-regular": "preclosed",
    "p-regular": "closed",
    "almost-p-regular": "regular_closed",
}


def _top_class_simple(rows, name: str) -> bool:
    """Decide t0 or a dense-set or connectedness property from the up-set
    rows of an Alexandrov space.

    Top classes are those of ``core.top_classes``, Top their union and S the
    union of the one-point ones; they are open, and every nonempty open set
    contains one, so a set is dense iff it meets every top class.  Hence:
    - resolvable iff every top class has 2 or more points, strongly
      irresolvable iff every one has a single point (an open top class of
      2 or more points is a resolvable open subspace), hyperconnected iff
      there is exactly one (two are disjoint nonempty open sets);
    - submaximal iff every row minus its own point lies in S: then every
      set holding Top is open, and no top class {x, y, ...} can be, as the
      dense set without x is not open;
    - extremally disconnected iff every row meets exactly one top class:
      cl U is the down-set of U, open iff the top classes above its points
      lie in U;
    - U and its complement are both preopen iff neither misses a top class
      above one of its points, so preconnected iff S = Top and the tops are
      connected, two tops being linked when one row meets both.
    T0 means the rows are pairwise distinct.

    A finite space passes its ``min_nbhd``.  A skeleton passes
    ``probe_rows``, the rows of its validation probe, where omega becomes 3
    copies and finite cards are capped at 3.  The probe is exact here:
    - relations are class-uniform, so whether a point is top, and whether a
      row holds a point, depends only on their classes and on whether they
      are copies of one node, which the probe keeps;
    - a clique node's top class holds all its copies, and an antichain node
      gives one top class per copy, so "1 vs 2 or more points" and "1 vs 2
      or more top classes", in the space or in one row, read the same with
      3 copies as with the real number;
    - a link needs at most 3 copies of a node, one per top and one for the
      row, so the probe's links are the real ones among its tops.  Any two
      real tops lie in one copy of the probe, and a real path between probe
      tops can be redrawn in the probe: each step keeps or changes copy as
      the real one does, and with 3 copies a changed copy can differ from
      those of both its neighbours on the path;
    - every strictly increasing chain changes class, so height is finite.
    """
    if name == "t0":
        return len(set(rows)) == len(rows)
    tops = top_classes(rows)
    if name == "submaximal":
        return all(not r & ~(1 << x) & ~tops.single for x, r in enumerate(rows))
    if name == "extremally-disconnected":
        return all(sum(1 for c in tops.classes if c & r) == 1 for r in rows)
    if name == "preconnected":
        linked, grown = 0, tops.top & -tops.top
        while grown != linked:
            linked = grown
            for r in rows:
                if r & linked:
                    grown |= r & tops.top
        return tops.single == tops.top == linked
    if name == "resolvable":
        return all(r.bit_count() > 1 for r in tops.classes)
    if name == "strongly-irresolvable":
        return all(r.bit_count() == 1 for r in tops.classes)
    return len(tops.classes) == 1  # hyperconnected


def _p_regularity(rows, name: str) -> bool:
    """Decide the p-regularity trio from the up-set rows of a finite
    Alexandrov space: strongly p-regular iff p-regular iff no row holds a
    one-point top class other than its own point, and almost p-regular iff
    no row that holds a one-point top class meets a second top class.

    Top classes, Top and S are those of ``_top_class_simple``.  The largest
    preopen set missing a set V is the complement of pcl V, so a point x
    outside F is separated from F by disjoint preopen sets iff x misses the
    hull of F, the meet of pcl V over the preopen sets V holding F:
    - a set is preopen iff it meets every top class above each of its
      points, so the minimal preopen sets holding F add to it S ∩ ↑F and
      one point of each larger top class above F that F misses;
    - such a point leaves the interior unchanged (its class is not inside
      the set), and it can be any point of its class, so the hull of F is
      pcl(F ∪ (S ∩ ↑F)), which is F itself when F is preclosed and S ∩ ↑F
      lies in F;
    - a row holding s in S other than its own point gives the closed set F
      = ↓x with s in S ∩ ↑F but not in F, so the space is not p-regular,
      and if no row does, S ∩ ↑F lies in F for every F, so every preclosed
      F is separated from every outside point;
    - a regular closed set is ↓T for a set T of top classes; if the row of
      x holds s in S and meets a top class C other than {s}, then s lies in
      S ∩ ↑↓C but not in ↓C, and otherwise every point of S ∩ ↑↓T lies in
      T.

    A finite space passes its ``min_nbhd``, an all-finite skeleton its
    ``probe_rows``.  The probe is exact for the reasons ``_top_class_simple``
    gives: whether a top class has one point, whether a row holds a point of
    another class or copy, and whether a row meets one top class or two and
    more read the same with 3 copies of a node as with more.
    """
    tops = top_classes(rows)
    if name == "almost-p-regular":
        return all(not r & tops.single or sum(1 for c in tops.classes if c & r) == 1
                   for r in rows)
    return all(not r & tops.single & ~(1 << x) for x, r in enumerate(rows))


def _exists_separating_preopen(space, f_set, node, group_pat, elem) -> bool:
    """Is there a preopen V containing the given set with a generic point
    of the (node, group, elem) class outside pcl(V)?  V is the set joined
    with one element mask per node, less the point.  Masks that separated
    before on this space go first, so that the number of trials does not
    follow the order of the nodes.
    """
    if sum(nd.size for nd in space.nodes) > 12:  # 4096 masks
        raise SkeletonOverflow("separation search too large")
    cfg, f_value = _marked_config(space, f_set, node, group_pat)
    point = cfg.op_marked(node, 1 << elem)
    found = space.recall(("separators",), dict)  # an insertion-ordered set
    masks = itertools.product(*(range(1 << nd.size) for nd in space.nodes))
    for choice in itertools.chain(list(found), (c for c in masks if c not in found)):
        v = (f_value | cfg.op_const(choice)) & ~point
        try:
            if not cfg.subset(v, cfg.consolidation(v)):
                continue
            if cfg.marked_pattern(node, cfg.preclosure(v)) >> elem & 1:
                continue
        except SymbolicAmbiguity:
            continue
        found[choice] = None
        return True
    return False


def _skel_p_regularity(space: SkeletonSpace, kind: str) -> bool:
    for f_set in flagged(space, _SEPARATED_CLASS[kind]):
        for i, nd in enumerate(space.nodes):
            for pat, _card in f_set.counts[i]:
                for e in range(nd.size):
                    if pat >> e & 1:
                        continue  # the point would be inside the set
                    if not _exists_separating_preopen(space, f_set, i, pat, e):
                        return False
    return True


def _aleph0_ed(space: SkeletonSpace) -> bool:
    """Every regular open set of a skeleton has a finite boundary iff no
    point of an omega node has a probe row that meets two or more top
    classes.

    Every point of an open set U lies below a top class in U, so cl U is
    the down-set of the top classes U holds, and a regular open set is
    int ↓T for a set T of top classes.  A point lies in ↓T iff its row
    meets a class of T, and in int ↓T iff its row meets no other top
    class, so the boundary is the set of points whose row meets a top
    class in T and one outside T.  Hence:
    - a finite node has finitely many points, so only omega nodes can make
      a boundary infinite;
    - when the rows of an omega class meet two top classes, some T splits
      all of its copies: a top the copies share goes in T and the other
      one out, or else each copy's own top of one element goes in T;
    - a row meets one top class or two and more with 3 copies as with the
      real number, so the probe is exact here, as in ``_top_class_simple``.
    """
    rows, tops = space.probe_rows, top_classes(space.probe_rows).classes
    start = 0
    for nd, copies in zip(space.nodes, space.probe_copies()):
        end = start + copies * nd.size
        if nd.is_omega and any(sum(1 for c in tops if c & r) > 1
                               for r in rows[start:end]):
            return False
        start = end
    return True


def check_simple(space, name: str) -> bool:
    """Evaluate a simple property on a finite space or a skeleton."""
    if name not in SIMPLE_PROPERTIES:
        raise ValueError(f"unknown simple property {name!r}")
    return space.recall(("simple", name), lambda: _decide_simple(space, name))


def _decide_simple(space, name: str) -> bool:
    if name in _NEGATIONS:
        return not _decide_simple(space, _NEGATIONS[name])
    finite = isinstance(space, FiniteSpace)
    if name in _TOP_CLASS_PROPERTIES:
        return _top_class_simple(space.min_nbhd if finite else space.probe_rows, name)
    if name == "aleph0-ed":
        # every boundary of a finite space is finite
        return finite or _aleph0_ed(space)
    if finite or space.finite:
        return _p_regularity(space.min_nbhd if finite else space.probe_rows, name)
    return _skel_p_regularity(space, name)


# -- the implication diagram --------------------------------------------------------


def diagram_edges() -> tuple[tuple[str, str], ...]:
    """The drawn arrows between cover properties, and nothing else."""
    return (
        ("strongly-compact", "p-closed"),
        ("strongly-compact", "alpha-compact"),
        ("delta-p-closed", "p-closed"),
        ("p-closed", "qhc"),
        ("alpha-compact", "compact"),
        ("compact", "nearly-compact"),
        ("nearly-compact", "qhc"),
        ("semi-compact", "alpha-compact"),
        ("semi-compact", "s-closed"),
        ("s-closed", "S-closed"),
        ("s-closed", "nearly-compact"),
        ("S-closed", "qhc"),
    )

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
"""

from __future__ import annotations

from dataclasses import dataclass

from topolab.core import FiniteSpace, bits, points_of
from topolab.skeleton import (
    INF,
    SkeletonOverflow,
    SkeletonSpace,
    SymbolicAmbiguity,
    SymbolicIncomplete,
    SymbolicSet,
    all_symbolic_sets,
    expand,
    finite_probe,
    probe_set,
    restrict,
    sym_classify,
    sym_operator,
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


def _finite_saturate(space: FiniteSpace, sat: str, a: int) -> int:
    if sat == "id":
        return a
    if sat == "cl":
        return space.closure(a)
    if sat == "pcl":
        return space.preclosure(a)
    if sat == "scl":
        return space.semi_closure(a)
    if sat == "delta-pcl":
        return space.delta_preclosure(a)
    raise ValueError(f"unknown saturation {sat!r}")


_FAMILY_CACHE: dict = {}


def _finite_family(space: FiniteSpace, cp: CoverProperty) -> tuple:
    """(member, saturation) for every admissible cover member, by mask.
    The members are kept per cover class too, which several saturations
    share."""
    members = (space, cp.cover_class)
    key = members + (cp.saturation,)
    if members not in _FAMILY_CACHE:
        flag = _CLASS_FLAG[cp.cover_class]
        _FAMILY_CACHE[members] = tuple(
            a for a in range(space.full + 1) if getattr(space.classify(a), flag))
    if key not in _FAMILY_CACHE:
        _FAMILY_CACHE[key] = tuple((a, _finite_saturate(space, cp.saturation, a))
                                   for a in _FAMILY_CACHE[members])
    return _FAMILY_CACHE[key]


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


# -- symbolic results, memoized on the space (SkeletonSpace.recall) ------------


def template_flags(space: SkeletonSpace, t: SymbolicSet):
    """The class flags of a symbolic set, memoized."""
    return space.recall(("flags", t.counts), lambda: sym_classify(space, t))


def classified_templates(space: SkeletonSpace):
    """All templates of the skeleton with their class flags, memoized."""
    return space.recall(("templates",), lambda: tuple(
        (t, template_flags(space, t)) for t in all_symbolic_sets(space)))


def _sym_saturate(space: SkeletonSpace, sat: str, t: SymbolicSet) -> SymbolicSet:
    if sat == "id":
        return t
    return space.recall((sat, t.counts), lambda: sym_operator(space, sat, t))


def _element_classes(space: SkeletonSpace):
    for i, nd in enumerate(space.nodes):
        for e in range(nd.size):
            yield i, e


def _covering_templates(space, cp, i, e):
    """Templates admissible as the per-point cover member of class (i, e):
    in the cover class, containing the class with a shrinkable (non-INF)
    pattern count."""
    flag = _CLASS_FLAG[cp.cover_class]
    for t, flags in classified_templates(space):
        if not getattr(flags, flag):
            continue
        for pat, card in t.counts[i]:
            if pat >> e & 1 and card != 0 and card != INF:
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
                try:
                    sat = _sym_saturate(space, cp.saturation, t)
                except (SymbolicIncomplete, SymbolicAmbiguity):
                    continue
                if sat.trace_card(*pi) != INF:
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
        ok = True
        for t, flags in classified_templates(space):
            if not getattr(flags, flag) or not t.touches(i, e):
                continue
            try:
                sat = _sym_saturate(space, cp.saturation, t)
            except (SymbolicIncomplete, SymbolicAmbiguity):
                ok = False
                break
            if not sat.is_full():
                ok = False
                break
        if ok:
            return {
                "kind": "pivot",
                "class": {"node": space.nodes[i].name, "elem": e},
                "reason": "every admissible cover member through this class "
                          "saturates to the whole carrier",
            }
    return None


_COVER_CACHE: dict = {}  # finite spaces only; skeletons use their memo


def check_cover(space, prop) -> Verdict:
    """Decide a cover-saturation property; finite spaces are always True."""
    cp = COVER_PROPERTIES[prop] if isinstance(prop, str) else prop
    if isinstance(space, SkeletonSpace):
        return space.recall(("cover", cp.name),
                            lambda: _check_cover_uncached(space, cp))
    key = (space, cp.name)
    if key not in _COVER_CACHE:
        _COVER_CACHE[key] = _check_cover_uncached(space, cp)
    return _COVER_CACHE[key]


def _check_cover_uncached(space, cp) -> Verdict:
    if isinstance(space, FiniteSpace):
        return Verdict(True, certificate=_finite_certificate(space, cp, space.full))
    if space.finite:
        fs, _ = expand(space)
        return check_cover(fs, cp)
    classes = tuple(_element_classes(space))
    pis = [(i, e) for (i, e) in classes if space.nodes[i].is_omega]
    try:
        witness = _escape_search(space, cp, classes, pis)
        if witness is not None:
            return Verdict(False, witness=witness)
        cert = _pivot_search(space, cp, classes)
    except (SkeletonOverflow, SymbolicIncomplete, SymbolicAmbiguity):
        return Verdict(None)
    if cert is not None:
        return Verdict(True, certificate=cert)
    return Verdict(None)


def check_cover_relative(space, subset, prop) -> Verdict:
    """Relative version: covers of the subset by admissible subsets of the
    ambient space, finite subfamilies saturating over the subset."""
    cp = COVER_PROPERTIES[prop] if isinstance(prop, str) else prop
    if isinstance(space, FiniteSpace):
        space.check_fits(subset)
        if subset == 0:
            return Verdict(True, certificate={"kind": "empty"})
        return Verdict(True, certificate=_finite_certificate(space, cp, subset))
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
    except (SkeletonOverflow, SymbolicIncomplete, SymbolicAmbiguity):
        return Verdict(None)
    if cert is not None:
        return Verdict(True, certificate=cert)
    return Verdict(None)


# -- escape witness smoke test ---------------------------------------------------


def _template_from_json(space: SkeletonSpace, tjson: dict) -> SymbolicSet:
    """The template a claim instance names, parsed once per skeleton: claims
    over template pairs name each template thousands of times."""
    key = tuple((nname, tuple(pats.items())) for nname, pats in tjson.items())

    def parse():
        spec = {}
        for nname, pats in tjson.items():
            spec[nname] = {
                (tuple(int(tok[1:]) for tok in pat.split(","))
                 if pat != "-" else ()): card
                for pat, card in pats.items()
            }
        return SymbolicSet.from_names(space, spec)

    return space.recall(("json", key), parse)


def smoke_test_witness(space: SkeletonSpace, cp: CoverProperty, witness: dict,
                       omega_size: int = 6, subfamily: int = 2) -> bool:
    """Instantiate an escape witness on a finite probe and verify that a
    greedily chosen saturated subfamily of the induced cover leaves probe
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
        t = _template_from_json(space, tjson)
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
    for _ in range(subfamily):
        best, gain = None, -1
        for v in cover:
            g = bin(_finite_saturate(fs, cp.saturation, v) & target & ~covered).count("1")
            if g > gain:
                best, gain = v, g
        if best is None:
            break
        covered |= _finite_saturate(fs, cp.saturation, best)
    return bool(target & ~covered)


# -- simple properties -------------------------------------------------------------


def _finite_simple(space: FiniteSpace, name: str) -> bool:
    full = space.full
    if name == "t0":
        return len(set(space.min_nbhd)) == space.n
    if name == "submaximal":
        return all(
            space.is_open(a)
            for a in range(full + 1)
            if space.closure(a) == full
        )
    if name == "resolvable":
        return any(
            space.closure(a) == full and space.closure(full ^ a) == full
            for a in range(full + 1)
        )
    if name == "irresolvable":
        return not _finite_simple(space, "resolvable")
    if name == "strongly-irresolvable":
        for u in space.opens:
            if u == 0:
                continue
            sub, _ = space.subspace(u)
            if _finite_simple(sub, "resolvable"):
                return False
        return True
    if name == "hyperconnected":
        return all(space.closure(u) == full for u in space.opens if u)
    if name == "hyperdisconnected":
        return not _finite_simple(space, "hyperconnected")
    if name == "extremally-disconnected":
        return all(space.is_open(space.closure(u)) for u in space.opens)
    if name == "aleph0-ed":
        return True  # boundaries in a finite space are finite
    if name == "preconnected":
        po = set(space.preopen_masks)
        return not any(
            0 < u < full and u in po and (full ^ u) in po for u in range(full + 1)
        )
    if name == "predisconnected":
        return not _finite_simple(space, "preconnected")
    if name in ("strongly-p-regular", "p-regular", "almost-p-regular"):
        kind = {
            "strongly-p-regular": "preclosed",
            "p-regular": "closed",
            "almost-p-regular": "regular_closed",
        }[name]
        po = space.preopen_masks
        for f in range(full + 1):
            if not getattr(space.classify(f), kind):
                continue
            for x in bits(full ^ f):
                # disjoint preopen separation iff some preopen V >= F
                # has x outside pcl(V)
                if not any(
                    f & ~v == 0 and not space.preclosure(v) >> x & 1 for v in po
                ):
                    return False
        return True
    raise ValueError(f"unknown simple property {name!r}")


def _skel_dense(space, t, flags):
    return flags.dense


def _skel_resolvable(space: SkeletonSpace) -> bool:
    from topolab.skeleton import sym_complement

    for t, flags in classified_templates(space):
        if flags.dense and template_flags(space, sym_complement(space, t)).dense:
            return True
    return False


def _skel_strongly_irresolvable(space: SkeletonSpace) -> bool:
    for t, flags in classified_templates(space):
        if not flags.open or t.is_empty():
            continue
        for fin_as in (1, 2):
            sub = restrict(space, t, fin_as=fin_as)
            if _skel_resolvable(sub):
                return False
    return True


def _exists_separating_preopen(space, f_set, node, group_pat, elem) -> bool:
    """Is there a preopen V containing the given set with a generic point
    of the (node, group, elem) class outside pcl(V)?"""
    import itertools as _it

    from topolab.skeleton import Config, _marked_config, _marked_pattern

    masks_per_node = [range(1 << nd.size) for nd in space.nodes]
    total = 1
    for r in masks_per_node:
        total *= len(r)
    if total > 4096:
        raise SkeletonOverflow("separation search too large")
    for choice in _it.product(*masks_per_node):
        cfg = _marked_config(space, f_set, node, group_pat, elem)
        uniform = cfg.append_patterns(
            [[choice[i]] * len(node_groups) for i, node_groups in enumerate(cfg.groups)]
        )
        v = cfg.op_or(0, uniform)
        # optionally strip the marked point itself
        for strip in (False, True):
            vv = v
            if strip:
                x = []
                for i, node_groups in enumerate(cfg.groups):
                    x.append([
                        (1 << elem) if (m and i == node) else 0
                        for _, _, m in node_groups
                    ])
                xs = cfg.append_patterns(x)
                vv = cfg.op_diff(v, xs)
            if not cfg.slot_subset(0, vv):
                continue
            try:
                if not cfg.slot_subset(vv, cfg.op_int(cfg.op_cl(vv))):
                    continue
                if _marked_pattern(cfg, node, cfg.op_pcl(vv)) >> elem & 1:
                    continue
            except SymbolicAmbiguity:
                continue
            return True
    return False


def _skel_p_regularity(space: SkeletonSpace, kind: str) -> bool:
    flag = {
        "strongly-p-regular": "preclosed",
        "p-regular": "closed",
        "almost-p-regular": "regular_closed",
    }[kind]
    for f_set, flags in classified_templates(space):
        if not getattr(flags, flag):
            continue
        for i, nd in enumerate(space.nodes):
            for pat, card in f_set.counts[i]:
                if card == 0:
                    continue
                for e in range(nd.size):
                    if pat >> e & 1:
                        continue  # the point would be inside the set
                    if not _exists_separating_preopen(space, f_set, i, pat, e):
                        return False
    return True


def _skel_simple(space: SkeletonSpace, name: str) -> bool:
    if space.finite:
        return _finite_simple(expand(space)[0], name)
    if name == "t0":
        probe = finite_probe(space, 3)
        fs, _ = expand(probe)
        return _finite_simple(fs, "t0")
    if name == "submaximal":
        return all(
            flags.open for t, flags in classified_templates(space) if flags.dense
        )
    if name == "resolvable":
        return _skel_resolvable(space)
    if name == "irresolvable":
        return not _skel_resolvable(space)
    if name == "strongly-irresolvable":
        return _skel_strongly_irresolvable(space)
    if name == "hyperconnected":
        return all(
            flags.dense
            for t, flags in classified_templates(space)
            if flags.open and not t.is_empty()
        )
    if name == "hyperdisconnected":
        return not _skel_simple(space, "hyperconnected")
    if name == "extremally-disconnected":
        return all(
            template_flags(space, _sym_saturate(space, "cl", t)).open
            for t, flags in classified_templates(space)
            if flags.open
        )
    if name == "aleph0-ed":
        return not any(
            flags.regular_open and _boundary_has_inf(space, t)
            for t, flags in classified_templates(space)
        )
    if name == "preconnected":
        return not any(
            flags.preregular and not t.is_empty() and not t.is_full()
            for t, flags in classified_templates(space)
        )
    if name == "predisconnected":
        return not _skel_simple(space, "preconnected")
    if name in ("strongly-p-regular", "p-regular", "almost-p-regular"):
        return _skel_p_regularity(space, name)
    raise ValueError(f"unknown simple property {name!r}")


def _boundary_has_inf(space, t: SymbolicSet) -> bool:
    """Is the boundary cl(t) - int(t) of the set infinite?"""
    from topolab.skeleton import Config

    cfg = Config.of(space, t)
    diff = cfg.op_diff(cfg.op_cl(0), cfg.op_int(0))
    for node_groups in cfg.groups:
        for card, pats, _m in node_groups:
            if pats[diff] and card == INF:
                return True
    return False


_SIMPLE_CACHE: dict = {}  # finite spaces only; skeletons use their memo


def check_simple(space, name: str) -> bool:
    """Evaluate a simple property on a finite space or a skeleton."""
    if name not in SIMPLE_PROPERTIES:
        raise ValueError(f"unknown simple property {name!r}")
    if isinstance(space, SkeletonSpace):
        return space.recall(("simple", name), lambda: _skel_simple(space, name))
    key = (space, name)
    if key not in _SIMPLE_CACHE:
        _SIMPLE_CACHE[key] = _finite_simple(space, name)
    return _SIMPLE_CACHE[key]


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

"""Test-side helpers and oracles that the package itself does not run: the
.topo writer, brute-force finite families, the skeleton abstraction of a
concrete subset, the decoded view of ``Config`` values, and the reversal
report over the diagram."""

from __future__ import annotations

from topolab.core import FiniteSpace, points_of
from topolab.filters import FilterBase
from topolab.properties import diagram_edges
from topolab.skeleton import Config, SkeletonSpace, SymbolicSet
from topolab.verify import Universe, search_counterexample

# -- finite spaces ---------------------------------------------------------------


def format_topo(space: FiniteSpace) -> str:
    """The ``.topo`` text of a space, the inverse of ``core.parse_topo``."""
    lines = [f"points {space.n}"]
    for o in space.opens:
        if o in (0, space.full):
            continue
        lines.append("open " + " ".join(str(p) for p in points_of(o)))
    return "\n".join(lines) + "\n"


def preopen_at(space: FiniteSpace, x: int) -> tuple[int, ...]:
    """The preopen sets holding the point x."""
    return tuple(a for a in space.preopen_masks if a >> x & 1)


def semiopen_masks(space: FiniteSpace) -> tuple[int, ...]:
    """The semiopen sets, a <= cl int a, by a scan of every subset."""
    return tuple(a for a in range(space.full + 1)
                 if a & ~space.closure(space.interior(a)) == 0)


def regular_opens(space: FiniteSpace) -> frozenset[int]:
    """The regular open sets, int(cl(o)) for each open o."""
    return frozenset(space.consolidation(o) for o in space.opens)


def semi_regular_sandwich(space: FiniteSpace, a: int) -> bool:
    """Regular-open sandwich test: some regular open U has U <= a <= cl(U)."""
    return any(u & ~a == 0 and a & ~space.closure(u) == 0 for u in regular_opens(space))


def is_strictly_finer(fine: FilterBase, coarse: FilterBase) -> bool:
    """Filter refinement up to equivalence on the finite carrier."""
    mf, mc = fine.minimum(), coarse.minimum()
    return mf & ~mc == 0 and mf != mc


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


# -- skeletons -------------------------------------------------------------------


def empty_set(space: SkeletonSpace) -> SymbolicSet:
    return SymbolicSet.from_names(space, {})


def abstract(space: SkeletonSpace, labels, mask: int) -> SymbolicSet:
    """Abstract a concrete subset of expand(space) back to pattern counts."""
    per_copy = {}
    for idx, (i, c, e) in enumerate(labels):
        if mask >> idx & 1:
            per_copy[i, c] = per_copy.get((i, c), 0) | (1 << e)
    counts = []
    for i, nd in enumerate(space.nodes):
        merged = {}
        for c in range(nd.card):
            pat = per_copy.get((i, c), 0)
            merged[pat] = merged.get(pat, 0) + 1
        counts.append(tuple(sorted(merged.items())))
    return SymbolicSet(space, tuple(counts))


# -- Config values, decoded per group ------------------------------------------------


def decoded(cfg: Config, values) -> tuple:
    """Per node, (card, patterns, marked) for each group of the frame, with
    the group's pattern in each of ``values``."""
    return tuple(tuple((card, [v >> off & nd.full_pattern for v in values],
                        cfg.marked == (i, off))
                       for card, off in zip(cards, offsets))
                 for i, (nd, cards, offsets) in enumerate(
                     zip(cfg.space.nodes, cfg.cards, cfg.layout.offsets)))


def patterns(cfg: Config, value: int) -> list:
    """Per node, the pattern of ``value`` on each group."""
    return [[pats[0] for _card, pats, _marked in node_groups]
            for node_groups in decoded(cfg, [value])]


def pack(cfg: Config, per_group) -> int:
    """The value holding ``per_group[i][g]`` on group g of node i."""
    return sum(p << off for pats, offsets in zip(per_group, cfg.layout.offsets)
               for p, off in zip(pats, offsets))


def frame(space: SkeletonSpace, groups, count: int) -> tuple[Config, list]:
    """The inverse of ``decoded``: the frame of ``groups`` (per node, a
    [card, patterns, marked] for each group, at most one marked) and its
    first ``count`` values."""
    marked = next(((i, g) for i, node_groups in enumerate(groups)
                   for g, group in enumerate(node_groups) if group[2]), None)
    cfg = Config(space, tuple(tuple(g[0] for g in node_groups) for node_groups in groups),
                 marked)
    return cfg, [pack(cfg, [[g[1][s] for g in node_groups] for node_groups in groups])
                 for s in range(count)]

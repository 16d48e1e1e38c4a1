"""Symbolic Alexandrov spaces presented by point-symmetry classes.

A skeleton is a finite list of nodes, each one a symmetry class of points:
``card`` copies (a positive integer or omega) of a small preordered block,
with copies of one node mutually unrelated (``antichain``) or all mutually
related (``clique``), plus class-uniform order declarations between block
elements of different nodes.  Open sets of the realized space are exactly
the up-sets of the realized preorder.

Subsets of a realization are abstracted per node by how many copies carry
each block-element pattern: an exact count for finite nodes, one of
ZERO/FIN/INF for omega nodes.  Closure and interior of a set depend only on
this abstraction (copies of a class are interchangeable), so the operators
below are exact, not approximations.  The one delicate construction is a
"marked copy" (one distinguished copy of a node, used for generic-point
arguments); marked configurations never carry the ambiguous FIN class on
the marked copy, which keeps every decision definite, and the engine raises
``SymbolicAmbiguity`` if a computation would ever depend on an
indeterminate count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property

from topolab.core import MAX_EXPLICIT_POINTS, FiniteSpace, _canon, bits, ClassFlags

FIN = "fin"
INF = "inf"
_FIN0 = "fin?"  # internal: finite, possibly zero (a FIN group minus one copy)

OMEGA = None  # card value for omega nodes


class SkeletonError(ValueError):
    """Malformed skeleton, symbolic set, or skeleton file."""


class SkeletonOverflow(SkeletonError):
    """A construction left the representable fragment; never approximated."""


class SymbolicAmbiguity(RuntimeError):
    """A symbolic computation would depend on an indeterminate count."""


class SymbolicIncomplete(RuntimeError):
    """A bounded symbolic search could not settle a pre-theta decision."""


BLOCKS = {
    "chain1": (0b1,),
    "antichain2": (0b01, 0b10),
    "chain2": (0b11, 0b10),
    "clique2": (0b11, 0b11),
    "antichain3": (0b001, 0b010, 0b100),
    "chain3": (0b111, 0b110, 0b100),
    "clique3": (0b111, 0b111, 0b111),
}


def block_name(rows: tuple[int, ...]) -> str:
    for name, r in BLOCKS.items():
        if r == rows:
            return name
    return "custom" + str(list(rows))


def _check_block(rows: tuple[int, ...]):
    k = len(rows)
    if not 1 <= k <= 3:
        raise SkeletonError("block must have 1..3 elements")
    full = (1 << k) - 1
    for i, r in enumerate(rows):
        if r & ~full:
            raise SkeletonError("block row out of range")
        if not r >> i & 1:
            raise SkeletonError("block must be reflexive")
    for i in range(k):
        for j in bits(rows[i]):
            if rows[j] & ~rows[i]:
                raise SkeletonError("block must be transitive")


@dataclass(frozen=True)
class Node:
    """One symmetry class: ``card`` copies of a preordered block."""

    name: str
    card: int | None  # None = omega
    mode: str  # "antichain" | "clique"
    block: tuple[int, ...]  # block[i] = mask of j with i <= j

    def __post_init__(self):
        if self.card is not None and self.card < 1:
            raise SkeletonError(f"node {self.name}: card must be positive or omega")
        if self.mode not in ("antichain", "clique"):
            raise SkeletonError(f"node {self.name}: unknown mode {self.mode!r}")
        _check_block(self.block)
        if self.card == 1 and self.mode == "clique":
            object.__setattr__(self, "mode", "antichain")

    @property
    def size(self) -> int:
        return len(self.block)

    @property
    def full_pattern(self) -> int:
        return (1 << len(self.block)) - 1

    @property
    def is_omega(self) -> bool:
        return self.card is None


def _card_add(a, b):
    if a == 0:
        return b
    if b == 0:
        return a
    if INF in (a, b):
        return INF
    if FIN in (a, b) or _FIN0 in (a, b):
        return FIN if FIN in (a, b) or isinstance(a, int) or isinstance(b, int) else _FIN0
    return a + b


def _card_nonzero(c):
    """True / False / None (indeterminate)."""
    if c == 0:
        return False
    if c == _FIN0:
        return None
    return True


@dataclass(frozen=True)
class SkeletonSpace:
    """A validated skeleton presentation of an Alexandrov space."""

    nodes: tuple[Node, ...]
    rels: frozenset  # ((i, e), (j, f)) with i != j, meaning class (i,e) <= (j,f)

    def __post_init__(self):
        names = [nd.name for nd in self.nodes]
        if len(set(names)) != len(names):
            raise SkeletonError("duplicate node names")
        if not self.nodes:
            raise SkeletonError("skeleton needs at least one node")
        for (i, e), (j, f) in self.rels:
            if i == j:
                raise SkeletonError(
                    "intra-node relations must be declared via block/mode, "
                    f"not rel (node {self.nodes[i].name})"
                )
            for k, x in ((i, e), (j, f)):
                if not 0 <= k < len(self.nodes) or not 0 <= x < self.nodes[k].size:
                    raise SkeletonError("relation endpoint out of range")
        self._tables  # force validation

    def node_index(self, name: str) -> int:
        for i, nd in enumerate(self.nodes):
            if nd.name == name:
                return i
        raise SkeletonError(f"unknown node {name!r}")

    # -- probe realization and derived class-level tables -------------------

    def probe_copies(self, omega_copies: int = 3) -> tuple[int, ...]:
        return tuple(
            omega_copies if nd.is_omega else min(nd.card, 3) for nd in self.nodes
        )

    def _probe_points(self, copies):
        pts = []
        for i, nd in enumerate(self.nodes):
            for c in range(copies[i]):
                for e in range(nd.size):
                    pts.append((i, c, e))
        return pts

    def _probe_base_leq(self, x, y) -> bool:
        (i, c, e), (j, d, f) = x, y
        if i == j:
            if c == d:
                return bool(self.nodes[i].block[e] >> f & 1)
            if self.nodes[i].mode == "clique":
                return True
        return ((i, e), (j, f)) in self.rels if i != j else False

    @cached_property
    def _tables(self):
        """Class-level leq tables, validated for transitivity on a probe."""
        copies = self.probe_copies()
        pts = self._probe_points(copies)
        idx = {p: k for k, p in enumerate(pts)}
        n = len(pts)
        leq = [[self._probe_base_leq(x, y) for y in pts] for x in pts]
        # transitivity check with a named witness
        for a in range(n):
            for b in range(n):
                if a == b or not leq[a][b]:
                    continue
                for c in range(n):
                    if leq[b][c] and not leq[a][c]:
                        raise SkeletonError(
                            "transitivity violation: "
                            f"{self._point_name(pts[a])} <= {self._point_name(pts[b])}"
                            f" <= {self._point_name(pts[c])} but not "
                            f"{self._point_name(pts[a])} <= {self._point_name(pts[c])}"
                        )
        same = {}
        cross = {}
        for i, ni in enumerate(self.nodes):
            for j, nj in enumerate(self.nodes):
                for e in range(ni.size):
                    for f in range(nj.size):
                        if i == j:
                            same[(i, e), (j, f)] = leq[idx[i, 0, e]][idx[j, 0, f]]
                            if copies[i] > 1:
                                c01 = leq[idx[i, 0, e]][idx[j, 1, f]]
                                cross[(i, e), (j, f)] = c01
                                if copies[i] > 2:
                                    if leq[idx[i, 0, e]][idx[j, 2, f]] != c01:
                                        raise SkeletonError("non-uniform relation")
                                if c01 and not same[(i, e), (j, f)]:
                                    raise SkeletonError("non-uniform relation")
                            else:
                                cross[(i, e), (j, f)] = False
                        else:
                            c0 = leq[idx[i, 0, e]][idx[j, 0, f]]
                            for d in range(1, copies[j]):
                                if leq[idx[i, 0, e]][idx[j, d, f]] != c0:
                                    raise SkeletonError("non-uniform relation")
                            same[(i, e), (j, f)] = c0
                            cross[(i, e), (j, f)] = c0
        return same, cross

    def _point_name(self, p):
        i, c, e = p
        return f"{self.nodes[i].name}.{c}.e{e}"

    @cached_property
    def _s_tables(self):
        """Semiregularization preorder tables, computed on the probe.

        x <=_s y iff y lies in the smallest regular open set around x;
        delta-closure is the down-closure of this preorder.
        """
        copies = self.probe_copies()
        pts = self._probe_points(copies)
        idx = {p: k for k, p in enumerate(pts)}
        n = len(pts)
        same, cross = self._tables

        def leq(a, b):
            (i, c, e), (j, d, f) = pts[a], pts[b]
            key = ((i, e), (j, f))
            return same[key] if (i == j and c == d) else cross[key]

        ups = []
        for a in range(n):
            ups.append(frozenset(b for b in range(n) if leq(a, b)))

        def cl(s):
            return frozenset(a for a in range(n) if ups[a] & s or a in s)

        def interior(s):
            return frozenset(a for a in s if ups[a] <= s)

        r = [interior(cl(ups[a])) for a in range(n)]
        s_same = {}
        s_cross = {}
        for i, ni in enumerate(self.nodes):
            for j, nj in enumerate(self.nodes):
                for e in range(ni.size):
                    for f in range(nj.size):
                        a0 = idx[i, 0, e]
                        if i == j:
                            s_same[(i, e), (j, f)] = idx[j, 0, f] in r[a0]
                            if copies[i] > 1:
                                v = idx[j, 1, f] in r[a0]
                                if copies[i] > 2 and (idx[j, 2, f] in r[a0]) != v:
                                    raise SkeletonError("non-uniform delta relation")
                                s_cross[(i, e), (j, f)] = v
                            else:
                                s_cross[(i, e), (j, f)] = False
                        else:
                            v = idx[j, 0, f] in r[a0]
                            for d in range(1, copies[j]):
                                if (idx[j, d, f] in r[a0]) != v:
                                    raise SkeletonError("non-uniform delta relation")
                            s_same[(i, e), (j, f)] = v
                            s_cross[(i, e), (j, f)] = v
        return s_same, s_cross

    # masks: for node i, element f: which elements e have (i,e) <= (j,f)

    def _down_masks(self, tables):
        same, cross = tables
        down_same = {}
        down_cross = {}
        for i, ni in enumerate(self.nodes):
            for j, nj in enumerate(self.nodes):
                for f in range(nj.size):
                    if i == j:
                        down_same[i, f] = sum(
                            1 << e for e in range(ni.size) if same[(i, e), (i, f)]
                        )
                    down_cross[(i, (j, f))] = sum(
                        1 << e for e in range(ni.size) if cross[(i, e), (j, f)]
                    )
        return down_same, down_cross

    @cached_property
    def down_masks(self):
        return self._down_masks(self._tables)

    @cached_property
    def down_masks_s(self):
        return self._down_masks(self._s_tables)

    @cached_property
    def up_masks(self):
        """up_same[i, e] and up_cross[(j, (i, e))]: classes above (i, e)."""
        same, cross = self._tables
        up_same = {}
        up_cross = {}
        for i, ni in enumerate(self.nodes):
            for e in range(ni.size):
                up_same[i, e] = sum(
                    1 << f for f in range(ni.size) if same[(i, e), (i, f)]
                )
                for j, nj in enumerate(self.nodes):
                    up_cross[(j, (i, e))] = sum(
                        1 << f for f in range(nj.size) if cross[(i, e), (j, f)]
                    )
        return up_same, up_cross

    @property
    def finite(self) -> bool:
        return all(not nd.is_omega for nd in self.nodes)

    @cached_property
    def memo(self) -> dict:
        """The symbolic deciders' results on this space, keyed by a tag and
        template counts (not by a SymbolicSet, whose hash walks the space)."""
        return {}

    def recall(self, key, compute):
        """``compute()``, memoized under ``key``; a SymbolicIncomplete or
        SymbolicAmbiguity is memoized too and raised again on each lookup."""
        memo = self.memo
        if key not in memo:
            try:
                memo[key] = compute()
            except (SymbolicIncomplete, SymbolicAmbiguity) as exc:
                memo[key] = exc
        value = memo[key]
        if isinstance(value, Exception):
            raise value.with_traceback(None)
        return value

    def __str__(self):
        parts = []
        for nd in self.nodes:
            card = "omega" if nd.is_omega else str(nd.card)
            parts.append(f"{nd.name}({card},{nd.mode},{block_name(nd.block)})")
        return "Skeleton[" + " ".join(parts) + "]"


# -- symbolic sets -----------------------------------------------------------


@dataclass(frozen=True)
class SymbolicSet:
    """Per-node pattern cardinalities abstracting a subset of a realization."""

    space: SkeletonSpace
    counts: tuple  # per node: tuple of (pattern mask, card) sorted by pattern

    def __post_init__(self):
        if len(self.counts) != len(self.space.nodes):
            raise SkeletonError("counts must cover every node")
        norm = []
        for nd, pairs in zip(self.space.nodes, self.counts):
            merged = {}
            for pat, card in pairs:
                if pat & ~nd.full_pattern:
                    raise SkeletonError(f"pattern out of range on node {nd.name}")
                if card == _FIN0:
                    raise SkeletonError("indeterminate count in a public set")
                merged[pat] = _card_add(merged.get(pat, 0), card)
            total = 0
            has_inf = False
            for pat, card in merged.items():
                if card == INF:
                    has_inf = True
                elif card == FIN:
                    if not nd.is_omega:
                        raise SkeletonError("FIN count on a finite node")
                elif isinstance(card, int):
                    total += card
                else:
                    raise SkeletonError(f"bad count {card!r}")
            if nd.is_omega:
                if not has_inf:
                    raise SkeletonError(
                        f"omega node {nd.name}: pattern counts must include INF"
                    )
            else:
                if has_inf or total != nd.card:
                    raise SkeletonError(
                        f"node {nd.name}: counts must partition {nd.card} copies"
                    )
            norm.append(tuple(sorted((p, c) for p, c in merged.items() if c != 0)))
        object.__setattr__(self, "counts", tuple(norm))

    @staticmethod
    def from_names(space: SkeletonSpace, spec: dict) -> "SymbolicSet":
        """Build from {node name: {elem tuple or mask: count}}; the empty
        pattern absorbs the unspecified remainder."""
        counts = []
        for i, nd in enumerate(space.nodes):
            given = dict(spec.get(nd.name, {}))
            pairs = {}
            for key, card in given.items():
                pat = key if isinstance(key, int) else sum(1 << e for e in key)
                pairs[pat] = _card_add(pairs.get(pat, 0), card)
            if nd.is_omega:
                if not any(c == INF for c in pairs.values()):
                    pairs[0] = _card_add(pairs.get(0, 0), INF)
            else:
                used = sum(c for c in pairs.values())
                if used > nd.card:
                    raise SkeletonError(f"node {nd.name}: too many copies")
                if nd.card - used:
                    pairs[0] = _card_add(pairs.get(0, 0), nd.card - used)
            counts.append(tuple(sorted(pairs.items())))
        return SymbolicSet(space, tuple(counts))

    def is_empty(self) -> bool:
        return all(
            pat == 0 or card == 0 for pairs in self.counts for pat, card in pairs
        )

    def is_full(self) -> bool:
        return all(
            pat == nd.full_pattern or card == 0
            for nd, pairs in zip(self.space.nodes, self.counts)
            for pat, card in pairs
        )

    def touches(self, i: int, e: int) -> bool:
        return any(pat >> e & 1 and card != 0 for pat, card in self.counts[i])

    def trace_card(self, i: int, e: int):
        """Total count of copies of node i whose pattern contains element e."""
        out = 0
        for pat, card in self.counts[i]:
            if pat >> e & 1:
                out = _card_add(out, card)
        return out

    def has_infinite_part(self) -> bool:
        return any(
            card == INF and pat != 0 for pairs in self.counts for pat, card in pairs
        )

    def to_json(self):
        out = {}
        for nd, pairs in zip(self.space.nodes, self.counts):
            out[nd.name] = {
                ",".join(f"e{e}" for e in bits(pat)) or "-": card
                for pat, card in pairs
            }
        return out

    def __str__(self):
        parts = []
        for nd, pairs in zip(self.space.nodes, self.counts):
            inner = " ".join(
                f"{{{','.join(f'e{e}' for e in bits(pat)) or '-'}}}:{card}"
                for pat, card in pairs
            )
            parts.append(f"{nd.name}[{inner}]")
        return "; ".join(parts)


def empty_set(space: SkeletonSpace) -> SymbolicSet:
    return SymbolicSet.from_names(space, {})


def full_set(space: SkeletonSpace) -> SymbolicSet:
    spec = {}
    for nd in space.nodes:
        spec[nd.name] = {nd.full_pattern: INF if nd.is_omega else nd.card}
    return SymbolicSet.from_names(space, spec)


# -- the aligned-group engine -------------------------------------------------
#
# A Config tracks several subsets of one realization with known per-copy
# alignment: per node, a list of groups (card, patterns-per-slot, marked).
# Operators append new slots, so derived sets stay aligned with their
# sources and intersections/unions of tracked sets are exact.


@dataclass
class Config:
    space: SkeletonSpace
    groups: list  # per node: list of [card, list_of_patterns, marked]

    @staticmethod
    def of(space: SkeletonSpace, *sets: SymbolicSet) -> "Config":
        for s in sets:
            if s.space is not space and s.space != space:
                raise SkeletonError("set does not fit the skeleton")
        if not sets:
            raise SkeletonError("need at least one set")
        groups = []
        for i, nd in enumerate(space.nodes):
            if len(sets) == 1:
                groups.append(
                    [[card, [pat], False] for pat, card in sets[0].counts[i]]
                )
                continue
            # independent sets are aligned only through explicit joint builds
            raise SkeletonError("multi-set configs must be built jointly")
        return Config(space, groups)

    def slot_count(self) -> int:
        for node_groups in self.groups:
            for g in node_groups:
                return len(g[1])
        return 0

    def copy(self) -> "Config":
        return Config(
            self.space,
            [[[g[0], list(g[1]), g[2]] for g in node_groups] for node_groups in self.groups],
        )

    # -- slot bookkeeping --

    def append_patterns(self, per_group_patterns):
        for node_groups, pats in zip(self.groups, per_group_patterns):
            for g, p in zip(node_groups, pats):
                g[1].append(p)
        return self.slot_count() - 1

    def patterns(self, slot):
        return [[g[1][slot] for g in node_groups] for node_groups in self.groups]

    # -- primitive ops --

    def op_const_empty(self) -> int:
        return self.append_patterns(
            [[0 for _ in node_groups] for node_groups in self.groups]
        )

    def op_not(self, slot: int) -> int:
        out = []
        for i, node_groups in enumerate(self.groups):
            full = self.space.nodes[i].full_pattern
            out.append([g[1][slot] ^ full for g in node_groups])
        return self.append_patterns(out)

    def op_or(self, s1: int, s2: int) -> int:
        return self.append_patterns(
            [[g[1][s1] | g[1][s2] for g in node_groups] for node_groups in self.groups]
        )

    def op_and(self, s1: int, s2: int) -> int:
        return self.append_patterns(
            [[g[1][s1] & g[1][s2] for g in node_groups] for node_groups in self.groups]
        )

    def op_diff(self, s1: int, s2: int) -> int:
        return self.append_patterns(
            [[g[1][s1] & ~g[1][s2] for g in node_groups] for node_groups in self.groups]
        )

    def _touch_info(self, slot):
        definite = set()
        maybe = set()
        for i, node_groups in enumerate(self.groups):
            for card, pats, _marked in node_groups:
                pat = pats[slot]
                if not pat:
                    continue
                nz = _card_nonzero(card)
                if nz is True:
                    for e in bits(pat):
                        definite.add((i, e))
                elif nz is None:
                    for e in bits(pat):
                        maybe.add((i, e))
        return definite, maybe - definite

    def _op_downclose(self, slot: int, down_same, down_cross) -> int:
        definite, maybe = self._touch_info(slot)
        uniform = [0] * len(self.groups)
        for i in range(len(self.groups)):
            for j, f in definite:
                uniform[i] |= down_cross.get((i, (j, f)), 0)
        maybe_uniform = [0] * len(self.groups)
        for i in range(len(self.groups)):
            for j, f in maybe:
                maybe_uniform[i] |= down_cross.get((i, (j, f)), 0)
        out = []
        for i, node_groups in enumerate(self.groups):
            pats = []
            for card, gpats, _marked in node_groups:
                pat = gpats[slot]
                new = uniform[i]
                for e in bits(pat):
                    new |= down_same[i, e]
                if maybe_uniform[i] & ~new:
                    raise SymbolicAmbiguity(
                        "closure depends on an indeterminate copy count"
                    )
                pats.append(new)
            out.append(pats)
        return self.append_patterns(out)

    def op_cl(self, slot: int) -> int:
        return self._op_downclose(slot, *self.space.down_masks)

    def op_cl_delta(self, slot: int) -> int:
        return self._op_downclose(slot, *self.space.down_masks_s)

    def op_int(self, slot: int) -> int:
        return self.op_not(self.op_cl(self.op_not(slot)))

    def op_pcl(self, slot: int) -> int:
        return self.op_or(slot, self.op_cl(self.op_int(slot)))

    def op_scl(self, slot: int) -> int:
        return self.op_or(slot, self.op_int(self.op_cl(slot)))

    def op_consolidation(self, slot: int) -> int:
        return self.op_int(self.op_cl(slot))

    # -- slot predicates --

    def slot_subset(self, s1: int, s2: int) -> bool:
        ambiguous = False
        for node_groups in self.groups:
            for card, pats, _m in node_groups:
                if card != 0 and pats[s1] & ~pats[s2]:
                    if _card_nonzero(card) is None:
                        ambiguous = True
                    else:
                        return False
        if ambiguous:
            raise SymbolicAmbiguity("subset test on indeterminate count")
        return True

    def slot_equal(self, s1: int, s2: int) -> bool:
        return self.slot_subset(s1, s2) and self.slot_subset(s2, s1)

    def slot_empty(self, slot: int) -> bool:
        for node_groups in self.groups:
            for card, pats, _m in node_groups:
                if pats[slot] and card != 0:
                    if _card_nonzero(card) is None:
                        raise SymbolicAmbiguity("emptiness on indeterminate count")
                    return False
        return True

    def slot_full(self, slot: int) -> bool:
        for i, node_groups in enumerate(self.groups):
            full = self.space.nodes[i].full_pattern
            for card, pats, _m in node_groups:
                if pats[slot] != full and card != 0:
                    if _card_nonzero(card) is None:
                        raise SymbolicAmbiguity("fullness on indeterminate count")
                    return False
        return True

    # -- fixpoints --

    def op_pint(self, slot: int, delta: bool = False) -> int:
        """Largest preopen (or delta-preopen) subset, by decreasing fixpoint."""
        cur = slot
        while True:
            grown = self.op_cl_delta(cur) if delta else self.op_cl(cur)
            nxt = self.op_and(slot, self.op_not(self.op_cl(self.op_not(grown))))
            # nxt = slot & int(cl*(cur))
            if self.slot_equal(nxt, cur):
                return cur
            cur = nxt

    def to_set(self, slot: int) -> SymbolicSet:
        counts = []
        for i, node_groups in enumerate(self.groups):
            merged = {}
            for card, pats, _m in node_groups:
                if card == _FIN0:
                    raise SymbolicAmbiguity("projecting an indeterminate count")
                pat = pats[slot]
                merged[pat] = _card_add(merged.get(pat, 0), card)
            nd = self.space.nodes[i]
            if nd.is_omega and not any(c == INF for c in merged.values()):
                raise SymbolicAmbiguity("omega node lost its INF class")
            counts.append(tuple(sorted(merged.items())))
        return SymbolicSet(self.space, counts)


# -- marked (generic point) machinery -----------------------------------------


def _marked_config(space, a: SymbolicSet, node: int, group_pat: int, elem: int):
    """Config of [a] with one copy of the given group split off and marked.

    Slot 0 tracks ``a``; the distinguished copy is the group flagged
    ``marked``.  Marked configurations never place the ambiguous FIN count
    on the marked copy itself, which keeps generic-point decisions definite.
    """
    cfg = Config.of(space, a)
    node_groups = cfg.groups[node]
    for g in node_groups:
        if g[1][0] == group_pat and g[0] != 0:
            card = g[0]
            if card == INF:
                rest = INF
            elif card == FIN:
                rest = _FIN0
            else:
                rest = card - 1
            new = [1, list(g[1]), True]
            g[0] = rest
            node_groups.append(new)
            return cfg
    raise SkeletonError("marked group not found")


def _marked_point_slot(cfg: Config, node: int, elem: int) -> int:
    """New slot holding exactly the marked point {x}."""
    out = []
    for i, node_groups in enumerate(cfg.groups):
        pats = []
        for card, gpats, marked in node_groups:
            pats.append((1 << elem) if (marked and i == node) else 0)
        out.append(pats)
    return cfg.append_patterns(out)


def _marked_up_slot(cfg: Config, node: int, elem: int) -> int:
    """New slot holding up(x) for the marked point x."""
    up_same, up_cross = cfg.space.up_masks
    out = []
    for i, node_groups in enumerate(cfg.groups):
        pats = []
        for card, gpats, marked in node_groups:
            if marked and i == node:
                pats.append(up_same[node, elem])
            else:
                pats.append(up_cross[(i, (node, elem))])
        out.append(pats)
    return cfg.append_patterns(out)


def _marked_pattern(cfg: Config, node: int, slot: int) -> int:
    for card, gpats, marked in cfg.groups[node]:
        if marked:
            return gpats[slot]
    raise SkeletonError("no marked group")


def _subpatterns(pat: int):
    sub = pat
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & pat


def _split_options(card, room_pat: int):
    """Ways one group of copies can contribute to a candidate set.

    Yields (parts, probe) where parts is a list of (subpattern-of-room,
    count).  Exact counts are enumerated completely and soundly.  On
    omega-node groups, INF splits are sound for every instantiation, but
    splitting a FIN group is only a probe: whether such a witness exists
    depends on the unknowable exact count, so a probe success must be
    reported as indeterminate rather than True.
    """
    subs = list(_subpatterns(room_pat))
    if isinstance(card, int):
        def compose(remaining, idx):
            if idx == len(subs) - 1:
                yield [(subs[idx], remaining)] if remaining else []
                return
            for take in range(remaining + 1):
                for rest in compose(remaining - take, idx + 1):
                    yield ([(subs[idx], take)] if take else []) + rest

        for parts in compose(card, 0):
            yield parts, False
        return
    if card in (FIN, _FIN0):
        for sub in subs:
            yield [(sub, card)], False
        for s1 in subs:
            for s2 in subs:
                if s1 != s2:
                    yield [(s1, FIN), (s2, card)], True
        return
    for sub in subs:
        yield [(sub, INF)], False
    for s1 in subs:
        for s2 in subs:
            if s1 != s2:
                yield [(s1, FIN), (s2, INF)], False
                if s1 < s2:
                    yield [(s1, INF), (s2, INF)], False


def _pre_theta_member(space, b: SymbolicSet, node: int, group_pat: int, elem: int,
                      budget: int = 60_000) -> bool:
    """Is a generic point x of the given class/group in the pre-theta
    interior of b, i.e. is there a preopen U containing x with pcl(U) <= b?
    """
    cfg = _marked_config(space, b, node, group_pat, elem)
    x = _marked_point_slot(cfg, node, elem)
    up = _marked_up_slot(cfg, node, elem)
    b_slot = 0
    # necessary: pcl({x}) <= b
    if not cfg.slot_subset(cfg.op_pcl(x), b_slot):
        return False
    # candidate {x} itself
    if cfg.slot_subset(x, cfg.op_int(cfg.op_cl(x))):
        return True  # {x} preopen and pcl({x}) <= b already checked
    # candidate U0 = largest preopen inside b & up(x)
    room = cfg.op_and(b_slot, up)
    u0 = cfg.op_pint(room)
    if not _marked_pattern(cfg, node, u0) >> elem & 1:
        return False  # no preopen subset of b around x at all
    if cfg.slot_subset(cfg.op_pcl(u0), b_slot):
        return True
    # general search: per-group copy splits of U0, the marked copy pinned
    # to contain x
    group_keys = []  # (node index, b_pattern, marked group?)
    options = []
    total = 1
    for i, node_groups in enumerate(cfg.groups):
        for card, gpats, marked in node_groups:
            if card == 0:
                continue
            room_pat = gpats[u0]
            bpat = gpats[b_slot]
            if marked and i == node:
                seen = {}
                for sub in _subpatterns(room_pat):
                    seen[sub | (1 << elem)] = ([(sub | (1 << elem), 1)], False)
                opts = list(seen.values())
            else:
                opts = list(_split_options(card, room_pat))
            group_keys.append((i, bpat, marked and i == node))
            options.append(opts)
            total *= len(opts)
    if total > budget:
        raise SymbolicIncomplete("pre-theta split search budget exceeded")
    probe_hit = False
    for choice in itertools.product(*options):
        groups = [[] for _ in space.nodes]
        probe = False
        for (i, bpat, is_marked), (parts, part_probe) in zip(group_keys, choice):
            probe = probe or part_probe
            for upat, cnt in parts:
                groups[i].append([cnt, [bpat, upat], is_marked])
        for i in range(len(space.nodes)):
            if not groups[i]:
                groups[i].append([0, [0, 0], False])
        trial = Config(space, groups)
        u_slot = 1
        try:
            if not trial.slot_subset(u_slot, trial.op_int(trial.op_cl(u_slot))):
                continue
            if not trial.slot_subset(trial.op_pcl(u_slot), b_slot):
                continue
        except SymbolicAmbiguity:
            continue
        if not probe:
            return True
        probe_hit = True
    if probe_hit:
        raise SymbolicIncomplete(
            "pre-theta decision depends on an indeterminate finite count"
        )
    return False


def sym_pre_theta_interior(space, b: SymbolicSet) -> SymbolicSet:
    counts = []
    for i, nd in enumerate(space.nodes):
        merged = {}
        for pat, card in b.counts[i]:
            new = 0
            for e in bits(pat):
                if _pre_theta_member(space, b, i, pat, e):
                    new |= 1 << e
            merged[new] = _card_add(merged.get(new, 0), card)
        counts.append(tuple(sorted(merged.items())))
    return SymbolicSet(space, counts)


def sym_complement(space, a: SymbolicSet) -> SymbolicSet:
    counts = []
    for nd, pairs in zip(space.nodes, a.counts):
        full = nd.full_pattern
        merged = {}
        for pat, card in pairs:
            merged[pat ^ full] = _card_add(merged.get(pat ^ full, 0), card)
        counts.append(tuple(sorted(merged.items())))
    return SymbolicSet(space, counts)


def sym_pre_theta_closure(space, a: SymbolicSet) -> SymbolicSet:
    return sym_complement(space, sym_pre_theta_interior(space, sym_complement(space, a)))


_SIMPLE_OPS = {
    "int": "op_int",
    "cl": "op_cl",
    "pcl": "op_pcl",
    "scl": "op_scl",
    "consolidation": "op_consolidation",
    "delta-cl": "op_cl_delta",
}


def sym_operator(space: SkeletonSpace, op: str, a: SymbolicSet) -> SymbolicSet:
    """Exact symbolic operator on a symbolic set."""
    if op in _SIMPLE_OPS:
        cfg = Config.of(space, a)
        slot = getattr(cfg, _SIMPLE_OPS[op])(0)
        return cfg.to_set(slot)
    if op == "pint":
        cfg = Config.of(space, a)
        return cfg.to_set(cfg.op_pint(0))
    if op == "delta-pint":
        cfg = Config.of(space, a)
        return cfg.to_set(cfg.op_pint(0, delta=True))
    if op == "delta-pcl":
        comp = sym_complement(space, a)
        cfg = Config.of(space, comp)
        return sym_complement(space, cfg.to_set(cfg.op_pint(0, delta=True)))
    if op == "pcl-theta":
        return sym_pre_theta_closure(space, a)
    raise SkeletonError(f"unknown operator {op!r}")


def sym_classify(space: SkeletonSpace, a: SymbolicSet) -> ClassFlags:
    """All set-class flags of a symbolic set, computed symbolically."""
    cfg = Config.of(space, a)
    s_a = 0
    s_cl = cfg.op_cl(s_a)
    s_int = cfg.op_int(s_a)
    s_intcl = cfg.op_int(s_cl)
    s_clint = cfg.op_cl(s_int)
    s_cld = cfg.op_cl_delta(s_a)
    s_intcld = cfg.op_int(s_cld)
    comp = cfg.op_not(s_a)
    s_cld_c = cfg.op_cl_delta(comp)
    s_int_c = cfg.op_int(comp)
    preopen = cfg.slot_subset(s_a, s_intcl)
    preclosed = cfg.slot_subset(s_clint, s_a)
    semi_open = cfg.slot_subset(s_a, s_clint)
    semi_closed = cfg.slot_subset(s_intcl, s_a)
    # locally closed: cl(a) - a is closed
    s_rim = cfg.op_diff(s_cl, s_a)
    locally_closed = cfg.slot_equal(cfg.op_cl(s_rim), s_rim)
    delta_preopen = cfg.slot_subset(s_a, s_intcld)
    delta_preclosed = cfg.slot_subset(comp, cfg.op_int(s_cld_c))
    pth = sym_pre_theta_closure(space, a)
    comp_set = sym_complement(space, a)
    pth_c = sym_pre_theta_closure(space, comp_set)
    return ClassFlags(
        open=cfg.slot_equal(s_a, s_int),
        closed=cfg.slot_equal(s_a, s_cl),
        regular_open=cfg.slot_equal(s_a, s_intcl),
        regular_closed=cfg.slot_equal(s_a, s_clint),
        preopen=preopen,
        preclosed=preclosed,
        semi_open=semi_open,
        semi_closed=semi_closed,
        semi_regular=semi_open and semi_closed,
        alpha_open=cfg.slot_subset(s_a, cfg.op_int(s_clint)),
        delta_preopen=delta_preopen,
        delta_preclosed=delta_preclosed,
        preregular=preopen and preclosed,
        pre_theta_open=pth_c == comp_set,
        pre_theta_closed=pth == a,
        dense=cfg.slot_full(s_cl),
        nowhere_dense=cfg.slot_empty(s_intcl),
        locally_closed=locally_closed,
        locally_dense=preopen,
    )


# -- expansion, abstraction, skeletonization ----------------------------------


def expand(space: SkeletonSpace) -> tuple[FiniteSpace, tuple]:
    """Realize an all-finite skeleton as an explicit space.

    Returns the space and the point labels (node index, copy, element) in
    carrier order.
    """
    if not space.finite:
        raise SkeletonError("cannot expand a skeleton with omega nodes")
    labels = []
    for i, nd in enumerate(space.nodes):
        for c in range(nd.card):
            for e in range(nd.size):
                labels.append((i, c, e))
    n = len(labels)
    if n > MAX_EXPLICIT_POINTS:
        raise SkeletonOverflow("expansion too large")
    same, cross = space._tables

    def leq(x, y):
        (i, c, e), (j, d, f) = labels[x], labels[y]
        key = ((i, e), (j, f))
        return same[key] if (i == j and c == d) else cross[key]

    ups = []
    for x in range(n):
        m = 0
        for y in range(n):
            if leq(x, y):
                m |= 1 << y
        ups.append(m)
    opens = {0}  # the up-sets are the unions of up-set rows
    for row in ups:
        opens |= {o | row for o in opens}
    return FiniteSpace(n, _canon(opens)), tuple(labels)


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
    return SymbolicSet(space, counts)


def skeletonize(space: FiniteSpace) -> tuple[SkeletonSpace, tuple]:
    """Group topologically indistinguishable points into clique nodes.

    Returns the skeleton and, per node, the tuple of original points.
    """
    classes = {}
    for x in range(space.n):
        classes.setdefault(space.min_nbhd[x], []).append(x)
    reps = sorted(classes.values())
    nodes = tuple(
        Node(f"c{k}", len(members), "clique" if len(members) > 1 else "antichain",
             BLOCKS["chain1"])
        for k, members in enumerate(reps)
    )
    rels = set()
    for a, mem_a in enumerate(reps):
        for b, mem_b in enumerate(reps):
            if a != b and space.min_nbhd[mem_a[0]] >> mem_b[0] & 1:
                rels.add(((a, 0), (b, 0)))
    skel = SkeletonSpace(nodes, frozenset(rels))
    return skel, tuple(tuple(m) for m in reps)


# -- products ------------------------------------------------------------------


def _clique_node(name: str, total_card, block_size: int) -> Node:
    """A fully-collapsed class of mutually related points."""
    if total_card is OMEGA:
        return Node(name, OMEGA, "clique", BLOCKS["chain1"])
    total = total_card * block_size
    if total <= 3:
        return Node(name, 1, "antichain", BLOCKS["clique3" if total == 3 else
                                                 "clique2" if total == 2 else "chain1"])
    return Node(name, total, "clique", BLOCKS["chain1"])


def _block_product(b1, b2):
    k1, k2 = len(b1), len(b2)
    if k1 * k2 > 3:
        raise SkeletonOverflow(
            f"product block of size {k1}x{k2} exceeds the 3-element bound"
        )
    rows = []
    for e1 in range(k1):
        for e2 in range(k2):
            m = 0
            for f1 in range(k1):
                for f2 in range(k2):
                    if b1[e1] >> f1 & 1 and b2[e2] >> f2 & 1:
                        m |= 1 << (f1 * k2 + f2)
            rows.append(m)
    return tuple(rows)


def _block_times_clique(b, k):
    """Block b with every element fattened into a k-clique."""
    size = len(b) * k
    if size > 3:
        raise SkeletonOverflow(
            f"product fiber of size {size} exceeds the 3-element block bound"
        )
    rows = []
    for e in range(len(b)):
        for _ in range(k):
            m = 0
            for f in range(len(b)):
                if b[e] >> f & 1:
                    for d in range(k):
                        m |= 1 << (f * k + d)
            rows.append(m)
    return tuple(rows)


def skeleton_product(s: SkeletonSpace, t: SkeletonSpace) -> SkeletonSpace:
    """Skeleton whose realization is the product preorder of the two inputs.

    Raises SkeletonOverflow when the product is not representable within
    3-element blocks and class-uniform relations.
    """
    prod_nodes = []
    meta = []  # (i1, i2, elem map: product elem -> (e1, e2))
    for i1, n1 in enumerate(s.nodes):
        for i2, n2 in enumerate(t.nodes):
            name = f"{n1.name}*{n2.name}"
            c1, c2 = n1.card, n2.card
            if n1.mode == "clique" and (c1 is OMEGA or c1 > 1):
                if n2.mode == "clique" and (c2 is OMEGA or c2 > 1):
                    total = OMEGA if (c1 is OMEGA or c2 is OMEGA) else (
                        c1 * len(n1.block) * c2 * len(n2.block)
                    )
                    prod_nodes.append(_clique_node(name, total, 1))
                    meta.append((i1, i2, "collapse"))
                    continue
                # clique x antichain: fold the clique side into the block
                if c1 is OMEGA:
                    raise SkeletonOverflow(
                        f"cannot fold omega clique {n1.name} into a block"
                    )
                block = _block_times_clique(n2.block, c1 * len(n1.block))
                prod_nodes.append(Node(name, c2, n2.mode, block))
                meta.append((i1, i2, "fold1"))
                continue
            if n2.mode == "clique" and (c2 is OMEGA or c2 > 1):
                if c2 is OMEGA:
                    raise SkeletonOverflow(
                        f"cannot fold omega clique {n2.name} into a block"
                    )
                block = _block_times_clique(n1.block, c2 * len(n2.block))
                prod_nodes.append(Node(name, c1, n1.mode, block))
                meta.append((i1, i2, "fold2"))
                continue
            # antichain x antichain: copies are copy pairs
            card = OMEGA if (c1 is OMEGA or c2 is OMEGA) else c1 * c2
            block = _block_product(n1.block, n2.block)
            prod_nodes.append(Node(name, card, "antichain", block))
            meta.append((i1, i2, "pairs"))
    # relations between distinct product nodes, read off the factor tables
    same1, cross1 = s._tables
    same2, cross2 = t._tables

    def factor_rel(same, cross, card, i, e, j, f, shared_copy_unknown):
        if i != j:
            return cross[(i, e), (j, f)]
        if card == 1:
            return same[(i, e), (j, f)]
        if same[(i, e), (j, f)] == cross[(i, e), (j, f)]:
            return same[(i, e), (j, f)]
        if shared_copy_unknown:
            raise SkeletonOverflow(
                "product relations are not class-uniform (shared antichain factor)"
            )
        return None

    def elems_of(k):
        i1, i2, kind = meta[k]
        n1, n2 = s.nodes[i1], t.nodes[i2]
        out = []
        if kind == "pairs":
            for e1 in range(n1.size):
                for e2 in range(n2.size):
                    out.append((e1, e2))
        elif kind == "fold1":
            # block = n2.block elements fattened by copies/elems of n1
            for f2 in range(n2.size):
                for c1 in range(n1.card):
                    for e1 in range(n1.size):
                        out.append((e1, f2))
        elif kind == "fold2":
            for f1 in range(n1.size):
                for c2 in range(n2.card):
                    for e2 in range(n2.size):
                        out.append((f1, e2))
        else:  # collapse
            out = [(0, 0)] * prod_nodes[k].size
        return out

    rels = set()
    for a in range(len(prod_nodes)):
        ia1, ia2, kind_a = meta[a]
        for b in range(len(prod_nodes)):
            if a == b:
                continue
            ib1, ib2, kind_b = meta[b]
            ea = elems_of(a)
            eb = elems_of(b)
            for xa, (e1, e2) in enumerate(ea):
                for xb, (f1, f2) in enumerate(eb):
                    r1 = factor_rel(same1, cross1, s.nodes[ia1].card, ia1, e1,
                                    ib1, f1, ia1 == ib1 and s.nodes[ia1].mode ==
                                    "antichain" and (s.nodes[ia1].card is OMEGA
                                                     or s.nodes[ia1].card > 1))
                    r2 = factor_rel(same2, cross2, t.nodes[ia2].card, ia2, e2,
                                    ib2, f2, ia2 == ib2 and t.nodes[ia2].mode ==
                                    "antichain" and (t.nodes[ia2].card is OMEGA
                                                     or t.nodes[ia2].card > 1))
                    if r1 and r2:
                        rels.add(((a, xa), (b, xb)))
    return SkeletonSpace(tuple(prod_nodes), frozenset(rels))


# -- subspaces of skeletons ------------------------------------------------------


def restrict(space: SkeletonSpace, a: SymbolicSet, fin_as: int = 2) -> SkeletonSpace:
    """Skeleton of the subspace carried by a symbolic set.

    Copies are regrouped by their pattern; a FIN group has no definite
    size, so it is realized with ``fin_as`` copies (callers compare
    fin_as=1 and fin_as=2 outcomes when a verdict could depend on it).
    """
    if a.is_empty():
        raise SkeletonError("empty subspace rejected")
    sub_nodes = []
    origin = []  # (parent node, pattern, elem map: new elem -> parent elem)
    for i, nd in enumerate(space.nodes):
        for pat, card in a.counts[i]:
            if pat == 0 or card == 0:
                continue
            elems = tuple(bits(pat))
            rows = []
            for e in elems:
                rows.append(
                    sum(1 << k for k, f in enumerate(elems) if nd.block[e] >> f & 1)
                )
            card2 = OMEGA if card == INF else fin_as if card == FIN else card
            sub_nodes.append(
                Node(f"{nd.name}/{pat}", card2, nd.mode, tuple(rows))
            )
            origin.append((i, pat, elems))
    if not sub_nodes:
        raise SkeletonError("empty subspace rejected")
    same, cross = space._tables
    rels = set()
    for x, (i, _pi, elems_i) in enumerate(origin):
        for y, (j, _pj, elems_j) in enumerate(origin):
            if x == y:
                continue
            for e_new, e in enumerate(elems_i):
                for f_new, f in enumerate(elems_j):
                    if cross[(i, e), (j, f)]:
                        rels.add(((x, e_new), (y, f_new)))
    sub = SkeletonSpace(tuple(sub_nodes), frozenset(rels))
    # equal subspaces share one object, and so one memo, while the parent lives
    return space.memo.setdefault(("restrict", sub), sub)


def finite_probe(space: SkeletonSpace, omega_size: int = 6) -> SkeletonSpace:
    """The skeleton with every omega node truncated to a finite class."""
    nodes = tuple(
        Node(nd.name, omega_size if nd.is_omega else nd.card, nd.mode, nd.block)
        for nd in space.nodes
    )
    return SkeletonSpace(nodes, space.rels)


def probe_set(space: SkeletonSpace, probe: SkeletonSpace, a: SymbolicSet,
              fin_n: int = 1) -> SymbolicSet:
    """Instantiate a symbolic set on a finite probe: FIN -> fin_n copies,
    INF classes share the remaining copies."""
    counts = []
    for nd, probe_nd, pairs in zip(space.nodes, probe.nodes, a.counts):
        if not nd.is_omega:
            counts.append(pairs)
            continue
        sizes = {}
        inf_pats = [p for p, c in pairs if c == INF]
        for p, c in pairs:
            if c == FIN:
                sizes[p] = fin_n
        free = probe_nd.card - sum(sizes.values())
        if free < len(inf_pats):
            raise SkeletonError("probe too small for this set")
        base, extra = divmod(free, len(inf_pats))
        for k, p in enumerate(inf_pats):
            sizes[p] = base + (1 if k < extra else 0)
        counts.append(tuple(sorted(sizes.items())))
    return SymbolicSet(probe, tuple(counts))


# -- template enumeration and random skeletons ---------------------------------


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def all_symbolic_sets(space: SkeletonSpace, cap: int = 200_000) -> tuple:
    """Every symbolic set of the skeleton (the template space).

    Finite nodes contribute exact-count partitions; omega nodes contribute
    ZERO/FIN/INF assignments with at least one INF.  Raises
    SkeletonOverflow beyond ``cap`` templates.
    """
    per_node = []
    total = 1
    for nd in space.nodes:
        pats = range(nd.full_pattern + 1)
        options = []
        if nd.is_omega:
            for combo in itertools.product((0, FIN, INF), repeat=len(pats)):
                if INF in combo:
                    options.append(
                        tuple((p, c) for p, c in zip(pats, combo) if c != 0)
                    )
        else:
            for combo in _compositions(nd.card, len(pats)):
                options.append(
                    tuple((p, c) for p, c in zip(pats, combo) if c != 0)
                )
        per_node.append(options)
        total *= len(options)
        if total > cap:
            raise SkeletonOverflow(
                f"template space of size >= {total} exceeds cap {cap}"
            )
    return tuple(
        SymbolicSet(space, combo) for combo in itertools.product(*per_node)
    )


def random_finite_skeleton(rng, max_nodes: int = 2, max_card: int = 3) -> SkeletonSpace:
    """A small random all-finite skeleton, for oracle comparisons."""
    block_choices = ["chain1", "chain1", "antichain2", "chain2", "clique2"]
    while True:
        k = rng.randint(1, max_nodes)
        nodes = []
        for i in range(k):
            block = BLOCKS[rng.choice(block_choices)]
            card = rng.randint(1, max_card)
            mode = rng.choice(["antichain", "clique"])
            if mode == "clique" and len(block) > 1 and card > 1:
                mode = "antichain"  # avoid guaranteed transitivity rejects
            nodes.append(Node(f"n{i}", card, mode, block))
        rels = set()
        for i in range(k):
            for j in range(k):
                if i != j and rng.random() < 0.5:
                    e = rng.randrange(nodes[i].size)
                    f = rng.randrange(nodes[j].size)
                    rels.add(((i, e), (j, f)))
        # close the declared relations over blocks and node pairs
        changed = True
        while changed:
            changed = False
            cur = set(rels)
            for (i, e), (j, f) in cur:
                for f2 in bits(nodes[j].block[f]):
                    if f2 != f and ((i, e), (j, f2)) not in rels:
                        rels.add(((i, e), (j, f2)))
                        changed = True
                for e2 in range(nodes[i].size):
                    if nodes[i].block[e2] >> e & 1 and e2 != e:
                        if ((i, e2), (j, f)) not in rels:
                            rels.add(((i, e2), (j, f)))
                            changed = True
                for (i2, e2), (j2, f2) in cur:
                    if (i2, e2) == (j, f) and j2 != i:
                        if ((i, e), (j2, f2)) not in rels:
                            rels.add(((i, e), (j2, f2)))
                            changed = True
        try:
            return SkeletonSpace(tuple(nodes), frozenset(rels))
        except SkeletonError:
            continue


# -- the .skel text format ------------------------------------------------------


def parse_skel(text: str) -> SkeletonSpace:
    """Parse the ``.skel`` format: node and rel lines."""
    nodes = []
    index = {}
    rels = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "node":
            if len(parts) != 8 or parts[2] != "card" or parts[4] != "mode" or parts[6] != "block":
                raise SkeletonError(
                    f"line {lineno}: expected 'node NAME card C mode M block B'"
                )
            name = parts[1]
            if parts[3] == "omega":
                card = OMEGA
            elif parts[3].isdigit() and int(parts[3]) >= 1:
                card = int(parts[3])
            else:
                raise SkeletonError(f"line {lineno}: bad card {parts[3]!r}")
            if parts[7] not in BLOCKS:
                raise SkeletonError(f"line {lineno}: unknown block {parts[7]!r}")
            if name in index:
                raise SkeletonError(f"line {lineno}: duplicate node {name!r}")
            index[name] = len(nodes)
            nodes.append(Node(name, card, parts[5], BLOCKS[parts[7]]))
        elif parts[0] == "rel":
            if len(parts) != 4 or parts[2] != "<=":
                raise SkeletonError(f"line {lineno}: expected 'rel A.e <= B.f'")
            ends = []
            for tok in (parts[1], parts[3]):
                if "." not in tok:
                    raise SkeletonError(f"line {lineno}: expected NODE.ELEM in {tok!r}")
                nm, el = tok.rsplit(".", 1)
                if nm not in index:
                    raise SkeletonError(f"line {lineno}: unknown node {nm!r}")
                if not el.startswith("e") or not el[1:].isdigit():
                    raise SkeletonError(f"line {lineno}: bad element {el!r}")
                e = int(el[1:])
                if e >= nodes[index[nm]].size:
                    raise SkeletonError(f"line {lineno}: element {el!r} outside block")
                ends.append((index[nm], e))
            rels.add((ends[0], ends[1]))
        else:
            raise SkeletonError(f"line {lineno}: unknown directive {parts[0]!r}")
    if not nodes:
        raise SkeletonError("no nodes declared")
    return SkeletonSpace(tuple(nodes), frozenset(rels))


def format_skel(space: SkeletonSpace) -> str:
    lines = []
    for nd in space.nodes:
        card = "omega" if nd.is_omega else str(nd.card)
        lines.append(f"node {nd.name} card {card} mode {nd.mode} block {block_name(nd.block)}")
    for (i, e), (j, f) in sorted(space.rels):
        lines.append(f"rel {space.nodes[i].name}.e{e} <= {space.nodes[j].name}.e{f}")
    return "\n".join(lines) + "\n"


def realized_opens_description(space: SkeletonSpace) -> str:
    """Debug view of the realized open sets of an all-finite skeleton."""
    fs, labels = expand(space)
    names = [f"{space.nodes[i].name}.{c}" + (f".e{e}" if space.nodes[i].size > 1 else "")
             for (i, c, e) in labels]
    lines = [f"realized carrier: {fs.n} points: " + " ".join(names)]
    for o in fs.opens:
        members = " ".join(names[x] for x in range(fs.n) if o >> x & 1)
        lines.append("open {" + members + "}")
    return "\n".join(lines)


# -- catalog --------------------------------------------------------------------


CITED = "cited"
DERIVED = "derived"


@dataclass(frozen=True)
class CatalogEntry:
    """A named space with its expected property verdicts and provenance."""

    name: str
    space: object  # FiniteSpace | SkeletonSpace
    expected: tuple  # of (property key, bool, provenance)
    note: str = ""

    def expected_dict(self):
        return {k: (v, prov) for k, v, prov in self.expected}


@cache  # one object for every catalog use, so one memo
def _skel_excluded_point_omega() -> SkeletonSpace:
    return parse_skel(
        "node p card 1 mode antichain block chain1\n"
        "node t card omega mode antichain block chain1\n"
        "rel p.e0 <= t.e0\n"
    )


def _skel_e1iii() -> SkeletonSpace:
    return parse_skel(
        "node r card omega mode clique block chain1\n"
        "node z card 1 mode antichain block chain1\n"
        "rel r.e0 <= z.e0\n"
    )


def _skel_indiscrete_omega() -> SkeletonSpace:
    return parse_skel("node x card omega mode clique block chain1\n")


@cache  # shared by two catalog entries
def _skel_discrete_omega() -> SkeletonSpace:
    return parse_skel("node x card omega mode antichain block chain1\n")


def _skel_indiscrete_2() -> SkeletonSpace:
    return parse_skel("node d card 1 mode antichain block clique2\n")


def remark_product_factors() -> tuple[SkeletonSpace, SkeletonSpace]:
    return _skel_excluded_point_omega(), _skel_indiscrete_2()


_CATALOG_BUILDERS = {}


def _entry(name):
    def deco(fn):
        _CATALOG_BUILDERS[name] = cache(fn)  # entries are constants, built once
        return fn

    return deco


@_entry("sierpinski")
def _cat_sierpinski():
    from topolab.core import sierpinski

    return CatalogEntry(
        "sierpinski",
        sierpinski(),
        (
            ("p-closed", True, DERIVED),
            ("strongly-irresolvable", True, DERIVED),
        ),
    )


@_entry("excluded-point-omega")
def _cat_epo():
    return CatalogEntry(
        "excluded-point-omega",
        _skel_excluded_point_omega(),
        (
            ("p-closed", True, CITED),
            ("qhc", True, DERIVED),
            ("compact", True, DERIVED),
            ("strongly-compact", True, DERIVED),
            ("alpha-compact", True, DERIVED),
            ("nearly-compact", True, DERIVED),
            ("delta-p-closed", True, DERIVED),
            ("pre-theta-compact", True, DERIVED),
            ("s-closed", False, DERIVED),
            ("S-closed", False, DERIVED),
            ("semi-compact", False, DERIVED),
            ("t0", True, DERIVED),
        ),
        note="the only preopen set containing the distinguished point is the whole space",
    )


@_entry("excluded-point-omega-isolated")
def _cat_epo_isolated():
    return CatalogEntry(
        "excluded-point-omega-isolated",
        _skel_discrete_omega(),
        (
            ("p-closed", False, CITED),
            ("qhc", False, DERIVED),
            ("compact", False, DERIVED),
        ),
        note="the isolated-point part of excluded-point-omega, as its own space",
    )


@_entry("discrete-omega")
def _cat_discrete_omega():
    return CatalogEntry(
        "discrete-omega",
        _skel_discrete_omega(),
        (
            ("p-closed", False, DERIVED),
            ("qhc", False, DERIVED),
            ("strongly-irresolvable", True, DERIVED),
        ),
    )


@_entry("indiscrete-omega")
def _cat_indiscrete_omega():
    return CatalogEntry(
        "indiscrete-omega",
        _skel_indiscrete_omega(),
        (
            ("p-closed", False, DERIVED),
            ("qhc", True, DERIVED),
            ("compact", True, DERIVED),
            ("nearly-compact", True, DERIVED),
            ("alpha-compact", True, DERIVED),
            ("strongly-compact", False, DERIVED),
            ("delta-p-closed", False, DERIVED),
            ("pre-theta-compact", False, DERIVED),
            ("s-closed", True, DERIVED),
            ("S-closed", True, DERIVED),
            ("semi-compact", True, DERIVED),
            ("resolvable", True, DERIVED),
        ),
    )


@_entry("e1iii")
def _cat_e1iii():
    return CatalogEntry(
        "e1iii",
        _skel_e1iii(),
        (
            ("p-closed", True, CITED),
            ("s-closed", True, CITED),
            ("alpha-compact", False, CITED),
            ("strongly-compact", False, CITED),
            ("delta-p-closed", False, CITED),
            ("qhc", True, DERIVED),
            ("compact", True, DERIVED),
            ("nearly-compact", True, DERIVED),
            ("S-closed", True, DERIVED),
            ("semi-compact", False, DERIVED),
            ("pre-theta-compact", True, DERIVED),
            ("extremally-disconnected", True, DERIVED),
            ("aleph0-ed", True, DERIVED),
            ("strongly-irresolvable", True, DERIVED),
        ),
        note="countable carrier with one open point whose closure is everything",
    )


@_entry("remark-product")
def _cat_remark_product():
    f1, f2 = remark_product_factors()
    return CatalogEntry(
        "remark-product",
        skeleton_product(f1, f2),
        (
            ("p-closed", False, CITED),
            ("qhc", True, DERIVED),
            ("compact", True, DERIVED),
            ("nearly-compact", True, DERIVED),
            ("all-proper-preregular-relatively-p-closed", True, CITED),
        ),
        note=(
            "product of excluded-point-omega with an indiscrete pair; the "
            "cited expectation on preregular subsets does not survive "
            "checking (see the harness report)"
        ),
    )


def catalog_names() -> tuple[str, ...]:
    names = sorted(_CATALOG_BUILDERS)
    names.extend(f"indiscrete-{n}" for n in (2, 3, 4))
    names.extend(f"discrete-{n}" for n in (2, 3))
    names.extend(f"excluded-point-{n}" for n in (3, 4))
    return tuple(names)


def catalog(name: str) -> CatalogEntry:
    """Look up a named space with its expected verdicts."""
    from topolab.core import discrete, excluded_point, indiscrete

    if name in _CATALOG_BUILDERS:
        return _CATALOG_BUILDERS[name]()
    kind, _, num = name.rpartition("-")
    if num.isdigit() and int(num) >= 1:
        n = int(num)
        if kind == "indiscrete" and n <= 6:
            return CatalogEntry(
                name, indiscrete(n), (("p-closed", True, CITED),)
            )
        if kind == "discrete" and n <= 6:
            return CatalogEntry(name, discrete(n), (("p-closed", True, DERIVED),))
        if kind == "excluded-point" and n <= 6:
            return CatalogEntry(
                name, excluded_point(n), (("p-closed", True, DERIVED),)
            )
    raise SkeletonError(f"unknown catalog entry {name!r}")

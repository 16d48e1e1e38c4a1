"""Symbolic Alexandrov spaces presented by point-symmetry classes.

A skeleton is a finite list of nodes, each one a symmetry class of points:
``card`` copies (a positive integer or omega) of a small preordered block,
with copies of one node mutually unrelated (``antichain``) or all mutually
related (``clique``), plus class-uniform order declarations between block
elements of different nodes.  Open sets of the realized space are exactly
the up-sets of the realized preorder.  A skeleton holds that preorder once,
as the per-class masks of its reverse (``up_masks``, the declaration), lays
out from them the up-set rows of its validation probe (omega as 3 copies,
finite cards capped at 3), and reads the per-class masks of the order and
of the semiregularization preorder from rows of the probe's shape.

Subsets of a realization are abstracted per node by how many copies carry
each block-element pattern: an exact count for finite nodes, one of
ZERO/FIN/INF for omega nodes.  Closure and interior of a set depend only on
this abstraction (copies of a class are interchangeable), so the operators
below are exact, not approximations.  A ``Config`` is a frame in which such
subsets are aligned copy by copy: each subset is a value, one int with a bit
field per group of copies (``_Layout``).  Operators take values and return
values, set operations are the int operations, and a closure reads one table
entry per node (``_Segments``).  A frame answers the names a ``FiniteSpace``
does: its primitives (closure, delta-closure, up-closure, interior, Top and
S) are its own, and it borrows ``FiniteSpace``'s bodies of the derived
operators and the class flags.  The one delicate construction is a
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

from topolab.core import (MAX_EXPLICIT_POINTS, OPERATORS, FiniteSpace, bits, ClassFlags,
                          numeral, top_classes)

FIN = "fin"
INF = "inf"
_FIN0 = "fin?"  # internal: finite, possibly zero (a FIN group minus one copy)

OMEGA = None  # card value for omega nodes


class SkeletonError(ValueError):
    """Malformed skeleton, symbolic set, or skeleton file."""


class SkeletonOverflow(SkeletonError):
    """A construction left the representable fragment; never approximated."""


class SymbolicAmbiguity(RuntimeError):
    """A symbolic computation would depend on an indeterminate count.  Only
    marked frames (``_marked_config``) hold such counts, and their one
    user, the separation search of ``properties``, catches it."""


class SymbolicIncomplete(RuntimeError):
    """A bounded symbolic search could not settle a decision.  Nothing in
    topolab raises it; it is kept as a name that callers may catch."""


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
    if FIN in (a, b):
        return FIN
    return a + b


def _check_count(nd: Node, card):
    """A count is an int >= 0 or, on an omega node, FIN or INF."""
    if type(card) is int:
        if card >= 0:
            return
    elif card in (FIN, INF):
        if nd.is_omega:
            return
        raise SkeletonError(f"node {nd.name}: {card} count on a finite node")
    raise SkeletonError(f"node {nd.name}: bad count {card!r}")


def _or_table(masks) -> tuple[int, ...]:
    """The union of ``masks[e]`` over the elements e of each pattern."""
    table = [0]
    for m in masks:
        table += [t | m for t in table]
    return tuple(table)


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
        self.probe_rows  # force validation

    def node_index(self, name: str) -> int:
        for i, nd in enumerate(self.nodes):
            if nd.name == name:
                return i
        raise SkeletonError(f"unknown node {name!r}")

    # -- the probe rows and the class masks read from them -----------------

    def probe_copies(self) -> tuple[int, ...]:
        return tuple(3 if nd.is_omega else min(nd.card, 3) for nd in self.nodes)

    def _points(self, copies):
        """The points (node, copy, element) of the realization with
        ``copies[i]`` copies of node i, in carrier order."""
        pts = []
        for i, nd in enumerate(self.nodes):
            for c in range(copies[i]):
                for e in range(nd.size):
                    pts.append((i, c, e))
        return pts

    def _shifts(self, copies) -> list[range]:
        """Per node, where each of its copies begins in ``_points(copies)``."""
        out, start = [], 0
        for k, nd in zip(copies, self.nodes):
            size = len(nd.block)
            out.append(range(start, start + k * size, size))
            start += k * size
        return out

    @cached_property
    def probe_rows(self) -> tuple[int, ...]:
        """The up-set rows of the validation probe (``probe_copies()``), laid
        out from the declared relation (``up_masks``) and checked
        transitive: the row of every point of a row lies inside it.
        Permuting the copies of a node maps this relation to itself, so the
        rows of copy 0 are checked, and a failure there is the first in
        carrier order."""
        shifts = self._shifts(self.probe_copies())
        rows = tuple(self._up_rows(shifts, self.up_masks))
        for i, e in self.up_masks[0]:
            a = shifts[i][0] + e
            row = rows[a]
            for b in bits(row):
                missing = rows[b] & ~row
                if missing:
                    pts = self._points(self.probe_copies())
                    x, y, z = (self._point_name(pts[k])
                               for k in (a, b, (missing & -missing).bit_length() - 1))
                    raise SkeletonError(
                        f"transitivity violation: {x} <= {y} <= {z} but not {x} <= {z}")
        return rows

    def _point_name(self, p):
        i, c, e = p
        return f"{self.nodes[i].name}.{c}.e{e}"

    @cached_property
    def _probe(self) -> FiniteSpace:
        return FiniteSpace.from_rows(len(self.probe_rows), self.probe_rows)

    def _class_masks(self, rows):
        """The class masks of a class-uniform relation given by probe-shaped
        rows (bit y of ``rows[x]`` when x is related to y): per node i and
        element f, ``same[i, f]`` holds the elements e of i with (i, e)
        related to (i, f) in one copy; per node pair, ``cross[i, (j, f)]``
        holds those related to (j, f) in another copy (any copy when
        j != i, none when node i has one copy).

        Read from copy 0 of each node, and from its first other copy for
        the cross masks.  The order, the delta-order and the reversed order
        are all copy-uniform: permuting a node's copies is an automorphism
        of the probe, so the relations read from it are copy-symmetric;
        transitivity puts a clique's cross-copy mask inside its same-copy
        mask, and the copies of an antichain node meet only through other
        nodes, which relate to all of its copies alike.  The skeleton tests
        check this uniformity for all three relations."""
        shifts = self._shifts(self.probe_copies())
        same = {(i, f): 0 for i, nd in enumerate(self.nodes) for f in range(nd.size)}
        cross = {(i, jf): 0 for i in range(len(self.nodes)) for jf in same}
        for i, ni in enumerate(self.nodes):
            for e in range(ni.size):
                row, bit = rows[shifts[i][0] + e], 1 << e
                for j, nj in enumerate(self.nodes):
                    starts = shifts[j]
                    if i == j:
                        for f in bits(row >> starts[0] & nj.full_pattern):
                            same[i, f] |= bit
                        starts = starts[1:]
                    if starts:
                        for f in bits(row >> starts[0] & nj.full_pattern):
                            cross[i, (j, f)] |= bit
        return same, cross

    @cached_property
    def down_masks(self):
        """The class masks of the order: ``down_same[i, f]`` and
        ``down_cross[i, (j, f)]`` hold the classes of node i below (j, f)."""
        return self._class_masks(self.probe_rows)

    @cached_property
    def down_masks_s(self):
        """The class masks of the semiregularization preorder: x <=_s y iff
        y lies in the smallest regular open set around x; delta-closure is
        the down-closure of this preorder."""
        return self._class_masks(self._probe._min_regular_nbhd)

    def _pattern_tables(self, masks):
        """``masks`` (down or up masks) indexed by pattern: per node i, the
        same-copy mask of every pattern of i; per node pair (i, j), the
        cross-copy mask on i of every pattern of j."""
        same_masks, cross_masks = masks
        sizes = [nd.size for nd in self.nodes]
        same = tuple(_or_table([same_masks[i, e] for e in range(k)])
                     for i, k in enumerate(sizes))
        cross = tuple(tuple(_or_table([cross_masks[i, (j, f)] for f in range(k)])
                            for j, k in enumerate(sizes)) for i in range(len(sizes)))
        return same, cross

    @cached_property
    def down_tables(self):
        return self._pattern_tables(self.down_masks)

    @cached_property
    def down_tables_s(self):
        return self._pattern_tables(self.down_masks_s)

    @cached_property
    def up_masks(self):
        """The class masks of the reversed order, as declared:
        ``up_same[i, e]`` and ``up_cross[j, (i, e)]`` hold the classes above
        (i, e) in its own copy and in the other copies of node j.  Above a
        point (i, c, e) the declaration puts the block row of e in copy c,
        every element of the other copies of a clique node, and the
        elements of other nodes that ``rels`` names.  Once ``probe_rows``
        has checked it transitive, this is the order itself."""
        up_same = {(i, e): r for i, nd in enumerate(self.nodes) for e, r in enumerate(nd.block)}
        up_cross = {(j, (i, e)): nd.full_pattern if j == i and nd.mode == "clique" else 0
                    for j, nd in enumerate(self.nodes) for i, e in up_same}
        for (i, e), (j, f) in self.rels:
            up_cross[j, (i, e)] |= 1 << f
        return up_same, up_cross

    def _up_rows(self, shifts, up_masks) -> list[int]:
        """The up-set rows of a realization, over the points that ``shifts``
        (from ``_shifts``) lays out, from up masks: the cross mask in every
        copy, but the same-copy mask in the point's own."""
        up_same, up_cross = up_masks
        # a pattern times spread[j] is that pattern in every copy of node j
        spread = [sum(1 << sh for sh in starts) for starts in shifts]
        rows = []
        for i, nd in enumerate(self.nodes):
            across = [sum(up_cross[j, (i, e)] * s for j, s in enumerate(spread))
                      for e in range(nd.size)]
            for sh in shifts[i]:
                rows += [row & ~(nd.full_pattern << sh) | up_same[i, e] << sh
                         for e, row in enumerate(across)]
        return rows

    @cached_property
    def up_tables(self):
        return self._pattern_tables(self.up_masks)

    @cached_property
    def top_patterns(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Per node, the block elements whose points lie in Top, and those in
        S (``core.top_classes``), read from copy 0 of each node on the probe.

        Both are class-uniform, and the probe is exact for them for the
        reasons ``properties._top_class_simple`` gives: relations are
        class-uniform, so whether a point is top, and whether another point
        is related to it both ways (its top class then has two points or
        more), depends only on its class and on whether its node has another
        copy, which the probe keeps."""
        tops = top_classes(self.probe_rows)
        top, single = [], []
        offset = 0
        for nd, copies in zip(self.nodes, self.probe_copies()):
            top.append(tops.top >> offset & nd.full_pattern)
            single.append(tops.single >> offset & nd.full_pattern)
            offset += copies * nd.size
        return tuple(top), tuple(single)

    @property
    def finite(self) -> bool:
        return all(not nd.is_omega for nd in self.nodes)

    # One memo contract for both kinds of space: results only, and nothing
    # stored when ``compute`` raises.
    memo = FiniteSpace.memo
    recall = FiniteSpace.recall

    def classify(self, t: "SymbolicSet") -> ClassFlags:
        """The class flags of a template (``sym_classify``), memoized."""
        return self.recall(("flags", t.counts), lambda: sym_classify(self, t))

    def operator(self, name: str, t: "SymbolicSet") -> "SymbolicSet":
        """The operator ``name`` of ``core.OPERATORS`` applied to a template
        (``sym_operator``), memoized under ``(name, t.counts)``, where the
        cover deciders' saturations read it."""
        return self.recall((name, t.counts), lambda: sym_operator(self, name, t))

    def layout(self, kinds: tuple) -> "_Layout":
        """The value layout of a Config whose groups have these kinds,
        memoized under ``("layout", kinds)`` with its segment tables."""
        return self.recall(("layout", kinds), lambda: _Layout(self, kinds))

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
    counts: tuple  # per node: tuple of (pattern mask, nonzero card), patterns increasing

    def __post_init__(self):
        """Checks that the counts are in canonical form, in one pass: per
        node, patterns strictly increasing and in range, each card valid and
        nonzero, INF on an omega node, and a finite node's cards summing to
        its card."""
        counts = tuple(map(tuple, self.counts))
        if len(counts) != len(self.space.nodes):
            raise SkeletonError("counts must cover every node")
        for nd, pairs in zip(self.space.nodes, counts):
            last = -1
            for pat, card in pairs:
                if not last < pat <= nd.full_pattern:
                    raise SkeletonError(f"node {nd.name}: patterns must increase "
                                        "within the block")
                _check_count(nd, card)
                if card == 0:
                    raise SkeletonError(f"node {nd.name}: zero count on pattern {pat}")
                last = pat
            if nd.is_omega:
                if all(card != INF for _pat, card in pairs):
                    raise SkeletonError(f"omega node {nd.name}: counts must include INF")
            elif sum(card for _pat, card in pairs) != nd.card:
                raise SkeletonError(f"node {nd.name}: counts must sum to {nd.card}")
        object.__setattr__(self, "counts", counts)

    @staticmethod
    def from_names(space: SkeletonSpace, spec: dict) -> "SymbolicSet":
        """Build from {node name: {elem tuple or mask: count}}; the empty
        pattern absorbs the unspecified remainder.  A count is an int >= 0
        or, on an omega node, FIN or INF; every name must be a node."""
        if not isinstance(spec, dict):
            raise SkeletonError("a symbolic set maps node names to pattern counts")
        for name, given in spec.items():
            space.node_index(name)
            if not isinstance(given, dict):
                raise SkeletonError(f"node {name}: pattern counts must be a mapping")
        counts = []
        for nd in space.nodes:
            pairs = {}
            for key, card in spec.get(nd.name, {}).items():
                _check_count(nd, card)
                if not isinstance(key, int):
                    if not all(0 <= e < nd.size for e in key):
                        raise SkeletonError(f"node {nd.name}: no elements {key!r}")
                    key = sum(1 << e for e in set(key))
                pairs[key] = _card_add(pairs.get(key, 0), card)
            if nd.is_omega:
                if INF not in pairs.values():
                    pairs[0] = _card_add(pairs.get(0, 0), INF)
            else:
                used = sum(pairs.values())
                if used > nd.card:
                    raise SkeletonError(f"node {nd.name}: too many copies")
                if nd.card - used:
                    pairs[0] = _card_add(pairs.get(0, 0), nd.card - used)
            counts.append(tuple(sorted((p, c) for p, c in pairs.items() if c != 0)))
        return SymbolicSet(space, tuple(counts))

    def is_empty(self) -> bool:
        return all(pat == 0 for pairs in self.counts for pat, _card in pairs)

    def is_full(self) -> bool:
        return all(pat == nd.full_pattern
                   for nd, pairs in zip(self.space.nodes, self.counts)
                   for pat, _card in pairs)

    def touches(self, i: int, e: int) -> bool:
        return any(pat >> e & 1 for pat, _card in self.counts[i])

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

    @staticmethod
    def from_json(space: SkeletonSpace, data) -> "SymbolicSet":
        """The inverse of ``to_json``: {node name: {pattern: count}} with
        patterns as ``pattern_elements`` reads them.  Any other value
        raises SkeletonError."""
        if not (isinstance(data, dict)
                and all(isinstance(pats, dict) for pats in data.values())):
            raise SkeletonError("want a JSON object of node name -> "
                                "{pattern: count} objects")
        return SymbolicSet.from_names(space, {
            name: {pattern_elements(pat): card for pat, card in pats.items()}
            for name, pats in data.items()})

    def __str__(self):
        parts = []
        for nd, pairs in zip(self.space.nodes, self.counts):
            inner = " ".join(
                f"{{{','.join(f'e{e}' for e in bits(pat)) or '-'}}}:{card}"
                for pat, card in pairs
            )
            parts.append(f"{nd.name}[{inner}]")
        return "; ".join(parts)


def full_set(space: SkeletonSpace) -> SymbolicSet:
    spec = {}
    for nd in space.nodes:
        spec[nd.name] = {nd.full_pattern: INF if nd.is_omega else nd.card}
    return SymbolicSet.from_names(space, spec)


# -- the aligned-group engine -------------------------------------------------
#
# A Config is a frame for several subsets of one realization with known
# per-copy alignment.  The copies of each node fall into groups: a card of
# copies that agree on every tracked set.  A tracked set is a value, one int
# with a field of ``size`` bits per group holding the group's pattern, laid
# out by the skeleton's ``_Layout`` for the kinds of the frame's groups.
# Operators take values and return values, all in one frame, so derived sets
# stay aligned with their sources.  Union, intersection and difference are
# ``|``, ``&`` and ``& ~``, a complement is ``v ^ cfg.full``, and a closure
# is one table entry per node.

_SURE, _UNSURE, _EMPTY = "sure", "unsure", "empty"  # the kinds of group


def _group_kind(card) -> str:
    """A group's copies surely exist, may all be missing (``_FIN0``), or
    there are none (card 0)."""
    return _UNSURE if card == _FIN0 else _SURE if card else _EMPTY


class _Layout:
    """Where the groups of a Config lie in its values, for one shape of
    group kinds (per node, the kind of each group), memoized on the skeleton
    (``SkeletonSpace.layout``).

    Group g of node i is the field of ``size_i`` bits at ``offsets[i][g]``.
    The groups of node i follow each other from ``starts[i]``; ``spans[i]``
    masks that segment once shifted down by ``starts[i]``.  ``reps[i]``
    holds the lowest bit of each field of node i, so a pattern times it is
    that pattern on every group of node i.  ``full`` fills every field;
    ``sure`` covers the fields of groups whose copies exist, ``unsure``
    those of groups whose copies may not (``_FIN0``).
    """

    def __init__(self, space: SkeletonSpace, kinds: tuple):
        self.space = space
        self.kinds = kinds
        self.offsets, self.starts, self.spans, self.reps = [], [], [], []
        self.full = self.sure = self.unsure = 0
        start = 0
        for nd, node_kinds in zip(space.nodes, kinds):
            end = start + nd.size * len(node_kinds)
            offsets = range(start, end, nd.size)
            rep = sum(1 << off for off in offsets)
            self.offsets.append(offsets)
            self.starts.append(start)
            self.spans.append((1 << end - start) - 1)
            self.reps.append(rep)
            self.full |= nd.full_pattern * rep
            for off, kind in zip(offsets, node_kinds):
                if kind == _SURE:
                    self.sure |= nd.full_pattern << off
                elif kind == _UNSURE:
                    self.unsure |= nd.full_pattern << off
            start = end

    def _segment_tables(self, tables) -> tuple:
        return tuple((start, span, _Segments(self, j, tables))
                     for j, (start, span) in enumerate(zip(self.starts, self.spans)))

    @cached_property
    def down_segments(self):
        return self._segment_tables(self.space.down_tables)

    @cached_property
    def down_segments_s(self):
        return self._segment_tables(self.space.down_tables_s)

    @cached_property
    def up_segments(self):
        return self._segment_tables(self.space.up_tables)

    @cached_property
    def unsure_only(self) -> "_Layout":
        """The layout of the same fields in which only this layout's
        indeterminate groups count as sure: its closures put on every group
        the cross-copy masks that those groups' copies would add."""
        return self.space.layout(tuple(
            tuple(_SURE if kind == _UNSURE else _EMPTY for kind in node_kinds)
            for node_kinds in self.kinds))


class _Segments(dict):
    """The closure's table for node j of a layout, filled on first use: for
    each value of node j's segment of a value, the same-copy closure of each
    of its groups in place, ORed with the cross-copy masks that its sure
    groups put on every group of every node i (``uniform_i * reps[i]``).
    The closure of a value is the OR of one entry per node."""

    __slots__ = ("layout", "j", "tables")

    def __init__(self, layout: _Layout, j: int, tables):
        super().__init__()
        self.layout, self.j, self.tables = layout, j, tables

    def __missing__(self, segment: int) -> int:
        lay, j = self.layout, self.j
        same, cross = self.tables
        full = lay.space.nodes[j].full_pattern
        out = sure = 0
        for off, kind in zip(lay.offsets[j], lay.kinds[j]):
            pat = segment >> off - lay.starts[j] & full
            out |= same[j][pat] << off
            if kind == _SURE:
                sure |= pat
        for i, rep in enumerate(lay.reps):
            out |= cross[i][j][sure] * rep
        self[segment] = out
        return out


def _segments_or(value: int, segments) -> int:
    """The OR of the entries of ``segments`` (a ``_Layout``'s segment
    tables) for the node segments of a value."""
    out = 0
    for start, span, table in segments:
        out |= table[value >> start & span]
    return out


class Config:
    """A frame for aligned subsets of one realization: the skeleton, the
    card of each group of copies, their ``_Layout`` and the marked group.
    A subset is a value packed by the layout; the operators take values and
    return values."""

    def __init__(self, space: SkeletonSpace, cards: tuple, marked=None):
        """``cards`` per node: the card of each group; ``marked``: the
        (node, group) of the marked copy, if any (``_marked_config``)."""
        self.space, self.cards = space, cards
        self.layout = space.layout(
            tuple(tuple(map(_group_kind, node_cards)) for node_cards in cards))
        self.full = self.layout.full
        self.marked = None  # (node, offset) of the marked group
        if marked is not None:
            node, group = marked
            self.marked = (node, self.layout.offsets[node][group])

    @staticmethod
    def of(space: SkeletonSpace, a: SymbolicSet) -> tuple["Config", int]:
        """The frame of ``a``, one group per pattern, and the value of ``a``
        in it; every card of a symbolic set is nonzero and definite, so
        every group is sure."""
        if a.space is not space and a.space != space:
            raise SkeletonError("set does not fit the skeleton")
        return _framed(space, a.counts)

    # -- the marked copy --

    def _marked_offset(self, node: int) -> int:
        if self.marked is None or self.marked[0] != node:
            raise SkeletonError("no marked group")
        return self.marked[1]

    def marked_pattern(self, node: int, value: int) -> int:
        """The pattern of ``value`` on the marked copy, a copy of ``node``."""
        return value >> self._marked_offset(node) & self.space.nodes[node].full_pattern

    def op_marked(self, node: int, pattern: int) -> int:
        """``pattern`` on the marked copy, a copy of ``node``, and nothing
        elsewhere."""
        return pattern << self._marked_offset(node)

    # -- operators --

    def _downclose(self, value: int, tables: str) -> int:
        """Down-closure through the layout's segment tables ``tables``
        (``_Layout.down_segments`` or ``down_segments_s``), or up-closure
        through ``up_segments``: the OR, over nodes, of the entry
        (``_Segments``) for that node's segment of the value.  When some
        group is indeterminate, the cross-copy masks its copies would add
        must already lie in every group's result: the closure of the value
        in ``_Layout.unsure_only`` (the same same-copy closures, plus those
        masks) adds nothing to it."""
        layout = self.layout
        out = _segments_or(value, getattr(layout, tables))
        if layout.unsure and _segments_or(value, getattr(layout.unsure_only, tables)) & ~out:
            raise SymbolicAmbiguity("closure depends on an indeterminate copy count")
        return out

    def closure(self, value: int) -> int:
        return self._downclose(value, "down_segments")

    def delta_closure(self, value: int) -> int:
        return self._downclose(value, "down_segments_s")

    def up(self, value: int) -> int:
        return self._downclose(value, "up_segments")

    def interior(self, value: int) -> int:
        return self.closure(value ^ self.full) ^ self.full

    def op_const(self, patterns) -> int:
        """``patterns[i]`` on every copy of node i."""
        return sum(p * rep for p, rep in zip(patterns, self.layout.reps))

    @cached_property
    def tops(self) -> tuple[int, int]:
        """Top and S (``FiniteSpace.tops``) as values of this frame: the
        class-uniform patterns of ``SkeletonSpace.top_patterns`` on every
        copy."""
        top, single = self.space.top_patterns
        return self.op_const(top), self.op_const(single)

    # The derived operators and the class flags are identities over the
    # primitives above, ``full`` and ``tops``, which are exact on the
    # realization: this frame runs ``FiniteSpace``'s own bodies.  The flags
    # and ``is_delta_preopen`` compare values as ints, which is the frame's
    # subset and equality test only where every group is sure, as in the
    # frames of ``Config.of``.
    consolidation = FiniteSpace.consolidation
    preclosure = FiniteSpace.preclosure
    preinterior = FiniteSpace.preinterior
    semi_closure = FiniteSpace.semi_closure
    is_delta_preopen = FiniteSpace.is_delta_preopen
    delta_preclosure = FiniteSpace.delta_preclosure
    pre_theta_closure = FiniteSpace.pre_theta_closure
    class_flags = FiniteSpace.class_flags

    # -- predicates --

    def subset(self, v1: int, v2: int) -> bool:
        """A sure group outside decides False before an indeterminate one
        raises."""
        outside = v1 & ~v2
        if outside & self.layout.sure:
            return False
        if outside & self.layout.unsure:
            raise SymbolicAmbiguity("subset test on indeterminate count")
        return True

    def to_set(self, value: int) -> SymbolicSet:
        """The symbolic set of ``value``, in canonical form: groups with no
        copies drop out, and equal patterns merge."""
        counts = []
        for nd, cards, offsets in zip(self.space.nodes, self.cards, self.layout.offsets):
            merged, full = {}, nd.full_pattern
            for card, off in zip(cards, offsets):
                if card == _FIN0:
                    raise SymbolicAmbiguity("projecting an indeterminate count")
                if card:
                    pat = value >> off & full
                    merged[pat] = _card_add(merged.get(pat, 0), card)
            if nd.is_omega and INF not in merged.values():
                raise SymbolicAmbiguity("omega node lost its INF class")
            counts.append(tuple(sorted(merged.items())))
        return SymbolicSet(self.space, tuple(counts))


def _framed(space: SkeletonSpace, counts, marked=None) -> tuple[Config, int]:
    """The frame with one group per (pattern, card) pair of ``counts`` (per
    node), and the value that holds each group's pattern."""
    cfg = Config(space, tuple(tuple(card for _pat, card in pairs) for pairs in counts),
                 marked)
    value = 0
    for pairs, offsets in zip(counts, cfg.layout.offsets):
        for (pat, _card), off in zip(pairs, offsets):
            value |= pat << off
    return cfg, value


# -- marked (generic point) machinery -----------------------------------------


def _marked_config(space, a: SymbolicSet, node: int, group_pat: int) -> tuple[Config, int]:
    """The frame of ``a`` with one copy of its ``group_pat`` group on
    ``node`` split off as the marked group, and the value of ``a`` in it.

    Marked frames never place the ambiguous FIN count on the marked copy
    itself, which keeps generic-point decisions definite: a FIN group leaves
    a rest of ``_FIN0`` copies.
    """
    if a.space is not space and a.space != space:
        raise SkeletonError("set does not fit the skeleton")
    counts = list(a.counts)
    pairs = counts[node]
    for g, (pat, card) in enumerate(pairs):
        if pat == group_pat:
            rest = INF if card == INF else _FIN0 if card == FIN else card - 1
            counts[node] = pairs[:g] + ((pat, rest),) + pairs[g + 1:] + ((pat, 1),)
            return _framed(space, counts, marked=(node, len(pairs)))
    raise SkeletonError("marked group not found")


def sym_complement(space, a: SymbolicSet) -> SymbolicSet:
    cfg, value = Config.of(space, a)
    return cfg.to_set(value ^ cfg.full)


def sym_operator(space: SkeletonSpace, op: str, a: SymbolicSet) -> SymbolicSet:
    """Exact symbolic operator on a symbolic set: each name of
    ``core.OPERATORS``, the ``Config`` method of that name."""
    if op not in OPERATORS:
        raise SkeletonError(f"unknown operator {op!r}")
    cfg, value = Config.of(space, a)
    return cfg.to_set(getattr(cfg, OPERATORS[op])(value))


def sym_classify(space: SkeletonSpace, a: SymbolicSet) -> ClassFlags:
    """All set-class flags of a symbolic set: ``class_flags`` in its frame,
    where every group is sure."""
    cfg, value = Config.of(space, a)
    return cfg.class_flags(value)


# -- expansion and skeletonization ---------------------------------------------


def expand(space: SkeletonSpace) -> tuple[FiniteSpace, tuple]:
    """Realize an all-finite skeleton as an explicit space.

    Returns the space and the point labels (node index, copy, element) in
    carrier order.
    """
    if not space.finite:
        raise SkeletonError("cannot expand a skeleton with omega nodes")
    cards = [nd.card for nd in space.nodes]
    labels = space._points(cards)
    if len(labels) > MAX_EXPLICIT_POINTS:
        raise SkeletonOverflow("expansion too large")
    rows = space._up_rows(space._shifts(cards), space.up_masks)
    return FiniteSpace.from_rows(len(labels), rows), tuple(labels)


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
    # relations between distinct product nodes, read off the factor masks
    def factor_rel(space, i, e, j, f):
        down_same, down_cross = space.down_masks
        cross = bool(down_cross[i, (j, f)] >> e & 1)
        if i != j:
            return cross
        same = bool(down_same[i, f] >> e & 1)
        if space.nodes[i].card == 1 or same == cross:
            return same
        if space.nodes[i].mode == "antichain":
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
                    r1 = factor_rel(s, ia1, e1, ib1, f1)
                    r2 = factor_rel(t, ia2, e2, ib2, f2)
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
            if pat == 0:
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
    down_cross = space.down_masks[1]
    rels = set()
    for x, (i, _pi, elems_i) in enumerate(origin):
        for y, (j, _pj, elems_j) in enumerate(origin):
            if x == y:
                continue
            for e_new, e in enumerate(elems_i):
                for f_new, f in enumerate(elems_j):
                    if down_cross[i, (j, f)] >> e & 1:
                        rels.add(((x, e_new), (y, f_new)))
    sub = SkeletonSpace(tuple(sub_nodes), frozenset(rels))
    # equal subspaces share one object, and so one memo, while the parent lives
    return space.memo.setdefault(("restrict", sub), sub)


def finite_probe(space: SkeletonSpace, omega_size: int = 6) -> SkeletonSpace:
    """The skeleton with every omega node replaced by a finite class of
    ``omega_size`` copies."""
    nodes = tuple(
        Node(nd.name, omega_size if nd.is_omega else nd.card, nd.mode, nd.block)
        for nd in space.nodes
    )
    return SkeletonSpace(nodes, space.rels)


def probe_set(space: SkeletonSpace, probe: SkeletonSpace, a: SymbolicSet) -> SymbolicSet:
    """Instantiate a symbolic set on a finite probe: FIN -> 1 copy, INF
    classes share the remaining copies."""
    counts = []
    for nd, probe_nd, pairs in zip(space.nodes, probe.nodes, a.counts):
        if not nd.is_omega:
            counts.append(pairs)
            continue
        sizes = {}
        inf_pats = [p for p, c in pairs if c == INF]
        for p, c in pairs:
            if c == FIN:
                sizes[p] = 1
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


TEMPLATE_CAP = 200_000


def all_symbolic_sets(space: SkeletonSpace) -> tuple:
    """Every symbolic set of the skeleton (the template space).

    Finite nodes contribute exact-count partitions; omega nodes contribute
    ZERO/FIN/INF assignments with at least one INF.  Raises
    SkeletonOverflow beyond ``TEMPLATE_CAP`` templates.
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
        if total > TEMPLATE_CAP:
            raise SkeletonOverflow(
                f"template space of size >= {total} exceeds cap {TEMPLATE_CAP}"
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


def element_numeral(tok: str) -> int | None:
    """The N of an element token ``e<N>`` (ASCII digits), else None."""
    return numeral(tok[1:]) if tok.startswith("e") else None


def pattern_elements(pat: str) -> tuple[int, ...]:
    """``"e0,e2"`` -> (0, 2); ``"-"`` (as ``SymbolicSet.to_json`` writes it)
    and ``""`` are the empty pattern."""
    if pat in ("", "-"):
        return ()
    elems = tuple(element_numeral(tok) for tok in pat.split(","))
    if None in elems:
        raise SkeletonError(f"bad pattern {pat!r}: want e<N>,e<N>,... or '-'")
    return elems


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
            else:
                card = numeral(parts[3])
                if card is None or card < 1:
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
                e = element_numeral(el)
                if e is None:
                    raise SkeletonError(f"line {lineno}: bad element {el!r}")
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
        _CATALOG_BUILDERS[name] = fn
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


@cache  # entries are constants: one object per name, so one memo per space
def catalog(name: str) -> CatalogEntry:
    """Look up a named space with its expected verdicts."""
    from topolab.core import discrete, excluded_point, indiscrete

    if name in _CATALOG_BUILDERS:
        return _CATALOG_BUILDERS[name]()
    kind, _, num = name.rpartition("-")
    # only the canonical spelling of a size, so each space has one entry
    if num in ("1", "2", "3", "4", "5", "6"):
        n = int(num)
        if kind == "indiscrete":
            return CatalogEntry(
                name, indiscrete(n), (("p-closed", True, CITED),)
            )
        if kind == "discrete":
            return CatalogEntry(name, discrete(n), (("p-closed", True, DERIVED),))
        if kind == "excluded-point":
            return CatalogEntry(
                name, excluded_point(n), (("p-closed", True, DERIVED),)
            )
    raise SkeletonError(f"unknown catalog entry {name!r}")

"""Skeleton validation, symbolic operators, and the expand/abstract oracle."""

import itertools
import random
from collections import Counter

import pytest

from topolab.core import FiniteSpace, bits, build_space, sierpinski
from topolab.skeleton import (
    _FIN0,
    BLOCKS,
    FIN,
    INF,
    Config,
    Node,
    SkeletonError,
    SkeletonOverflow,
    SkeletonSpace,
    SymbolicAmbiguity,
    SymbolicIncomplete,
    SymbolicSet,
    _card_add,
    _marked_config,
    all_symbolic_sets,
    catalog,
    catalog_names,
    expand,
    format_skel,
    full_set,
    parse_skel,
    random_finite_skeleton,
    realized_opens_description,
    remark_product_factors,
    skeleton_product,
    skeletonize,
    sym_classify,
    sym_complement,
    sym_operator,
)

from conftest import omega_skeletons
from oracles import abstract, decoded, empty_set, frame, pack, patterns

OPS_VS_CORE = {
    "int": "interior",
    "cl": "closure",
    "pcl": "preclosure",
    "pint": "preinterior",
    "consolidation": "consolidation",
    "scl": "semi_closure",
    "delta-cl": "delta_closure",
    "delta-pcl": "delta_preclosure",
    "pcl-theta": "pre_theta_closure",
}


def instantiate(space, labels, sym: SymbolicSet) -> int:
    """Canonical concrete instance of a symbolic set inside expand(space)."""
    mask = 0
    consumed = {}
    for idx, (i, c, e) in enumerate(labels):
        if (i, c) not in consumed:
            remaining = []
            for pat, card in sym.counts[i]:
                remaining.extend([pat] * card)
            consumed[i] = consumed.get(i, 0)
        # assign the c-th pattern of node i
    # simpler: per node, expand the pattern multiset in sorted order
    per_node_patterns = []
    for i, nd in enumerate(space.nodes):
        pats = []
        for pat, card in sym.counts[i]:
            pats.extend([pat] * card)
        per_node_patterns.append(pats)
    for idx, (i, c, e) in enumerate(labels):
        if per_node_patterns[i][c] >> e & 1:
            mask |= 1 << idx
    return mask


# -- construction and validation ----------------------------------------------


def test_parse_and_format_roundtrip():
    text = (
        "node p card 1 mode antichain block chain1\n"
        "node t card omega mode antichain block chain1\n"
        "rel p.e0 <= t.e0\n"
    )
    sk = parse_skel(text)
    assert parse_skel(format_skel(sk)) == sk
    assert sk.nodes[0].card == 1 and sk.nodes[1].is_omega


def test_transitivity_violation_names_witness():
    text = (
        "node a card 1 mode antichain block chain1\n"
        "node b card 1 mode antichain block chain1\n"
        "node c card 1 mode antichain block chain1\n"
        "rel a.e0 <= b.e0\n"
        "rel b.e0 <= c.e0\n"
    )
    with pytest.raises(SkeletonError) as err:
        parse_skel(text)
    assert "transitivity violation" in str(err.value)
    assert "a.0.e0" in str(err.value)


def test_intra_node_rel_rejected():
    with pytest.raises(SkeletonError):
        SkeletonSpace(
            (Node("a", 2, "antichain", BLOCKS["antichain2"]),),
            frozenset({((0, 0), (0, 1))}),
        )


def test_clique_mode_with_incompatible_block_rejected():
    # cross-copy cliques force within-copy relations too
    with pytest.raises(SkeletonError):
        SkeletonSpace((Node("a", 2, "clique", BLOCKS["antichain2"]),), frozenset())


def test_card_one_clique_normalized():
    nd = Node("a", 1, "clique", BLOCKS["chain1"])
    assert nd.mode == "antichain"


def test_parse_errors():
    with pytest.raises(SkeletonError):
        parse_skel("node a card 0 mode antichain block chain1\n")
    with pytest.raises(SkeletonError):
        parse_skel("node a card 1 mode antichain block nosuch\n")
    with pytest.raises(SkeletonError):
        parse_skel("node a card 1 mode antichain block chain1\nrel a.e0 <= b.e0\n")
    with pytest.raises(SkeletonError):
        parse_skel("")


# -- class masks read from the probe rows, against the matrix tables -------------


def _unchecked(nodes, rels) -> SkeletonSpace:
    """A skeleton object built past its validation, for the reference below."""
    sk = object.__new__(SkeletonSpace)
    object.__setattr__(sk, "nodes", tuple(nodes))
    object.__setattr__(sk, "rels", frozenset(rels))
    return sk


def _base_leq(sk, x, y) -> bool:
    """Is point x below point y in the declared relation, before closure?"""
    (i, c, e), (j, d, f) = x, y
    if i == j:
        if c == d:
            return bool(sk.nodes[i].block[e] >> f & 1)
        return sk.nodes[i].mode == "clique"
    return ((i, e), (j, f)) in sk.rels


def _reference_tables(sk):
    """Reference: the probe relation as an n x n matrix, checked transitive
    by a triple loop with a named witness, then read into same-copy and
    cross-copy tables keyed by class pairs; the probe rows follow from the
    tables.  This is how a skeleton held its relation before it read the
    class masks from the probe rows."""
    copies = sk.probe_copies()
    pts = sk._points(copies)
    idx = {p: k for k, p in enumerate(pts)}
    n = len(pts)
    leq = [[_base_leq(sk, x, y) for y in pts] for x in pts]
    for a in range(n):
        for b in range(n):
            if a == b or not leq[a][b]:
                continue
            for c in range(n):
                if leq[b][c] and not leq[a][c]:
                    x, y, z = (sk._point_name(pts[k]) for k in (a, b, c))
                    raise SkeletonError(f"transitivity violation: {x} <= {y} <= {z} "
                                        f"but not {x} <= {z}")
    same, cross = {}, {}
    for i, ni in enumerate(sk.nodes):
        for j, nj in enumerate(sk.nodes):
            for e in range(ni.size):
                for f in range(nj.size):
                    key = (i, e), (j, f)
                    row = leq[idx[i, 0, e]]
                    if i == j:
                        same[key] = row[idx[j, 0, f]]
                        cross[key] = copies[i] > 1 and row[idx[j, 1, f]]
                        if copies[i] > 2 and row[idx[j, 2, f]] != cross[key]:
                            raise SkeletonError("non-uniform relation")
                        if cross[key] and not same[key]:
                            raise SkeletonError("non-uniform relation")
                    else:
                        if len({row[idx[j, d, f]] for d in range(copies[j])}) > 1:
                            raise SkeletonError("non-uniform relation")
                        same[key] = cross[key] = row[idx[j, 0, f]]
    rows = tuple(sum(1 << y for y, (j, d, f) in enumerate(pts)
                     if (same if (i, c) == (j, d) else cross)[(i, e), (j, f)])
                 for i, c, e in pts)
    return same, cross, rows


def _reference_s_tables(sk):
    """Reference: the semiregularization preorder's tables on the probe."""
    copies = sk.probe_copies()
    pts = sk._points(copies)
    idx = {p: k for k, p in enumerate(pts)}
    r = FiniteSpace.from_rows(len(pts), sk.probe_rows)._min_regular_nbhd
    same, cross = {}, {}
    for i, ni in enumerate(sk.nodes):
        for j, nj in enumerate(sk.nodes):
            for e in range(ni.size):
                for f in range(nj.size):
                    row = r[idx[i, 0, e]]
                    key = (i, e), (j, f)
                    d = 1 if i == j else 0
                    same[key] = bool(row >> idx[j, 0, f] & 1)
                    cross[key] = copies[j] > d and bool(row >> idx[j, d, f] & 1)
    return same, cross


def _reference_masks(sk, tables):
    """Reference: per-class down masks from same-copy and cross-copy tables."""
    same, cross = tables
    down_same, down_cross = {}, {}
    for i, ni in enumerate(sk.nodes):
        for j, nj in enumerate(sk.nodes):
            for f in range(nj.size):
                if i == j:
                    down_same[i, f] = sum(1 << e for e in range(ni.size)
                                          if same[(i, e), (i, f)])
                down_cross[i, (j, f)] = sum(1 << e for e in range(ni.size)
                                            if cross[(i, e), (j, f)])
    return down_same, down_cross


def _mask_corpus():
    import random

    rng = random.Random(2)
    return ([catalog(n).space for n in catalog_names()
             if isinstance(catalog(n).space, SkeletonSpace)]
            + [sk for seed in (3, 5, 11, 17) for sk in omega_skeletons(seed=seed, count=30)]
            + [random_finite_skeleton(rng, max_nodes=3, max_card=4) for _ in range(60)])


def test_class_masks_match_the_matrix_tables():
    corpus = _mask_corpus()
    for sk in corpus:
        same, cross, rows = _reference_tables(sk)
        reversed_tables = tuple({(y, x): v for (x, y), v in t.items()} for t in (same, cross))
        assert sk.probe_rows == rows, format_skel(sk)
        assert sk.down_masks == _reference_masks(sk, (same, cross)), format_skel(sk)
        assert sk.down_masks_s == _reference_masks(sk, _reference_s_tables(sk)), format_skel(sk)
        assert sk.up_masks == _reference_masks(sk, reversed_tables), format_skel(sk)
        # the declared up masks are the order read back from the probe's down-sets
        down_sets = [sk._probe.closure(1 << y) for y in range(sk._probe.n)]
        assert sk.up_masks == sk._class_masks(down_sets), format_skel(sk)
    assert len(corpus) == 186


def test_class_relations_are_copy_uniform():
    """The order, the delta-order and the reversed order on the probe relate
    two points as their classes' same-copy mask says within a copy and as
    the cross mask says across copies, and a node's cross mask lies inside
    its same-copy mask: the masks read from copy 0 are the whole relation."""
    for sk in _mask_corpus():
        pts = sk._points(sk.probe_copies())
        probe = sk._probe
        relations = (
            (sk.probe_rows, sk.down_masks),
            (probe._min_regular_nbhd, sk.down_masks_s),
            ([probe.closure(1 << y) for y in range(probe.n)], sk.up_masks),
        )
        for rows, (same, cross) in relations:
            for x, (i, c, e) in enumerate(pts):
                for y, (j, d, f) in enumerate(pts):
                    mask = same[i, f] if (i, c) == (j, d) else cross[i, (j, f)]
                    assert rows[x] >> y & 1 == mask >> e & 1, (format_skel(sk), x, y)
            for i, nd in enumerate(sk.nodes):
                for f in range(nd.size):
                    assert cross[i, (i, f)] & ~same[i, f] == 0, format_skel(sk)


def _random_relation(rng):
    """Nodes and relations drawn with no closure, most of them not a preorder."""
    nodes = tuple(Node(f"n{i}", rng.choice([1, 2, 3, 4, None]),
                       rng.choice(["antichain", "clique"]), BLOCKS[rng.choice(list(BLOCKS))])
                  for i in range(rng.randint(1, 3)))
    rels = {((i, e), (j, f))
            for i, ni in enumerate(nodes) for j, nj in enumerate(nodes) if i != j
            for e in range(ni.size) for f in range(nj.size) if rng.random() < 0.3}
    return nodes, frozenset(rels)


def _verdict(build):
    try:
        build()
    except SkeletonError as exc:
        return str(exc)
    return "accepted"


def test_row_transitivity_check_matches_the_triple_loop():
    import random

    rng = random.Random(7)
    outcomes = Counter()
    for _ in range(300):
        nodes, rels = _random_relation(rng)
        want = _verdict(lambda: _reference_tables(_unchecked(nodes, rels)))
        assert _verdict(lambda: SkeletonSpace(nodes, rels)) == want, (nodes, rels)
        outcomes[want == "accepted"] += 1
    assert outcomes[True] > 50 and outcomes[False] > 100


def test_cross_copy_transitivity_violation_names_the_first_triple():
    nodes = (Node("a", 2, "clique", BLOCKS["antichain2"]),)
    want = ("transitivity violation: a.0.e0 <= a.1.e0 <= a.0.e1 "
            "but not a.0.e0 <= a.0.e1")
    assert _verdict(lambda: _reference_tables(_unchecked(nodes, ()))) == want
    assert _verdict(lambda: SkeletonSpace(nodes, frozenset())) == want


# -- expansion ------------------------------------------------------------------


def test_expand_two_point_chain_is_sierpinski():
    sk = parse_skel(
        "node a card 1 mode antichain block chain1\n"
        "node b card 1 mode antichain block chain1\n"
        "rel a.e0 <= b.e0\n"
    )
    fs, labels = expand(sk)
    assert fs == sierpinski()
    assert labels == ((0, 0, 0), (1, 0, 0))


def test_expand_two_clique_is_indiscrete():
    fs, _ = expand(parse_skel("node x card 2 mode clique block chain1\n"))
    assert fs == build_space(2, [])


def test_expand_excluded_point_three():
    sk = parse_skel(
        "node p card 1 mode antichain block chain1\n"
        "node t card 2 mode antichain block chain1\n"
        "rel p.e0 <= t.e0\n"
    )
    fs, _ = expand(sk)
    assert fs.opens == (0b000, 0b010, 0b100, 0b110, 0b111)


def test_expand_rejects_omega():
    with pytest.raises(SkeletonError):
        expand(catalog("indiscrete-omega").space)


def test_realized_opens_description():
    sk = parse_skel("node x card 2 mode clique block chain1\n")
    text = realized_opens_description(sk)
    assert "realized carrier: 2 points" in text


# -- symbolic operators on catalog spaces ----------------------------------------


def test_e1iii_pcl_of_open_point_is_full():
    e1 = catalog("e1iii").space
    z = SymbolicSet.from_names(e1, {"z": {(0,): 1}})
    assert sym_operator(e1, "pcl", z).is_full()


def test_excluded_point_cl_of_p_is_itself():
    epo = catalog("excluded-point-omega").space
    p = SymbolicSet.from_names(epo, {"p": {(0,): 1}})
    assert sym_operator(epo, "cl", p) == p


def test_indiscrete_omega_int_of_proper_set_empty():
    io = catalog("indiscrete-omega").space
    for spec in ({"x": {(0,): FIN, (): INF}}, {"x": {(0,): INF, (): INF}},
                 {"x": {(0,): INF, (): FIN}}):
        a = SymbolicSet.from_names(io, spec)
        assert sym_operator(io, "int", a).is_empty()


CATALOG_SKELETON_NAMES = tuple(name for name in catalog_names()
                               if isinstance(catalog(name).space, SkeletonSpace))


def _outcome(compute):
    try:
        return compute()
    except (SymbolicAmbiguity, SymbolicIncomplete) as exc:
        return type(exc)


def test_skeleton_operators_answer_exactly_the_core_names():
    from topolab.core import OPERATORS

    for meth in OPERATORS.values():
        assert callable(getattr(Config, meth, None)), meth
    sk = catalog("excluded-point-omega").space
    t = full_set(sk)
    for name in OPERATORS:
        assert sym_operator(sk, name, t).is_full(), name
    for name in ("delta-pint", "id", "closure"):
        with pytest.raises(SkeletonError, match="unknown operator"):
            sym_operator(sk, name, t)
        with pytest.raises(SkeletonError, match="unknown operator"):
            sk.operator(name, t)


@pytest.mark.parametrize("name", CATALOG_SKELETON_NAMES)
def test_operator_by_name_is_sym_operator_memoized(name):
    from topolab.core import OPERATORS

    sk = parse_skel(format_skel(catalog(name).space))  # a cold memo
    for t in all_symbolic_sets(sk):
        for op in OPERATORS:
            want = _outcome(lambda: sym_operator(sk, op, t))
            got = _outcome(lambda: sk.operator(op, t))
            assert got == want, (op, str(t))
            stored = sk.memo[op, t.counts]
            assert stored is got and sk.operator(op, t) is got


def test_sym_classify_excluded_point_preopen_only_full():
    epo = catalog("excluded-point-omega").space
    containing_p = [
        s for s in all_symbolic_sets(epo) if s.touches(0, 0)
    ]
    for s in containing_p:
        flags = sym_classify(epo, s)
        assert flags.preopen == s.is_full()


def test_sym_classify_e1iii():
    e1 = catalog("e1iii").space
    for s in all_symbolic_sets(e1):
        flags = sym_classify(e1, s)
        # preopen iff empty or contains the open point
        assert flags.preopen == (s.is_empty() or s.touches(1, 0))
        assert flags.delta_preopen
        assert flags.delta_preclosed


def test_symbolic_set_validation():
    epo = catalog("excluded-point-omega").space
    with pytest.raises(SkeletonError):
        SymbolicSet(epo, (((0, 1),), ((0, FIN),)))  # omega node without INF
    with pytest.raises(SkeletonError):
        SymbolicSet(epo, (((0, 2),), ((0, INF),)))  # finite node overfull
    with pytest.raises(SkeletonError):
        SymbolicSet(epo, (((0, FIN),), ((0, INF),)))  # FIN on a finite node


@pytest.mark.parametrize("counts", [
    (((0, 1),), ((1, INF), (0, FIN))),  # pairs out of order
    (((0, 1),), ((0, FIN), (0, INF))),  # a repeated pattern
    (((0, 1), (1, 0)), ((0, INF),)),  # a zero card
    (((0, 1),), ((0, INF), (1, 0))),  # a zero card on an omega node
    (((0, 1),), ((0, INF), (2, FIN))),  # a pattern outside the block
])
def test_symbolic_set_takes_only_canonical_counts(counts):
    # one form per set: the memo keys on counts, and equal sets must compare equal
    with pytest.raises(SkeletonError):
        SymbolicSet(catalog("excluded-point-omega").space, counts)


def test_symbolic_set_readers_write_canonical_counts():
    epo = catalog("excluded-point-omega").space
    t = SymbolicSet.from_names(epo, {"p": {(0,): 1, (): 0}, "t": {(0,): INF, (): 0}})
    assert t.counts == (((1, 1),), ((1, INF),))
    cfg, a = _marked_config(epo, t, 0, 1)  # leaves a group with no copies on p
    assert cfg.to_set(a) == t and cfg.to_set(a).counts == t.counts


def test_card_add_table():
    """Counts add as copies do: exactly on ints, FIN absorbs ints and INF
    absorbs everything, 0 being the unit."""
    counts = (0, 1, 2, FIN, INF)
    table = ((0, 1, 2, FIN, INF),
             (1, 2, 3, FIN, INF),
             (2, 3, 4, FIN, INF),
             (FIN, FIN, FIN, FIN, INF),
             (INF, INF, INF, INF, INF))
    for a, row in zip(counts, table):
        assert tuple(_card_add(a, b) for b in counts) == row, a


def test_empty_and_full_sets():
    epo = catalog("excluded-point-omega").space
    assert empty_set(epo).is_empty()
    assert full_set(epo).is_full()
    assert sym_classify(epo, full_set(epo)).open


# -- products ----------------------------------------------------------------------


def test_remark_product_shape():
    f1, f2 = remark_product_factors()
    prod = skeleton_product(f1, f2)
    assert len(prod.nodes) == 2
    by_name = {nd.name: nd for nd in prod.nodes}
    assert by_name["p*d"].card == 1 and by_name["p*d"].block == BLOCKS["clique2"]
    assert by_name["t*d"].is_omega and by_name["t*d"].block == BLOCKS["clique2"]
    assert by_name["t*d"].mode == "antichain"


def test_product_of_omega_cliques_collapses():
    io = catalog("indiscrete-omega").space
    i2 = parse_skel("node d card 2 mode clique block chain1\n")
    prod = skeleton_product(io, i2)
    assert len(prod.nodes) == 1
    assert prod.nodes[0].is_omega and prod.nodes[0].mode == "clique"


def test_product_with_one_point_is_isomorphic():
    one = parse_skel("node o card 1 mode antichain block chain1\n")
    epo = catalog("excluded-point-omega").space
    prod = skeleton_product(epo, one)
    fs1, _ = expand(skeleton_product(
        parse_skel(
            "node p card 1 mode antichain block chain1\n"
            "node t card 2 mode antichain block chain1\n"
            "rel p.e0 <= t.e0\n"
        ),
        one,
    ))
    fs2, _ = expand(parse_skel(
        "node p card 1 mode antichain block chain1\n"
        "node t card 2 mode antichain block chain1\n"
        "rel p.e0 <= t.e0\n"
    ))
    assert fs1 == fs2
    assert [nd.card for nd in prod.nodes] == [1, None]


def test_product_matches_concrete_product_on_finite_skeletons():
    from topolab.core import product as fs_product
    from topolab.verify import homeomorphic

    rng = random.Random(7)
    compared = 0
    for _ in range(12):
        s = random_finite_skeleton(rng)
        t = random_finite_skeleton(rng)
        try:
            prod = skeleton_product(s, t)
        except SkeletonOverflow:
            continue
        got, _ = expand(prod)
        a, _ = expand(s)
        b, _ = expand(t)
        want = fs_product(a, b)
        assert got.n == want.n
        assert homeomorphic(got, want), (s, t)
        compared += 1
    assert compared >= 4


def test_omega_antichain_squared_overflows():
    epo = catalog("excluded-point-omega").space
    with pytest.raises(SkeletonOverflow):
        skeleton_product(epo, epo)


# -- skeletonize round trip ----------------------------------------------------------


def test_skeletonize_round_trip_small():
    from conftest import all_spaces

    for n in (1, 2, 3):
        for sp in all_spaces(n):
            sk, classes = skeletonize(sp)
            fs, labels = expand(sk)
            assert fs.n == sp.n
            # rebuild the point bijection from the class data
            mapping = {}
            for idx, (i, c, e) in enumerate(labels):
                mapping[idx] = classes[i][c]
            remapped = set()
            for o in fs.opens:
                m = 0
                for b in range(fs.n):
                    if o >> b & 1:
                        m |= 1 << mapping[b]
                remapped.add(m)
            assert remapped == set(sp.opens)


# -- the big oracle: symbolic results equal abstractions of concrete results -----------


def small_sets(space):
    for s in all_symbolic_sets(space):
        if all(
            isinstance(card, int) and card <= 2
            for pairs in s.counts
            for _, card in pairs
        ):
            yield s


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_operator_oracle_agreement(seed):
    rng = random.Random(seed)
    for _ in range(6):
        sk = random_finite_skeleton(rng)
        fs, labels = expand(sk)
        for sym in small_sets(sk):
            mask = instantiate(sk, labels, sym)
            assert abstract(sk, labels, mask) == sym
            for op, core_name in OPS_VS_CORE.items():
                got = sym_operator(sk, op, sym)
                want = abstract(sk, labels, getattr(fs, core_name)(mask))
                assert got == want, (sk, str(sym), op)


@pytest.mark.parametrize("seed", [5, 6])
def test_classify_oracle_agreement(seed):
    rng = random.Random(seed)
    for _ in range(5):
        sk = random_finite_skeleton(rng)
        fs, labels = expand(sk)
        for sym in small_sets(sk):
            mask = instantiate(sk, labels, sym)
            assert sym_classify(sk, sym) == fs.classify(mask), (sk, str(sym))


# -- the down-closure kernel against the per-element one it replaced -------------


def _card_nonzero(c):
    """True / False / None (indeterminate)."""
    if c == 0:
        return False
    if c == _FIN0:
        return None
    return True


def _touch_info(cfg, value):
    definite = set()
    maybe = set()
    for i, node_groups in enumerate(decoded(cfg, [value])):
        for card, (pat,), _marked in node_groups:
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


def _reference_downclose(cfg, value, down_same, down_cross):
    """Per-node patterns of the down-closure of ``value``, one dict lookup
    per touched (node, element): the oracle for the pattern tables."""
    definite, maybe = _touch_info(cfg, value)
    nodes = range(len(cfg.space.nodes))
    uniform = [0] * len(nodes)
    for i in nodes:
        for j, f in definite:
            uniform[i] |= down_cross.get((i, (j, f)), 0)
    maybe_uniform = [0] * len(nodes)
    for i in nodes:
        for j, f in maybe:
            maybe_uniform[i] |= down_cross.get((i, (j, f)), 0)
    out = []
    for i, node_pats in enumerate(patterns(cfg, value)):
        pats = []
        for pat in node_pats:
            new = uniform[i]
            for e in bits(pat):
                new |= down_same[i, e]
            if maybe_uniform[i] & ~new:
                raise SymbolicAmbiguity("closure depends on an indeterminate copy count")
            pats.append(new)
        out.append(pats)
    return out


def _check_downclose(cfg, value, outcomes):
    """cl, delta-cl and the up-closure of ``value`` agree with the
    reference, patterns and ambiguity both; ``outcomes`` counts closures
    and ambiguities."""
    for op, masks in (("closure", cfg.space.down_masks),
                      ("delta_closure", cfg.space.down_masks_s),
                      ("up", cfg.space.up_masks)):
        try:
            want = _reference_downclose(cfg, value, *masks)
        except SymbolicAmbiguity:
            want = "ambiguous"
        try:
            got = patterns(cfg, getattr(cfg, op)(value))
        except SymbolicAmbiguity:
            got = "ambiguous"
        assert got == want, (str(cfg.space), op, decoded(cfg, [value]))
        outcomes[got == "ambiguous"] += 1


def _kernel_spaces():
    names = [n for n in catalog_names() if isinstance(catalog(n).space, SkeletonSpace)]
    return [catalog(n).space for n in names] + omega_skeletons(seed=11, count=12)


def test_downclose_tables_match_the_reference_on_every_template():
    outcomes = Counter()
    for sk in _kernel_spaces():
        for t in all_symbolic_sets(sk):
            cfg, a = Config.of(sk, t)
            _check_downclose(cfg, a, outcomes)
            _check_downclose(cfg, a ^ cfg.full, outcomes)
    assert outcomes[False] > 1000 and not outcomes[True]


def _marked_point(cfg: Config, node: int, elem: int) -> int:
    """The value holding exactly the marked point {x}."""
    return pack(cfg, [[(1 << elem) if (marked and i == node) else 0
                       for _card, _pats, marked in node_groups]
                      for i, node_groups in enumerate(decoded(cfg, []))])


def _marked_up(cfg: Config, node: int, elem: int) -> int:
    """The value holding up(x) for the marked point x."""
    up_same, up_cross = cfg.space.up_masks
    return pack(cfg, [[up_same[node, elem] if (marked and i == node)
                       else up_cross[(i, (node, elem))]
                       for _card, _pats, marked in node_groups]
                      for i, node_groups in enumerate(decoded(cfg, []))])


def _random_value(cfg, rng) -> int:
    return pack(cfg, [[rng.randrange(nd.full_pattern + 1) for _card in cards]
                      for nd, cards in zip(cfg.space.nodes, cfg.cards)])


def test_downclose_tables_match_the_reference_on_indeterminate_counts():
    """Marked configurations split a FIN group into the marked copy and a
    possibly empty rest (``_FIN0``): the ambiguity test must agree too."""
    rng = random.Random(5)
    outcomes = Counter()
    for sk in _kernel_spaces():
        for t in all_symbolic_sets(sk):
            for i, pairs in enumerate(t.counts):
                for pat, card in pairs:
                    if card != FIN:
                        continue
                    for e in range(sk.nodes[i].size):
                        cfg, a = _marked_config(sk, t, i, pat)
                        assert _FIN0 in cfg.cards[i]
                        x = _marked_point(cfg, i, e)
                        up = _marked_up(cfg, i, e)
                        values = [a, x, up, a ^ cfg.full, a & ~x, up & ~x]
                        values += [_random_value(cfg, rng) for _ in range(4)]
                        for value in values:
                            _check_downclose(cfg, value, outcomes)
    assert outcomes[False] > 1000 and outcomes[True] > 50


# -- the packed values against per-group references on the decoded groups --------


def _reference_subset(groups, s1, s2):
    ambiguous = False
    for node_groups in groups:
        for card, pats, _marked in node_groups:
            if card != 0 and pats[s1] & ~pats[s2]:
                if card == _FIN0:
                    ambiguous = True
                else:
                    return False
    if ambiguous:
        raise SymbolicAmbiguity("subset test on indeterminate count")
    return True


def _reference_to_set(space, groups, s):
    counts = []
    for nd, node_groups in zip(space.nodes, groups):
        merged = {}
        for card, pats, _marked in node_groups:
            if card == _FIN0:
                raise SymbolicAmbiguity("projecting an indeterminate count")
            merged[pats[s]] = _card_add(merged.get(pats[s], 0), card)
        if nd.is_omega and INF not in merged.values():
            raise SymbolicAmbiguity("omega node lost its INF class")
        counts.append(tuple(sorted((p, c) for p, c in merged.items() if c != 0)))
    return SymbolicSet(space, tuple(counts))


_REFERENCE_OPS = {  # per group: (full pattern, patterns per value, args) -> pattern
    "not": lambda full, pats, s: pats[s[0]] ^ full,
    "or": lambda full, pats, s: pats[s[0]] | pats[s[1]],
    "and": lambda full, pats, s: pats[s[0]] & pats[s[1]],
    "diff": lambda full, pats, s: pats[s[0]] & ~pats[s[1]],
}


def _check_primitives(cfg, values, rng, closures=True):
    """The set operations (int operations on the values), every predicate
    and ``op_const`` of ``cfg`` against a reference read from the decoded
    groups, values and ambiguity both, over ``values`` and two random ones,
    then (with ``closures``) the closures of each (``_check_downclose``).
    Appends the random values and the results to ``values``; returns the
    closures' outcomes."""
    sk = cfg.space
    fulls = [nd.full_pattern for nd in sk.nodes]
    values += [_random_value(cfg, rng) for _ in range(2)]
    groups = decoded(cfg, values)
    again, again_values = frame(sk, groups, len(values))
    assert decoded(again, again_values) == groups
    made = {}
    for s1, v1 in enumerate(values):
        made["not", (s1,)] = v1 ^ cfg.full
        for s2, v2 in enumerate(values):
            made["or", (s1, s2)] = v1 | v2
            made["and", (s1, s2)] = v1 & v2
            made["diff", (s1, s2)] = v1 & ~v2
            assert (_outcome(lambda: cfg.subset(v1, v2))
                    == _outcome(lambda: _reference_subset(groups, s1, s2))), (str(sk), groups)
        assert (_outcome(lambda: cfg.to_set(v1))
                == _outcome(lambda: _reference_to_set(sk, groups, s1)))
    const_patterns = [rng.randrange(full + 1) for full in fulls]
    const = cfg.op_const(const_patterns)
    for (op, args), new in made.items():
        assert patterns(cfg, new) == [
            [_REFERENCE_OPS[op](full, g[1], args) for g in node_groups]
            for full, node_groups in zip(fulls, groups)], (str(sk), op, args, groups)
    assert patterns(cfg, const) == [
        [p] * len(node_groups) for p, node_groups in zip(const_patterns, groups)]
    outcomes = Counter()
    if closures:
        for value in values:
            _check_downclose(cfg, value, outcomes)
    values += [*made.values(), const]
    return outcomes


def test_packed_primitives_match_the_per_group_reference_on_every_template():
    rng = random.Random(7)
    outcomes = Counter()
    for sk in _kernel_spaces():
        for t in all_symbolic_sets(sk):
            cfg, a = Config.of(sk, t)
            assert cfg.to_set(a) == t
            assert decoded(cfg, [a]) == tuple(tuple((card, [pat], False) for pat, card in pairs)
                                              for pairs in t.counts)
            outcomes += _check_primitives(cfg, [a], rng, closures=len(sk.nodes) > 1)
    assert outcomes[False] > 1000 and not outcomes[True]


def test_packed_primitives_match_the_per_group_reference_on_marked_configs():
    """Marked configurations: a FIN group split into the marked copy and a
    possibly empty rest (``_FIN0``), an exact group left with no copies or
    with some, an INF group with INF.  Their closures are checked by
    ``test_downclose_tables_match_the_reference_on_indeterminate_counts``."""
    rng = random.Random(8)
    kinds = Counter()
    for sk in _kernel_spaces():
        for t in all_symbolic_sets(sk)[::3]:
            for i, pairs in enumerate(t.counts):
                for pat, card in pairs:
                    e = rng.randrange(sk.nodes[i].size)
                    cfg, a = _marked_config(sk, t, i, pat)
                    x = cfg.op_marked(i, 1 << e)
                    assert patterns(cfg, x) == [
                        [(1 << e) if marked else 0 for _card, _pats, marked in node_groups]
                        for node_groups in decoded(cfg, [])]
                    values = [a, x]
                    _check_primitives(cfg, values, rng, closures=False)
                    marked = decoded(cfg, values)[i][-1][1]
                    assert [cfg.marked_pattern(i, v) for v in values] == marked
                    kinds[card if card in (FIN, INF) else "none left" if card == 1
                          else "some left"] += 1
    assert len(kinds) == 4 and min(kinds[FIN], kinds["none left"]) > 100, kinds


def _pint_fixpoint(cfg, value, delta=False):
    """The decreasing fixpoint P <- S & int(cl P) (cl_delta with ``delta``)
    from P = S = ``value``: the oracle for the closed forms of
    ``preinterior`` and ``delta_preclosure``."""
    cur = value
    while True:
        grown = cfg.delta_closure(cur) if delta else cfg.closure(cur)
        nxt = value & cfg.interior(grown)
        if nxt == cur:  # every group of a ``Config.of`` frame is sure
            return cur
        cur = nxt


def test_pint_closed_form_matches_the_fixpoint_on_every_template():
    compared = 0
    for sk in ([catalog(name).space for name in CATALOG_SKELETON_NAMES]
               + omega_skeletons(seed=3, count=30)):
        for t in all_symbolic_sets(sk):
            cfg, a = Config.of(sk, t)
            for value, delta in itertools.product((a, a ^ cfg.full), (False, True)):
                largest = (cfg.full ^ cfg.delta_preclosure(value ^ cfg.full) if delta
                           else cfg.preinterior(value))
                assert (cfg.to_set(largest)
                        == cfg.to_set(_pint_fixpoint(cfg, value, delta))), (str(sk), str(t))
                compared += 1
    assert compared > 10_000


# -- the pre-theta split search, kept as the oracle for the closed form ----------
#
# Pre-theta interior membership of a generic point, decided by searching copy
# splits of the largest preopen set around it: a check of the identity in
# ``FiniteSpace.pre_theta_closure`` that does not use it.


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
    cfg, b_value = _marked_config(space, b, node, group_pat)
    x = _marked_point(cfg, node, elem)
    up = _marked_up(cfg, node, elem)
    # necessary: pcl({x}) <= b
    if not cfg.subset(cfg.preclosure(x), b_value):
        return False
    # candidate {x} itself
    if cfg.subset(x, cfg.interior(cfg.closure(x))):
        return True  # {x} preopen and pcl({x}) <= b already checked
    # candidate U0 = largest preopen inside b & up(x)
    u0 = cfg.preinterior(b_value & up)
    if not cfg.marked_pattern(node, u0) >> elem & 1:
        return False  # no preopen subset of b around x at all
    if cfg.subset(cfg.preclosure(u0), b_value):
        return True
    # general search: per-group copy splits of U0, the marked copy pinned
    # to contain x
    group_keys = []  # (node index, b_pattern, marked group?)
    options = []
    total = 1
    for i, node_groups in enumerate(decoded(cfg, [u0, b_value])):
        for card, (room_pat, bpat), marked in node_groups:
            if card == 0:
                continue
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
        trial, (b_trial, u_trial) = frame(space, groups, 2)
        try:
            if not trial.subset(u_trial, trial.interior(trial.closure(u_trial))):
                continue
            if not trial.subset(trial.preclosure(u_trial), b_trial):
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


def _split_search_interior(space, b: SymbolicSet) -> SymbolicSet:
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
    return SymbolicSet(space, tuple(counts))


def _split_search_closure(space, a: SymbolicSet) -> SymbolicSet:
    interior = _split_search_interior(space, sym_complement(space, a))
    return sym_complement(space, interior)


def test_pre_theta_closure_matches_the_split_search_on_every_template():
    compared = 0
    for sk in _kernel_spaces() + omega_skeletons(seed=3, count=12):
        templates = all_symbolic_sets(sk)
        # the complement of each template is a template, so it is compared too
        assert ({sym_complement(sk, t).counts for t in templates}
                == {t.counts for t in templates})
        for t in templates:
            assert sym_operator(sk, "pcl-theta", t) == _split_search_closure(sk, t), (
                str(sk), str(t))
            compared += 1
    assert compared > 1500


def test_omega_probe_stability():
    """Instantiating FIN and INF at several finite sizes never changes the
    per-pattern outcome of int/cl on the probe."""
    for name in ("excluded-point-omega", "e1iii", "indiscrete-omega", "remark-product"):
        sk = catalog(name).space
        for sym in all_symbolic_sets(sk):
            outcomes = set()
            for fin_n, inf_drop in ((1, 0), (2, 0), (3, 0), (2, 1)):
                nodes = []
                for nd in sk.nodes:
                    if nd.is_omega:
                        nodes.append(Node(nd.name, 6 - inf_drop, nd.mode, nd.block))
                    else:
                        nodes.append(nd)
                probe = SkeletonSpace(tuple(nodes), sk.rels)
                counts = []
                for nd, pairs in zip(sk.nodes, sym.counts):
                    if not nd.is_omega:
                        counts.append(pairs)
                        continue
                    sizes = {}
                    budget = 6 - inf_drop
                    inf_pats = [p for p, c in pairs if c == INF]
                    fin_pats = [p for p, c in pairs if c == FIN]
                    for p in fin_pats:
                        sizes[p] = fin_n
                    used = sum(sizes.values())
                    free = budget - used
                    if free < len(inf_pats):
                        break
                    base = free // len(inf_pats)
                    for k, p in enumerate(inf_pats):
                        sizes[p] = base + (1 if k < free % len(inf_pats) else 0)
                    counts.append(tuple(sorted(sizes.items())))
                else:
                    probe_sym = SymbolicSet(probe, tuple(counts))
                    fs, labels = expand(probe)
                    mask = instantiate(probe, labels, probe_sym)
                    per_pattern = []
                    for op in ("int", "cl"):
                        res = getattr(fs, {"int": "interior", "cl": "closure"}[op])(mask)
                        res_sym = abstract(probe, labels, res)
                        shape = tuple(
                            tuple(sorted(p for p, c in pairs if c))
                            for pairs in res_sym.counts
                        )
                        per_pattern.append(shape)
                    outcomes.add(tuple(per_pattern))
            assert len(outcomes) <= 1, (name, str(sym))


# -- catalog -----------------------------------------------------------------------


def test_catalog_names_resolve():
    for name in catalog_names():
        entry = catalog(name)
        assert entry.name == name


def test_catalog_gives_one_object_per_name():
    # a verdict lives in its space's memo, so every claim must see one space
    for name in catalog_names():
        assert catalog(name) is catalog(name)
        assert catalog(name).space is catalog(name).space


def test_catalog_unknown():
    with pytest.raises(SkeletonError):
        catalog("nosuch")


@pytest.mark.parametrize("name", ["indiscrete-05", "discrete-\uff13",
                                  "discrete-\u00b2", "discrete-0",
                                  "excluded-point-7"])
def test_catalog_takes_only_the_canonical_size(name):
    # a second spelling would be a second entry with a second memo
    with pytest.raises(SkeletonError, match="unknown catalog entry"):
        catalog(name)


def test_catalog_expected_shapes():
    e = catalog("e1iii")
    d = {k: (v, prov) for k, v, prov in e.expected}
    assert d["p-closed"][0] is True
    assert d["delta-p-closed"][0] is False
    assert d["p-closed"][1] == "cited"

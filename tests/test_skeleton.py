"""Skeleton validation, symbolic operators, and the expand/abstract oracle."""

import random
from collections import Counter

import pytest

from topolab.core import bits, build_space, sierpinski
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
    SymbolicSet,
    _marked_config,
    _marked_point_slot,
    _marked_up_slot,
    abstract,
    all_symbolic_sets,
    catalog,
    catalog_names,
    empty_set,
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
    sym_operator,
)

from conftest import omega_skeletons

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


def _touch_info(cfg, slot):
    definite = set()
    maybe = set()
    for i, node_groups in enumerate(cfg.groups):
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


def _reference_downclose(cfg, slot, down_same, down_cross):
    """Per-node patterns of the down-closure of ``slot``, one dict lookup
    per touched (node, element): the oracle for the pattern tables."""
    definite, maybe = _touch_info(cfg, slot)
    uniform = [0] * len(cfg.groups)
    for i in range(len(cfg.groups)):
        for j, f in definite:
            uniform[i] |= down_cross.get((i, (j, f)), 0)
    maybe_uniform = [0] * len(cfg.groups)
    for i in range(len(cfg.groups)):
        for j, f in maybe:
            maybe_uniform[i] |= down_cross.get((i, (j, f)), 0)
    out = []
    for i, node_groups in enumerate(cfg.groups):
        pats = []
        for card, gpats, _marked in node_groups:
            pat = gpats[slot]
            new = uniform[i]
            for e in bits(pat):
                new |= down_same[i, e]
            if maybe_uniform[i] & ~new:
                raise SymbolicAmbiguity("closure depends on an indeterminate copy count")
            pats.append(new)
        out.append(pats)
    return out


def _check_downclose(cfg, slot, outcomes):
    """cl and delta-cl of ``slot`` agree with the reference, patterns and
    ambiguity both; ``outcomes`` counts closures and ambiguities."""
    for op, masks in (("op_cl", cfg.space.down_masks),
                      ("op_cl_delta", cfg.space.down_masks_s)):
        try:
            want = _reference_downclose(cfg, slot, *masks)
        except SymbolicAmbiguity:
            want = "ambiguous"
        try:
            new = getattr(cfg, op)(slot)
            got = [[g[1][new] for g in node_groups] for node_groups in cfg.groups]
        except SymbolicAmbiguity:
            got = "ambiguous"
        assert got == want, (str(cfg.space), op, cfg.groups, slot)
        outcomes[got == "ambiguous"] += 1


def _kernel_spaces():
    names = [n for n in catalog_names() if isinstance(catalog(n).space, SkeletonSpace)]
    return [catalog(n).space for n in names] + omega_skeletons(seed=11, count=12)


def test_downclose_tables_match_the_reference_on_every_template():
    outcomes = Counter()
    for sk in _kernel_spaces():
        for t in all_symbolic_sets(sk):
            cfg = Config.of(sk, t)
            _check_downclose(cfg, 0, outcomes)
            _check_downclose(cfg, cfg.op_not(0), outcomes)
    assert outcomes[False] > 1000 and not outcomes[True]


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
                        cfg = _marked_config(sk, t, i, pat, e)
                        assert any(g[0] == _FIN0 for g in cfg.groups[i])
                        x = _marked_point_slot(cfg, i, e)
                        up = _marked_up_slot(cfg, i, e)
                        slots = [0, x, up, cfg.op_not(0), cfg.op_diff(0, x),
                                 cfg.op_diff(up, x)]
                        for _ in range(4):
                            slots.append(cfg.append_patterns(
                                [[rng.randrange(full + 1) for _g in node_groups]
                                 for node_groups, full in zip(cfg.groups,
                                                              sk.full_patterns)]))
                        for slot in slots:
                            _check_downclose(cfg, slot, outcomes)
    assert outcomes[False] > 1000 and outcomes[True] > 50


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
    d = e.expected_dict()
    assert d["p-closed"][0] is True
    assert d["delta-p-closed"][0] is False
    assert d["p-closed"][1] == "cited"

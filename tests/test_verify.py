"""Enumeration, homeomorphism classes, claim runs and hunts."""

import json

import pytest

from topolab.core import FiniteSpace
from topolab.skeleton import catalog, format_skel
from topolab.verify import (
    CLAIMS,
    Report,
    Universe,
    all_topologies,
    homeomorphic,
    homeomorphism_classes,
    replay,
    run_claim,
    search_counterexample,
    space_from_json,
    space_to_json,
    topologies_by_family_scan,
    topologies_by_preorder,
)

from conftest import all_spaces
from oracles import reversal_report


# -- enumeration ------------------------------------------------------------------


@pytest.mark.parametrize("n,count", [(1, 1), (2, 4), (3, 29), (4, 355)])
def test_topology_counts_small(n, count):
    assert len(all_topologies(n)) == count
    assert len(all_spaces(n)) == count  # independent scan in the test suite


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_two_methods_agree(n):
    fam = topologies_by_family_scan(n)
    pre = topologies_by_preorder(n)
    assert fam == pre


def test_five_point_preorder_enumeration_is_complete():
    # 6942 pairwise distinct valid topologies is all of them (OEIS A000798),
    # with no family scan to compare against
    from itertools import permutations

    from topolab.core import FiniteSpace

    spaces = topologies_by_preorder(5)
    assert len(spaces) == 6942 == len(set(spaces))
    for sp in spaces:
        assert FiniteSpace(5, sp.opens) == sp
    members = {frozenset(sp.opens) for sp in spaces}
    for perm in permutations(range(5)):
        image = [sum(1 << perm[x] for x in range(5) if m >> x & 1)
                 for m in range(32)]
        for opens in members:
            assert frozenset(image[o] for o in opens) in members


def test_five_point_spaces_are_their_preorders_up_sets():
    for sp in topologies_by_preorder(5):
        up = sp.min_nbhd
        for x in range(5):
            assert up[x] >> x & 1
            for y in range(5):
                if up[x] >> y & 1:
                    assert not up[y] & ~up[x]
        up_sets = tuple(m for m in range(32)
                        if all(not up[x] & ~m for x in range(5) if m >> x & 1))
        assert set(up_sets) == set(sp.opens)


def test_all_topologies_range():
    with pytest.raises(ValueError):
        all_topologies(0)
    with pytest.raises(ValueError):
        all_topologies(6)


# -- homeomorphism ------------------------------------------------------------------


def test_homeomorphism_classes_counts():
    assert len(homeomorphism_classes(all_topologies(1))) == 1
    assert len(homeomorphism_classes(all_topologies(2))) == 3
    assert len(homeomorphism_classes(all_topologies(3))) == 9


def test_homeomorphic_relabeled_sierpinski():
    a, b = (sp for sp in all_topologies(2) if len(sp.opens) == 3)
    assert homeomorphic(a, b)
    disc = next(sp for sp in all_topologies(2) if len(sp.opens) == 4)
    assert not homeomorphic(a, disc)


# -- universes -----------------------------------------------------------------------


def test_universe_parse_and_labels():
    u = Universe.parse("exhaustive:3")
    assert u.label() == "exhaustive:3"
    assert len(list(u.spaces())) == 29
    u = Universe.parse("sampled:4:7:50")
    names = [label for label, _ in u.spaces()]
    assert len(names) == 50
    assert names == [label for label, _ in Universe.parse("sampled:4:7:50").spaces()]
    u = Universe.parse("catalog")
    assert any(label == "remark-product" for label, _ in u.spaces())
    with pytest.raises(ValueError):
        Universe.parse("nope:1")


# -- claims on small universes ----------------------------------------------------------


EX3 = Universe.parse("exhaustive:3")
CAT = Universe.parse("catalog")


def test_t2_exhaustive3_passes():
    rep = run_claim("T2", EX3)
    assert rep.status == "pass"
    assert rep.checked == 29
    assert rep.violations == [] and rep.unknowns == 0


def test_t3_exhaustive3_passes():
    rep = run_claim("T3", EX3)
    assert rep.status == "pass" and rep.checked == 29


def test_tn1_vacuously_strong():
    rep = run_claim("TN1", EX3)
    assert rep.status == "pass"


@pytest.mark.parametrize("cid", sorted(CLAIMS))
def test_every_claim_passes_exhaustive2(cid):
    rep = run_claim(cid, Universe.parse("exhaustive:2"))
    if cid == "L3":
        assert rep.status == "fail"  # stated direction is refutable
    else:
        assert rep.status in ("pass", "undetermined"), (cid, rep.violations[:1])
        assert not rep.violations


def test_l3_fails_with_minimal_replayable_counterexample():
    rep = run_claim("L3", Universe.parse("exhaustive:2"))
    assert rep.status == "fail"
    record = rep.violations[0]
    assert replay(record, "L3") is False
    assert rep.extra["minimal_stated_counterexample"] is not None


def test_l2_holds_small():
    for n in (2, 3):
        rep = run_claim("L2", Universe.parse(f"exhaustive:{n}"))
        assert rep.status == "pass"


def test_claims_on_catalog():
    for cid in ("T1", "C1", "T2", "T3", "T4", "T42", "TN1", "TN3", "TN4",
                "C45", "TN5", "TN6", "C-ALPHA", "T5", "T6", "T7", "P41", "TN2"):
        rep = run_claim(cid, CAT)
        assert rep.status == "pass", (cid, rep.violations[:1])


def test_remark_claim_records_the_failed_cited_expectation():
    rep = run_claim("REMARK", CAT)
    # the two structural facts hold; the cited preregular expectation is
    # honestly refuted with replayable witnesses
    assert rep.status == "fail"
    assert rep.violations
    for record in rep.violations:
        assert record["instance"]["fact"] == "preregular-relative"
        assert replay(record, "REMARK") is False


def test_equal_json_parses_to_one_space():
    for sp in all_spaces(3):
        data = space_to_json(sp)
        first = space_from_json(data)
        assert first == sp
        assert space_from_json(json.loads(json.dumps(data))) is first
    spaces = [space_from_json(space_to_json(sp)) for sp in all_spaces(2)]
    assert len({id(sp) for sp in spaces}) == len(spaces)
    texts = [format_skel(catalog(name).space)
             for name in ("excluded-point-omega", "e1iii")]
    skels = [space_from_json({"kind": "skeleton", "skel": t}) for t in texts]
    assert skels[0] is not skels[1]
    assert space_from_json({"kind": "skeleton", "skel": texts[0]}) is skels[0]


@pytest.mark.parametrize("universe", ["catalog", "exhaustive:3"])
def test_instances_survive_the_record_codec(universe):
    """A recorded instance reads back equal to the one that was run, and the
    predicate answers the same on both: replaying a record is running it."""
    import itertools
    import random

    from topolab.verify import Ctx, _instance_from_json, _instance_json

    kinds = set()
    for cid, claim in sorted(CLAIMS.items()):
        if "universe" in claim.kinds:
            continue
        for label, space in Universe.parse(universe).spaces():
            if ("finite" if isinstance(space, FiniteSpace) else "skeleton") not in claim.kinds:
                continue
            ctx = Ctx(rng=random.Random(f"codec|{cid}|{label}"))
            for inst in itertools.islice(claim.gen(space, ctx), 200):
                record = json.loads(json.dumps(_instance_json(space, inst)))
                back = _instance_from_json(space, record)
                assert back == inst, (cid, label, record)
                assert claim.pred(space, back) == claim.pred(space, inst), (
                    cid, label, record)
                kinds.update(record)
    assert {"subsets", "codomain", "assignment", "samples"} <= kinds
    if universe == "catalog":
        assert {"templates", "fact"} <= kinds


def test_c_topinv_on_exhaustive3():
    rep = run_claim("C-TOPINV", EX3)
    assert rep.status == "pass"
    assert rep.extra["classes"] == 9


def test_c_prod_universe_claim():
    rep = run_claim("C-PROD", CAT)
    assert rep.status == "pass"
    assert rep.extra["catalog_product_p_closed"] is False
    assert rep.extra["catalog_factor_p_closed"] == [True, True]


# -- the claim records and their three-valued helpers ------------------------------------


V3 = (True, False, None)
EQUAL = {(True, True): True, (True, False): False, (False, True): False,
         (False, False): True}


def test_each_claim_is_one_record():
    for cid, claim in CLAIMS.items():
        assert claim.id == cid
        if "universe" in claim.kinds:
            assert claim.run is not None and claim.pred is claim.gen is None
        else:
            assert claim.run is None and claim.pred and claim.gen
    assert CLAIMS["L3"].summary is not None and CLAIMS["T41"].summary is not None


@pytest.mark.parametrize("cid", ["C-TOPINV", "C-PROD"])
def test_universe_claims_do_not_replay(cid):
    record = {"space": space_to_json(FiniteSpace(1, (0, 1))), "instance": {}}
    with pytest.raises(ValueError, match="universe-level"):
        replay(record, cid)


@pytest.mark.parametrize("h", V3)
@pytest.mark.parametrize("c", V3)
def test_implies_reads_the_conclusion_only_under_a_true_hypothesis(h, c):
    from topolab.verify import _implies

    read = []
    got = _implies(h, lambda: read.append(c) or c)
    assert got is {True: c, False: True, None: None}[h]
    assert read == ([c] if h is True else [])


@pytest.mark.parametrize("a", V3)
@pytest.mark.parametrize("b", V3)
def test_same_is_unknown_aware_equality(a, b):
    from topolab.verify import _same

    assert _same(a, b) is EQUAL.get((a, b))


@pytest.mark.parametrize("a", V3)
@pytest.mark.parametrize("b", V3)
def test_every_stops_at_the_first_value_that_is_not_true(a, b):
    from topolab.verify import _every

    read = []

    def values():
        for v in (a, b):
            read.append(v)
            yield v

    assert _every(values()) is (b if a is True else a)
    assert read == ([a, b] if a is True else [a])


def _patched_readers(monkeypatch, cover, simple):
    """Stub the verdict readers of the claims; returns the reads in order."""
    import topolab.verify as V

    reads = []
    monkeypatch.setattr(V, "_cover_outcome",
                        lambda space, prop: reads.append(prop) or cover[prop])
    monkeypatch.setattr(V, "check_simple",
                        lambda space, name: reads.append(name) or simple[name])
    return reads


@pytest.mark.parametrize("pc", V3)
@pytest.mark.parametrize("nc", V3)
@pytest.mark.parametrize("sc", V3)
def test_t4_a_later_unknown_beats_an_earlier_false(monkeypatch, pc, nc, sc):
    reads = _patched_readers(
        monkeypatch, {"p-closed": pc, "nearly-compact": nc, "s-closed": sc},
        {"aleph0-ed": True, "extremally-disconnected": True})
    got = CLAIMS["T4"].pred(None, {})
    if pc is not True:
        assert got is {False: True, None: None}[pc] and reads == ["p-closed"]
    elif nc is None:
        assert got is None and "s-closed" not in reads
    else:
        assert got is (None if sc is None else nc and sc)
    if (pc, nc, sc) == (True, False, None):
        assert got is None


@pytest.mark.parametrize("first", V3)
@pytest.mark.parametrize("second", V3)
@pytest.mark.parametrize("regular", [True, False])
def test_t42_the_first_rung_not_true_decides(monkeypatch, first, second, regular):
    from topolab.verify import T42_LADDER

    (reg1, comp1), (reg2, comp2), (reg3, comp3) = T42_LADDER
    reads = _patched_readers(
        monkeypatch, {"p-closed": True, comp1: first, comp2: second, comp3: None},
        {reg1: regular, reg2: True, reg3: True})
    got = CLAIMS["T42"].pred(None, {})
    rungs = ([first] if regular else []) + [second, None]
    decided = next(v for v in rungs if v is not True)
    assert got is decided
    if regular and first is not True:
        assert reads == ["p-closed", reg1, comp1]
    if regular and (first, second) == (False, None):
        assert got is False
    if not regular:
        assert comp1 not in reads


def test_report_json_roundtrip():
    rep = run_claim("T2", EX3)
    data = json.loads(json.dumps(rep.to_json()))
    back = Report.from_json(data)
    assert back == rep


def test_run_claim_determinism_with_jobs():
    u = Universe.parse("exhaustive:3")
    r1 = run_claim("T43", u, seed=5)
    r2 = run_claim("T43", u, seed=5, jobs=2)
    assert (r1.checked, r1.violations, r1.unknowns) == (
        r2.checked, r2.violations, r2.unknowns)


# -- hunts ------------------------------------------------------------------------------


def test_reverse_p_closed_qhc_found_on_catalog():
    res = search_counterexample(("p-closed", "qhc"), CAT)
    assert res["witness"] == "indiscrete-omega"


def test_reverse_strongly_compact_p_closed():
    res = search_counterexample(("strongly-compact", "p-closed"), CAT)
    assert res["witness"] == "e1iii"


def test_reverse_delta_p_closed_p_closed():
    res = search_counterexample(("delta-p-closed", "p-closed"), CAT)
    assert res["witness"] == "e1iii"


def test_named_hunt_targets_run():
    res = search_counterexample("tn1-converse", CAT)
    assert res["witness"] is None  # open question: no witness at this scale
    assert res["checked"] > 0
    res = search_counterexample("c45-converse", CAT)
    assert res["checked"] > 0


@pytest.mark.parametrize("universe", ["catalog", "exhaustive:3"])
def test_tn1_converse_is_the_reversed_tn1_edge(universe):
    u = Universe.parse(universe)
    named = search_counterexample("tn1-converse", u)
    pair = search_counterexample(("p-closed", "pre-theta-compact"), u)
    assert named["target"] == "tn1-converse"
    for key in ("witness", "details", "checked", "skipped_unknown"):
        assert named[key] == pair[key], key


def test_reversal_report_lists_unattempted():
    rep = reversal_report(CAT)
    assert rep["p-closed=>qhc"]["witness"] == "indiscrete-omega"
    missing = [k for k, v in rep.items() if v["witness"] is None]
    for k in missing:
        assert "note" in rep[k]

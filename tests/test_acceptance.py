"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE <criterion>: PASS|FAIL`` line before
asserting, so ``pytest -v -s tests/test_acceptance.py`` doubles as the
acceptance report.

One check is expected to stay red: criterion 2 includes the cited
expectation that every proper preregular subset of the catalog product
space is p-closed relative to it.  The checker refutes that expectation
with an explicit escape witness (the a-side of the infinite columns), and
the refutation is forced by the rest of the suite: the product is
predisconnected and not p-closed, so by the TN3/TN4 claims some preregular
subset must fail to be relatively p-closed.  The suite reports the
mismatch honestly instead of repinning the expectation.
"""

import random
import time

import pytest

from topolab.core import indiscrete
from topolab.properties import (
    COVER_PROPERTIES,
    check_cover,
    check_cover_relative,
    classified_templates,
)
from topolab.skeleton import (
    catalog,
    expand,
    random_finite_skeleton,
    sym_classify,
    sym_operator,
)
from topolab.verify import (
    CLAIMS,
    Universe,
    all_topologies,
    replay,
    run_claim,
    topologies_by_family_scan,
    topologies_by_preorder,
)

from oracles import abstract, reversal_report, semi_regular_sandwich, semiopen_masks


def _line(tag, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {tag}: {status}{suffix}")
    return ok


# -- criterion 1: enumeration ----------------------------------------------------


def test_criterion_1_enumeration_counts():
    expected = {1: 1, 2: 4, 3: 29, 4: 355, 5: 6942}
    t0 = time.monotonic()
    ok = True
    for n in (1, 2, 3, 4):
        fam = topologies_by_family_scan(n)
        pre = topologies_by_preorder(n)
        ok = ok and len(fam) == expected[n] and fam == pre
    small_elapsed = time.monotonic() - t0
    ok = ok and small_elapsed < 10
    t0 = time.monotonic()
    ok = ok and len(all_topologies(5)) == expected[5]
    big_elapsed = time.monotonic() - t0
    ok = ok and big_elapsed < 300
    assert _line(
        "1 enumeration", ok,
        f"counts 1,4,29,355,6942; dual methods agree; "
        f"n<=4 in {small_elapsed:.1f}s, n=5 in {big_elapsed:.1f}s",
    )


# -- criterion 2: paper example fidelity --------------------------------------------


def test_criterion_2_e1iii_flags():
    space = catalog("e1iii").space
    want = {
        "p-closed": True,
        "s-closed": True,
        "alpha-compact": False,
        "strongly-compact": False,
        "delta-p-closed": False,
    }
    got = {k: check_cover(space, k).outcome for k in want}
    ok = got == want and None not in got.values()
    assert _line("2 e1iii flags", ok, f"computed {got}")


def test_criterion_2_excluded_point_and_isolated_subspace():
    pc = check_cover(catalog("excluded-point-omega").space, "p-closed").outcome
    iso = check_cover(
        catalog("excluded-point-omega-isolated").space, "p-closed").outcome
    ok = pc is True and iso is False
    assert _line("2 excluded-point", ok,
                 f"whole-space p-closed={pc}, isolated part p-closed={iso}")


def test_criterion_2_finite_indiscrete_p_closed():
    ok = all(
        check_cover(indiscrete(n), "p-closed").outcome is True
        for n in range(1, 7)
    )
    assert _line("2 finite indiscrete", ok, "p-closed for n=1..6")


def test_criterion_2_remark_product_vs_factors():
    from topolab.skeleton import remark_product_factors

    pc = check_cover(catalog("remark-product").space, "p-closed").outcome
    f1, f2 = remark_product_factors()
    fa = check_cover(f1, "p-closed").outcome
    fb = check_cover(f2, "p-closed").outcome
    ok = pc is False and fa is True and fb is True
    assert _line("2 remark product", ok,
                 f"product p-closed={pc}, factors p-closed=({fa},{fb})")


def test_criterion_2_remark_preregular_subsets_relatively_p_closed():
    # Cited expectation: every proper preregular subset of the product is
    # p-closed relative to it.  Checked exactly, no Unknown tolerated.
    space = catalog("remark-product").space
    failures = []
    ok = True
    for t, flags in classified_templates(space):
        if not flags.preregular or t.is_empty() or t.is_full():
            continue
        v = check_cover_relative(space, t, "p-closed").outcome
        if v is None:
            ok = False
            failures.append(("unknown", str(t)))
        elif v is False:
            ok = False
            failures.append(("false", str(t)))
    assert _line(
        "2 remark preregular relative", ok,
        f"{len(failures)} preregular subsets are not relatively p-closed, "
        f"e.g. {failures[0][1] if failures else ''}; the cited expectation "
        "is refuted (forced by the TN3/TN4 claims; see the module docstring)",
    )


# -- criterion 3: the claim suite -----------------------------------------------------


CRITERION_3_CLAIMS = (
    "T1", "C1", "T2", "T3", "T4", "T41", "T42", "T43", "P41", "L2A", "LP1",
    "T5", "T6", "T7", "TN1", "TN2", "C45", "TN3", "TN4", "TN5", "TN6",
    "C-ALPHA", "T-IMG", "C-TOPINV", "C-PROD",
)

UNIVERSES_3 = ("exhaustive:1", "exhaustive:2", "exhaustive:3", "exhaustive:4",
               "catalog")


@pytest.mark.parametrize("cid", CRITERION_3_CLAIMS)
def test_criterion_3_claim(cid):
    ok = True
    details = []
    for uspec in UNIVERSES_3:
        rep = run_claim(cid, Universe.parse(uspec), seed=0, samples=10_000)
        details.append(f"{uspec}:{rep.checked}ck/{len(rep.violations)}bad"
                       f"/{rep.unknowns}unk/{rep.ms}ms")
        if rep.violations:
            ok = False
    assert _line(f"3 claim {cid}", ok, " ".join(details))


# -- criterion 4: empirical claims ------------------------------------------------------


def test_criterion_4_l2_direction():
    ok = True
    for n in (1, 2, 3, 4):
        rep = run_claim("L2", Universe.parse(f"exhaustive:{n}"), seed=0,
                        samples=10_000)
        if rep.violations:
            ok = False
    assert _line("4 L2", ok, "stated inclusion verified, zero counterexamples")


def test_criterion_4_l3_direction_and_replay():
    rep1 = run_claim("L3", Universe.parse("exhaustive:2"), seed=0)
    rep2 = run_claim("L3", Universe.parse("exhaustive:2"), seed=0)
    ok = rep1.status == "fail" and rep1.violations == rep2.violations
    record = rep1.violations[0] if rep1.violations else None
    if record is not None:
        ok = ok and replay(record, "L3") is False
        ok = ok and record["space"]["n"] == 2  # minimal carrier
    ok = ok and rep1.extra["minimal_stated_counterexample"] is not None
    ok = ok and rep1.extra["reversed_direction_violations"] == 0
    ok = ok and rep1.extra["preregular_restricted_violations"] == 0
    assert _line(
        "4 L3", ok,
        "stated direction refuted by a minimal 2-point counterexample, "
        "replay is bit-identical; reversed direction and the "
        "preregular-restricted form hold",
    )


# -- criterion 5: operator and property invariants, exhaustive n <= 4 --------------------


def test_criterion_5_preclosure_laws():
    ok = True
    for n in (1, 2, 3, 4):
        for sp in all_topologies(n):
            for a in range(sp.full + 1):
                p = sp.preclosure(a)
                if p != a | sp.closure(sp.interior(a)):
                    ok = False
                inter = sp.full
                for m in range(sp.full + 1):
                    if a & ~m == 0 and sp.closure(sp.interior(m)) & ~m == 0:
                        inter &= m
                if p != inter:
                    ok = False
                if a & ~p != 0 or sp.preclosure(p) != p:
                    ok = False
                if not sp.classify(p).preclosed:
                    ok = False
    assert _line("5 preclosure laws", ok,
                 "formula = superset intersection; expansive, idempotent, "
                 "preclosed-valued")


def test_criterion_5_preopen_union_closed():
    ok = True
    for n in (1, 2, 3, 4):
        for sp in all_topologies(n):
            po = sp.preopen_masks
            po_set = set(po)
            whole = 0
            for i, a in enumerate(po):
                whole |= a
                for b in po[i:]:
                    if (a | b) not in po_set:
                        ok = False
            if whole not in po_set:
                ok = False
    assert _line("5 preopen unions", ok, "pairwise and whole-family")


def test_criterion_5_delta_preclosure_below_preclosure():
    ok = True
    for n in (1, 2, 3, 4):
        for sp in all_topologies(n):
            for a in range(sp.full + 1):
                if sp.delta_preclosure(a) & ~sp.preclosure(a):
                    ok = False
    assert _line("5 delta-pcl below pcl", ok, "")


def test_criterion_5_p41_identities():
    ok = True
    for n in (1, 2, 3, 4):
        for sp in all_topologies(n):
            for a in range(sp.full + 1):
                flags = sp.classify(a)
                if flags.preopen and sp.pre_theta_closure(a) != sp.preclosure(a):
                    ok = False
                if flags.preregular and not flags.pre_theta_closed:
                    ok = False
                if flags.semi_open and sp.preclosure(a) != sp.closure(a):
                    ok = False
    assert _line("5 p41 identities", ok,
                 "preopen: pcl-theta = pcl; preregular: pre-theta-closed; "
                 "semi-open: pcl = cl")


def test_criterion_5_strongly_irresolvable_characterization():
    from topolab.properties import check_simple

    ok = True
    for n in (1, 2, 3, 4):
        for sp in all_topologies(n):
            po = set(sp.preopen_masks)
            so = set(semiopen_masks(sp))
            if check_simple(sp, "strongly-irresolvable") != (po <= so):
                ok = False
    assert _line("5 strongly irresolvable", ok,
                 "equals: every preopen set is semi-open")


def test_criterion_5_semi_regular_sandwich():
    ok = True
    for n in (1, 2, 3, 4):
        for sp in all_topologies(n):
            for a in range(sp.full + 1):
                if sp.classify(a).semi_regular != semi_regular_sandwich(sp, a):
                    ok = False
    assert _line("5 semi-regular sandwich", ok,
                 "definitional form equals the regular-open sandwich")


def test_criterion_5_every_cover_property_true_finitely():
    ok = True
    worst = None
    for n in (1, 2, 3, 4):
        for sp in all_topologies(n):
            for name in COVER_PROPERTIES:
                v = check_cover(sp, name)
                if v.outcome is not True:
                    ok = False
                    worst = (n, name)
    assert _line("5 finite covers", ok,
                 f"all 11 properties on all 389 spaces"
                 f"{'' if ok else f'; first failure {worst}'}")


# -- criterion 6: symbolic oracle agreement ------------------------------------------------


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


def _instantiate(space, labels, sym):
    per_node_patterns = []
    for i, nd in enumerate(space.nodes):
        pats = []
        for pat, card in sym.counts[i]:
            pats.extend([pat] * card)
        per_node_patterns.append(pats)
    mask = 0
    for idx, (i, c, e) in enumerate(labels):
        if per_node_patterns[i][c] >> e & 1:
            mask |= 1 << idx
    return mask


def test_criterion_6_symbolic_oracle_agreement():
    from topolab.skeleton import all_symbolic_sets

    rng = random.Random(2024)
    mismatches = 0
    skeletons = 0
    sets_checked = 0
    while skeletons < 100:
        sk = random_finite_skeleton(rng)
        skeletons += 1
        fs, labels = expand(sk)
        for sym in all_symbolic_sets(sk):
            if not all(
                isinstance(card, int) and card <= 2
                for pairs in sym.counts
                for _pat, card in pairs
            ):
                continue
            sets_checked += 1
            mask = _instantiate(sk, labels, sym)
            for op, core_name in OPS_VS_CORE.items():
                if sym_operator(sk, op, sym) != abstract(
                        sk, labels, getattr(fs, core_name)(mask)):
                    mismatches += 1
            if sym_classify(sk, sym) != fs.classify(mask):
                mismatches += 1
    ok = mismatches == 0
    assert _line("6 symbolic oracle", ok,
                 f"100 seeded skeletons, {sets_checked} sets x 9 operators "
                 f"+ classifier, {mismatches} mismatches")


# -- criterion 7: diagram irreversibility ----------------------------------------------------


def test_criterion_7_reversal_witnesses():
    report = reversal_report(Universe.parse("catalog"))
    required = {
        "strongly-compact=>p-closed",
        "delta-p-closed=>p-closed",
        "p-closed=>qhc",
    }
    ok = True
    found = {}
    for key in required:
        witness = report[key]["witness"]
        found[key] = witness
        if witness is None:
            ok = False
    unattempted = sorted(k for k, v in report.items() if v["witness"] is None)
    for k in unattempted:
        if "note" not in report[k]:
            ok = False
    assert _line(
        "7 diagram reversals", ok,
        f"witnesses {found}; not attempted (out-of-scope spaces needed): "
        f"{unattempted}",
    )

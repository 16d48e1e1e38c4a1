"""Cover-property and simple-property checkers on finite spaces and the catalog."""

from collections import Counter

import pytest

from topolab.core import build_space, discrete, indiscrete, points_of, sierpinski
from topolab.properties import (
    COVER_PROPERTIES,
    SIMPLE_PROPERTIES,
    check_cover,
    check_cover_relative,
    check_simple,
    classified_templates,
    diagram_edges,
    flagged,
    smoke_test_witness,
)
from topolab.skeleton import (
    FIN,
    INF,
    SkeletonSpace,
    SymbolicSet,
    catalog,
    format_skel,
    full_set,
    parse_skel,
    sym_complement,
)

from conftest import all_spaces, omega_skeletons
from oracles import decoded, empty_set, pack, semiopen_masks


# -- named scheme instances -----------------------------------------------------


def test_named_cover_properties():
    cp = COVER_PROPERTIES
    assert (cp["p-closed"].cover_class, cp["p-closed"].saturation) == ("preopen", "pcl")
    assert (cp["qhc"].cover_class, cp["qhc"].saturation) == ("open", "cl")
    assert (cp["strongly-compact"].cover_class, cp["strongly-compact"].saturation) == (
        "preopen", "id")
    assert (cp["compact"].cover_class, cp["compact"].saturation) == ("open", "id")
    assert (cp["nearly-compact"].cover_class, cp["nearly-compact"].saturation) == (
        "regular-open", "id")
    assert (cp["alpha-compact"].cover_class, cp["alpha-compact"].saturation) == (
        "alpha-open", "id")
    assert (cp["delta-p-closed"].cover_class, cp["delta-p-closed"].saturation) == (
        "delta-preopen", "delta-pcl")
    assert (cp["pre-theta-compact"].cover_class, cp["pre-theta-compact"].saturation) == (
        "pre-theta-open", "id")
    assert (cp["S-closed"].cover_class, cp["S-closed"].saturation) == ("semi-open", "cl")
    assert (cp["s-closed"].cover_class, cp["s-closed"].saturation) == ("semi-open", "scl")
    assert (cp["semi-compact"].cover_class, cp["semi-compact"].saturation) == (
        "semi-open", "id")


# -- finite spaces satisfy everything ----------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_finite_space_satisfies_every_cover_property(n):
    for sp in all_spaces(n):
        for name in COVER_PROPERTIES:
            v = check_cover(sp, name)
            assert v.outcome is True
            assert v.certificate["kind"] == "finite"


def test_finite_relative_always_true(s2):
    for s in range(4):
        for name in COVER_PROPERTIES:
            assert check_cover_relative(s2, s, name).outcome is True


def _greedy_certificate(sp, cp, target):
    """Reference: the greedy saturated subcover the finite certificate was
    first built with, over the cover class scanned from all subsets."""
    from topolab.properties import _CLASS_FLAG, _saturate

    flag = _CLASS_FLAG[cp.cover_class]
    family = [a for a in range(sp.full + 1) if getattr(sp.classify(a), flag)]
    chosen, covered = [], 0
    while covered & target != target:
        best, best_gain = None, -1
        for v in family:
            gain = bin(_saturate(sp, cp.saturation, v)
                       & target & ~covered).count("1")
            if gain > best_gain:
                best, best_gain = v, gain
        assert best_gain > 0
        chosen.append(best)
        covered |= _saturate(sp, cp.saturation, best)
    return {
        "kind": "finite",
        "family_size": len(family),
        "subcover": [list(points_of(v)) for v in chosen],
    }


@pytest.mark.parametrize("n", [1, 2, 3])
def test_finite_certificates_equal_the_greedy_subcover(n):
    for sp in all_spaces(n):
        for cp in COVER_PROPERTIES.values():
            assert check_cover(sp, cp).certificate == _greedy_certificate(
                sp, cp, sp.full)
            for target in range(1, sp.full + 1):
                assert check_cover_relative(sp, target, cp).certificate == (
                    _greedy_certificate(sp, cp, target))


# -- catalog skeleton verdicts (each value derived by hand) -------------------------


def _cv(name, prop):
    return check_cover(catalog(name).space, prop)


def test_excluded_point_omega_verdicts():
    assert _cv("excluded-point-omega", "p-closed").outcome is True
    assert _cv("excluded-point-omega", "p-closed").certificate["kind"] == "pivot"
    assert _cv("excluded-point-omega", "qhc").outcome is True
    assert _cv("excluded-point-omega", "compact").outcome is True
    assert _cv("excluded-point-omega", "strongly-compact").outcome is True
    assert _cv("excluded-point-omega", "alpha-compact").outcome is True
    assert _cv("excluded-point-omega", "nearly-compact").outcome is True
    assert _cv("excluded-point-omega", "delta-p-closed").outcome is True
    assert _cv("excluded-point-omega", "pre-theta-compact").outcome is True
    assert _cv("excluded-point-omega", "s-closed").outcome is False
    assert _cv("excluded-point-omega", "S-closed").outcome is False
    assert _cv("excluded-point-omega", "semi-compact").outcome is False


def test_isolated_subspace_not_p_closed():
    assert _cv("excluded-point-omega-isolated", "p-closed").outcome is False
    assert _cv("excluded-point-omega-isolated", "qhc").outcome is False


def test_indiscrete_omega_verdicts():
    assert _cv("indiscrete-omega", "qhc").outcome is True
    assert _cv("indiscrete-omega", "p-closed").outcome is False
    assert _cv("indiscrete-omega", "compact").outcome is True
    assert _cv("indiscrete-omega", "strongly-compact").outcome is False
    assert _cv("indiscrete-omega", "alpha-compact").outcome is True
    assert _cv("indiscrete-omega", "semi-compact").outcome is True
    assert _cv("indiscrete-omega", "s-closed").outcome is True
    assert _cv("indiscrete-omega", "S-closed").outcome is True
    assert _cv("indiscrete-omega", "delta-p-closed").outcome is False
    assert _cv("indiscrete-omega", "pre-theta-compact").outcome is False


def test_e1iii_verdicts_match_cited_values():
    assert _cv("e1iii", "p-closed").outcome is True
    assert _cv("e1iii", "s-closed").outcome is True
    assert _cv("e1iii", "alpha-compact").outcome is False
    assert _cv("e1iii", "strongly-compact").outcome is False
    assert _cv("e1iii", "delta-p-closed").outcome is False
    assert _cv("e1iii", "qhc").outcome is True
    assert _cv("e1iii", "compact").outcome is True
    assert _cv("e1iii", "S-closed").outcome is True
    assert _cv("e1iii", "semi-compact").outcome is False
    assert _cv("e1iii", "pre-theta-compact").outcome is True


def test_remark_product_not_p_closed_but_factors_are():
    from topolab.skeleton import remark_product_factors

    assert _cv("remark-product", "p-closed").outcome is False
    f1, f2 = remark_product_factors()
    assert check_cover(f1, "p-closed").outcome is True
    assert check_cover(f2, "p-closed").outcome is True
    assert _cv("remark-product", "qhc").outcome is True
    assert _cv("remark-product", "compact").outcome is True
    assert _cv("remark-product", "nearly-compact").outcome is True


# -- relative p-closedness -----------------------------------------------------------


def test_relative_examples_on_excluded_point():
    epo = catalog("excluded-point-omega").space
    t_class = SymbolicSet.from_names(epo, {"t": {(0,): INF}})
    v = check_cover_relative(epo, t_class, "p-closed")
    assert v.outcome is False
    p_only = SymbolicSet.from_names(epo, {"p": {(0,): 1}})
    v = check_cover_relative(epo, p_only, "p-closed")
    assert v.outcome is True
    fin_t = SymbolicSet.from_names(epo, {"t": {(0,): FIN}})
    assert check_cover_relative(epo, fin_t, "p-closed").outcome is True
    assert check_cover_relative(epo, empty_set(epo), "p-closed").outcome is True
    assert check_cover_relative(epo, full_set(epo), "p-closed").outcome is True


def test_remark_product_has_preregular_sets_not_relatively_p_closed():
    # the a-side of the infinite columns: preopen and preclosed, yet
    # escapes any finite saturated subfamily
    from topolab.skeleton import sym_classify

    prod = catalog("remark-product").space
    t_node = prod.node_index("t*d")
    a_side = SymbolicSet.from_names(prod, {"t*d": {(0,): INF}})
    flags = sym_classify(prod, a_side)
    assert flags.preregular
    v = check_cover_relative(prod, a_side, "p-closed")
    assert v.outcome is False


# -- escape witness smoke test ---------------------------------------------------------


def test_witness_smoke_instantiation():
    io = catalog("indiscrete-omega").space
    v = check_cover(io, "p-closed")
    assert v.outcome is False
    assert smoke_test_witness(io, COVER_PROPERTIES["p-closed"], v.witness)

    prod = catalog("remark-product").space
    v = check_cover(prod, "p-closed")
    assert v.outcome is False
    assert smoke_test_witness(prod, COVER_PROPERTIES["p-closed"], v.witness)


def test_every_false_catalog_witness_survives_the_smoke_test():
    names = ("excluded-point-omega", "excluded-point-omega-isolated",
             "indiscrete-omega", "discrete-omega", "e1iii", "remark-product")
    exercised = 0
    for name in names:
        space = catalog(name).space
        for prop, cp in COVER_PROPERTIES.items():
            v = check_cover(space, prop)
            if v.outcome is False:
                exercised += 1
                assert smoke_test_witness(space, cp, v.witness), (name, prop)
    assert exercised >= 10


def test_the_smoke_test_rejects_doctored_witnesses():
    """A witness with a template swapped for one whose saturation covers
    the escape class, or with an escape class the cover saturates, fails."""
    prod = catalog("remark-product").space
    cp = COVER_PROPERTIES["p-closed"]
    witness = check_cover(prod, "p-closed").witness
    assert witness["escape_class"] == {"node": "t*d", "elem": 0}
    assert smoke_test_witness(prod, cp, witness)
    for key in ("p*d.e0", "p*d.e1"):
        templates = {**witness["templates"], key: full_set(prod).to_json()}
        assert not smoke_test_witness(prod, cp, {**witness, "templates": templates}), key
    # every template of the cover holds e1 of t*d infinitely often
    escape = {"node": "t*d", "elem": 1}
    assert not smoke_test_witness(prod, cp, {**witness, "escape_class": escape})


# -- simple properties: finite ----------------------------------------------------------


def test_simple_finite_examples(s2, i2):
    assert check_simple(i2, "resolvable") is True
    assert check_simple(s2, "strongly-irresolvable") is True
    assert check_simple(s2, "t0") is True
    assert check_simple(i2, "t0") is False
    assert check_simple(s2, "hyperconnected") is True
    assert check_simple(discrete(2), "hyperconnected") is False
    assert check_simple(s2, "submaximal") is True
    assert check_simple(indiscrete(3), "submaximal") is False
    assert check_simple(discrete(2), "predisconnected") is True
    assert check_simple(s2, "preconnected") is True


def test_strongly_irresolvable_iff_preopen_subfamily_of_semiopen():
    for n in (1, 2, 3):
        for sp in all_spaces(n):
            po = set(sp.preopen_masks)
            so = set(semiopen_masks(sp))
            assert check_simple(sp, "strongly-irresolvable") == (po <= so)


def test_regularity_trio_finite():
    # discrete spaces separate everything
    assert check_simple(discrete(3), "strongly-p-regular") is True
    assert check_simple(discrete(3), "p-regular") is True
    # sierpinski: the closed point cannot be separated from the open point
    assert check_simple(sierpinski(), "p-regular") is False
    # indiscrete: only trivial closed sets, everything separates
    assert check_simple(indiscrete(3), "p-regular") is True


def test_aleph0_ed_constant_true_finitely():
    for sp in all_spaces(3):
        assert check_simple(sp, "aleph0-ed") is True


# -- simple properties: skeletons ----------------------------------------------------------


def test_simple_skeleton_examples():
    e1 = catalog("e1iii").space
    assert check_simple(e1, "extremally-disconnected") is True
    assert check_simple(e1, "aleph0-ed") is True
    assert check_simple(e1, "hyperconnected") is True
    assert check_simple(e1, "strongly-irresolvable") is True
    assert check_simple(e1, "t0") is False

    epo = catalog("excluded-point-omega").space
    assert check_simple(epo, "t0") is True
    assert check_simple(epo, "strongly-irresolvable") is True
    assert check_simple(epo, "extremally-disconnected") is False
    assert check_simple(epo, "aleph0-ed") is True
    assert check_simple(epo, "preconnected") is True
    assert check_simple(epo, "hyperconnected") is False

    io = catalog("indiscrete-omega").space
    assert check_simple(io, "resolvable") is True
    assert check_simple(io, "strongly-irresolvable") is False
    assert check_simple(io, "predisconnected") is True
    assert check_simple(io, "hyperconnected") is True

    do = catalog("discrete-omega").space
    assert check_simple(do, "t0") is True
    assert check_simple(do, "strongly-irresolvable") is True
    assert check_simple(do, "extremally-disconnected") is True

    prod = catalog("remark-product").space
    assert check_simple(prod, "t0") is False
    assert check_simple(prod, "strongly-irresolvable") is False
    assert check_simple(prod, "predisconnected") is True
    assert check_simple(prod, "hyperconnected") is False


def test_regularity_trio_skeletons():
    epo = catalog("excluded-point-omega").space
    assert check_simple(epo, "strongly-p-regular") is False
    assert check_simple(epo, "p-regular") is False
    assert check_simple(epo, "almost-p-regular") is False

    e1 = catalog("e1iii").space
    assert check_simple(e1, "strongly-p-regular") is False
    assert check_simple(e1, "p-regular") is False
    assert check_simple(e1, "almost-p-regular") is True

    io = catalog("indiscrete-omega").space
    assert check_simple(io, "strongly-p-regular") is True


P_REGULARITY = {  # each property and the closed sets it separates from points
    "strongly-p-regular": "preclosed",
    "p-regular": "closed",
    "almost-p-regular": "regular_closed",
}


def _finite_p_regularity(space, name):
    """Reference: every set of the property's class and every point outside
    it, separated by some preopen V holding the set with the point outside
    pcl V; the scan the trio was decided with before the row rules."""
    from topolab.core import bits

    kind = P_REGULARITY[name]
    po = space.preopen_masks
    for f in range(space.full + 1):
        if not getattr(space.classify(f), kind):
            continue
        for x in bits(space.full ^ f):
            if not any(f & ~v == 0 and not space.preclosure(v) >> x & 1 for v in po):
                return False
    return True


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_p_regularity_rules_match_the_scan_on_every_finite_space(n):
    from topolab.verify import all_topologies

    for sp in all_topologies(n):
        _assert_rules_match(sp, _finite_p_regularity, P_REGULARITY, sp)


def test_p_regularity_rules_match_the_scan_on_random_finite_skeletons():
    """The probe rows against the scan of the whole realization; cards of 4
    are capped at 3 by the probe."""
    import random

    from topolab.skeleton import expand, random_finite_skeleton

    rng = random.Random(1)
    seen = capped = 0
    while seen < 100:
        sk = random_finite_skeleton(rng, max_nodes=3, max_card=4)
        if sum(nd.card * nd.size for nd in sk.nodes) > 9:
            continue
        seen += 1
        capped += max(nd.card for nd in sk.nodes) > 3
        fs, _labels = expand(sk)
        _assert_rules_match(sk, lambda _sk, prop: _finite_p_regularity(fs, prop),
                            P_REGULARITY, format_skel(sk))
    assert capped


# -- diagram --------------------------------------------------------------------------------


def test_diagram_edges_contents():
    edges = diagram_edges()
    assert ("p-closed", "qhc") in edges
    assert ("delta-p-closed", "p-closed") in edges
    assert ("compact", "nearly-compact") in edges
    assert ("strongly-compact", "p-closed") in edges
    assert len(edges) == 12
    for a, b in edges:
        assert a in COVER_PROPERTIES and b in COVER_PROPERTIES


def test_diagram_edges_hold_on_catalog():
    names = (
        "excluded-point-omega",
        "excluded-point-omega-isolated",
        "indiscrete-omega",
        "discrete-omega",
        "e1iii",
        "remark-product",
        "sierpinski",
        "indiscrete-3",
    )
    for name in names:
        space = catalog(name).space
        for p, q in diagram_edges():
            vp = check_cover(space, p)
            vq = check_cover(space, q)
            if vp.outcome is True and vq.outcome is False:
                raise AssertionError(f"{name}: {p} -> {q} violated")


def test_simple_property_registry():
    assert len(SIMPLE_PROPERTIES) == 14
    for name in SIMPLE_PROPERTIES:
        assert isinstance(check_simple(sierpinski(), name), bool)


# -- the per-space memo of the symbolic deciders -------------------------------------

CATALOG_SKELETONS = ("discrete-omega", "e1iii", "excluded-point-omega",
                     "excluded-point-omega-isolated", "indiscrete-omega",
                     "remark-product")


@pytest.mark.parametrize("name", CATALOG_SKELETONS)
def test_memoized_relative_verdicts_match_cold_ones(name):
    warm = catalog(name).space
    templates = [t for t, _flags in classified_templates(warm)]
    cold = parse_skel(format_skel(warm))
    classified_templates(cold)
    classification = dict(cold.memo)
    # every cover property, not only p-closed and qhc: saturations of
    # different operators must never answer for one another
    for prop in COVER_PROPERTIES:
        for t in templates:
            check_cover_relative(warm, t, prop)
        for t in templates:
            # everything but the classification is recomputed per verdict
            cold.memo.clear()
            cold.memo.update(classification)
            fresh = check_cover_relative(cold, SymbolicSet(cold, t.counts), prop)
            memoized = check_cover_relative(warm, t, prop)
            assert memoized.to_json() == fresh.to_json(), (prop, str(t))


def test_flagged_sets_are_the_scan_memoized():
    from dataclasses import fields

    from topolab.core import ClassFlags, FiniteSpace

    spaces = ([sp for n in (1, 2, 3) for sp in all_spaces(n)]
              + [parse_skel(format_skel(catalog(name).space)) for name in CATALOG_SKELETONS])
    for sp in spaces:
        if isinstance(sp, FiniteSpace):
            classified = [(a, sp.classify(a)) for a in range(sp.full + 1)]
        else:
            classified = classified_templates(sp)
        for field in fields(ClassFlags):
            got = flagged(sp, field.name)
            assert got == tuple(s for s, flags in classified if getattr(flags, field.name))
            assert flagged(sp, field.name) is got


def test_memos_hold_results_and_ambiguity_stays_in_the_separation_search(monkeypatch):
    """From cold memos, every operator and the class flags of every
    template, and every property, leave only results in the memo: no
    exception reaches ``recall``.  The one search that meets an
    indeterminate count, the separation search of the p-regularity trio,
    catches every ``SymbolicAmbiguity`` itself."""
    import topolab.properties as P
    from topolab.core import OPERATORS
    from topolab.skeleton import SymbolicAmbiguity, all_symbolic_sets

    raised = Counter()  # by whether the separation search was running
    searching = [0]
    real_search = P._exists_separating_preopen

    def search(*args):
        searching[0] += 1
        try:
            return real_search(*args)
        finally:
            searching[0] -= 1

    def counting_init(self, *args):
        raised[searching[0] > 0] += 1
        RuntimeError.__init__(self, *args)

    monkeypatch.setattr(P, "_exists_separating_preopen", search)
    monkeypatch.setattr(SymbolicAmbiguity, "__init__", counting_init)
    spaces = ([parse_skel(format_skel(catalog(name).space)) for name in CATALOG_SKELETONS]
              + omega_skeletons(seed=3, count=30))
    for sk in spaces:
        for t in all_symbolic_sets(sk):
            sk.classify(t)
            for op in OPERATORS:
                sk.operator(op, t)
        for prop in COVER_PROPERTIES:
            check_cover(sk, prop)
        for prop in SIMPLE_PROPERTIES:
            check_simple(sk, prop)
        assert not [key for key, value in sk.memo.items()
                    if isinstance(value, BaseException)], format_skel(sk)
    assert raised[True] >= 1 and not raised[False], raised


def _saturations_per_key(monkeypatch, cid):
    """Run ``cid`` on the catalog from cold memos and count how often each
    (space, op, template) is saturated."""
    import topolab.skeleton as S
    from topolab.verify import CATALOG_UNIVERSE, Universe, run_claim

    for name in CATALOG_UNIVERSE:
        space = catalog(name).space
        if isinstance(space, SkeletonSpace):
            space.memo.clear()
    evaluated = Counter()
    real_operator = S.sym_operator

    def counting_operator(space, op, t):
        evaluated[space, op, t.counts] += 1
        return real_operator(space, op, t)

    monkeypatch.setattr(S, "sym_operator", counting_operator)
    report = run_claim(cid, Universe.parse("catalog"))
    assert report.status == "pass"
    return evaluated


def test_tn2_on_the_catalog_saturates_each_template_once(monkeypatch):
    evaluated = _saturations_per_key(monkeypatch, "TN2")
    assert evaluated
    assert max(evaluated.values()) == 1


def test_p41_on_the_catalog_saturates_each_template_once(monkeypatch):
    evaluated = _saturations_per_key(monkeypatch, "P41")
    assert {op for _sp, op, _counts in evaluated} >= {"pcl-theta", "pcl", "cl"}
    assert max(evaluated.values()) == 1


@pytest.mark.parametrize("name", CATALOG_SKELETONS + ("omega-seed-3",))
def test_classification_asks_no_operator(monkeypatch, name):
    """Classification takes the pre-theta closures of a template and of its
    complement in the template's own frame: on a cold memo it makes no
    ``sym_operator`` call, and its pre-theta flags agree with that
    operator.  ``omega-seed-3`` stands for 30 seeded omega-skeletons."""
    import topolab.skeleton as S

    calls = []
    real = S.sym_operator

    def counting(space, op, t):
        calls.append((op, t.counts))
        return real(space, op, t)

    monkeypatch.setattr(S, "sym_operator", counting)
    spaces = (omega_skeletons(seed=3, count=30) if name == "omega-seed-3"
              else [catalog(name).space])
    for sk in spaces:
        sk = parse_skel(format_skel(sk))  # a cold memo
        templates = classified_templates(sk)
        assert not calls, (format_skel(sk), calls[:3])
        for t, flags in templates:
            comp = sym_complement(sk, t)
            assert flags.pre_theta_closed == (real(sk, "pcl-theta", t) == t), str(t)
            assert flags.pre_theta_open == (real(sk, "pcl-theta", comp) == comp), str(t)


# every other result lives in the memo of the space it was computed from
KEPT_MODULE_CACHES = {
    "topolab.verify._TOPOLOGY_CACHE",
    # functools caches: the catalog entries and the skeletons they share,
    # built once, and parsed spaces interned by their JSON, bounded
    "topolab.skeleton.catalog",
    "topolab.skeleton._skel_excluded_point_omega",
    "topolab.skeleton._skel_discrete_omega",
    "topolab.verify._parsed_space",
}


def test_no_module_level_caches_beyond_the_kept_finite_ones():
    import importlib
    import pkgutil

    import topolab
    import topolab.verify as V

    found = set()
    for info in pkgutil.iter_modules(topolab.__path__):
        module = importlib.import_module(f"topolab.{info.name}")
        for attr, value in vars(module).items():
            if isinstance(value, dict) and attr.startswith("_") and (
                    "CACHE" in attr or attr == "_CLASSIFIED"):
                found.add(f"{module.__name__}.{attr}")
            if hasattr(value, "cache_info"):  # named where it is defined
                found.add(f"{value.__module__}.{value.__qualname__}")
    assert found == KEPT_MODULE_CACHES
    assert V._parsed_space.cache_parameters()["maxsize"] == V.PARSED_SPACES
    fs = build_space(3, [0b001, 0b011])
    verdict = check_cover(fs, "p-closed")
    assert check_cover(fs, "p-closed") is verdict
    assert ("cover", "p-closed") in fs.memo


def test_a_warm_finite_memo_survives_pickling():
    import json
    import pickle

    sp = build_space(3, [0b001, 0b011])
    sp.classify(0b010)
    sub, _ = sp.subspace(0b110)
    verdict = check_cover(sp, "p-closed")
    expected = json.dumps(verdict.to_json())  # fills the cover families too
    back = pickle.loads(pickle.dumps(sp))  # as a --jobs worker receives it
    assert back == sp and back.memo.keys() == sp.memo.keys()
    assert back.classify(0b010) == sp.classify(0b010)
    assert back.subspace(0b110)[0] == sub
    again = check_cover(back, "p-closed")
    assert again is back.memo["cover", "p-closed"]
    assert again.outcome is verdict.outcome is True
    assert json.dumps(again.to_json()) == expected


# -- the top-class rules against the subset and template searches -------------------------

TOP_CLASS_PROPERTIES = ("t0", "submaximal", "resolvable", "strongly-irresolvable",
                        "hyperconnected", "extremally-disconnected", "preconnected")
NEGATION = {"resolvable": "irresolvable", "hyperconnected": "hyperdisconnected",
            "preconnected": "predisconnected"}


def _assert_rules_match(space, reference, props, where):
    """check_simple equals the reference on each property, and is its
    opposite on the property's negation."""
    for prop in props:
        want = reference(space, prop)
        assert check_simple(space, prop) is want, (where, prop)
        if prop in NEGATION:
            assert check_simple(space, NEGATION[prop]) is not want, (where, prop)


def _dense_in(sp, a, u):
    return sp.closure(a) & u == u


def _scan_resolvable(sp, u):
    """Reference: some subset of the open set u and its rest are both dense
    in u (the closure of the subspace u is the trace of the closure)."""
    a = u
    while True:  # every submask of u
        if _dense_in(sp, a, u) and _dense_in(sp, u ^ a, u):
            return True
        if a == 0:
            return False
        a = (a - 1) & u


def _scan_simple(sp, name):
    """Reference: the scans over subsets, open sets and open subspaces that
    these properties were decided with before the top-class rules."""
    full = sp.full
    if name == "t0":
        return all(any((u >> x & 1) != (u >> y & 1) for u in sp.opens)
                   for x in range(sp.n) for y in range(x))
    if name == "submaximal":
        return all(sp.is_open(a) for a in range(full + 1) if sp.closure(a) == full)
    if name == "resolvable":
        return _scan_resolvable(sp, full)
    if name == "strongly-irresolvable":
        return not any(_scan_resolvable(sp, u) for u in sp.opens if u)
    if name == "extremally-disconnected":
        return all(sp.is_open(sp.closure(u)) for u in sp.opens)
    if name == "preconnected":
        po = set(sp.preopen_masks)
        return not any(0 < u < full and u in po and (full ^ u) in po
                       for u in range(full + 1))
    assert name == "hyperconnected"
    return all(sp.closure(u) == full for u in sp.opens if u)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_top_class_rules_match_the_scans_on_every_finite_space(n):
    from topolab.verify import all_topologies

    for sp in all_topologies(n):
        _assert_rules_match(sp, _scan_simple, TOP_CLASS_PROPERTIES, sp)


def _boundary_has_inf(space, t):
    """Is the boundary cl(t) - int(t) of the set infinite?"""
    from topolab.skeleton import Config

    cfg, a = Config.of(space, t)
    diff = cfg.closure(a) & ~cfg.interior(a)
    return any(pats[0] and card == INF
               for node_groups in decoded(cfg, [diff]) for card, pats, _m in node_groups)


def _template_simple(space, name):
    """Reference: the template searches these properties were decided with
    on skeletons before the top-class rules and the probe-row rule of
    aleph0-ed."""
    templates = classified_templates(space)
    if name == "aleph0-ed":
        return space.finite or not any(
            flags.regular_open and _boundary_has_inf(space, t) for t, flags in templates)
    if name == "submaximal":
        return all(flags.open for t, flags in templates if flags.dense)
    if name == "resolvable":
        return any(
            flags.dense and space.classify(sym_complement(space, t)).dense
            for t, flags in templates)
    if name == "extremally-disconnected":
        return all(space.classify(space.operator("cl", t)).open
                   for t, flags in templates if flags.open)
    if name == "preconnected":
        return not any(flags.preregular and not t.is_empty() and not t.is_full()
                       for t, flags in templates)
    assert name == "hyperconnected"
    return all(flags.dense for t, flags in templates
               if flags.open and not t.is_empty())


TEMPLATE_SEARCHED = ("submaximal", "resolvable", "hyperconnected",
                     "extremally-disconnected", "preconnected", "aleph0-ed")


def _finite_probe_spaces(sk):
    """The explicit realizations of sk with every omega node at 2 and at 3
    copies, where they fit the expansion cap."""
    from topolab.core import MAX_EXPLICIT_POINTS
    from topolab.skeleton import expand, finite_probe

    for k in (2, 3):
        probe = finite_probe(sk, k)
        if sum(nd.card * nd.size for nd in probe.nodes) <= MAX_EXPLICIT_POINTS:
            yield expand(probe)[0]


def _assert_probes_match(sk):
    """The rules on sk against the scans on its finite probes; the number
    of probes compared."""
    probes = list(_finite_probe_spaces(sk))
    for fs in probes:
        _assert_rules_match(sk, lambda _sk, prop: _scan_simple(fs, prop),
                            TOP_CLASS_PROPERTIES, format_skel(sk))
    return len(probes)


@pytest.mark.parametrize("name", CATALOG_SKELETONS)
def test_top_class_rules_match_the_template_search_on_the_catalog(name):
    sk = parse_skel(format_skel(catalog(name).space))  # a cold memo
    _assert_rules_match(sk, _template_simple, TEMPLATE_SEARCHED, name)
    assert _assert_probes_match(sk)


def test_top_class_rules_match_the_template_search_on_random_omega_skeletons():
    checked = 0
    for sk in omega_skeletons(seed=3, count=10):
        _assert_rules_match(sk, _template_simple, TEMPLATE_SEARCHED, format_skel(sk))
        checked += _assert_probes_match(sk)
    assert checked >= 10


def test_top_class_rules_match_the_scans_on_random_finite_skeletons():
    """Cards up to 3 lie inside the 3-copy probe; cards of 4 and 5 (at most
    16 points) are capped by it, and there the strongly irresolvable scan,
    which takes seconds, is left out."""
    import random

    from topolab.core import MAX_EXPLICIT_POINTS
    from topolab.skeleton import expand, random_finite_skeleton

    rng = random.Random(5)
    capped = tuple(p for p in TOP_CLASS_PROPERTIES if p != "strongly-irresolvable")
    for max_card, count, props in ((3, 80, TOP_CLASS_PROPERTIES), (5, 40, capped)):
        seen = 0
        while seen < count:
            sk = random_finite_skeleton(rng, max_card=max_card)
            if (max_card > 3 and max(nd.card for nd in sk.nodes) < 4
                    or sum(nd.card * nd.size for nd in sk.nodes) > MAX_EXPLICIT_POINTS):
                continue
            seen += 1
            fs, _labels = expand(sk)
            _assert_rules_match(sk, lambda _sk, prop: _scan_simple(fs, prop),
                                props, format_skel(sk))


def test_rule_verdicts_match_the_benchmark_reference():
    """The omega-sweep reference pins every verdict of its table; a change
    to a rule-decided one fails here, before the benchmark's gate.  The
    p-regularity trio is left out: the reference pins values its template
    search gets wrong."""
    import json
    from pathlib import Path

    ref = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "omega-sweep.json"
    table = json.loads(ref.read_text(encoding="utf-8"))["table"]
    props = [p for p in TOP_CLASS_PROPERTIES + ("aleph0-ed",) if p in table[0]["verdicts"]]
    assert len(props) == 7  # the sweep leaves strongly-irresolvable out
    for row in table:
        sk = parse_skel(row["skeleton"])
        _assert_rules_match(sk, lambda _sk, prop: row["verdicts"][prop], props,
                            row["skeleton"])
        for prop, neg in NEGATION.items():
            assert row["verdicts"][neg] is not row["verdicts"][prop]


@pytest.mark.parametrize("text", [
    "node n0 card omega mode antichain block antichain2\n",
    "node n0 card 3 mode antichain block antichain2\n"
    "node n1 card omega mode antichain block chain2\n",
    "node n0 card omega mode antichain block chain2\n"
    "node n1 card 3 mode antichain block clique2\n"
    "rel n1.e0 <= n0.e1\n"
    "rel n1.e1 <= n0.e1\n",
])
def test_strongly_irresolvable_where_the_restriction_search_took_minutes(text):
    import time

    from topolab.skeleton import expand, finite_probe

    sk = parse_skel(text)
    start = time.perf_counter()
    assert check_simple(sk, "strongly-irresolvable") is True
    assert time.perf_counter() - start < 1.0  # the restriction loop took 10 to 299 s
    probe, _labels = expand(finite_probe(sk, 2))
    assert _scan_simple(probe, "strongly-irresolvable") is True


def _separating_preopen_by_product(space, f_set, node, group_pat, elem) -> bool:
    """Reference for properties._exists_separating_preopen: every element
    mask per node in product order, each with and without the marked point,
    on a fresh configuration."""
    import itertools

    from topolab.skeleton import SymbolicAmbiguity, _marked_config

    for choice in itertools.product(*[range(1 << nd.size) for nd in space.nodes]):
        cfg, f_value = _marked_config(space, f_set, node, group_pat)
        v = f_value | cfg.op_const(choice)
        point = pack(cfg, [
            [(1 << elem) if (m and i == node) else 0 for _, _, m in node_groups]
            for i, node_groups in enumerate(decoded(cfg, []))])
        for vv in (v, v & ~point):
            if not cfg.subset(f_value, vv):
                continue
            try:
                if not cfg.subset(vv, cfg.interior(cfg.closure(vv))):
                    continue
                if cfg.marked_pattern(node, cfg.preclosure(vv)) >> elem & 1:
                    continue
            except SymbolicAmbiguity:
                continue
            return True
    return False


def test_separation_search_matches_the_product_scan_on_random_omega_skeletons():
    from topolab.properties import _exists_separating_preopen

    calls = separated = 0
    for sk in omega_skeletons(seed=11, count=10):
        sk = parse_skel(format_skel(sk))  # a cold memo: no separators found yet
        for f_set, flags in classified_templates(sk):
            if not flags.preclosed:
                continue
            for i, nd in enumerate(sk.nodes):
                for pat, card in f_set.counts[i]:
                    for e in range(nd.size):
                        if card == 0 or pat >> e & 1:
                            continue
                        want = _separating_preopen_by_product(sk, f_set, i, pat, e)
                        assert _exists_separating_preopen(sk, f_set, i, pat, e) is want, (
                            format_skel(sk), f_set.counts, i, pat, e)
                        calls += 1
                        separated += want
    assert 0 < separated < calls

"""Cover-property and simple-property checkers on finite spaces and the catalog."""

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
    smoke_test_witness,
)
from topolab.skeleton import (
    FIN,
    INF,
    SkeletonSpace,
    SymbolicSet,
    catalog,
    empty_set,
    format_skel,
    full_set,
    parse_skel,
)

from conftest import all_spaces


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
    from topolab.properties import _CLASS_FLAG, _finite_saturate

    flag = _CLASS_FLAG[cp.cover_class]
    family = [a for a in range(sp.full + 1) if getattr(sp.classify(a), flag)]
    chosen, covered = [], 0
    while covered & target != target:
        best, best_gain = None, -1
        for v in family:
            gain = bin(_finite_saturate(sp, cp.saturation, v)
                       & target & ~covered).count("1")
            if gain > best_gain:
                best, best_gain = v, gain
        assert best_gain > 0
        chosen.append(best)
        covered |= _finite_saturate(sp, cp.saturation, best)
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
            so = set(sp.semiopen_masks)
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


def test_raised_saturation_is_memoized_as_unknown(monkeypatch):
    import topolab.properties as P
    from topolab.skeleton import SymbolicIncomplete

    space = parse_skel(format_skel(catalog("excluded-point-omega").space))
    t_class = SymbolicSet.from_names(space, {"t": {(0,): INF}})
    calls = []

    def incomplete(sp, op, t):
        calls.append((op, t.counts))
        raise SymbolicIncomplete("pre-theta search budget exceeded")

    monkeypatch.setattr(P, "sym_operator", incomplete)
    first = check_cover_relative(space, t_class, "p-closed")
    assert first.outcome is None
    assert calls and len(calls) == len(set(calls))
    with pytest.raises(SymbolicIncomplete):
        P._sym_saturate(space, "pcl", t_class)
    monkeypatch.undo()
    # the stored failure is raised again, never replaced by a definite verdict
    with pytest.raises(SymbolicIncomplete):
        P._sym_saturate(space, "pcl", t_class)
    second = check_cover_relative(space, t_class, "p-closed")
    assert second.to_json() == first.to_json()
    fresh = parse_skel(format_skel(space))
    t_fresh = SymbolicSet(fresh, t_class.counts)
    assert check_cover_relative(fresh, t_fresh, "p-closed").outcome is False


def _saturations_per_key(monkeypatch, cid):
    """Run ``cid`` on the catalog from cold memos and count how often each
    (space, op, template) is saturated."""
    from collections import Counter

    import topolab.properties as P
    from topolab.verify import CATALOG_UNIVERSE, Universe, run_claim

    for name in CATALOG_UNIVERSE:
        space = catalog(name).space
        if isinstance(space, SkeletonSpace):
            space.memo.clear()
    evaluated = Counter()
    real = P.sym_operator

    def counting(space, op, t):
        evaluated[space, op, t.counts] += 1
        return real(space, op, t)

    monkeypatch.setattr(P, "sym_operator", counting)
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


# finite-side caches kept on purpose: they are keyed by equal FiniteSpace
# values, which claims rebuild per instance (subspaces, codomains read back
# from JSON), so a per-object memo would recompute them
KEPT_MODULE_CACHES = {
    "topolab.properties._FAMILY_CACHE",
    "topolab.properties._COVER_CACHE",
    "topolab.properties._SIMPLE_CACHE",
    "topolab.verify._TOPOLOGY_CACHE",
}


def test_no_module_level_caches_beyond_the_kept_finite_ones():
    import importlib
    import pkgutil

    import topolab
    import topolab.properties as P

    found = set()
    for info in pkgutil.iter_modules(topolab.__path__):
        module = importlib.import_module(f"topolab.{info.name}")
        for attr, value in vars(module).items():
            if isinstance(value, dict) and attr.startswith("_") and (
                    "CACHE" in attr or attr == "_CLASSIFIED"):
                found.add(f"{module.__name__}.{attr}")
    assert found == KEPT_MODULE_CACHES
    epo = catalog("excluded-point-omega").space
    check_cover(epo, "p-closed")
    check_simple(epo, "t0")
    for cache in (P._COVER_CACHE, P._SIMPLE_CACHE, P._FAMILY_CACHE):
        assert not any(isinstance(key[0], SkeletonSpace) for key in cache)

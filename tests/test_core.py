"""Operator and classifier tests for finite spaces.

Expected values for the worked examples were computed independently by
brute force (closure of families under union/intersection, intersections
of super-families) and frozen here.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topolab import core
from topolab.core import (
    SpaceMap,
    TopologyError,
    build_space,
    map_classify,
    mask_of,
    parse_topo,
    points_of,
    product,
)

from conftest import all_spaces
from oracles import format_topo, preopen_at, regular_opens, semi_regular_sandwich


def closure_space(n, generators):
    """The smallest topology containing the generators, by closing the family
    under pairwise union and intersection until nothing changes: the
    reference that the up-set row builders are checked against."""
    fam = {0, (1 << n) - 1} | set(generators)
    while True:
        new = {m for x in fam for y in fam for m in (x | y, x & y)} - fam
        if not new:
            return core.FiniteSpace(n, tuple(fam))
        fam |= new


# -- build_space ---------------------------------------------------------


def test_build_sierpinski(s2):
    assert s2.opens == (0b00, 0b10, 0b11)


def test_build_indiscrete_pair(i2):
    assert i2.opens == (0b00, 0b11)


def test_build_three_point_two_generators():
    # brute-force closure of {{0},{1}} under union/intersection
    sp = build_space(3, [0b001, 0b010])
    assert sp.opens == (0b000, 0b001, 0b010, 0b011, 0b111)


def test_build_rejects_empty_carrier():
    with pytest.raises(TopologyError):
        build_space(0, [])


def test_build_rejects_oversized_generator():
    with pytest.raises(TopologyError):
        build_space(2, [0b100])


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
def test_build_space_is_a_topology_and_idempotent(n, data):
    full = (1 << n) - 1
    gens = data.draw(st.lists(st.integers(min_value=0, max_value=full), max_size=5))
    sp = build_space(n, gens)
    for g in gens:
        assert sp.is_open(g)
    assert build_space(n, sp.opens) == sp
    assert sp == closure_space(n, gens)


# -- interior / closure / consolidation ----------------------------------


def test_interior_examples(s2, i2):
    assert s2.interior(0b01) == 0
    assert s2.interior(0b10) == 0b10
    assert i2.interior(0b01) == 0


def test_closure_examples(s2, i2):
    assert s2.closure(0b10) == 0b11
    assert s2.closure(0b01) == 0b01
    assert i2.closure(0b01) == 0b11


def test_consolidation_examples(s2):
    assert s2.consolidation(0b10) == 0b11
    assert s2.consolidation(0b01) == 0
    for n in (1, 2, 3):
        for sp in all_spaces(n):
            assert sp.consolidation(0) == 0


def _interior_by_scan(sp, a):
    """The union of the open sets inside ``a``, read off the open list."""
    m = 0
    for o in sp.opens:
        if o & ~a == 0:
            m |= o
    return m


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_operators_from_up_set_rows_match_the_open_list_scan(n):
    for sp in all_spaces(n):
        for a in range(sp.full + 1):
            assert sp.interior(a) == _interior_by_scan(sp, a)
            assert sp.closure(a) == sp.full ^ _interior_by_scan(sp, sp.full ^ a)


def test_operators_reject_masks_outside_the_carrier(s2):
    for bad in (-1, s2.full + 1):
        for name in core.OPERATORS:
            with pytest.raises(TopologyError):
                s2.operator(name, bad)
        with pytest.raises(TopologyError):
            s2.classify(bad)


def test_hash_is_computed_once_and_survives_pickling():
    import pickle

    for sp in all_spaces(3):
        assert hash(sp) == hash(core.FiniteSpace.from_rows(sp.n, sp.min_nbhd))
        sp.classify(sp.full)  # travel with a warm cache, as --jobs does
        back = pickle.loads(pickle.dumps(sp))
        assert back == sp and hash(back) == hash(sp)
        assert {sp: 1}[back] == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rows_and_opens_build_the_same_space(n):
    for sp in all_spaces(n):
        by_rows = core.FiniteSpace.from_rows(n, sp.min_nbhd)
        for by_opens in (core.FiniteSpace(n, sp.opens),
                         core.FiniteSpace(n, sp.opens[::-1])):
            assert by_rows == by_opens and hash(by_rows) == hash(by_opens)
            assert by_rows.opens == by_opens.opens == sp.opens


@pytest.mark.parametrize("n, rows", [
    (2, (0b10, 0b10)),
    (2, (0b101, 0b10)),
    (2, (-1, 0b10)),
    (3, (0b011, 0b110, 0b100)),
    (2, (0b11,)),
    (0, ()),
], ids=["own-point", "carrier", "negative", "transitive", "row-count", "empty"])
def test_from_rows_rejects_a_non_preorder(n, rows):
    with pytest.raises(TopologyError):
        core.FiniteSpace.from_rows(n, rows)


def _min_regular_nbhd_by_scan(sp, x):
    m = sp.full
    for r in regular_opens(sp):
        if r >> x & 1:
            m &= r
    return m


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_row_forms_match_the_open_list_scan(n):
    for sp in all_spaces(n):
        opens = set(sp.opens)
        min_reg = [_min_regular_nbhd_by_scan(sp, x) for x in range(n)]
        for a in range(sp.full + 1):
            f = sp.classify(a)
            cl_a = sp.closure(a)
            assert f.open == (a in opens)
            assert f.closed == (sp.full ^ a in opens)
            assert f.locally_closed == any(a == o & cl_a for o in opens)
            assert sp.delta_closure(a) == sum(
                1 << x for x in range(n) if min_reg[x] & a)


def test_closure_is_smallest_closed_superset():
    for sp in all_spaces(3):
        for a in range(sp.full + 1):
            expected = sp.full
            for m in range(sp.full + 1):
                if sp.closure(m) == m and a & ~m == 0:
                    expected &= m
            assert sp.closure(a) == expected


# -- preclosure / preinterior ---------------------------------------------


def test_preclosure_examples(s2):
    assert s2.preclosure(0b01) == 0b01
    assert s2.preclosure(0b10) == 0b11
    assert s2.preinterior(0b01) == 0


def preclosure_oracle(sp, a):
    """Intersection of all preclosed supersets, from the definition."""
    out = sp.full
    for m in range(sp.full + 1):
        if a & ~m == 0 and sp.closure(sp.interior(m)) & ~m == 0:
            out &= m
    return out


def preinterior_oracle(sp, a):
    out = 0
    for m in range(sp.full + 1):
        if m & ~a == 0 and m & ~sp.consolidation(m) == 0:
            out |= m
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_preclosure_matches_definition(n):
    for sp in all_spaces(n):
        for a in range(sp.full + 1):
            assert sp.preclosure(a) == preclosure_oracle(sp, a)
            assert sp.preinterior(a) == preinterior_oracle(sp, a)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_preclosure_laws(n):
    for sp in all_spaces(n):
        for a in range(sp.full + 1):
            p = sp.preclosure(a)
            assert a & ~p == 0
            assert sp.preclosure(p) == p
            assert sp.classify(p).preclosed


@pytest.mark.parametrize("n", [1, 2, 3])
def test_preopen_family_union_closed(n):
    for sp in all_spaces(n):
        po = sp.preopen_masks
        whole = 0
        for i, a in enumerate(po):
            whole |= a
            for b in po[i:]:
                assert (a | b) in po
        assert whole in po


# -- delta operators --------------------------------------------------------


def test_delta_closure_examples(s2, d2):
    assert s2.delta_closure(0b01) == 0b11
    assert s2.delta_closure(0) == 0
    assert d2.delta_closure(0b01) == 0b01


def test_delta_preclosure_below_preclosure():
    for n in (1, 2, 3):
        for sp in all_spaces(n):
            for a in range(sp.full + 1):
                assert sp.delta_preclosure(a) & ~sp.preclosure(a) == 0


def _delta_preclosure_by_scan(sp, a):
    """Reference: the intersection of every delta-preclosed superset of
    ``a``, scanned over all supersets."""
    out, rest = sp.full, sp.full ^ a
    sub = rest
    while True:
        m = a | sub
        if sp.is_delta_preopen(sp.full ^ m):
            out &= m
        if sub == 0:
            return out
        sub = (sub - 1) & rest


def test_delta_preclosure_fixpoint_matches_the_superset_scan():
    pairs = 0
    for n in (1, 2, 3, 4):
        for sp in all_spaces(n):
            for a in range(sp.full + 1):
                assert sp.delta_preclosure(a) == _delta_preclosure_by_scan(sp, a), (sp, a)
                pairs += 1
    assert pairs == 1 * 2 + 4 * 4 + 29 * 8 + 355 * 16
    with pytest.raises(TopologyError):
        all_spaces(2)[0].delta_preclosure(0b100)


def _delta_preclosure_by_fixpoint(sp, a):
    """Reference: the complement of the decreasing fixpoint
    P <- S & int(cl_delta(P)) from P = S, the complement of ``a``."""
    rest = sp.full ^ a
    cur = rest
    while True:
        nxt = rest & sp.interior(sp.delta_closure(cur))
        if nxt == cur:
            return sp.full ^ cur
        cur = nxt


def test_delta_preclosure_closed_form_matches_the_fixpoint():
    for n in (1, 2, 3, 4):
        for sp in all_spaces(n):
            for a in range(sp.full + 1):
                assert sp.delta_preclosure(a) == _delta_preclosure_by_fixpoint(sp, a), (sp, a)


def test_operator_by_name_is_the_named_method():
    assert tuple(core.OPERATORS) == ("int", "cl", "consolidation", "pcl", "pint",
                                     "scl", "delta-cl", "delta-pcl", "pcl-theta")
    for n in (1, 2, 3):
        for sp in all_spaces(n):
            for name, method in core.OPERATORS.items():
                for a in range(sp.full + 1):
                    assert sp.operator(name, a) == getattr(sp, method)(a), (sp, name, a)
    with pytest.raises(TopologyError, match="unknown operator"):
        all_spaces(1)[0].operator("delta-pint", 0)


# -- pre-theta closure -------------------------------------------------------


def test_pre_theta_closure_examples(s2):
    assert s2.pre_theta_closure(0b10) == 0b11
    assert s2.pre_theta_closure(0b01) == 0b11
    assert s2.pre_theta_closure(0) == 0


def test_pre_theta_closure_contains_preclosure():
    for sp in all_spaces(3):
        for a in range(sp.full + 1):
            assert sp.preclosure(a) & ~sp.pre_theta_closure(a) == 0


def _scanned_pre_theta_closure(sp, a):
    """The points every preopen neighbourhood of which has a preclosure
    meeting ``a``: the definition, scanned over ``_preopen_pcl``."""
    return sum(1 << x for x in range(sp.n)
               if all(pcl_v & a for v, pcl_v in sp._preopen_pcl if v >> x & 1))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pre_theta_closure_identity_matches_the_preopen_scan(n):
    for sp in all_spaces(n):
        for a in range(sp.full + 1):
            assert sp.pre_theta_closure(a) == _scanned_pre_theta_closure(sp, a), (
                sp, a)
        for bad in (-1, sp.full + 1):
            with pytest.raises(TopologyError):
                sp.pre_theta_closure(bad)


# -- classification -----------------------------------------------------------


def test_classify_sierpinski_open_point(s2):
    f = s2.classify(0b10)
    assert f.preopen and f.semi_open and f.dense and f.alpha_open
    assert not f.regular_open


def test_classify_sierpinski_closed_point(s2):
    f = s2.classify(0b01)
    assert not f.preopen
    assert f.preclosed and f.delta_preopen and f.locally_closed
    # int(cl({0})) = int({0}) is empty, so the point is nowhere dense
    assert f.nowhere_dense
    assert not f.pre_theta_closed


def test_classify_indiscrete_point(i2):
    f = i2.classify(0b01)
    assert f.preopen and f.dense
    assert not f.semi_open


def test_classify_flag_implications():
    for n in (1, 2, 3):
        for sp in all_spaces(n):
            for a in range(sp.full + 1):
                f = sp.classify(a)
                if f.open:
                    assert f.alpha_open
                if f.alpha_open:
                    assert f.preopen
                if f.dense:
                    assert f.preopen
                if f.preopen:
                    assert f.delta_preopen
                assert f.semi_regular == (f.semi_open and f.semi_closed)
                assert f.locally_dense == f.preopen
                assert f.preregular == (f.preopen and f.preclosed)


def test_semi_regular_equals_sandwich():
    for n in (1, 2, 3):
        for sp in all_spaces(n):
            for a in range(sp.full + 1):
                f = sp.classify(a)
                assert f.semi_regular == semi_regular_sandwich(sp, a)


def alpha_open_by_difference(sp, a):
    """Open-minus-nowhere-dense decomposition test for alpha-openness."""
    for u in sp.opens:
        nwd = u & ~a
        if a & ~u == 0 and sp.interior(sp.closure(nwd)) == 0:
            return True
    return False


def test_alpha_open_equals_difference_form():
    for n in (1, 2, 3):
        for sp in all_spaces(n):
            for a in range(sp.full + 1):
                assert sp.classify(a).alpha_open == alpha_open_by_difference(sp, a)


# -- preopen families -----------------------------------------------------------


def test_preopen_family_examples(s2, i2):
    assert s2.preopen_masks == (0b00, 0b10, 0b11)
    assert i2.preopen_masks == (0b00, 0b01, 0b10, 0b11)
    assert preopen_at(s2, 0) == (0b11,)


# -- subspace / product -----------------------------------------------------------


def test_subspace_examples(s2):
    one, relabel = s2.subspace(0b01)
    assert one.n == 1 and relabel == (0,)
    one, relabel = s2.subspace(0b10)
    assert one.n == 1 and relabel == (1,)
    sp = build_space(3, [0b001, 0b010])
    sub, relabel = sp.subspace(0b101)
    assert relabel == (0, 2)
    assert sub.opens == (0b00, 0b01, 0b11)


def test_subspace_rejects_empty(s2):
    with pytest.raises(TopologyError):
        s2.subspace(0)
    with pytest.raises(TopologyError):
        s2.subspace(0b100)
    assert not s2.memo  # a failed call stores nothing


def test_subspace_is_kept_on_its_parent():
    for sp in all_spaces(3):
        for a in range(1, sp.full + 1):
            sub, relabel = sp.subspace(a)
            assert sp.subspace(a)[0] is sub
            fresh = core.FiniteSpace(sp.n, sp.opens)
            assert fresh.subspace(a) == (sub, relabel)


def test_subspace_is_the_trace_of_the_opens():
    for n in range(1, 5):
        for sp in all_spaces(n):
            for a in range(1, sp.full + 1):
                sub, relabel = sp.subspace(a)
                traced = {sum(1 << i for i, p in enumerate(relabel) if o >> p & 1)
                          for o in sp.opens}
                assert sub == core.FiniteSpace(len(relabel), tuple(traced))


def test_product_is_the_topology_of_the_rectangles():
    for x in all_spaces(1) + all_spaces(2):
        for y in all_spaces(1) + all_spaces(2) + all_spaces(3):
            rectangles = [sum(1 << (p * y.n + q) for p in points_of(u)
                              for q in points_of(v))
                          for u in x.opens for v in y.opens]
            assert product(x, y) == closure_space(x.n * y.n, rectangles)


def test_product_examples(s2, i2):
    assert product(i2, i2) == build_space(4, [])
    p = product(s2, i2)
    assert p.opens == (0b0000, 0b1100, 0b1111)
    one = build_space(1, [])
    q = product(one, s2)
    assert q.opens == s2.opens


# -- maps ----------------------------------------------------------------------


def test_map_identity_all_flags(s2):
    f = SpaceMap(s2, s2, (0, 1))
    flags = map_classify(f)
    assert flags.continuous and flags.precontinuous and flags.preirresolute


def test_map_coarsening_not_preirresolute(s2, i2):
    f = SpaceMap(s2, i2, (0, 1))
    flags = map_classify(f)
    assert flags.continuous and flags.precontinuous
    assert not flags.preirresolute


def test_constant_maps_preirresolute():
    for n in (1, 2, 3):
        for sp in all_spaces(n):
            f = SpaceMap(sp, sp, (0,) * sp.n)
            assert map_classify(f).preirresolute


def test_map_validation(s2, i2):
    with pytest.raises(TopologyError):
        SpaceMap(s2, i2, (0, 2))
    with pytest.raises(TopologyError):
        SpaceMap(s2, i2, (0,))


# -- .topo format ------------------------------------------------------------------


def test_topo_roundtrip(s2):
    text = format_topo(s2)
    assert parse_topo(text) == s2


def test_topo_parse_implicit_empty_and_full():
    sp = parse_topo("points 2\nopen 1\n")
    assert sp == build_space(2, [0b10])


def test_topo_parse_rejects_non_topology():
    bad = "points 3\nopen 0\nopen 1\n"
    with pytest.raises(TopologyError) as err:
        parse_topo(bad)
    assert "union" in str(err.value)


def test_topo_parse_names_a_missing_intersection():
    with pytest.raises(TopologyError) as err:
        parse_topo("points 3\nopen 0 1\nopen 1 2\n")
    assert "intersection" in str(err.value)


def test_topo_parse_refuses_a_large_carrier_before_building_it():
    # the opens constructor's row pass is quadratic in n on big-int masks
    with pytest.raises(TopologyError, match="limit of 16"):
        parse_topo("points 1000000\nopen 0\n")


def test_topo_parse_errors():
    with pytest.raises(TopologyError):
        parse_topo("open 0\n")
    with pytest.raises(TopologyError):
        parse_topo("points 0\n")
    with pytest.raises(TopologyError):
        parse_topo("points 2\nopen x\n")


@pytest.mark.parametrize("label", ["+1", "\u0663", "\uff11", "1_0", "-1"])
def test_topo_parse_reads_point_labels_as_ascii_numerals(label):
    # int() would read each of these as a point of the carrier
    with pytest.raises(TopologyError, match="non-integer point label"):
        parse_topo(f"points 11\nopen {label}\n")


# -- misc helpers ---------------------------------------------------------------


def test_mask_helpers():
    assert mask_of([0, 2], 3) == 0b101
    assert points_of(0b101) == (0, 2)
    with pytest.raises(TopologyError):
        mask_of([3], 3)


def test_named_spaces():
    assert core.sierpinski().opens == (0b00, 0b10, 0b11)
    assert core.discrete(2).opens == (0b00, 0b01, 0b10, 0b11)
    ep = core.excluded_point(3)
    assert ep.opens == (0b000, 0b010, 0b100, 0b110, 0b111)

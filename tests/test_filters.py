"""Filter-base convergence machinery and the four-clause characterizations."""

import random

import pytest

from topolab.core import TopologyError, build_space, discrete
from topolab.filters import (
    SAMPLED_BASES,
    FilterBase,
    antichain_filter_bases,
    check_t41,
    check_t43,
    is_strictly_finer,
    maximal_filter_bases,
    pre_theta_accumulates,
    pre_theta_converges,
    principal_filter_bases,
)

from conftest import all_spaces


def test_filter_base_validation(s2):
    with pytest.raises(TopologyError):
        FilterBase(s2, ())
    with pytest.raises(TopologyError):
        FilterBase(s2, (0,))
    with pytest.raises(TopologyError):
        FilterBase(s2, (0b01, 0b10))  # no member below the intersection
    fb = FilterBase(s2, (0b11, 0b01))
    assert fb.minimum() == 0b01


def test_convergence_examples(s2, d2):
    fb = FilterBase(s2, (0b01,))
    assert pre_theta_converges(fb, 0)
    assert pre_theta_converges(fb, 1)
    fb_d = FilterBase(d2, (0b01,))
    assert not pre_theta_converges(fb_d, 1)
    assert not pre_theta_accumulates(fb_d, 1)


def test_accumulation_example(s2):
    fb = FilterBase(s2, (0b01,))
    assert pre_theta_accumulates(fb, 1)


def test_convergence_implies_accumulation():
    for n in (1, 2, 3):
        for sp in all_spaces(n):
            for fb in principal_filter_bases(sp):
                for x in range(sp.n):
                    if pre_theta_converges(fb, x):
                        assert pre_theta_accumulates(fb, x)


def test_maximal_filter_bases(s2):
    bases = maximal_filter_bases(s2)
    assert [fb.members for fb in bases] == [(0b01,), (0b10,)]
    assert len(maximal_filter_bases(build_space(1, []))) == 1
    assert len(maximal_filter_bases(discrete(3))) == 3


def test_maximal_bases_admit_no_finer():
    for n in (1, 2, 3):
        for sp in all_spaces(n):
            for mb in maximal_filter_bases(sp):
                for fb in principal_filter_bases(sp):
                    assert not is_strictly_finer(fb, mb)


def test_antichain_bases_cover_principal_filters(s2):
    mins = {fb.minimum() for fb in antichain_filter_bases(s2)}
    assert mins == {0b01, 0b10, 0b11}


def test_t41_examples(s2, i2):
    assert check_t41(s2) == (True, True, True, True)
    assert check_t41(i2) == (True, True, True, True)
    assert check_t41(discrete(3)) == (True, True, True, True)


def test_t41_equivalence_audit_small():
    for n in (1, 2, 3):
        for sp in all_spaces(n):
            a, b, c, d = check_t41(sp)
            assert a == b == c == d


def test_t43_examples(s2):
    assert check_t43(s2, 0b10) == (True, True, True, True)
    assert check_t43(s2, 0b00) == (True, True, True, True)
    assert check_t43(discrete(3), 0b011) == (True, True, True, True)


def test_t43_equivalence_audit_small():
    for n in (1, 2, 3):
        for sp in all_spaces(n):
            for s in range(sp.full + 1):
                a, b, c, d = check_t43(sp, s)
                assert a == b == c == d


def test_t41_with_sampling_seeded():
    sp = build_space(4, [0b0001, 0b0010])
    rng = random.Random(11)
    assert check_t41(sp, rng, samples=500) == (True, True, True, True)


def test_planted_accumulation_fault_turns_clause_c_false(monkeypatch):
    import topolab.filters as F
    from topolab.verify import Universe, replay, run_claim

    # bases with more than one member never accumulate, so they disagree
    # with their (principal) minimum
    real = F.pre_theta_accumulates
    monkeypatch.setattr(F, "pre_theta_accumulates",
                        lambda fb, x: len(fb.members) == 1 and real(fb, x))
    d3 = discrete(3)
    sp = build_space(4, [0b0001, 0b0010])
    assert check_t41(d3)[2] is False
    assert check_t41(sp, random.Random(1))[2] is False
    assert check_t43(d3, d3.full)[2] is False
    assert check_t43(sp, 0b0111, random.Random(1), samples=30)[2] is False
    report = run_claim("T41", Universe("explicit", explicit=(("x", sp),)))
    assert report.status == "fail"
    assert report.violations[0]["instance"] == {"samples": SAMPLED_BASES}
    assert replay(report.violations[0], "T41") is False


def test_t41_claim_draws_at_most_the_bound_of_antichain_bases(monkeypatch):
    import topolab.filters as F
    from topolab.verify import Universe, run_claim

    real = F.antichain_filter_bases
    yielded = []

    def counting(*args, **kwargs):
        for fb in real(*args, **kwargs):
            yielded.append(fb)
            yield fb

    monkeypatch.setattr(F, "antichain_filter_bases", counting)
    sp = build_space(4, [0b0001, 0b0010])
    report = run_claim("T41", Universe("explicit", explicit=(("x", sp),)))
    assert report.status == "pass"
    assert 0 < len(yielded) <= SAMPLED_BASES


def test_t41_equivalence_audit_four_points():
    from topolab.verify import homeomorphism_classes

    spaces = all_spaces(4)
    classes = homeomorphism_classes(spaces)
    assert len(classes) == 33
    for cls in classes:
        sp = spaces[cls[0]]
        a, b, c, d = check_t41(sp, random.Random(f"t41|{sp.opens}"))
        assert a == b == c == d


def _families_ok_by_recursion(space, sets, target):
    """Reference clause (d): depth-first over every subfamily, pruned once
    the preinterior intersection misses ``target``."""
    pints = {m: space.preinterior(m) for m in sets}
    full = space.full

    def dfs(idx, inter, pinter):
        if pinter & target == 0:
            return True  # subfamily already witnesses the conclusion
        if idx == len(sets):
            return bool(inter & target)  # vacuous unless intersection misses
        m = sets[idx]
        if not dfs(idx + 1, inter, pinter):
            return False
        return dfs(idx + 1, inter & m, pinter & pints[m])

    return dfs(0, full, full)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_clause_d_matches_the_recursive_reference(n):
    from topolab.filters import _families_ok

    for sp in all_spaces(n):
        sets = sp.preclosed_masks
        for target in range(sp.full + 1):
            assert _families_ok(sp, sets, target) == _families_ok_by_recursion(
                sp, sets, target)

"""Filter-base convergence machinery and the four-clause characterizations."""

import random
from itertools import combinations
from pathlib import Path

import pytest

from topolab.core import TopologyError, bits, build_space, discrete
from topolab.filters import (
    SAMPLED_BASES,
    FilterBase,
    _clause_c,
    antichain_filter_bases,
    check_t41,
    check_t43,
    maximal_filter_bases,
    pre_theta_accumulates,
    pre_theta_converges,
    principal_filter_bases,
)

from conftest import all_spaces
from oracles import is_strictly_finer, preopen_at


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


# -- accumulation and clause (c) against the preopen scan -----------------------


def _accumulates_by_scan(fb, x):
    """Reference accumulation, the definition scanned: every preopen
    neighbourhood of x has a preclosure meeting every member."""
    sp = fb.space
    return all(sp.preclosure(v) & f for v in preopen_at(sp, x) for f in fb.members)


def _clause_c_by_scan(space):
    """Reference clause (c) on ``space``, as a function of a subset ``s``
    and the antichain bases drawn for it: every principal or drawn base
    that meets ``s`` is rebuilt by the checking constructor and has a
    scanned accumulation point in ``s``.  Scans are kept per (members,
    point), as the subsets of one space share bases."""
    principal = principal_filter_bases(space)
    scanned = {}

    def accumulates(members, x):
        if (members, x) not in scanned:
            scanned[members, x] = _accumulates_by_scan(FilterBase(space, members), x)
        return scanned[members, x]

    def clause(s, drawn):
        return all(any(accumulates(fb.members, x) for x in bits(s))
                   for fb in (*principal, *drawn) if fb.meets(s))

    return clause


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_accumulation_reads_the_closure_table_as_the_scan_does(n):
    for sp in all_spaces(n):
        bases = list(principal_filter_bases(sp))
        if n <= 3:
            bases += antichain_filter_bases(sp)
        else:
            bases += antichain_filter_bases(sp, random.Random(f"acc|{sp.opens}"), 40)
        for fb in bases:
            for x in range(n):
                assert pre_theta_accumulates(fb, x) == _accumulates_by_scan(fb, x)
        with pytest.raises(TopologyError):
            pre_theta_accumulates(bases[0], n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_clause_c_matches_the_scan_with_the_claim_seeds(n, monkeypatch):
    import topolab.filters as F

    # the reference judges the very bases the clause drew (the draws
    # themselves are pinned below)
    drawn = []
    real = F.antichain_filter_bases

    def recorded(*args):
        for fb in real(*args):
            drawn.append(fb)
            yield fb

    monkeypatch.setattr(F, "antichain_filter_bases", recorded)
    for sp in all_spaces(n):
        reference = _clause_c_by_scan(sp)
        for s in range(sp.full + 1):
            drawn.clear()
            rng = random.Random(f"t43|{sp.opens}|{s}")
            assert _clause_c(sp, s, rng, 30) == reference(s, drawn)
            if n == 4:
                assert len(drawn) > 0


def test_antichain_draws_are_pinned():
    for space, minima in (
        (build_space(4, [0b0001, 0b0010]),
         [4, 11, 15, 2, 7, 12, 7, 2, 1, 3, 1, 4, 3, 5, 6, 4, 4, 8, 5, 12, 6, 9,
          12, 10]),
        (build_space(5, [0b00011, 0b00110]),
         [8, 21, 29, 4, 13, 24, 14, 5, 1, 7, 31, 28, 10, 6, 9, 11, 16, 3, 16, 9,
          31, 18]),
    ):
        rng = random.Random(5)
        assert [fb.minimum() for fb in antichain_filter_bases(space, rng, 40)] == minima


def test_base_axiom_check_matches_the_pairwise_definition():
    """The constructor's one-intersection test accepts exactly the families
    in which any two members have a member below both, over every family of
    nonempty subsets of a 3-point carrier."""
    d3 = discrete(3)
    nonempty = range(1, d3.full + 1)
    for r in range(1, len(nonempty) + 1):
        for fam in combinations(nonempty, r):
            directed = all(any(f3 & ~(f1 & f2) == 0 for f3 in fam)
                           for f1 in fam for f2 in fam)
            if directed:
                assert FilterBase(d3, fam).members == tuple(sorted(fam))
            else:
                with pytest.raises(TopologyError, match="axiom"):
                    FilterBase(d3, fam)
    with pytest.raises(TopologyError, match="axiom"):
        FilterBase(d3, (0b011, 0b110))  # {1} is missing


def test_the_benchmark_tracer_binds_and_counts_the_filter_layer(monkeypatch):
    """``perfbench/tracer.py`` rebinds the filter functions by name, reads
    ``.minimum()`` off every base given to ``pre_theta_accumulates`` and
    patches ``FiniteSpace`` methods; a claim run under it must work."""
    import topolab.filters as F
    from topolab.core import FiniteSpace
    from topolab.verify import Universe, run_claim

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from tracer import Tracer

    real = F.pre_theta_accumulates, FiniteSpace.__dict__["closure"]
    tracer = Tracer()
    tracer.install()
    try:
        for cid in ("T41", "T43"):
            assert run_claim(cid, Universe.parse("exhaustive:3")).status == "pass"
    finally:
        tracer.uninstall()
    assert (F.pre_theta_accumulates, FiniteSpace.__dict__["closure"]) == real
    layers = tracer.metrics()
    assert layers["filters.check_t41.calls"][0] > 0
    assert layers["filters.check_t43.calls"][0] > 0
    assert layers["filters.pre_theta_accumulates.calls"][0] > 0

"""Filter bases on finite spaces: pre-theta convergence and accumulation,
and the per-clause forms of the filter characterizations of p-closedness
(absolute and relative to a subset).

Every filter base on a finite carrier has a smallest member (the base
axiom forces one below any two members), so bases are canonicalized by
that minimum; convergence and accumulation depend only on it.  A base
pre-theta-accumulates at x iff x lies in the pre-theta closure of each
member, so accumulation reads a per-space table of those closures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce
from itertools import chain, combinations
from operator import and_

from topolab.core import FiniteSpace, TopologyError, bits
from topolab.properties import check_cover, check_cover_relative

# seeded draws of antichain-generated bases checked whole per space on
# carriers of four or more points (smaller carriers enumerate them all)
SAMPLED_BASES = 256


@dataclass(frozen=True)
class FilterBase:
    """A nonempty family of nonempty subsets, downward directed."""

    space: FiniteSpace
    members: tuple[int, ...]

    def __post_init__(self):
        if not self.members:
            raise TopologyError("filter base needs at least one member")
        for m in self.members:
            self.space.check_fits(m)
            if m == 0:
                raise TopologyError("filter base cannot contain the empty set")
        # a finite family is downward directed iff its intersection is a
        # member (that member lies below any two)
        members = set(self.members)
        meet = reduce(and_, members)
        if meet not in members:
            raise TopologyError(
                "filter base axiom fails: no member below all of them "
                f"(their intersection is {set(bits(meet))})"
            )
        object.__setattr__(self, "members", tuple(sorted(members)))

    def minimum(self) -> int:
        return reduce(and_, self.members)

    def meets(self, s: int) -> bool:
        return all(f & s for f in self.members)


def pre_theta_converges(fb: FilterBase, x: int) -> bool:
    """Every preopen neighbourhood's preclosure traps some member."""
    xbit = _point_bit(fb.space, x)
    for v, pcl_v in fb.space._preopen_pcl:
        if v & xbit and not any(f & ~pcl_v == 0 for f in fb.members):
            return False
    return True


def pre_theta_accumulates(fb: FilterBase, x: int) -> bool:
    """Every preopen neighbourhood's preclosure meets every member: x lies
    in the pre-theta closure of every member."""
    xbit = _point_bit(fb.space, x)
    pcl = pre_theta_closures(fb.space)
    return all(pcl[f] & xbit for f in fb.members)


def pre_theta_closures(space: FiniteSpace) -> tuple[int, ...]:
    """pcl_theta(m) for every mask m, indexed by m; kept in the space's
    memo under ``("pcl-theta",)``."""
    return space.recall(("pcl-theta",), lambda: tuple(
        map(space.pre_theta_closure, range(space.full + 1))))


def _point_bit(space: FiniteSpace, x: int) -> int:
    if not 0 <= x < space.n:
        raise TopologyError(f"point {x} outside carrier")
    return 1 << x


def maximal_filter_bases(space: FiniteSpace) -> tuple[FilterBase, ...]:
    """Representatives of the maximal filter bases: the point bases."""
    return tuple(FilterBase(space, (1 << x,)) for x in range(space.n))


def principal_filter_bases(space: FiniteSpace) -> tuple[FilterBase, ...]:
    """One representative per filter on the carrier (all are principal)."""
    return tuple(
        FilterBase(space, (m,)) for m in range(1, space.full + 1)
    )


def antichain_filter_bases(space: FiniteSpace, rng: random.Random | None = None,
                           samples: int = 0):
    """Filter bases generated by antichains of nonempty subsets, closed
    under pairwise intersection; exhaustive when no rng is given."""
    full = space.full
    nonempty = [m for m in range(1, full + 1)]

    def close(family):
        fam = set(family)
        while True:
            new = {a & b for a in fam for b in fam} - fam
            if 0 in new or not new:
                return None if 0 in new else fam
            fam |= new

    if rng is None:
        for r in range(1, len(nonempty) + 1):
            for combo in combinations(nonempty, r):
                if any(
                    a != b and a & ~b == 0 for a in combo for b in combo
                ):
                    continue  # not an antichain
                fam = close(combo)
                if fam is not None:
                    yield FilterBase(space, tuple(fam))
        return
    for _ in range(samples):
        k = rng.randint(1, 3)
        combo = tuple(rng.sample(nonempty, k))
        if any(a != b and a & ~b == 0 for a in combo for b in combo):
            continue
        fam = close(combo)
        if fam is not None:
            yield FilterBase(space, tuple(fam))


# -- clause evaluation for the absolute characterization -----------------------


def _clause_c(space: FiniteSpace, s: int, rng: random.Random | None,
              samples: int) -> bool:
    """Clause (c): every filter base meeting ``s`` has a
    pre-theta-accumulation point in ``s``.

    Accumulation depends only on a base's minimum, and the principal bases
    cover every minimum, so they decide the clause.  Antichain-generated
    bases (all of them when n <= 3, else ``samples`` seeded draws when an
    rng is given) are then evaluated whole, which checks that lemma: with
    every principal base accumulating, such a base disagrees with its
    minimum exactly when it does not accumulate itself."""
    points = tuple(bits(s))
    bases = [fb for fb in principal_filter_bases(space) if fb.meets(s)]
    if space.n <= 3:
        extra = antichain_filter_bases(space)
    elif rng is not None:
        extra = antichain_filter_bases(space, rng, samples)
    else:
        extra = ()
    return all(
        any(pre_theta_accumulates(fb, x) for x in points)
        for fb in chain(bases, (fb for fb in extra if fb.meets(s)))
    )


def _families_ok(space: FiniteSpace, sets: tuple[int, ...], target: int) -> bool:
    """Over every subfamily whose intersection misses ``target``: some
    (finite) subfamily's preinterior intersection misses it too.

    One pass per set over the distinct (intersection, preinterior
    intersection) pairs of the subfamilies so far, both cut to ``target``.
    A pair whose preinterior part is empty witnesses the conclusion for
    every extension, so it is dropped."""
    states = {(target, target)} if target else set()
    for m in sets:
        pm = space.preinterior(m)
        states |= {(i & m, p & pm) for i, p in states if p & pm}
    return all(i for i, _p in states)


def check_t41(space: FiniteSpace, rng: random.Random | None = None,
              samples: int = SAMPLED_BASES) -> tuple[bool, bool, bool, bool]:
    """The four equivalent faces of p-closedness, each computed honestly."""
    a = check_cover(space, "p-closed").outcome is True
    b = all(
        any(pre_theta_converges(fb, x) for x in range(space.n))
        for fb in maximal_filter_bases(space)
    )
    c = _clause_c(space, space.full, rng, samples)
    d = _families_ok(space, space.preclosed_masks, space.full)
    return a, b, c, d


def check_t43(space: FiniteSpace, s: int, rng: random.Random | None = None,
              samples: int = SAMPLED_BASES) -> tuple[bool, bool, bool, bool]:
    """Relative analogs of the four clauses for a distinguished subset."""
    space.check_fits(s)
    a = check_cover_relative(space, s, "p-closed").outcome is True
    b = all(
        any(pre_theta_converges(fb, x) for x in bits(s))
        for fb in maximal_filter_bases(space)
        if fb.meets(s)
    )
    c = _clause_c(space, s, rng, samples)
    d = _families_ok(space, space.preclosed_masks, s)
    return a, b, c, d

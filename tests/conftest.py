"""Shared helpers: tiny named spaces and an independent topology enumerator."""

from __future__ import annotations

from functools import lru_cache

import pytest

from topolab.core import FiniteSpace, build_space
from topolab.skeleton import (Node, SkeletonError, SkeletonSpace, all_symbolic_sets,
                              random_finite_skeleton)


@lru_cache(maxsize=None)
def all_spaces(n: int) -> tuple[FiniteSpace, ...]:
    """Every labeled topology on n points, by brute-force family scan.

    Deliberately naive: used as an oracle against the package's own
    enumeration and as the universe for exhaustive property checks.
    """
    full = (1 << n) - 1
    subsets = range(full + 1)
    out = []
    middle = [m for m in subsets if m not in (0, full)]
    for pick in range(1 << len(middle)):
        fam = {0, full}
        for i, m in enumerate(middle):
            if pick >> i & 1:
                fam.add(m)
        ok = True
        for a in fam:
            if not ok:
                break
            for b in fam:
                if a | b not in fam or a & b not in fam:
                    ok = False
                    break
        if ok:
            out.append(FiniteSpace(n, tuple(fam)))
    return tuple(out)


def omega_skeletons(seed, count, max_templates=300):
    """Distinct seeded random skeletons of at most 2 nodes, one of them
    omega, with small template spaces (the template search is slow)."""
    import random

    rng = random.Random(seed)
    out = []
    while len(out) < count:
        base = random_finite_skeleton(rng)
        i = rng.randrange(len(base.nodes))
        nodes = list(base.nodes)
        nodes[i] = Node(nodes[i].name, None, nodes[i].mode, nodes[i].block)
        try:
            sk = SkeletonSpace(tuple(nodes), base.rels)
        except SkeletonError:
            continue
        if sk not in out and len(all_symbolic_sets(sk)) <= max_templates:
            out.append(sk)
    return out


@pytest.fixture
def s2():
    return build_space(2, [0b10])


@pytest.fixture
def i2():
    return build_space(2, [])


@pytest.fixture
def d2():
    return build_space(2, [0b01, 0b10])

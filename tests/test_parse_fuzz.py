"""Fuzzed input to the two text parsers and to the symbolic-set reader:
every input either parses, and then survives a format/parse round trip, or
is refused with the parser's own error (which the CLI turns into exit 3),
never with another exception."""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from topolab.core import (TopologyError, build_space, discrete, excluded_point, parse_topo,
                          sierpinski)
from topolab.skeleton import (SkeletonError, SkeletonSpace, SymbolicSet,
                              all_symbolic_sets, catalog, catalog_names, format_skel,
                              parse_skel)

from oracles import format_topo

TOPO_SEEDS = tuple(format_topo(sp) for sp in (
    sierpinski(), discrete(3), excluded_point(4), build_space(4, [0b0011, 0b0110])))
SKEL_SEEDS = tuple(format_skel(entry.space) for entry in map(catalog, catalog_names())
                   if isinstance(entry.space, SkeletonSpace))

# the formats' own characters, plus digits that str.isdigit accepts and
# int() does not (superscript two), or that int() reads too (Arabic-Indic
# three, fullwidth one), and a no-break space
FORMAT_CHARS = "0123456789 \n\t#.<=_-eomnpstrcdkablhiqw²٣１\xa0"
PIECES = st.text(st.one_of(st.sampled_from(FORMAT_CHARS), st.characters()),
                 max_size=6)


@st.composite
def mutated(draw, seeds):
    """A valid file with a few short spans replaced."""
    text = draw(st.sampled_from(seeds))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 8)))
        text = text[:i] + draw(PIECES) + text[j:]
    return text


def test_the_seed_files_parse():
    assert len(SKEL_SEEDS) >= 3
    for text in TOPO_SEEDS:
        assert format_topo(parse_topo(text)) == text
    for text in SKEL_SEEDS:
        assert format_skel(parse_skel(text)) == text


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(max_size=120), mutated(TOPO_SEEDS)))
@example("points ²\n")
@example("points " + "1" * 5000 + "\n")
@example("points 3\nopen \u0661\n")
@example("points 3\nopen +1\n")
@example("points 11\nopen 1_0\n")
@example("points 3\nopen \uff11\n")
@example("points 3\nopen -1\n")
def test_parse_topo_parses_or_raises_topology_error(text):
    try:
        space = parse_topo(text)
    except TopologyError:
        return
    assert parse_topo(format_topo(space)) == space


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(max_size=120), mutated(SKEL_SEEDS)))
@example("node n0 card ² mode antichain block antichain2\n")
@example("node n0 card 2 mode antichain block antichain2\n"
         "node n1 card 1 mode antichain block antichain2\n"
         "rel n0.e1 <= n1.e²\n")
def test_parse_skel_parses_or_raises_skeleton_error(text):
    try:
        space = parse_skel(text)
    except SkeletonError:
        return
    assert parse_skel(format_skel(space)) == space


SKELETONS = tuple(parse_skel(text) for text in SKEL_SEEDS)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12)
PATTERNS = st.sampled_from(["-", "", "e0", "e1", "e2", "e0,e1", "e1,e0", "e0,e0",
                            "e0,e1,e2", "1", "e 1", "ee1", "e\u0661", "e99999"])
COUNTS = st.one_of(st.integers(-2, 4), st.sampled_from(["fin", "inf", "FIN", True, 1.0]),
                   JSON_VALUES)


@st.composite
def symbolic_set_json(draw):
    """A skeleton and a JSON value for it: any value, or one shaped like
    ``SymbolicSet.to_json`` with node names, patterns and counts drawn
    mostly from valid ones."""
    sp = draw(st.sampled_from(SKELETONS))
    names = st.one_of(st.sampled_from([nd.name for nd in sp.nodes]), st.text(max_size=3))
    shaped = st.dictionaries(names, st.dictionaries(PATTERNS, COUNTS, max_size=3),
                             max_size=3)
    return sp, draw(st.one_of(JSON_VALUES, shaped))


@settings(max_examples=300, deadline=None)
@given(symbolic_set_json())
def test_symbolic_set_from_json_reads_or_raises_skeleton_error(case):
    sp, data = case
    try:
        t = SymbolicSet.from_json(sp, data)
    except SkeletonError:
        return
    assert SymbolicSet.from_json(sp, t.to_json()) == t


def test_every_catalog_template_round_trips_through_json():
    for sp in SKELETONS:
        for t in all_symbolic_sets(sp):
            assert SymbolicSet.from_json(sp, json.loads(json.dumps(t.to_json()))) == t

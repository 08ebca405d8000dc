from operator import is_

from hypothesis import given, settings, strategies as st

from hdabridge.cubical import CellId
from hdabridge.models import Marking
from hdabridge.util import backtrack, breadth_first, canon_key, level_search, sorted_by_key

# a -> b -> d, a -> c -> d, d -> a; e -> a; f alone
GRAPH = {"a": ["b", "c"], "b": ["d"], "c": ["d"], "d": ["a"], "e": ["a"], "f": []}


def walk(roots):
    return list(breadth_first(roots, lambda x: [(f"{x}{y}", y) for y in GRAPH[x]]))


def test_breadth_first_yields_roots_then_every_edge_in_listed_order():
    assert walk(["a"]) == [
        (None, None, "a", True),
        ("a", "ab", "b", True),
        ("a", "ac", "c", True),
        ("b", "bd", "d", True),
        ("c", "cd", "d", False),
        ("d", "da", "a", False),
    ]


def test_breadth_first_skips_roots_already_reached():
    steps = walk(["a", "d", "e", "f", "e"])
    assert [y for x, _, y, _ in steps if x is None] == ["a", "e", "f"]
    assert steps[-2:] == [("e", "ea", "a", False), (None, None, "f", True)]


def test_breadth_first_reaches_each_node_once_and_each_edge_once():
    steps = walk(["f", "e", "c"])
    new = [y for _, _, y, is_new in steps if is_new]
    assert sorted(new) == sorted(GRAPH) and len(new) == len(set(new))
    edges = [step for x, step, _, _ in steps if x is not None]
    assert sorted(edges) == sorted(f"{x}{y}" for x in GRAPH for y in GRAPH[x])


def test_breadth_first_new_nodes_come_out_level_by_level():
    # a binary tree numbered level by level; a depth-first walk would reach 3 before 2
    def children(i):
        return [(None, j) for j in (2 * i + 1, 2 * i + 2) if j < 15]

    assert [y for _, _, y, new in breadth_first([0], children) if new] == list(range(15))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(st.sets(st.integers(0, 5)), max_size=6).map(
    lambda reads: [sorted(i for i in read if i < pos) for pos, read in enumerate(reads)]))
def test_level_search_yields_what_backtrack_yields_asking_once_per_reading(reads):
    # a slot allows the values below 3 that differ from the sum of what it reads
    calls = []

    def options(pos, partial):
        calls.append((pos, tuple(partial[i] for i in reads[pos])))
        return [v for v in range(3) if v != sum(partial[i] for i in reads[pos]) % 3]

    want = list(backtrack(reads, options))
    del calls[:]
    assert level_search(reads, options) == want
    assert len(calls) == len(set(calls))
    assert set(calls) == {(pos, tuple(values[i] for i in reads[pos]))
                          for values in want for pos in range(len(reads))}


names = st.text("abc", max_size=3)
ints = st.integers(-3, 3)
members = st.one_of(names, ints)
flat = st.one_of(st.tuples(), st.tuples(names, names), st.tuples(ints, ints, ints),
                 st.lists(names, max_size=3).map(tuple))
mixed = st.lists(members, max_size=3).map(tuple)
nested = st.lists(st.one_of(members, flat), max_size=3).map(tuple)
VALUE_LISTS = st.one_of(
    st.lists(names), st.lists(ints), st.lists(st.booleans()),
    st.lists(st.one_of(ints, st.booleans())), st.lists(members),
    st.lists(st.floats(allow_nan=False)), st.lists(st.one_of(ints, st.floats(-2, 2))),
    st.lists(flat), st.lists(mixed), st.lists(nested), st.lists(st.one_of(flat, names)),
    st.lists(st.frozensets(names, max_size=3)), st.lists(st.frozensets(ints, max_size=3)),
    st.lists(st.frozensets(members, max_size=3)),
    st.lists(st.one_of(st.frozensets(names), flat)),
    st.lists(st.builds(CellId, st.integers(0, 2), st.integers(0, 3))),
    st.lists(st.dictionaries(names, st.integers(1, 2), max_size=2).map(Marking.of)),
)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(VALUE_LISTS.flatmap(lambda xs: st.permutations(xs + xs[:2])))
def test_sorted_by_key_is_the_canonical_order(values):
    # the same objects in the same places: equal elements keep their order
    got, want = sorted_by_key(iter(values)), sorted(values, key=canon_key)
    assert list(map(type, got)) == list(map(type, want))
    assert all(map(is_, got, want))


def test_sorted_by_key_sorts_plain_values_as_canon_key_does():
    assert sorted_by_key([2, "b", 1, "a"]) == [1, 2, "a", "b"]
    assert sorted_by_key([True, 0, 1, False]) == [False, True, 0, 1]
    assert sorted_by_key([frozenset("b"), frozenset("ac"), frozenset()]) == \
        [frozenset(), frozenset("ac"), frozenset("b")]
    assert sorted_by_key([("b",), (), ("a", "c")]) == [(), ("a", "c"), ("b",)]
    assert sorted_by_key([10.0, 9.5]) == [10.0, 9.5]  # floats sort by their repr
    cells = [CellId(1, 0), CellId(0, 12), CellId(0, 2), CellId(1, 0), CellId(2, 1)]
    assert sorted_by_key(cells) == sorted(cells, key=canon_key) == \
        [CellId(0, 2), CellId(0, 12), CellId(1, 0), CellId(1, 0), CellId(2, 1)]
    assert sorted_by_key(cells[:1]) == cells[:1] and sorted_by_key([]) == []

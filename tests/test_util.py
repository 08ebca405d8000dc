from hdabridge.util import breadth_first

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

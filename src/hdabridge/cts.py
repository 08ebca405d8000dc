"""Cubical transition systems: the generic engine behind every
model-to-automaton translation.

A CTS is a state space acted on by words of events.  Because enabling is
invariant under reordering and idle insertion, it is stored as a predicate
on multisets; the action of a word is the composite of single-event steps,
which the axioms make order-independent.  Every CTS generates a higher
dimensional automaton whose n-cells are the enabled words of length n.
Those cells are grown one dimension at a time, first as orbits (a state
and an enabled multiset), and laid out along the word prefix tree: an
n-cell is an (n-1)-cell followed by one event, and a cell's children
follow it in increasing event rank, which is the canonical (state, word)
order over the states and events in canonical order.  Every face,
transposition and word of an n-cell is composed from the tables of the
dimension below.  A CTS carries no labels: each event is its own
label, so no event may be the idle symbol ``*``, which names only
degenerate cells.

Four systems instantiate it: an event structure's configurations
(``es_to_cts``), a net's reachable markings (``pn_to_cts``), the states of
an automaton with concurrency relations (``acr_to_cts``), and the
vertices of a deterministic automaton acted on by its edges and squares,
whose automaton is the 2-coskeletal fill (``coskeleton_fill``).  Vertex j
of the automaton is the state of rank j (``Hda.states``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain, repeat, starmap
from operator import add, ge
from typing import Callable, Mapping

from .cubical import (
    SIGNS,
    STAR,
    CellId,
    Hda,
    PrecubicalComplex,
    SymmetricCubicalComplex,
    check_deterministic,
)
from .errors import DimensionCapExceeded, NotOneDeterministic, StarClash
from .models import Acr, EventStructure, PetriNet, configurations, reachable_markings
from .util import sorted_by_key

Multiset = tuple  # events in canonical sorted order, repeats allowed


def multiset(events) -> Multiset:
    return tuple(sorted_by_key(events))


@dataclass(frozen=True)
class Cts:
    """States, events, steps and an enabling predicate on multisets.

    The automaton builder relies on three properties, which every CTS
    that ``es_to_cts``, ``pn_to_cts``, ``acr_to_cts`` (of a valid ACR) and
    ``coskeleton_fill`` build has:
    enabling is closed under sub-multisets, ``delta`` is defined for every
    event enabled at a state, and the faces of an enabled cube are enabled
    at the fired state (if ``m + (e,)`` is enabled at x, ``m`` is enabled at
    ``delta[x, e]``).  A CTS that breaks them makes ``cts_to_hda`` raise
    KeyError.
    """

    states: frozenset
    initial: object
    events: frozenset
    delta: Mapping                       # (state, event) -> state
    enabled: Callable[[object, Multiset], bool]

    @cached_property
    def ranked(self) -> tuple:
        """States and events in canonical order: an index is a rank."""
        return sorted_by_key(self.states), sorted_by_key(self.events)


# ---------------------------------------------------------------------------
# CTS -> HDA
# ---------------------------------------------------------------------------

def enabled_cells_by_dim(c: Cts, max_dim: int) -> tuple:
    """The enabled words of length 1..``max_dim`` as a prefix
    tree, and the multisets that the dimension cap must test.

    Returns ``(tree, beyond)``.  ``tree[n - 1]`` holds two columns over
    the n-cells, ``(parents, lasts)``: cell j spells the word of the
    (n-1)-cell ``parents[j]`` (the 0-cells are the states, by rank)
    followed by the event of rank ``lasts[j]``.  Each cell's children
    follow it in increasing last rank, which is canonical (state, word)
    order.  ``beyond`` lazily yields (state, multiset) pairs of size
    ``max_dim + 1``; some enabled word is longer than ``max_dim`` exactly
    when one of them is enabled.

    Orbits (a state and an enabled multiset, as a nondecreasing rank
    tuple) are grown one dimension at a time over all states, each
    extended only by events at or after its last one, with one
    ``c.enabled`` call per candidate; an orbit's number is its position
    in its dimension.  Every sub-multiset of an enabled multiset is
    enabled, so past size 1 the candidates are only the events enabled
    alone at the state, and past size 2 a multiset is extended by its own
    last event e only where (e, e) is enabled.  An orbit M is a child of
    M - e for each distinct letter e of M, the orbit it was grown from
    being M - (its last letter); taken in order, the orbits list every
    orbit's children by rank.
    """
    states, events = c.ranked
    size = len(events)
    alone, twice = [[] for _ in states], [[] for _ in states]  # per state: ranks enabled alone, twice

    def after(s, ranks):  # the ranks that may extend the orbit ``ranks`` at state s
        if not ranks:
            return range(size)
        r, j = ranks[-1], alone[s].index(ranks[-1])
        if len(ranks) == 1:
            return alone[s][j:]
        return [r] * (r in twice[s]) + alone[s][j + 1:]

    # an orbit: (the orbit it was grown from, state rank, state, ranks, events)
    orbits = [(None, s, x, (), ()) for s, x in enumerate(states)]
    ids, tree, orbit = {}, [], range(len(states))  # orbit: each cell's orbit number
    for n in range(1, max_dim + 1):
        kids, below, ids = [[] for _ in orbits], ids, {}  # per orbit: child orbit * size + last rank
        orbits = [(i, s, x, ranks + (r,), m + (events[r],))
                  for i, (_, s, x, ranks, m) in enumerate(orbits)
                  for r in after(s, ranks) if c.enabled(x, m + (events[r],))]
        for j, (i, s, _, ranks, _) in enumerate(orbits):
            ids[s, ranks] = j
            r = ranks[-1]
            if n == 1:
                alone[s].append(r)
            elif n == 2 and ranks[0] == r:
                twice[s].append(r)
            kids[i].append(j * size + r)
            for k in range(ranks.index(r)):  # the other distinct letters
                if not k or ranks[k] != ranks[k - 1]:
                    kids[below[s, ranks[:k] + ranks[k + 1:]]].append(j * size + ranks[k])
        counts = map(len, map(kids.__getitem__, orbit))
        packed = list(chain.from_iterable(map(kids.__getitem__, orbit)))
        tree.append((list(chain.from_iterable(map(repeat, range(len(orbit)), counts))),
                     list(map(size.__rmod__, packed))))
        orbit = list(map(size.__rfloordiv__, packed))
    beyond = ((x, m + (events[r],)) for _, s, x, ranks, m in orbits for r in after(s, ranks))
    return tree, beyond


def cts_to_hda(c: Cts, max_dim: int, truncate_cells: bool = False) -> Hda:
    """The automaton with one n-cell per enabled word of length n.

    Negative faces drop a letter; positive faces additionally advance the
    state through that letter.  Transpositions permute adjacent letters.
    Raises StarClash when an event is the idle symbol, and
    DimensionCapExceeded when an enabled word longer than ``max_dim``
    exists, unless ``truncate_cells`` asks for the truncated automaton.

    Tables are composed along the prefix tree, looking a cell up by its
    parent and last event rank (``child``).  For a cell g.a.b, face
    (n-1,-) is its parent g.a, face (n-1,+) is child(face(n-2,+)(g.b), a)
    (for n = 1, the state's step), transposition n-2 is g.b.a, and
    transposition i < n-2 is child(T(n-1,i)(g.a), b).  Every face below
    the last is face(i+1) . transposition(i).
    """
    if STAR in c.events:
        raise StarClash("the idle event * is reserved for degenerate cells")
    if max_dim < 0:  # no automaton: every state's empty word is longer
        raise DimensionCapExceeded(f"enabled words longer than {max_dim} exist; the least cap is 0")
    tree, beyond = enabled_cells_by_dim(c, max_dim)
    if not truncate_cells and any(starmap(c.enabled, beyond)):
        raise DimensionCapExceeded(
            f"enabled words longer than {max_dim} exist; pass truncate_cells=True to drop them")

    states, events = c.ranked
    size = len(events)

    def child_keys(parents, ranks):
        return map(add, map(size.__mul__, parents), ranks)

    rank = dict(zip(states, range(len(states))))
    single = list(zip(events))
    cells, faces, transpositions = {0: range(len(states))}, {}, {}
    words = [[()] * len(states)]  # per dimension, each cell's word
    # the top dimension with cells: none above it has any
    top = next((n for n, (parents, _) in enumerate(tree) if not parents), max_dim)
    child = None  # child[p * size + r]: the cell that extends cell p by event rank r
    for n, (parents, lasts) in enumerate(tree[:top], 1):
        count = len(parents)
        below, child = child, dict(zip(child_keys(parents, lasts), range(count)))
        if n == 1:
            steps = zip(map(states.__getitem__, parents), map(events.__getitem__, lasts))
            swaps, last_plus = [], list(map(rank.__getitem__, map(c.delta.__getitem__, steps)))
        else:
            up, ups = tree[n - 2]
            grand, before = list(map(up.__getitem__, parents)), list(map(ups.__getitem__, parents))
            dropped = list(map(below.__getitem__, child_keys(grand, lasts)))  # g.b
            swaps = [list(map(child.__getitem__, child_keys(map(table.__getitem__, parents), lasts)))
                     for table in swaps]
            swaps.append(list(map(child.__getitem__, child_keys(dropped, before))))
            last_plus = list(map(below.__getitem__,
                                 child_keys(map(columns[n - 2, "+"].__getitem__, dropped), before)))
        columns = {(n - 1, "-"): parents, (n - 1, "+"): last_plus}
        for i in reversed(range(n - 1)):
            for sign in SIGNS:
                columns[i, sign] = list(map(columns[i + 1, sign].__getitem__, swaps[i]))
        cells[n] = range(count)
        faces.update(((n, i, sign), columns[i, sign]) for i in range(n) for sign in SIGNS)
        transpositions.update(((n, i), swap) for i, swap in enumerate(swaps))
        words.append(list(map(add, map(words[-1].__getitem__, parents),
                              map(single.__getitem__, lasts))))
    for n in range(top + 1, max_dim + 1):
        cells[n] = range(0)
        words.append([])
        faces.update(((n, i, sign), []) for i in range(n) for sign in SIGNS)
        transpositions.update(((n, i), []) for i in range(n - 1))
    skeleton = PrecubicalComplex(cells=cells, faces=faces, max_dim=max_dim)
    return Hda(
        complex=SymmetricCubicalComplex(skeleton=skeleton, transpositions=transpositions),
        alphabet=tuple(events),
        words=words,
        initial=CellId(0, rank[c.initial]),
        states=states,
    )


# ---------------------------------------------------------------------------
# Instantiations
# ---------------------------------------------------------------------------

def es_to_cts(es: EventStructure) -> Cts:
    """States are configurations; a multiset is enabled when it is a set of
    pairwise compatible events, each individually enabled (x | {e} is a
    configuration).  Sets of events are read as masks (``es.masks``), and
    a multiset is tested in one pass, each event against the events
    enabled alone at the state and the events before it and their
    conflicts."""
    configs, masks = configurations(es), es.masks
    bit = {e: b for e, (b, _, _) in masks.items()}
    by_mask = {sum(map(bit.__getitem__, x)): x for x in configs}
    delta, alone = {}, dict.fromkeys(configs, 0)  # alone: a mask per configuration
    for m, y in by_mask.items():
        for e in y:
            if (x := by_mask.get(m ^ bit[e])) is not None:
                delta[x, e] = y
                alone[x] |= bit[e]

    def enabled(x, m: Multiset) -> bool:
        can = alone.get(x)
        if can is None:
            return False
        seen = 0  # the events before e in m, and those they conflict with
        for e in m:
            b, blocks, _ = masks.get(e, (0, 0, 0))
            if not b & can or b & seen:
                return False
            seen |= blocks
        return True

    return Cts(
        states=frozenset(configs),
        initial=frozenset(),
        events=es.events,
        delta=delta,
        enabled=enabled,
    )


def pn_to_cts(n: PetriNet, max_states: int) -> Cts:
    """States are the reachable markings; a multiset is enabled when the
    marking covers the sum of its preconditions.  Enabling is tested on
    each marking's token vector, against summed pre vectors."""
    graph = reachable_markings(n, max_states)
    delta = {(m, e): m2 for m, e, m2 in graph.steps}
    counts, pre = graph.counts, n.vectors.pre

    def enabled(m, ms: Multiset) -> bool:
        have = counts.get(m)
        return have is not None and all(map(ge, have, map(sum, zip(*map(pre.__getitem__, ms)))))

    return Cts(
        states=graph.markings,
        initial=n.m0,
        events=n.events,
        delta=delta,
        enabled=enabled,
    )


def acr_to_cts(a: Acr) -> Cts:
    """States and steps are the ACR's transitions; a multiset is enabled
    when it is empty, a single event with a step, or a sorted pair whose
    events are independent at the state."""
    t = a.ts
    delta = {(s, e): s2 for s, e, s2 in t.trans}

    def enabled(x, m: Multiset) -> bool:
        if len(m) == 2:
            return (x, *m) in a.indep
        return len(m) < 2 and x in t.states and (not m or (x, *m) in delta)

    return Cts(states=t.states, initial=t.initial, events=t.events, delta=delta, enabled=enabled)


def coskeleton_fill(h: Hda, max_dim: int) -> Hda:
    """The 2-coskeletal fill of ``h`` up to ``max_dim``: the automaton of
    the CTS of its 2-skeleton.  The states are the vertices and the steps
    the edges.  A multiset of size at most 2 is enabled at x when a cell
    from x (x itself, an edge or a square) carries it as its sorted word,
    and a larger multiset M when, for each distinct e in M, the edge
    (x, e) exists and M - e is enabled at x and at the edge's end.  So the
    vertices, edges and squares are kept, and every cube whose faces they
    provide is filled, one cell per ordering of its word; cells of ``h``
    above dimension 2 are not read.

    A repeated letter is filled like any other: a word such as ``aab``
    gets a cube wherever its faces exist, as ``pn_to_hda`` gives the net
    with one more token.  Raises NotOneDeterministic when two edges or
    two squares share their source faces and label, which the CTS would
    merge into one cell.
    """
    if not (check_deterministic(h, 1) and check_deterministic(h, 2)):
        raise NotOneDeterministic("two edges or two squares share their source faces and label")
    ends = h.zero_ends
    delta = {(ends[c][0], h.label(c)[0]): ends[c][1] for c in h.cells(1)}
    low = {(ends[c][0], multiset(h.label(c))) for n in range(3) for c in h.cells(n)}

    @cache
    def enabled(x, m: Multiset) -> bool:
        if len(m) <= 2:
            return (x, m) in low
        rests = {e: m[:k] + m[k + 1:] for k, e in enumerate(m)}  # M - e, for each distinct e
        return all((x, e) in delta and enabled(x, rest) and enabled(delta[x, e], rest)
                   for e, rest in rests.items())

    skeleton = Cts(states=frozenset(h.cells(0)), initial=h.initial,
                   events=frozenset(h.alphabet), delta=delta, enabled=enabled)
    return cts_to_hda(skeleton, max_dim, truncate_cells=True)

"""Cubical transition systems: the generic engine behind every
model-to-automaton translation.

A CTS is a state space acted on by words of events.  Because enabling is
invariant under reordering and idle insertion, it is stored as a predicate
on multisets; the action of a word is the composite of single-event steps,
which the axioms make order-independent.  Every CTS generates a higher
dimensional automaton whose n-cells are the enabled words of length n.
Those cells are grown one orbit (a state and an enabled multiset) at a
time, expanded into their orderings in canonical (state, word) order,
and numbered in that order by ``index_complex`` under integer keys: the
state's rank and the ranks of the word's events, over the states and
events in canonical order.  A CTS carries no labels: each event is its
own label.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import ge
from typing import Callable, Mapping

from .cubical import CellId, Hda, index_complex
from .errors import DimensionCapExceeded
from .models import EventStructure, PetriNet, configurations, reachable_markings
from .util import sorted_by_key

Multiset = tuple  # events in canonical sorted order, repeats allowed


def multiset(events) -> Multiset:
    return tuple(sorted_by_key(events))


@dataclass(frozen=True)
class Cts:
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

def _arrangements(ranks: tuple):
    """The distinct orderings of a rank tuple."""
    orders = itertools.permutations(ranks)
    return orders if len(set(ranks)) == len(ranks) else set(orders)


def enabled_cells_by_dim(c: Cts, max_dim: int) -> dict:
    """Enabled star-free words per length, in canonical (state, word) order.

    A word is keyed by ranks, ``(s, w)``: it is at the state
    ``c.ranked[0][s]`` and spells the events ``c.ranked[1][r]`` for ``r``
    in ``w``.

    Enabling depends only on a word's multiset, so the words are grown one
    orbit at a time: a state's enabled multisets of size n, kept as
    nondecreasing rank tuples, are extended only by events at or after
    their last one, with one ``c.enabled`` call per candidate.  Every
    sub-multiset of an enabled multiset is enabled, so this finds them all,
    and past size 1 the candidates are only the events enabled alone.
    Each orbit is then expanded into its distinct orderings, sorted.
    """
    states, events = c.ranked
    cells = {n: [] for n in range(max_dim + 1)}
    for s, x in enumerate(states):
        cells[0].append((s, ()))
        orbits = [((), ())]  # (ranks, events) of the enabled multisets
        after = {(): range(len(events))}  # an orbit's candidates, by its last rank
        for n in range(1, max_dim + 1):
            orbits = [(ranks + (r,), m + (events[r],))
                      for ranks, m in orbits
                      for r in after[ranks[-1:]]
                      if c.enabled(x, m + (events[r],))]
            if not orbits:
                break
            if n == 1:
                alone = [r for (r,), _ in orbits]
                after = {(r,): alone[j:] for j, r in enumerate(alone)}
            cells[n].extend((s, w) for w in sorted(
                w for ranks, _ in orbits for w in _arrangements(ranks)))
    return cells


def _enabled_beyond(c: Cts, states: list, events: list, top: list) -> bool:
    """Whether some rank-keyed word of ``top`` extends to a longer enabled
    word.  Only the nondecreasing word of each orbit is extended, and only
    by events at or after its last one."""
    for s, w in top:
        if list(w) == sorted(w):
            m = tuple(map(events.__getitem__, w))
            if any(c.enabled(states[s], m + (e,)) for e in events[w[-1] if w else 0:]):
                return True
    return False


def cts_to_hda(c: Cts, max_dim: int, truncate_cells: bool = False) -> Hda:
    """The automaton with one n-cell per enabled star-free word of length n.

    Negative faces drop a letter; positive faces additionally advance the
    state through that letter.  Transpositions permute adjacent letters.
    Raises DimensionCapExceeded when an enabled word longer than ``max_dim``
    exists, unless ``truncate_cells`` asks for the truncated automaton.
    """
    if max_dim < 0:  # no automaton: every state's empty word is longer
        raise DimensionCapExceeded(f"enabled words longer than {max_dim} exist; the least cap is 0")
    states, events = c.ranked
    cells_by_dim = enabled_cells_by_dim(c, max_dim)
    if not truncate_cells and _enabled_beyond(c, states, events, cells_by_dim[max_dim]):
        raise DimensionCapExceeded(
            f"enabled words longer than {max_dim} exist; pass truncate_cells=True to drop them")

    # faces and transpositions act on the rank keys as int tuples; each
    # cell's word of events is spelled out once, for its label and its key
    state_rank = dict(zip(states, itertools.count()))
    event_rank = dict(zip(events, itertools.count()))
    step = {(state_rank[x], event_rank[e]): state_rank[y] for (x, e), y in c.delta.items()}

    def face_key(n, key, i, sign):
        x, w = key
        return (x if sign == "-" else step[x, w[i]], w[:i] + w[i + 1:])

    def transpose_key(n, key, i):
        x, w = key
        return (x, w[:i] + (w[i + 1], w[i]) + w[i + 2:])

    complex_, keys = index_complex(cells_by_dim, face_key, transpose_key)
    words = [tuple(map(events.__getitem__, w)) for _, w in keys.values()]
    return Hda(
        complex=complex_,
        alphabet=tuple(events),
        labeling=dict(zip(keys, words)),
        initial=CellId(0, state_rank[c.initial]),
        cell_keys={cell: (states[s], w) for (cell, (s, _)), w in zip(keys.items(), words)},
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

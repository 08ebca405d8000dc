"""Reference encodings: rules the package runs in a faster form, or no
longer runs, kept as the tests' oracles.

``es_enabled`` and ``configurations`` walk configurations as frozensets;
``es_cts_enabled`` is the multiset enabling test of ``es_to_cts`` read
pair by pair; ``hda_to_es`` recovers an event structure from the runs of
an automaton with sets of fired events.  ``validate_cts`` checks the
axioms of a cubical transition system on every small multiset.
"""

from __future__ import annotations

import itertools

from hdabridge.cts import Cts, Multiset, multiset
from hdabridge.cubical import STAR, check_linear_labeling
from hdabridge.errors import NotLinear, NotPartialOrder
from hdabridge.models import EventStructure, validate_es
from hdabridge.util import ValidationReport, breadth_first, sorted_by_key


def es_enabled(es: EventStructure, config: frozenset, e) -> bool:
    """Event e can extend the configuration."""
    return e not in config and es.causes.get(e, set()) <= config and \
        all((e, x) not in es.conflict for x in config)


def configurations(es: EventStructure) -> frozenset:
    """All downward-closed conflict-free subsets, as frozensets."""
    def extensions(config):
        return [(e, config | {e}) for e in es.events if es_enabled(es, config, e)]

    return frozenset(x for _, _, x, new in breadth_first([frozenset()], extensions) if new)


def es_cts_enabled(es: EventStructure):
    """The enabling predicate of ``es_to_cts``: a multiset is enabled at a
    configuration when it repeats no event, each event is enabled alone
    there, and no event conflicts with a later one in the multiset."""
    configs = configurations(es)
    delta = {(x, e): y for x in configs for e in es.events - x if (y := x | {e}) in configs}

    def enabled(x, m) -> bool:
        if x not in configs:
            return False
        if len(set(m)) != len(m):
            return False
        for e in m:
            if (x, e) not in delta:
                return False
        for a, b in itertools.combinations(m, 2):
            if (a, b) in es.conflict:
                return False
        return True

    return enabled


def hda_to_es(h) -> EventStructure:
    """Causality and conflict from the runs of the automaton, each run's
    fired events kept as a frozenset."""
    if not check_linear_labeling(h):
        raise NotLinear("some cell label repeats an event")
    events = set(h.alphabet)

    src, tgt = (h.skeleton.faces.get((1, 0, sign), {}) for sign in ("-", "+"))
    edges_at = {}
    for edge in h.cells(1):
        (label,) = h.labeling[edge]
        if label != STAR:
            edges_at.setdefault(src[edge.index], []).append((label, tgt[edge.index]))

    def runs_on(state):
        vertex, used = state
        return [(label, (tgt, used | {label}))
                for label, tgt in edges_at.get(vertex, ()) if label not in used]

    co_occur = set()
    order_break = set()  # (e, e2): some run fires e2 with no earlier e
    for state, label, (_, used), new in breadth_first([(h.initial.index, frozenset())], runs_on):
        if new:
            co_occur |= {(a, b) for a in used for b in used}
        if state is not None:
            order_break |= {(e, label) for e in events - used}

    leq = {(e, e2) for e in events for e2 in events if e == e2 or (e, e2) not in order_break}
    for e, e2 in itertools.combinations(sorted_by_key(events), 2):
        if (e, e2) in leq and (e2, e) in leq:
            raise NotPartialOrder(f"{e!r} and {e2!r} each precede the other")
    conflict = {(e, e2) for e in events for e2 in events if e != e2 and (e, e2) not in co_occur}
    es = EventStructure(events=frozenset(events), leq=frozenset(leq),
                        conflict=frozenset(conflict))
    report = validate_es(es)
    if not report.ok:
        raise NotPartialOrder(str(report))
    return es


def sub_multisets(m: Multiset):
    seen = set()
    for k in range(len(m) + 1):
        for combo in itertools.combinations(m, k):
            ms = multiset(combo)
            if ms not in seen:
                seen.add(ms)
                yield ms


def multiset_minus(m: Multiset, part: Multiset) -> Multiset:
    out = list(m)
    for e in part:
        out.remove(e)
    return multiset(out)


def successor(c: Cts, state, m: Multiset):
    """Fire the multiset in canonical order; None when a step is missing."""
    current = state
    for e in m:
        current = c.delta.get((current, e))
        if current is None:
            return None
    return current


def validate_cts(c: Cts, max_word: int) -> ValidationReport:
    """Check the axioms on every multiset of size at most ``max_word``."""
    report = ValidationReport("cubical transition system")
    if c.initial not in c.states:
        report.add(f"initial state {c.initial!r} not a state")
    for (s, e), s2 in c.delta.items():
        if s not in c.states or s2 not in c.states or e not in c.events:
            report.add(f"step {(s, e)!r} -> {s2!r} out of range")

    states = sorted_by_key(c.states)
    events = sorted_by_key(c.events)
    for x in states:
        if not c.enabled(x, ()):
            report.add(f"empty word not enabled at {x!r}")
    for size in range(1, max_word + 1):
        for combo in itertools.combinations_with_replacement(events, size):
            m = multiset(combo)
            for x in states:
                if not c.enabled(x, m):
                    continue
                # all orderings must walk through delta to the same state
                targets = set()
                for order in set(itertools.permutations(m)):
                    current = x
                    for e in order:
                        current = c.delta.get((current, e))
                        if current is None:
                            report.add(f"enabled {m!r} at {x!r} but no step {e!r} along {order!r}")
                            break
                    else:
                        targets.add(current)
                if len(targets) > 1:
                    report.add(f"firing order of {m!r} at {x!r} is ambiguous: {targets!r}")
                for part in sub_multisets(m):
                    if not c.enabled(x, part):
                        report.add(f"{m!r} enabled at {x!r} but sub-multiset {part!r} is not")
                        continue
                    mid = successor(c, x, part)
                    rest = multiset_minus(m, part)
                    if mid is None:
                        continue
                    if not c.enabled(mid, rest):
                        report.add(f"{m!r} enabled at {x!r} but {rest!r} not enabled after {part!r}")
                    elif successor(c, mid, rest) != successor(c, x, m):
                        report.add(f"decomposition of {m!r} at {x!r} through {part!r} disagrees")
    return report

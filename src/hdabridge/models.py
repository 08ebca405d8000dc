"""The four traditional concurrency models and their morphisms.

Transition systems, automata with concurrency relations (ACR), prime
event structures and Petri nets, each with a validator that lists every
violated axiom instance.  All values are immutable; helper constructors
normalize the input data (sorting, relation closure) so that structural
equality is meaningful.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import add, ge, sub
from typing import Mapping, NamedTuple

from .cubical import STAR
from .errors import ExplosionLimit, StarClash
from .util import ValidationReport, breadth_first, canon_key, sorted_by_key


# ---------------------------------------------------------------------------
# Transition systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransitionSystem:
    states: frozenset
    initial: object
    events: frozenset
    trans: frozenset  # triples (state, event, state)


def make_ts(states, initial, events, trans) -> TransitionSystem:
    return TransitionSystem(
        states=frozenset(states),
        initial=initial,
        events=frozenset(events),
        trans=frozenset(tuple(t) for t in trans),
    )


def validate_ts(t: TransitionSystem) -> ValidationReport:
    report = ValidationReport("transition system")
    if t.initial not in t.states:
        report.add(f"initial state {t.initial!r} not among the states")
    for (s, e, s2) in sorted_by_key(t.trans):
        if s not in t.states:
            report.add(f"transition source {s!r} not a state")
        if s2 not in t.states:
            report.add(f"transition target {s2!r} not a state")
        if e not in t.events:
            report.add(f"transition event {e!r} not an event")
    return report


@dataclass(frozen=True)
class LabeledTransitionSystem:
    ts: TransitionSystem
    labels: frozenset
    labeling: Mapping  # event -> label, total


def validate_lts(l: LabeledTransitionSystem) -> ValidationReport:
    report = validate_ts(l.ts)
    report.subject = "labeled transition system"
    for e in sorted_by_key(l.ts.events):
        if e not in l.labeling:
            report.add(f"event {e!r} has no label")
        elif l.labeling[e] not in l.labels:
            report.add(f"label {l.labeling[e]!r} of {e!r} outside the label set")
    return report


def idle_completion(t: TransitionSystem) -> TransitionSystem:
    """Adjoin the idle event with a self-loop at every state."""
    if STAR in t.events:
        raise StarClash("the idle event is already present")
    loops = {(s, STAR, s) for s in t.states}
    return TransitionSystem(
        states=t.states,
        initial=t.initial,
        events=t.events | {STAR},
        trans=t.trans | loops,
    )


@dataclass(frozen=True)
class TsMorphism:
    """Total on states, partial on events (missing key means undefined)."""

    sigma: Mapping
    tau: Mapping


def validate_ts_morphism(m: TsMorphism, src: TransitionSystem, dst: TransitionSystem) -> ValidationReport:
    report = ValidationReport("ts morphism")
    for s in sorted_by_key(src.states):
        if s not in m.sigma:
            report.add(f"state map undefined on {s!r}")
        elif m.sigma[s] not in dst.states:
            report.add(f"state map sends {s!r} outside the target")
    for e, e2 in m.tau.items():
        if e not in src.events:
            report.add(f"event map defined on non-event {e!r}")
        elif e2 not in dst.events:
            report.add(f"event map sends {e!r} outside the target")
    if src.initial in m.sigma and m.sigma[src.initial] != dst.initial:
        report.add("initial state not preserved")
    for (s, e, s2) in sorted_by_key(src.trans):
        if s not in m.sigma or s2 not in m.sigma:
            continue
        if e in m.tau:
            image = (m.sigma[s], m.tau[e], m.sigma[s2])
            if image not in dst.trans:
                report.add(f"image {image!r} of {(s, e, s2)!r} is not a transition")
        elif m.sigma[s] != m.sigma[s2]:
            report.add(f"{(s, e, s2)!r} dropped but endpoints map to distinct states")
    return report


def identity_ts_morphism(t: TransitionSystem) -> TsMorphism:
    return TsMorphism(sigma={s: s for s in t.states}, tau={e: e for e in t.events})


def compose_ts_morphisms(f: TsMorphism, g: TsMorphism) -> TsMorphism:
    """g after f; the event parts compose as partial maps."""
    sigma = {s: g.sigma[v] for s, v in f.sigma.items()}
    tau = {e: g.tau[v] for e, v in f.tau.items() if v in g.tau}
    return TsMorphism(sigma=sigma, tau=tau)


# ---------------------------------------------------------------------------
# Automata with concurrency relations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Acr:
    """Deterministic transition system with state-indexed independence.

    ``indep`` holds ordered triples (state, a, b); symmetry means both
    orders are present.
    """

    ts: TransitionSystem
    indep: frozenset


def make_acr(states, initial, events, trans, indep) -> Acr:
    pairs = set()
    for (s, a, b) in indep:
        pairs.add((s, a, b))
        pairs.add((s, b, a))
    return Acr(ts=make_ts(states, initial, events, trans), indep=frozenset(pairs))


def validate_acr(a: Acr) -> ValidationReport:
    report = validate_ts(a.ts)
    report.subject = "automaton with concurrency relations"
    seen = {}
    for (s, e, s2) in sorted_by_key(a.ts.trans):
        if (s, e) in seen and seen[(s, e)] != s2:
            report.add(f"nondeterministic on {(s, e)!r}: {seen[(s, e)]!r} and {s2!r}")
        seen[(s, e)] = s2
    for (s, x, y) in sorted_by_key(a.indep):
        if s not in a.ts.states or x not in a.ts.events or y not in a.ts.events:
            report.add(f"independence triple {(s, x, y)!r} out of range")
            continue
        if x == y:
            report.add(f"independence at {s!r} is not irreflexive: {x!r}")
        if (s, y, x) not in a.indep:
            report.add(f"independence at {s!r} not symmetric on ({x!r},{y!r})")
        s1 = seen.get((s, x))
        s2 = seen.get((s, y))
        if s1 is None or s2 is None:
            report.add(f"{x!r},{y!r} independent at {s!r} but not both enabled")
            continue
        r1 = seen.get((s1, y))
        r2 = seen.get((s2, x))
        if r1 is None or r2 is None or r1 != r2:
            report.add(f"independence square at {s!r} for ({x!r},{y!r}) does not close")
    return report


@dataclass(frozen=True)
class AcrMorphism:
    base: TsMorphism


def identity_acr_morphism(a: Acr) -> AcrMorphism:
    return AcrMorphism(identity_ts_morphism(a.ts))


def compose_acr_morphisms(f: AcrMorphism, g: AcrMorphism) -> AcrMorphism:
    return AcrMorphism(compose_ts_morphisms(f.base, g.base))


def validate_acr_morphism(m: AcrMorphism, src: Acr, dst: Acr) -> ValidationReport:
    report = validate_ts_morphism(m.base, src.ts, dst.ts)
    report.subject = "acr morphism"
    for (s, a, b) in sorted_by_key(src.indep):
        ta, tb = m.base.tau.get(a), m.base.tau.get(b)
        if ta is None or tb is None:
            continue
        if (m.base.sigma[s], ta, tb) not in dst.indep:
            report.add(f"independence ({a!r},{b!r}) at {s!r} not preserved")
    return report


# ---------------------------------------------------------------------------
# Event structures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EventStructure:
    events: frozenset
    leq: frozenset      # full causality order, reflexive pairs included
    conflict: frozenset  # symmetric irreflexive, hereditarily closed

    @cached_property
    def causes(self) -> dict:
        """The strict causes of each event that has any, built on first use
        and kept in the instance dict, outside the fields."""
        below: dict = {}
        for a, b in self.leq:
            if a != b:
                below.setdefault(b, set()).add(a)
        return below

    @cached_property
    def masks(self) -> dict:
        """Each event, in canonical order, to three masks over the events'
        ranks (bit r is the event of rank r): its own bit, that bit and the
        events it is in conflict with, and its strict causes (a cause that
        is no event sets a bit no event has).  Built on first use and kept
        in the instance dict, outside the fields."""
        bit = {e: 1 << r for r, e in enumerate(sorted_by_key(self.events))}
        blocks, needs = dict(bit), dict.fromkeys(bit, 0)
        for a, b in self.conflict:
            if a in bit and b in bit:
                blocks[a] |= bit[b]
        for e, below in self.causes.items():
            for c in below if e in bit else ():
                needs[e] |= bit.get(c, 1 << len(bit))
        return {e: (b, blocks[e], needs[e]) for e, b in bit.items()}


def make_event_structure(events, causes=(), conflicts=()) -> EventStructure:
    """Close the generating relations: reflexive-transitive for causality,
    symmetric and hereditary for conflict."""
    events = frozenset(events)
    causes_from: dict = {}
    for a, b in causes:
        causes_from.setdefault(a, []).append(((a, b), b))
    # everything after each name: reached from it by one or more causes
    after = {x: {y for _, cause, y, _ in breadth_first([x], lambda u: causes_from.get(u, ()))
                 if cause is not None}
             for x in causes_from}
    leq = {(e, e) for e in events}
    leq |= {(x, y) for x, ys in after.items() for y in ys}
    conflict = set()
    for a, b in conflicts:
        for x in {a, *after.get(a, ())}:
            for y in {b, *after.get(b, ())}:
                conflict |= {(x, y), (y, x)}
    return EventStructure(events=events, leq=frozenset(leq), conflict=frozenset(conflict))


def validate_es(es: EventStructure) -> ValidationReport:
    report = ValidationReport("event structure")
    ev = es.events
    leq = sorted_by_key(es.leq)
    above: dict = {}  # each name's causal successors, in canonical order
    for (a, b) in leq:
        above.setdefault(a, []).append(b)
        if a not in ev or b not in ev:
            report.add(f"causality pair {(a, b)!r} out of range")
    for e in sorted_by_key(ev):
        if (e, e) not in es.leq:
            report.add(f"causality not reflexive at {e!r}")
    for (a, b) in leq:
        if a != b and (b, a) in es.leq:
            report.add(f"causality not antisymmetric on ({a!r},{b!r})")
        for c in above.get(b, ()):
            if (a, c) not in es.leq:
                report.add(f"causality not transitive on ({a!r},{b!r},{c!r})")
    for (a, b) in sorted_by_key(es.conflict):
        if a not in ev or b not in ev:
            report.add(f"conflict pair {(a, b)!r} out of range")
            continue
        if a == b:
            report.add(f"conflict not irreflexive at {a!r}")
        if (b, a) not in es.conflict:
            report.add(f"conflict not symmetric on ({a!r},{b!r})")
        for c in above.get(b, ()):
            if c != b and (a, c) not in es.conflict:
                report.add(f"conflict not hereditary: {a!r}#{b!r} <= {c!r}")
    return report


def configurations(es: EventStructure) -> frozenset:
    """All downward-closed conflict-free subsets, as frozensets.  The walk
    runs on masks (``es.masks``): an event extends a configuration when it
    is not in it, its causes are, and it conflicts with none of them."""
    def extensions(x):
        return [(e, x | b) for e, (b, blocks, needs) in es.masks.items()
                if not x & blocks and x & needs == needs]

    configs = {}
    for x, e, y, new in breadth_first([0], extensions):
        if new:
            configs[y] = frozenset() if x is None else configs[x] | {e}
    return frozenset(configs.values())


@dataclass(frozen=True)
class EsMorphism:
    mapping: Mapping  # partial: missing key means undefined


def identity_es_morphism(es: EventStructure) -> EsMorphism:
    return EsMorphism({e: e for e in es.events})


def compose_es_morphisms(f: EsMorphism, g: EsMorphism) -> EsMorphism:
    """g after f, as partial maps."""
    return EsMorphism({e: g.mapping[v] for e, v in f.mapping.items() if v in g.mapping})


def validate_es_morphism(m: EsMorphism, src: EventStructure, dst: EventStructure) -> ValidationReport:
    report = ValidationReport("es morphism")
    f = dict(m.mapping)
    for e, v in f.items():
        if e not in src.events:
            report.add(f"map defined on non-event {e!r}")
        elif v not in dst.events:
            report.add(f"map sends {e!r} outside the target")
    for e, v in f.items():
        if e not in src.events or v not in dst.events:
            continue
        below_image = {x for (x, y) in dst.leq if y == v}
        image_of_below = {f[x] for (x, y) in src.leq if y == e and x in f}
        if not below_image <= image_of_below:
            report.add(f"causes of {v!r} not covered by the image of causes of {e!r}")
    for e0, e1 in itertools.combinations(sorted_by_key(f), 2):
        v0, v1 = f[e0], f[e1]
        if v0 not in dst.events or v1 not in dst.events:
            continue
        if (v0, v1) in dst.conflict or v0 == v1:
            if (e0, e1) not in src.conflict and e0 != e1:
                report.add(f"{e0!r},{e1!r} map to conflicting or equal events but are compatible")
    return report


# ---------------------------------------------------------------------------
# Petri nets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Marking:
    """Multiset of tokens over places; zero entries are dropped."""

    items: tuple  # sorted ((place, count), ...), counts > 0

    @staticmethod
    def of(counts: Mapping) -> "Marking":
        pairs = tuple((p, int(counts[p])) for p in sorted_by_key(p for p, n in counts.items() if n))
        for _, n in pairs:
            if n < 0:
                raise ValueError("marking counts must be naturals")
        return Marking(items=pairs)

    @staticmethod
    def over(places, counts) -> "Marking":
        """The marking with ``counts[i]`` tokens at ``places[i]``, for places
        in canonical order and natural counts: zero counts are dropped, and
        nothing is sorted or checked."""
        return Marking(items=tuple(itertools.compress(zip(places, counts), counts)))

    def to_dict(self) -> dict:
        return dict(self.items)

    def get(self, place) -> int:
        """Reads a dict built on first use and kept outside the fields."""
        lookup = self.__dict__.get("_count_of")
        if lookup is None:
            lookup = self.__dict__["_count_of"] = dict(self.items)
        return lookup.get(place, 0)

    def canon_key(self):
        return ("marking", tuple((canon_key(p), n) for p, n in self.items))


class TokenVectors(NamedTuple):
    """A net's markings as count vectors over ``places``: every place that
    the net's places, m0, pre and post name, in a Marking's canonical order."""

    places: tuple
    m0: tuple        # the initial marking
    pre: Mapping     # event -> the tokens it consumes
    post: Mapping    # event -> the tokens it produces
    effect: Mapping  # event -> post minus pre


@dataclass(frozen=True)
class PetriNet:
    places: frozenset
    m0: Marking
    events: frozenset
    pre: Mapping   # event -> Marking
    post: Mapping  # event -> Marking

    @cached_property
    def vectors(self) -> TokenVectors:
        """The net's initial marking, pre and post conditions and effects
        as token vectors, for enabling and firing without Marking
        arithmetic; built on first use and kept in the instance dict,
        outside the fields."""
        named = set(self.places).union(self.m0.to_dict(),
                                       *(m.to_dict() for m in self.pre.values()),
                                       *(m.to_dict() for m in self.post.values()))
        places = tuple(sorted_by_key(named))

        def counts(m: Marking) -> tuple:
            have = m.to_dict()
            return tuple(have.get(p, 0) for p in places)

        pre = {e: counts(self.pre[e]) for e in self.events}
        post = {e: counts(self.post[e]) for e in self.events}
        return TokenVectors(places=places, m0=counts(self.m0), pre=pre, post=post,
                            effect={e: tuple(map(sub, post[e], pre[e])) for e in self.events})


def make_pn(places, m0, events, pre, post) -> PetriNet:
    return PetriNet(
        places=frozenset(places),
        m0=Marking.of(m0) if not isinstance(m0, Marking) else m0,
        events=frozenset(events),
        pre={e: (m if isinstance(m, Marking) else Marking.of(m)) for e, m in pre.items()},
        post={e: (m if isinstance(m, Marking) else Marking.of(m)) for e, m in post.items()},
    )


def validate_pn(n: PetriNet) -> ValidationReport:
    report = ValidationReport("petri net")
    def check_marking(m: Marking, what: str):
        for p, c in m.items:
            if p not in n.places:
                report.add(f"{what} uses unknown place {p!r}")
            if c < 0:
                report.add(f"{what} has negative count at {p!r}")
    check_marking(n.m0, "initial marking")
    for e in sorted_by_key(n.events):
        if e not in n.pre:
            report.add(f"event {e!r} has no precondition")
        else:
            check_marking(n.pre[e], f"pre({e!r})")
        if e not in n.post:
            report.add(f"event {e!r} has no postcondition")
        else:
            check_marking(n.post[e], f"post({e!r})")
    for e in sorted_by_key(set(n.pre) | set(n.post)):
        if e not in n.events:
            report.add(f"pre/post defined on non-event {e!r}")
    return report


@dataclass(frozen=True)
class MarkingGraph:
    initial: Marking
    markings: frozenset
    steps: frozenset  # triples (marking, event, marking)
    counts: Mapping   # marking -> its token vector over ``PetriNet.vectors.places``


def reachable_markings(n: PetriNet, max_states: int) -> MarkingGraph:
    """BFS closure of the initial marking under single-event firing.

    The walk enables and fires on token vectors (``PetriNet.vectors``);
    each reached vector's Marking is built once, in canonical order."""
    if max_states < 1:
        raise ValueError("max_states must be at least 1")
    vectors = n.vectors
    moves = [(e, vectors.pre[e], vectors.effect[e]) for e in sorted_by_key(n.events)]
    marking = {}  # reached vector -> its Marking
    steps = set()

    def firings(v):
        return [(e, tuple(map(add, v, effect))) for e, pre, effect in moves if all(map(ge, v, pre))]

    for v, e, v2, new in breadth_first([vectors.m0], firings):
        if new:
            if len(marking) >= max_states:
                raise ExplosionLimit(f"more than {max_states} reachable markings")
            # the root keeps the net's own m0
            marking[v2] = n.m0 if v is None else Marking.over(vectors.places, v2)
        if v is not None:
            steps.add((marking[v], e, marking[v2]))
    return MarkingGraph(initial=n.m0, markings=frozenset(marking.values()), steps=frozenset(steps),
                        counts={m: v for v, m in marking.items()})


@dataclass(frozen=True)
class PnMorphism:
    """phi maps target places back to source places; psi is partial on events."""

    phi: Mapping
    psi: Mapping


def validate_pn_morphism(m: PnMorphism, src: PetriNet, dst: PetriNet) -> ValidationReport:
    report = ValidationReport("pn morphism")
    for p in sorted_by_key(dst.places):
        if p not in m.phi:
            report.add(f"place map undefined on {p!r}")
        elif m.phi[p] not in src.places:
            report.add(f"place map sends {p!r} outside the source")
    for e, e2 in m.psi.items():
        if e not in src.events:
            report.add(f"event map defined on non-event {e!r}")
        elif e2 not in dst.events:
            report.add(f"event map sends {e!r} outside the target")
    if not report.ok:
        return report

    def pull(marking: Marking) -> dict:
        return {p: marking.get(m.phi[p]) for p in dst.places}

    if pull(src.m0) != {p: dst.m0.get(p) for p in dst.places}:
        report.add("initial marking not preserved")
    for e in sorted_by_key(src.events):
        if e in m.psi:
            e2 = m.psi[e]
            if pull(src.pre[e]) != {p: dst.pre[e2].get(p) for p in dst.places}:
                report.add(f"precondition of {e!r} not preserved")
            if pull(src.post[e]) != {p: dst.post[e2].get(p) for p in dst.places}:
                report.add(f"postcondition of {e!r} not preserved")
        else:
            # a dropped event reads as the idle word, whose pre and post are
            # the zero marking, so it must be invisible through phi
            if any(v for v in pull(src.pre[e]).values()) or \
               any(v for v in pull(src.post[e]).values()):
                report.add(f"dropped event {e!r} touches a place seen through phi")
    return report


def identity_pn_morphism(n: PetriNet) -> PnMorphism:
    return PnMorphism(phi={p: p for p in n.places}, psi={e: e for e in n.events})


def compose_pn_morphisms(f: PnMorphism, g: PnMorphism) -> PnMorphism:
    """g after f: places pull back through g then f, events push forward."""
    phi = {p: f.phi[q] for p, q in g.phi.items()}
    psi = {e: g.psi[v] for e, v in f.psi.items() if v in g.psi}
    return PnMorphism(phi=phi, psi=psi)

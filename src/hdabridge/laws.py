"""Executable law suite: seeded model generators, canonical renaming,
round-trip and adjunction checkers, isomorphism search.

Every report is reproducible from its seed; a failing report carries the
offending instance in serialized form.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import asdict, dataclass
from typing import Callable, Optional

from . import jsonio, zoo
from .cubical import STAR, Hda
from .errors import SizeLimit, StarClash
from .functors import (
    HdaMorphism,
    acr_to_hda2,
    compose_hda_morphisms,
    es_to_hda,
    hda1_to_ts,
    hda2_to_acr,
    hda_to_es,
    hda_to_pn,
    induced_morphism,
    map_morphism,
    pn_to_hda,
    skeleton_slots,
    transpose_to_hda,
    transpose_to_pn,
    ts_to_hda1,
    validate_hda_morphism,
)
from .models import (
    Acr,
    EventStructure,
    PetriNet,
    PnMorphism,
    TransitionSystem,
    compose_pn_morphisms,
    idle_completion,
    make_acr,
    make_event_structure,
    make_pn,
    make_ts,
    validate_acr,
    validate_es,
    validate_pn,
    validate_ts,
)
from .util import backtrack, breadth_first, canon_key, sorted_by_key


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int = 0
    count: int = 100
    max_states: int = 8
    max_events: int = 8
    max_places: int = 5
    density: float = 0.35


@dataclass
class LawReport:
    law: str
    instances: int = 0
    skipped: int = 0
    passed: bool = True
    seed: int = 0
    counterexample: Optional[dict] = None

    def fail(self, detail: dict) -> None:
        self.passed, self.counterexample = False, detail

    def to_json(self) -> dict:
        return asdict(self)

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        out = f"{self.law}: {status} ({self.instances} instance(s), {self.skipped} skipped)"
        if self.counterexample is not None:
            out += f"\n  counterexample: {self.counterexample}"
        return out


def _rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * 1000003 + index)


# ---------------------------------------------------------------------------
# Generators (degenerate shapes first, then random)
# ---------------------------------------------------------------------------

def gen_ts(index: int, cfg: GeneratorConfig) -> TransitionSystem:
    degenerate = [
        make_ts(["s"], "s", [], []),
        make_ts(["s"], "s", ["a"], [("s", "a", "s")]),
        make_ts(["s", "t"], "s", ["a"], [("s", "a", "t"), ("t", "a", "s")]),
        make_ts(["s", "t"], "s", ["a", "b"], [("s", "a", "t"), ("s", "b", "t")]),
    ]
    if index < len(degenerate):
        return degenerate[index]
    rng = _rng(cfg.seed, index)
    states = [f"s{i}" for i in range(rng.randint(1, cfg.max_states))]
    events = [f"e{i}" for i in range(rng.randint(0, min(4, cfg.max_events)))]
    trans = set()
    for s in states:
        for e in events:
            if rng.random() < cfg.density:
                trans.add((s, e, rng.choice(states)))
    return make_ts(states, states[0], events, trans)


def gen_acr(index: int, cfg: GeneratorConfig) -> Acr:
    degenerate = [
        make_acr(["s"], "s", [], [], []),
        make_acr(["x", "p", "q", "r"], "x", ["a", "b"],
                 [("x", "a", "p"), ("x", "b", "q"), ("p", "b", "r"), ("q", "a", "r")],
                 [("x", "a", "b")]),
    ]
    if index < len(degenerate):
        return degenerate[index]
    rng = _rng(cfg.seed, index + 7919)
    states = [f"s{i}" for i in range(rng.randint(1, cfg.max_states))]
    events = [f"e{i}" for i in range(rng.randint(0, 4))]
    delta: dict[tuple, str] = {}
    for s in states:
        for e in events:
            if rng.random() < cfg.density:
                delta[(s, e)] = rng.choice(states)
    # close a sample of enabled pairs into squares; adding a closing
    # transition is only allowed when it does not break determinism
    indep = set()
    for s in states:
        for a, b in itertools.combinations(events, 2):
            if (s, a) not in delta or (s, b) not in delta:
                continue
            if rng.random() > cfg.density:
                continue
            s1, s2 = delta[(s, a)], delta[(s, b)]
            r1, r2 = delta.get((s1, b)), delta.get((s2, a))
            if r1 is None and r2 is None:
                r = rng.choice(states)
                delta[(s1, b)] = r
                if (s2, a) not in delta:
                    delta[(s2, a)] = r
                if delta[(s2, a)] != r:
                    del delta[(s1, b)]
                    continue
            elif r1 is None:
                delta[(s1, b)] = r2
            elif r2 is None:
                delta[(s2, a)] = r1
            elif r1 != r2:
                continue
            indep.add((s, a, b))
    trans = {(s, e, t) for (s, e), t in delta.items()}
    return make_acr(states, states[0], events, trans, indep)


def gen_es(index: int, cfg: GeneratorConfig) -> EventStructure:
    degenerate = [
        make_event_structure(""),
        make_event_structure("a"),
        make_event_structure("ab", causes=[("a", "b")]),
        make_event_structure("ab", conflicts=[("a", "b")]),
        make_event_structure("abc", conflicts=[("a", "b"), ("b", "c"), ("a", "c")]),
    ]
    if index < len(degenerate):
        return degenerate[index]
    rng = _rng(cfg.seed, index + 104729)
    events = [f"e{i}" for i in range(rng.randint(1, cfg.max_events))]
    causes = set()
    for i, a in enumerate(events):
        for b in events[i + 1:]:
            if rng.random() < cfg.density:
                causes.add((a, b))
    es = make_event_structure(events, causes=causes)
    # conflicts seeded only between events with no common upper bound, so
    # hereditary closure stays irreflexive
    ups = {e: {b for (a, b) in es.leq if a == e} for e in events}
    conflicts = set()
    for a, b in itertools.combinations(events, 2):
        if rng.random() < cfg.density / 2 and not (ups[a] & ups[b]):
            conflicts.add((a, b))
    return make_event_structure(events, causes=causes, conflicts=conflicts)


def gen_pn(index: int, cfg: GeneratorConfig) -> PetriNet:
    degenerate = [
        make_pn([], {}, [], {}, {}),
        make_pn(["p"], {"p": 1}, ["e"], {"e": {"p": 1}}, {"e": {}}),
        make_pn(["p"], {}, ["e"], {"e": {}}, {"e": {"p": 1}}),  # unbounded
    ]
    if index < len(degenerate):
        return degenerate[index]
    rng = _rng(cfg.seed, index + 1299709)
    places = [f"p{i}" for i in range(rng.randint(1, cfg.max_places))]
    events = [f"e{i}" for i in range(rng.randint(0, 3))]
    pick = lambda: {p: rng.randint(0, 2) for p in places if rng.random() < cfg.density}
    return make_pn(places, pick(), events, {e: pick() for e in events},
                   {e: pick() for e in events})


GENERATORS: dict[str, Callable[[int, GeneratorConfig], object]] = {
    "sTS": gen_ts,
    "ACR": gen_acr,
    "ES": gen_es,
    "PN": gen_pn,
}

VALIDATORS = {"sTS": validate_ts, "ACR": validate_acr, "ES": validate_es, "PN": validate_pn}


# ---------------------------------------------------------------------------
# Canonical renaming
# ---------------------------------------------------------------------------

def _canonical_renaming(t: TransitionSystem):
    """Rename states by breadth-first order from the initial state; events
    are observable and stay fixed.  Unreached states follow in name order.
    Returns the renamed system and the renaming."""
    succs: dict = {}
    for (s, e, s2) in sorted_by_key(t.trans):
        succs.setdefault(s, []).append((e, s2))
    order: dict = {}
    for _, _, s, new in breadth_first([t.initial], lambda s: succs.get(s, ())):
        if new:
            order[s] = len(order)
    for s in sorted_by_key(t.states):
        order.setdefault(s, len(order))
    rename = {s: f"q{i}" for s, i in order.items()}
    renamed = make_ts(
        [rename[s] for s in t.states], rename[t.initial], t.events,
        [(rename[s], e, rename[s2]) for (s, e, s2) in t.trans],
    )
    return renamed, rename


def canonical_ts(t: TransitionSystem) -> TransitionSystem:
    return _canonical_renaming(t)[0]


def canonical_acr(a: Acr) -> Acr:
    base, rename = _canonical_renaming(a.ts)
    return Acr(ts=base, indep=frozenset((rename[s], x, y) for (s, x, y) in a.indep))


def canonical_es(es: EventStructure) -> EventStructure:
    return es  # events are observable; nothing to rename


# ---------------------------------------------------------------------------
# Law checks
# ---------------------------------------------------------------------------

def run_law(law: str, seed: int, instances, check) -> LawReport:
    """The one suite loop: ``check(instance)`` on each instance in turn,
    returning None where the law holds and a dict describing the
    counterexample where it fails.  An instance whose check raises
    SizeLimit counts as skipped; the first counterexample ends the run,
    stored with the instance's index."""
    report = LawReport(law=law, seed=seed)
    for i, instance in enumerate(instances):
        report.instances += 1
        try:
            detail = check(instance)
        except SizeLimit:
            report.skipped += 1
            continue
        if detail is not None:
            report.fail({"index": i, **detail})
            break
    return report


def check_comonad_identity(kind: str, cfg: GeneratorConfig) -> LawReport:
    """Translating into automata and back is the identity."""
    # the round trip, the canonical renaming and the document kind
    back, canon, doc_kind = {
        "sTS": (lambda t: hda1_to_ts(ts_to_hda1(t)), canonical_ts, "ts"),
        "ACR": (lambda a: hda2_to_acr(acr_to_hda2(a)), canonical_acr, "acr"),
        "ES": (lambda e: hda_to_es(es_to_hda(e)), canonical_es, "es"),
    }[kind]

    def check(model):
        assert VALIDATORS[kind](model).ok, f"generator produced invalid {kind}"
        result = back(model)
        if canon(result) != canon(model):
            return {"model": jsonio.model_to_document(doc_kind, model),
                    "roundtrip": jsonio.model_to_document(doc_kind, result)}

    return run_law(f"comonad-identity[{kind}]", cfg.seed,
                   (GENERATORS[kind](i, cfg) for i in range(cfg.count)), check)


def check_kleisli_lift(cfg: GeneratorConfig) -> LawReport:
    """Idle completion commutes with the automaton translation in both
    directions: completing then translating drops the idle loops into
    degeneracies, and reading back with idle loops re-completes."""
    def check(t):
        completed = idle_completion(t)
        lifted = ts_to_hda1(completed, idle=True)
        plain = ts_to_hda1(t)
        if lifted != plain:
            reason = "completion changed the automaton"
        elif hda1_to_ts(plain, idle=True) != completed:
            reason = "idle readback differs from completion"
        elif canonical_ts(hda1_to_ts(lifted, idle=True)) != canonical_ts(completed):
            reason = "lifted roundtrip differs"
        else:
            return None
        return {"model": jsonio.model_to_document("ts", t), "reason": reason}

    return run_law("kleisli-lift[sTS]", cfg.seed, (gen_ts(i, cfg) for i in range(cfg.count)), check)


# ---------------------------------------------------------------------------
# Hom-set enumeration for the net adjunction
# ---------------------------------------------------------------------------

PN_HOM_BUDGET = 200000   # event maps times source places, and place maps
HDA_HOM_BUDGET = 100000  # label maps
HDA_MEMBER_BUDGET = 10000  # automaton morphisms, each built and validated


def _place_columns(n: PetriNet, events) -> dict:
    """Each place of ``n`` with its column, read from ``n.vectors``: its
    initial count, then its pre and post counts at each of ``events``, where
    None (a dropped event) counts 0 and 0.  A morphism may map a target
    place to a source place exactly when their columns are equal."""
    v = n.vectors
    zero = (0,) * len(v.places)
    rows = [v.m0]
    for e in events:
        rows += (zero, zero) if e is None else (v.pre[e], v.post[e])
    return dict(zip(v.places, zip(*rows)))


def _places_by_column(n: PetriNet, events) -> dict:
    """The places of ``n`` by their column over ``events``, in canonical order."""
    columns = _place_columns(n, events)
    groups: dict = {}
    for p in sorted_by_key(n.places):
        groups.setdefault(columns[p], []).append(p)
    return groups


def enumerate_pn_morphisms(src: PetriNet, dst: PetriNet):
    """All net morphisms src -> dst, by backtracking over the event map and
    then the place map: under each event map, a target place may take the
    source places whose column (``_place_columns``) equals its own."""
    events = sorted_by_key(src.events)
    targets = [None] + sorted_by_key(dst.events)
    places = sorted_by_key(dst.places)
    if len(targets) ** len(events) * max(1, len(src.places)) > PN_HOM_BUDGET:
        raise SizeLimit("event-map space too large")
    by_column = _places_by_column(src, events)

    # source places each target place may take under the current event map;
    # recomputed whenever the search reaches the first place slot
    candidates: list = []

    def options(pos, partial):
        if pos < len(events):
            return targets
        if pos == len(events):
            images = _place_columns(dst, partial)
            candidates[:] = [by_column.get(images[p], ()) for p in places]
            if all(candidates) and math.prod(map(len, candidates)) > PN_HOM_BUDGET:
                raise SizeLimit("place-map space too large")
        return candidates[pos - len(events)]

    return [PnMorphism(phi=dict(zip(places, values[len(events):])),
                       psi={e: v for e, v in zip(events, values) if v is not None})
            for values in backtrack(events + places, options)]


def enumerate_hda_morphisms_into_net_hda(source: Hda, net: PetriNet, target: Hda):
    """The hom-set source -> target, where target is ``net``'s automaton: a
    name for ``enumerate_hda_morphisms`` that perfbench/spans.py looks up."""
    return enumerate_hda_morphisms(source, target)


def enumerate_hda_morphisms(src: Hda, dst: Hda):
    """All automaton morphisms src -> dst (``_hda_morphisms``), a label taking STAR
    or a label of ``dst``; SizeLimit up front past ``HDA_HOM_BUDGET`` label maps."""
    label_targets = [STAR] + sorted_by_key(dst.alphabet)
    if len(label_targets) ** len(src.alphabet) > HDA_HOM_BUDGET:
        raise SizeLimit("label-map space too large")
    return list(_hda_morphisms(src, dst, dict.fromkeys(src.alphabet, label_targets), False))


def _hda_morphisms(src: Hda, dst: Hda, labels: dict, one_to_one: bool):
    """Yield the automaton morphisms src -> dst that send each label ``a``
    to one of ``labels[a]`` and, if ``one_to_one``, no two vertices to one.
    Over the slots of ``functors.skeleton_slots`` a vertex takes a vertex
    of ``dst`` (the initial one the initial one), or the ends of the image
    of an edge reaching it from an earlier slot, in ``dst.cells(0)`` order;
    at its last slot each cell's image 0-ends and word must key a cell in
    ``dst.cell_by_ends`` (ValueError on two cells sharing a key).  Each
    full assignment is built by ``induced_morphism`` and yielded if
    ``validate_hda_morphism`` passes it, since the slot checks see no
    faces: into a ``dst`` with two a-edges from one vertex they accept a
    map whose square image has the other a-edge as its face.  SizeLimit
    past ``HDA_MEMBER_BUDGET`` full assignments, before the next is built.
    """
    slots, checks = skeleton_slots(src)
    index = dst.cell_by_ends
    vertices = dst.cells(0)
    position = {v: k for k, v in enumerate(vertices)}
    # the other ends of dst's edges by (end, label, end is the source), STAR at the end itself
    ends = {(v, STAR, forward): [v] for v in vertices for forward in (True, False)}
    for e in dst.cells(1):
        (s, t), a = dst.zero_ends[e], dst.label(e)[0]
        ends.setdefault((s, a, True), []).append(t)
        ends.setdefault((t, a, False), []).append(s)
    for others in ends.values():
        others.sort(key=position.__getitem__)
    # an edge reaching each vertex slot from an earlier one, as the slots
    # of its other end and its label and whether that end is its source
    via = [next(((s, word[0], True) if t == pos else (t, word[0], False)
                 for word, s, t in checks[pos] if len(word) == 1 and s != t), None)
           for pos in range(len(slots))]

    def fits(values, pos):
        return all((values[s], values[t], tuple(a for a in (values[i] for i in word) if a != STAR))
                   in index for word, s, t in checks[pos])

    def options(pos, partial):
        kind, x = slots[pos]
        if kind == "label":
            return [v for v in labels[x] if fits(partial + [v], pos)]
        if x == src.initial:
            values = [dst.initial]
        elif via[pos] is None:
            values = vertices
        else:
            end, label, forward = via[pos]
            values = ends.get((partial[end], partial[label], forward), ())
        if one_to_one:
            used = set(partial)
            values = [v for v in values if v not in used]
        return [v for v in values if fits(partial + [v], pos)]

    for found, values in enumerate(backtrack(slots, options), 1):
        if found > HDA_MEMBER_BUDGET:
            raise SizeLimit(f"more than {HDA_MEMBER_BUDGET} automaton morphisms")
        m = induced_morphism(src, dst,
                             {x: v for (kind, x), v in zip(slots, values) if kind == "vertex"},
                             {x: v for (kind, x), v in zip(slots, values) if kind == "label"})
        if validate_hda_morphism(m, src, dst).ok:
            yield m


def check_adjunction_pn_hda(pairs, cap: int = 1, max_states: int = 200,
                            max_dim: int = 3) -> LawReport:
    """On each (automaton, net) pair: the two transpositions are mutually
    inverse bijections between the enumerated hom-sets, and natural in
    both arguments across the fixture set."""
    computed = []

    def bijection(pair):
        source, net = pair
        synth = hda_to_pn(source, cap)
        target = pn_to_hda(net, max_states, max_dim, truncate_cells=True)
        pn_homs = enumerate_pn_morphisms(synth.net, net)
        hda_homs = enumerate_hda_morphisms(source, target)
        if len(pn_homs) != len(hda_homs):
            return {"reason": "hom-set sizes differ", "pn": len(pn_homs), "hda": len(hda_homs)}
        seen = []
        for f in pn_homs:
            g = transpose_to_hda(f, synth, net, target)
            if not validate_hda_morphism(g, source, target).ok:
                return {"reason": "transpose not a morphism"}
            if transpose_to_pn(g, synth, net, target) != f:
                return {"reason": "pn roundtrip differs"}
            seen.append(g)
        if {_canon_hda_morphism(g) for g in seen} != {_canon_hda_morphism(g) for g in hda_homs}:
            return {"reason": "transpose image misses morphisms"}
        for g in hda_homs:
            if transpose_to_hda(transpose_to_pn(g, synth, net, target), synth, net, target) != g:
                return {"reason": "hda roundtrip differs"}
        # each net morphism with its transpose, for the naturality checks
        computed.append((net, synth, target, list(zip(pn_homs, seen))))

    report = run_law("adjunction[pn-hda]", 0, pairs, bijection)
    if not report.passed:
        return report

    for i, (n_i, synth_i, target_i, homs_i) in enumerate(computed):
        for j, (n_j, synth_j, target_j, homs_j) in enumerate(computed):
            # natural in the net argument: v : n_i -> n_j
            try:
                vs = enumerate_pn_morphisms(n_i, n_j)
            except SizeLimit:
                report.skipped += 1
                continue
            for v in vs:
                hda_v = map_morphism("pn_to_hda", v, target_i, target_j)
                for f, g in homs_i:
                    lhs = transpose_to_hda(compose_pn_morphisms(f, v), synth_i, n_j, target_j)
                    rhs = compose_hda_morphisms(g, hda_v)
                    if lhs != rhs:
                        report.fail({"pairs": (i, j), "reason": "naturality in the net fails"})
                        return report
            # natural in the automaton argument: u from synth_j.hda to synth_i.hda
            try:
                us = enumerate_hda_morphisms(synth_j.hda, synth_i.hda)
            except SizeLimit:
                report.skipped += 1
                continue
            for u in us:
                pn_u = map_morphism("hda_to_pn", u, synth_j, synth_i)
                for f, g in homs_i:
                    lhs = transpose_to_hda(compose_pn_morphisms(pn_u, f), synth_j, n_i, target_i)
                    rhs = compose_hda_morphisms(u, g)
                    if lhs != rhs:
                        report.fail({"pairs": (i, j), "reason": "naturality in the automaton fails"})
                        return report
    return report


def _adjunction_pn(cfg: GeneratorConfig) -> LawReport:
    """The net adjunction on two fixed pairs, whatever the seed and count:
    an edge against a one-event net, the mutex square against two mutexes."""
    pairs = [
        (ts_to_hda1(make_ts(["x", "y"], "x", ["a"], [("x", "a", "y")])),
         make_pn(["p"], {"p": 1}, ["u"], {"u": {"p": 1}}, {"u": {}})),
        (acr_to_hda2(zoo.mutex_square_acr(True)), zoo.two_mutex_net()),
    ]
    return check_adjunction_pn_hda(pairs, cap=1, max_states=200, max_dim=2)


# Each law suite under its CLI name, in the order ``--suite all`` runs them.
SUITES: dict[str, Callable[[GeneratorConfig], LawReport]] = {
    "comonad-sts": lambda cfg: check_comonad_identity("sTS", cfg),
    "comonad-acr": lambda cfg: check_comonad_identity("ACR", cfg),
    "comonad-es": lambda cfg: check_comonad_identity("ES", cfg),
    "kleisli-sts": check_kleisli_lift,
    "adjunction-pn": _adjunction_pn,
}


def _canon_hda_morphism(m: HdaMorphism):
    return (tuple(sorted(m.cell_map.items())),
            tuple(sorted(m.label_map.items(), key=lambda kv: canon_key(kv[0]))))


# ---------------------------------------------------------------------------
# Isomorphism search
# ---------------------------------------------------------------------------

def iso_check(a, b, node_limit: int = 600):
    """Structure-preserving bijection, or None after exhausting the search.

    Labels and events are observable and must match exactly; states,
    places, and cells are matched up to bijection.  Automata are matched
    by the first morphism of the hom-set search that fixes labels and is
    one to one on vertices; each must have one cell per (0-source,
    0-target, word), or ``Hda.cell_by_ends``'s ValueError.  ``node_limit``
    bounds the cells of ``a`` (beyond it ``SizeLimit``).  Transition
    systems and concurrency automata are compared as their automata
    (``ts_to_hda1``, ``acr_to_hda2``), whose vertices keep their states,
    and the state map is read back through ``Hda.state``.  A system
    carrying the idle event is read as a completion
    (``ts_to_hda1(t, idle=True)``) and must have the idle loop at every
    state, or ``StarClash``; an ACR raises
    ``SquareIncomplete`` when it fails ``validate_acr`` and ``StarClash``
    when the idle event is one of its events.  Event structures are
    isomorphic exactly when equal, the events being their labels.  Nets
    are matched by grouping places on their columns, without search.
    """
    if isinstance(a, Hda) and isinstance(b, Hda):
        return _iso_hda(a, b, node_limit)
    if isinstance(a, (TransitionSystem, Acr)) and type(a) is type(b):
        # the idle event is not in the alphabet of an automaton read with idle
        if isinstance(a, TransitionSystem) and a.events != b.events:
            return None
        ha, hb = _automaton(a), _automaton(b)
        m = _iso_hda(ha, hb, node_limit)
        if m is None:
            return None
        return {ha.state(c): hb.state(d) for c, d in m.items() if c.dim == 0}
    if isinstance(a, EventStructure) and isinstance(b, EventStructure):
        return {e: e for e in a.events} if a == b else None
    if isinstance(a, PetriNet) and isinstance(b, PetriNet):
        return _iso_pn(a, b, node_limit)
    raise TypeError("isomorphism check needs two models of the same kind")


def _automaton(model) -> Hda:
    """The automaton a transition system or an ACR is compared as."""
    if isinstance(model, Acr):
        return acr_to_hda2(model)
    idle = STAR in model.events
    if idle and any((s, STAR, s) not in model.trans for s in model.states):
        raise StarClash("a system with the idle event needs the idle loop at every state")
    return ts_to_hda1(model, idle=idle)


def _iso_pn(a: PetriNet, b: PetriNet, node_limit: int):
    if len(a.places) > node_limit:
        raise SizeLimit("too many places")
    if len(a.places) != len(b.places) or a.events != b.events:
        return None

    groups_a, groups_b = (_places_by_column(n, sorted_by_key(a.events)) for n in (a, b))
    if {k: len(v) for k, v in groups_a.items()} != {k: len(v) for k, v in groups_b.items()}:
        return None
    return {p: q for key, ps in groups_a.items() for p, q in zip(ps, groups_b[key])}


def _iso_hda(a: Hda, b: Hda, node_limit: int):
    if len(list(a.skeleton.all_cells())) > node_limit:
        raise SizeLimit("too many cells")
    a.cell_by_ends, b.cell_by_ends  # ValueError on two cells sharing their 0-ends and word
    if set(a.alphabet) != set(b.alphabet) or \
       any(len(a.cells(n)) != len(b.cells(n)) for n in range(max(a.max_dim, b.max_dim) + 1)):
        return None
    # one cell per key on each side: fixing labels, a map one to one on vertices
    # is one to one on cells, so by the counts a bijection, with a natural inverse
    m = next(_hda_morphisms(a, b, {x: [x] for x in a.alphabet}, True), None)
    return None if m is None else {cell: image.base for cell, image in m.cell_map.items()}

"""Executable law suite: seeded model generators, canonical renaming,
round-trip and adjunction checkers, isomorphism search.

Every report is reproducible from its seed; a failing report carries the
offending instance in serialized form.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

from .cubical import STAR, DegeneracyWitness, Hda, cell_face
from .errors import SizeLimit
from .functors import (
    HdaMorphism,
    acr_to_hda2,
    es_to_hda,
    hda1_to_ts,
    hda2_to_acr,
    hda_to_es,
    hda_to_pn,
    pn_to_hda,
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
    idle_completion,
    make_acr,
    make_event_structure,
    make_pn,
    make_ts,
    validate_acr,
    validate_es,
    validate_pn,
    validate_pn_morphism,
    validate_ts,
)
from .util import backtrack, canon_key, sorted_by_key


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
        if self.passed:
            self.passed = False
            self.counterexample = detail

    def to_json(self) -> dict:
        return {
            "law": self.law,
            "instances": self.instances,
            "skipped": self.skipped,
            "passed": self.passed,
            "seed": self.seed,
            "counterexample": self.counterexample,
        }

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
    order = {t.initial: 0}
    queue = [t.initial]
    while queue:
        s = queue.pop(0)
        succs = sorted_by_key({(e, s2) for (p, e, s2) in t.trans if p == s})
        for _, s2 in succs:
            if s2 not in order:
                order[s2] = len(order)
                queue.append(s2)
    for s in sorted_by_key(t.states):
        if s not in order:
            order[s] = len(order)
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

def check_comonad_identity(kind: str, cfg: GeneratorConfig) -> LawReport:
    """Translating into automata and back is the identity."""
    report = LawReport(law=f"comonad-identity[{kind}]", seed=cfg.seed)
    roundtrips = {
        "sTS": lambda t: hda1_to_ts(ts_to_hda1(t)),
        "ACR": lambda a: hda2_to_acr(acr_to_hda2(a)),
        "ES": lambda e: hda_to_es(es_to_hda(e)),
    }
    canonicals = {"sTS": canonical_ts, "ACR": canonical_acr, "ES": canonical_es}
    back = roundtrips[kind]
    canon = canonicals[kind]
    gen = GENERATORS[kind]
    for i in range(cfg.count):
        model = gen(i, cfg)
        assert VALIDATORS[kind](model).ok, f"generator produced invalid {kind}"
        report.instances += 1
        result = back(model)
        if canon(result) != canon(model):
            from . import jsonio

            report.fail({
                "index": i,
                "model": jsonio.model_to_document(kind_name(model), model),
                "roundtrip": jsonio.model_to_document(kind_name(result), result),
            })
            break
    return report


def kind_name(model) -> str:
    if isinstance(model, TransitionSystem):
        return "ts"
    if isinstance(model, Acr):
        return "acr"
    if isinstance(model, EventStructure):
        return "es"
    if isinstance(model, PetriNet):
        return "pnet"
    if isinstance(model, Hda):
        return "hda"
    raise TypeError(f"unknown model {type(model)}")


def check_kleisli_lift(cfg: GeneratorConfig) -> LawReport:
    """Idle completion commutes with the automaton translation in both
    directions: completing then translating drops the idle loops into
    degeneracies, and reading back with idle loops re-completes."""
    report = LawReport(law="kleisli-lift[sTS]", seed=cfg.seed)
    for i in range(cfg.count):
        t = gen_ts(i, cfg)
        report.instances += 1
        completed = idle_completion(t)
        lifted = ts_to_hda1(completed, idle=True)
        plain = ts_to_hda1(t)
        if lifted != plain:
            from . import jsonio

            report.fail({"index": i, "model": jsonio.model_to_document("ts", t),
                         "reason": "completion changed the automaton"})
            break
        if hda1_to_ts(plain, idle=True) != completed:
            from . import jsonio

            report.fail({"index": i, "model": jsonio.model_to_document("ts", t),
                         "reason": "idle readback differs from completion"})
            break
        if canonical_ts(hda1_to_ts(lifted, idle=True)) != canonical_ts(completed):
            from . import jsonio

            report.fail({"index": i, "model": jsonio.model_to_document("ts", t),
                         "reason": "lifted roundtrip differs"})
            break
    return report


# ---------------------------------------------------------------------------
# Hom-set enumeration for the net adjunction
# ---------------------------------------------------------------------------

def enumerate_pn_morphisms(src: PetriNet, dst: PetriNet, budget: int = 200000):
    """All net morphisms src -> dst, by backtracking over the event map and
    then the place map, with per-place pruning."""
    events = sorted_by_key(src.events)
    targets = [None] + sorted_by_key(dst.events)
    places = sorted_by_key(dst.places)
    src_places = sorted_by_key(src.places)
    combos = len(targets) ** len(events)
    if combos * max(1, len(src.places)) > budget:
        raise SizeLimit("event-map space too large")

    def fits(q, p, psi):
        if src.m0.get(q) != dst.m0.get(p):
            return False
        for e in events:
            if e in psi:
                if src.pre[e].get(q) != dst.pre[psi[e]].get(p) or \
                   src.post[e].get(q) != dst.post[psi[e]].get(p):
                    return False
            elif src.pre[e].get(q) != 0 or src.post[e].get(q) != 0:
                return False
        return True

    # source places each target place may take under the current event map;
    # recomputed whenever the search reaches the first place slot
    candidates: list = []

    def options(pos, partial):
        if pos < len(events):
            return targets
        if pos == len(events):
            psi = {e: v for e, v in zip(events, partial) if v is not None}
            candidates[:] = [[q for q in src_places if fits(q, p, psi)]
                             for p in places]
            if all(candidates) and math.prod(map(len, candidates)) > budget:
                raise SizeLimit("place-map space too large")
        return candidates[pos - len(events)]

    out = []
    for values in backtrack(events + places, options):
        m = PnMorphism(phi=dict(zip(places, values[len(events):])),
                       psi={e: v for e, v in zip(events, values) if v is not None})
        if validate_pn_morphism(m, src, dst).ok:
            out.append(m)
    return out


def enumerate_hda_morphisms_into_net_hda(source: Hda, net: PetriNet, target: Hda):
    """The hom-set source -> target, where target is ``net``'s automaton.
    Only a name for ``enumerate_hda_morphisms``, which perfbench/spans.py
    still looks up."""
    return enumerate_hda_morphisms(source, target)


def enumerate_hda_morphisms(src: Hda, dst: Hda, budget: int = 100000):
    """All automaton morphisms src -> dst, by backtracking over label and
    cell assignments with face-consistency pruning."""
    labels = sorted_by_key(src.alphabet)
    label_targets = [STAR] + sorted_by_key(dst.alphabet)
    if len(label_targets) ** len(labels) > budget:
        raise SizeLimit("label-map space too large")
    cells = [c for n in range(src.max_dim + 1) for c in src.cells(n)]
    slot_of = {c: len(labels) + k for k, c in enumerate(cells)}

    dst_by_label: dict = {}
    for n in range(dst.max_dim + 1):
        for cell in dst.cells(n):
            dst_by_label.setdefault(dst.labeling[cell], []).append(cell)

    def options(pos, partial):
        if pos < len(labels):
            return label_targets
        cell = cells[pos - len(labels)]
        if cell == src.initial:
            return [DegeneracyWitness(dst.initial)]
        lam = dict(zip(labels, partial))
        word = tuple(lam.get(e, STAR) if e != STAR else STAR for e in src.labeling[cell])
        stars = tuple(i for i, e in enumerate(word) if e == STAR)
        kept = tuple(e for e in word if e != STAR)
        faces = [(i, sign, partial[slot_of[src.skeleton.face(cell, i, sign)]])
                 for i in range(cell.dim) for sign in ("-", "+")]
        witnesses = (DegeneracyWitness(base, stars) for base in dst_by_label.get(kept, ()))
        return [w for w in witnesses
                if all(cell_face(dst.complex, w, i, sign) == face for i, sign, face in faces)]

    out = []
    for values in backtrack(labels + cells, options):
        m = HdaMorphism(cell_map=dict(zip(cells, values[len(labels):])),
                        label_map=dict(zip(labels, values)))
        if validate_hda_morphism(m, src, dst).ok:
            out.append(m)
    return out


def check_adjunction_pn_hda(pairs, cap: int = 1, max_states: int = 200,
                            max_dim: int = 3, naturality: bool = True) -> LawReport:
    """On each (automaton, net) pair: the two transpositions are mutually
    inverse bijections between the enumerated hom-sets, and natural in
    both arguments across the fixture set."""
    from .functors import map_morphism
    from .models import compose_pn_morphisms

    report = LawReport(law="adjunction[pn-hda]")
    computed = []
    for idx, (source, net) in enumerate(pairs):
        report.instances += 1
        synth = hda_to_pn(source, cap)
        target = pn_to_hda(net, max_states, max_dim, truncate_cells=True)
        try:
            pn_homs = enumerate_pn_morphisms(synth.net, net)
            hda_homs = enumerate_hda_morphisms(source, target)
        except SizeLimit:
            report.skipped += 1
            continue
        computed.append((source, net, synth, target, pn_homs))
        if len(pn_homs) != len(hda_homs):
            report.fail({"pair": idx, "reason": "hom-set sizes differ",
                         "pn": len(pn_homs), "hda": len(hda_homs)})
            continue
        seen = []
        for f in pn_homs:
            g = transpose_to_hda(f, source, synth, net, target)
            if not validate_hda_morphism(g, source, target).ok:
                report.fail({"pair": idx, "reason": "transpose not a morphism"})
                break
            if transpose_to_pn(g, source, synth, net, target, cap) != f:
                report.fail({"pair": idx, "reason": "pn roundtrip differs"})
                break
            seen.append(g)
        else:
            if {_canon_hda_morphism(g) for g in seen} != \
               {_canon_hda_morphism(g) for g in hda_homs}:
                report.fail({"pair": idx, "reason": "transpose image misses morphisms"})
            for g in hda_homs:
                f = transpose_to_pn(g, source, synth, net, target, cap)
                if _canon_hda_morphism(transpose_to_hda(f, source, synth, net, target)) != \
                   _canon_hda_morphism(g):
                    report.fail({"pair": idx, "reason": "hda roundtrip differs"})
                    break

    if not naturality or not report.passed:
        return report

    from .functors import compose_hda_morphisms

    for i, (c_i, n_i, synth_i, target_i, homs_i) in enumerate(computed):
        for j, (c_j, n_j, synth_j, target_j, homs_j) in enumerate(computed):
            # natural in the net argument: v : n_i -> n_j
            try:
                vs = enumerate_pn_morphisms(n_i, n_j)
            except SizeLimit:
                report.skipped += 1
                continue
            for v in vs:
                hda_v = map_morphism("pn_to_hda", v, n_i, n_j,
                                     max_states=max_states, max_dim=max_dim,
                                     src_hda=target_i, dst_hda=target_j)
                for f in homs_i:
                    lhs = transpose_to_hda(compose_pn_morphisms(f, v),
                                           c_i, synth_i, n_j, target_j)
                    rhs = compose_hda_morphisms(
                        transpose_to_hda(f, c_i, synth_i, n_i, target_i), hda_v)
                    if _canon_hda_morphism(lhs) != _canon_hda_morphism(rhs):
                        report.fail({"pairs": (i, j), "reason": "naturality in the net fails"})
                        return report
            # natural in the automaton argument: u : c_j -> c_i
            try:
                us = enumerate_hda_morphisms(c_j, c_i)
            except SizeLimit:
                report.skipped += 1
                continue
            for u in us:
                pn_u = map_morphism("hda_to_pn", u, c_j, c_i, cap=cap,
                                    src_synth=synth_j, dst_synth=synth_i)
                for f in homs_i:
                    lhs = transpose_to_hda(compose_pn_morphisms(pn_u, f),
                                           c_j, synth_j, n_i, target_i)
                    rhs = compose_hda_morphisms(
                        u, transpose_to_hda(f, c_i, synth_i, n_i, target_i))
                    if _canon_hda_morphism(lhs) != _canon_hda_morphism(rhs):
                        report.fail({"pairs": (i, j), "reason": "naturality in the automaton fails"})
                        return report
    return report


def _canon_hda_morphism(m: HdaMorphism):
    return (tuple(sorted(m.cell_map.items())),
            tuple(sorted(m.label_map.items(), key=lambda kv: canon_key(kv[0]))))


# ---------------------------------------------------------------------------
# Isomorphism search
# ---------------------------------------------------------------------------

def iso_check(a, b, node_limit: int = 600):
    """Structure-preserving bijection, or None after exhausting the search.

    Labels and events are observable and must match exactly; states,
    places, and cells are matched up to bijection.
    """
    if isinstance(a, Hda) and isinstance(b, Hda):
        return _iso_hda(a, b, node_limit)
    if isinstance(a, TransitionSystem) and isinstance(b, TransitionSystem):
        return _iso_ts(a, b, node_limit)
    if isinstance(a, Acr) and isinstance(b, Acr):
        base = _iso_ts(a.ts, b.ts, node_limit, extra=lambda m: _acr_indep_ok(a, b, m))
        return base
    if isinstance(a, EventStructure) and isinstance(b, EventStructure):
        return _iso_es(a, b, node_limit)
    if isinstance(a, PetriNet) and isinstance(b, PetriNet):
        return _iso_pn(a, b, node_limit)
    raise TypeError("isomorphism check needs two models of the same kind")


def _acr_indep_ok(a: Acr, b: Acr, m: dict) -> bool:
    mapped = {(m[s], x, y) for (s, x, y) in a.indep}
    return mapped == set(b.indep)


def _iso_ts(a: TransitionSystem, b: TransitionSystem, node_limit: int,
            extra=None):
    if len(a.states) > node_limit:
        raise SizeLimit("too many states")
    if len(a.states) != len(b.states) or a.events != b.events or len(a.trans) != len(b.trans):
        return None

    a_states = sorted_by_key(a.states)
    b_states = sorted_by_key(b.states)

    def signature(t, s):
        out = sorted(canon_key(e) for (p, e, _) in t.trans if p == s)
        inn = sorted(canon_key(e) for (_, e, q) in t.trans if q == s)
        return (tuple(out), tuple(inn))

    sig_a = {s: signature(a, s) for s in a_states}
    b_by_sig: dict = {}
    for t in b_states:
        b_by_sig.setdefault(signature(b, t), []).append(t)

    def options(pos, partial):
        s = a_states[pos]
        used = set(partial)
        return [t for t in b_by_sig.get(sig_a[s], ())
                if t not in used and (s == a.initial) == (t == b.initial)]

    for values in backtrack(a_states, options):
        m = dict(zip(a_states, values))
        if {(m[s], e, m[q]) for (s, e, q) in a.trans} == set(b.trans) and \
           (extra is None or extra(m)):
            return m
    return None


def _iso_es(a: EventStructure, b: EventStructure, node_limit: int):
    if len(a.events) > node_limit:
        raise SizeLimit("too many events")
    if len(a.events) != len(b.events):
        return None
    a_events = sorted_by_key(a.events)
    b_events = sorted_by_key(b.events)

    def relations(es, x, y):
        return ((x, y) in es.leq, (y, x) in es.leq, (x, y) in es.conflict, (y, x) in es.conflict)

    def options(pos, partial):
        # y may stand for x when every pair with an assigned event, and x
        # with itself, is related in b exactly as in a
        x = a_events[pos]
        return [y for y in b_events if y not in partial and all(
            relations(a, x, u) == relations(b, y, v) for u, v in zip(a_events, (*partial, y)))]

    for values in backtrack(a_events, options):
        m = dict(zip(a_events, values))
        if {(m[x], m[y]) for (x, y) in a.leq} == set(b.leq) and \
           {(m[x], m[y]) for (x, y) in a.conflict} == set(b.conflict):
            return m
    return None


def _iso_pn(a: PetriNet, b: PetriNet, node_limit: int):
    if len(a.places) > node_limit:
        raise SizeLimit("too many places")
    if len(a.places) != len(b.places) or a.events != b.events:
        return None

    def place_vector(n, p):
        return (n.m0.get(p),
                tuple((canon_key(e), n.pre[e].get(p), n.post[e].get(p))
                      for e in sorted_by_key(n.events)))

    groups_a: dict = {}
    for p in a.places:
        groups_a.setdefault(place_vector(a, p), []).append(p)
    groups_b: dict = {}
    for p in b.places:
        groups_b.setdefault(place_vector(b, p), []).append(p)
    if {k: len(v) for k, v in groups_a.items()} != {k: len(v) for k, v in groups_b.items()}:
        return None
    m = {}
    for key, ps in groups_a.items():
        for p, q in zip(sorted_by_key(ps), sorted_by_key(groups_b[key])):
            m[p] = q
    return m


def _iso_hda(a: Hda, b: Hda, node_limit: int):
    total = sum(len(a.cells(n)) for n in range(a.max_dim + 1))
    if total > node_limit:
        raise SizeLimit("too many cells")
    top = max(a.max_dim, b.max_dim)
    if set(a.alphabet) != set(b.alphabet):
        return None
    for n in range(top + 1):
        if len(a.cells(n)) != len(b.cells(n)):
            return None

    cells = [c for n in range(top + 1) for c in a.cells(n)]
    slot_of = {c: k for k, c in enumerate(cells)}

    def faces(h, cell):
        return [h.skeleton.face(cell, i, sign) for i in range(cell.dim) for sign in ("-", "+")]

    def options(pos, partial):
        cell = cells[pos]
        used = set(partial)
        images = [partial[slot_of[f]] for f in faces(a, cell)]
        return [other for other in b.cells(cell.dim)
                if other not in used and b.labeling[other] == a.labeling[cell]
                and (cell == a.initial) == (other == b.initial) and faces(b, other) == images]

    for values in backtrack(cells, options):
        m = dict(zip(cells, values))
        # transpositions must commute with the bijection
        if all(m[a.complex.transpose(cell, i)] == b.complex.transpose(m[cell], i)
               for cell in cells for i in range(cell.dim - 1)):
            return m
    return None

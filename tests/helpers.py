"""Independent oracles used to freeze expected values: the cube category,
event-structure closures and cells, region synthesis by brute force,
net reachability by ``Marking`` arithmetic, and face tables looked up key
by key.

The cube-category term model represents a morphism n -> d as the tuple of
its d output coordinates: each entry is a constant sign or a distinct
source coordinate.  Composition is substitution.  The free cubical set on
one d-dimensional generator has the morphisms n -> d as its n-cells, with
faces and degeneracies given by precomposition, so this model evaluates
any face/degeneracy composite without touching the implementation under
test.
"""

from __future__ import annotations

import itertools

MINUS = ("-",)
PLUS = ("+",)


def var(j):
    return ("v", j)


def compose(outer, inner):
    """outer . inner, where inner is applied first."""
    out = []
    for entry in outer:
        if entry[0] == "v":
            out.append(inner[entry[1]])
        else:
            out.append(entry)
    return tuple(out)


def eps(i, n, sign):
    """Insert constant `sign` at output position i: a map n -> n+1."""
    out = []
    v = 0
    for pos in range(n + 1):
        if pos == i:
            out.append((sign,))
        else:
            out.append(var(v))
            v += 1
    return tuple(out)


def eta(i, n):
    """Collapse source coordinate i: a map n+1 -> n."""
    return tuple(var(j if j < i else j + 1) for j in range(n))


def sigma(i, n):
    """Swap source coordinates i and i+1: a map n -> n."""
    out = [var(j) for j in range(n)]
    out[i], out[i + 1] = out[i + 1], out[i]
    return tuple(out)


def cube_maps(n, d, symmetric=False):
    """All morphisms n -> d of the (symmetric) cube category."""
    maps = []
    for r in range(min(n, d) + 1):
        for var_slots in itertools.combinations(range(d), r):
            const_slots = [p for p in range(d) if p not in var_slots]
            for consts in itertools.product("-+", repeat=len(const_slots)):
                sources = itertools.permutations(range(n), r) if symmetric \
                    else itertools.combinations(range(n), r)
                for src in sources:
                    out = [None] * d
                    for slot, j in zip(var_slots, src):
                        out[slot] = var(j)
                    for slot, s in zip(const_slots, consts):
                        out[slot] = (s,)
                    maps.append(tuple(out))
    return maps


def oracle_face(cell_map, n, i, sign):
    return compose(cell_map, eps(i, n - 1, sign))


def oracle_degeneracy(cell_map, n, i):
    return compose(cell_map, eta(i, n))


def oracle_transpose(cell_map, n, i):
    return compose(cell_map, sigma(i, n))


def fixpoint_event_structure(events, causes, conflicts):
    """Causality and conflict closed by iterating to a fixpoint: the
    reflexive pairs of ``events`` and the generating causes made
    transitive, then the symmetric generating conflicts made hereditary
    along that causality.  Returns the pair (leq, conflict)."""
    leq = {(e, e) for e in events} | set(causes)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(leq):
            for (c, d) in list(leq):
                if b == c and (a, d) not in leq:
                    leq.add((a, d))
                    changed = True
    conflict = {(a, b) for a, b in conflicts} | {(b, a) for a, b in conflicts}
    changed = True
    while changed:
        changed = False
        for (a, b) in list(conflict):
            for (b2, c) in leq:
                if b2 == b and (a, c) not in conflict:
                    conflict |= {(a, c), (c, a)}
                    changed = True
    return frozenset(leq), frozenset(conflict)


def brute_force_es_cells(es, dim):
    """Oracle: (configuration, linear word of fresh pairwise-compatible
    enabled events) pairs."""
    from reference import configurations, es_enabled

    count = 0
    for config in configurations(es):
        for word in itertools.permutations(sorted(es.events), dim):
            if any(e in config for e in word):
                continue
            if any(not es_enabled(es, config, e) for e in word):
                continue
            if any((a, b) in es.conflict for a, b in itertools.combinations(word, 2)):
                continue
            count += 1
    return count


def reference_faces(cells_by_dim, face_key):
    """Oracle: every face column of the keyed cells, by calling
    ``face_key`` on each key, in the order ``index_complex`` files its
    tables."""
    from hdabridge.cubical import SIGNS

    ordered = [list(cells_by_dim.get(n, ())) for n in range(max(cells_by_dim, default=0) + 1)]
    number = [{k: i for i, k in enumerate(keys)} for keys in ordered]
    return {(n, i, sign): [number[n - 1][face_key(n, k, i, sign)] for k in ordered[n]]
            for n in range(1, len(ordered)) for i in range(n) for sign in SIGNS}


def reference_transpositions(cells_by_dim, transpose_key):
    """Oracle: every transposition column of the keyed cells, by calling
    ``transpose_key`` on each key, in the order ``index_complex`` files
    its tables."""
    ordered = [list(cells_by_dim.get(n, ())) for n in range(max(cells_by_dim, default=0) + 1)]
    number = [{k: i for i, k in enumerate(keys)} for keys in ordered]
    return {(n, i): [number[n][transpose_key(n, k, i)] for k in ordered[n]]
            for n in range(2, len(ordered)) for i in range(n - 1)}


def loops4_cts():
    """One state with four looping events that may all run at once."""
    from hdabridge.cts import Cts

    events = frozenset("abcd")
    return Cts(states=frozenset({0}), initial=0, events=events,
               delta={(0, e): 0 for e in events}, enabled=lambda x, m: len(set(m)) == len(m))


def loops4():
    """The automaton of ``loops4_cts``: its 4-cells are the 24 orderings
    of ``abcd``."""
    from hdabridge.cts import cts_to_hda

    return cts_to_hda(loops4_cts(), 4)


def token_net(tokens, pre, post):
    """A net on the places its arcs name, with ``tokens`` tokens on p0."""
    from hdabridge.models import make_pn

    places = sorted({p for arcs in (pre, post) for ps in arcs.values() for p in ps} | {"p0"})
    return make_pn(places, {"p0": tokens}, sorted(pre), pre, post)


def pipeline_net():
    """Six tokens through a 2-stage pipeline: each event runs concurrently
    with itself, up to six times at once."""
    return token_net(6, {"t0": {"p0": 1}, "t1": {"p1": 1}}, {"t0": {"p1": 1}, "t1": {"p2": 1}})


def fork_join_net():
    """Three tokens through a fork, two branches and a join."""
    return token_net(3, {"f": {"p0": 1}, "j": {"z0": 1, "z1": 1}, "w0": {"a0": 1}, "w1": {"a1": 1}},
                     {"f": {"a0": 1, "a1": 1}, "j": {"e": 1}, "w0": {"z0": 1}, "w1": {"z1": 1}})


def brute_force_regions(h, cap):
    """Oracle: test every bounded assignment directly."""
    from reference import region_check, region_of

    labels = sorted(h.alphabet)
    vertices = h.cells(0)
    out = set()
    values = range(cap + 1)
    for combo in itertools.product(itertools.product(values, values), repeat=len(labels)):
        flows = dict(zip(labels, combo))
        for token_combo in itertools.product(values, repeat=len(vertices)):
            reg = region_of(flows, dict(zip(vertices, token_combo)))
            if region_check(h, reg):
                out.add(reg)
    return out


def reference_places(regions):
    """Oracle: the place names of ``regions``, p0, p1, ... in the order of
    the regions' values, each region rebuilt by ``region_of`` from its
    flows and tokens."""
    from reference import region_of

    regions = [region_of(dict(r.flows), dict(r.tokens)) for r in regions]
    regions.sort(key=lambda r: (tuple(v for _, v in r.flows), tuple(n for _, n in r.tokens)))
    return {f"p{i}": reg for i, reg in enumerate(regions)}


def synthesized_regions(synth):
    """Each place of ``synth`` (a ``SynthesizedNet``), p0, p1, ..., with
    its region, read entry by entry through ``flow`` and ``tokens`` and
    built by ``region_of``: the table the package kept before it read
    regions as slot rows."""
    from reference import region_of

    return {p: region_of({a: synth.flow(p, a) for a in synth.labels},
                         {v: synth.tokens(p, v) for v in synth.vertices})
            for p in (f"p{i}" for i in range(len(synth.values)))}


def reference_net(h, regions):
    """Oracle: the net whose places are ``regions``, built with a sort per
    region and per marking.  Places are named by ``reference_places``, and
    every marking is made by ``Marking.of`` from a dict over all places."""
    from hdabridge.models import Marking, PetriNet
    from hdabridge.util import sorted_by_key
    from reference import flow, tokens_at

    names = reference_places(regions)
    events = sorted_by_key(h.alphabet)
    return PetriNet(
        places=frozenset(names),
        m0=Marking.of({p: tokens_at(reg, h.initial) for p, reg in names.items()}),
        events=frozenset(events),
        pre={e: Marking.of({p: flow(reg, e)[0] for p, reg in names.items()}) for e in events},
        post={e: Marking.of({p: flow(reg, e)[1] for p, reg in names.items()}) for e in events},
    )


def reference_markings(n, max_states):
    """Oracle: the reachable markings and steps of ``n``, by a breadth-first
    walk that fires one event at a time with ``fire``.  Raises
    ExplosionLimit on reaching more than ``max_states`` markings."""
    from collections import deque

    from hdabridge.errors import ExplosionLimit
    from hdabridge.util import sorted_by_key
    from reference import NotEnabled, fire

    events = sorted_by_key(n.events)
    seen, steps, queue = {n.m0}, set(), deque([n.m0])
    while queue:
        m = queue.popleft()
        for e in events:
            try:
                m2 = fire(n, m, (e,))
            except NotEnabled:
                continue
            steps.add((m, e, m2))
            if m2 not in seen:
                if len(seen) >= max_states:
                    raise ExplosionLimit(f"more than {max_states} reachable markings")
                seen.add(m2)
                queue.append(m2)
    return frozenset(seen), frozenset(steps)

"""Translations between the traditional models and higher dimensional
automata, region synthesis, and the net/automaton transposition.

Each direction of each adjunction is a standalone function; the
round-trip identities they satisfy are exercised by the law suite.  Every
automaton built from a model keeps the model state of each vertex
(``Hda.states``), and a vertex's state (``Hda.state``) is what makes the
round trips land on the original names.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter
from typing import Mapping, NamedTuple, Optional

from .cts import acr_to_cts, cts_to_hda, es_to_cts, pn_to_cts
from .cubical import (
    STAR,
    CellId,
    DegeneracyWitness,
    Hda,
    LabelWord,
    PrecubicalComplex,
    SymmetricCubicalComplex,
    as_witness,
    cell_face,
    cell_transpose,
    check_deterministic,
    check_linear_labeling,
    nest_witness,
    truncate,
)
from .errors import (
    CapExceeded,
    NotLinear,
    NotOneDeterministic,
    NotPartialOrder,
    OutOfReachableFragment,
    SquareIncomplete,
    StarClash,
)
from .models import (
    Acr,
    AcrMorphism,
    EsMorphism,
    EventStructure,
    Marking,
    PetriNet,
    PnMorphism,
    TransitionSystem,
    TsMorphism,
    validate_acr,
    validate_es,
)
from .util import ValidationReport, breadth_first, level_search, sorted_by_key


# ---------------------------------------------------------------------------
# HDA morphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HdaMorphism:
    """Cell map into possibly-degenerate cells plus a pointed label map.

    ``label_map`` is total on the source alphabet; sending a label to STAR
    encodes partiality.
    """

    cell_map: Mapping  # CellId -> DegeneracyWitness
    label_map: Mapping

    def label_image(self, label):
        if label == STAR:
            return STAR
        return self.label_map.get(label, STAR)

    def word_image(self, w: LabelWord) -> LabelWord:
        return tuple(self.label_image(e) for e in w)

    def apply(self, cell) -> DegeneracyWitness:
        w = as_witness(cell)
        return nest_witness(w.stars, self.cell_map[w.base])


def identity_hda_morphism(h: Hda) -> HdaMorphism:
    return HdaMorphism(
        cell_map={c: DegeneracyWitness(c) for c in h.skeleton.all_cells()},
        label_map={a: a for a in h.alphabet},
    )


def compose_hda_morphisms(f: HdaMorphism, g: HdaMorphism) -> HdaMorphism:
    """g after f."""
    return HdaMorphism(
        cell_map={c: g.apply(w) for c, w in f.cell_map.items()},
        label_map={a: g.label_image(b) for a, b in f.label_map.items()},
    )


def validate_hda_morphism(m: HdaMorphism, src: Hda, dst: Hda) -> ValidationReport:
    report = ValidationReport("hda morphism")
    image_init = m.cell_map.get(src.initial)
    if image_init != DegeneracyWitness(dst.initial):
        report.add("initial cell not preserved")
    for a in src.alphabet:
        if m.label_image(a) != STAR and m.label_image(a) not in dst.alphabet:
            report.add(f"label {a!r} maps outside the target alphabet")
    for cell in src.skeleton.all_cells():
        image = m.cell_map.get(cell)
        if image is None:
            report.add(f"cell map undefined on {cell}")
            continue
        if image.dim != cell.dim:
            report.add(f"cell {cell} maps to dimension {image.dim}")
            continue
        if not dst.skeleton.has_cell(image.base):
            report.add(f"image base of {cell} is not a cell of the target")
            continue
        if dst.label(image) != m.word_image(src.label(cell)):
            report.add(f"label square fails at {cell}")
        for i in range(cell.dim):
            for sign in ("-", "+"):
                src_face = src.skeleton.face(cell, i, sign)
                lhs = m.cell_map.get(src_face)
                rhs = cell_face(dst.complex, image, i, sign)
                if lhs != rhs:
                    report.add(f"face ({i},{sign}) not natural at {cell}")
        for i in range(cell.dim - 1):
            lhs = m.cell_map.get(src.complex.transpose(cell, i))
            rhs = cell_transpose(dst.complex, image, i)
            if lhs != rhs:
                report.add(f"transposition {i} not natural at {cell}")
    return report


def induced_morphism(src: Hda, dst: Hda, vertex_map: Mapping, label_map: Mapping) -> HdaMorphism:
    """The morphism fixed by where it sends vertices and labels.

    ``vertex_map`` sends each vertex of ``src`` to a vertex of ``dst``;
    the labels that ``label_map`` leaves out or sends to STAR are dropped.
    Each cell goes to the cell of ``dst`` with the image 0-source, the
    image 0-target and the image word; dropped letters become collapsed
    positions.  In every automaton built from a model that key names at
    most one cell; two cells sharing it raise instead of one being picked.
    Both automata keep their 0-ends and ``dst`` its index of cells by key,
    so a hom-set builds them once, not once per member.
    """
    index, words = dst.cell_by_ends, src.words
    cell_map = {}
    for cell, (s, t) in src.zero_ends.items():
        word = [label_map.get(e, STAR) for e in words[cell.dim][cell.index]]
        kept = tuple(e for e in word if e != STAR)
        key = (vertex_map[s], vertex_map[t], kept)
        if key not in index:
            raise OutOfReachableFragment(
                f"cell over {kept!r} at {dst.state(key[0])!r} is outside the target")
        cell_map[cell] = DegeneracyWitness(index[key], tuple(i for i, e in enumerate(word) if e == STAR))
    return HdaMorphism(cell_map=cell_map,
                       label_map={a: label_map.get(a, STAR) for a in src.alphabet})


# ---------------------------------------------------------------------------
# Transition systems <-> 1-dimensional automata
# ---------------------------------------------------------------------------

def ts_to_hda1(t: TransitionSystem, idle: bool = False) -> Hda:
    """States become vertices, transitions become labeled edges.

    With ``idle`` set, the input is a completed system: the idle event is
    allowed, its self-loops are read as degenerate edges (so they are not
    materialized), and the remaining events form the alphabet.
    """
    if not idle and STAR in t.events:
        raise StarClash("input already carries the idle event; pass idle=True")
    for (s, e, s2) in t.trans:
        if e == STAR and not idle:
            raise StarClash("idle transition in a plain system")
        if e == STAR and s != s2:
            raise StarClash(f"idle transition {(s, e, s2)!r} is not a self-loop")
    # a transition system may be nondeterministic, which a CTS cannot hold,
    # so the edges are built here, in canonical (source, event, target) order
    states = sorted_by_key(t.states)
    edges = sorted_by_key(tr for tr in t.trans if tr[1] != STAR)
    vertex = dict(zip(states, itertools.count()))
    skeleton = PrecubicalComplex(
        cells={0: range(len(states)), 1: range(len(edges))},
        faces={(1, 0, sign): [vertex[edge[end]] for edge in edges]
               for sign, end in (("-", 0), ("+", 2))},
        max_dim=1)
    return Hda(
        complex=SymmetricCubicalComplex(skeleton=skeleton, transpositions={}),
        alphabet=tuple(sorted_by_key(t.events - {STAR})),
        words=[[()] * len(states), [(e,) for _, e, _ in edges]],
        initial=CellId(0, states.index(t.initial)),
        states=states,
    )


def hda1_to_ts(h: Hda, idle: bool = False) -> TransitionSystem:
    """Read the 1-skeleton back as a transition system.

    Events are the labels without the idle symbol; edges labeled by the
    idle symbol induce no transition.  With ``idle`` set the result is the
    completed system: the idle event returns with a loop at every state.
    """
    states = {h.state(c) for c in h.cells(0)}
    trans, ends = set(), h.zero_ends
    for edge in h.cells(1):
        (label,) = h.label(edge)
        if label != STAR:
            trans.add((h.state(ends[edge][0]), label, h.state(ends[edge][1])))
    events = set(h.alphabet)
    if idle:
        events.add(STAR)
        trans |= {(s, STAR, s) for s in states}
    return TransitionSystem(
        states=frozenset(states),
        initial=h.state(h.initial),
        events=frozenset(events),
        trans=frozenset(trans),
    )


# ---------------------------------------------------------------------------
# Automata with concurrency relations <-> 2-dimensional automata
# ---------------------------------------------------------------------------

def acr_to_hda2(a: Acr) -> Hda:
    """The automaton of the ACR's CTS: one square per ordered independent
    pair, glued on the closing transitions that the axioms make unique."""
    report = validate_acr(a)
    if not report.ok:
        raise SquareIncomplete(str(report))
    return cts_to_hda(acr_to_cts(a), 2)


def hda2_to_acr(h: Hda) -> Acr:
    """Independence holds at a vertex exactly when a square starts there."""
    low = truncate(h, 2) if h.max_dim > 2 else h
    if not check_deterministic(low, 1):
        raise NotOneDeterministic("two edges share source and label")
    ts = hda1_to_ts(low)
    ends = low.zero_ends
    indep = {(low.state(ends[cell][0]), *low.label(cell)) for cell in low.cells(2)}
    a = Acr(ts=ts, indep=frozenset(indep))
    report = validate_acr(a)
    if not report.ok:
        raise SquareIncomplete(str(report))
    return a


# ---------------------------------------------------------------------------
# Event structures <-> automata
# ---------------------------------------------------------------------------

def es_to_hda(es: EventStructure, max_dim: Optional[int] = None,
              truncate_cells: bool = False) -> Hda:
    report = validate_es(es)
    if not report.ok:
        raise ValueError(str(report))
    cap = len(es.events) if max_dim is None else max_dim
    return cts_to_hda(es_to_cts(es), cap, truncate_cells=truncate_cells)


def hda_to_es(h: Hda) -> EventStructure:
    """Recover causality and conflict from the runs of the automaton.

    A run chains cells 0-target to 0-source starting at the initial cell.
    Runs whose concatenated labels stay duplicate-free are fully described
    by walks on the 1-skeleton (in a valid complex a cell's letters are
    traversable through its edge faces), so the search keeps only the pair
    (vertex, set of fired events), the set as a mask over the events'
    canonical ranks.  An event e precedes e2 when every run that fires e2
    has fired e; two events conflict when no run fires both.

    The result needs ``validate_es`` only when some event is fired by no
    run.  Causality is reflexive and transitive and conflict symmetric and
    irreflexive by construction, every pair lies in the events, and
    antisymmetry is checked before the structure is built.  Heredity, e # e'
    <= e'' implies e # e'', can fail only where no run fires e'': a run
    firing e and e'' has fired e' before e'', so it fires e and e' together.
    """
    if not check_linear_labeling(h):
        raise NotLinear("some cell label repeats an event")
    events = sorted_by_key(set(h.alphabet))
    n = len(events)
    rank = dict(zip(events, range(n)))  # a label outside the alphabet ranks after them

    # vertices by position, each edge's ends read from the (1,0,-)/(1,0,+) columns
    src, tgt = (h.skeleton.faces.get((1, 0, sign), ()) for sign in ("-", "+"))
    edges_at = {}
    for i in range(len(h.skeleton.cells.get(1, ()))):
        (label,) = h.label((1, i))
        if label != STAR:
            r = rank.setdefault(label, len(rank))
            edges_at.setdefault(src[i], []).append((r, 1 << r, tgt[i]))

    def runs_on(state):
        vertex, used = state
        return [(r, (v, used | b)) for r, b, v in edges_at.get(vertex, ()) if not used & b]

    fired = set()  # the masks of every run
    before = [(1 << n) - 1] * n  # by rank: the events fired by every run that fires it
    for state, r, (_, used), new in breadth_first([(h.initial.index, 0)], runs_on):
        if new:
            fired.add(used)
        if state is not None and r < n:
            before[r] &= used
    together = [0] * n  # by rank: the events some run fires with it
    for used in fired:
        for r in range(n):
            if used >> r & 1:
                together[r] |= used

    for i, j in itertools.combinations(range(n), 2):
        if before[j] >> i & 1 and before[i] >> j & 1:
            raise NotPartialOrder(f"{events[i]!r} and {events[j]!r} each precede the other")
    pairs = list(itertools.product(range(n), repeat=2))
    es = EventStructure(
        events=frozenset(events),
        leq=frozenset((events[i], events[j]) for i, j in pairs if before[j] >> i & 1),
        conflict=frozenset((events[i], events[j]) for i, j in pairs
                           if i != j and not together[i] >> j & 1))
    if not all(together):  # some event is fired by no run
        report = validate_es(es)
        if not report.ok:
            raise NotPartialOrder(str(report))
    return es


# ---------------------------------------------------------------------------
# Petri nets <-> automata
# ---------------------------------------------------------------------------

def pn_to_hda(n: PetriNet, max_states: int, max_dim: int,
              truncate_cells: bool = False) -> Hda:
    return cts_to_hda(pn_to_cts(n, max_states), max_dim, truncate_cells=truncate_cells)


class Region(NamedTuple):
    """A place candidate, as ``enumerate_regions`` returns it: the token
    flow of each label, ``((label, (consumed, produced)), ...)``, and the
    count at each vertex, ``((CellId, count), ...)``, both in canonical
    order.  The package itself reads a region as its slot values
    (``SynthesizedNet``)."""

    flows: tuple
    tokens: tuple


def _coherent(pre: int, post: int, source_tokens: int, target_tokens: int) -> bool:
    """The region rule on one cell, from the tokens its word consumes and produces
    in all and at its ends: both ends hold enough, and their difference is the flow."""
    return source_tokens >= pre and target_tokens >= post and \
        source_tokens - pre == target_tokens - post


def skeleton_slots(h: Hda):
    """The slots of a search over the vertices and labels of ``h``, in
    the order of a breadth-first walk of the 1-skeleton that puts each
    edge's label just before the vertex the edge reaches; labels on no cell
    come last.  Returns the slots, ("vertex", v) or ("label", a), and per
    slot the cells checked there: each cell of dimension >= 1 at its last
    slot, as the positions of its word, 0-source and 0-target.  An edge
    that closes a cycle thus prunes while labels are still being chosen.
    """
    slots: dict = {}  # slot -> position
    zero_ends = h.zero_ends
    adjacent = {v: [] for v in h.cells(0)}
    for e in h.cells(1):
        s, t = zero_ends[e]
        adjacent[s].append((h.label(e), t))
        adjacent[t].append((h.label(e), s))
    for v, word, u, new in breadth_first(adjacent, adjacent.__getitem__):
        if v is not None:
            slots.setdefault(("label", word[0]), len(slots))
        if new:
            slots[("vertex", u)] = len(slots)
    for a in sorted_by_key(h.alphabet):
        slots.setdefault(("label", a), len(slots))

    checks = [[] for _ in slots]
    for n in range(1, h.max_dim + 1):
        for cell, letters in zip(h.cells(n), h.words[n]):
            word = [slots[("label", a)] for a in letters]
            ends = tuple(slots[("vertex", v)] for v in zero_ends[cell])
            checks[max(*word, *ends)].append((word, *ends))
    return list(slots), checks


def _region_search(h: Hda, cap: int):
    """The search behind region synthesis, over the slots of
    ``skeleton_slots``, one level per slot: a vertex takes a token count, a
    label a flow as its code, consumed * (cap + 1) + produced, and each cell
    is tested for coherence at its last slot.  A label's flows are also
    pruned at its own slot by each edge it labels that has one end fixed.
    A slot's options are worked out once per reading of the earlier slots
    they read.  Returns each label's and each vertex's slot position, both
    in canonical order, the flow of each code, and every cap-bounded
    region's slot values."""
    names, checks = skeleton_slots(h)
    tokens = range(cap + 1)
    flows = [(a, b) for a in tokens for b in tokens]  # by code
    consumed, produced = zip(*flows)
    domains = [tokens if kind == "vertex" else range(len(flows)) for kind, _ in names]
    bounds = [set() for _ in names]  # per label slot: (0 for a fixed source, 1 for a target, its slot)
    for word, s, t in itertools.chain(*checks):
        if len(word) == 1 and min(s, t) < word[0] < max(s, t):  # an edge, its label between its ends
            bounds[word[0]].add((int(t < s), min(s, t)))

    # each check as the word positions fixed at earlier slots, how often the
    # slot itself is in the word (never, for a vertex) and the two ends
    plans = [[([i for i in word if i != pos], word.count(pos), s, t) for word, s, t in slot_checks]
             for pos, slot_checks in enumerate(checks)]
    reads = [sorted({i for fixed, _, s, t in plan for i in (*fixed, s, t)} - {pos} |
                    {end for _, end in bounds[pos]})
             for pos, plan in enumerate(plans)]

    def options(pos, partial):
        fits = domains[pos]
        for i, end in bounds[pos]:  # both ends of an edge hold 0..cap tokens in every region
            n = partial[end]  # the count at its fixed source (i = 0) or target (i = 1)
            fits = [c for c in fits if flows[c][i] <= n and n - flows[c][i] + flows[c][1 - i] <= cap]
        for fixed, k, s, t in plans[pos]:
            pre = post = 0  # summed once per call, then the candidate's flow is added k times
            for i in fixed:
                pre += consumed[partial[i]]
                post += produced[partial[i]]
            if k:  # a label slot: both ends are fixed
                source, target = partial[s], partial[t]
                fits = [c for c in fits
                        if _coherent(pre + k * consumed[c], post + k * produced[c], source, target)]
            elif s != t:  # the vertex is one end: the other end's count fixes its own
                other, leaves, enters = (partial[s], pre, post) if t == pos else (partial[t], post, pre)
                count = other - leaves + enters
                fits = [count] if count in fits and other >= leaves else []
            else:  # a self-loop
                fits = [count for count in fits if _coherent(pre, post, count, count)]
        return fits

    labels = {a: i for i, (kind, a) in enumerate(names) if kind == "label"}
    vertices = {v: i for i, (kind, v) in enumerate(names) if kind == "vertex"}
    labels, vertices = ({x: slots[x] for x in sorted_by_key(slots)} for slots in (labels, vertices))
    return labels, vertices, flows, level_search(reads, options)


def enumerate_regions(h: Hda, cap: int) -> frozenset:
    """All regions with every flow and token value bounded by ``cap``, each
    decoded from its slot values."""
    labels, vertices, flows, values = _region_search(h, cap)
    return frozenset(Region(flows=tuple((a, flows[row[i]]) for a, i in labels.items()),
                            tokens=tuple((v, row[i]) for v, i in vertices.items()))
                     for row in values)


@dataclass(frozen=True)
class SynthesizedNet:
    """A net whose places are the regions of ``hda``, each kept as the
    search found it: place ``p<i>`` is the row ``values[i]``, which holds
    at a label's slot the code of its flow, ``flows[code]``, and at a
    vertex's slot its token count.  ``labels`` and ``vertices`` give the
    slots in canonical order, the order the rows are sorted in."""

    net: PetriNet
    hda: Hda          # the automaton the net was synthesized from
    values: tuple     # the rows, sorted
    labels: dict      # label -> slot
    vertices: dict    # vertex -> slot
    flows: list       # code -> (consumed, produced)

    def tokens(self, place: str, v: CellId) -> int:
        """The count of ``place`` at vertex ``v``."""
        return self.values[int(place[1:])][self.vertices[v]]

    def flow(self, place: str, label) -> tuple[int, int]:
        """The tokens ``label`` consumes from and produces at ``place``."""
        return self.flows[self.values[int(place[1:])][self.labels[label]]]

    def place(self, row: tuple) -> Optional[str]:
        """The name of the place whose row is ``row``, or None."""
        key = itemgetter(*self.labels.values(), *self.vertices.values())
        i = bisect_left(self.values, key(row), key=key)
        return f"p{i}" if i < len(self.values) and self.values[i] == row else None


def hda_to_pn(h: Hda, cap: int) -> SynthesizedNet:
    """Synthesize the net whose places are the cap-bounded regions.

    The regions stay the search's slot values, each flow as its code, which
    sorts as the flow does.  They are sorted once, on the labels' codes in
    canonical label order and then the vertices' counts in canonical vertex
    order; places are numbered in that order.  The initial marking and each
    event's pre and post are columns of the values, the latter read through
    two lookup lists, in the places' (string) order, dropping zero counts.
    """
    labels, vertices, flows, values = _region_search(h, cap)
    values = tuple(sorted(values, key=itemgetter(*labels.values(), *vertices.values())))
    # "p<i>" sorts as str(i) does: the places in a Marking's order
    order = sorted(range(len(values)), key=str)
    places = [f"p{i}" for i in order]
    columns = list(zip(*[values[i] for i in order]))
    events = tuple(sorted_by_key(h.alphabet))
    consumed, produced = (counts.__getitem__ for counts in zip(*flows))
    net = PetriNet(
        places=frozenset(places),
        m0=Marking.over(places, columns[vertices[h.initial]]),
        events=frozenset(events),
        pre={e: Marking.over(places, list(map(consumed, columns[labels[e]]))) for e in events},
        post={e: Marking.over(places, list(map(produced, columns[labels[e]]))) for e in events},
    )
    return SynthesizedNet(net=net, hda=h, values=values, labels=labels, vertices=vertices, flows=flows)


# ---------------------------------------------------------------------------
# The net/automaton transposition
# ---------------------------------------------------------------------------

def transpose_to_hda(f: PnMorphism, synth: SynthesizedNet, net: PetriNet, target: Hda) -> HdaMorphism:
    """Turn a net morphism out of the synthesized net into an automaton
    morphism into the net's automaton.

    A vertex goes to the marking that reads, at each place, the token count
    in the row of the place it pulls back to; the labels follow the event map.
    """
    # the places in a Marking's order, sorted once rather than per vertex
    places = sorted_by_key(net.places)
    pulled = [f.phi[p] for p in places]

    def marking(v):
        return Marking.over(places, [synth.tokens(q, v) for q in pulled])

    return induced_morphism(synth.hda, target, _vertex_map(synth.hda, target, marking), f.psi)


def transpose_to_pn(g: HdaMorphism, synth: SynthesizedNet, net: PetriNet, target: Hda) -> PnMorphism:
    """Turn an automaton morphism into the net's automaton back into a net
    morphism out of the synthesized net.

    Each place pulls back to the region reading its token count through the
    image markings; flows come from the net's pre/postconditions along the
    label map.
    """
    return _place_map(g, synth, sorted_by_key(net.places),
                      lambda p, a: (net.pre[a].get(p), net.post[a].get(p)),
                      lambda p, v: target.state(v).get(p))


# ---------------------------------------------------------------------------
# Functorial action on morphisms
# ---------------------------------------------------------------------------

def map_morphism(functor: str, m, src, dst):
    """Image of a model morphism under a translation.

    ``src`` and ``dst`` are what the caller built: for a translation into
    automata, the automata of ``m``'s two ends; for one out of automata,
    the automata ``m`` goes between; for ``hda_to_pn``, the two
    synthesized nets.  No translation runs here.
    """
    if functor in ("ts_to_hda1", "acr_to_hda2"):
        base = m.base if isinstance(m, AcrMorphism) else m
        return induced_morphism(src, dst, _vertex_map(src, dst, lambda v: base.sigma[src.state(v)]),
                                base.tau)
    if functor in ("hda1_to_ts", "hda2_to_acr"):
        sigma = {src.state(c): dst.state(m.cell_map[c].base) for c in src.cells(0)}
        tau = {a: b for a, b in m.label_map.items() if b != STAR}
        base = TsMorphism(sigma=sigma, tau=tau)
        return base if functor == "hda1_to_ts" else AcrMorphism(base)
    if functor == "es_to_hda":
        return induced_morphism(src, dst, _vertex_map(src, dst, lambda v: frozenset(
            m.mapping[e] for e in src.state(v) if e in m.mapping)), m.mapping)
    if functor == "hda_to_es":
        return EsMorphism({a: b for a, b in m.label_map.items() if b != STAR})
    if functor == "pn_to_hda":
        return induced_morphism(src, dst, _vertex_map(src, dst, lambda v: Marking.of(
            {p: src.state(v).get(q) for p, q in m.phi.items()})), m.psi)
    if functor == "hda_to_pn":
        return _place_map(m, src, [f"p{i}" for i in range(len(dst.values))], dst.flow, dst.tokens)
    raise ValueError(f"no morphism action for functor {functor!r}")


def _vertex_map(src: Hda, dst: Hda, image) -> dict:
    """Each vertex of ``src`` to the vertex of ``dst`` whose state is ``image(vertex)``."""
    vertex_map = {}
    for v in src.cells(0):
        state = image(v)
        if state not in dst.vertex_by_state:
            raise OutOfReachableFragment(f"image {state!r} of vertex {src.state(v)!r} is not reachable")
        vertex_map[v] = dst.vertex_by_state[state]
    return vertex_map


def _place_map(g: HdaMorphism, synth: SynthesizedNet, places, flow, tokens) -> PnMorphism:
    """The net morphism out of ``synth`` along an automaton morphism ``g``
    out of ``synth.hda``.  Each place ``p`` goes to the place whose row
    reads ``p`` through ``g``: at a label's slot the code of ``flow(p,
    image)``, of (0, 0) when dropped, and at a vertex's slot ``tokens(p,
    base)`` at the base of its image.  Every cap-bounded region is a place,
    so a row that is not one raises CapExceeded: a count above the cap, or
    a flow that has no code.  (Computing a code from the flow instead would
    read (0, 2) at cap 1 as the code of (1, 0).)  The labels map along ``g``.
    """
    labels = [(a, g.label_image(a)) for a in synth.labels]
    code = {pair: c for c, pair in enumerate(synth.flows)}
    bases = [(i, g.cell_map[v].base) for v, i in synth.vertices.items()]
    row = [0] * (len(labels) + len(bases))
    phi = {}
    for p in places:
        for a, b in labels:
            row[synth.labels[a]] = code.get((0, 0) if b == STAR else flow(p, b), -1)
        for i, base in bases:
            row[i] = tokens(p, base)
        phi[p] = synth.place(tuple(row))
        if phi[p] is None:
            raise CapExceeded(f"place {p!r} pulls back to a region that is not a place")
    psi = {a: b for a, b in labels if b != STAR}
    return PnMorphism(phi=phi, psi=psi)

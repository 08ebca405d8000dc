"""Seeded inputs for the four benchmark workloads.

Standard library only, and hdabridge is not imported here: set-up time
covers generating and writing these documents, and the references check
the program's outputs without it.

Every workload has five slots.  A slot is one family of documents whose
members differ only in naming or in where a relation sits, so every
member costs the program the same work; the seed picks one member per
slot.  The timed loop runs the five slots round by round, which keeps the
median and the tail percentile on a fixed slot whatever the seed (see
README.md).  ``laws-all`` has no documents: its ops are the law-suite
seeds 0..9 in a seed-chosen order.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

ROUND = 5          # ops per round; every slot-based workload has five slots
LAW_SEEDS = 10     # laws-all runs the suite seeds range(LAW_SEEDS), in a seeded order
CAP = 2            # region value bound of region-synth


@dataclass(frozen=True)
class Op:
    """One checked op: CLI steps on one document (or on none, for laws).

    ``key`` names the pinned sha256 of the printed document.  In ``steps``
    the strings "{in}" and "{out}" stand for the input and output paths.
    ``model`` is what the reference is computed from.
    """

    key: str
    steps: tuple
    doc: dict | None = None
    model: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# es-cube: six-event structures, free and sparse
# ---------------------------------------------------------------------------

ES_EVENTS = tuple(f"e{i}" for i in range(6))


def _es_doc(causes=(), conflicts=()) -> dict:
    return {
        "kind": "es",
        "format_version": 1,
        "events": list(ES_EVENTS),
        "causality": sorted([a, b] for a, b in causes),
        "conflict": sorted(sorted(p) for p in conflicts),
    }


def _ordered_pairs(events):
    return [(a, b) for a in events for b in events if a != b]


def _es_variants() -> dict:
    ev = ES_EVENTS
    one = [_es_doc(causes=[p]) for p in _ordered_pairs(ev)]
    one += [_es_doc(conflicts=[p]) for p in itertools.combinations(ev, 2)]
    two = []
    for a, b in _ordered_pairs(ev):
        rest = [e for e in ev if e not in (a, b)]
        for c, d in itertools.combinations(rest, 2):
            two.append(_es_doc(causes=[(a, b)], conflicts=[(c, d)]))
    three = []
    for (a, b), (c, d) in itertools.combinations(_ordered_pairs(ev), 2):
        if len({a, b, c, d}) < 4:
            continue
        e, f = [x for x in ev if x not in (a, b, c, d)]
        three.append(_es_doc(causes=[(a, b), (c, d)], conflicts=[(e, f)]))
    chain = []
    for a, b, c in itertools.permutations(ev, 3):
        rest = [x for x in ev if x not in (a, b, c)]
        for d, e in itertools.combinations(rest, 2):
            chain.append(_es_doc(causes=[(a, b), (b, c), (a, c)], conflicts=[(d, e)]))
    return {"free": [_es_doc()], "one": one, "two": two, "three": three, "chain": chain}


def _hda_steps(max_dim: int) -> tuple:
    return (("translate", "{in}", "--to", "hda", "--max-dim", str(max_dim), "-o", "{out}"),
            ("validate", "{out}"))


def _es_op(key: str, doc: dict) -> Op:
    model = {"events": doc["events"], "causality": doc["causality"],
             "conflict": doc["conflict"], "max_dim": len(doc["events"])}
    return Op(key=key, steps=_hda_steps(len(doc["events"])), doc=doc, model=model)


# ---------------------------------------------------------------------------
# pn-tokens: k-token pipelines and fork/join nets
# ---------------------------------------------------------------------------

def _net_doc(places, m0, pre, post) -> dict:
    return {
        "kind": "pnet",
        "format_version": 1,
        "places": sorted(places),
        "m0": m0,
        "events": sorted(pre),
        "pre": pre,
        "post": post,
    }


def _pipeline(k: int, names) -> dict:
    """k tokens flow through len(names) stages; names[i] moves p_i to p_i+1."""
    places = [f"p{i}" for i in range(len(names) + 1)]
    pre = {t: {places[i]: 1} for i, t in enumerate(names)}
    post = {t: {places[i + 1]: 1} for i, t in enumerate(names)}
    return _net_doc(places, {"p0": k}, pre, post)


def _fork_join(k: int, names) -> dict:
    """k tokens each forked into len(names) - 2 branches and joined again;
    names are (fork, join, branch events...)."""
    fork, join, *work = names
    places = ["s", "e"] + [f"a{i}" for i in range(len(work))] + [f"z{i}" for i in range(len(work))]
    pre = {fork: {"s": 1}, join: {f"z{i}": 1 for i in range(len(work))}}
    post = {fork: {f"a{i}": 1 for i in range(len(work))}, join: {"e": 1}}
    for i, w in enumerate(work):
        pre[w] = {f"a{i}": 1}
        post[w] = {f"z{i}": 1}
    return _net_doc(places, {"s": k}, pre, post)


# (slot, net shape, tokens, event names permuted over, --max-dim)
PN_SLOTS = (
    ("pipe6x3", _pipeline, 6, ("t0", "t1", "t2"), 6),
    ("fork3x2", _fork_join, 3, ("t0", "t1", "t2", "t3"), 6),
    ("pipe6x2", _pipeline, 6, ("t0", "t1"), 6),
    ("pipe3x4", _pipeline, 3, ("t0", "t1", "t2", "t3"), 3),
    ("fork1x3", _fork_join, 1, ("t0", "t1", "t2", "t3", "t4"), 3),
)


def _pn_variants() -> dict:
    return {slot: [(build(k, perm), max_dim) for perm in itertools.permutations(names)]
            for slot, build, k, names, max_dim in PN_SLOTS}


def _pn_op(key: str, variant) -> Op:
    doc, max_dim = variant
    model = {key: doc[key] for key in ("places", "m0", "events", "pre", "post")}
    model["max_dim"] = max_dim
    return Op(key=key, steps=_hda_steps(max_dim), doc=doc, model=model)


# ---------------------------------------------------------------------------
# region-synth: 1- and 2-dimensional automata with four or five labels
# ---------------------------------------------------------------------------

def hda_doc(n_states: int, edges, squares=()) -> dict:
    """An automaton document from its vertices 0..n_states-1, labeled edges
    (src, label, tgt) and filled squares (x, a, b).

    Cells are keyed as a cubical transition system keys them, (state,
    word): the i-th negative face drops letter i, the positive one first
    fires it, and the transposition swaps the two letters of a square.
    """
    step = {(s, a): t for s, a, t in edges}
    keys = {0: [(x, ()) for x in range(n_states)],
            1: sorted((s, (a,)) for s, a, _ in edges),
            2: sorted({(x, w) for x, a, b in squares for w in ((a, b), (b, a))})}
    max_dim = 2 if squares else 1
    index = {n: {k: i for i, k in enumerate(keys[n])} for n in range(max_dim + 1)}
    faces = {}
    for n in range(1, max_dim + 1):
        for i in range(n):
            for sign in ("-", "+"):
                table = {}
                for idx, (x, w) in enumerate(keys[n]):
                    src = x if sign == "-" else step[(x, w[i])]
                    table[str(idx)] = index[n - 1][(src, w[:i] + w[i + 1:])]
                faces[f"{n},{i},{sign}"] = table
    doc = {
        "kind": "hda",
        "format_version": 1,
        "alphabet": sorted({a for _, a, _ in edges}),
        "dims": list(range(max_dim + 1)),
        "cells": {str(n): list(range(len(keys[n]))) for n in range(max_dim + 1)},
        "faces": faces,
        "sym": {},
        "labels": {str(n): {str(i): list(w) for i, (_, w) in enumerate(keys[n])}
                   for n in range(1, max_dim + 1)},
        "initial": 0,
    }
    if squares:
        doc["sym"]["2,0"] = {str(i): index[2][(x, (w[1], w[0]))]
                             for i, (x, w) in enumerate(keys[2])}
    return doc


def _chain(labels):
    return {"states": len(labels) + 1,
            "edges": [(i, a, i + 1) for i, a in enumerate(labels)], "squares": []}


def _cycle(labels):
    n = len(labels)
    return {"states": n, "edges": [(i, a, (i + 1) % n) for i, a in enumerate(labels)],
            "squares": []}


def _square_tail(square, tail):
    """A filled square on two labels at the initial vertex, then a chain of
    the remaining labels from its far corner."""
    a, b = square
    edges = [(0, a, 1), (0, b, 2), (1, b, 3), (2, a, 3)]
    for i, c in enumerate(tail):
        edges.append((3 + i, c, 4 + i))
    return {"states": 4 + len(tail), "edges": edges, "squares": [(0, a, b)]}


def _two_squares(first, second):
    """Two filled squares glued at a corner: (a, b) at the initial vertex,
    (c, d) at its far corner."""
    (a, b), (c, d) = first, second
    edges = [(0, a, 1), (0, b, 2), (1, b, 3), (2, a, 3),
             (3, c, 4), (3, d, 5), (4, d, 6), (5, c, 6)]
    return {"states": 7, "edges": edges, "squares": [(0, a, b), (3, c, d)]}


def _region_variants() -> dict:
    four = "abcd"
    squares = []
    glued = []
    for a, b in itertools.combinations(four, 2):
        c, d = [x for x in four if x not in (a, b)]
        squares += [_square_tail((a, b), (c, d)), _square_tail((a, b), (d, c))]
        glued += [_two_squares((a, b), (c, d)), _two_squares((c, d), (a, b))]
    return {
        "cycle5": [_cycle("a" + "".join(p)) for p in itertools.permutations("bcde")],
        "chain4": [_chain(p) for p in itertools.permutations(four)],
        "cycle4": [_cycle(p) for p in itertools.permutations(four)],
        "square4": squares,
        "glued4": glued,
    }


def _region_op(key: str, shape) -> Op:
    doc = hda_doc(shape["states"], shape["edges"], shape["squares"])
    model = dict(shape, cap=CAP)
    return Op(key=key, steps=(("translate", "{in}", "--to", "pnet", "--cap", str(CAP),
                               "-o", "{out}"),), doc=doc, model=model)


# ---------------------------------------------------------------------------
# laws-all
# ---------------------------------------------------------------------------

def _laws_op(s: int) -> Op:
    return Op(key=f"seed/{s}",
              steps=(("laws", "--suite", "all", "--count", "100", "--seed", str(s)),))


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

WORKLOADS = ("es-cube", "pn-tokens", "region-synth", "laws-all")

_VARIANTS = {"es-cube": (_es_variants, _es_op),
             "pn-tokens": (_pn_variants, _pn_op),
             "region-synth": (_region_variants, _region_op)}


def all_ops(workload: str) -> list:
    """Every op the workload can draw, whatever the seed (what pins.json covers)."""
    if workload == "laws-all":
        return [_laws_op(s) for s in range(LAW_SEEDS)]
    variants, make = _VARIANTS[workload]
    return [make(f"{slot}/{i}", v)
            for slot, members in variants().items() for i, v in enumerate(members)]


def pool(workload: str, seed: int) -> list:
    """The ops of a run with this seed, in order; a run cycles through them.

    Slot workloads get one seed-chosen document per slot, so a round of
    five ops covers every slot; laws-all gets a seed-chosen order of its
    suite seeds.  A run times whole passes over them, so every run meets
    every suite seed equally often: a few of them generate much larger
    models than the rest, and drawing a sample per run made the peak RSS
    depend on the draw.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "laws-all":
        return [_laws_op(s) for s in rng.sample(range(LAW_SEEDS), LAW_SEEDS)]
    variants, make = _VARIANTS[workload]
    ops = []
    for slot, members in variants().items():
        i = rng.randrange(len(members))
        ops.append(make(f"{slot}/{i}", members[i]))
    return ops

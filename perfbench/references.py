"""Reference results computed without the program.

Each reference is an independent, slow-but-obvious count: cells by brute
force over configurations or markings, regions by dynamic programming on
chains and cycles and by exhaustive search on the other shapes.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from math import factorial, prod


def es_cells(model: dict) -> list:
    """Ordered cells per dimension of the automaton of an event structure.

    A cell is a configuration plus an ordering of a set of pairwise
    compatible events that are each enabled there, so a d-set counts d!.
    The free n-event structure gives C(n,d) * 2^(n-d) * d!.
    """
    events = list(model["events"])
    below = {e: set() for e in events}
    for a, b in model["causality"]:
        below[b].add(a)
    conflict = {tuple(p) for p in model["conflict"]} | {(b, a) for a, b in model["conflict"]}
    counts = [0] * (model["max_dim"] + 1)
    for r in range(len(events) + 1):
        for config in map(set, itertools.combinations(events, r)):
            if any(not below[e] <= config for e in config):
                continue
            if any((a, b) in conflict for a in config for b in config):
                continue
            enabled = [e for e in events if e not in config and below[e] <= config
                       and not any((e, x) in conflict for x in config)]
            for d in range(len(enabled) + 1):
                for chosen in itertools.combinations(enabled, d):
                    if not any((a, b) in conflict for a, b in itertools.combinations(chosen, 2)):
                        if d >= len(counts):
                            raise ValueError(f"a {d}-cell exceeds --max-dim")
                        counts[d] += factorial(d)
    return counts


def markings(model: dict) -> list:
    """Reachable markings as count vectors over the sorted places, by BFS."""
    places = sorted(model["places"])

    def vec(m):
        return tuple(m.get(p, 0) for p in places)

    pre = {e: vec(model["pre"].get(e, {})) for e in model["events"]}
    post = {e: vec(model["post"].get(e, {})) for e in model["events"]}
    start = vec(model["m0"])
    seen, queue = {start}, deque([start])
    while queue:
        m = queue.popleft()
        for e in model["events"]:
            if all(a >= b for a, b in zip(m, pre[e])):
                nxt = tuple(a - b + c for a, b, c in zip(m, pre[e], post[e]))
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return sorted(seen)


def pn_cells(model: dict) -> list:
    """Ordered cells per dimension of a net's automaton: at each reachable
    marking, every multiset of events whose summed preconditions the
    marking covers, counted by its number of distinct orderings."""
    places = sorted(model["places"])
    pre = {e: [model["pre"].get(e, {}).get(p, 0) for p in places] for e in model["events"]}
    top = model["max_dim"]
    counts = [0] * (top + 1)
    for m in markings(model):
        for d in range(top + 2):
            for ms in itertools.combinations_with_replacement(sorted(model["events"]), d):
                need = [sum(col) for col in zip(*(pre[e] for e in ms))] if ms else []
                if all(n <= have for n, have in zip(need, m)):
                    if d > top:
                        raise ValueError(f"a {d}-cell exceeds --max-dim")
                    counts[d] += factorial(d) // prod(factorial(k) for k in Counter(ms).values())
    return counts


def _flow_steps(cap: int) -> dict:
    """t -> [t'] over every (consumed, produced) flow an edge can carry
    from a vertex holding t tokens, one entry per flow."""
    return {t: [t - a + b for a in range(cap + 1) for b in range(cap + 1)
                if a <= t and 0 <= t - a + b <= cap]
            for t in range(cap + 1)}


def chain_regions(labels: int, cap: int) -> int:
    """Regions of a chain of distinct labels, by DP over the token count."""
    steps = _flow_steps(cap)
    ways = [1] * (cap + 1)
    for _ in range(labels):
        nxt = [0] * (cap + 1)
        for t, w in enumerate(ways):
            for t2 in steps[t]:
                nxt[t2] += w
        ways = nxt
    return sum(ways)


def cycle_regions(labels: int, cap: int) -> int:
    """Regions of a cycle of distinct labels: DP paths that return to
    their starting token count."""
    steps = _flow_steps(cap)
    total = 0
    for t0 in range(cap + 1):
        ways = [int(t == t0) for t in range(cap + 1)]
        for _ in range(labels):
            nxt = [0] * (cap + 1)
            for t, w in enumerate(ways):
                for t2 in steps[t]:
                    nxt[t2] += w
            ways = nxt
        total += ways[t0]
    return total


def exhaustive_regions(model: dict) -> int:
    """Regions of a connected automaton given as states, edges and squares,
    by trying every flow assignment and every initial token count."""
    cap = model["cap"]
    labels = sorted({a for _, a, _ in model["edges"]})
    step = {(s, a): t for s, a, t in model["edges"]}
    adjacent = {}
    for s, a, t in model["edges"]:
        adjacent.setdefault(s, []).append((t, a, +1))
        adjacent.setdefault(t, []).append((s, a, -1))
    values = [(a, b) for a in range(cap + 1) for b in range(cap + 1)]
    count = 0
    for combo in itertools.product(values, repeat=len(labels)):
        flow = dict(zip(labels, combo))
        for t0 in range(cap + 1):
            tokens = {0: t0}
            queue = [0]
            ok = True
            while queue and ok:
                v = queue.pop()
                for u, a, sign in adjacent.get(v, ()):
                    delta = sign * (flow[a][1] - flow[a][0])
                    if u not in tokens:
                        tokens[u] = tokens[v] + delta
                        queue.append(u)
                    elif tokens[u] != tokens[v] + delta:
                        ok = False
            if not ok or len(tokens) != model["states"]:
                continue
            if any(not 0 <= t <= cap for t in tokens.values()):
                continue
            if any(tokens[s] < flow[a][0] or tokens[t] < flow[a][1]
                   for s, a, t in model["edges"]):
                continue
            if any(tokens[x] < flow[a][0] + flow[b][0]
                   or tokens[step[(step[(x, a)], b)]] < flow[a][1] + flow[b][1]
                   for x, a, b in model["squares"]):
                continue
            count += 1
    return count


def regions(model: dict) -> int:
    """Region count of a region-synth shape (one net place per region)."""
    n_labels = len({a for _, a, _ in model["edges"]})
    if model["squares"] or len(model["edges"]) != n_labels:
        return exhaustive_regions(model)
    if model["states"] == n_labels + 1:
        return chain_regions(n_labels, model["cap"])
    return cycle_regions(n_labels, model["cap"])

"""Small shared helpers: deterministic ordering, the lazy depth-first search
(for searches that stop early), the level-by-level search that asks each
slot's options once per reading, the one breadth-first walk, and
validation reports."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter


def canon_key(value):
    """Total order key over the mixed values used as names and cell keys.

    Values are compared first by a type tag, then structurally, so sorting
    never raises on heterogeneous collections and is stable across runs.
    """
    if isinstance(value, bool):
        return ("bool", value)
    if isinstance(value, int):
        return ("int", value)
    if isinstance(value, str):
        return ("str", value)
    if isinstance(value, tuple):
        return ("tuple", tuple(canon_key(v) for v in value))
    if isinstance(value, (frozenset, set)):
        return ("set", tuple(sorted(canon_key(v) for v in value)))
    if hasattr(value, "canon_key"):
        return value.canon_key()
    return ("repr", repr(value))


def sorted_by_key(values) -> list:
    """``values`` sorted by :func:`canon_key`.

    Plain names (all ``str`` or all ``int``), and tuples or frozensets whose
    members are all ``str`` or all ``int``, sort in that order without key
    tuples: names and tuples as they are, frozensets by their sorted
    members.  A tuple subclass that keeps tuple order (a ``CellId``)
    counts as a tuple.  Any other mix, ``bool`` and subclasses of names
    included, sorts by ``canon_key``.
    """
    values = list(values)
    kinds = set(map(type, values))
    kind = kinds.pop() if len(kinds) == 1 else object
    if kind is frozenset or kind.__lt__ is tuple.__lt__:
        members = set(map(type, chain.from_iterable(values)))
        if len(members) <= 1 and members <= {str, int}:
            values.sort(key=(lambda v: tuple(sorted(v))) if kind is frozenset else None)
            return values
    elif kind in (str, int):
        values.sort()
        return values
    values.sort(key=canon_key)
    return values


def backtrack(slots, options):
    """Yield every full assignment of values to ``slots``, depth first.

    ``options(pos, partial)`` gives the values allowed at ``slots[pos]``,
    where ``partial`` is the list of values already chosen for
    ``slots[:pos]``; it must not be changed.  Assignments come out as
    tuples in slot order, in the order the options list their values.  An
    explicit stack of iterators replaces recursion, so the depth of the
    search is not bounded by the interpreter's recursion limit.
    """
    if not slots:
        yield ()
        return
    partial: list = []
    stack = [iter(options(0, partial))]
    while stack:
        for value in stack[-1]:
            partial.append(value)
            if len(partial) == len(slots):
                yield tuple(partial)
                partial.pop()
            else:
                stack.append(iter(options(len(partial), partial)))
                break
        else:
            stack.pop()
            if partial:
                partial.pop()


def level_search(reads, options) -> list:
    """Every full assignment of values to the slots, built a level at a time.

    ``reads[pos]`` lists the earlier positions that ``options(pos,
    partial)`` reads; the values it allows at ``pos`` must depend on those
    alone.  Each level extends every partial assignment of the one before,
    and ``options`` is called once per distinct reading, with any partial
    that reads so.  Assignments come out as tuples in slot order, in the
    order a depth-first search would yield them.
    """
    level = [()]
    for pos, read in enumerate(reads):
        keys = list(map(itemgetter(*read), level)) if read else [()] * len(level)
        fits = {k: options(pos, partial) for k, partial in dict(zip(keys, level)).items()}
        level = [p + (v,) for p, k in zip(level, keys) for v in fits[k]]
    return level


def breadth_first(roots, successors):
    """Walk breadth first from each root in turn.

    ``successors(x)`` lists ``(step, y)`` pairs.  Yields
    ``(None, None, root, True)`` for each root not yet reached, then
    ``(x, step, y, new)`` for every pair that leaves a reached node, in
    listed order; ``new`` is true the first time ``y`` is reached.  New
    nodes thus come out in breadth-first order.
    """
    reached = set()
    for root in roots:
        if root in reached:
            continue
        reached.add(root)
        yield None, None, root, True
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for step, y in successors(x):
                new = y not in reached
                if new:
                    reached.add(y)
                    queue.append(y)
                yield x, step, y, new


@dataclass
class ValidationReport:
    """Accumulates violated axiom instances; empty means the subject is valid."""

    subject: str
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, message: str) -> None:
        self.violations.append(message)

    def __str__(self) -> str:
        if self.ok:
            return f"{self.subject}: ok"
        lines = [f"{self.subject}: {len(self.violations)} violation(s)"]
        lines += [f"  - {v}" for v in self.violations]
        return "\n".join(lines)

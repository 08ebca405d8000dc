"""Small shared helpers: deterministic ordering and validation reports."""

from __future__ import annotations

from dataclasses import dataclass, field


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


def sorted_by_key(values):
    return sorted(values, key=canon_key)


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

    def extend(self, other: "ValidationReport") -> None:
        self.violations.extend(other.violations)

    def __str__(self) -> str:
        if self.ok:
            return f"{self.subject}: ok"
        lines = [f"{self.subject}: {len(self.violations)} violation(s)"]
        lines += [f"  - {v}" for v in self.violations]
        return "\n".join(lines)

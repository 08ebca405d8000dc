"""DOT rendering of the 1-skeleton with optional square annotations.

Output ordering is fully sorted, so a fixed input always produces the
same bytes.
"""

from __future__ import annotations

from .cubical import Hda
from .util import sorted_by_key

DIM2_STYLES = ("diagonals", "clusters", "none")


def _quote(value) -> str:
    return '"' + _text(value).replace('"', '\\"') + '"'


def _text(value) -> str:
    """``str(value)``, but with the members of each set in canonical order,
    so that a name does not depend on string hashing."""
    if type(value) is frozenset:
        members = ", ".join(map(_repr, sorted_by_key(value)))
        return f"frozenset({{{members}}})" if value else "frozenset()"
    if type(value) is tuple:
        return "(" + ", ".join(map(_repr, value)) + ("," if len(value) == 1 else "") + ")"
    return str(value)


def _repr(value) -> str:
    return _text(value) if type(value) in (frozenset, tuple) else repr(value)


def hda_to_dot(h: Hda, dim2: str = "diagonals") -> str:
    """Vertices and labeled edges as a digraph, each vertex named by the
    state it denotes (``Hda.state``); the initial state is double-circled.
    Squares appear once per unordered pair, either as a dashed diagonal
    edge or as annotation clusters; labels are spelled as names are, so
    events may be numbers."""
    if dim2 not in DIM2_STYLES:
        raise ValueError(f"dim2 style must be one of {DIM2_STYLES}")
    lines = ["digraph model {"]
    names = {v: h.state(v) for v in h.cells(0)}
    for v in sorted_by_key(h.cells(0)):
        shape = "doublecircle" if v == h.initial else "circle"
        lines.append(f"  {_quote(names[v])} [shape={shape}];")
    ends = h.zero_ends
    edge_lines = []
    for e in h.cells(1):
        src, tgt = (names[v] for v in ends[e])
        (label,) = h.label(e)
        edge_lines.append(f"  {_quote(src)} -> {_quote(tgt)} [label={_quote(label)}];")
    lines.extend(sorted(edge_lines))

    if dim2 != "none" and h.max_dim >= 2:
        seen = set()
        squares = []
        for cell in h.cells(2):
            orbit = frozenset({cell, h.complex.transpose(cell, 0)})
            if orbit in seen:
                continue
            seen.add(orbit)
            a, b = sorted_by_key(h.label(cell)[:2])
            src, tgt = (names[v] for v in ends[cell])
            squares.append((src, tgt, a, b))
        for i, (src, tgt, a, b) in enumerate(sorted_by_key(squares)):
            if dim2 == "diagonals":
                lines.append(
                    f"  {_quote(src)} -> {_quote(tgt)} "
                    f"[style=dashed, dir=none, label={_quote(_text(a) + '||' + _text(b))}];")
            else:
                lines.append(f"  subgraph cluster_square_{i} {{")
                lines.append(f"    label={_quote(_text(a) + '||' + _text(b) + ' at ' + _text(src))};")
                lines.append(f"    {_quote(f'square_{i}')} [shape=point];")
                lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"

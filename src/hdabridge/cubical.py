"""Finite cubical machinery: precubical and symmetric cubical complexes,
label words, and higher dimensional automata.

Representation
--------------
Only non-degenerate cells are materialized: ``CellId(n, j)`` is position
j of cells(n).  A complex stores, per dimension, the index of each
position (``range(N)`` unless a parsed document numbered its cells
otherwise), which only messages and printed documents read, and a column
per face map ``faces[(n, i, sign)] : cells(n) -> cells(n-1)``,
``0 <= i <= n-1``, and per transposition: a list whose entry j is the
position of the image of cell j, or None where the map is undefined.  An
entry that is no position (negative, past the cells, or
:class:`Unlisted`) names no cell.  Degenerate cells exist as
:class:`DegeneracyWitness` values: a base cell plus the strictly sorted
positions of the collapsed directions in the final coordinate word.  This
normal form is unique, so equality of arbitrary cells is a tuple
comparison.

Index conventions (pinned by the exhaustive n-cube tests; ``.`` composes
with the right-hand map applied first):

* faces of an n-cell are indexed ``i = 0..n-1`` and satisfy, for ``i < j``,
  ``face(i, a) . face(j, b) = face(j-1, b) . face(i, a)``;
* degeneracies insert a collapsed direction at a position ``0..n`` and
  satisfy ``degeneracy(i) . degeneracy(j) = degeneracy(j+1) . degeneracy(i)``
  for ``i <= j``;
* a face at a collapsed position is the identity regardless of sign,
  otherwise it slides past the collapsed positions;
* adjacent transpositions are involutions, satisfy the braid relation,
  and exchange faces ``i`` and ``i+1``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, partial, reduce
from itertools import repeat
from operator import itemgetter
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence, Union

from .errors import ArityMismatch, IndexOutOfRange
from .util import ValidationReport

STAR = "*"

SIGNS = ("-", "+")


class CellId(NamedTuple):
    """A non-degenerate cell, identified by dimension and position."""

    dim: int
    index: int


def cells_of_dim(n: int, count: int) -> Iterable[CellId]:
    """``CellId(n, j)`` for j < count, without a Python call per cell."""
    return map(partial(tuple.__new__, CellId), zip(repeat(n), range(count)))


class Unlisted(NamedTuple):
    """A document's value naming no listed cell; it prints as written."""

    index: int

    def __repr__(self) -> str:
        return repr(self.index)


def is_position(value, size: int) -> bool:
    """Whether a column entry names one of ``size`` cells."""
    return type(value) is int and 0 <= value < size


@dataclass(frozen=True)
class DegeneracyWitness:
    """A possibly-degenerate cell: a base cell with collapsed positions.

    ``stars`` are the 0-based positions of the collapsed directions in the
    final coordinate word, strictly increasing.  The witness has dimension
    ``base.dim + len(stars)``; empty ``stars`` means the base cell itself.
    """

    base: CellId
    stars: tuple[int, ...] = ()

    def __post_init__(self):
        n = self.base.dim + len(self.stars)
        last = -1
        for p in self.stars:
            if p <= last or p < 0 or p >= n:
                raise ValueError(f"star positions must be strictly sorted in 0..{n-1}: {self.stars}")
            last = p

    @property
    def dim(self) -> int:
        return self.base.dim + len(self.stars)

    @property
    def degenerate(self) -> bool:
        return bool(self.stars)


Cell = Union[CellId, DegeneracyWitness]


def as_witness(cell: Cell) -> DegeneracyWitness:
    if isinstance(cell, DegeneracyWitness):
        return cell
    return DegeneracyWitness(cell)


@dataclass(frozen=True)
class PrecubicalComplex:
    """Finite precubical set: the indices of cells(n) and the face columns."""

    cells: Mapping[int, Sequence[int]]
    faces: Mapping[tuple[int, int, str], Sequence]
    max_dim: int

    def all_cells(self) -> Iterable[CellId]:
        for n in range(self.max_dim + 1):
            yield from cells_of_dim(n, len(self.cells.get(n, ())))

    def has_cell(self, cell: CellId) -> bool:
        return is_position(cell.index, len(self.cells.get(cell.dim, ())))

    def index_of(self, dim: int, value):
        """The document index of ``value``, a column entry naming a cell of
        dimension ``dim``; an entry that names no cell is itself."""
        ids = self.cells.get(dim, ())
        return ids[value] if is_position(value, len(ids)) else value

    def face(self, cell: CellId, i: int, sign: str) -> CellId:
        if not 0 <= i < cell.dim:
            raise IndexOutOfRange(f"face index {i} out of range for dimension {cell.dim}")
        if sign not in SIGNS:
            raise IndexOutOfRange(f"bad face sign {sign!r}")
        table = self.faces.get((cell.dim, i, sign)) or ()
        if not is_position(cell.index, len(table)) or table[cell.index] is None:
            raise KeyError(f"no face map entry for {cell} at ({i},{sign})")
        return CellId(cell.dim - 1, table[cell.index])


@dataclass(frozen=True)
class SymmetricCubicalComplex:
    """Cubical set with adjacent-transposition maps on each dimension n >= 2.

    ``transpositions[(n, i)]`` is a column over cells(n), a total map for
    ``0 <= i <= n-2``.
    """

    skeleton: PrecubicalComplex
    transpositions: Mapping[tuple[int, int], Sequence]

    def transpose(self, cell: CellId, i: int) -> CellId:
        if not 0 <= i <= cell.dim - 2:
            raise IndexOutOfRange(f"transposition index {i} out of range for dimension {cell.dim}")
        table = self.transpositions.get((cell.dim, i)) or ()
        if not is_position(cell.index, len(table)) or table[cell.index] is None:
            raise KeyError(f"no transposition entry for {cell} at {i}")
        return CellId(cell.dim, table[cell.index])


Complex = Union[PrecubicalComplex, SymmetricCubicalComplex]


def skeleton_of(c: Complex) -> PrecubicalComplex:
    if isinstance(c, PrecubicalComplex):
        return c
    return c.skeleton


# ---------------------------------------------------------------------------
# Cell-level actions
# ---------------------------------------------------------------------------

def cell_face(c: Complex, cell: Cell, i: int, sign: str) -> DegeneracyWitness:
    """Face of a possibly-degenerate cell.

    A face taken at a collapsed position just removes that position (both
    signs agree); otherwise the face is looked up in the skeleton and the
    remaining collapsed positions slide down past the removed one.
    """
    w = as_witness(cell)
    n = w.dim
    if not 0 <= i < n:
        raise IndexOutOfRange(f"face index {i} out of range for dimension {n}")
    if sign not in SIGNS:
        raise IndexOutOfRange(f"bad face sign {sign!r}")
    if i in w.stars:
        stars = tuple(p if p < i else p - 1 for p in w.stars if p != i)
        return DegeneracyWitness(w.base, stars)
    base_i = i - sum(1 for p in w.stars if p < i)
    new_base = skeleton_of(c).face(w.base, base_i, sign)
    stars = tuple(p if p < i else p - 1 for p in w.stars)
    return DegeneracyWitness(new_base, stars)


def cell_transpose(c: Complex, cell: Cell, i: int) -> DegeneracyWitness:
    """Swap positions ``i`` and ``i+1`` of a possibly-degenerate cell."""
    if not isinstance(c, SymmetricCubicalComplex):
        raise TypeError("transpositions need a symmetric cubical complex")
    w = as_witness(cell)
    n = w.dim
    if not 0 <= i <= n - 2:
        raise IndexOutOfRange(f"transposition index {i} out of range for dimension {n}")
    at_i, at_j = i in w.stars, (i + 1) in w.stars
    if at_i and at_j:
        return w
    if at_i or at_j:
        moved = i + 1 if at_i else i
        stars = tuple(sorted(p for p in w.stars if p not in (i, i + 1))) + (moved,)
        return DegeneracyWitness(w.base, tuple(sorted(stars)))
    # both positions live on the base: they are adjacent base coordinates
    base_i = i - sum(1 for p in w.stars if p < i)
    return DegeneracyWitness(c.transpose(w.base, base_i), w.stars)


def nest_witness(outer_stars: tuple[int, ...], inner: DegeneracyWitness) -> DegeneracyWitness:
    """Collapse positions ``outer_stars`` of a word whose cell is ``inner``.

    Used when composing cell maps: the non-collapsed positions of the outer
    word embed order-preservingly into the inner word, so the inner stars
    are pushed forward through that embedding.
    """
    total = inner.dim + len(outer_stars)
    remaining = [p for p in range(total) if p not in outer_stars]
    if len(remaining) != inner.dim:
        raise ArityMismatch("outer star positions do not fit the inner cell")
    pushed = tuple(remaining[p] for p in inner.stars)
    return DegeneracyWitness(inner.base, tuple(sorted(set(outer_stars) | set(pushed))))


# ---------------------------------------------------------------------------
# Label words
# ---------------------------------------------------------------------------

LabelWord = tuple  # entries are labels or STAR; length == cell dimension


def word_degeneracy(w: LabelWord, k: int) -> LabelWord:
    """Insert STAR at position ``k``."""
    if not 0 <= k <= len(w):
        raise ArityMismatch(f"degeneracy position {k} out of range for word of length {len(w)}")
    return w[:k] + (STAR,) + w[k:]


def word_is_linear(w: LabelWord) -> bool:
    letters = [e for e in w if e != STAR]
    return len(letters) == len(set(letters))


# ---------------------------------------------------------------------------
# Construction helper
# ---------------------------------------------------------------------------

def _look(index: dict, image, what: str, key, at) -> int:
    """``index[image]``, or a KeyError naming the key whose image it is."""
    if image not in index:
        raise KeyError(f"{what} of {key!r} at {at if what == 'transposition' else '(%s,%s)' % at}"
                       f" is not a cell: {image!r}")
    return index[image]


def index_complex(
    cells_by_dim: Mapping[int, Iterable],
    face_key: Callable[[int, object, int, str], object],
    transpose_key: Optional[Callable[[int, object, int], object]] = None,
):
    """Build a complex from keyed cells and key-level face/transposition maps.

    Keys are distinct hashables; each dimension's keys are numbered
    0, 1, ... in the order given, so a caller that wants a canonical
    numbering passes them sorted.  Returns ``(complex, keys)`` where
    ``keys`` maps :class:`CellId` to the original key, in dimension and
    index order.  ``transpose_key`` selects a symmetric complex.

    A symmetric complex looks up only its transpositions and last faces
    (i = n-1) by key, and composes each face below as face(i+1) .
    transposition(i); the key maps must satisfy that identity, as every
    validated ACR does (its squares close).
    """
    max_dim = max(cells_by_dim, default=0)
    ordered = [list(cells_by_dim.get(n, ())) for n in range(max_dim + 1)]
    index_of = [dict(zip(keys_n, itertools.count())) for keys_n in ordered]
    cells = {n: range(len(keys_n)) for n, keys_n in enumerate(ordered)}
    keys = {CellId(n, i): k for n, keys_n in enumerate(ordered) for i, k in enumerate(keys_n)}
    faces, transpositions = {}, {}
    for n in range(1, max_dim + 1):
        below, same, keys_n = index_of[n - 1], index_of[n], ordered[n]
        swaps = [[_look(same, transpose_key(n, k, i), "transposition", k, i) for k in keys_n]
                 for i in range(n - 1)] if transpose_key else ()
        columns = {}  # with transpositions, face(i) = face(i+1) . transposition(i) for i < n-1
        for i in reversed(range(n)):
            for sign in SIGNS:
                columns[i, sign] = (list(map(columns[i + 1, sign].__getitem__, swaps[i]))
                                    if i < len(swaps) else
                                    [_look(below, face_key(n, k, i, sign), "face", k, (i, sign))
                                     for k in keys_n])
        faces.update(((n, i, sign), columns[i, sign]) for i in range(n) for sign in SIGNS)
        transpositions.update(((n, i), swap) for i, swap in enumerate(swaps))
    skeleton = PrecubicalComplex(cells=cells, faces=faces, max_dim=max_dim)
    if transpose_key is None:
        return skeleton, keys
    return SymmetricCubicalComplex(skeleton=skeleton, transpositions=transpositions), keys


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate_complex(c: Complex) -> ValidationReport:
    """Check every face and transposition identity instance; report violations.

    The identities fall into sections, each checked per dimension n:
    faces are total and land in cells(n-1); faces commute,
    face(i,a).face(j,b) = face(j-1,b).face(i,a) for i < j; and, for a
    symmetric complex, transpositions are total involutions on cells(n);
    each one swaps faces i and i+1 and slides the distant faces through
    the transposition below; adjacent ones braid and distant ones commute.

    A symmetric complex is first checked on a generating set, and in full
    only if that fails, so every report is the full check's.  With d_j a
    face of either sign (a, b name signs) and t_i a transposition of
    n-cells, composed right to left, the set is, per dimension n: (G1)
    every table present, total and landing, every t_i an involution;
    (G2) the adjacent slides d_{i+1} t_i = d_i; (G3) the last-face slides
    d_{n-1} t_k = t_k d_{n-1} for k < n-2; (G4) every braid and distant
    commutation; (G5) the face pair d_{n-2}^a d_{n-1}^b = d_{n-2}^b d_{n-2}^a.
    They imply the rest; write r_j = t_{n-2} ... t_j and s_i = t_{n-3} ... t_i.
    (a) By G2, d_j = d_{n-1} r_j, and by G1 also d_i t_i = d_{i+1}.
    (b) By G4, r_j t_i = t_i r_j for i <= j-2, and r_j t_i = t_{i-1} r_j
        for j < i <= n-2 (a braid at t_i t_{i-1} t_i); so (a) and G3 give
        every distant slide d_j t_i.
    (c) By G3, d_{n-1} s_i = s_i d_{n-1}, and one dimension down s_i is
        r_i; so by (a) there and by G2, G5 at s_i c is the face identity
        (i, n-1) at c, and that identity at r_j c is, by (a) and (b), the
        identity (i, j).
    A complex without transpositions is always checked in full.

    An identity composes the columns of its tables and compares lists.
    Only where the lists differ are their positions read, one message per
    failing cell; a cell missing an entry of the identity is passed over,
    as the missing entry has its own message.  Messages go by section in
    the order above, then by dimension; then table by table and cell by
    cell in the faces and transpositions sections, cell by cell and
    identity by identity in the others, cells in the order of cells(n).
    """
    report = ValidationReport(subject=type(c).__name__)
    generators = isinstance(c, SymmetricCubicalComplex)
    sections = _complex_messages(c, generators)
    if generators and any(sections.values()):
        sections = _complex_messages(c)
    for messages in sections.values():
        report.violations += messages
    return report


def pick(seq, positions):
    """``seq`` at each of ``positions``, by one ``itemgetter`` call."""
    return itemgetter(*positions)(seq) if len(positions) > 1 else [seq[p] for p in positions]


def _column(table, col, lands=False) -> list:
    """The column ``table`` read at each entry of ``col``, by one
    :func:`pick` when every entry ``lands`` on a position of it, else None
    where one names none (no negative one reads from the end); Nones for
    no table."""
    if table is None:
        return [None] * len(col)
    if lands:
        return list(pick(table, col))
    return [table[v] if is_position(v, len(table)) else None for v in col]


def all_positions(col, size: int) -> bool:
    """Whether every entry of the column ``col`` names one of ``size`` cells:
    is an ``int`` (no None, bool, float or :class:`Unlisted`) in range."""
    return not col or ({*map(type, col)} == {int} and min(col) >= 0 and max(col) < size)


def _mismatches(ids, lefts: list, rights: list, template: str, spell=str) -> dict:
    """Each position of ``ids`` where every column of ``lefts`` and
    ``rights``, lists of columns over ``ids``, has an entry and the left
    entries differ from the right ones, with its message: ``template``
    formatted with the cell's index, then those entries by ``spell``."""
    rows = zip(itertools.count(), ids, zip(*lefts), zip(*rights))
    return {j: [template.format(idx, *map(spell, left + right))]
            for j, idx, left, right in rows
            if None not in left and None not in right and left != right}


def _by_cell(size: int, failing: list) -> list:
    """The messages of ``failing``, dicts from a position to its messages,
    position by position up to ``size``, then dict by dict."""
    failing = [found for found in failing if found]
    return [message for j in range(size) for found in failing
            for message in found.get(j, ())] if failing else []


def _complex_messages(c: Complex, generators: bool = False) -> dict:
    """The messages of each section of :func:`validate_complex`, by section
    in report order, or with ``generators`` those of its generating set
    only.  The columns of one dimension are composed (where all name
    cells, each by one :func:`pick`), checked and dropped before the next."""
    sk = skeleton_of(c)
    F, T = sk.faces, c.transpositions if isinstance(c, SymmetricCubicalComplex) else None
    sections = {"faces": [], "face identities": [], "transpositions": [], "slides": []}
    for n in range(1, sk.max_dim + 1):
        ids = sk.cells.get(n, ())
        size, low = len(ids), len(sk.cells.get(n - 1, ()))
        if not size:
            continue
        face, faces_land = {}, True
        for i in range(n):
            for a in SIGNS:
                table = F.get((n, i, a))
                face[i, a] = col = [None] * size if table is None else table
                lands = table is not None and all_positions(col, low)
                faces_land = faces_land and lands
                if table is None:
                    sections["faces"].append(f"missing face map ({n},{i},{a})")
                elif not lands:
                    sections["faces"] += [
                        f"face ({n},{i},{a}) undefined on cell {idx}" if v is None else
                        f"face ({n},{i},{a}) of cell {idx} lands outside cells({n - 1})"
                        for idx, v in zip(ids, col) if not is_position(v, low)]
        failing, spell, read = [], partial(sk.index_of, n - 2), partial(_column, lands=faces_land)
        for j in range(1, n):
            for i in range(n - 2, j) if generators else range(j):
                for a in SIGNS:
                    for b in SIGNS:
                        left = read(F.get((n - 1, i, a)), face[j, b])
                        right = read(F.get((n - 1, j - 1, b)), face[i, a])
                        if left != right:
                            failing.append(_mismatches(
                                ids, [left], [right],
                                f"dim {n} cell {{0}}: face({i},{a}).face({j},{b}) = {{1}} "
                                f"but face({j - 1},{b}).face({i},{a}) = {{2}}", spell))
        sections["face identities"] += _by_cell(size, failing)
        if T is None:
            continue
        swaps, order, swaps_land = [], list(range(size)), True
        for i in range(n - 1):
            table = T.get((n, i))
            swaps.append(col := [None] * size if table is None else table)
            lands = table is not None and all_positions(col, size)
            swaps_land = swaps_land and lands
            if table is None:
                sections["transpositions"].append(f"missing transposition map ({n},{i})")
            elif not (lands and _column(col, col, True) == order):
                sections["transpositions"] += [
                    f"transposition ({n},{i}) undefined on cell {idx}" if v is None else
                    f"transposition ({n},{i}) of cell {idx} lands outside cells({n})"
                    if not is_position(v, size) else
                    f"transposition ({n},{i}) is not an involution at cell {idx}"
                    for j, idx, v in zip(order, ids, col)
                    if not is_position(v, size) or col[v] != j]
        failing, read = [], partial(_column, lands=faces_land and swaps_land)
        for i in range(n - 1):
            # faces i and i+1 swap, and each distant face j slides through
            # the transposition below
            slid = sorted({i + 1, n - 1}) if generators else range(n)
            for a in SIGNS:
                lefts = [read(F.get((n, j, a)), swaps[i]) for j in slid]
                rights = [face[i + 1, a] if j == i else face[i, a] if j == i + 1 else
                          read(T.get((n - 1, i - 1 if j < i else i)), face[j, a])
                          for j in slid]
                if lefts != rights:
                    failing.append(_mismatches(
                        ids, lefts, rights,
                        f"dim {n} cell {{0}}: transposition {i} incompatible with faces of sign {a}"))
        for i in range(n - 2):
            u, tu = T.get((n, i + 1)), read(T.get((n, i)), swaps[i + 1])
            left, right = read(tu, swaps[i]), read(u, tu)  # t.u.t and u.t.u
            if left != right:
                failing.append(_mismatches(ids, [left], [right],
                                           f"dim {n} cell {{0}}: braid relation fails at {i}"))
        for i in range(n - 1):
            for k in range(i + 2, n - 1):
                left, right = read(T.get((n, i)), swaps[k]), read(T.get((n, k)), swaps[i])
                if left != right:
                    failing.append(_mismatches(ids, [left], [right], f"dim {n} cell {{0}}: "
                                               f"distant transpositions {i},{k} do not commute"))
        sections["slides"] += _by_cell(size, failing)
    return sections


# ---------------------------------------------------------------------------
# Higher dimensional automata
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Hda:
    """Pointed labeled symmetric cubical complex.

    ``alphabet`` lists the labels without the distinguished idle symbol;
    STAR is always implicitly the basepoint.  ``words`` holds a column per
    dimension 0..max_dim: ``words[n][j]`` is the STAR-free word of length
    n labeling ``CellId(n, j)``; labels of degenerate cells are derived by
    inserting STAR at the collapsed positions.  ``states`` is a column over
    cells(0): the state of the model each vertex denotes, or None for an
    automaton parsed from a document, whose vertices denote themselves.
    """

    complex: SymmetricCubicalComplex
    alphabet: tuple
    words: Sequence[Sequence[LabelWord]]
    initial: CellId
    states: Optional[Sequence] = None

    @property
    def skeleton(self) -> PrecubicalComplex:
        return self.complex.skeleton

    @property
    def max_dim(self) -> int:
        return self.skeleton.max_dim

    def cells(self, dim: int) -> list[CellId]:
        return list(cells_of_dim(dim, len(self.skeleton.cells.get(dim, ()))))

    def label(self, cell: Cell) -> LabelWord:
        if isinstance(cell, DegeneracyWitness):
            return reduce(word_degeneracy, cell.stars, self.label(cell.base))
        n, j = cell
        return self.words[n][j]

    def state(self, v: CellId):
        """The model state the vertex ``v`` denotes: in a parsed automaton,
        the vertex under its index."""
        if self.states is None:
            return CellId(0, self.skeleton.index_of(0, v.index))
        return self.states[v.index]

    # Tables read by every morphism into or out of the automaton.  Each is
    # built on first use and kept in the instance dict, outside the fields.

    @cached_property
    def vertex_by_state(self) -> dict:
        return {self.state(v): v for v in self.cells(0)}

    @cached_property
    def cell_keys(self) -> Optional[dict]:
        """Each cell under ``(state, word)``, its 0-source state and its
        word, in dimension and position order; None for a parsed automaton."""
        if self.states is None:
            return None
        states, words = self.states, self.words
        return {cell: (states[s], words[cell.dim][cell.index])
                for cell, ((_, s), _) in self.zero_ends.items()}

    @cached_property
    def zero_ends(self) -> dict:
        """Each cell's 0-source and 0-target vertices, in one pass per
        dimension over the face columns (n,0,-) and (n,0,+)."""
        vertices = self.cells(0)
        ends = dict(zip(vertices, zip(vertices, vertices)))
        low = high = range(len(vertices))  # each cell's ends, by position
        faces = self.skeleton.faces
        for n in range(1, self.max_dim + 1):
            low = list(map(low.__getitem__, faces.get((n, 0, "-"), ())))
            high = list(map(high.__getitem__, faces.get((n, 0, "+"), ())))
            ends.update(zip(self.cells(n), zip(map(vertices.__getitem__, low),
                                               map(vertices.__getitem__, high))))
        return ends

    @cached_property
    def cell_by_ends(self) -> dict:
        """Each cell under its (0-source, 0-target, label word); raises
        ValueError when two cells share that key."""
        index, words = {}, self.words
        for cell, (s, t) in self.zero_ends.items():
            key = (s, t, words[cell.dim][cell.index])
            if key in index:
                raise ValueError(f"cells {index[key]} and {cell} share their 0-ends and label")
            index[key] = cell
        return index


def validate_hda(h: Hda) -> ValidationReport:
    """Complex identities plus labeling naturality and pointing.

    The labels are checked a dimension at a time, as the complex's tables
    are (see :func:`validate_complex`): the words of cells(n) must be
    tuples of length n over the alphabet, and through each face or
    transposition column they must read as their letters picked by one
    itemgetter per face index or transposition.  Messages go cell by cell
    in the order of cells(n): the word, then each face and transposition.

    Once the complex is valid, a dimension's labels are first checked
    through its last faces and its transpositions only, and in full only
    if that fails.  (d), after (a)-(c) of :func:`validate_complex`: by G2
    the word of d_i c is that of d_{i+1} t_i c, which by induction downward
    from i = n-1 is the word of t_i c without letter i+1, that is the word
    of c without letter i.
    """
    report = validate_complex(h.complex)
    report.subject = "hda"
    generators = report.ok
    if not h.skeleton.has_cell(h.initial) or h.initial.dim != 0:
        report.add(f"initial cell {h.initial} is not a 0-cell of the complex")
    if STAR in h.alphabet:
        report.add("alphabet must not contain the idle symbol")
    below = []
    for n in range(h.max_dim + 1):
        messages, below = _label_messages(h, n, below, generators)
        report.violations += messages
    return report


def _picked(words: list, positions: list) -> list:
    """Each word's letters at ``positions``, as a tuple: one itemgetter
    over the words (``itemgetter`` of one position gives a bare letter)."""
    if not positions:
        return [()] * len(words)
    if len(positions) == 1:
        return list(zip(map(itemgetter(*positions), words)))
    return list(map(itemgetter(*positions), words))


def _label_messages(h: Hda, n: int, below: list, generators: bool = False) -> tuple:
    """The messages of :func:`validate_hda` on the labels of cells(n), and
    the words of cells(n) by position; ``below`` holds those of cells(n-1).
    With ``generators``, for a valid complex, only the last faces are read
    unless that finds a fault."""
    ids = h.skeleton.cells.get(n, ())
    size = len(ids)
    column = h.words[n]  # a missing word is None
    own = words = column if len(column) == size else _column(column, range(size))
    failing, kept, read = [], None, partial(_column, lands=generators)
    if not (set(map(type, words)) <= {tuple} and set(map(len, words)) <= {n}
            and (set(h.alphabet) - {STAR}).issuperset(itertools.chain.from_iterable(words))):
        failing.append(_word_messages(h, n, ids, words))
        # a cell without a word of length n has no naturality to check
        kept = [k for k, w in enumerate(words) if w is not None and len(w) == n]
        words = [words[k] for k in kept]
    positions = range(size) if kept is None else kept
    for i in range(n)[-1:] if generators else range(n):
        expected = _picked(words, [k for k in range(n) if k != i])  # for both signs
        for sign in SIGNS:
            table = h.skeleton.faces.get((n, i, sign))
            col = table if kept is None or table is None else _column(table, kept, True)
            if table is not None and read(below, col) != expected:
                failing.append(_unnatural(h, n, positions, col, n - 1, expected, f"face ({i},{sign})"))
    for i in range(n - 1):
        order = list(range(n))
        order[i], order[i + 1] = i + 1, i
        table = h.complex.transpositions.get((n, i))
        col = table if kept is None or table is None else _column(table, kept, True)
        # not kept: one list of picked words is alive at a time
        if table is not None and read(own, col) != _picked(words, order):
            failing.append(_unnatural(h, n, positions, col, n, _picked(words, order),
                                      f"transposition {i}"))
    if failing and generators:
        return _label_messages(h, n, below)
    return _by_cell(size, failing), own


def _word_messages(h: Hda, n: int, ids, words: list) -> dict:
    """Each position of cells(n) whose word is missing, not of length n or
    not over the idle-free alphabet, with its messages."""
    alphabet = set(h.alphabet)
    found = {}
    for j, idx, w in zip(itertools.count(), ids, words):
        cell = CellId(n, idx)
        if w is None:
            found[j] = [f"cell {cell} has no label"]
        elif len(w) != n:
            found[j] = [f"cell {cell} labeled by word of length {len(w)}"]
        elif messages := [f"cell {cell} label contains the idle symbol" if e == STAR else
                          f"cell {cell} label {e!r} outside the alphabet"
                          for e in w if e == STAR or e not in alphabet]:
            found[j] = messages
    return found


def _unnatural(h: Hda, n: int, positions, col: list, d: int, expected: list, where: str) -> dict:
    """Each n-cell of ``positions`` whose image in ``col``, a column of
    d-cells, has a word other than the ``expected`` one, with its message;
    ``where`` names the map.  An image that names no cell has no word."""
    got = _column(h.words[d], col)
    ids = h.skeleton.cells[n]
    return {j: [f"labeling not natural at {where} of {CellId(n, ids[j])}"]
            for j, image, word, want in zip(positions, col, got, expected)
            if image is not None and word != want}


def truncate(h: Hda, n: int) -> Hda:
    """Drop every cell above dimension ``n``; restrict all structure.  The
    columns kept are shared with ``h``."""
    n = max(n, 0)
    sk = h.skeleton
    top = min(n, sk.max_dim)
    cells = {d: sk.cells.get(d, ()) for d in range(top + 1)}
    faces = {key: col for key, col in sk.faces.items() if key[0] <= top}
    transpositions = {key: col for key, col in h.complex.transpositions.items() if key[0] <= top}
    words = [*h.words[:top + 1], *([] for _ in range(top, n))]
    skeleton = PrecubicalComplex(cells=cells, faces=faces, max_dim=n)
    return Hda(SymmetricCubicalComplex(skeleton, transpositions), h.alphabet, words, h.initial,
               h.states)


# ---------------------------------------------------------------------------
# Labeling predicates
# ---------------------------------------------------------------------------

def check_linear_labeling(h: Hda) -> bool:
    # a word with no repeated letter is linear, so only a dimension with a
    # repeat is read again
    for words in h.words:
        if sum(map(len, map(set, words))) != sum(map(len, words)) and \
                not all(map(word_is_linear, words)):
            return False
    return True


def check_deterministic(h: Hda, n: int) -> bool:
    """Cells of dimension n with equal source faces and label coincide."""
    sk = h.skeleton
    size = len(sk.cells.get(n, ()))
    if not size:
        return True
    sources = zip(*[sk.faces.get((n, i, "-"), ()) for i in range(n)]) if n else repeat((), size)
    return len(set(zip(sources, h.words[n]))) == size

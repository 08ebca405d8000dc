"""Finite cubical machinery: precubical and symmetric cubical complexes,
label words, and higher dimensional automata.

Representation
--------------
Only non-degenerate cells are materialized.  A complex stores, per
dimension, a finite tuple of cell indices together with total face maps
``faces[(n, i, sign)] : cells(n) -> cells(n-1)`` for ``0 <= i <= n-1``.
Degenerate cells exist as :class:`DegeneracyWitness` values: a base cell
plus the strictly sorted positions of the collapsed directions in the
final coordinate word.  This normal form is unique, so equality of
arbitrary cells is a tuple comparison.

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
from functools import cached_property
from operator import itemgetter
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Union

from .errors import ArityMismatch, IndexOutOfRange
from .util import ValidationReport

STAR = "*"

SIGNS = ("-", "+")


class CellId(NamedTuple):
    """A non-degenerate cell, identified by dimension and per-dimension index."""

    dim: int
    index: int


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
    """Finite precubical set: cells per dimension plus total face maps."""

    cells: Mapping[int, tuple[int, ...]]
    faces: Mapping[tuple[int, int, str], Mapping[int, int]]
    max_dim: int

    def cell_ids(self, dim: int) -> list[CellId]:
        return [CellId(dim, i) for i in self.cells.get(dim, ())]

    def all_cells(self) -> Iterable[CellId]:
        for n in range(self.max_dim + 1):
            yield from self.cell_ids(n)

    def has_cell(self, cell: CellId) -> bool:
        return cell.index in self._index_sets.get(cell.dim, ())

    @cached_property
    def _index_sets(self) -> dict:
        return {n: frozenset(indices) for n, indices in self.cells.items()}

    def face(self, cell: CellId, i: int, sign: str) -> CellId:
        if not 0 <= i < cell.dim:
            raise IndexOutOfRange(f"face index {i} out of range for dimension {cell.dim}")
        if sign not in SIGNS:
            raise IndexOutOfRange(f"bad face sign {sign!r}")
        table = self.faces.get((cell.dim, i, sign))
        if table is None or cell.index not in table:
            raise KeyError(f"no face map entry for {cell} at ({i},{sign})")
        return CellId(cell.dim - 1, table[cell.index])


@dataclass(frozen=True)
class SymmetricCubicalComplex:
    """Cubical set with adjacent-transposition maps on each dimension n >= 2.

    ``transpositions[(n, i)]`` is a total map on the indices of ``cells(n)``
    for ``0 <= i <= n-2``.
    """

    skeleton: PrecubicalComplex
    transpositions: Mapping[tuple[int, int], Mapping[int, int]]

    def transpose(self, cell: CellId, i: int) -> CellId:
        if not 0 <= i <= cell.dim - 2:
            raise IndexOutOfRange(f"transposition index {i} out of range for dimension {cell.dim}")
        table = self.transpositions.get((cell.dim, i))
        if table is None or cell.index not in table:
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


def word_face(w: LabelWord, k: int) -> LabelWord:
    """Remove the entry at position ``k`` (both face signs agree)."""
    if not 0 <= k < len(w):
        raise ArityMismatch(f"face position {k} out of range for word of length {len(w)}")
    return w[:k] + w[k + 1:]


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

def _name_missing_image(n, keys_n, below, same, face_key, transpose_key):
    """Raise a KeyError naming the first key of ``keys_n`` whose
    transposition, or else whose face looked up by key, is not a cell."""
    for i in range(n - 1 if transpose_key else 0):
        for k in keys_n:
            if (image := transpose_key(n, k, i)) not in same:
                raise KeyError(f"transposition of {k!r} at {i} is not a cell: {image!r}") from None
    for i in range(n - 1 if transpose_key else 0, n):
        for sign in SIGNS:
            for k in keys_n:
                if (image := face_key(n, k, i, sign)) not in below:
                    raise KeyError(f"face of {k!r} at ({i},{sign}) is not a cell: {image!r}") from None


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
    cells = {n: tuple(range(len(keys_n))) for n, keys_n in enumerate(ordered)}
    keys = {CellId(n, i): k for n, keys_n in enumerate(ordered) for i, k in enumerate(keys_n)}
    faces, transpositions = {}, {}
    for n in range(1, max_dim + 1):
        below, same, keys_n = index_of[n - 1], index_of[n], ordered[n]
        try:
            swaps = [[same[transpose_key(n, k, i)] for k in keys_n]
                     for i in range(n - 1)] if transpose_key else ()
            columns = {}  # with transpositions, face(i) = face(i+1) . transposition(i) for i < n-1
            for sign in SIGNS:
                for i in reversed(range(n)):
                    columns[i, sign] = (list(map(columns[i + 1, sign].__getitem__, swaps[i]))
                                        if i < len(swaps) else
                                        [below[face_key(n, k, i, sign)] for k in keys_n])
        except KeyError:
            _name_missing_image(n, keys_n, below, same, face_key, transpose_key)
            raise
        for i in range(n):
            for sign in SIGNS:
                faces[(n, i, sign)] = dict(enumerate(columns[i, sign]))
        for i, swap in enumerate(swaps):
            transpositions[(n, i)] = dict(enumerate(swap))
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

    Each table of dimension n is read as one column over cells(n), and an
    identity composes columns and compares lists.  Only where the lists
    differ are their positions read, one message per failing cell; a cell
    missing an entry of the identity is passed over, as the missing entry
    has its own message.  Messages go by section in the order above, then
    by dimension; then table by table and cell by cell in the faces and
    transpositions sections, cell by cell and identity by identity in the
    others, with each cell once, in the order of cells(n).
    """
    report = ValidationReport(subject=type(c).__name__)
    for messages in _complex_messages(c).values():
        report.violations += messages
    return report


def _column(table, col) -> list:
    """``table`` read at each entry of ``col``: None where the entry is
    None or the table has none, and everywhere when the table is None."""
    if table is None:
        return [None] * len(col)
    return list(map(table.get, col))


def _mismatches(ids, lefts: list, rights: list, template: str) -> dict:
    """Each cell of ``ids`` where every column of ``lefts`` and ``rights``,
    lists of columns over ``ids``, has an entry and the left entries differ
    from the right ones, with its message: ``template`` formatted with the
    cell, then its left entries, then its right ones."""
    rows = zip(ids, zip(*lefts), zip(*rights))
    return {idx: [template.format(idx, *left, *right)] for idx, left, right in rows
            if None not in left and None not in right and left != right}


def _by_cell(cells, failing: list) -> list:
    """The messages of ``failing``, dicts from a cell to its messages, cell
    by cell in the order of ``cells``, then dict by dict."""
    failing = [found for found in failing if found]
    return [message for idx in cells for found in failing
            for message in found.get(idx, ())] if failing else []


def _complex_messages(c: Complex) -> dict:
    """The messages of each section of :func:`validate_complex`, by section
    in report order.  The columns of one dimension are built, checked and
    dropped before the next."""
    sk = skeleton_of(c)
    F, T = sk.faces, c.transpositions if isinstance(c, SymmetricCubicalComplex) else None
    sections = {"faces": [], "face identities": [], "transpositions": [], "slides": []}
    for n in range(1, sk.max_dim + 1):
        ids = sk.cells.get(n, ())
        if not ids:
            continue
        present, below = set(ids), set(sk.cells.get(n - 1, ()))
        cells = dict.fromkeys(ids)  # each cell once, in the order of cells(n)
        face = {}
        for i in range(n):
            for a in SIGNS:
                table = F.get((n, i, a))
                face[i, a] = col = _column(table, ids)
                if table is None:
                    sections["faces"].append(f"missing face map ({n},{i},{a})")
                elif not below.issuperset(col):
                    sections["faces"] += [
                        f"face ({n},{i},{a}) undefined on cell {idx}" if table.get(idx) is None else
                        f"face ({n},{i},{a}) of cell {idx} lands outside cells({n - 1})"
                        for idx in cells if table.get(idx) not in below]
        failing = []
        for j in range(1, n):
            for i in range(j):
                for a in SIGNS:
                    for b in SIGNS:
                        left = _column(F.get((n - 1, i, a)), face[j, b])
                        right = _column(F.get((n - 1, j - 1, b)), face[i, a])
                        if left != right:
                            failing.append(_mismatches(
                                ids, [left], [right],
                                f"dim {n} cell {{0}}: face({i},{a}).face({j},{b}) = {{1}} "
                                f"but face({j - 1},{b}).face({i},{a}) = {{2}}"))
        sections["face identities"] += _by_cell(cells, failing)
        if T is None:
            continue
        swaps, order = [], list(ids)
        for i in range(n - 1):
            table = T.get((n, i))
            swaps.append(col := _column(table, ids))
            if table is None:
                sections["transpositions"].append(f"missing transposition map ({n},{i})")
            elif not (present.issuperset(col) and _column(table, col) == order):
                image = dict(zip(ids, col))
                sections["transpositions"] += [
                    f"transposition ({n},{i}) undefined on cell {idx}" if image[idx] is None else
                    f"transposition ({n},{i}) of cell {idx} lands outside cells({n})"
                    if image[idx] not in present else
                    f"transposition ({n},{i}) is not an involution at cell {idx}"
                    for idx in cells
                    if image[idx] not in present or table.get(image[idx]) != idx]
        failing = []
        for i in range(n - 1):
            for a in SIGNS:
                # faces i and i+1 swap, and each distant face j slides
                # through the transposition below
                lefts = [_column(F.get((n, j, a)), swaps[i]) for j in range(n)]
                rights = [face[i + 1, a] if j == i else face[i, a] if j == i + 1 else
                          _column(T.get((n - 1, i - 1 if j < i else i)), face[j, a])
                          for j in range(n)]
                if lefts != rights:
                    failing.append(_mismatches(
                        ids, lefts, rights,
                        f"dim {n} cell {{0}}: transposition {i} incompatible with faces of sign {a}"))
        for i in range(n - 2):
            t, u = T.get((n, i)), T.get((n, i + 1))
            left, right = _column(t, _column(u, swaps[i])), _column(u, _column(t, swaps[i + 1]))
            if left != right:
                failing.append(_mismatches(ids, [left], [right],
                                           f"dim {n} cell {{0}}: braid relation fails at {i}"))
        for i in range(n - 1):
            for k in range(i + 2, n - 1):
                left, right = _column(T.get((n, i)), swaps[k]), _column(T.get((n, k)), swaps[i])
                if left != right:
                    failing.append(_mismatches(ids, [left], [right], f"dim {n} cell {{0}}: "
                                               f"distant transpositions {i},{k} do not commute"))
        sections["slides"] += _by_cell(cells, failing)
    return sections


# ---------------------------------------------------------------------------
# Higher dimensional automata
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Hda:
    """Pointed labeled symmetric cubical complex.

    ``alphabet`` lists the labels without the distinguished idle symbol;
    STAR is always implicitly the basepoint.  ``labeling`` assigns to each
    skeleton cell a STAR-free word of its dimension; labels of degenerate
    cells are derived by inserting STAR at the collapsed positions.
    ``cell_keys`` optionally keys each cell by what it denotes in the model
    the automaton was built from: ``(state, word)``, its 0-source state and
    its label word, so a vertex is ``(state, ())``.  An automaton parsed
    from a document has no keys.
    """

    complex: SymmetricCubicalComplex
    alphabet: tuple
    labeling: Mapping[CellId, LabelWord]
    initial: CellId
    cell_keys: Optional[Mapping[CellId, object]] = None

    @property
    def skeleton(self) -> PrecubicalComplex:
        return self.complex.skeleton

    @property
    def max_dim(self) -> int:
        return self.skeleton.max_dim

    def cells(self, dim: int) -> list[CellId]:
        return self.skeleton.cell_ids(dim)

    def label(self, cell: Cell) -> LabelWord:
        w = as_witness(cell)
        out = self.labeling[w.base]
        for p in w.stars:
            out = word_degeneracy(out, p)
        return out

    def state(self, v: CellId):
        """The model state the vertex ``v`` denotes: the vertex itself in an
        automaton without keys."""
        return v if self.cell_keys is None else self.cell_keys[v][0]

    # Tables read by every morphism into or out of the automaton.  Each is
    # built on first use and kept in the instance dict, outside the fields.

    @cached_property
    def vertex_by_state(self) -> dict:
        return {self.state(v): v for v in self.cells(0)}

    @cached_property
    def zero_ends(self) -> dict:
        """Each cell's 0-source and 0-target vertices, in one pass per
        dimension over the face tables (n,0,-) and (n,0,+)."""
        ends = {v: (v, v) for v in self.cells(0)}
        for n in range(1, self.max_dim + 1):
            low = self.skeleton.faces.get((n, 0, "-"), {})
            high = self.skeleton.faces.get((n, 0, "+"), {})
            for cell in self.cells(n):
                ends[cell] = (ends[CellId(n - 1, low[cell.index])][0],
                              ends[CellId(n - 1, high[cell.index])][1])
        return ends

    @cached_property
    def cell_by_ends(self) -> dict:
        """Each cell under its (0-source, 0-target, label word); raises
        ValueError when two cells share that key."""
        index = {}
        for cell, (s, t) in self.zero_ends.items():
            key = (s, t, self.labeling[cell])
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
    """
    report = validate_complex(h.complex)
    report.subject = "hda"
    if not h.skeleton.has_cell(h.initial) or h.initial.dim != 0:
        report.add(f"initial cell {h.initial} is not a 0-cell of the complex")
    if STAR in h.alphabet:
        report.add("alphabet must not contain the idle symbol")
    below = {}
    for n in range(h.max_dim + 1):
        messages, below = _label_messages(h, n, below)
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


def _label_messages(h: Hda, n: int, below: dict) -> tuple:
    """The messages of :func:`validate_hda` on the labels of cells(n), and
    the words of cells(n) by index; ``below`` holds those of cells(n-1)."""
    cells = h.skeleton.cells.get(n, ())
    ids, words = cells, list(map(h.labeling.get, zip(itertools.repeat(n), cells)))
    own = dict(zip(cells, words))
    failing = []
    if not (set(map(type, words)) <= {tuple} and set(map(len, words)) <= {n}
            and (set(h.alphabet) - {STAR}).issuperset(itertools.chain.from_iterable(words))):
        failing.append(_word_messages(h, n, cells, words))
        # a cell without a word of length n has no naturality to check
        kept = [k for k, w in enumerate(words) if w is not None and len(w) == n]
        ids, words = [cells[k] for k in kept], [words[k] for k in kept]
    for i in range(n):
        expected = _picked(words, [k for k in range(n) if k != i])  # for both signs
        for sign in SIGNS:
            table = h.skeleton.faces.get((n, i, sign))
            col = _column(table, ids)
            if table is not None and _column(below, col) != expected:
                failing.append(_unnatural(h, n, ids, col, n - 1, expected, f"face ({i},{sign})"))
    for i in range(n - 1):
        order = list(range(n))
        order[i], order[i + 1] = i + 1, i
        table = h.complex.transpositions.get((n, i))
        col = _column(table, ids)
        # not kept: one list of picked words is alive at a time
        if table is not None and _column(own, col) != _picked(words, order):
            failing.append(_unnatural(h, n, ids, col, n, _picked(words, order),
                                      f"transposition {i}"))
    return _by_cell(cells, failing), own


def _word_messages(h: Hda, n: int, cells, words: list) -> dict:
    """Each of ``cells`` whose word is missing, not of length n or not over
    the idle-free alphabet, with its messages."""
    alphabet = set(h.alphabet)
    found = {}
    for idx, w in zip(cells, words):
        cell = CellId(n, idx)
        if w is None:
            found[idx] = [f"cell {cell} has no label"]
        elif len(w) != n:
            found[idx] = [f"cell {cell} labeled by word of length {len(w)}"]
        elif messages := [f"cell {cell} label contains the idle symbol" if e == STAR else
                          f"cell {cell} label {e!r} outside the alphabet"
                          for e in w if e == STAR or e not in alphabet]:
            found[idx] = messages
    return found


def _unnatural(h: Hda, n: int, ids, col: list, d: int, expected: list, where: str) -> dict:
    """Each n-cell of ``ids`` whose image in ``col``, a column of d-cells,
    has a word in ``h.labeling`` other than the ``expected`` one, with its
    message; ``where`` names the map.  Reading ``h.labeling`` counts a
    label on a cell outside the cell lists."""
    got = map(h.labeling.get, zip(itertools.repeat(d), col))
    return {idx: [f"labeling not natural at {where} of {CellId(n, idx)}"]
            for idx, image, word, want in zip(ids, col, got, expected)
            if image is not None and word != want}


def truncate(h: Hda, n: int) -> Hda:
    """Drop every cell above dimension ``n``; restrict all structure."""
    n = max(n, 0)
    sk = h.skeleton
    top = min(n, sk.max_dim)
    cells = {d: tuple(sk.cells.get(d, ())) for d in range(top + 1)}
    faces = {key: dict(tbl) for key, tbl in sk.faces.items() if key[0] <= top}
    transpositions = {
        key: dict(tbl) for key, tbl in h.complex.transpositions.items() if key[0] <= top
    }
    labeling = {c: w for c, w in h.labeling.items() if c.dim <= top}
    keys = None
    if h.cell_keys is not None:
        keys = {c: k for c, k in h.cell_keys.items() if c.dim <= top}
    return Hda(
        complex=SymmetricCubicalComplex(
            skeleton=PrecubicalComplex(cells=cells, faces=faces, max_dim=n),
            transpositions=transpositions,
        ),
        alphabet=h.alphabet,
        labeling=labeling,
        initial=h.initial,
        cell_keys=keys,
    )


# ---------------------------------------------------------------------------
# Labeling predicates
# ---------------------------------------------------------------------------

def check_linear_labeling(h: Hda) -> bool:
    # labels are read by (n, index) keys; a word with no repeated letter
    # is linear, so only a dimension with a repeat is read again
    for n in range(h.max_dim + 1):
        keys = zip(itertools.repeat(n), h.skeleton.cells.get(n, ()))
        words = list(map(h.labeling.__getitem__, keys))
        if sum(map(len, map(set, words))) != sum(map(len, words)) and \
                not all(map(word_is_linear, words)):
            return False
    return True


def check_deterministic(h: Hda, n: Optional[int] = None) -> bool:
    """Cells of dimension n with equal source faces and label coincide.

    ``n=None`` checks every dimension (0-cells have no sources, so any two
    distinct 0-cells already fail, matching the blunt reading).
    """
    sk = h.skeleton
    for d in range(h.max_dim + 1) if n is None else (n,):
        seen = set()
        for cell in sk.cell_ids(d):
            sig = (tuple(sk.face(cell, i, "-") for i in range(d)), h.labeling[cell])
            if sig in seen:
                return False
            seen.add(sig)
    return True

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
from .util import ValidationReport, backtrack, sorted_by_key

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


def cell_degeneracy(cell: Cell, i: int) -> DegeneracyWitness:
    """Insert a collapsed direction at position ``i`` of the final word."""
    w = as_witness(cell)
    n = w.dim
    if not 0 <= i <= n:
        raise IndexOutOfRange(f"degeneracy index {i} out of range for dimension {n}")
    stars = tuple(sorted([p if p < i else p + 1 for p in w.stars] + [i]))
    return DegeneracyWitness(w.base, stars)


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


def apply_permutation(c: Complex, cell: Cell, perm: tuple[int, ...]) -> DegeneracyWitness:
    """Act by a permutation, decomposed into adjacent transpositions.

    ``perm`` describes the action on coordinate words: position ``k`` of the
    result reads position ``perm[k]`` of the argument.  Well-definedness of
    the decomposition rests on the involution and braid identities, which
    :func:`validate_complex` checks.
    """
    w = as_witness(cell)
    if sorted(perm) != list(range(w.dim)):
        raise ArityMismatch(f"{perm} is not a permutation of 0..{w.dim - 1}")
    # bubble-sort perm to the identity, then replay the swaps backwards:
    # an adjacent swap of the tracking list corresponds to one transposition
    current = list(perm)
    swaps = []
    for top in range(len(current) - 1, 0, -1):
        for k in range(top):
            if current[k] > current[k + 1]:
                current[k], current[k + 1] = current[k + 1], current[k]
                swaps.append(k)
    out = w
    for k in reversed(swaps):
        out = cell_transpose(c, out, k)
    return out


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


def word_permute(w: LabelWord, perm: tuple[int, ...]) -> LabelWord:
    """Reindex entries: position ``k`` of the result reads ``w[perm[k]]``."""
    if sorted(perm) != list(range(len(w))):
        raise ArityMismatch(f"{perm} is not a permutation of 0..{len(w) - 1}")
    return tuple(w[p] for p in perm)


def word_action(w: LabelWord, descriptor) -> LabelWord:
    """Apply a cube-map descriptor to a word.

    Descriptors: ``("face", k, sign)``, ``("degeneracy", k)``,
    ``("permutation", perm)``.
    """
    kind = descriptor[0]
    if kind == "face":
        _, k, sign = descriptor
        if sign not in SIGNS:
            raise ArityMismatch(f"bad face sign {sign!r}")
        return word_face(w, k)
    if kind == "degeneracy":
        return word_degeneracy(w, descriptor[1])
    if kind == "permutation":
        return word_permute(w, tuple(descriptor[1]))
    raise ArityMismatch(f"unknown descriptor {descriptor!r}")


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
    CTS does (moving a letter keeps a word in its orbit) and every
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


def standard_cube(d: int) -> PrecubicalComplex:
    """The solid d-cube: cells are assignments of '-', '+' or None (free)
    to each of the d coordinates; faces fix the i-th free coordinate."""
    cells_by_dim: dict[int, list] = {n: [] for n in range(d + 1)}
    for signs in itertools.product(("-", "+", None), repeat=d):
        cells_by_dim[sum(1 for s in signs if s is None)].append(signs)

    def face_key(n, key, i, sign):
        free = [pos for pos, s in enumerate(key) if s is None]
        out = list(key)
        out[free[i]] = sign
        return tuple(out)

    skeleton, _ = index_complex({n: sorted_by_key(keys) for n, keys in cells_by_dim.items()},
                                face_key)
    return skeleton


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

    A section is first checked a table at a time: each face or
    transposition table of dimension n is read as one column over
    cells(n), an identity composes two columns and compares the lists.
    Only a section and dimension whose table check fails, or meets a
    missing entry, is walked cell by cell, and the walk alone writes the
    messages: sections in the order above, each dimension in turn, then
    cell by cell.  The table check passes only when the walk would report
    nothing, so the report is the walk's over every section and dimension.
    """
    report = ValidationReport(subject=type(c).__name__)
    failing = _failing_sections(c)
    for section, n, walk in _walks(c):
        if (section, n) in failing:
            walk(c, n, report)
    return report


def _column(table, ids):
    """``table`` read at each of ``ids`` in order; None when either is None
    or the table lacks an entry."""
    if table is None or ids is None:
        return None
    try:
        return list(map(table.__getitem__, ids))
    except KeyError:
        return None


def _same(left, right) -> bool:
    """Whether ``left`` is a column, not None, and equals ``right``."""
    return left is not None and left == right


def _face_identities(faces, n: int) -> list:
    """face(i,a).face(j,b) = face(j-1,b).face(i,a) at dimension n with its
    four tables, where all four exist (a missing map is a faces violation)."""
    identities = []
    for j in range(1, n):
        for i in range(j):
            for a in SIGNS:
                for b in SIGNS:
                    tables = (faces.get((n, j, b)), faces.get((n - 1, i, a)),
                              faces.get((n, i, a)), faces.get((n - 1, j - 1, b)))
                    if None not in tables:
                        identities.append((i, j, a, b) + tables)
    return identities


def _transposition_identities(c: SymmetricCubicalComplex, n: int) -> tuple:
    """The slides, braids and distant commutations at dimension n whose
    tables all exist.  Per (i, sign), faces i and i+1 swap and each distant
    face j slides through the transposition below."""
    F, T = c.skeleton.faces, c.transpositions
    swap = [T.get((n, i)) for i in range(n - 1)]
    sliding = []
    for i in range(n - 1):
        for a in SIGNS:
            tables = [F.get((n, i, a)), F.get((n, i + 1, a))]
            slides = [(j, F.get((n, j, a)), T.get((n - 1, i - 1 if j < i else i)))
                      for j in range(n) if j not in (i, i + 1)]
            if swap[i] is not None and None not in tables and \
                    all(None not in pair for pair in slides):
                sliding.append((i, a, swap[i], tables[0], tables[1], slides))
    braids = [(i, swap[i], swap[i + 1]) for i in range(n - 2)
              if swap[i] is not None and swap[i + 1] is not None]
    distant = [(i, k, swap[i], swap[k]) for i in range(n - 1) for k in range(i + 2, n - 1)
               if swap[i] is not None and swap[k] is not None]
    return sliding, braids, distant


def _failing_sections(c: Complex) -> set:
    """The (section, n) of :func:`validate_complex` whose table check fails.
    The columns of one dimension are built, checked and dropped before
    the next."""
    sk = skeleton_of(c)
    symmetric = isinstance(c, SymmetricCubicalComplex)
    failing = set()
    for n in range(1, sk.max_dim + 1):
        ids = sk.cells.get(n, ())
        if not ids:
            continue
        below = set(sk.cells.get(n - 1, ()))
        face = {(i, a): _column(sk.faces.get((n, i, a)), ids) for i in range(n) for a in SIGNS}
        holds = {
            "faces": all(col is not None and below.issuperset(col) for col in face.values()),
            "face identities": all(
                _same(_column(inner_i, face[j, b]), _column(inner_j, face[i, a]))
                for i, j, a, b, _, inner_i, _, inner_j in _face_identities(sk.faces, n)),
        }
        if symmetric and n >= 2:
            cells, order = set(ids), list(ids)
            swaps = [_column(c.transpositions.get((n, i)), ids) for i in range(n - 1)]
            holds["transpositions"] = all(
                col is not None and cells.issuperset(col)
                and _column(c.transpositions[n, i], col) == order
                for i, col in enumerate(swaps))
            sliding, braids, distant = _transposition_identities(c, n)
            slides_hold = all(
                _same(_column(here, swaps[i]), face[i + 1, a])
                and _same(_column(there, swaps[i]), face[i, a])
                and all(_same(_column(f, swaps[i]), _column(t_below, face[j, a]))
                        for j, f, t_below in slides)
                for i, a, _, here, there, slides in sliding)
            braids_hold = all(
                _same(_column(t, _column(u, swaps[i])), _column(u, _column(t, swaps[i + 1])))
                for i, t, u in braids)
            distant_hold = all(
                _same(_column(t, swaps[k]), _column(u, swaps[i])) for i, k, t, u in distant)
            holds["slides"] = slides_hold and braids_hold and distant_hold
        failing.update((section, n) for section, ok in holds.items() if not ok)
    return failing


def _walk_faces(c: Complex, n: int, report: ValidationReport) -> None:
    sk = skeleton_of(c)
    present, below = set(sk.cells.get(n, ())), set(sk.cells.get(n - 1, ()))
    for i in range(n):
        for sign in SIGNS:
            table = sk.faces.get((n, i, sign))
            if table is None:
                if present:
                    report.add(f"missing face map ({n},{i},{sign})")
                continue
            for idx in present:
                if idx not in table:
                    report.add(f"face ({n},{i},{sign}) undefined on cell {idx}")
                elif table[idx] not in below:
                    report.add(f"face ({n},{i},{sign}) of cell {idx} lands outside cells({n - 1})")


def _walk_face_identities(c: Complex, n: int, report: ValidationReport) -> None:
    sk = skeleton_of(c)
    identities = _face_identities(sk.faces, n)
    for idx in set(sk.cells.get(n, ())):
        for i, j, a, b, outer_j, inner_i, outer_i, inner_j in identities:
            try:
                left = inner_i[outer_j[idx]]
                right = inner_j[outer_i[idx]]
            except KeyError:
                continue  # already reported as missing
            if left != right:
                report.add(
                    f"dim {n} cell {idx}: face({i},{a}).face({j},{b}) = {left} "
                    f"but face({j - 1},{b}).face({i},{a}) = {right}"
                )


def _walk_transpositions(c: SymmetricCubicalComplex, n: int, report: ValidationReport) -> None:
    present = set(c.skeleton.cells.get(n, ()))
    for i in range(n - 1):
        table = c.transpositions.get((n, i))
        if table is None:
            if present:
                report.add(f"missing transposition map ({n},{i})")
            continue
        for idx in present:
            if idx not in table:
                report.add(f"transposition ({n},{i}) undefined on cell {idx}")
                continue
            if table[idx] not in present:
                report.add(f"transposition ({n},{i}) of cell {idx} lands outside cells({n})")
                continue
            if table.get(table[idx]) != idx:
                report.add(f"transposition ({n},{i}) is not an involution at cell {idx}")


def _walk_slides(c: SymmetricCubicalComplex, n: int, report: ValidationReport) -> None:
    sliding, braids, distant = _transposition_identities(c, n)
    for idx in set(c.skeleton.cells.get(n, ())):
        for i, a, t, here, there, slides in sliding:
            try:
                s = t[idx]
                lhs = [here[s], there[s]] + [f[s] for _, f, _ in slides]
                rhs = [there[idx], here[idx]] + [below[f[idx]] for _, f, below in slides]
            except KeyError:
                continue
            if lhs != rhs:
                report.add(f"dim {n} cell {idx}: transposition {i} "
                           f"incompatible with faces of sign {a}")
        for i, t, u in braids:
            try:
                lhs = t[u[t[idx]]]
                rhs = u[t[u[idx]]]
            except KeyError:
                continue
            if lhs != rhs:
                report.add(f"dim {n} cell {idx}: braid relation fails at {i}")
        for i, k, t, u in distant:
            try:
                lhs = t[u[idx]]
                rhs = u[t[idx]]
            except KeyError:
                continue
            if lhs != rhs:
                report.add(f"dim {n} cell {idx}: distant transpositions {i},{k} do not commute")


def _walks(c: Complex) -> list:
    """(section, n, walk) for every section and dimension of
    :func:`validate_complex`, in report order; ``walk(c, n, report)`` adds
    the section's violations at dimension n, cell by cell."""
    sections = [("faces", 1, _walk_faces), ("face identities", 2, _walk_face_identities)]
    if isinstance(c, SymmetricCubicalComplex):
        sections += [("transpositions", 2, _walk_transpositions), ("slides", 2, _walk_slides)]
    top = skeleton_of(c).max_dim
    return [(section, n, walk) for section, low, walk in sections for n in range(low, top + 1)]


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
    ``cell_keys`` optionally remembers what each cell denotes in the model
    the automaton was built from.
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

    def key(self, cell: CellId):
        if self.cell_keys is None:
            return cell
        return self.cell_keys.get(cell, cell)

    def cells_by_key(self) -> dict:
        return {self.key(c): c for c in self.skeleton.all_cells()}

    # Tables read by every morphism into or out of the automaton.  Each is
    # built on first use and kept in the instance dict, outside the fields.

    @cached_property
    def vertex_by_key(self) -> dict:
        return {self.key(v): v for v in self.cells(0)}

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
    itemgetter per face index or transposition.  Only a dimension that
    fails is walked cell by cell.
    """
    report = validate_complex(h.complex)
    report.subject = "hda"
    if not h.skeleton.has_cell(h.initial) or h.initial.dim != 0:
        report.add(f"initial cell {h.initial} is not a 0-cell of the complex")
    if STAR in h.alphabet:
        report.add("alphabet must not contain the idle symbol")
    failing = _failing_labels(h)
    for n in range(h.max_dim + 1):
        if n in failing:
            _walk_labels(h, n, report)
    return report


def _picked(words: list, positions: list) -> list:
    """Each word's letters at ``positions``, as a tuple: one itemgetter
    over the words (``itemgetter`` of one position gives a bare letter)."""
    if not positions:
        return [()] * len(words)
    if len(positions) == 1:
        return list(zip(map(itemgetter(*positions), words)))
    return list(map(itemgetter(*positions), words))


def _failing_labels(h: Hda) -> set:
    """The dimensions whose labels fail the table check of :func:`validate_hda`."""
    failing, below = set(), {}
    for n in range(h.max_dim + 1):
        ids = h.skeleton.cells.get(n, ())
        words = list(map(h.labeling.get, zip(itertools.repeat(n), ids)))
        own = dict(zip(ids, words))
        if not _labels_hold(h, n, ids, words, own, below):
            failing.add(n)
        below = own
    return failing


def _labels_hold(h: Hda, n: int, ids, words: list, own: dict, below: dict) -> bool:
    """Whether ``words``, the labels of ``ids`` = cells(n), pass the table
    check; ``own`` and ``below`` are the words of cells(n) and cells(n-1)
    by index."""
    if not (set(map(type, words)) <= {tuple} and set(map(len, words)) <= {n}
            and (set(h.alphabet) - {STAR}).issuperset(itertools.chain.from_iterable(words))):
        return False
    for i in range(n):
        expected = _picked(words, [k for k in range(n) if k != i])
        for sign in SIGNS:
            table = h.skeleton.faces.get((n, i, sign))
            if table is not None and not _same(_column(below, _column(table, ids)), expected):
                return False
    for i in range(n - 1):
        table = h.complex.transpositions.get((n, i))
        order = list(range(n))
        order[i], order[i + 1] = i + 1, i
        if table is not None and \
                not _same(_column(own, _column(table, ids)), _picked(words, order)):
            return False
    return True


def _walk_labels(h: Hda, n: int, report: ValidationReport) -> None:
    sk = h.skeleton
    alphabet = set(h.alphabet)
    own, below = ({cell.index: w for cell, w in h.labeling.items() if cell.dim == d}
                  for d in (n, n - 1))
    faces = [(i, sign, sk.faces[(n, i, sign)])
             for i in range(n) for sign in SIGNS if (n, i, sign) in sk.faces]
    swaps = [(i, h.complex.transpositions[(n, i)])
             for i in range(n - 1) if (n, i) in h.complex.transpositions]
    for idx in sk.cells.get(n, ()):
        w = own.get(idx)
        if w is None:
            report.add(f"cell {CellId(n, idx)} has no label")
            continue
        if len(w) != n:
            report.add(f"cell {CellId(n, idx)} labeled by word of length {len(w)}")
            continue
        for e in w:
            if e == STAR:
                report.add(f"cell {CellId(n, idx)} label contains the idle symbol")
            elif e not in alphabet:
                report.add(f"cell {CellId(n, idx)} label {e!r} outside the alphabet")
        for i, sign, table in faces:
            if idx in table and below.get(table[idx]) != w[:i] + w[i + 1:]:
                report.add(f"labeling not natural at face ({i},{sign}) of {CellId(n, idx)}")
        for i, table in swaps:
            if idx not in table:
                continue
            swapped = list(w)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            if own.get(table[idx]) != tuple(swapped):
                report.add(f"labeling not natural at transposition {i} of {CellId(n, idx)}")
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


def pad_skeleton(c: Complex, max_dim: int) -> Complex:
    """View a truncated complex as unbounded up to ``max_dim``: same cells,
    empty cell sets above the old top dimension."""
    sk = skeleton_of(c)
    if max_dim < sk.max_dim:
        raise IndexOutOfRange(f"cannot pad down from {sk.max_dim} to {max_dim}")
    cells = {n: tuple(sk.cells.get(n, ())) for n in range(max_dim + 1)}
    padded = PrecubicalComplex(cells=cells, faces=dict(sk.faces), max_dim=max_dim)
    if isinstance(c, PrecubicalComplex):
        return padded
    return SymmetricCubicalComplex(padded, dict(c.transpositions))


# ---------------------------------------------------------------------------
# Shell filling (right adjoint to truncation, capped)
# ---------------------------------------------------------------------------

def _enumerate_shells(sk: PrecubicalComplex, faces_of, k: int):
    """All compatible k-shells: assignments (i, sign) -> (k-1)-cell index
    satisfying the face-commutation grid."""

    slots = [(i, sign) for i in range(k) for sign in SIGNS]
    lower = list(sk.cells.get(k - 1, ()))

    def compatible(partial, slot, cand):
        i, a = slot
        for (j, b), other in zip(slots, partial):
            lo, hi = ((i, a, cand), (j, b, other)) if i < j else ((j, b, other), (i, a, cand))
            if lo[0] == hi[0]:
                continue
            # face(lo.i, lo.sign) of hi cell == face(hi.i - 1, hi.sign) of lo cell
            try:
                left = faces_of(CellId(k - 1, hi[2]), lo[0], lo[1])
                right = faces_of(CellId(k - 1, lo[2]), hi[0] - 1, hi[1])
            except KeyError:
                return False
            if left != right:
                return False
        return True

    def options(pos, partial):
        return [cand for cand in lower if compatible(partial, slots[pos], cand)]

    return slots, list(backtrack(slots, options))


def _folded(slots, sig, k: int) -> bool:
    """A family is folded when two coordinate directions carry the same
    pair of faces; such families describe a cube flattened onto a lower
    cell, not a geometric shell."""
    F = {slot: sig[p] for p, slot in enumerate(slots)}
    for i in range(k):
        for j in range(i + 1, k):
            if F[(i, "-")] == F[(j, "-")] and F[(i, "+")] == F[(j, "+")]:
                return True
    return False


def coskeleton_fill(c: Complex, from_dim: int, max_dim: int) -> Complex:
    """Fill every geometric k-shell with one k-cell, for ``from_dim < k <= max_dim``.

    A shell is a family of 2k faces satisfying the face-commutation grid,
    excluding folded families (two directions carrying the same face pair).
    On precubical complexes the two orientations of a square shell
    are identified and the canonically smaller one is filled; symmetric
    complexes fill both and link them by the new transposition maps.
    Idempotent on shells already filled.
    """
    if from_dim < 1:
        raise IndexOutOfRange("from_dim must be at least 1")
    if max_dim < from_dim:
        raise IndexOutOfRange("max_dim must be at least from_dim")
    sk = skeleton_of(c)
    symmetric = isinstance(c, SymmetricCubicalComplex)
    cells = {n: tuple(sk.cells.get(n, ())) for n in range(max(sk.max_dim, max_dim) + 1)}
    faces = {key: dict(tbl) for key, tbl in sk.faces.items()}
    transpositions = (
        {key: dict(tbl) for key, tbl in c.transpositions.items()} if symmetric else None
    )

    def face_lookup(cell: CellId, i: int, sign: str) -> int:
        return faces[(cell.dim, i, sign)][cell.index]

    for k in range(from_dim + 1, max_dim + 1):
        slots, families = _enumerate_shells(
            PrecubicalComplex(cells=cells, faces=faces, max_dim=k - 1), face_lookup, k
        )
        families = sorted(sig for sig in set(families) if not _folded(slots, sig, k))
        if not symmetric and k == 2:
            # slots order is ((0,-),(0,+),(1,-),(1,+)); identify orientations
            def flip(sig):
                return (sig[2], sig[3], sig[0], sig[1])

            orbits = sorted({tuple(sorted((sig, flip(sig)))) for sig in families})
        else:
            orbits = [(sig,) for sig in families]
        existing = {}
        for idx in cells.get(k, ()):
            sig = tuple(faces[(k, i, sign)][idx] for (i, sign) in slots)
            existing.setdefault(sig, idx)
        fresh = max(cells.get(k, ()), default=-1) + 1
        shell_cell: dict[tuple, int] = dict(existing)
        added = []
        for orbit in orbits:
            if any(sig in existing for sig in orbit):
                continue
            if symmetric:
                to_fill = orbit
            else:
                to_fill = (orbit[0],)
            for sig in to_fill:
                shell_cell[sig] = fresh
                added.append((sig, fresh))
                fresh += 1
        cells[k] = tuple(cells.get(k, ())) + tuple(idx for _, idx in added)
        for pos, (i, sign) in enumerate(slots):
            table = faces.setdefault((k, i, sign), {})
            for sig, idx in added:
                table[idx] = sig[pos]
        if symmetric:
            # transposition of a filled cell is the cell of the permuted shell
            def transpose_lower(cell_idx: int, i: int) -> int:
                return transpositions[(k - 1, i)][cell_idx]

            for i in range(k - 1):
                table = transpositions.setdefault((k, i), {})
                for sig, idx in added:
                    shell = {slot: sig[pos] for pos, slot in enumerate(slots)}
                    moved = {}
                    for (j, sign), val in shell.items():
                        if j == i:
                            moved[(i + 1, sign)] = val
                        elif j == i + 1:
                            moved[(i, sign)] = val
                        elif j < i:
                            moved[(j, sign)] = transpose_lower(val, i - 1)
                        else:
                            moved[(j, sign)] = transpose_lower(val, i)
                    moved_sig = tuple(moved[s] for s in slots)
                    if moved_sig not in shell_cell:
                        raise KeyError("transposed shell missing; complex is not symmetric-closed")
                    table[idx] = shell_cell[moved_sig]

    new_sk = PrecubicalComplex(cells=cells, faces=faces, max_dim=max(sk.max_dim, max_dim))
    if isinstance(c, PrecubicalComplex):
        return new_sk
    return SymmetricCubicalComplex(new_sk, transpositions)


# ---------------------------------------------------------------------------
# Labeling predicates
# ---------------------------------------------------------------------------

def _unique_by_faces(h: Hda, dims: Iterable[int], signs: tuple) -> bool:
    """No two distinct cells of one of ``dims`` share their faces of the
    given signs and their label."""
    sk = h.skeleton
    for n in dims:
        seen = set()
        for cell in sk.cell_ids(n):
            sig = (tuple(sk.face(cell, i, sign) for i in range(n) for sign in signs),
                   h.labeling[cell])
            if sig in seen:
                return False
            seen.add(sig)
    return True


def check_strong_labeling(h: Hda) -> bool:
    """No two distinct same-dimension cells share all faces and the label."""
    return _unique_by_faces(h, range(1, h.max_dim + 1), SIGNS)


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
    return _unique_by_faces(h, range(h.max_dim + 1) if n is None else (n,), ("-",))

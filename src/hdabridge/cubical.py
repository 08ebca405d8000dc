"""Finite cubical machinery: precubical, cubical and symmetric cubical
complexes, label words, and higher dimensional automata.

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
        return cell.index in set(self.cells.get(cell.dim, ()))

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
class CubicalComplex:
    """Cubical set presented by its non-degenerate skeleton."""

    skeleton: PrecubicalComplex


@dataclass(frozen=True)
class SymmetricCubicalComplex:
    """Cubical set with adjacent-transposition maps on each dimension n >= 2.

    ``transpositions[(n, i)]`` is a total map on the indices of ``cells(n)``
    for ``0 <= i <= n-2``.
    """

    skeleton: PrecubicalComplex
    transpositions: Mapping[tuple[int, int], Mapping[int, int]]

    @property
    def underlying(self) -> CubicalComplex:
        return CubicalComplex(self.skeleton)

    def transpose(self, cell: CellId, i: int) -> CellId:
        if not 0 <= i <= cell.dim - 2:
            raise IndexOutOfRange(f"transposition index {i} out of range for dimension {cell.dim}")
        table = self.transpositions.get((cell.dim, i))
        if table is None or cell.index not in table:
            raise KeyError(f"no transposition entry for {cell} at {i}")
        return CellId(cell.dim, table[cell.index])


Complex = Union[PrecubicalComplex, CubicalComplex, SymmetricCubicalComplex]


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


def zero_source(c: Complex, cell: Cell) -> CellId:
    w = as_witness(cell)
    while w.dim > 0:
        w = cell_face(c, w, 0, "-")
    return w.base


def zero_target(c: Complex, cell: Cell) -> CellId:
    w = as_witness(cell)
    while w.dim > 0:
        w = cell_face(c, w, 0, "+")
    return w.base


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

def index_complex(
    cells_by_dim: Mapping[int, Iterable],
    face_key: Callable[[int, object, int, str], object],
    transpose_key: Optional[Callable[[int, object, int], object]] = None,
):
    """Build a complex from keyed cells and key-level face/transposition maps.

    Keys are arbitrary hashables; indices are assigned in canonical key
    order per dimension, which makes construction deterministic.  Returns
    ``(complex, keys)`` where ``keys`` maps :class:`CellId` to the original
    key.  ``transpose_key`` selects a symmetric complex.
    """
    max_dim = max(cells_by_dim, default=0)
    cells: dict[int, tuple[int, ...]] = {}
    index_of: dict[int, dict[object, int]] = {}
    keys: dict[CellId, object] = {}
    for n in range(max_dim + 1):
        ordered = sorted_by_key(cells_by_dim.get(n, ()))
        cells[n] = tuple(range(len(ordered)))
        index_of[n] = {k: i for i, k in enumerate(ordered)}
        for i, k in enumerate(ordered):
            keys[CellId(n, i)] = k
    faces: dict[tuple[int, int, str], dict[int, int]] = {}
    for n in range(1, max_dim + 1):
        by_index = {i: k for k, i in index_of[n].items()}
        for i in range(n):
            for sign in SIGNS:
                table = {}
                for idx, key in by_index.items():
                    fk = face_key(n, key, i, sign)
                    if fk not in index_of[n - 1]:
                        raise KeyError(f"face of {key!r} at ({i},{sign}) is not a cell: {fk!r}")
                    table[idx] = index_of[n - 1][fk]
                faces[(n, i, sign)] = table
    skeleton = PrecubicalComplex(cells=cells, faces=faces, max_dim=max_dim)
    if transpose_key is None:
        return skeleton, keys
    transpositions: dict[tuple[int, int], dict[int, int]] = {}
    for n in range(2, max_dim + 1):
        by_index = {i: k for k, i in index_of[n].items()}
        for i in range(n - 1):
            table = {}
            for idx, key in by_index.items():
                tk = transpose_key(n, key, i)
                if tk not in index_of[n]:
                    raise KeyError(f"transposition of {key!r} at {i} is not a cell: {tk!r}")
                table[idx] = index_of[n][tk]
            transpositions[(n, i)] = table
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

    skeleton, _ = index_complex(cells_by_dim, face_key)
    return skeleton


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate_complex(c: Complex) -> ValidationReport:
    """Check every face and transposition identity instance; report violations."""
    sk = skeleton_of(c)
    report = ValidationReport(subject=type(c).__name__)
    present = {n: set(sk.cells.get(n, ())) for n in range(sk.max_dim + 1)}

    for n in range(1, sk.max_dim + 1):
        for i in range(n):
            for sign in SIGNS:
                table = sk.faces.get((n, i, sign))
                if table is None:
                    if present[n]:
                        report.add(f"missing face map ({n},{i},{sign})")
                    continue
                for idx in present[n]:
                    if idx not in table:
                        report.add(f"face ({n},{i},{sign}) undefined on cell {idx}")
                    elif table[idx] not in present[n - 1]:
                        report.add(f"face ({n},{i},{sign}) of cell {idx} lands outside cells({n - 1})")

    def face(cell, i, sign):
        return sk.faces[(cell.dim, i, sign)][cell.index]

    for n in range(2, sk.max_dim + 1):
        for idx in present[n]:
            x = CellId(n, idx)
            for j in range(1, n):
                for i in range(j):
                    for a in SIGNS:
                        for b in SIGNS:
                            try:
                                left = face(CellId(n - 1, face(x, j, b)), i, a)
                                right = face(CellId(n - 1, face(x, i, a)), j - 1, b)
                            except KeyError:
                                continue  # already reported as missing
                            if left != right:
                                report.add(
                                    f"dim {n} cell {idx}: face({i},{a}).face({j},{b}) = {left} "
                                    f"but face({j - 1},{b}).face({i},{a}) = {right}"
                                )

    if not isinstance(c, SymmetricCubicalComplex):
        return report

    def transpose(n, idx, i):
        return c.transpositions[(n, i)][idx]

    for n in range(2, sk.max_dim + 1):
        for i in range(n - 1):
            table = c.transpositions.get((n, i))
            if table is None:
                if present[n]:
                    report.add(f"missing transposition map ({n},{i})")
                continue
            for idx in present[n]:
                if idx not in table:
                    report.add(f"transposition ({n},{i}) undefined on cell {idx}")
                    continue
                if table[idx] not in present[n]:
                    report.add(f"transposition ({n},{i}) of cell {idx} lands outside cells({n})")
                    continue
                if table.get(table[idx]) != idx:
                    report.add(f"transposition ({n},{i}) is not an involution at cell {idx}")

    for n in range(2, sk.max_dim + 1):
        for idx in present[n]:
            for i in range(n - 1):
                try:
                    s = transpose(n, idx, i)
                except KeyError:
                    continue
                # faces i and i+1 swap; distant faces slide through
                for a in SIGNS:
                    try:
                        checks = []
                        checks.append((face(CellId(n, s), i, a), face(CellId(n, idx), i + 1, a)))
                        checks.append((face(CellId(n, s), i + 1, a), face(CellId(n, idx), i, a)))
                        for j in range(n):
                            if j in (i, i + 1):
                                continue
                            lhs = face(CellId(n, s), j, a)
                            rhs = face(CellId(n, idx), j, a)
                            if j < i:
                                rhs = transpose(n - 1, rhs, i - 1)
                            else:
                                rhs = transpose(n - 1, rhs, i)
                            checks.append((lhs, rhs))
                        for lhs, rhs in checks:
                            if lhs != rhs:
                                report.add(f"dim {n} cell {idx}: transposition {i} incompatible with faces")
                                break
                    except KeyError:
                        continue
            for i in range(n - 2):
                try:
                    lhs = transpose(n, transpose(n, transpose(n, idx, i), i + 1), i)
                    rhs = transpose(n, transpose(n, transpose(n, idx, i + 1), i), i + 1)
                except KeyError:
                    continue
                if lhs != rhs:
                    report.add(f"dim {n} cell {idx}: braid relation fails at {i}")
            for i in range(n - 1):
                for k in range(i + 2, n - 1):
                    try:
                        lhs = transpose(n, transpose(n, idx, k), i)
                        rhs = transpose(n, transpose(n, idx, i), k)
                    except KeyError:
                        continue
                    if lhs != rhs:
                        report.add(f"dim {n} cell {idx}: distant transpositions {i},{k} do not commute")
    return report


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


def validate_hda(h: Hda) -> ValidationReport:
    """Complex identities plus labeling naturality and pointing."""
    report = validate_complex(h.complex)
    report.subject = "hda"
    sk = h.skeleton
    if not sk.has_cell(h.initial) or h.initial.dim != 0:
        report.add(f"initial cell {h.initial} is not a 0-cell of the complex")
    alphabet = set(h.alphabet)
    if STAR in alphabet:
        report.add("alphabet must not contain the idle symbol")
    for cell in sk.all_cells():
        w = h.labeling.get(cell)
        if w is None:
            report.add(f"cell {cell} has no label")
            continue
        if len(w) != cell.dim:
            report.add(f"cell {cell} labeled by word of length {len(w)}")
            continue
        for e in w:
            if e == STAR:
                report.add(f"cell {cell} label contains the idle symbol")
            elif e not in alphabet:
                report.add(f"cell {cell} label {e!r} outside the alphabet")
        for i in range(cell.dim):
            for sign in SIGNS:
                try:
                    f = sk.face(cell, i, sign)
                except KeyError:
                    continue
                if h.labeling.get(f) != word_face(w, i):
                    report.add(f"labeling not natural at face ({i},{sign}) of {cell}")
        if cell.dim >= 2:
            for i in range(cell.dim - 1):
                try:
                    t = h.complex.transpose(cell, i)
                except KeyError:
                    continue
                swapped = list(w)
                swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
                if h.labeling.get(t) != tuple(swapped):
                    report.add(f"labeling not natural at transposition {i} of {cell}")
    return report


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
    if isinstance(c, CubicalComplex):
        return CubicalComplex(padded)
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
    On plain (pre)cubical complexes the two orientations of a square shell
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
    if isinstance(c, CubicalComplex):
        return CubicalComplex(new_sk)
    return SymmetricCubicalComplex(new_sk, transpositions)


# ---------------------------------------------------------------------------
# Labeling predicates
# ---------------------------------------------------------------------------

def check_strong_labeling(h: Hda) -> bool:
    """No two distinct same-dimension cells share all faces and the label."""
    sk = h.skeleton
    for n in range(1, sk.max_dim + 1):
        seen = {}
        for cell in sk.cell_ids(n):
            sig = (
                tuple(sk.face(cell, i, sign) for i in range(n) for sign in SIGNS),
                h.labeling[cell],
            )
            if sig in seen and seen[sig] != cell:
                return False
            seen[sig] = cell
    return True


def check_linear_labeling(h: Hda) -> bool:
    return all(word_is_linear(h.labeling[c]) for c in h.skeleton.all_cells())


def check_deterministic(h: Hda, n: Optional[int] = None) -> bool:
    """Cells of dimension n with equal source faces and label coincide.

    ``n=None`` checks every dimension (0-cells have no sources, so any two
    distinct 0-cells already fail, matching the blunt reading).
    """
    sk = h.skeleton
    dims = range(sk.max_dim + 1) if n is None else [n]
    for d in dims:
        seen = {}
        for cell in sk.cell_ids(d):
            sig = (
                tuple(sk.face(cell, i, "-") for i in range(d)),
                h.labeling[cell],
            )
            if sig in seen and seen[sig] != cell:
                return False
            seen[sig] = cell
    return True

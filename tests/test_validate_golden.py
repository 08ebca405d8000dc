"""Golden reports of ``validate_complex`` and ``validate_hda`` on
hand-broken automata, and a differential test of their table checks.

Each golden case breaks one or more tables of a valid automaton; the test
pins the full report text of both validators, so every message kind, its
wording and the order of the violations stay as they are.  The
differential test puts up to three faults into a generated automaton,
numbered 0..N-1 or sparsely, and requires the validators' reports to
equal the per-cell walk of ``reference.py`` run on every section and
dimension, message for message and in the same order.
"""

import itertools
import pathlib

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from hdabridge.cubical import STAR, CellId, Hda, PrecubicalComplex, SymmetricCubicalComplex, \
    validate_complex, validate_hda
from hdabridge.errors import ExplosionLimit
from hdabridge.functors import es_to_hda, pn_to_hda
from hdabridge.jsonio import parse_document
from hdabridge.laws import GeneratorConfig, gen_es, gen_pn
from hdabridge.models import make_event_structure
from hdabridge.util import ValidationReport

from helpers import loops4, token_net
from reference import walk_labels, walks

DROP = object()  # removes a table entry, or a whole table
FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def square():
    return es_to_hda(make_event_structure("ab"))


def cube():
    return es_to_hda(make_event_structure("abc"))


def edit(h, faces=(), transpositions=(), words=(), alphabet=None, initial=None):
    """A copy of ``h`` with column entries replaced.

    ``faces`` and ``transpositions`` list (table key, cell position,
    value), where position None with DROP removes the whole table;
    ``words`` lists (cell, word).  DROP as a value clears the entry.
    """
    sk = h.skeleton

    def apply(tables, edits):
        out = {k: list(v) for k, v in tables.items()}
        for key, j, value in edits:
            if j is None:
                out.pop(key)
            else:
                out[key][j] = None if value is DROP else value
        return out

    new_words = [list(column) for column in h.words]
    for (n, j), word in words:
        new_words[n][j] = None if word is DROP else word
    skeleton = PrecubicalComplex(cells=sk.cells, faces=apply(sk.faces, faces), max_dim=sk.max_dim)
    return Hda(
        complex=SymmetricCubicalComplex(skeleton, apply(h.complex.transpositions, transpositions)),
        alphabet=h.alphabet if alphabet is None else alphabet,
        words=new_words,
        initial=h.initial if initial is None else initial,
    )


def insert_cell(h, n, at, idx, like=None):
    """``h`` with a cell listed as ``idx`` put at position ``at`` of
    cells(n): a copy of the cell at position ``like`` (its entries and
    word), or a cell with no entries and no word.  Every entry naming an
    n-cell at or past ``at`` moves up one."""
    sk = h.skeleton

    def moved(col):  # a column whose values are n-cells
        return [v + 1 if type(v) is int and v >= at else v for v in col]

    def put(col):  # a column over cells(n)
        return col[:at] + [None if like is None else col[like]] + col[at:]

    faces = {key: put(list(col)) if key[0] == n else moved(col) if key[0] == n + 1 else col
             for key, col in sk.faces.items()}
    swaps = {key: put(moved(col)) if key[0] == n else col
             for key, col in h.complex.transpositions.items()}
    words = [put(list(column)) if d == n else column for d, column in enumerate(h.words)]
    cells = dict(sk.cells)
    ids = list(sk.cells.get(n, ()))
    cells[n] = tuple(ids[:at] + [idx] + ids[at:])
    initial = h.initial
    if n == 0 and initial.index >= at:
        initial = CellId(0, initial.index + 1)
    return Hda(SymmetricCubicalComplex(PrecubicalComplex(cells, faces, sk.max_dim), swaps),
               h.alphabet, words, initial)


def twins(h, n):
    """``h`` with every n-cell doubled: the twin of cell k is k + N, with
    k's faces and word, and its transpositions stay among the twins; no
    face names a twin.  A transposition re-paired across twins keeps every
    slide of its dimension."""
    sk = h.skeleton
    shift = len(sk.cells[n])
    faces = {key: col + col if key[0] == n else col for key, col in sk.faces.items()}
    swaps = {key: col + [v + shift for v in col] if key[0] == n else col
             for key, col in h.complex.transpositions.items()}
    words = [list(column) * 2 if d == n else column for d, column in enumerate(h.words)]
    cells = dict(sk.cells)
    cells[n] = range(2 * shift)
    return Hda(SymmetricCubicalComplex(PrecubicalComplex(cells, faces, sk.max_dim), swaps),
               h.alphabet, words, h.initial)


def repaired(h, key, x):
    """``twins(h, n)``, n the dimension of transposition ``key``, with
    that transposition sending x and its twin to each other's partners."""
    t = h.complex.transpositions[key]
    y, shift = t[x], len(h.skeleton.cells[key[0]])
    h = twins(h, key[0])
    return edit(h, transpositions=[(key, x, y + shift), (key, y + shift, x),
                                   (key, x + shift, y), (key, y, x + shift)])


CASES = {
    "missing face map": lambda: edit(square(), faces=[((2, 0, "-"), None, DROP)]),
    "face undefined on a cell": lambda: edit(square(), faces=[((2, 1, "+"), 0, DROP)]),
    "face lands outside": lambda: edit(square(), faces=[((1, 0, "+"), 1, 9)]),
    "face rewired": lambda: edit(square(), faces=[((2, 0, "-"), 0, 3)]),
    "cell without tables": lambda: insert_cell(square(), 2, 2, 2),
    "missing transposition map": lambda: edit(cube(), transpositions=[((3, 1), None, DROP)]),
    "transposition undefined on a cell": lambda: edit(cube(), transpositions=[((2, 0), 0, DROP)]),
    "transposition lands outside": lambda: edit(cube(), transpositions=[((2, 0), 1, 99)]),
    "transposition fixes a square": lambda: edit(square(), transpositions=[((2, 0), 0, 0)]),
    "braid fails": lambda: edit(cube(), transpositions=[((3, 0), 0, 1), ((3, 0), 1, 0)]),
    "braid alone fails": lambda: repaired(cube(), (3, 0), 0),
    "distant transpositions": lambda: edit(loops4(), transpositions=[((4, 2), 0, 3), ((4, 2), 3, 0)]),
    "initial is an edge": lambda: edit(square(), initial=CellId(1, 0)),
    "initial is not a cell": lambda: edit(square(), initial=CellId(0, 99)),
    "idle symbol in the alphabet": lambda: edit(square(), alphabet=("a", "b", STAR)),
    "letters outside the alphabet": lambda: edit(cube(), alphabet=("a", "b")),
    "idle symbol in an edge label": lambda: edit(square(), words=[(CellId(1, 0), (STAR,))]),
    "labels broken": lambda: edit(cube(), words=[
        (CellId(1, 0), DROP), (CellId(1, 1), ("a", "b")), (CellId(1, 2), (STAR,)),
        (CellId(1, 3), ("z",)), (CellId(2, 0), ("b", "b")), (CellId(3, 5), ("c", "a", "b"))]),
    "slide at dim 3, label at dim 2": lambda: edit(
        cube(), transpositions=[((3, 1), 0, 2), ((3, 1), 2, 0), ((3, 1), 1, 3), ((3, 1), 3, 1)],
        words=[(CellId(2, 6), ("c", "b"))]),
    "faces at dim 2, transposition at dim 3, label at dim 1": lambda: edit(
        cube(), faces=[((2, 1, "+"), 3, 0)], transpositions=[((3, 0), 4, DROP)],
        words=[(CellId(1, 2), ("a",))]),
    "everything at once": lambda: edit(
        insert_cell(cube(), 3, 6, 6),
        faces=[((3, 2, "+"), None, DROP), ((2, 1, "-"), 4, 0), ((1, 0, "-"), 2, 50)],
        transpositions=[((3, 0), 2, DROP), ((2, 0), 3, 3)],
        words=[(CellId(2, 1), ("a", "a")), (CellId(0, 0), ("a",))],
        alphabet=("a", "b"), initial=CellId(2, 0)),
}

# each report as the per-cell walk alone writes it, recorded before the table checks
GOLDEN = {
    "braid alone fails": (
        [
            "SymmetricCubicalComplex: 12 violation(s)",
            "  - dim 3 cell 0: braid relation fails at 0",
            "  - dim 3 cell 1: braid relation fails at 0",
            "  - dim 3 cell 2: braid relation fails at 0",
            "  - dim 3 cell 3: braid relation fails at 0",
            "  - dim 3 cell 4: braid relation fails at 0",
            "  - dim 3 cell 5: braid relation fails at 0",
            "  - dim 3 cell 6: braid relation fails at 0",
            "  - dim 3 cell 7: braid relation fails at 0",
            "  - dim 3 cell 8: braid relation fails at 0",
            "  - dim 3 cell 9: braid relation fails at 0",
            "  - dim 3 cell 10: braid relation fails at 0",
            "  - dim 3 cell 11: braid relation fails at 0",
        ],
        [
            "hda: 12 violation(s)",
            "  - dim 3 cell 0: braid relation fails at 0",
            "  - dim 3 cell 1: braid relation fails at 0",
            "  - dim 3 cell 2: braid relation fails at 0",
            "  - dim 3 cell 3: braid relation fails at 0",
            "  - dim 3 cell 4: braid relation fails at 0",
            "  - dim 3 cell 5: braid relation fails at 0",
            "  - dim 3 cell 6: braid relation fails at 0",
            "  - dim 3 cell 7: braid relation fails at 0",
            "  - dim 3 cell 8: braid relation fails at 0",
            "  - dim 3 cell 9: braid relation fails at 0",
            "  - dim 3 cell 10: braid relation fails at 0",
            "  - dim 3 cell 11: braid relation fails at 0",
        ],
    ),
    "braid fails": (
        [
            "SymmetricCubicalComplex: 8 violation(s)",
            "  - transposition (3,0) is not an involution at cell 2",
            "  - transposition (3,0) is not an involution at cell 4",
            "  - dim 3 cell 0: transposition 0 incompatible with faces of sign -",
            "  - dim 3 cell 0: transposition 0 incompatible with faces of sign +",
            "  - dim 3 cell 1: transposition 0 incompatible with faces of sign -",
            "  - dim 3 cell 1: transposition 0 incompatible with faces of sign +",
            "  - dim 3 cell 2: braid relation fails at 0",
            "  - dim 3 cell 4: braid relation fails at 0",
        ],
        [
            "hda: 10 violation(s)",
            "  - transposition (3,0) is not an involution at cell 2",
            "  - transposition (3,0) is not an involution at cell 4",
            "  - dim 3 cell 0: transposition 0 incompatible with faces of sign -",
            "  - dim 3 cell 0: transposition 0 incompatible with faces of sign +",
            "  - dim 3 cell 1: transposition 0 incompatible with faces of sign -",
            "  - dim 3 cell 1: transposition 0 incompatible with faces of sign +",
            "  - dim 3 cell 2: braid relation fails at 0",
            "  - dim 3 cell 4: braid relation fails at 0",
            "  - labeling not natural at transposition 0 of CellId(dim=3, index=0)",
            "  - labeling not natural at transposition 0 of CellId(dim=3, index=1)",
        ],
    ),
    "cell without tables": (
        [
            "SymmetricCubicalComplex: 5 violation(s)",
            "  - face (2,0,-) undefined on cell 2",
            "  - face (2,0,+) undefined on cell 2",
            "  - face (2,1,-) undefined on cell 2",
            "  - face (2,1,+) undefined on cell 2",
            "  - transposition (2,0) undefined on cell 2",
        ],
        [
            "hda: 6 violation(s)",
            "  - face (2,0,-) undefined on cell 2",
            "  - face (2,0,+) undefined on cell 2",
            "  - face (2,1,-) undefined on cell 2",
            "  - face (2,1,+) undefined on cell 2",
            "  - transposition (2,0) undefined on cell 2",
            "  - cell CellId(dim=2, index=2) has no label",
        ],
    ),
    "distant transpositions": (
        [
            "SymmetricCubicalComplex: 15 violation(s)",
            "  - transposition (4,2) is not an involution at cell 1",
            "  - transposition (4,2) is not an involution at cell 2",
            "  - dim 4 cell 0: transposition 2 incompatible with faces of sign -",
            "  - dim 4 cell 0: transposition 2 incompatible with faces of sign +",
            "  - dim 4 cell 0: braid relation fails at 1",
            "  - dim 4 cell 0: distant transpositions 0,2 do not commute",
            "  - dim 4 cell 2: braid relation fails at 1",
            "  - dim 4 cell 3: transposition 2 incompatible with faces of sign -",
            "  - dim 4 cell 3: transposition 2 incompatible with faces of sign +",
            "  - dim 4 cell 3: braid relation fails at 1",
            "  - dim 4 cell 3: distant transpositions 0,2 do not commute",
            "  - dim 4 cell 4: braid relation fails at 1",
            "  - dim 4 cell 5: braid relation fails at 1",
            "  - dim 4 cell 6: distant transpositions 0,2 do not commute",
            "  - dim 4 cell 13: distant transpositions 0,2 do not commute",
        ],
        [
            "hda: 17 violation(s)",
            "  - transposition (4,2) is not an involution at cell 1",
            "  - transposition (4,2) is not an involution at cell 2",
            "  - dim 4 cell 0: transposition 2 incompatible with faces of sign -",
            "  - dim 4 cell 0: transposition 2 incompatible with faces of sign +",
            "  - dim 4 cell 0: braid relation fails at 1",
            "  - dim 4 cell 0: distant transpositions 0,2 do not commute",
            "  - dim 4 cell 2: braid relation fails at 1",
            "  - dim 4 cell 3: transposition 2 incompatible with faces of sign -",
            "  - dim 4 cell 3: transposition 2 incompatible with faces of sign +",
            "  - dim 4 cell 3: braid relation fails at 1",
            "  - dim 4 cell 3: distant transpositions 0,2 do not commute",
            "  - dim 4 cell 4: braid relation fails at 1",
            "  - dim 4 cell 5: braid relation fails at 1",
            "  - dim 4 cell 6: distant transpositions 0,2 do not commute",
            "  - dim 4 cell 13: distant transpositions 0,2 do not commute",
            "  - labeling not natural at transposition 2 of CellId(dim=4, index=0)",
            "  - labeling not natural at transposition 2 of CellId(dim=4, index=3)",
        ],
    ),
    "everything at once": (
        [
            "SymmetricCubicalComplex: 25 violation(s)",
            "  - face (1,0,-) of cell 2 lands outside cells(0)",
            "  - face (3,0,-) undefined on cell 6",
            "  - face (3,0,+) undefined on cell 6",
            "  - face (3,1,-) undefined on cell 6",
            "  - face (3,1,+) undefined on cell 6",
            "  - face (3,2,-) undefined on cell 6",
            "  - missing face map (3,2,+)",
            "  - dim 2 cell 1: face(0,-).face(1,-) = 0 but face(0,-).face(0,-) = 50",
            "  - dim 2 cell 3: face(0,-).face(1,-) = 0 but face(0,-).face(0,-) = 50",
            "  - dim 2 cell 4: face(0,+).face(1,-) = 1 but face(0,-).face(0,+) = 7",
            "  - dim 2 cell 5: face(0,-).face(1,-) = 50 but face(0,-).face(0,-) = 0",
            "  - dim 3 cell 3: face(0,-).face(2,-) = 2 but face(1,-).face(0,-) = 0",
            "  - dim 3 cell 4: face(1,-).face(2,-) = 0 but face(1,-).face(1,-) = 2",
            "  - dim 3 cell 5: face(1,-).face(2,-) = 2 but face(1,-).face(1,-) = 0",
            "  - transposition (2,0) is not an involution at cell 5",
            "  - transposition (3,0) is not an involution at cell 0",
            "  - transposition (3,0) undefined on cell 2",
            "  - transposition (3,0) undefined on cell 6",
            "  - transposition (3,1) undefined on cell 6",
            "  - dim 2 cell 1: transposition 0 incompatible with faces of sign -",
            "  - dim 2 cell 3: transposition 0 incompatible with faces of sign -",
            "  - dim 2 cell 3: transposition 0 incompatible with faces of sign +",
            "  - dim 2 cell 4: transposition 0 incompatible with faces of sign -",
            "  - dim 3 cell 0: transposition 1 incompatible with faces of sign -",
            "  - dim 3 cell 3: transposition 0 incompatible with faces of sign -",
        ],
        [
            "hda: 57 violation(s)",
            "  - face (1,0,-) of cell 2 lands outside cells(0)",
            "  - face (3,0,-) undefined on cell 6",
            "  - face (3,0,+) undefined on cell 6",
            "  - face (3,1,-) undefined on cell 6",
            "  - face (3,1,+) undefined on cell 6",
            "  - face (3,2,-) undefined on cell 6",
            "  - missing face map (3,2,+)",
            "  - dim 2 cell 1: face(0,-).face(1,-) = 0 but face(0,-).face(0,-) = 50",
            "  - dim 2 cell 3: face(0,-).face(1,-) = 0 but face(0,-).face(0,-) = 50",
            "  - dim 2 cell 4: face(0,+).face(1,-) = 1 but face(0,-).face(0,+) = 7",
            "  - dim 2 cell 5: face(0,-).face(1,-) = 50 but face(0,-).face(0,-) = 0",
            "  - dim 3 cell 3: face(0,-).face(2,-) = 2 but face(1,-).face(0,-) = 0",
            "  - dim 3 cell 4: face(1,-).face(2,-) = 0 but face(1,-).face(1,-) = 2",
            "  - dim 3 cell 5: face(1,-).face(2,-) = 2 but face(1,-).face(1,-) = 0",
            "  - transposition (2,0) is not an involution at cell 5",
            "  - transposition (3,0) is not an involution at cell 0",
            "  - transposition (3,0) undefined on cell 2",
            "  - transposition (3,0) undefined on cell 6",
            "  - transposition (3,1) undefined on cell 6",
            "  - dim 2 cell 1: transposition 0 incompatible with faces of sign -",
            "  - dim 2 cell 3: transposition 0 incompatible with faces of sign -",
            "  - dim 2 cell 3: transposition 0 incompatible with faces of sign +",
            "  - dim 2 cell 4: transposition 0 incompatible with faces of sign -",
            "  - dim 3 cell 0: transposition 1 incompatible with faces of sign -",
            "  - dim 3 cell 3: transposition 0 incompatible with faces of sign -",
            "  - initial cell CellId(dim=2, index=0) is not a 0-cell of the complex",
            "  - cell CellId(dim=0, index=0) labeled by word of length 1",
            "  - labeling not natural at face (0,-) of CellId(dim=1, index=0)",
            "  - labeling not natural at face (0,-) of CellId(dim=1, index=1)",
            "  - cell CellId(dim=1, index=2) label 'c' outside the alphabet",
            "  - labeling not natural at face (0,-) of CellId(dim=1, index=2)",
            "  - cell CellId(dim=1, index=4) label 'c' outside the alphabet",
            "  - cell CellId(dim=1, index=5) label 'c' outside the alphabet",
            "  - cell CellId(dim=1, index=8) label 'c' outside the alphabet",
            "  - labeling not natural at face (0,-) of CellId(dim=2, index=1)",
            "  - labeling not natural at face (0,+) of CellId(dim=2, index=1)",
            "  - labeling not natural at transposition 0 of CellId(dim=2, index=1)",
            "  - cell CellId(dim=2, index=3) label 'c' outside the alphabet",
            "  - labeling not natural at transposition 0 of CellId(dim=2, index=3)",
            "  - cell CellId(dim=2, index=4) label 'c' outside the alphabet",
            "  - labeling not natural at face (1,-) of CellId(dim=2, index=4)",
            "  - labeling not natural at transposition 0 of CellId(dim=2, index=4)",
            "  - cell CellId(dim=2, index=5) label 'c' outside the alphabet",
            "  - cell CellId(dim=2, index=6) label 'c' outside the alphabet",
            "  - cell CellId(dim=2, index=7) label 'c' outside the alphabet",
            "  - cell CellId(dim=2, index=8) label 'c' outside the alphabet",
            "  - cell CellId(dim=2, index=9) label 'c' outside the alphabet",
            "  - cell CellId(dim=3, index=0) label 'c' outside the alphabet",
            "  - labeling not natural at face (1,-) of CellId(dim=3, index=0)",
            "  - cell CellId(dim=3, index=1) label 'c' outside the alphabet",
            "  - labeling not natural at face (2,-) of CellId(dim=3, index=1)",
            "  - cell CellId(dim=3, index=2) label 'c' outside the alphabet",
            "  - labeling not natural at face (0,-) of CellId(dim=3, index=2)",
            "  - cell CellId(dim=3, index=3) label 'c' outside the alphabet",
            "  - cell CellId(dim=3, index=4) label 'c' outside the alphabet",
            "  - cell CellId(dim=3, index=5) label 'c' outside the alphabet",
            "  - cell CellId(dim=3, index=6) has no label",
        ],
    ),
    "face lands outside": (
        [
            "SymmetricCubicalComplex: 3 violation(s)",
            "  - face (1,0,+) of cell 1 lands outside cells(0)",
            "  - dim 2 cell 0: face(0,-).face(1,+) = 3 but face(0,+).face(0,-) = 9",
            "  - dim 2 cell 1: face(0,+).face(1,-) = 9 but face(0,-).face(0,+) = 3",
        ],
        [
            "hda: 4 violation(s)",
            "  - face (1,0,+) of cell 1 lands outside cells(0)",
            "  - dim 2 cell 0: face(0,-).face(1,+) = 3 but face(0,+).face(0,-) = 9",
            "  - dim 2 cell 1: face(0,+).face(1,-) = 9 but face(0,-).face(0,+) = 3",
            "  - labeling not natural at face (0,+) of CellId(dim=1, index=1)",
        ],
    ),
    "face rewired": (
        [
            "SymmetricCubicalComplex: 4 violation(s)",
            "  - dim 2 cell 0: face(0,-).face(1,-) = 0 but face(0,-).face(0,-) = 3",
            "  - dim 2 cell 0: face(0,-).face(1,+) = 3 but face(0,+).face(0,-) = 2",
            "  - dim 2 cell 0: transposition 0 incompatible with faces of sign -",
            "  - dim 2 cell 1: transposition 0 incompatible with faces of sign -",
        ],
        [
            "hda: 5 violation(s)",
            "  - dim 2 cell 0: face(0,-).face(1,-) = 0 but face(0,-).face(0,-) = 3",
            "  - dim 2 cell 0: face(0,-).face(1,+) = 3 but face(0,+).face(0,-) = 2",
            "  - dim 2 cell 0: transposition 0 incompatible with faces of sign -",
            "  - dim 2 cell 1: transposition 0 incompatible with faces of sign -",
            "  - labeling not natural at face (0,-) of CellId(dim=2, index=0)",
        ],
    ),
    "face undefined on a cell": (
        [
            "SymmetricCubicalComplex: 1 violation(s)",
            "  - face (2,1,+) undefined on cell 0",
        ],
        [
            "hda: 1 violation(s)",
            "  - face (2,1,+) undefined on cell 0",
        ],
    ),
    "faces at dim 2, transposition at dim 3, label at dim 1": (
        [
            "SymmetricCubicalComplex: 9 violation(s)",
            "  - dim 2 cell 3: face(0,-).face(1,+) = 0 but face(0,+).face(0,-) = 7",
            "  - dim 2 cell 3: face(0,+).face(1,+) = 1 but face(0,+).face(0,+) = 6",
            "  - dim 3 cell 0: face(0,-).face(2,+) = 11 but face(1,+).face(0,-) = 0",
            "  - dim 3 cell 2: face(1,-).face(2,+) = 11 but face(1,+).face(1,-) = 0",
            "  - dim 3 cell 3: face(1,+).face(2,-) = 0 but face(1,-).face(1,+) = 11",
            "  - transposition (3,0) is not an involution at cell 1",
            "  - transposition (3,0) undefined on cell 4",
            "  - dim 2 cell 3: transposition 0 incompatible with faces of sign +",
            "  - dim 2 cell 5: transposition 0 incompatible with faces of sign +",
        ],
        [
            "hda: 14 violation(s)",
            "  - dim 2 cell 3: face(0,-).face(1,+) = 0 but face(0,+).face(0,-) = 7",
            "  - dim 2 cell 3: face(0,+).face(1,+) = 1 but face(0,+).face(0,+) = 6",
            "  - dim 3 cell 0: face(0,-).face(2,+) = 11 but face(1,+).face(0,-) = 0",
            "  - dim 3 cell 2: face(1,-).face(2,+) = 11 but face(1,+).face(1,-) = 0",
            "  - dim 3 cell 3: face(1,+).face(2,-) = 0 but face(1,-).face(1,+) = 11",
            "  - transposition (3,0) is not an involution at cell 1",
            "  - transposition (3,0) undefined on cell 4",
            "  - dim 2 cell 3: transposition 0 incompatible with faces of sign +",
            "  - dim 2 cell 5: transposition 0 incompatible with faces of sign +",
            "  - labeling not natural at face (0,-) of CellId(dim=2, index=1)",
            "  - labeling not natural at face (0,-) of CellId(dim=2, index=3)",
            "  - labeling not natural at face (1,+) of CellId(dim=2, index=3)",
            "  - labeling not natural at face (1,-) of CellId(dim=2, index=4)",
            "  - labeling not natural at face (1,-) of CellId(dim=2, index=5)",
        ],
    ),
    "idle symbol in the alphabet": (
        ["SymmetricCubicalComplex: ok"],
        [
            "hda: 1 violation(s)",
            "  - alphabet must not contain the idle symbol",
        ],
    ),
    "idle symbol in an edge label": (
        ["SymmetricCubicalComplex: ok"],
        [
            "hda: 3 violation(s)",
            "  - cell CellId(dim=1, index=0) label contains the idle symbol",
            "  - labeling not natural at face (1,-) of CellId(dim=2, index=0)",
            "  - labeling not natural at face (0,-) of CellId(dim=2, index=1)",
        ],
    ),
    "initial is an edge": (
        ["SymmetricCubicalComplex: ok"],
        [
            "hda: 1 violation(s)",
            "  - initial cell CellId(dim=1, index=0) is not a 0-cell of the complex",
        ],
    ),
    "initial is not a cell": (
        ["SymmetricCubicalComplex: ok"],
        [
            "hda: 1 violation(s)",
            "  - initial cell CellId(dim=0, index=99) is not a 0-cell of the complex",
        ],
    ),
    "labels broken": (
        ["SymmetricCubicalComplex: ok"],
        [
            "hda: 36 violation(s)",
            "  - cell CellId(dim=1, index=0) has no label",
            "  - cell CellId(dim=1, index=1) labeled by word of length 2",
            "  - cell CellId(dim=1, index=2) label contains the idle symbol",
            "  - cell CellId(dim=1, index=3) label 'z' outside the alphabet",
            "  - labeling not natural at face (0,-) of CellId(dim=2, index=0)",
            "  - labeling not natural at face (0,+) of CellId(dim=2, index=0)",
            "  - labeling not natural at face (1,-) of CellId(dim=2, index=0)",
            "  - labeling not natural at face (1,+) of CellId(dim=2, index=0)",
            "  - labeling not natural at transposition 0 of CellId(dim=2, index=0)",
            "  - labeling not natural at face (0,-) of CellId(dim=2, index=1)",
            "  - labeling not natural at face (1,-) of CellId(dim=2, index=1)",
            "  - labeling not natural at face (0,-) of CellId(dim=2, index=2)",
            "  - labeling not natural at face (1,-) of CellId(dim=2, index=2)",
            "  - labeling not natural at face (1,+) of CellId(dim=2, index=2)",
            "  - labeling not natural at transposition 0 of CellId(dim=2, index=2)",
            "  - labeling not natural at face (0,-) of CellId(dim=2, index=3)",
            "  - labeling not natural at face (1,-) of CellId(dim=2, index=3)",
            "  - labeling not natural at face (0,-) of CellId(dim=2, index=4)",
            "  - labeling not natural at face (1,-) of CellId(dim=2, index=4)",
            "  - labeling not natural at face (0,-) of CellId(dim=2, index=5)",
            "  - labeling not natural at face (1,-) of CellId(dim=2, index=5)",
            "  - labeling not natural at face (1,-) of CellId(dim=2, index=6)",
            "  - labeling not natural at face (0,-) of CellId(dim=2, index=7)",
            "  - labeling not natural at face (2,-) of CellId(dim=3, index=0)",
            "  - labeling not natural at face (1,-) of CellId(dim=3, index=1)",
            "  - labeling not natural at transposition 0 of CellId(dim=3, index=3)",
            "  - labeling not natural at face (0,-) of CellId(dim=3, index=4)",
            "  - labeling not natural at transposition 1 of CellId(dim=3, index=4)",
            "  - labeling not natural at face (0,-) of CellId(dim=3, index=5)",
            "  - labeling not natural at face (0,+) of CellId(dim=3, index=5)",
            "  - labeling not natural at face (1,-) of CellId(dim=3, index=5)",
            "  - labeling not natural at face (1,+) of CellId(dim=3, index=5)",
            "  - labeling not natural at face (2,-) of CellId(dim=3, index=5)",
            "  - labeling not natural at face (2,+) of CellId(dim=3, index=5)",
            "  - labeling not natural at transposition 0 of CellId(dim=3, index=5)",
            "  - labeling not natural at transposition 1 of CellId(dim=3, index=5)",
        ],
    ),
    "letters outside the alphabet": (
        ["SymmetricCubicalComplex: ok"],
        [
            "hda: 18 violation(s)",
            "  - cell CellId(dim=1, index=2) label 'c' outside the alphabet",
            "  - cell CellId(dim=1, index=4) label 'c' outside the alphabet",
            "  - cell CellId(dim=1, index=5) label 'c' outside the alphabet",
            "  - cell CellId(dim=1, index=8) label 'c' outside the alphabet",
            "  - cell CellId(dim=2, index=1) label 'c' outside the alphabet",
            "  - cell CellId(dim=2, index=3) label 'c' outside the alphabet",
            "  - cell CellId(dim=2, index=4) label 'c' outside the alphabet",
            "  - cell CellId(dim=2, index=5) label 'c' outside the alphabet",
            "  - cell CellId(dim=2, index=6) label 'c' outside the alphabet",
            "  - cell CellId(dim=2, index=7) label 'c' outside the alphabet",
            "  - cell CellId(dim=2, index=8) label 'c' outside the alphabet",
            "  - cell CellId(dim=2, index=9) label 'c' outside the alphabet",
            "  - cell CellId(dim=3, index=0) label 'c' outside the alphabet",
            "  - cell CellId(dim=3, index=1) label 'c' outside the alphabet",
            "  - cell CellId(dim=3, index=2) label 'c' outside the alphabet",
            "  - cell CellId(dim=3, index=3) label 'c' outside the alphabet",
            "  - cell CellId(dim=3, index=4) label 'c' outside the alphabet",
            "  - cell CellId(dim=3, index=5) label 'c' outside the alphabet",
        ],
    ),
    "missing face map": (
        [
            "SymmetricCubicalComplex: 1 violation(s)",
            "  - missing face map (2,0,-)",
        ],
        [
            "hda: 1 violation(s)",
            "  - missing face map (2,0,-)",
        ],
    ),
    "missing transposition map": (
        [
            "SymmetricCubicalComplex: 1 violation(s)",
            "  - missing transposition map (3,1)",
        ],
        [
            "hda: 1 violation(s)",
            "  - missing transposition map (3,1)",
        ],
    ),
    "slide at dim 3, label at dim 2": (
        [
            "SymmetricCubicalComplex: 12 violation(s)",
            "  - dim 3 cell 0: transposition 1 incompatible with faces of sign -",
            "  - dim 3 cell 0: transposition 1 incompatible with faces of sign +",
            "  - dim 3 cell 1: transposition 1 incompatible with faces of sign -",
            "  - dim 3 cell 1: transposition 1 incompatible with faces of sign +",
            "  - dim 3 cell 1: braid relation fails at 0",
            "  - dim 3 cell 2: transposition 1 incompatible with faces of sign -",
            "  - dim 3 cell 2: transposition 1 incompatible with faces of sign +",
            "  - dim 3 cell 3: transposition 1 incompatible with faces of sign -",
            "  - dim 3 cell 3: transposition 1 incompatible with faces of sign +",
            "  - dim 3 cell 3: braid relation fails at 0",
            "  - dim 3 cell 4: braid relation fails at 0",
            "  - dim 3 cell 5: braid relation fails at 0",
        ],
        [
            "hda: 25 violation(s)",
            "  - dim 3 cell 0: transposition 1 incompatible with faces of sign -",
            "  - dim 3 cell 0: transposition 1 incompatible with faces of sign +",
            "  - dim 3 cell 1: transposition 1 incompatible with faces of sign -",
            "  - dim 3 cell 1: transposition 1 incompatible with faces of sign +",
            "  - dim 3 cell 1: braid relation fails at 0",
            "  - dim 3 cell 2: transposition 1 incompatible with faces of sign -",
            "  - dim 3 cell 2: transposition 1 incompatible with faces of sign +",
            "  - dim 3 cell 3: transposition 1 incompatible with faces of sign -",
            "  - dim 3 cell 3: transposition 1 incompatible with faces of sign +",
            "  - dim 3 cell 3: braid relation fails at 0",
            "  - dim 3 cell 4: braid relation fails at 0",
            "  - dim 3 cell 5: braid relation fails at 0",
            "  - labeling not natural at face (0,-) of CellId(dim=2, index=6)",
            "  - labeling not natural at face (0,+) of CellId(dim=2, index=6)",
            "  - labeling not natural at face (1,-) of CellId(dim=2, index=6)",
            "  - labeling not natural at face (1,+) of CellId(dim=2, index=6)",
            "  - labeling not natural at transposition 0 of CellId(dim=2, index=6)",
            "  - labeling not natural at transposition 0 of CellId(dim=2, index=7)",
            "  - labeling not natural at face (0,+) of CellId(dim=3, index=0)",
            "  - labeling not natural at transposition 1 of CellId(dim=3, index=0)",
            "  - labeling not natural at transposition 1 of CellId(dim=3, index=1)",
            "  - labeling not natural at face (1,+) of CellId(dim=3, index=2)",
            "  - labeling not natural at transposition 1 of CellId(dim=3, index=2)",
            "  - labeling not natural at face (2,+) of CellId(dim=3, index=3)",
            "  - labeling not natural at transposition 1 of CellId(dim=3, index=3)",
        ],
    ),
    "transposition fixes a square": (
        [
            "SymmetricCubicalComplex: 3 violation(s)",
            "  - transposition (2,0) is not an involution at cell 1",
            "  - dim 2 cell 0: transposition 0 incompatible with faces of sign -",
            "  - dim 2 cell 0: transposition 0 incompatible with faces of sign +",
        ],
        [
            "hda: 4 violation(s)",
            "  - transposition (2,0) is not an involution at cell 1",
            "  - dim 2 cell 0: transposition 0 incompatible with faces of sign -",
            "  - dim 2 cell 0: transposition 0 incompatible with faces of sign +",
            "  - labeling not natural at transposition 0 of CellId(dim=2, index=0)",
        ],
    ),
    "transposition lands outside": (
        [
            "SymmetricCubicalComplex: 4 violation(s)",
            "  - transposition (2,0) of cell 1 lands outside cells(2)",
            "  - transposition (2,0) is not an involution at cell 4",
            "  - dim 3 cell 1: transposition 0 incompatible with faces of sign -",
            "  - dim 3 cell 2: transposition 1 incompatible with faces of sign -",
        ],
        [
            "hda: 5 violation(s)",
            "  - transposition (2,0) of cell 1 lands outside cells(2)",
            "  - transposition (2,0) is not an involution at cell 4",
            "  - dim 3 cell 1: transposition 0 incompatible with faces of sign -",
            "  - dim 3 cell 2: transposition 1 incompatible with faces of sign -",
            "  - labeling not natural at transposition 0 of CellId(dim=2, index=1)",
        ],
    ),
    "transposition undefined on a cell": (
        [
            "SymmetricCubicalComplex: 2 violation(s)",
            "  - transposition (2,0) undefined on cell 0",
            "  - transposition (2,0) is not an involution at cell 2",
        ],
        [
            "hda: 2 violation(s)",
            "  - transposition (2,0) undefined on cell 0",
            "  - transposition (2,0) is not an involution at cell 2",
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_validator_reports_verbatim(name):
    h = CASES[name]()
    complex_report, hda_report = GOLDEN[name]
    assert str(validate_complex(h.complex)).splitlines() == complex_report
    assert str(validate_hda(h)).splitlines() == hda_report


# ---------------------------------------------------------------------------
# The table checks against the per-cell walk
# ---------------------------------------------------------------------------

def generated(source, index, seed):
    """A small automaton: a generated event structure or net (at most four
    events, so up to dimension 4), or the free 3- or 4-event cube."""
    cfg = GeneratorConfig(seed=seed, max_events=4, max_places=3)
    if source == "es":
        return es_to_hda(gen_es(index, cfg))
    if source == "pn":
        try:
            return pn_to_hda(gen_pn(index, cfg), 30, 3, truncate_cells=True)
        except ExplosionLimit:
            assume(False)
    return es_to_hda(make_event_structure("abcd"[:3 + index % 2]))


def sparse(h, step=8):
    """``h`` with every cell index k listed as k * step + 1, so that a set
    of five or more indices no longer iterates in the order of cells(n),
    which the reports follow.  Columns and words go by position, so they
    stay as they are."""
    sk = h.skeleton
    cells = {n: tuple(k * step + 1 for k in range(len(ids))) for n, ids in sk.cells.items()}
    return Hda(SymmetricCubicalComplex(PrecubicalComplex(cells, sk.faces, sk.max_dim),
                                       h.complex.transpositions),
               h.alphabet, h.words, h.initial)


FAULTS = ["drop", "redirect", "non-involutive", "swap letters", "drop table", "extra index",
          "duplicate index", "same word"]


def corrupt(h, how, draw):
    """``h`` with one fault of kind ``how``: an entry dropped or redirected
    (to any other cell, one past them all, or a cell whose word is that of
    the cell it replaces), a transposition made non-involutive, two
    letters of a word swapped, a whole table dropped, or an index added to
    some cells(n), new or a copy of a listed cell, at a drawn position."""
    sk, swaps = h.skeleton, h.complex.transpositions
    tables = [("faces", key) for key, table in sorted(sk.faces.items()) if table] + \
        [("transpositions", key) for key, table in sorted(swaps.items()) if table]
    if how == "swap letters":
        cells = [(CellId(n, j), (p, q)) for n, column in enumerate(h.words)
                 for j, w in enumerate(column) if w is not None
                 for p in range(len(w)) for q in range(p + 1, len(w)) if w[p] != w[q]]
        assume(cells)
        cell, (p, q) = draw(st.sampled_from(cells))
        word = list(h.label(cell))
        word[p], word[q] = word[q], word[p]
        return edit(h, words=[(cell, tuple(word))])
    if how in ("extra index", "duplicate index"):
        n = draw(st.integers(0, h.max_dim))
        ids = sk.cells.get(n, ())
        at = draw(st.integers(0, len(ids)))
        if how == "extra index":
            idx = draw(st.sampled_from(sorted(set(range(max(ids, default=0) + 2)) - set(ids))))
            return insert_cell(h, n, at, idx)
        assume(ids)
        like = draw(st.integers(0, len(ids) - 1))
        return insert_cell(h, n, at, ids[like], like)
    if how == "non-involutive":
        tables = [entry for entry in tables if entry[0] == "transpositions"]
    assume(tables)
    kind, key = draw(st.sampled_from(tables))
    if how == "drop table":
        return edit(h, **{kind: [(key, None, DROP)]})
    table = (sk.faces if kind == "faces" else swaps)[key]
    entries = [j for j, v in enumerate(table) if v is not None]
    assume(entries)
    j = draw(st.sampled_from(entries))
    dim = key[0] - (kind == "faces")
    size = len(sk.cells.get(dim, ()))
    if how == "drop":
        value = DROP
    else:  # another cell of the table's codomain, or one past them all
        others = sorted(set(range(size)) - {table[j]})
        if how == "redirect":
            others.append(size)
        elif how == "same word":  # a fault that the words alone cannot see
            column = h.words[dim]
            others = [v for v in others
                      if table[j] in range(size) and column[v] == column[table[j]]]
        assume(others)
        value = draw(st.sampled_from(others))
    return edit(h, **{kind: [(key, j, value)]})


def walked(c):
    """The messages of the per-cell walk on every section and dimension of
    the complex ``c``."""
    report = ValidationReport("walk")
    for _, n, walk in walks(c):
        walk(c, n, report)
    return report.violations


def walked_labels(h):
    """The messages of the per-cell walk on the labels of ``h``."""
    report = ValidationReport("walk")
    for n in range(h.max_dim + 1):
        walk_labels(h, n, report)
    return report.violations


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(source=st.sampled_from(["es", "pn", "cube"]), index=st.integers(0, 30),
       seed=st.integers(0, 3), renumbered=st.booleans(),
       faults=st.lists(st.sampled_from(FAULTS), min_size=1, max_size=3),
       data=st.data())
def test_table_checks_report_what_the_walk_reports(source, index, seed, renumbered, faults, data):
    """Up to three faults at once, on the automaton as numbered or with
    sparse indices, where every section reports each cell once, in the
    order of cells(n); the bare skeleton is checked against the walk's
    faces and face identities.  A generated automaton is pointed and its
    alphabet idle-free, so ``validate_hda`` adds nothing between the
    complex's messages and the labels'."""
    h = generated(source, index, seed)
    if renumbered:
        h = sparse(h)
    assert validate_hda(h).ok
    broken = h
    for how in faults:
        broken = corrupt(broken, how, data.draw)
    complex_messages = walked(broken.complex)
    messages = complex_messages + walked_labels(broken)
    # a redirected entry may land where the identities still hold, and
    # later faults may undo earlier ones
    if {"drop", "drop table"} & set(faults) or faults in (["non-involutive"], ["swap letters"]):
        assert messages
    assert validate_complex(broken.skeleton).violations == walked(broken.skeleton)
    assert validate_complex(broken.complex).violations == complex_messages
    assert validate_hda(broken).violations == messages


def test_a_repeated_cell_reports_its_labels_as_often_as_it_is_listed():
    h = sparse(cube())
    cell, named = CellId(2, 3), CellId(2, h.skeleton.cells[2][3])
    swapped = edit(h, words=[(cell, h.label(cell)[::-1])])
    broken = insert_cell(swapped, 2, len(h.skeleton.cells[2]), named.index, like=3)
    messages = walked(broken.complex) + walked_labels(broken)
    assert validate_hda(broken).violations == messages
    once = [m for m in validate_hda(swapped).violations if m.endswith(f"of {named}")]
    assert once and [m for m in messages if m.endswith(f"of {named}")] == once + once


# ---------------------------------------------------------------------------
# Every single fault of small automata against the per-cell walk
# ---------------------------------------------------------------------------

SMALL = {
    "three free events": lambda: parse_document(
        (FIXTURES / "hda_three_free_events.json").read_text(encoding="utf-8"))[1],
    "causality and conflict": lambda: es_to_hda(make_event_structure("abcd", [("a", "b")], [("b", "c")])),
    "token pipeline": lambda: pn_to_hda(
        token_net(3, {"t0": {"p0": 1}, "t1": {"p1": 1}}, {"t0": {"p1": 1}, "t1": {"p2": 1}}), 100, 3),
    "generated net": lambda: pn_to_hda(gen_pn(16, GeneratorConfig(seed=0, max_events=4, max_places=3)),
                                       30, 3, truncate_cells=True),
}


def single_faults(h):
    """Every automaton one fault away from ``h``: each face and
    transposition entry redirected to every other cell of its codomain,
    each pair of distinct letters of a word swapped, and a cell with no
    entries and no word put at each position of every cells(n).  Then the fault no single
    entry makes: each transposition entry re-paired across twins, which
    at a dimension below the top breaks only the slides of the last faces
    one dimension up, or at the top only a braid."""
    sk = h.skeleton
    for kind, tables, shift in (("faces", sk.faces, 1), ("transpositions", h.complex.transpositions, 0)):
        for key, col in sorted(tables.items()):
            for j, value in enumerate(col):
                for other in range(len(sk.cells.get(key[0] - shift, ()))):
                    if other != value:
                        yield edit(h, **{kind: [(key, j, other)]})
    for n, column in enumerate(h.words):
        for j, word in enumerate(column):
            for p, q in itertools.combinations(range(len(word)), 2):
                if word[p] != word[q]:
                    swapped = list(word)
                    swapped[p], swapped[q] = word[q], word[p]
                    yield edit(h, words=[(CellId(n, j), tuple(swapped))])
    for n in range(h.max_dim + 1):
        fresh = max(sk.cells.get(n, ()), default=-1) + 1
        for at in range(len(sk.cells.get(n, ())) + 1):
            yield insert_cell(h, n, at, fresh)
    for key, col in sorted(h.complex.transpositions.items()):
        for x in range(len(col)):
            yield repaired(h, key, x)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_every_single_fault_reports_what_the_walk_reports(name):
    """``validate_hda`` checks a generating set of the identities first
    and everything only when one fails; each mutant's report must be the
    walk's, which checks every identity on every cell.  The token pipeline
    and the generated net repeat letters, and the net's one vertex carries
    loops, so faces of one cell coincide."""
    h = SMALL[name]()
    assert validate_hda(h).ok
    valid = faulty = 0
    for broken in single_faults(h):
        messages = walked(broken.complex) + walked_labels(broken)
        assert validate_hda(broken).violations == messages
        valid, faulty = valid + (not messages), faulty + bool(messages)
    assert faulty > 100  # and some redirections keep every identity


@pytest.mark.parametrize("value", [1.0, True])
def test_a_face_entry_that_is_no_int_lands_outside(value):
    """An in-memory entry equal to a cell's position but not an ``int``
    names no cell, as the walk reads it; a document cannot carry one."""
    broken = edit(square(), faces=[((2, 0, "-"), 0, value)])
    messages = walked(broken.complex) + walked_labels(broken)
    assert "face (2,0,-) of cell 0 lands outside cells(1)" in messages
    assert validate_hda(broken).violations == messages

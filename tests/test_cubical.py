import itertools

import pytest
from hypothesis import given, strategies as st

from hdabridge.cubical import (
    STAR,
    SIGNS,
    CellId,
    DegeneracyWitness,
    PrecubicalComplex,
    SymmetricCubicalComplex,
    as_witness,
    cell_face,
    cell_transpose,
    index_complex,
    nest_witness,
    truncate,
    validate_complex,
    validate_hda,
    word_degeneracy,
    word_is_linear,
)
from hdabridge import cubical, zoo
from hdabridge.cts import acr_to_cts, coskeleton_fill, es_to_cts, pn_to_cts
from hdabridge.errors import ArityMismatch, DimensionCapExceeded, ExplosionLimit, IndexOutOfRange
from hdabridge.functors import acr_to_hda2, es_to_hda, pn_to_hda
from hdabridge.jsonio import print_document
from hdabridge.laws import GeneratorConfig, gen_acr, gen_es, gen_pn
from hdabridge.models import make_event_structure
from hdabridge.util import sorted_by_key

from helpers import (
    cube_maps,
    fork_join_net,
    loops4,
    loops4_cts,
    oracle_degeneracy,
    oracle_face,
    pipeline_net,
    reference_faces,
    reference_transpositions,
)
from reference import (
    apply_permutation,
    cell_degeneracy,
    pad_skeleton,
    shell_fill,
    standard_cube,
    word_action,
    word_face,
    word_permute,
)


# ---------------------------------------------------------------------------
# bridging the term model and the witness representation
# ---------------------------------------------------------------------------

def cube_cell_key(cell_map):
    """The skeleton cell of standard_cube(d) a term-model map factors through."""
    return tuple(e[0] if e[0] in "-+" else None for e in cell_map)


def map_to_witness(cube, cell_map, keys_to_id):
    base = keys_to_id[cube_cell_key(cell_map)]
    used = sorted(e[1] for e in cell_map if e[0] == "v")
    n = max(used, default=-1) + 1 if used else 0
    return used, base


def witness_from_map(cell_map, n, keys_to_id):
    used = {e[1] for e in cell_map if e[0] == "v"}
    stars = tuple(p for p in range(n) if p not in used)
    base = keys_to_id[cube_cell_key(cell_map)]
    return DegeneracyWitness(base, stars)


def cube_with_ids(d):
    sk = standard_cube(d)
    # standard_cube numbers its keys in canonical order; rebuild the key
    # table the same way, sorting the keys before index_complex numbers them
    cells_by_dim = {n: [] for n in range(d + 1)}
    for signs in itertools.product(("-", "+", None), repeat=d):
        cells_by_dim[sum(1 for s in signs if s is None)].append(signs)
    cells_by_dim = {n: sorted_by_key(keys) for n, keys in cells_by_dim.items()}

    def face_key(n, key, i, sign):
        free = [pos for pos, s in enumerate(key) if s is None]
        out = list(key)
        out[free[i]] = sign
        return tuple(out)

    built, keys = index_complex(cells_by_dim, face_key)
    assert built == sk
    return sk, {v: k for k, v in keys.items()}


@pytest.mark.parametrize("d", [0, 1, 2])
def test_cell_face_matches_term_model(d):
    sk, key_to_id = cube_with_ids(d)
    for n in range(4):
        for cell_map in cube_maps(n, d):
            w = witness_from_map(cell_map, n, key_to_id)
            assert w.dim == n
            for i in range(n):
                for sign in SIGNS:
                    expected = oracle_face(cell_map, n, i, sign)
                    got = cell_face(sk, w, i, sign)
                    assert got == witness_from_map(expected, n - 1, key_to_id), (
                        d, n, cell_map, i, sign)


@pytest.mark.parametrize("d", [0, 1, 2])
def test_cell_degeneracy_matches_term_model(d):
    _, key_to_id = cube_with_ids(d)
    for n in range(3):
        for cell_map in cube_maps(n, d):
            w = witness_from_map(cell_map, n, key_to_id)
            for i in range(n + 1):
                expected = oracle_degeneracy(cell_map, n, i)
                assert cell_degeneracy(w, i) == witness_from_map(expected, n + 1, key_to_id)


def test_face_of_degeneracy_is_identity_on_matching_index():
    sk, key_to_id = cube_with_ids(1)
    edge = key_to_id[(None,)]
    for i in range(2):
        for sign in SIGNS:
            ii = cell_degeneracy(DegeneracyWitness(edge), i)
            assert cell_face(sk, ii, i, sign) == DegeneracyWitness(edge)


def test_degenerate_point_faces():
    sk, key_to_id = cube_with_ids(0)
    v = key_to_id[()]
    loop = cell_degeneracy(DegeneracyWitness(v), 0)
    for sign in SIGNS:
        assert cell_face(sk, loop, 0, sign) == DegeneracyWitness(v)


def test_face_index_out_of_range():
    sk, key_to_id = cube_with_ids(1)
    edge = DegeneracyWitness(key_to_id[(None,)])
    with pytest.raises(IndexOutOfRange):
        cell_face(sk, edge, 1, "-")
    with pytest.raises(IndexOutOfRange):
        cell_face(sk, edge, 0, "?")


# ---------------------------------------------------------------------------
# word actions: same relations as cell faces, exhaustively
# ---------------------------------------------------------------------------

WORDS = [w for k in range(5) for w in itertools.product("abc", repeat=k)]


def test_word_face_relations():
    for w in WORDS:
        n = len(w)
        for j in range(1, n):
            for i in range(j):
                assert word_face(word_face(w, j), i) == word_face(word_face(w, i), j - 1)


def test_word_degeneracy_relations():
    for w in WORDS:
        n = len(w)
        for j in range(n + 1):
            for i in range(j + 1):
                assert word_degeneracy(word_degeneracy(w, j), i) == \
                    word_degeneracy(word_degeneracy(w, i), j + 1)


def test_word_mixed_relations():
    for w in WORDS:
        n = len(w)
        for j in range(n + 1):
            for i in range(n + 1):
                got = word_face(word_degeneracy(w, j), i)
                if i == j:
                    assert got == w
                elif i < j:
                    assert got == word_degeneracy(word_face(w, i), j - 1)
                else:
                    assert got == word_degeneracy(word_face(w, i - 1), j)


def test_word_permutation_relations():
    for w in WORDS:
        n = len(w)
        for i in range(n - 1):
            swap = list(range(n))
            swap[i], swap[i + 1] = swap[i + 1], swap[i]
            swap = tuple(swap)
            assert word_permute(word_permute(w, swap), swap) == w
            # transposition exchanges the two adjacent faces
            assert word_face(word_permute(w, swap), i) == word_face(w, i + 1)
            assert word_face(word_permute(w, swap), i + 1) == word_face(w, i)
        for i in range(n - 2):
            a = list(range(n)); a[i], a[i + 1] = a[i + 1], a[i]
            b = list(range(n)); b[i + 1], b[i + 2] = b[i + 2], b[i + 1]
            lhs = word_permute(word_permute(word_permute(w, tuple(a)), tuple(b)), tuple(a))
            rhs = word_permute(word_permute(word_permute(w, tuple(b)), tuple(a)), tuple(b))
            assert lhs == rhs


def test_word_action_dispatch():
    assert word_action(("a", "b"), ("face", 0, "-")) == ("b",)
    assert word_action(("a", "b"), ("face", 0, "+")) == ("b",)
    assert word_action(("a", "b"), ("degeneracy", 1)) == ("a", STAR, "b")
    assert word_action(("a", "b"), ("permutation", (1, 0))) == ("b", "a")
    with pytest.raises(ArityMismatch):
        word_action(("a",), ("face", 1, "-"))
    with pytest.raises(ArityMismatch):
        word_action(("a", "b"), ("permutation", (0, 0)))


@given(st.lists(st.sampled_from("abc"), max_size=5), st.data())
def test_word_permute_composition(entries, data):
    w = tuple(entries)
    n = len(w)
    perm1 = tuple(data.draw(st.permutations(range(n))))
    perm2 = tuple(data.draw(st.permutations(range(n))))
    composed = tuple(perm1[perm2[k]] for k in range(n))
    assert word_permute(word_permute(w, perm1), perm2) == word_permute(w, composed)


def test_word_is_linear():
    assert word_is_linear(("a", "b"))
    assert not word_is_linear(("a", "a"))
    assert word_is_linear(("a", STAR, "b", STAR))


# ---------------------------------------------------------------------------
# complexes: validation, mutation, symmetric structure
# ---------------------------------------------------------------------------

def test_standard_square_is_valid():
    sk = standard_cube(2)
    assert [len(sk.cells[n]) for n in range(3)] == [4, 4, 1]
    assert validate_complex(sk).ok


def test_standard_3cube_is_valid():
    sk = standard_cube(3)
    assert [len(sk.cells[n]) for n in range(4)] == [8, 12, 6, 1]
    assert validate_complex(sk).ok


def test_rewired_square_reports_violation():
    sk = standard_cube(2)
    faces = {k: list(v) for k, v in sk.faces.items()}
    square = 0
    good = faces[(2, 0, "-")][square]
    other = next(i for i in range(len(sk.cells[1])) if i != good)
    faces[(2, 0, "-")][square] = other
    broken = PrecubicalComplex(cells=sk.cells, faces=faces, max_dim=2)
    report = validate_complex(broken)
    assert not report.ok
    assert any("face(" in v for v in report.violations)


def symmetric_square():
    """Two 2-cells swapped by the transposition, over the square skeleton
    completed so both orientations have matching faces."""
    cells = {0: ["x", "p", "q", "r"], 1: [("x", "a"), ("x", "b"), ("p", "b"), ("q", "a")],
             2: [("x", "a", "b"), ("x", "b", "a")]}
    ends = {("x", "a"): ("x", "p"), ("x", "b"): ("x", "q"),
            ("p", "b"): ("p", "r"), ("q", "a"): ("q", "r")}

    def face_key(n, key, i, sign):
        if n == 1:
            return ends[key][0 if sign == "-" else 1]
        s, e1, e2 = key
        # removing position 0 leaves the e2-labeled edge, position 1 the e1 edge
        if i == 0:
            return (s, e2) if sign == "-" else (ends[(s, e1)][1], e2)
        return (s, e1) if sign == "-" else (ends[(s, e2)][1], e1)

    def transpose_key(n, key, i):
        s, e1, e2 = key
        return (s, e2, e1)

    built, keys = index_complex(cells, face_key, transpose_key)
    return built, {v: k for k, v in keys.items()}


def test_symmetric_square_valid():
    sym, _ = symmetric_square()
    assert validate_complex(sym).ok


@pytest.mark.parametrize("make", [lambda: es_to_hda(make_event_structure("abcdef"), 6),
                                  lambda: pn_to_hda(pipeline_net(), 100, 6)],
                         ids=["six free events", "six-token pipeline"])
def test_a_valid_automaton_composes_only_its_generating_set(monkeypatch, make):
    """Both automata have cells up to dimension 6, so ``validate_hda`` of
    either composes columns through ``_column`` 202 times: at each
    dimension n >= 2, 8 for the top face pair, n-1 for the involutions,
    2(3(n-2)+1) for the slides, 3(n-2) for the braids and (n-2)(n-3) for
    the distant commutations; at each n >= 1, 2 for the last faces' labels
    and n-1 for the transpositions'.  Checking every identity made 575
    calls (and read the labels of 57 more compositions by ``dict.get``)."""
    h, calls = make(), []
    column = cubical._column
    monkeypatch.setattr(cubical, "_column", lambda *args, **kw: calls.append(1) or column(*args, **kw))
    assert validate_hda(h).ok
    assert len(calls) == 202


def test_symmetric_violations_detected():
    sym, _ = symmetric_square()
    bad = {k: list(v) for k, v in sym.transpositions.items()}
    table = bad[(2, 0)]
    table[0] = 0  # no longer swaps with its mirror cell
    broken = SymmetricCubicalComplex(sym.skeleton, bad)
    assert not validate_complex(broken).ok


def test_cell_transpose_on_witnesses():
    sym, key_to_id = symmetric_square()
    ab = key_to_id[("x", "a", "b")]
    ba = key_to_id[("x", "b", "a")]
    assert cell_transpose(sym, ab, 0) == DegeneracyWitness(ba)
    edge = key_to_id[("x", "a")]
    # a degenerate square over an edge: swapping a star past the edge letter
    w = cell_degeneracy(DegeneracyWitness(edge), 0)
    assert cell_transpose(sym, w, 0) == cell_degeneracy(DegeneracyWitness(edge), 1)
    # doubly degenerate: both positions collapsed, swap is the identity
    v = key_to_id["x"]
    ww = cell_degeneracy(cell_degeneracy(DegeneracyWitness(v), 0), 0)
    assert cell_transpose(sym, ww, 0) == ww


def test_apply_permutation_three_cycle():
    """Check the decomposition against the word semantics on a 3-cube."""
    cells = {0: ["o"], 1: [("e",)]}
    # free symmetric 3-torus-ish: use a single vertex with three loops is
    # overkill; instead act on a degenerate witness where order shows up.
    sym, key_to_id = symmetric_square()
    ab = key_to_id[("x", "a", "b")]
    # lift the square to dimension 3 by one degeneracy, then rotate
    w = cell_degeneracy(DegeneracyWitness(ab), 1)  # word (a, *, b)
    rotated = apply_permutation(sym, w, (1, 2, 0))  # word reads (*, b, a)
    ba = key_to_id[("x", "b", "a")]
    assert rotated == DegeneracyWitness(CellId(2, ba.index), (0,)) or rotated == cell_degeneracy(DegeneracyWitness(ba), 0)


def test_nest_witness_matches_word_insertion():
    base = CellId(1, 0)
    inner = DegeneracyWitness(base, (1,))          # word (e, *) at positions 0,1
    nested = nest_witness((0, 2), inner)           # collapse final positions 0 and 2
    # final word: * at 0, then inner word spread over positions 1,3 -> star from
    # inner lands at 3
    assert nested == DegeneracyWitness(base, (0, 2, 3))


# ---------------------------------------------------------------------------
# truncation, padding, and the 2-coskeletal fill
# ---------------------------------------------------------------------------

def test_pad_then_truncate_is_identity():
    sk = standard_cube(1)
    padded = pad_skeleton(sk, 3)
    assert len(padded.cells[2]) == len(padded.cells[3]) == 0
    assert validate_complex(padded).ok


def cell_counts(h):
    return [len(h.cells(n)) for n in range(h.max_dim + 1)]


def free_cube():
    return es_to_hda(make_event_structure("abc"))


def test_coskeleton_leaves_an_empty_square_empty():
    # the fill reads squares and never makes one: the four edges of two
    # mutually exclusive events stay a hollow square
    hollow = acr_to_hda2(zoo.mutex_square_acr(False))
    filled = coskeleton_fill(hollow, 2)
    assert cell_counts(filled) == [4, 4, 0]
    assert validate_hda(filled).ok
    assert print_document("hda", filled) == print_document("hda", hollow)


def test_coskeleton_idempotent_on_solid_square():
    h = acr_to_hda2(zoo.mutex_square_acr(True))
    filled = coskeleton_fill(h, 2)
    assert print_document("hda", filled) == print_document("hda", h)
    assert coskeleton_fill(filled, 2) == filled


def test_coskeleton_fills_3cube_boundary():
    cube = free_cube()
    filled = coskeleton_fill(truncate(cube, 2), 3)
    assert cell_counts(filled) == [8, 12, 12, 6]
    assert validate_hda(filled).ok
    assert print_document("hda", filled) == print_document("hda", cube)


def test_has_cell_reads_the_listed_indices():
    sk = PrecubicalComplex(cells={0: (0, 4, 7), 1: ()}, faces={}, max_dim=1)
    assert [sk.has_cell(CellId(0, i)) for i in range(-1, 8)] == \
        [False, True, True, True, False, False, False, False, False]
    assert not sk.has_cell(CellId(1, 0))
    assert not sk.has_cell(CellId(2, 0))
    assert [sk.index_of(0, v) for v in (0, 1, 2, 3, -1)] == [0, 4, 7, 3, -1]


def test_coskeleton_requires_sane_bounds():
    cube = free_cube()
    with pytest.raises(DimensionCapExceeded):
        coskeleton_fill(cube, -1)
    # below the first filled dimension the fill is the truncation
    for d in range(3):
        assert print_document("hda", coskeleton_fill(cube, d)) == \
            print_document("hda", truncate(cube, d))


def test_operation_sequences_stay_valid():
    # any mix of truncating (which pads above the top dimension) and
    # filling keeps every identity intact
    square = acr_to_hda2(zoo.mutex_square_acr(True))
    two = truncate(free_cube(), 2)
    assert validate_hda(coskeleton_fill(truncate(square, 3), 3)).ok
    assert validate_hda(truncate(coskeleton_fill(square, 2), 4)).ok
    again = coskeleton_fill(truncate(coskeleton_fill(two, 3), 2), 3)
    assert validate_hda(again).ok
    assert cell_counts(again) == [8, 12, 12, 6]
    assert cell_counts(coskeleton_fill(truncate(two, 1), 3)) == [8, 12, 0, 0]


def test_truncate_hda_examples():
    from hdabridge.functors import acr_to_hda2, es_to_hda
    from hdabridge.cubical import truncate, validate_hda
    from hdabridge import cubical, zoo
    from hdabridge.models import make_event_structure

    h = acr_to_hda2(zoo.mutex_square_acr(True))
    boundary = truncate(h, 1)
    assert boundary.cells(1) == h.cells(1)
    assert len(boundary.cells(2)) == 0
    assert validate_hda(boundary).ok
    assert truncate(h, h.max_dim) == h

    cube = es_to_hda(make_event_structure("abc"))
    two = truncate(cube, 2)
    assert [len(two.cells(n)) for n in range(3)] == [8, 12, 12]
    assert validate_hda(two).ok
    # the word and state columns are shared, and the cell keys derived from them
    assert all(a is b for a, b in zip(two.words, cube.words)) and two.states is cube.states
    assert two.cell_keys == {c: k for c, k in cube.cell_keys.items() if c.dim <= 2}
    assert validate_hda(truncate(two, 4)).ok and len(truncate(two, 4).words) == 5


@given(st.data())
def test_random_operation_sequences_match_term_model(data):
    """Random face/degeneracy composites on the free cubical set over a
    square agree with the term model throughout."""
    d = data.draw(st.integers(min_value=0, max_value=2))
    sk, key_to_id = cube_with_ids(d)
    n = data.draw(st.integers(min_value=0, max_value=3))
    cell_map = data.draw(st.sampled_from(cube_maps(n, d)))
    w = witness_from_map(cell_map, n, key_to_id)
    for _ in range(data.draw(st.integers(min_value=0, max_value=5))):
        if n > 0 and data.draw(st.booleans()):
            i = data.draw(st.integers(min_value=0, max_value=n - 1))
            sign = data.draw(st.sampled_from(SIGNS))
            cell_map = oracle_face(cell_map, n, i, sign)
            w = cell_face(sk, w, i, sign)
            n -= 1
        else:
            i = data.draw(st.integers(min_value=0, max_value=n))
            cell_map = oracle_degeneracy(cell_map, n, i)
            w = cell_degeneracy(w, i)
            n += 1
        assert w == witness_from_map(cell_map, n, key_to_id)


def test_symmetric_coskeleton_fill_links_orientations():
    # the six orderings of the filled cube are one orbit of the transpositions
    filled = coskeleton_fill(truncate(free_cube(), 2), 3)
    orbit, todo = set(), [filled.cells(3)[0]]
    while todo:
        cell = todo.pop()
        if cell not in orbit:
            orbit.add(cell)
            todo += [filled.complex.transpose(cell, i) for i in range(2)]
    assert orbit == set(filled.cells(3))
    assert sorted(filled.label(c) for c in orbit) == sorted(itertools.permutations("abc"))
    assert validate_hda(filled).ok


def test_symmetric_cube_fill_adds_all_orderings():
    cube = acr_to_hda2(zoo.full_cube_acr())
    filled = coskeleton_fill(cube, 3)
    assert len(filled.cells(3)) == 6  # one top cell per ordering
    assert {filled.label(c) for c in filled.cells(3)} == set(itertools.permutations("abc"))
    assert validate_hda(filled).ok
    assert print_document("hda", truncate(filled, 2)) == print_document("hda", cube)


@pytest.mark.parametrize("h", [
    free_cube(),
    es_to_hda(make_event_structure("abcd"), max_dim=3, truncate_cells=True),
    acr_to_hda2(zoo.full_cube_acr()),
], ids=["free3", "free4", "full-cube-acr"])
def test_coskeleton_fill_counts_match_the_shell_search(h):
    # no word repeats a letter here, so the two definitions agree
    two = truncate(h, 2)
    shells = shell_fill(two.complex, 2, 3)
    assert [len(shells.skeleton.cells[n]) for n in range(4)] == cell_counts(coskeleton_fill(two, 3))


# ---------------------------------------------------------------------------
# index_complex numbers keys in the order given
# ---------------------------------------------------------------------------

PATH_CELLS = {0: ["x", "y", "z"], 1: [("x", "y"), ("y", "z")]}


def path_face(n, key, i, sign):
    return key[0] if sign == "-" else key[1]


def test_index_complex_numbers_keys_in_the_order_given():
    _, forward = index_complex(PATH_CELLS, path_face)
    backward_sk, backward = index_complex({n: ks[::-1] for n, ks in PATH_CELLS.items()},
                                          path_face)
    assert list(forward) == list(backward) == [CellId(0, 0), CellId(0, 1), CellId(0, 2),
                                               CellId(1, 0), CellId(1, 1)]
    for n, ks in PATH_CELLS.items():
        assert [forward[CellId(n, i)] for i in range(len(ks))] == ks
        assert [backward[CellId(n, i)] for i in range(len(ks))] == ks[::-1]
    # faces still act on the keys
    for (n, i, sign), table in backward_sk.faces.items():
        for idx, low in enumerate(table):
            assert backward[CellId(n - 1, low)] == path_face(n, backward[CellId(n, idx)], i, sign)


def test_index_complex_names_the_first_key_whose_face_is_missing():
    cells = {0: ["x", "y"], 1: [("x", "y"), ("y", "w"), ("x", "v")]}
    with pytest.raises(KeyError, match=r"face of \('y', 'w'\) at \(0,\+\) is not a cell: 'w'"):
        index_complex(cells, path_face)


# ---------------------------------------------------------------------------
# faces below the last, composed through the transpositions, are the faces
# that face_key gives key by key
# ---------------------------------------------------------------------------

def assert_cts_tables_by_key(c, h):
    """The automaton of the CTS ``c`` has the face and transposition tables
    that act on its own cell keys (state, word): a face drops a letter,
    firing it for the positive sign, and a transposition swaps two."""
    cells_by_dim = {n: [h.cell_keys[cell] for cell in h.cells(n)] for n in range(h.max_dim + 1)}

    def face_key(n, key, i, sign):
        x, w = key
        return (x if sign == "-" else c.delta[x, w[i]], w[:i] + w[i + 1:])

    def transpose_key(n, key, i):
        x, w = key
        return (x, w[:i] + (w[i + 1], w[i]) + w[i + 2:])

    faces = reference_faces(cells_by_dim, face_key)
    assert h.skeleton.faces == faces
    assert list(h.skeleton.faces) == list(faces)  # filed in the same order
    transpositions = reference_transpositions(cells_by_dim, transpose_key)
    assert h.complex.transpositions == transpositions
    assert list(h.complex.transpositions) == list(transpositions)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_composed_faces_are_the_faces_by_key_on_generated_models(seed):
    cfg = GeneratorConfig(seed=seed, max_events=5)
    for index in range(20):
        es = gen_es(index, cfg)
        assert_cts_tables_by_key(es_to_cts(es), es_to_hda(es))
        a = gen_acr(index, cfg)
        assert_cts_tables_by_key(acr_to_cts(a), acr_to_hda2(a))
        try:
            h = pn_to_hda(gen_pn(index, cfg), 60, 4, truncate_cells=True)
        except ExplosionLimit:
            continue
        assert_cts_tables_by_key(pn_to_cts(gen_pn(index, cfg), 60), h)


def test_composed_faces_are_the_faces_by_key_with_repeated_events():
    pipeline, fork_join = pipeline_net(), fork_join_net()
    h = pn_to_hda(pipeline, 100, 6)
    assert [len(h.cells(n)) for n in range(7)] == [28, 42, 60, 80, 96, 96, 64]
    assert_cts_tables_by_key(pn_to_cts(pipeline, 100), h)
    assert_cts_tables_by_key(pn_to_cts(fork_join, 100), pn_to_hda(fork_join, 100, 4, truncate_cells=True))
    assert_cts_tables_by_key(loops4_cts(), loops4())


def loop_face(n, key, i, sign):
    """Every event loops at "x": a cell (x, e1, ..) drops its letter i."""
    return "x" if n == 1 else key[:i + 1] + key[i + 2:]


def loop_transpose(n, key, i):
    return key[:i + 1] + (key[i + 2], key[i + 1]) + key[i + 3:]


@pytest.mark.parametrize("cells, message", [
    ({0: ["x"], 1: [("x", "a"), ("x", "b")], 2: [("x", "a", "b")]},
     r"transposition of \('x', 'a', 'b'\) at 0 is not a cell: \('x', 'b', 'a'\)"),
    ({0: ["x"], 1: [("x", "a")], 2: [("x", "a", "c"), ("x", "c", "a")]},
     r"face of \('x', 'c', 'a'\) at \(1,-\) is not a cell: \('x', 'c'\)"),
])
def test_index_complex_names_the_first_key_whose_symmetric_image_is_missing(cells, message):
    with pytest.raises(KeyError, match=message):
        index_complex(cells, loop_face, loop_transpose)


# sha256 of repr(standard_cube(d)), recorded while index_complex still
# sorted every dimension itself: standard_cube sorts its keys instead
STANDARD_CUBES = {
    0: "6fd6b45dd3499b81fc39e2118d77190916543b9b01b0a7544142a4602ee1a79b",
    1: "33b2fe55415fbde0fc88d0688d880a804bd5e32acfb0bfefeb0ae9a4dc4cd32a",
    2: "f8f62cddc51250d0eb4884414e54623b4bd40e2fb192e821b2878f295ae8a33e",
    3: "420803c4e7e69c616ea7988a6da188a397f3a69193c55dcb55b1072813359e93",
}


@pytest.mark.parametrize("d", sorted(STANDARD_CUBES))
def test_standard_cube_numbering_is_unchanged(d):
    import hashlib

    sk = standard_cube(d)
    # the complex as it was stored then: index tuples and tables by index
    then = PrecubicalComplex(cells={n: tuple(ids) for n, ids in sk.cells.items()},
                             faces={key: dict(enumerate(col)) for key, col in sk.faces.items()},
                             max_dim=sk.max_dim)
    assert hashlib.sha256(repr(then).encode()).hexdigest() == STANDARD_CUBES[d]


def test_standard_cube_edge_is_numbered_in_canonical_order():
    # keys (None,), ("+",), ("-",) in canonical order: the free edge, then its
    # positive and negative ends
    assert standard_cube(1) == PrecubicalComplex(
        cells={0: range(2), 1: range(1)}, faces={(1, 0, "-"): [1], (1, 0, "+"): [0]}, max_dim=1)

"""Reference encodings: rules the package runs in a faster form, or no
longer runs, kept as the tests' oracles.

Event structures and cubical transition systems: ``es_enabled`` and
``configurations`` walk configurations as frozensets; ``es_cts_enabled``
is the multiset enabling test of ``es_to_cts`` read pair by pair;
``hda_to_es`` recovers an event structure from the runs of an automaton
with sets of fired events.  ``validate_cts`` checks the axioms of a
cubical transition system on every small multiset, and
``cts_to_hda_by_keys`` builds its automaton from sorted keys through
``index_complex``.

Transition systems and ACRs: ``automaton_by_keys`` builds their automata
from sorted keys through ``index_complex``, as the package did before it
built TS edges directly and ACRs through their CTS.

Cubical sets: the solid ``standard_cube``, the shell search
``shell_fill`` that filled higher cells before ``coskeleton_fill``, the
actions of faces, degeneracies and permutations on cells and words, and
the per-cell walks: the reports of ``validate_complex`` and
``validate_hda``, which check a table at a time, must equal theirs
message for message.

Nets and regions: firing a word on ``Marking``s (``fire``, with
``marking_plus``, ``marking_minus``, ``covers`` and ``deficient_place``;
a word that is not enabled raises ``NotEnabled``), a region built from
its flow and token tables (``region_of``) and read through them (``flow``,
``tokens_at``), a net's document as the dict that ``json.dumps`` printed
(``pnet_document``), the region rule on every cell (``region_check``),
the pullback of regions along an automaton morphism by ``Region``
objects (``place_map``), one dispatch over
the morphism validators (``validate_morphism``), and the net searches by
brute force: every event map times every place map, filtered by
``validate_pn_morphism`` (``pn_morphisms``), and every place bijection
(``pn_isomorphisms``).

Automaton isomorphisms: ``iso_by_cells`` assigns every cell by a
breadth-first walk over faces and cofaces, checking each face relation
at the later of its two cells and the transpositions at the end.
``check_strong_labeling``, which no translation needs, tells whether two
cells of one dimension share all their faces and their label.
"""

from __future__ import annotations

import itertools

from hdabridge.cts import Cts, Multiset, multiset
from hdabridge.cubical import (
    SIGNS,
    STAR,
    Cell,
    CellId,
    Complex,
    DegeneracyWitness,
    Hda,
    LabelWord,
    PrecubicalComplex,
    SymmetricCubicalComplex,
    as_witness,
    cell_transpose,
    check_linear_labeling,
    index_complex,
    skeleton_of,
    word_degeneracy,
)
from hdabridge.errors import (
    ArityMismatch,
    DimensionCapExceeded,
    CapExceeded,
    HdaBridgeError,
    IndexOutOfRange,
    NotLinear,
    NotPartialOrder,
    SizeLimit,
)
from hdabridge.functors import Region
from hdabridge.models import (
    EventStructure,
    Marking,
    PetriNet,
    PnMorphism,
    validate_acr_morphism,
    validate_es,
    validate_es_morphism,
    validate_pn_morphism,
    validate_ts_morphism,
)
from hdabridge.util import ValidationReport, backtrack, breadth_first, canon_key, sorted_by_key


# ---------------------------------------------------------------------------
# Event structures and cubical transition systems
# ---------------------------------------------------------------------------

def es_enabled(es: EventStructure, config: frozenset, e) -> bool:
    """Event e can extend the configuration."""
    return e not in config and es.causes.get(e, set()) <= config and \
        all((e, x) not in es.conflict for x in config)


def configurations(es: EventStructure) -> frozenset:
    """All downward-closed conflict-free subsets, as frozensets."""
    def extensions(config):
        return [(e, config | {e}) for e in es.events if es_enabled(es, config, e)]

    return frozenset(x for _, _, x, new in breadth_first([frozenset()], extensions) if new)


def es_cts_enabled(es: EventStructure):
    """The enabling predicate of ``es_to_cts``: a multiset is enabled at a
    configuration when it repeats no event, each event is enabled alone
    there, and no event conflicts with a later one in the multiset."""
    configs = configurations(es)
    delta = {(x, e): y for x in configs for e in es.events - x if (y := x | {e}) in configs}

    def enabled(x, m) -> bool:
        if x not in configs:
            return False
        if len(set(m)) != len(m):
            return False
        for e in m:
            if (x, e) not in delta:
                return False
        for a, b in itertools.combinations(m, 2):
            if (a, b) in es.conflict:
                return False
        return True

    return enabled


def hda_to_es(h) -> EventStructure:
    """Causality and conflict from the runs of the automaton, each run's
    fired events kept as a frozenset."""
    if not check_linear_labeling(h):
        raise NotLinear("some cell label repeats an event")
    events = set(h.alphabet)

    src, tgt = (h.skeleton.faces.get((1, 0, sign), {}) for sign in ("-", "+"))
    edges_at = {}
    for edge in h.cells(1):
        (label,) = h.label(edge)
        if label != STAR:
            edges_at.setdefault(src[edge.index], []).append((label, tgt[edge.index]))

    def runs_on(state):
        vertex, used = state
        return [(label, (tgt, used | {label}))
                for label, tgt in edges_at.get(vertex, ()) if label not in used]

    co_occur = set()
    order_break = set()  # (e, e2): some run fires e2 with no earlier e
    for state, label, (_, used), new in breadth_first([(h.initial.index, frozenset())], runs_on):
        if new:
            co_occur |= {(a, b) for a in used for b in used}
        if state is not None:
            order_break |= {(e, label) for e in events - used}

    leq = {(e, e2) for e in events for e2 in events if e == e2 or (e, e2) not in order_break}
    for e, e2 in itertools.combinations(sorted_by_key(events), 2):
        if (e, e2) in leq and (e2, e) in leq:
            raise NotPartialOrder(f"{e!r} and {e2!r} each precede the other")
    conflict = {(e, e2) for e in events for e2 in events if e != e2 and (e, e2) not in co_occur}
    es = EventStructure(events=frozenset(events), leq=frozenset(leq),
                        conflict=frozenset(conflict))
    report = validate_es(es)
    if not report.ok:
        raise NotPartialOrder(str(report))
    return es


def sub_multisets(m: Multiset):
    seen = set()
    for k in range(len(m) + 1):
        for combo in itertools.combinations(m, k):
            ms = multiset(combo)
            if ms not in seen:
                seen.add(ms)
                yield ms


def multiset_minus(m: Multiset, part: Multiset) -> Multiset:
    out = list(m)
    for e in part:
        out.remove(e)
    return multiset(out)


def successor(c: Cts, state, m: Multiset):
    """Fire the multiset in canonical order; None when a step is missing."""
    current = state
    for e in m:
        current = c.delta.get((current, e))
        if current is None:
            return None
    return current


def validate_cts(c: Cts, max_word: int) -> ValidationReport:
    """Check the axioms on every multiset of size at most ``max_word``."""
    report = ValidationReport("cubical transition system")
    if c.initial not in c.states:
        report.add(f"initial state {c.initial!r} not a state")
    for (s, e), s2 in c.delta.items():
        if s not in c.states or s2 not in c.states or e not in c.events:
            report.add(f"step {(s, e)!r} -> {s2!r} out of range")

    states = sorted_by_key(c.states)
    events = sorted_by_key(c.events)
    for x in states:
        if not c.enabled(x, ()):
            report.add(f"empty word not enabled at {x!r}")
    for size in range(1, max_word + 1):
        for combo in itertools.combinations_with_replacement(events, size):
            m = multiset(combo)
            for x in states:
                if not c.enabled(x, m):
                    continue
                # all orderings must walk through delta to the same state
                targets = set()
                for order in set(itertools.permutations(m)):
                    current = x
                    for e in order:
                        current = c.delta.get((current, e))
                        if current is None:
                            report.add(f"enabled {m!r} at {x!r} but no step {e!r} along {order!r}")
                            break
                    else:
                        targets.add(current)
                if len(targets) > 1:
                    report.add(f"firing order of {m!r} at {x!r} is ambiguous: {targets!r}")
                for part in sub_multisets(m):
                    if not c.enabled(x, part):
                        report.add(f"{m!r} enabled at {x!r} but sub-multiset {part!r} is not")
                        continue
                    mid = successor(c, x, part)
                    rest = multiset_minus(m, part)
                    if mid is None:
                        continue
                    if not c.enabled(mid, rest):
                        report.add(f"{m!r} enabled at {x!r} but {rest!r} not enabled after {part!r}")
                    elif successor(c, mid, rest) != successor(c, x, m):
                        report.add(f"decomposition of {m!r} at {x!r} through {part!r} disagrees")
    return report


def cts_to_hda_by_keys(c: Cts, max_dim: int, truncate_cells: bool = False) -> Hda:
    """``cts_to_hda`` built from keys: every enabled multiset of each size,
    at every state, expanded into its distinct orderings and sorted as
    rank keys ``(state rank, event-rank word)``, then numbered by
    ``index_complex`` with faces and transpositions that act on the
    keys."""
    states, events = c.ranked

    def orbits(n):
        return [(s, ranks) for s, x in enumerate(states)
                for ranks in itertools.combinations_with_replacement(range(len(events)), n)
                if c.enabled(x, tuple(events[r] for r in ranks))]

    if max_dim < 0 or (not truncate_cells and orbits(max_dim + 1)):
        raise DimensionCapExceeded(f"enabled words longer than {max_dim} exist")
    cells_by_dim = {n: sorted((s, w) for s, ranks in orbits(n) for w in set(itertools.permutations(ranks)))
                    for n in range(max_dim + 1)}
    state_rank = {x: s for s, x in enumerate(states)}
    event_rank = {e: r for r, e in enumerate(events)}
    step = {(state_rank[x], event_rank[e]): state_rank[y] for (x, e), y in c.delta.items()}

    def face_key(n, key, i, sign):
        x, w = key
        return (x if sign == "-" else step[x, w[i]], w[:i] + w[i + 1:])

    def transpose_key(n, key, i):
        x, w = key
        return (x, w[:i] + (w[i + 1], w[i]) + w[i + 2:])

    complex_, _ = index_complex(cells_by_dim, face_key, transpose_key)
    return Hda(
        complex=complex_,
        alphabet=tuple(events),
        words=[[tuple(events[r] for r in w) for _, w in keys_n] for keys_n in cells_by_dim.values()],
        initial=CellId(0, state_rank[c.initial]),
        states=[states[s] for s, _ in cells_by_dim[0]],
    )


# ---------------------------------------------------------------------------
# Transition systems and ACRs
# ---------------------------------------------------------------------------

def automaton_by_keys(states, initial, alphabet, edges, squares=None) -> Hda:
    """The automaton with the states as vertices, an edge ``(s, e, s2)``
    labeled ``e`` and, for an ACR, a square ``(s, x, y)`` labeled ``(x, y)``
    glued on the closing edges (2-dimensional even with no squares), each
    dimension's keys sorted and numbered by ``index_complex``.  The words
    and the vertices' states are read off the keys."""
    cells_by_dim = {0: sorted_by_key(states), 1: sorted_by_key(edges)}
    if squares is not None:
        cells_by_dim[2] = sorted_by_key(squares)
        step = {(s, e): s2 for s, e, s2 in edges}

    def face_key(n, key, i, sign):
        if n == 1:
            return key[0] if sign == "-" else key[2]
        # dropping letter i keeps the other; the + side starts at the step by the dropped one
        s, *word = key
        start = s if sign == "-" else step[s, word[i]]
        return (start, word[1 - i], step[start, word[1 - i]])

    complex_, _ = index_complex(cells_by_dim, face_key, lambda n, k, i: (k[0], k[2], k[1]))
    return Hda(
        complex=complex_,
        alphabet=tuple(sorted_by_key(alphabet)),
        words=[[k[1:n + 1] if n else () for k in keys_n] for n, keys_n in cells_by_dim.items()],
        initial=CellId(0, cells_by_dim[0].index(initial)),
        states=cells_by_dim[0],
    )


# ---------------------------------------------------------------------------
# Cubical sets
# ---------------------------------------------------------------------------

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


def pad_skeleton(c: Complex, max_dim: int) -> Complex:
    """View a truncated complex as unbounded up to ``max_dim``: same cells,
    empty cell sets above the old top dimension."""
    sk = skeleton_of(c)
    if max_dim < sk.max_dim:
        raise IndexOutOfRange(f"cannot pad down from {sk.max_dim} to {max_dim}")
    cells = {n: sk.cells.get(n, range(0)) for n in range(max_dim + 1)}
    padded = PrecubicalComplex(cells=cells, faces=dict(sk.faces), max_dim=max_dim)
    if isinstance(c, PrecubicalComplex):
        return padded
    return SymmetricCubicalComplex(padded, dict(c.transpositions))


def shell_fill(c: SymmetricCubicalComplex, from_dim: int, max_dim: int) -> SymmetricCubicalComplex:
    """The shell search that ``coskeleton_fill`` replaced, for symmetric
    complexes.  For ``from_dim < k <= max_dim`` every k-shell (2k cells
    of dimension k-1 satisfying the face-commutation grid) that is not yet
    filled gets one k-cell, unless it is folded (two directions carry the
    same pair of faces).  A new cell's transposition is the cell of the
    permuted shell.  Fills one cube per ordering where no word repeats a
    letter; where one does, the fold test can skip a shell but keep its
    transposed shell, and the lookup raises KeyError."""
    sk = c.skeleton
    cells = {n: range(len(sk.cells.get(n, ()))) for n in range(max(sk.max_dim, max_dim) + 1)}
    faces = {key: list(col) for key, col in sk.faces.items()}
    transpositions = {key: list(col) for key, col in c.transpositions.items()}
    for k in range(from_dim + 1, max_dim + 1):
        slots = [(i, sign) for i in range(k) for sign in SIGNS]

        def options(pos, partial):
            # face(j, b) of this slot's cell == face(i - 1, a) of an earlier slot's, j < i
            i, a = slots[pos]
            return [cand for cand in cells[k - 1]
                    if all(j == i or faces[k - 1, j, b][cand] == faces[k - 1, i - 1, a][other]
                           for (j, b), other in zip(slots, partial))]

        shell_cell = {}
        for idx in cells[k]:
            shell_cell.setdefault(tuple(faces[k, i, sign][idx] for i, sign in slots), idx)
        fresh = [sig for sig in sorted(set(backtrack(slots, options))) if sig not in shell_cell
                 and not any(sig[2 * i:2 * i + 2] == sig[2 * j:2 * j + 2]  # folded
                             for i, j in itertools.combinations(range(k), 2))]
        added = list(zip(fresh, itertools.count(len(cells[k]))))  # new cells go last
        shell_cell.update(added)
        cells[k] = range(len(cells[k]) + len(added))
        for pos, (i, sign) in enumerate(slots):
            faces.setdefault((k, i, sign), []).extend(sig[pos] for sig, _ in added)
        for i in range(k - 1):
            table = transpositions.setdefault((k, i), [])
            for sig, idx in added:
                moved = {}
                for (j, sign), val in zip(slots, sig):
                    if j in (i, i + 1):  # directions i and i+1 swap
                        moved[2 * i + 1 - j, sign] = val
                    else:  # a distant face is transposed one dimension down
                        moved[j, sign] = transpositions[k - 1, i - 1 if j < i else i][val]
                table.append(shell_cell[tuple(map(moved.__getitem__, slots))])
    return SymmetricCubicalComplex(
        PrecubicalComplex(cells=cells, faces=faces, max_dim=max(sk.max_dim, max_dim)), transpositions)


def cell_degeneracy(cell: Cell, i: int) -> DegeneracyWitness:
    """Insert a collapsed direction at position ``i`` of the final word."""
    w = as_witness(cell)
    n = w.dim
    if not 0 <= i <= n:
        raise IndexOutOfRange(f"degeneracy index {i} out of range for dimension {n}")
    stars = tuple(sorted([p if p < i else p + 1 for p in w.stars] + [i]))
    return DegeneracyWitness(w.base, stars)


def apply_permutation(c: Complex, cell: Cell, perm: tuple[int, ...]) -> DegeneracyWitness:
    """Act by a permutation, decomposed into adjacent transpositions.

    ``perm`` describes the action on coordinate words: position ``k`` of the
    result reads position ``perm[k]`` of the argument.  Well-definedness of
    the decomposition rests on the involution and braid identities, which
    ``validate_complex`` checks.
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


def word_face(w: LabelWord, k: int) -> LabelWord:
    """Remove the entry at position ``k`` (both face signs agree)."""
    if not 0 <= k < len(w):
        raise ArityMismatch(f"face position {k} out of range for word of length {len(w)}")
    return w[:k] + w[k + 1:]


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


def cells_by_key(h: Hda) -> dict:
    """Each cell of ``h`` under its key ``(state, word)`` in the model it
    was built from."""
    return {h.cell_keys[c]: c for c in h.skeleton.all_cells()}


def check_strong_labeling(h: Hda) -> bool:
    """No two distinct same-dimension cells share all faces and the label."""
    for n in range(1, h.max_dim + 1):
        signatures = [(tuple(h.skeleton.face(cell, i, sign) for i in range(n) for sign in SIGNS),
                       h.label(cell)) for cell in h.cells(n)]
        if len(set(signatures)) != len(signatures):
            return False
    return True


# ---------------------------------------------------------------------------
# The per-cell walks of validate_complex and validate_hda
# ---------------------------------------------------------------------------

def face_identities(faces, n: int) -> list:
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


def transposition_identities(c: SymmetricCubicalComplex, n: int) -> tuple:
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


def entry(table, v):
    """The entry of the column ``table`` at ``v``; KeyError where ``v``
    names no position of it or the entry is None."""
    if type(v) is int and 0 <= v < len(table) and table[v] is not None:
        return table[v]
    raise KeyError(v)


def spell(sk: PrecubicalComplex, d: int, v):
    """``v`` as its index among the d-cells, or itself if it names none."""
    ids = sk.cells.get(d, ())
    return ids[v] if type(v) is int and 0 <= v < len(ids) else v


def walk_faces(c: Complex, n: int, report: ValidationReport) -> None:
    sk = skeleton_of(c)
    ids, below = sk.cells.get(n, ()), len(sk.cells.get(n - 1, ()))
    for i in range(n):
        for sign in SIGNS:
            table = sk.faces.get((n, i, sign))
            if table is None:
                if ids:
                    report.add(f"missing face map ({n},{i},{sign})")
                continue
            for j, idx in enumerate(ids):
                if table[j] is None:
                    report.add(f"face ({n},{i},{sign}) undefined on cell {idx}")
                elif not (type(table[j]) is int and 0 <= table[j] < below):
                    report.add(f"face ({n},{i},{sign}) of cell {idx} lands outside cells({n - 1})")


def walk_face_identities(c: Complex, n: int, report: ValidationReport) -> None:
    sk = skeleton_of(c)
    identities = face_identities(sk.faces, n)
    for j, idx in enumerate(sk.cells.get(n, ())):
        for i, jj, a, b, outer_j, inner_i, outer_i, inner_j in identities:
            try:
                left = entry(inner_i, entry(outer_j, j))
                right = entry(inner_j, entry(outer_i, j))
            except KeyError:
                continue  # already reported as missing
            if left != right:
                report.add(
                    f"dim {n} cell {idx}: face({i},{a}).face({jj},{b}) = {spell(sk, n - 2, left)} "
                    f"but face({jj - 1},{b}).face({i},{a}) = {spell(sk, n - 2, right)}"
                )


def walk_transpositions(c: SymmetricCubicalComplex, n: int, report: ValidationReport) -> None:
    ids = c.skeleton.cells.get(n, ())
    for i in range(n - 1):
        table = c.transpositions.get((n, i))
        if table is None:
            if ids:
                report.add(f"missing transposition map ({n},{i})")
            continue
        for j, idx in enumerate(ids):
            if table[j] is None:
                report.add(f"transposition ({n},{i}) undefined on cell {idx}")
                continue
            if not (type(table[j]) is int and 0 <= table[j] < len(ids)):
                report.add(f"transposition ({n},{i}) of cell {idx} lands outside cells({n})")
                continue
            if table[table[j]] != j:
                report.add(f"transposition ({n},{i}) is not an involution at cell {idx}")


def walk_slides(c: SymmetricCubicalComplex, n: int, report: ValidationReport) -> None:
    sliding, braids, distant = transposition_identities(c, n)
    for j, idx in enumerate(c.skeleton.cells.get(n, ())):
        for i, a, t, here, there, slides in sliding:
            try:
                s = entry(t, j)
                lhs = [entry(here, s), entry(there, s)] + [entry(f, s) for _, f, _ in slides]
                rhs = [entry(there, j), entry(here, j)] + \
                    [entry(below, entry(f, j)) for _, f, below in slides]
            except KeyError:
                continue
            if lhs != rhs:
                report.add(f"dim {n} cell {idx}: transposition {i} "
                           f"incompatible with faces of sign {a}")
        for i, t, u in braids:
            try:
                lhs = entry(t, entry(u, entry(t, j)))
                rhs = entry(u, entry(t, entry(u, j)))
            except KeyError:
                continue
            if lhs != rhs:
                report.add(f"dim {n} cell {idx}: braid relation fails at {i}")
        for i, k, t, u in distant:
            try:
                lhs = entry(t, entry(u, j))
                rhs = entry(u, entry(t, j))
            except KeyError:
                continue
            if lhs != rhs:
                report.add(f"dim {n} cell {idx}: distant transpositions {i},{k} do not commute")


def walks(c: Complex) -> list:
    """(section, n, walk) for every section and dimension of
    ``validate_complex``, in report order; ``walk(c, n, report)`` adds
    the section's violations at dimension n, cell by cell."""
    sections = [("faces", 1, walk_faces), ("face identities", 2, walk_face_identities)]
    if isinstance(c, SymmetricCubicalComplex):
        sections += [("transpositions", 2, walk_transpositions), ("slides", 2, walk_slides)]
    top = skeleton_of(c).max_dim
    return [(section, n, walk) for section, low, walk in sections for n in range(low, top + 1)]




def walk_labels(h: Hda, n: int, report: ValidationReport) -> None:
    sk = h.skeleton
    alphabet = set(h.alphabet)

    def word(d, v):  # the word of the d-cell at position v, None where v names no cell
        column = h.words[d]
        return column[v] if type(v) is int and 0 <= v < len(column) else None

    faces = [(i, sign, sk.faces[(n, i, sign)])
             for i in range(n) for sign in SIGNS if (n, i, sign) in sk.faces]
    swaps = [(i, h.complex.transpositions[(n, i)])
             for i in range(n - 1) if (n, i) in h.complex.transpositions]
    for j, idx in enumerate(sk.cells.get(n, ())):
        w = word(n, j)
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
            if table[j] is not None and word(n - 1, table[j]) != w[:i] + w[i + 1:]:
                report.add(f"labeling not natural at face ({i},{sign}) of {CellId(n, idx)}")
        for i, table in swaps:
            if table[j] is None:
                continue
            swapped = list(w)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            if word(n, table[j]) != tuple(swapped):
                report.add(f"labeling not natural at transposition {i} of {CellId(n, idx)}")


# ---------------------------------------------------------------------------
# Nets, regions and morphisms
# ---------------------------------------------------------------------------

class NotEnabled(HdaBridgeError):
    """A word is not enabled at a marking; carries the deficient place."""

    def __init__(self, place, need, have):
        super().__init__(f"place {place!r} holds {have} token(s), needs {need}")
        self.place = place
        self.need = need
        self.have = have


def marking_plus(m: Marking, other: Marking) -> Marking:
    out = dict(m.items)
    for p, n in other.items:
        out[p] = out.get(p, 0) + n
    return Marking.of(out)


def marking_minus(m: Marking, other: Marking) -> Marking:
    out = dict(m.items)
    for p, n in other.items:
        out[p] = out.get(p, 0) - n
        if out[p] < 0:
            raise NotEnabled(p, n, m.get(p))
    return Marking.of(out)


def covers(m: Marking, other: Marking) -> bool:
    """Whether ``m`` holds at least the tokens of ``other`` at every place."""
    mine = dict(m.items)
    return all(mine.get(p, 0) >= n for p, n in other.items)


def deficient_place(m: Marking, other: Marking):
    """First place where m < other, or None."""
    mine = dict(m.items)
    for p, n in sorted_by_key(other.items):
        if mine.get(p, 0) < n:
            return p, n, mine.get(p, 0)
    return None


def word_pre(n: PetriNet, w: LabelWord) -> Marking:
    total = Marking(items=())
    for e in w:
        if e != STAR:
            total = marking_plus(total, n.pre[e])
    return total


def word_post(n: PetriNet, w: LabelWord) -> Marking:
    total = Marking(items=())
    for e in w:
        if e != STAR:
            total = marking_plus(total, n.post[e])
    return total


def fire(n: PetriNet, m: Marking, w: LabelWord) -> Marking:
    """Fire all entries of the word simultaneously; idle entries count zero."""
    need = word_pre(n, w)
    lack = deficient_place(m, need)
    if lack is not None:
        raise NotEnabled(*lack)
    return marking_plus(marking_minus(m, need), word_post(n, w))


def region_of(flows, tokens) -> Region:
    """The region with these flows per label and token counts per vertex,
    each table sorted by ``canon_key``: the constructor the package had
    before regions were decoded from slot values."""
    return Region(
        flows=tuple(sorted(((e, (int(a), int(b))) for e, (a, b) in flows.items()),
                           key=lambda kv: canon_key(kv[0]))),
        tokens=tuple(sorted(((c, int(v)) for c, v in tokens.items()),
                            key=lambda kv: canon_key(kv[0]))),
    )


def pnet_document(n: PetriNet) -> dict:
    """The ``pnet`` document of ``n`` as a dict, the form the package
    printed through ``json.dumps`` before it printed nets from their
    markings' items."""
    events = sorted_by_key(n.events)
    return {
        "kind": "pnet",
        "format_version": 1,
        "places": sorted(n.places),
        "m0": dict(n.m0.items),
        "events": events,
        "pre": {str(e): dict(n.pre[e].items) for e in events},
        "post": {str(e): dict(n.post[e].items) for e in events},
    }


def flow(reg: Region, label) -> tuple[int, int]:
    """The tokens ``label`` consumes and produces at the region; (0, 0) for
    the idle symbol and for a label the region does not cover."""
    return dict(reg.flows).get(label, (0, 0))


def tokens_at(reg: Region, vertex: CellId) -> int:
    return dict(reg.tokens)[vertex]


def word_flow(reg: Region, w: LabelWord) -> tuple[int, int]:
    """The tokens the word consumes and produces in all at the region."""
    pre = post = 0
    for e in w:
        a, b = flow(reg, e)
        pre += a
        post += b
    return (pre, post)


def region_check(h: Hda, reg: Region) -> bool:
    """Coherence on every cell: both ends carry enough tokens and the
    difference matches the flow of the label."""
    flows = dict(reg.flows)
    for a in h.alphabet:
        if a not in flows:
            raise ValueError(f"region does not cover label {a!r}")
    tokens = dict(reg.tokens)
    for v in h.cells(0):
        if v not in tokens:
            return False
    for cell, (s, t) in h.zero_ends.items():
        pre, post = word_flow(reg, h.label(cell))
        if not (tokens[s] >= pre and tokens[t] >= post and tokens[s] - pre == tokens[t] - post):
            return False
    return True


def place_map(g, source: Hda, regions: dict, places, flow_of, tokens_of) -> PnMorphism:
    """The net morphism along ``g`` out of the net whose places are
    ``regions`` (name -> Region), the regions of ``source``, by Region
    objects, as the package built it before it read regions as slot rows.
    Each name in ``places`` goes to the place of the region that reads it
    through ``g``: a label's flow is ``flow_of(p, image)``, (0, 0) when
    dropped, and a vertex's count is ``tokens_of(p, base)`` at the base of
    its image.  A region that is not a place raises CapExceeded."""
    names = {reg: name for name, reg in regions.items()}
    labels = [(a, g.label_image(a)) for a in sorted_by_key(source.alphabet)]
    vertices = sorted_by_key(source.cells(0))
    bases = [g.cell_map[v].base for v in vertices]
    phi = {}
    for p in places:
        reg = Region(flows=tuple((a, (0, 0) if b == STAR else flow_of(p, b)) for a, b in labels),
                     tokens=tuple(zip(vertices, [tokens_of(p, base) for base in bases])))
        if reg not in names:
            raise CapExceeded(f"place {p!r} pulls back to a region that is not a place")
        phi[p] = names[reg]
    return PnMorphism(phi=phi, psi={a: b for a, b in labels if b != STAR})


def validate_morphism(kind: str, m, src, dst) -> ValidationReport:
    if kind == "ts":
        return validate_ts_morphism(m, src, dst)
    if kind == "acr":
        return validate_acr_morphism(m, src, dst)
    if kind == "es":
        return validate_es_morphism(m, src, dst)
    if kind == "pnet":
        return validate_pn_morphism(m, src, dst)
    raise ValueError(f"no morphism validator for kind {kind!r}")


def pn_morphism_space(src: PetriNet, dst: PetriNet) -> int:
    """The number of assignments ``pn_morphisms`` tries."""
    return (len(dst.events) + 1) ** len(src.events) * len(src.places) ** len(dst.places)


def pn_morphisms(src: PetriNet, dst: PetriNet) -> list:
    """Every partial event map times every place map src -> dst, kept when
    it passes ``validate_pn_morphism``."""
    events = sorted_by_key(src.events)
    places = sorted_by_key(dst.places)
    out = []
    for images in itertools.product([None, *sorted_by_key(dst.events)], repeat=len(events)):
        psi = {e: v for e, v in zip(events, images) if v is not None}
        for sources in itertools.product(sorted_by_key(src.places), repeat=len(places)):
            m = PnMorphism(phi=dict(zip(places, sources)), psi=psi)
            if validate_pn_morphism(m, src, dst).ok:
                out.append(m)
    return out


def pn_isomorphisms(a: PetriNet, b: PetriNet) -> list:
    """Every bijection from the places of ``a`` to those of ``b`` that
    carries the initial marking, and each event's pre and post, of ``a``
    onto those of ``b``; the events must be equal."""
    if a.events != b.events or len(a.places) != len(b.places):
        return []
    places = sorted_by_key(a.places)

    def image(m: Marking, rename: dict) -> Marking:
        return Marking.of({rename[p]: n for p, n in m.items})

    out = []
    for targets in itertools.permutations(sorted_by_key(b.places)):
        rename = dict(zip(places, targets))
        if image(a.m0, rename) == b.m0 and \
                all(image(a.pre[e], rename) == b.pre[e] and image(a.post[e], rename) == b.post[e]
                    for e in a.events):
            out.append(rename)
    return out


def iso_by_cells(a: Hda, b: Hda, node_limit: int = 600):
    """A bijection from the cells of ``a`` to those of ``b`` that keeps
    the initial cell, labels, faces and transpositions, or None; beyond
    ``node_limit`` cells of ``a``, SizeLimit."""
    cells = list(a.skeleton.all_cells())
    if len(cells) > node_limit:
        raise SizeLimit("too many cells")
    top = max(a.max_dim, b.max_dim)
    if set(a.alphabet) != set(b.alphabet) or \
       any(len(a.cells(n)) != len(b.cells(n)) for n in range(top + 1)):
        return None

    # every face relation (cell, i, sign, face) of a; the cofaces of each
    # cell of b at each (i, sign)
    a_faces = [(c, i, sign, a.skeleton.face(c, i, sign))
               for c in cells for i in range(c.dim) for sign in SIGNS]
    b_cofaces: dict = {}
    for c in b.skeleton.all_cells():
        for i in range(c.dim):
            for sign in SIGNS:
                b_cofaces.setdefault((b.skeleton.face(c, i, sign), i, sign), []).append(c)

    # slots breadth-first over faces and cofaces, from the initial cell and
    # then from each cell not yet reached; ``via`` keeps the face relation
    # that reached a cell, whose other end is assigned first
    neighbours: dict = {c: [] for c in cells}
    for rel in a_faces:
        coface, _, _, face = rel
        neighbours[coface].append((rel, face))
        neighbours[face].append((rel, coface))
    via: dict = {}
    roots = [c for c in [a.initial, *cells] if c in neighbours]
    for _, rel, c, new in breadth_first(roots, neighbours.__getitem__):
        if new:
            via[c] = rel
    order = list(via)
    slot = {c: k for k, c in enumerate(order)}
    # each face relation is checked at the later slot of its two cells
    closed_by: dict = {c: [] for c in order}
    for rel in a_faces:
        closed_by[max(rel[0], rel[3], key=slot.__getitem__)].append(rel)

    def options(pos, partial):
        cell = order[pos]
        if via[cell] is None:
            candidates = b.cells(cell.dim)
        else:
            coface, i, sign, face = via[cell]
            if coface == cell:  # a coface of its face's image
                candidates = b_cofaces.get((partial[slot[face]], i, sign), ())
            else:  # the face of its coface's image
                candidates = [b.skeleton.face(partial[slot[coface]], i, sign)]
        used = set(partial)

        def image(x, t):
            return t if x == cell else partial[slot[x]]

        return [t for t in candidates
                if t not in used and b.label(t) == a.label(cell)
                and (cell == a.initial) == (t == b.initial)
                and all(b.skeleton.face(image(c, t), i, sign) == image(f, t)
                        for c, i, sign, f in closed_by[cell])]

    for values in backtrack(order, options):
        m = dict(zip(order, values))
        # transpositions must commute with the bijection
        if all(m[a.complex.transpose(cell, i)] == b.complex.transpose(m[cell], i)
               for cell in cells for i in range(cell.dim - 1)):
            return m
    return None

import dataclasses
import itertools
import json
import pathlib

import pytest

from hdabridge.cts import (
    Cts,
    coskeleton_fill,
    cts_to_hda,
    enabled_cells_by_dim,
    es_to_cts,
    multiset,
    pn_to_cts,
)
from hdabridge.cubical import DegeneracyWitness, truncate, validate_hda
from hdabridge.errors import DimensionCapExceeded, ExplosionLimit, NotOneDeterministic
from hdabridge.functors import es_to_hda, induced_morphism, pn_to_hda
from hdabridge.jsonio import parse_document, print_document
from hdabridge.laws import GeneratorConfig, gen_es, gen_pn
from hdabridge.models import make_event_structure, make_pn
from hdabridge.util import sorted_by_key
from helpers import fork_join_net, loops4_cts, pipeline_net
from reference import cts_to_hda_by_keys, fire, validate_cts

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def test_es_to_cts_three_concurrent_states():
    es = make_event_structure("abc")
    c = es_to_cts(es)
    assert len(c.states) == 8
    assert validate_cts(c, 3).ok


def test_es_to_cts_sequential_blocks_pair():
    es = make_event_structure("ab", causes=[("a", "b")])
    c = es_to_cts(es)
    assert not c.enabled(frozenset(), multiset("ab"))
    assert c.enabled(frozenset(), multiset("a"))
    assert validate_cts(c, 2).ok


def test_es_to_cts_empty():
    es = make_event_structure("")
    c = es_to_cts(es)
    assert c.states == frozenset({frozenset()})
    assert validate_cts(c, 1).ok


def test_validate_cts_catches_missing_step():
    base = es_to_cts(make_event_structure("ab"))
    delta = {k: v for k, v in base.delta.items() if k != (frozenset(), "a")}
    broken = Cts(
        states=base.states, initial=base.initial, events=base.events, delta=delta,
        enabled=base.enabled,
    )
    report = validate_cts(broken, 2)
    assert not report.ok


def test_cts_to_hda_two_concurrent():
    es = make_event_structure("ab")
    h = cts_to_hda(es_to_cts(es), 2)
    assert [len(h.cells(n)) for n in range(3)] == [4, 4, 2]
    assert validate_hda(h).ok
    two = h.cells(2)
    assert h.complex.transpose(two[0], 0) == two[1]
    labels = {h.label(c) for c in two}
    assert labels == {("a", "b"), ("b", "a")}


def test_cts_to_hda_conflict_has_no_square():
    es = make_event_structure("ab", conflicts=[("a", "b")])
    h = cts_to_hda(es_to_cts(es), 2)
    assert [len(h.cells(n)) for n in range(3)] == [3, 2, 0]
    assert validate_hda(h).ok


def test_cts_to_hda_dimension_cap():
    es = make_event_structure("abc")
    with pytest.raises(DimensionCapExceeded):
        cts_to_hda(es_to_cts(es), 2)
    h = cts_to_hda(es_to_cts(es), 2, truncate_cells=True)
    assert h.max_dim == 2
    assert validate_hda(h).ok


@pytest.mark.parametrize("truncate", [False, True])
def test_cts_to_hda_refuses_negative_cap(truncate):
    with pytest.raises(DimensionCapExceeded):
        cts_to_hda(es_to_cts(make_event_structure("ab")), -1, truncate_cells=truncate)


def test_pn_cts_double_token_square():
    n = make_pn(["p", "q"], {"p": 2}, ["e"], {"e": {"p": 1}}, {"e": {"q": 1}})
    c = pn_to_cts(n, 100)
    assert c.enabled(n.m0, multiset(["e", "e"]))
    h = cts_to_hda(c, 2)
    squares = [h.label(cell) for cell in h.cells(2)]
    assert ("e", "e") in squares
    assert validate_hda(h).ok


def two_mutex_net(with_h=True):
    places = "abcdefghi" if with_h else "abcdefgi"
    shared = {"h": 1} if with_h else {}
    return make_pn(
        places=places,
        m0={"a": 1, "b": 1, "c": 1, "f": 1, "g": 1, **shared},
        events=["e1", "e2"],
        pre={"e1": {"b": 1, "f": 1, **shared}, "e2": {"c": 1, "g": 1, **shared}},
        post={"e1": {"d": 1, "f": 1, **shared}, "e2": {"e": 1, "g": 1, **shared}},
    )


def test_pn_to_cts_shared_place_blocks_square():
    c = pn_to_cts(two_mutex_net(), 100)
    assert len(c.states) == 4
    assert not c.enabled(c.initial, multiset(["e1", "e2"]))
    assert validate_cts(c, 2).ok


def test_pn_to_cts_without_shared_place():
    c = pn_to_cts(two_mutex_net(with_h=False), 100)
    assert c.enabled(c.initial, multiset(["e1", "e2"]))
    h = cts_to_hda(c, 2)
    assert len(h.cells(2)) == 2  # the two orders of the square
    assert validate_hda(h).ok


def test_pn_to_cts_no_events():
    n = make_pn(["p"], {"p": 1}, [], {}, {})
    c = pn_to_cts(n, 10)
    assert len(c.states) == 1
    assert validate_cts(c, 1).ok


def test_pn_hda_positive_faces_fire():
    n = two_mutex_net()
    c = pn_to_cts(n, 100)
    h = cts_to_hda(c, 2)
    for cell in h.cells(1):
        marking, word = h.cell_keys[cell]
        face = h.skeleton.face(cell, 0, "+")
        assert h.cell_keys[face][0] == fire(n, marking, word)


def induced_by(sigma, tau, h_src, h_dst):
    """The automaton morphism that a map of CTS states ``sigma`` and a
    partial map of events ``tau`` induce on the automata they generate:
    vertices by sigma, letters by tau."""
    vertex_map = {v: h_dst.vertex_by_state[sigma[h_src.state(v)]] for v in h_src.cells(0)}
    return induced_morphism(h_src, h_dst, vertex_map, tau)


def test_cts_identity_morphism_to_hda():
    es = make_event_structure("ab")
    c = es_to_cts(es)
    h = cts_to_hda(c, 2)
    hm = induced_by({x: x for x in c.states}, {e: e for e in c.events}, h, h)
    for cell in h.skeleton.all_cells():
        assert hm.cell_map[cell] == DegeneracyWitness(cell)


def test_cts_morphism_dropping_event():
    src = es_to_cts(make_event_structure("ab"))
    dst = es_to_cts(make_event_structure("a"))
    h_src = cts_to_hda(src, 2)
    h_dst = cts_to_hda(dst, 1)
    hm = induced_by({x: x & {"a"} for x in src.states}, {"a": "a"}, h_src, h_dst)
    # the square maps to a degenerate cell over the a-edge
    square = next(c for c in h_src.cells(2) if h_src.label(c) == ("a", "b"))
    image = hm.cell_map[square]
    assert image.stars == (1,)
    assert h_dst.cell_keys[image.base] == (frozenset(), ("a",))


def test_cts_morphism_composition_preserved():
    es1 = make_event_structure("ab")
    es2 = make_event_structure("a")
    es3 = make_event_structure("")
    c1, c2, c3 = es_to_cts(es1), es_to_cts(es2), es_to_cts(es3)
    f_sigma, f_tau = {x: x & {"a"} for x in c1.states}, {"a": "a"}
    g_sigma, g_tau = {x: frozenset() for x in c2.states}, {}
    gf_sigma = {x: g_sigma[f_sigma[x]] for x in c1.states}
    gf_tau = {e: g_tau[v] for e, v in f_tau.items() if v in g_tau}
    h1, h2, h3 = cts_to_hda(c1, 2), cts_to_hda(c2, 1), cts_to_hda(c3, 0)
    m_f = induced_by(f_sigma, f_tau, h1, h2)
    m_g = induced_by(g_sigma, g_tau, h2, h3)
    m_gf = induced_by(gf_sigma, gf_tau, h1, h3)
    from hdabridge.functors import compose_hda_morphisms

    assert compose_hda_morphisms(m_f, m_g).cell_map == m_gf.cell_map


def test_es_cells_at_origin_are_compatible_linear_words():
    import itertools

    from hdabridge.models import make_event_structure

    es = make_event_structure("abc", causes=[("a", "b")], conflicts=[("a", "c")])
    h = cts_to_hda(es_to_cts(es), 3, truncate_cells=True)
    for n in range(3):
        at_origin = {
            h.cell_keys[c][1]
            for c in h.cells(n)
            if h.cell_keys[c][0] == frozenset()
        }
        expected = set()
        for word in itertools.permutations(sorted(es.events), n):
            enabled_each = all(
                not any(b == e and a != e and a not in () for (a, b) in es.leq if b == e)
                for e in word
            )
            # enabled at the empty configuration: no proper causes, no conflicts
            causes_ok = all(
                all(a == e for (a, b) in es.leq if b == e)
                for e in word
            )
            conflict_ok = all(
                (x, y) not in es.conflict for x, y in itertools.combinations(word, 2)
            )
            if causes_ok and conflict_ok:
                expected.add(word)
        assert at_origin == expected


# ---------------------------------------------------------------------------
# orbit growth against the definition
# ---------------------------------------------------------------------------

def brute_force_cells(c: Cts, max_dim: int) -> dict:
    """Every word over the events whose multiset is enabled, per length,
    in (state, word) order."""
    events = sorted_by_key(c.events)
    return {n: [(x, w) for x in sorted_by_key(c.states)
                for w in itertools.product(events, repeat=n) if c.enabled(x, multiset(w))]
            for n in range(max_dim + 1)}


def grown_cells(c: Cts, max_dim: int) -> dict:
    """``enabled_cells_by_dim``'s prefix tree read back as (state, word)
    keys: a cell's key is its parent's with one event appended."""
    states, events = sorted_by_key(c.states), sorted_by_key(c.events)
    cells = {0: [(x, ()) for x in states]}
    tree, _ = enabled_cells_by_dim(c, max_dim)
    for n, (parents, lasts) in enumerate(tree, 1):
        cells[n] = [(cells[n - 1][p][0], cells[n - 1][p][1] + (events[r],))
                    for p, r in zip(parents, lasts)]
    return cells


def assert_matches_brute_force(c: Cts, max_dim: int):
    """Same dimensions, and per dimension the same keys in the same order."""
    assert grown_cells(c, max_dim) == brute_force_cells(c, max_dim)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_orbit_growth_matches_brute_force_on_generated_models(seed):
    cfg = GeneratorConfig(seed=seed, max_events=5)
    for index in range(20):
        assert_matches_brute_force(es_to_cts(gen_es(index, cfg)), 4)
        try:
            c = pn_to_cts(gen_pn(index, cfg), 60)
        except ExplosionLimit:
            continue
        assert_matches_brute_force(c, 4)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dimension_cap_raises_exactly_when_a_longer_word_is_enabled(seed):
    """At each cap d, building refuses exactly when some word of length d+1
    is enabled, and otherwise builds the automaton of every enabled word."""
    cfg = GeneratorConfig(seed=seed, max_events=5)
    for index in range(20):
        cts = [es_to_cts(gen_es(index, cfg))]
        try:
            cts.append(pn_to_cts(gen_pn(index, cfg), 60))
        except ExplosionLimit:
            pass
        for c in cts:
            brute = brute_force_cells(c, 4)
            for d in range(4):
                if brute[d + 1]:
                    with pytest.raises(DimensionCapExceeded):
                        cts_to_hda(c, d)
                else:
                    h = cts_to_hda(c, d)
                    assert [len(h.cells(n)) for n in range(d + 1)] == \
                        [len(brute[n]) for n in range(d + 1)]


CTS_FIXTURES = sorted(p.name for p in FIXTURES.glob("*.json") if p.name.startswith(("es_", "pnet_")))


@pytest.mark.parametrize("name", CTS_FIXTURES)
def test_orbit_growth_matches_brute_force_on_fixtures(name):
    """Every fixture that translates to an automaton through a CTS."""
    kind, model = parse_document((FIXTURES / name).read_text())
    c = es_to_cts(model) if kind == "es" else pn_to_cts(model, 200)
    assert_matches_brute_force(c, 4)


def test_orbit_growth_keeps_auto_concurrent_square():
    n = make_pn(["p"], {"p": 2}, ["e"], {"e": {"p": 1}}, {"e": {}})
    c = pn_to_cts(n, 10)
    assert_matches_brute_force(c, 3)
    cells = grown_cells(c, 3)
    assert cells[2] == [(n.m0, ("e", "e"))]
    assert cells[3] == []


def assert_numbered_as_grown(c: Cts, max_dim: int):
    """The automaton's cell keys, read per dimension in index order, are
    the grown cells; labels, faces and transpositions act on the keys."""
    h = cts_to_hda(c, max_dim, truncate_cells=True)
    grown = grown_cells(c, max_dim)
    assert h.cell_keys[h.initial] == (c.initial, ())
    for n in range(max_dim + 1):
        keys = [h.cell_keys[cell] for cell in h.cells(n)]
        assert keys == grown[n]
        for cell, (x, w) in zip(h.cells(n), keys):
            assert h.label(cell) == w  # each event is its own label
            for i in range(n):
                rest = w[:i] + w[i + 1:]
                assert h.cell_keys[h.skeleton.face(cell, i, "-")] == (x, rest)
                assert h.cell_keys[h.skeleton.face(cell, i, "+")] == (c.delta[(x, w[i])], rest)
            for i in range(n - 1):
                swapped = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
                assert h.cell_keys[h.complex.transpose(cell, i)] == (x, swapped)


@pytest.mark.parametrize("seed", [0, 1])
def test_cell_keys_are_the_grown_cells_on_generated_models(seed):
    cfg = GeneratorConfig(seed=seed, max_events=5)
    for index in range(15):
        assert_numbered_as_grown(es_to_cts(gen_es(index, cfg)), 3)
        try:
            c = pn_to_cts(gen_pn(index, cfg), 60)
        except ExplosionLimit:
            continue
        assert_numbered_as_grown(c, 3)


@pytest.mark.parametrize("name", CTS_FIXTURES)
def test_cell_keys_are_the_grown_cells_on_fixtures(name):
    kind, model = parse_document((FIXTURES / name).read_text())
    assert_numbered_as_grown(es_to_cts(model) if kind == "es" else pn_to_cts(model, 200), 4)


# ---------------------------------------------------------------------------
# the prefix-tree builder against the automaton built from sorted keys
# ---------------------------------------------------------------------------

def built(build, c: Cts, max_dim: int, truncate: bool):
    try:
        return build(c, max_dim, truncate_cells=truncate)
    except DimensionCapExceeded:
        return None


def assert_built_as_by_keys(c: Cts, caps):
    """At each cap, with and without truncation, ``cts_to_hda`` builds the
    automaton that ``index_complex`` numbers from the sorted keys, with
    every table filed in the same order and the same printed document,
    or both refuse the cap."""
    for max_dim in caps:
        for truncate in (False, True):
            h = built(cts_to_hda, c, max_dim, truncate)
            expected = built(cts_to_hda_by_keys, c, max_dim, truncate)
            assert h == expected, (max_dim, truncate)
            if h is None:
                continue
            assert list(h.cell_keys) == list(expected.cell_keys)
            assert list(h.skeleton.faces) == list(expected.skeleton.faces)
            assert list(h.complex.transpositions) == list(expected.complex.transpositions)
            assert print_document("hda", h) == print_document("hda", expected)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_prefix_tree_builds_the_keyed_automaton_on_generated_models(seed):
    cfg = GeneratorConfig(seed=seed, max_events=5)
    for index in range(40):
        cts = [es_to_cts(gen_es(index, cfg))]
        try:
            cts.append(pn_to_cts(gen_pn(index, cfg), 60))
        except ExplosionLimit:
            pass
        for c in cts:
            assert_built_as_by_keys(c, [0, 1, 2, 3, 4, len(c.events)])


def test_prefix_tree_builds_the_keyed_automaton_with_repeated_events():
    assert_built_as_by_keys(loops4_cts(), range(6))
    assert_built_as_by_keys(pn_to_cts(pipeline_net(), 100), range(8))
    assert_built_as_by_keys(pn_to_cts(fork_join_net(), 100), range(7))


@pytest.mark.parametrize("broken", ["no step", "face not enabled"])
def test_a_cts_breaking_the_builder_contract_raises_key_error(broken):
    """A square at state 0 whose positive face along b, the a-edge at the
    state b reaches, is not enabled there; or whose step along b is
    missing."""
    delta = {(0, "a"): 1, (0, "b"): 2, (1, "b"): 3, (2, "a"): 3}
    if broken == "no step":
        del delta[0, "b"]
    allowed = {0: {(), ("a",), ("b",), ("a", "b")}, 1: {(), ("b",)}, 2: {()}, 3: {()}}
    c = Cts(states=frozenset(range(4)), initial=0, events=frozenset("ab"), delta=delta,
            enabled=lambda x, m: m in allowed[x])
    with pytest.raises(KeyError):
        cts_to_hda(c, 2)


def recording(c: Cts):
    """``c`` with an ``enabled`` that records every (state, multiset) it is asked."""
    asked = []

    def enabled(x, m):
        asked.append((x, m))
        return c.enabled(x, m)

    return dataclasses.replace(c, enabled=enabled), asked


def test_truncation_never_tests_words_above_the_cap():
    c, asked = recording(es_to_cts(make_event_structure("abcd")))
    h = cts_to_hda(c, 1, truncate_cells=True)
    assert [len(h.cells(n)) for n in range(2)] == [16, 32]
    assert max(len(m) for _, m in asked) == 1


def test_dimension_cap_stops_at_the_first_longer_word():
    c, asked = recording(es_to_cts(make_event_structure("abcd")))
    with pytest.raises(DimensionCapExceeded):
        cts_to_hda(c, 1)
    sizes = [len(m) for _, m in asked]
    # at the empty configuration, orbit {a} tries {a, a} and then {a, b}, which is enabled
    assert max(sizes) == 2 and sizes.count(2) == 2


def test_event_structure_growth_repeats_no_event_past_size_two():
    """An event structure never enables a repeated event, so neither growth
    nor the dimension cap extends a multiset by its own last event e
    unless (e, e) is enabled: only size 2 asks about a repeat."""
    cfg = GeneratorConfig(seed=1, max_events=5)
    for es in [make_event_structure("abcdef")] + [gen_es(index, cfg) for index in range(20)]:
        c, asked = recording(es_to_cts(es))
        cts_to_hda(c, len(es.events))
        try:
            cts_to_hda(c, 2)  # the cap check extends the multisets of size 2
        except DimensionCapExceeded:
            pass
        assert all(len(set(m)) == len(m) for _, m in asked if len(m) > 2)


def test_growth_and_cap_check_ask_each_question_once():
    """Growth and the whole dimension-cap check ask ``enabled`` about each
    (state, multiset) at most once."""
    systems = [(es_to_cts(make_event_structure("abcdef")), [6])]
    for seed in range(3):
        cfg = GeneratorConfig(seed=seed)
        for index in range(cfg.count):
            es = gen_es(index, cfg)
            systems.append((es_to_cts(es), [len(es.events)]))
            try:
                systems.append((pn_to_cts(gen_pn(index, cfg), 200), range(5)))
            except ExplosionLimit:
                pass
    for c, caps in systems:
        for cap in caps:
            recorded, asked = recording(c)
            _, beyond = enabled_cells_by_dim(recorded, cap)
            for x, m in beyond:
                recorded.enabled(x, m)
            assert len(set(asked)) == len(asked)


@pytest.mark.parametrize("events, calls", [("abcdef", 1049), ("abcdefg", 2955)])
def test_free_events_at_full_cap_ask_pinned_questions(events, calls):
    c, asked = recording(es_to_cts(make_event_structure(events)))
    cts_to_hda(c, len(events))
    assert len(asked) == calls


def assert_enabled_matches_reference(es, orders=False):
    """Every multiset of at most three events, plus one foreign event, at
    every configuration and one state that is none; with ``orders``, every
    ordering of each multiset too."""
    from reference import es_cts_enabled
    c, reference = es_to_cts(es), es_cts_enabled(es)
    names = sorted_by_key(es.events) + ["foreign"]
    words = [multiset(m) for k in range(4)
             for m in itertools.combinations_with_replacement(names, k)]
    if orders:
        words = {w for m in words for w in itertools.permutations(m)}
    for x in [*c.states, frozenset({"foreign"})]:
        for w in words:
            assert c.enabled(x, w) == reference(x, w), (x, w)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_es_enabled_matches_the_pairwise_test(seed):
    cfg = GeneratorConfig(seed=seed)
    for index in range(cfg.count):
        assert_enabled_matches_reference(gen_es(index, cfg))


def test_es_enabled_reads_a_one_way_conflict_in_multiset_order():
    from hdabridge.models import EventStructure
    es = EventStructure(events=frozenset("abc"), leq=frozenset({(e, e) for e in "abc"}),
                        conflict=frozenset({("a", "c")}))
    assert_enabled_matches_reference(es, orders=True)
    c = es_to_cts(es)
    # an earlier event's conflicts are read against the later ones only
    assert not c.enabled(frozenset(), ("a", "c")) and c.enabled(frozenset(), ("c", "a"))
    assert c.enabled(frozenset(), ("a", "b")) and not c.enabled(frozenset(), ("a", "a"))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_orbit_growth_asks_only_about_events_enabled_alone(seed):
    """Past size 1, every event of a multiset that growth tests is enabled
    alone at that state: no candidate fails for want of one event."""
    cfg = GeneratorConfig(seed=seed, max_events=5)
    models = [pn_to_cts(make_pn(["p", "q"], {"p": 3}, ["e", "f"], {"e": {"p": 1}, "f": {"q": 1}},
                                {"e": {"q": 1}, "f": {}}), 60)]
    for index in range(20):
        models.append(es_to_cts(gen_es(index, cfg)))
        try:
            models.append(pn_to_cts(gen_pn(index, cfg), 60))
        except ExplosionLimit:
            pass
    grown = 0
    for c in models:
        recorder, asked = recording(c)
        enabled_cells_by_dim(recorder, 4)
        grown += sum(len(m) > 1 for _, m in asked)
        assert all(c.enabled(x, (e,)) for x, m in asked if len(m) > 1 for e in m)
    assert grown


# ---------------------------------------------------------------------------
# The 2-coskeletal fill: the CTS of an automaton's 2-skeleton
# ---------------------------------------------------------------------------

def shared_place_net(tokens: int):
    """One place holding ``tokens`` tokens and three events, each taking
    one token and giving it back."""
    return make_pn(["p"], {"p": tokens}, list("abc"), {e: {"p": 1} for e in "abc"},
                   {e: {"p": 1} for e in "abc"})


def test_coskeleton_fill_fills_repeated_letters():
    """The 2-truncation of two tokens shared by three events.  Every word
    of length 3 has its faces, so each gets a cube, ``aab`` included, as
    the net with three tokens has them; the shell search skipped ``aba``
    but not its transposed shell ``baa`` and raised KeyError here."""
    two = pn_to_hda(shared_place_net(2), 200, 2, truncate_cells=True)
    assert [len(two.cells(n)) for n in range(3)] == [1, 3, 9]
    assert validate_hda(two).ok
    filled = coskeleton_fill(two, 3)
    assert [len(filled.cells(n)) for n in range(4)] == [1, 3, 9, 27]
    assert validate_hda(filled).ok
    assert print_document("hda", filled) == \
        print_document("hda", pn_to_hda(shared_place_net(3), 200, 3, truncate_cells=True))


def test_coskeleton_fill_of_a_net_automatons_2_truncation_prints_it():
    cfg, filled = GeneratorConfig(seed=0), 0
    for i in range(cfg.count):
        try:
            h = pn_to_hda(gen_pn(i, cfg), 200, 3, truncate_cells=True)
        except ExplosionLimit:
            continue
        assert print_document("hda", coskeleton_fill(truncate(h, 2), 3)) == \
            print_document("hda", h), i
        filled += 1
    assert filled == 72


def test_coskeleton_fill_is_idempotent():
    for h in (pn_to_hda(shared_place_net(2), 200, 2, truncate_cells=True),
              es_to_hda(make_event_structure("abcd"), max_dim=2, truncate_cells=True)):
        once = coskeleton_fill(h, 3)
        assert coskeleton_fill(once, 3) == once


def test_coskeleton_fill_refuses_two_parallel_edges_with_one_label():
    _, h = parse_document(json.dumps({
        "kind": "hda", "format_version": 1, "alphabet": ["a"], "initial": 0, "dims": [0, 1],
        "cells": {"0": [0, 1], "1": [0, 1]},
        "faces": {"1,0,-": {"0": 0, "1": 0}, "1,0,+": {"0": 1, "1": 1}},
        "labels": {"1": {"0": ["a"], "1": ["a"]}}, "sym": {}}))
    assert validate_hda(h).ok
    with pytest.raises(NotOneDeterministic):
        coskeleton_fill(h, 2)


def test_coskeleton_fill_refuses_two_squares_with_one_boundary_and_label():
    """A square of two independent events, and a copy of it and of its
    transposition beside it: each copy shares its source faces and label
    with the cell it copies."""
    doc = json.loads(print_document("hda", es_to_hda(make_event_structure("ab"))))
    assert doc["cells"]["2"] == [0, 1]
    doc["cells"]["2"] += [2, 3]
    for key, table in doc["faces"].items():
        if key.startswith("2,"):
            table.update({"2": table["0"], "3": table["1"]})
    doc["labels"]["2"].update({"2": doc["labels"]["2"]["0"], "3": doc["labels"]["2"]["1"]})
    doc["sym"]["2,0"].update({"2": 3, "3": 2})
    _, h = parse_document(json.dumps(doc))
    assert validate_hda(h).ok
    with pytest.raises(NotOneDeterministic):
        coskeleton_fill(h, 2)

import dataclasses

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hdabridge.cubical import (
    STAR,
    CellId,
    DegeneracyWitness,
    check_deterministic,
    check_linear_labeling,
    truncate,
    validate_hda,
)
from hdabridge.errors import (
    CapExceeded,
    ExplosionLimit,
    NotLinear,
    NotOneDeterministic,
    NotPartialOrder,
    OutOfReachableFragment,
    SquareIncomplete,
    StarClash,
)
from hdabridge.functors import (
    HdaMorphism,
    acr_to_hda2,
    compose_hda_morphisms,
    enumerate_regions,
    es_to_hda,
    hda1_to_ts,
    hda2_to_acr,
    hda_to_es,
    hda_to_pn,
    identity_hda_morphism,
    induced_morphism,
    map_morphism,
    pn_to_hda,
    transpose_to_hda,
    transpose_to_pn,
    ts_to_hda1,
    validate_hda_morphism,
)
from hdabridge.models import (
    Acr,
    EventStructure,
    Marking,
    PnMorphism,
    TsMorphism,
    compose_pn_morphisms,
    idle_completion,
    make_acr,
    make_event_structure,
    make_pn,
    make_ts,
    validate_acr,
    validate_es,
    validate_pn,
    validate_pn_morphism,
    validate_ts,
)
from hdabridge import functors
from hdabridge.laws import GeneratorConfig, enumerate_hda_morphisms, gen_acr, gen_es, gen_pn, gen_ts
from hdabridge.util import level_search
from helpers import (
    brute_force_es_cells,
    brute_force_regions,
    fixture,
    reference_net,
    reference_places,
    synthesized_regions,
)
from reference import (
    automaton_by_keys,
    cells_by_key,
    check_strong_labeling,
    covers,
    fire,
    flow,
    place_map,
    region_check,
    region_of,
    tokens_at,
)


# ---------------------------------------------------------------------------
# cell numbering of the automata built from systems
# ---------------------------------------------------------------------------

# sha256 of the printed automaton, recorded while index_complex still sorted
# every dimension itself: ts_to_hda1 and acr_to_hda2 sort their keys instead
PRINTED_AUTOMATA = {
    "ts mutex square": "f92032f1b9ee5c2a349e0cb4abb268c69937b1f679cc0288119f08d5f23af2d9",
    "acr triple diamond": "b4e67c30758fa31d30c29558bc49de88e6ce8ecadb5e9ef6f9ffe01f5de9e26b",
    "acr full cube": "da1ca152ddf2b0dfe00bb8486909cb2a9cfc246f3a4f695dbc6b389adf3969a8",
    "acr mutex square": "d9d699fbfbbd895614fc16b2e5a963ccd82287a91dc2c90561318371804da789",
}
SYSTEM_AUTOMATA = {
    "ts mutex square": lambda: ts_to_hda1(fixture("ts_mutex_square")),
    "acr triple diamond": lambda: acr_to_hda2(fixture("acr_triple_diamond")),
    "acr full cube": lambda: acr_to_hda2(fixture("acr_full_cube")),
    "acr mutex square": lambda: acr_to_hda2(fixture("acr_mutex_square")),
}


@pytest.mark.parametrize("name", sorted(PRINTED_AUTOMATA))
def test_system_automata_print_as_before(name):
    import hashlib

    from hdabridge.jsonio import print_document

    text = print_document("hda", SYSTEM_AUTOMATA[name]())
    assert hashlib.sha256(text.encode()).hexdigest() == PRINTED_AUTOMATA[name]


@pytest.mark.parametrize("seed", [0, 1])
def test_system_automata_number_cells_in_canonical_key_order(seed):
    from hdabridge.laws import GeneratorConfig, gen_acr, gen_ts
    from hdabridge.util import sorted_by_key

    cfg = GeneratorConfig(seed=seed)
    for index in range(30):
        for h in (ts_to_hda1(gen_ts(index, cfg)), acr_to_hda2(gen_acr(index, cfg))):
            for n in range(h.max_dim + 1):
                keys = [h.cell_keys[cell] for cell in h.cells(n)]
                assert keys == sorted_by_key(keys)


def assert_built_as_by_keys(h, expected):
    """``h`` is the automaton that ``index_complex`` numbers from the sorted
    keys: complex, words, alphabet, initial cell and keys, with every
    table filed in the same order."""
    assert h.complex == expected.complex
    assert list(h.skeleton.faces) == list(expected.skeleton.faces)
    assert list(h.complex.transpositions) == list(expected.complex.transpositions)
    assert h.words == expected.words
    assert (h.alphabet, h.initial) == (expected.alphabet, expected.initial)
    assert h.cell_keys == expected.cell_keys


def ts_by_keys(t):
    return automaton_by_keys(t.states, t.initial, t.events - {STAR},
                             [tr for tr in t.trans if tr[1] != STAR])


def acr_by_keys(a):
    return automaton_by_keys(a.ts.states, a.ts.initial, a.ts.events, a.ts.trans, a.indep)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_system_automata_are_the_automata_by_keys_on_generated_models(seed):
    cfg = GeneratorConfig(seed=seed)
    for index in range(100):
        t, a = gen_ts(index, cfg), gen_acr(index, cfg)
        assert_built_as_by_keys(ts_to_hda1(t), ts_by_keys(t))
        assert_built_as_by_keys(acr_to_hda2(a), acr_by_keys(a))


def test_system_automata_are_the_automata_by_keys_on_the_fixtures():
    for a in (fixture("acr_triple_diamond"), fixture("acr_full_cube"),
              fixture("acr_mutex_square"), Acr(ts=fixture("ts_mutex_square"), indep=frozenset())):
        assert_built_as_by_keys(acr_to_hda2(a), acr_by_keys(a))
    fork = make_ts(["x", "p", "q"], "x", ["a", "b"], [("x", "a", "p"), ("x", "a", "q"), ("p", "b", "x")])
    assert_built_as_by_keys(ts_to_hda1(fork), ts_by_keys(fork))
    completed = idle_completion(fixture("ts_mutex_square"))
    assert_built_as_by_keys(ts_to_hda1(completed, idle=True), ts_by_keys(completed))


# ---------------------------------------------------------------------------
# transition systems
# ---------------------------------------------------------------------------

def test_ts_to_hda1_single_edge():
    t = make_ts(["x", "y"], "x", ["a"], [("x", "a", "y")])
    h = ts_to_hda1(t)
    assert [len(h.cells(n)) for n in range(2)] == [2, 1]
    assert h.label(h.cells(1)[0]) == ("a",)
    assert validate_hda(h).ok
    assert check_strong_labeling(h)


def test_ts_to_hda1_mutex_square():
    h = ts_to_hda1(fixture("ts_mutex_square"))
    assert [len(h.cells(n)) for n in range(2)] == [4, 4]


def test_ts_to_hda1_edge_count_random():
    import random

    rng = random.Random(11)
    for _ in range(20):
        states = [f"s{i}" for i in range(rng.randint(1, 5))]
        events = [f"e{i}" for i in range(rng.randint(0, 3))]
        trans = {(rng.choice(states), e, rng.choice(states))
                 for e in events for _ in range(rng.randint(0, 4))}
        t = make_ts(states, states[0], events, trans)
        assert len(ts_to_hda1(t).cells(1)) == len(t.trans)


def test_hda1_roundtrip_is_identity():
    for t in [fixture("ts_mutex_square"), make_ts(["s"], "s", [], []),
              make_ts(["s", "u"], "s", ["a", "b"],
                      [("s", "a", "u"), ("s", "b", "u"), ("u", "a", "u")])]:
        assert hda1_to_ts(ts_to_hda1(t)) == t


def test_hda1_to_ts_collapses_parallel_edges_with_same_event():
    # two distinct cells with the same endpoints and label become one transition
    from hdabridge.cubical import Hda, PrecubicalComplex, SymmetricCubicalComplex

    complex_ = SymmetricCubicalComplex(
        skeleton=PrecubicalComplex(
            cells={0: range(2), 1: range(2)},
            faces={(1, 0, "-"): [0, 0], (1, 0, "+"): [1, 1]},
            max_dim=1,
        ),
        transpositions={},
    )
    h = Hda(complex=complex_, alphabet=("a",),
            words=[[(), ()], [("a",), ("a",)]],
            initial=CellId(0, 0))
    t = hda1_to_ts(h)
    assert len(t.trans) == 1
    assert not check_strong_labeling(h)


def test_ts_idle_kleisli_ingestion():
    t = fixture("ts_mutex_square")
    done = idle_completion(t)
    with pytest.raises(StarClash):
        ts_to_hda1(done)
    h = ts_to_hda1(done, idle=True)
    assert h == ts_to_hda1(t)
    assert hda1_to_ts(h, idle=True) == done


def test_ts_to_hda1_rejects_non_loop_idle():
    t = make_ts(["x", "y"], "x", [STAR], [("x", STAR, "y")])
    with pytest.raises(StarClash):
        ts_to_hda1(t, idle=True)


# ---------------------------------------------------------------------------
# concurrency automata
# ---------------------------------------------------------------------------

def test_acr_to_hda2_triple_diamond():
    # 4 + 3 + 2 edges across the three overlapping squares
    h = acr_to_hda2(fixture("acr_triple_diamond"))
    assert [len(h.cells(n)) for n in range(3)] == [7, 9, 6]
    assert validate_hda(h).ok
    assert check_deterministic(h, 1)
    assert check_linear_labeling(h)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ts_automaton_is_the_1_skeleton_of_its_acr_automaton(seed):
    # a transition system is an ACR with no independent pairs
    cfg = GeneratorConfig(seed=seed)
    for index in range(cfg.count):
        t = gen_ts(index, cfg)
        assert ts_to_hda1(t) == truncate(acr_to_hda2(Acr(t, frozenset())), 1)


def test_acr_to_hda2_empty_independence():
    h = acr_to_hda2(Acr(ts=fixture("ts_mutex_square"), indep=frozenset()))
    assert len(h.cells(2)) == 0


def test_acr_roundtrip_identity():
    for a in [fixture("acr_triple_diamond"), fixture("acr_full_cube"),
              fixture("acr_mutex_square"), Acr(ts=fixture("ts_mutex_square"), indep=frozenset())]:
        assert hda2_to_acr(acr_to_hda2(a)) == a


def test_hda2_to_acr_single_square():
    h = acr_to_hda2(fixture("acr_mutex_square"))
    a = hda2_to_acr(h)
    assert ("x", "e1", "e2") in a.indep and ("x", "e2", "e1") in a.indep


def test_hda2_to_acr_rejects_nondeterminism():
    t = make_ts(["x", "p", "q"], "x", ["a"], [("x", "a", "p"), ("x", "a", "q")])
    with pytest.raises(NotOneDeterministic):
        hda2_to_acr(ts_to_hda1(t))


# ---------------------------------------------------------------------------
# event structures
# ---------------------------------------------------------------------------

def test_es_to_hda_three_free_events_counts():
    es = fixture("es_three_free_events")
    h = es_to_hda(es)
    got = [len(h.cells(n)) for n in range(4)]
    assert got == [brute_force_es_cells(es, n) for n in range(4)]
    assert got == [8, 12, 12, 6]
    assert validate_hda(h).ok
    assert check_linear_labeling(h)


def test_es_to_hda_conflict_no_square():
    es = make_event_structure("ab", conflicts=[("a", "b")])
    h = es_to_hda(es)
    assert len(h.cells(2)) == 0


def test_es_to_hda_empty():
    h = es_to_hda(make_event_structure(""))
    assert [len(h.cells(n)) for n in range(1)] == [1]


def test_hda_to_es_roundtrip_on_examples():
    for es in [fixture("es_three_free_events"),
               make_event_structure("ab", causes=[("a", "b")]),
               make_event_structure("ab", conflicts=[("a", "b")]),
               make_event_structure("abc", causes=[("a", "b")], conflicts=[("b", "c")]),
               make_event_structure("")]:
        assert hda_to_es(es_to_hda(es)) == es


def test_hda_to_es_from_triple_diamond():
    h = acr_to_hda2(fixture("acr_triple_diamond"))
    es = hda_to_es(h)
    assert es.events == frozenset("abc")
    assert es.leq == frozenset({(e, e) for e in "abc"})
    assert es.conflict == frozenset()


def test_hda_to_es_sequential_path():
    t = make_ts(["x", "y", "z"], "x", ["a", "b"], [("x", "a", "y"), ("y", "b", "z")])
    es = hda_to_es(ts_to_hda1(t))
    assert ("a", "b") in es.leq and ("b", "a") not in es.leq
    assert es.conflict == frozenset()


def test_hda_to_es_words_oracle():
    """Set-based search agrees with explicit run-label enumeration."""
    def word_oracle(h):
        runs = {()}
        frontier = [(h.initial, ())]
        cells_at = {}
        for n in range(1, h.max_dim + 1):
            for cell in h.cells(n):
                cells_at.setdefault(h.zero_ends[cell][0], []).append(cell)
        while frontier:
            vertex, word = frontier.pop()
            for cell in cells_at.get(vertex, ()):
                label = h.label(cell)
                letters = [e for e in label if e != STAR]
                if any(e in word for e in letters):
                    continue
                nxt = word + tuple(letters)
                if len(set(nxt)) != len(nxt):
                    continue
                runs.add(nxt)
                frontier.append((h.zero_ends[cell][1], nxt))
        events = set(h.alphabet)
        leq = set()
        for e in events:
            for e2 in events:
                if e == e2 or all(e in w[:w.index(e2)] for w in runs if e2 in w):
                    leq.add((e, e2))
        conflict = {(e, e2) for e in events for e2 in events
                    if e != e2 and not any(e in w and e2 in w for w in runs)}
        return leq, conflict

    for build in [lambda: acr_to_hda2(fixture("acr_triple_diamond")),
                  lambda: es_to_hda(make_event_structure("abc", causes=[("a", "b")])),
                  lambda: es_to_hda(make_event_structure("abc", conflicts=[("a", "c")])),
                  lambda: ts_to_hda1(fixture("ts_mutex_square"))]:
        h = build()
        es = hda_to_es(h)
        leq, conflict = word_oracle(h)
        assert es.leq == frozenset(leq)
        assert es.conflict == frozenset(conflict)


def hda_to_es_outcomes(automata) -> set:
    """Check ``hda_to_es`` against the frozenset walk: equal structures, or
    errors of the same class and message.  Returns the outcomes' classes."""
    from reference import hda_to_es as reference_hda_to_es

    def outcome(f, h):
        try:
            return f(h)
        except Exception as exc:
            return type(exc), str(exc)

    results = [outcome(hda_to_es, h) for h in automata]
    assert results == [outcome(reference_hda_to_es, h) for h in automata]
    return {r[0] if isinstance(r, tuple) else type(r) for r in results}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hda_to_es_matches_the_frozenset_walk_on_structures(seed):
    cfg = GeneratorConfig(seed=seed)
    automata = [es_to_hda(gen_es(i, cfg)) for i in range(cfg.count)]
    automata += [ts_to_hda1(gen_ts(i, cfg)) for i in range(20)]
    # labels outside the alphabet are fired in runs but are no events
    automata += [dataclasses.replace(h, alphabet=h.alphabet[1:]) for h in automata[:40]]
    assert hda_to_es_outcomes(automata) == {EventStructure, NotPartialOrder}


@pytest.mark.parametrize("seed", [0, 1])
def test_hda_to_es_matches_the_frozenset_walk_on_nets(seed):
    cfg, automata = GeneratorConfig(seed=seed), []
    for i in range(cfg.count):
        try:
            automata.append(pn_to_hda(gen_pn(i, cfg), 60, 3, truncate_cells=True))
        except ExplosionLimit:
            pass
    assert hda_to_es_outcomes(automata) == {EventStructure, NotLinear, NotPartialOrder}


def test_hda_to_es_rejects_nonlinear():
    h = pn_to_hda(fixture("pnet_double_token"), 50, 2)
    with pytest.raises(NotLinear):
        hda_to_es(h)


def test_hda_to_es_never_fired_events_conflict():
    t = make_ts(["x"], "x", ["a", "b"], [])
    with pytest.raises(NotPartialOrder):
        hda_to_es(ts_to_hda1(t))


def test_hda_to_es_reports_the_event_no_run_fires():
    # fixtures/hda_three_free_events.json, with a letter that labels no cell
    h = es_to_hda(fixture("es_three_free_events"))
    with pytest.raises(NotPartialOrder) as exc:
        hda_to_es(dataclasses.replace(h, alphabet=(*h.alphabet, "z")))
    assert str(exc.value).splitlines() == ["event structure: 3 violation(s)", *(
        f"  - conflict not hereditary: 'z'#{e!r} <= 'z'" for e in "abc")]


# ---------------------------------------------------------------------------
# nets and regions
# ---------------------------------------------------------------------------

def region_by_keys(h, flows, tokens_by_state):
    return region_of(flows, {h.vertex_by_state[k]: v for k, v in tokens_by_state.items()})


def expected_nine_regions(h):
    """The nine places of the serialized two-event net, as regions of the
    mutex square automaton."""
    zero = (0, 0)
    return [
        region_by_keys(h, {"e1": zero, "e2": zero}, {"x": 1, "y1": 1, "y2": 1, "z": 1}),   # a
        region_by_keys(h, {"e1": (1, 0), "e2": zero}, {"x": 1, "y1": 0, "y2": 1, "z": 0}),  # b
        region_by_keys(h, {"e1": zero, "e2": (1, 0)}, {"x": 1, "y1": 1, "y2": 0, "z": 0}),  # c
        region_by_keys(h, {"e1": (0, 1), "e2": zero}, {"x": 0, "y1": 1, "y2": 0, "z": 1}),  # d
        region_by_keys(h, {"e1": zero, "e2": (0, 1)}, {"x": 0, "y1": 0, "y2": 1, "z": 1}),  # e
        region_by_keys(h, {"e1": (1, 1), "e2": zero}, {"x": 1, "y1": 1, "y2": 1, "z": 1}),  # f
        region_by_keys(h, {"e1": zero, "e2": (1, 1)}, {"x": 1, "y1": 1, "y2": 1, "z": 1}),  # g
        region_by_keys(h, {"e1": (1, 1), "e2": (1, 1)}, {"x": 1, "y1": 1, "y2": 1, "z": 1}),  # h
        region_by_keys(h, {"e1": zero, "e2": zero}, {"x": 0, "y1": 0, "y2": 0, "z": 0}),   # i
    ]


def test_enumerate_regions_matches_brute_force():
    cycle4 = [(f"s{i}", a, f"s{(i + 1) % 4}") for i, a in enumerate("abcd")]
    # (automaton, caps at which the brute force is cheap enough)
    cases = [
        (ts_to_hda1(fixture("ts_mutex_square")), (1, 2)),
        (acr_to_hda2(fixture("acr_mutex_square")), (1, 2)),
        (ts_to_hda1(make_ts(["s"], "s", [], [])), (1, 2)),
        (es_to_hda(make_event_structure("ab", conflicts=[("a", "b")])), (1, 2)),
        # a self-loop
        (ts_to_hda1(make_ts(["s"], "s", ["a"], [("s", "a", "s")])), (1, 2)),
        # a label on no edge
        (ts_to_hda1(make_ts(["x", "y"], "x", ["a", "b"], [("x", "a", "y")])), (1, 2)),
        # two components
        (ts_to_hda1(make_ts(["w", "x", "y", "z"], "w", ["a", "b"],
                            [("w", "a", "x"), ("y", "b", "z")])), (1, 2)),
        (ts_to_hda1(make_ts(["s0", "s1", "s2", "s3"], "s0", "abcd", cycle4)), (1,)),
        (es_to_hda(make_event_structure("abc")), (1,)),
        # the square of two t's from p=2 to q=2: c and d reach both its ends
        # before t's slot, so it is checked there with t's flow counted twice
        (pn_to_hda(make_pn(["a", "p", "q"], {"a": 1}, ["c", "d", "t"],
                           {"c": {"a": 1}, "d": {"q": 2}, "t": {"p": 1}},
                           {"c": {"p": 2}, "d": {"a": 1}, "t": {"q": 1}}), 10, 2), (1,)),
        # z's slot comes after r, x and y, so its three edges from them
        # prune its flows by three source counts
        (ts_to_hda1(make_ts(["r", "r2", "x", "x2", "y", "y2"], "r", "abz",
                            [("r", "a", "x"), ("r", "b", "y"), ("r", "z", "r2"),
                             ("x", "z", "x2"), ("y", "z", "y2")])), (1,)),
        # a cycle reached the back way: b's slot follows its target r but
        # precedes its source y, so r's count prunes b's flows
        (ts_to_hda1(make_ts(["r", "x", "y"], "r", "abc",
                            [("r", "a", "x"), ("x", "c", "y"), ("y", "b", "r")])), (1, 2)),
        # a's flows are pruned by x's count on x -> y, then checked on y's self-loop
        (ts_to_hda1(make_ts(["x", "y"], "x", "ab",
                            [("x", "a", "y"), ("y", "a", "y"), ("y", "b", "x")])), (1, 2)),
        # the (e, e) square of a 2-token net: e's slot follows the middle
        # marking, the source of one e-edge and the target of the other,
        # and the square is checked at the last slot with e counted twice
        (pn_to_hda(make_pn(["p", "q"], {"p": 2}, ["e"], {"e": {"p": 1}}, {"e": {"q": 1}}), 10, 2),
         (1, 2)),
    ]
    for h, caps in cases:
        for cap in caps:
            assert enumerate_regions(h, cap) == brute_force_regions(h, cap), (h.cell_keys, cap)


# generated automata small enough for the brute force: at most 3^8
# assignments to test
SMALL_CFG = GeneratorConfig(max_states=3, max_events=2, max_places=3)


@st.composite
def small_automata(draw):
    """(automaton, cap): a generated 1-dimensional automaton, a
    2-dimensional one from a generated concurrency automaton or event
    structure, or one of up to 3 dimensions from a generated net, whose
    cells may repeat a letter, at cap 1 or 2."""
    cfg = dataclasses.replace(SMALL_CFG, seed=draw(st.integers(0, 20)))
    index = draw(st.integers(0, 12))
    kind = draw(st.sampled_from(["ts", "acr", "es", "pn"]))
    if kind == "ts":
        h = ts_to_hda1(gen_ts(index, cfg))
    elif kind == "acr":
        h = acr_to_hda2(gen_acr(index, cfg))
    elif kind == "es":
        h = es_to_hda(gen_es(index, cfg))
    else:
        try:
            h = pn_to_hda(gen_pn(index, cfg), 5, 3, truncate_cells=True)
        except ExplosionLimit:
            assume(False)
    cap = draw(st.sampled_from([1, 2]))
    assume((cap + 1) ** (2 * len(h.alphabet) + len(h.cells(0))) <= 3 ** 8)
    return h, cap


def token_automaton(tokens: int):
    """The automaton of one event on ``tokens`` tokens: its n-cells fire
    the event n times at once, up to n = ``tokens``."""
    return pn_to_hda(make_pn(["p", "q"], {"p": tokens}, ["e"], {"e": {"p": 1}}, {"e": {"q": 1}}),
                     10, tokens)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(small_automata())
# a square and a cube over one repeated letter, and two free events' square
@example((token_automaton(2), 2))
@example((token_automaton(3), 2))
@example((es_to_hda(make_event_structure("ab")), 2))
def test_enumerate_regions_matches_brute_force_on_generated_automata(case):
    h, cap = case
    assert enumerate_regions(h, cap) == brute_force_regions(h, cap)


@pytest.mark.parametrize("h,calls,count", [
    (ts_to_hda1(make_ts(range(5), 0, "abcd", [(i, a, i + 1) for i, a in enumerate("abcd")])), 69, 1782),
    # a filled square on a and b, then c and d
    (es_to_hda(make_event_structure("abcd", causes=[("a", "c"), ("b", "c"), ("c", "d")])), 124, 874),
], ids=["chain", "square"])
def test_region_search_asks_each_slot_once_per_reading(monkeypatch, h, calls, count):
    """``options`` is called once per slot and distinct reading of the
    slots it reads (a depth-first search made 4,401 and 2,311 calls; with
    no pruning at a label's own slot, 113 and 183), and it reads nothing
    else: every other earlier slot is hidden from it."""
    readings = []

    def spy(reads, options):
        def counted(pos, partial):
            readings.append((pos, tuple(partial[i] for i in reads[pos])))
            return options(pos, [partial[i] if i in reads[pos] else None for i in range(pos)])
        return level_search(reads, counted)

    monkeypatch.setattr(functors, "level_search", spy)
    regions = enumerate_regions(h, 2)
    assert len(readings) == len(set(readings)) == calls
    monkeypatch.undo()
    assert regions == enumerate_regions(h, 2)
    assert len(regions) == count


def test_region_search_prunes_a_label_as_the_vertex_after_it(monkeypatch):
    """On the 4-label chain at cap 2 each label's edge has its source fixed,
    so the label slot keeps just the flows its target count allows: every
    label level is as large as the vertex level after it (without that
    pruning the levels were 3, 27, 14, 126, 70, 630, 353, 3,177, 1,782)."""
    h = ts_to_hda1(make_ts(range(5), 0, "abcd", [(i, a, i + 1) for i, a in enumerate("abcd")]))
    sizes = []

    def spy(reads, options):
        # a prefix of the slots is searched as its own search, the level of its last slot
        sizes.extend(len(level_search(reads[:n], options)) for n in range(1, len(reads) + 1))
        return level_search(reads, options)

    monkeypatch.setattr(functors, "level_search", spy)
    assert len(enumerate_regions(h, 2)) == 1782
    kinds = [kind for kind, _ in functors.skeleton_slots(h)[0]]
    assert sizes == [3, 14, 14, 70, 70, 353, 353, 1782, 1782]
    assert all(sizes[i] == sizes[i + 1] for i, kind in enumerate(kinds) if kind == "label")


@settings(max_examples=60, derandomize=True, deadline=None)
@given(small_automata())
# one vertex and no events: the regions' sort key reads a single slot
@example((ts_to_hda1(make_ts(["s"], "s", [], [])), 2))
def test_synthesized_net_matches_the_net_built_region_by_region(case):
    h, cap = case
    synth = hda_to_pn(h, cap)
    regions = brute_force_regions(h, cap)
    assert synth.net == reference_net(h, regions)
    assert synthesized_regions(synth) == reference_places(regions)
    assert [synth.place(row) for row in synth.values] == [f"p{i}" for i in range(len(regions))]


def test_nine_places_recovered():
    h = ts_to_hda1(fixture("ts_mutex_square"))
    regions = enumerate_regions(h, 1)
    for reg in expected_nine_regions(h):
        assert reg in regions
        assert region_check(h, reg)


def test_shared_place_region_dies_on_the_square():
    h = acr_to_hda2(fixture("acr_mutex_square"))
    shared = region_by_keys(h, {"e1": (1, 1), "e2": (1, 1)},
                            {"x": 1, "y1": 1, "y2": 1, "z": 1})
    assert not region_check(h, shared)
    assert shared not in enumerate_regions(h, 1)
    # but it survives on the serialized automaton
    h0 = ts_to_hda1(fixture("ts_mutex_square"))
    shared0 = region_by_keys(h0, {"e1": (1, 1), "e2": (1, 1)},
                             {"x": 1, "y1": 1, "y2": 1, "z": 1})
    assert region_check(h0, shared0)


def test_region_antitone_in_cells():
    h0 = ts_to_hda1(fixture("ts_mutex_square"))
    h2 = acr_to_hda2(fixture("acr_mutex_square"))
    r0 = enumerate_regions(h0, 1)
    r2 = enumerate_regions(h2, 1)

    # compare on flow/token data transported through the shared vertex states
    def portable(h, rs):
        names = {c: h.state(c) for c in h.cells(0)}
        return {(r.flows, tuple(sorted((names[c], v) for c, v in r.tokens))) for r in rs}
    assert portable(h2, r2) <= portable(h0, r0)


def test_all_zero_region_always_valid():
    h = acr_to_hda2(fixture("acr_triple_diamond"))
    reg = region_of({a: (0, 0) for a in h.alphabet}, {v: 0 for v in h.cells(0)})
    assert region_check(h, reg)


def test_single_vertex_regions():
    h = ts_to_hda1(make_ts(["s"], "s", [], []))
    regions = enumerate_regions(h, 1)
    assert len(regions) == 2
    assert {r.tokens[0][1] for r in regions} == {0, 1}


def test_pn_to_hda_mutex_and_free():
    h = pn_to_hda(fixture("pnet_two_mutex"), 100, 3)
    assert [len(h.cells(n)) for n in (0, 1, 2)] == [4, 4, 0]
    h2 = pn_to_hda(fixture("pnet_two_free"), 100, 3)
    assert len(h2.cells(2)) == 2
    sq = h2.cells(2)
    assert h2.complex.transpose(sq[0], 0) == sq[1]


def test_pn_to_hda_double_token_square():
    h = pn_to_hda(fixture("pnet_double_token"), 50, 2)
    assert ("e", "e") in {h.label(c) for c in h.cells(2)}


def test_hda_to_pn_synthesis():
    h = ts_to_hda1(fixture("ts_mutex_square"))
    synth = hda_to_pn(h, 1)
    assert validate_pn(synth.net).ok
    assert set(synthesized_regions(synth)) == set(synth.net.places)
    expected = expected_nine_regions(h)
    placed = set(synthesized_regions(synth).values())
    for reg in expected:
        assert reg in placed
    # single vertex: no events, two places
    h1 = ts_to_hda1(make_ts(["s"], "s", [], []))
    synth1 = hda_to_pn(h1, 1)
    assert synth1.net.events == frozenset()
    assert len(synth1.net.places) == 2


def test_synthesized_net_simulates_one_skeleton():
    """The marking graph of the synthesized net simulates the 1-skeleton."""
    for build in [lambda: ts_to_hda1(fixture("ts_mutex_square")),
                  lambda: acr_to_hda2(fixture("acr_mutex_square")),
                  lambda: ts_to_hda1(make_ts(["x", "y"], "x", ["a"], [("x", "a", "y")]))]:
        h = build()
        synth = hda_to_pn(h, 1)

        def marking_of(vertex):
            return Marking.of({p: synth.tokens(p, vertex) for p in synth.net.places})

        for edge in h.cells(1):
            (label,) = h.label(edge)
            src = marking_of(h.skeleton.face(edge, 0, "-"))
            tgt = marking_of(h.skeleton.face(edge, 0, "+"))
            assert covers(src, synth.net.pre[label])
            assert fire(synth.net, src, (label,)) == tgt


# ---------------------------------------------------------------------------
# transposition of the net adjunction
# ---------------------------------------------------------------------------

def test_transpose_identity_unit():
    h = ts_to_hda1(fixture("ts_mutex_square"))
    synth = hda_to_pn(h, 1)
    net = synth.net
    target = pn_to_hda(net, 500, 2)
    ident = PnMorphism(phi={p: p for p in net.places}, psi={e: e for e in net.events})
    unit = transpose_to_hda(ident, synth, net, target)
    assert validate_hda_morphism(unit, h, target).ok
    back = transpose_to_pn(unit, synth, net, target)
    assert back == ident


def test_transpose_roundtrip_small_pair():
    h = ts_to_hda1(make_ts(["x", "y"], "x", ["a"], [("x", "a", "y")]))
    synth = hda_to_pn(h, 1)
    net = make_pn(["p"], {"p": 1}, ["u"], {"u": {"p": 1}}, {"u": {}})
    target = pn_to_hda(net, 50, 2)
    (place,) = [p for p, reg in synthesized_regions(synth).items() if reg == region_of(
        {"a": (1, 0)}, {v: 1 if h.state(v) == "x" else 0 for v in h.cells(0)})]
    f = PnMorphism(phi={"p": place}, psi={"a": "u"})
    assert validate_pn_morphism(f, synth.net, net).ok
    g = transpose_to_hda(f, synth, net, target)
    assert validate_hda_morphism(g, h, target).ok
    assert g.label_map == {"a": "u"}
    f2 = transpose_to_pn(g, synth, net, target)
    assert f2 == f
    g2 = transpose_to_hda(f2, synth, net, target)
    assert g2 == g


def test_transpose_to_hda_rejects_unreachable_marking():
    # the place pulls back to a region with a token at x, but the net starts
    # empty and never marks p
    h = ts_to_hda1(make_ts(["x", "y"], "x", ["a"], [("x", "a", "y")]))
    synth = hda_to_pn(h, 1)
    net = make_pn(["p"], {}, ["u"], {"u": {"p": 1}}, {"u": {}})
    target = pn_to_hda(net, 50, 2)
    (place,) = [p for p, reg in synthesized_regions(synth).items() if reg == region_of(
        {"a": (1, 0)}, {v: 1 if h.state(v) == "x" else 0 for v in h.cells(0)})]
    f = PnMorphism(phi={"p": place}, psi={"a": "u"})
    with pytest.raises(OutOfReachableFragment, match="of vertex 'x' is not reachable"):
        transpose_to_hda(f, synth, net, target)


def test_transpose_to_pn_cap_exceeded():
    h = ts_to_hda1(make_ts(["x", "y"], "x", ["a"], [("x", "a", "y")]))
    synth = hda_to_pn(h, 1)
    net = make_pn(["p"], {"p": 2}, ["u"], {"u": {"p": 2}}, {"u": {}})
    target = pn_to_hda(net, 50, 2)
    by_key = cells_by_key(target)
    g = HdaMorphism(
        cell_map={
            c: DegeneracyWitness(by_key[(Marking.of({"p": 2}) if h.state(c) == "x" else Marking.of({}), ())])
            for c in h.cells(0)
        } | {
            c: DegeneracyWitness(by_key[(Marking.of({"p": 2}), ("u",))])
            for c in h.cells(1)
        },
        label_map={"a": "u"},
    )
    assert validate_hda_morphism(g, h, target).ok
    with pytest.raises(CapExceeded):
        transpose_to_pn(g, synth, net, target)


def test_transpose_to_pn_cap_exceeded_by_a_produced_count():
    # p is empty at the initial vertex; the edge's target reads the two
    # tokens u puts there, one more than the cap
    h = ts_to_hda1(make_ts(["x", "y"], "x", ["a"], [("x", "a", "y")]))
    synth = hda_to_pn(h, 1)
    net = make_pn(["p", "q"], {"q": 1}, ["u"], {"u": {"q": 1}}, {"u": {"p": 2}})
    target = pn_to_hda(net, 50, 2)
    image = {"x": Marking.of({"q": 1}), "y": Marking.of({"p": 2})}
    g = induced_morphism(h, target, {v: target.vertex_by_state[image[h.state(v)]]
                                     for v in h.cells(0)}, {"a": "u"})
    assert validate_hda_morphism(g, h, target).ok
    with pytest.raises(CapExceeded, match="place 'p' pulls back to a region that is not a place"):
        transpose_to_pn(g, synth, net, target)


def test_transpose_to_pn_cap_exceeded_by_a_flow_on_no_cell():
    # b labels no cell, so any flow of b is a region's; w produces two
    # tokens at p, one more than the cap.  Coded as consumed * (cap + 1) +
    # produced, (0, 2) would read as (1, 0), whose region is a place.
    h = ts_to_hda1(make_ts(["x", "y"], "x", ["a", "b"], [("x", "a", "y")]))
    synth = hda_to_pn(h, 1)
    net = make_pn(["p", "q"], {"q": 1}, ["u", "w"], {"u": {"q": 1}, "w": {"q": 1}},
                  {"u": {}, "w": {"p": 2}})
    target = pn_to_hda(net, 50, 2)
    image = {"x": Marking.of({"q": 1}), "y": Marking.of({})}
    g = induced_morphism(h, target, {v: target.vertex_by_state[image[h.state(v)]]
                                     for v in h.cells(0)}, {"a": "u", "b": "w"})
    assert validate_hda_morphism(g, h, target).ok
    with pytest.raises(CapExceeded, match="place 'p' pulls back to a region that is not a place"):
        transpose_to_pn(g, synth, net, target)


def test_map_morphism_hda_to_pn_cap_exceeded():
    # a place of the net at cap 2 holding two tokens pulls back along the
    # identity to a region outside the net at cap 1
    h = ts_to_hda1(make_ts(["x", "y"], "x", ["a"], [("x", "a", "y")]))
    with pytest.raises(CapExceeded):
        map_morphism("hda_to_pn", identity_hda_morphism(h), hda_to_pn(h, 1), hda_to_pn(h, 2))


# ---------------------------------------------------------------------------
# functorial action on morphisms
# ---------------------------------------------------------------------------

def test_map_morphism_identities():
    t = fixture("ts_mutex_square")
    ident = TsMorphism(sigma={s: s for s in t.states}, tau={e: e for e in t.events})
    h = ts_to_hda1(t)
    image = map_morphism("ts_to_hda1", ident, h, h)
    assert image.cell_map == identity_hda_morphism(h).cell_map
    assert validate_hda_morphism(image, h, h).ok


def test_map_morphism_collapsing_diamond():
    src = fixture("ts_mutex_square")
    dst = make_ts(["s", "t"], "s", ["e1"], [("s", "e1", "t")])
    m = TsMorphism(
        sigma={"x": "s", "y1": "t", "y2": "s", "z": "t"},
        tau={"e1": "e1"},
    )
    from hdabridge.models import validate_ts_morphism

    assert validate_ts_morphism(m, src, dst).ok
    h_src, h_dst = ts_to_hda1(src), ts_to_hda1(dst)
    image = map_morphism("ts_to_hda1", m, h_src, h_dst)
    assert validate_hda_morphism(image, h_src, h_dst).ok
    dropped = next(c for c in h_src.cells(1) if h_src.cell_keys[c][1] == ("e2",))
    assert image.cell_map[dropped].stars == (0,)


def test_map_morphism_acr_square_collapse():
    src = fixture("acr_mutex_square")
    dst_ts = make_ts(["s", "t"], "s", ["e1"], [("s", "e1", "t")])
    dst = make_acr(dst_ts.states, "s", dst_ts.events, dst_ts.trans, [])
    from hdabridge.models import AcrMorphism

    m = AcrMorphism(TsMorphism(
        sigma={"x": "s", "y1": "t", "y2": "s", "z": "t"},
        tau={"e1": "e1"},
    ))
    h_src, h_dst = acr_to_hda2(src), acr_to_hda2(dst)
    image = map_morphism("acr_to_hda2", m, h_src, h_dst)
    assert validate_hda_morphism(image, h_src, h_dst).ok
    for cell in h_src.cells(2):
        assert image.cell_map[cell].degenerate


def test_map_morphism_es_roundtrip():
    src = make_event_structure("ab")
    dst = make_event_structure("a")
    from hdabridge.models import EsMorphism

    m = EsMorphism({"a": "a"})
    h_src, h_dst = es_to_hda(src), es_to_hda(dst)
    image = map_morphism("es_to_hda", m, h_src, h_dst)
    assert validate_hda_morphism(image, h_src, h_dst).ok
    back = map_morphism("hda_to_es", image, h_src, h_dst)
    assert back.mapping == m.mapping


def test_map_morphism_pn_dropped_event_degenerates():
    src = make_pn(["p", "q"], {"p": 1, "q": 1}, ["e", "f"],
                  {"e": {"p": 1}, "f": {"q": 1}}, {"e": {}, "f": {}})
    dst = make_pn(["r"], {"r": 1}, ["f"], {"f": {"r": 1}}, {"f": {}})
    m = PnMorphism(phi={"r": "q"}, psi={"f": "f"})
    assert validate_pn_morphism(m, src, dst).ok
    h_src = pn_to_hda(src, 50, 2)
    h_dst = pn_to_hda(dst, 50, 2)
    image = map_morphism("pn_to_hda", m, h_src, h_dst)
    assert validate_hda_morphism(image, h_src, h_dst).ok
    e_edge = next(c for c in h_src.cells(1) if h_src.label(c) == ("e",))
    assert image.cell_map[e_edge].degenerate


def test_map_morphism_into_nondeterministic_target():
    # two a-edges leave x; only the end vertex tells them apart, so an
    # index keyed by start and word alone gets one of the two maps wrong
    src = make_ts(["u", "w"], "u", ["a"], [("u", "a", "w")])
    dst = make_ts(["x", "p", "q"], "x", ["a"], [("x", "a", "p"), ("x", "a", "q")])
    h_src, h_dst = ts_to_hda1(src), ts_to_hda1(dst)
    (edge,) = h_src.cells(1)
    for end in ("q", "p"):
        m = TsMorphism(sigma={"u": "x", "w": end}, tau={"a": "a"})
        image = map_morphism("ts_to_hda1", m, h_src, h_dst)
        base = image.cell_map[edge].base
        assert h_dst.cell_keys[base] == ("x", ("a",))
        assert h_dst.state(h_dst.zero_ends[base][1]) == end
        assert validate_hda_morphism(image, h_src, h_dst).ok


def test_map_morphism_hda_to_pn_keeps_identities():
    h = ts_to_hda1(fixture("ts_mutex_square"))
    synth = hda_to_pn(h, 1)
    image = map_morphism("hda_to_pn", identity_hda_morphism(h), synth, synth)
    assert image == PnMorphism(phi={p: p for p in synth.net.places},
                               psi={a: a for a in h.alphabet})


def test_map_morphism_hda_to_pn_keeps_composites():
    # an edge into the mutex square, then the square onto one edge with e2
    # dropped: the image of the composite is the composite of the images
    edge = make_ts(["u", "w"], "u", ["a"], [("u", "a", "w")])
    square = fixture("ts_mutex_square")
    line = make_ts(["s", "t"], "s", ["e1"], [("s", "e1", "t")])
    a, b, c = ts_to_hda1(edge), ts_to_hda1(square), ts_to_hda1(line)
    f = map_morphism("ts_to_hda1", TsMorphism(sigma={"u": "x", "w": "y1"}, tau={"a": "e1"}), a, b)
    g = map_morphism("ts_to_hda1", TsMorphism(sigma={"x": "s", "y1": "t", "y2": "s", "z": "t"},
                                              tau={"e1": "e1"}), b, c)
    sa, sb, sc = hda_to_pn(a, 1), hda_to_pn(b, 1), hda_to_pn(c, 1)
    whole = map_morphism("hda_to_pn", compose_hda_morphisms(f, g), sa, sc)
    assert validate_pn_morphism(whole, sa.net, sc.net).ok
    assert whole.psi == {"a": "e1"}
    assert whole == compose_pn_morphisms(map_morphism("hda_to_pn", f, sa, sb),
                                         map_morphism("hda_to_pn", g, sb, sc))


def pullback_outcome(pullback):
    """The net morphism ``pullback()`` returns, or its CapExceeded message."""
    try:
        return pullback()
    except CapExceeded as err:
        return str(err)


@pytest.mark.parametrize("caps", [(1, 1), (1, 2), (2, 2)], ids=["cap1", "cap1-into-cap2", "cap2"])
def test_map_morphism_hda_to_pn_matches_the_region_pullback(caps):
    """On generated automata, ``map_morphism("hda_to_pn")`` pulls every
    place of the target net back along each of the 309 automaton morphisms
    as the pullback of ``Region`` objects does, places named by the regions'
    order (``reference_places``).  From a net at cap 1 into one at cap 2
    every pullback raises CapExceeded (the place holding 2 tokens everywhere
    has no preimage), and both must name the same first place."""
    cfg = GeneratorConfig(seed=0)
    automata = [build(gen(i, cfg)) for i in range(5) for build, gen in ((ts_to_hda1, gen_ts),
                                                                        (acr_to_hda2, gen_acr))]
    nets = [[(hda_to_pn(h, cap), reference_places(enumerate_regions(h, cap))) for h in automata]
            for cap in caps]
    outcomes = set()
    for src, src_regions in nets[0]:
        for dst, dst_regions in nets[1]:
            for u in enumerate_hda_morphisms(src.hda, dst.hda):
                expected = pullback_outcome(lambda: place_map(
                    u, src.hda, src_regions, list(dst_regions),
                    lambda p, a: flow(dst_regions[p], a), lambda p, v: tokens_at(dst_regions[p], v)))
                assert pullback_outcome(lambda: map_morphism("hda_to_pn", u, src, dst)) == expected
                outcomes.add(type(expected))
    assert outcomes == ({str} if caps == (1, 2) else {PnMorphism})


def test_automaton_tables_are_built_once_and_stay_out_of_equality():
    h = es_to_hda(make_event_structure("ab"))
    fresh = es_to_hda(make_event_structure("ab"))
    top = h.vertex_by_state[frozenset("ab")]
    square = h.cells(2)[0]
    assert h.zero_ends[square] == (h.initial, top)
    assert h.cell_by_ends[(h.initial, top, h.label(square))] == square
    assert h.zero_ends is h.zero_ends and h.cell_by_ends is h.cell_by_ends
    assert h.vertex_by_state is h.vertex_by_state
    assert h == fresh and repr(h) == repr(fresh)


def test_induced_morphism_refuses_ambiguous_target():
    # a hand-built target with two parallel a-edges from x to y
    doc = {
        "kind": "hda", "format_version": 1, "alphabet": ["a"], "dims": [0, 1],
        "cells": {"0": [0, 1], "1": [0, 1]},
        "faces": {"1,0,-": {"0": 0, "1": 0}, "1,0,+": {"0": 1, "1": 1}},
        "sym": {}, "labels": {"1": {"0": ["a"], "1": ["a"]}}, "initial": 0,
    }
    from hdabridge import jsonio

    _, dst = jsonio.document_to_model(doc)
    src = ts_to_hda1(make_ts(["u", "w"], "u", ["a"], [("u", "a", "w")]))
    vertex_map = {v: CellId(0, 0 if src.state(v) == "u" else 1) for v in src.cells(0)}
    with pytest.raises(ValueError, match="share their 0-ends and label"):
        induced_morphism(src, dst, vertex_map, {"a": "a"})


def test_determinism_and_linearity_checks():
    fork = ts_to_hda1(make_ts(["x", "p", "q"], "x", ["a"],
                              [("x", "a", "p"), ("x", "a", "q")]))
    assert not check_deterministic(fork, 1)
    single = ts_to_hda1(make_ts(["s"], "s", [], []))
    assert check_deterministic(single, 0) and check_deterministic(single, 1)
    assert check_deterministic(acr_to_hda2(fixture("acr_triple_diamond")), 1)
    one_dim = ts_to_hda1(make_ts(["s"], "s", ["a"], [("s", "a", "s")]))
    assert check_linear_labeling(one_dim)
    doubled = pn_to_hda(fixture("pnet_double_token"), 50, 2)
    assert not check_linear_labeling(doubled)
    assert check_strong_labeling(single)


@pytest.mark.parametrize("seed", [0, 1])
def test_linear_labeling_reads_as_cell_by_cell(seed):
    from hdabridge.cubical import word_is_linear

    cfg = GeneratorConfig(seed=seed)
    automata = [es_to_hda(gen_es(i, cfg)) for i in range(20)]
    for i in range(cfg.count):
        try:
            automata.append(pn_to_hda(gen_pn(i, cfg), 60, 3, truncate_cells=True))
        except ExplosionLimit:
            pass
    square = es_to_hda(make_event_structure("ab"))
    idle = [*square.words[:2], [(STAR, STAR)] * len(square.words[2])]
    automata.append(dataclasses.replace(square, words=idle))  # idle letters may repeat
    results = [check_linear_labeling(h) for h in automata]
    assert results == [all(word_is_linear(h.label(c)) for c in h.skeleton.all_cells())
                       for h in automata]
    assert results[-1] and not all(results)


def test_functor_outputs_pass_target_validators():
    assert validate_acr(hda2_to_acr(acr_to_hda2(fixture("acr_triple_diamond")))).ok
    assert validate_es(hda_to_es(ts_to_hda1(fixture("ts_mutex_square")))).ok
    assert validate_ts(hda1_to_ts(ts_to_hda1(fixture("ts_mutex_square")))).ok
    assert validate_pn(hda_to_pn(ts_to_hda1(fixture("ts_mutex_square")), 1).net).ok
    from hdabridge.cubical import validate_hda

    for h in [ts_to_hda1(fixture("ts_mutex_square")), acr_to_hda2(fixture("acr_full_cube")),
              es_to_hda(fixture("es_three_free_events")),
              pn_to_hda(fixture("pnet_two_free"), 100, 2)]:
        assert validate_hda(h).ok


def test_acr_to_hda2_rejects_invalid_acr():
    broken = make_acr(
        states=["x", "p", "q"], initial="x", events=["a", "b"],
        trans=[("x", "a", "p"), ("x", "b", "q")],
        indep=[("x", "a", "b")],  # no closing square
    )
    with pytest.raises(SquareIncomplete):
        acr_to_hda2(broken)


def test_hda2_to_acr_square_incomplete_on_mutated_complex():
    """A square glued onto a stray edge leaves the induced independence
    without its closing transitions."""
    from hdabridge.cubical import Hda, PrecubicalComplex, SymmetricCubicalComplex

    # vertices: x=0, y1=1, y2=2, z=3, w=4
    # edges: a=(x,e1,y1)=0, b=(x,e2,y2)=1, c=(y1,e2,z)=2, d=(w,e1,w)=3
    faces = {
        (1, 0, "-"): [0, 0, 1, 4],
        (1, 0, "+"): [1, 2, 3, 4],
        (2, 0, "-"): [1, 0],
        (2, 0, "+"): [2, 3],   # cell 1's positive face is the stray loop
        (2, 1, "-"): [0, 1],
        (2, 1, "+"): [3, 2],
    }
    complex_ = SymmetricCubicalComplex(
        skeleton=PrecubicalComplex(cells={0: range(5), 1: range(4), 2: range(2)},
                                   faces=faces, max_dim=2),
        transpositions={(2, 0): [1, 0]},
    )
    words = [[()] * 5, [("e1",), ("e2",), ("e2",), ("e1",)], [("e1", "e2"), ("e2", "e1")]]
    h = Hda(complex=complex_, alphabet=("e1", "e2"), words=words, initial=CellId(0, 0))
    with pytest.raises(SquareIncomplete):
        hda2_to_acr(h)

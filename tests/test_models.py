import itertools

import pytest
from hypothesis import given, settings, strategies as st

from hdabridge import zoo
from hdabridge.cts import pn_to_cts
from hdabridge.cubical import STAR
from hdabridge.errors import ExplosionLimit, StarClash
from hdabridge.models import (
    AcrMorphism,
    EsMorphism,
    Marking,
    PnMorphism,
    TsMorphism,
    compose_pn_morphisms,
    compose_ts_morphisms,
    configurations,
    identity_pn_morphism,
    identity_ts_morphism,
    idle_completion,
    make_acr,
    make_event_structure,
    make_pn,
    make_ts,
    reachable_markings,
    validate_acr,
    validate_acr_morphism,
    validate_es,
    validate_es_morphism,
    validate_pn,
    validate_pn_morphism,
    validate_ts,
    validate_ts_morphism,
)
from hdabridge.laws import GeneratorConfig, gen_es, gen_pn
from hdabridge.util import sorted_by_key
from helpers import reference_markings
from reference import NotEnabled, covers, fire, marking_minus, marking_plus, validate_morphism, word_pre


def diamond_acr():
    # a and c commute at x, b and c commute at x, a and b commute after c
    return make_acr(
        states=["x", "x1", "x2", "x3", "y1", "y2", "y"],
        initial="x",
        events=["a", "b", "c"],
        trans=[
            ("x", "a", "x1"), ("x", "b", "x2"), ("x", "c", "x3"),
            ("x1", "c", "y1"), ("x2", "c", "y2"),
            ("x3", "a", "y1"), ("x3", "b", "y2"),
            ("y1", "b", "y"), ("y2", "a", "y"),
        ],
        indep=[("x", "a", "c"), ("x", "b", "c"), ("x3", "a", "b")],
    )


def test_validate_ts_accepts_and_rejects():
    t = make_ts(["s"], "s", [], [])
    assert validate_ts(t).ok
    bad = make_ts(["s"], "missing", ["a"], [("s", "a", "t")])
    report = validate_ts(bad)
    assert len(report.violations) == 2


def test_acr_diamond_is_valid():
    assert validate_acr(diamond_acr()).ok


def test_acr_missing_square_reported():
    a = make_acr(
        states=["x", "p", "q"],
        initial="x",
        events=["a", "b"],
        trans=[("x", "a", "p"), ("x", "b", "q")],
        indep=[("x", "a", "b")],
    )
    report = validate_acr(a)
    assert any("does not close" in v or "not both enabled" in v for v in report.violations)


def test_acr_determinism_violation():
    a = make_acr(["x", "p", "q"], "x", ["a"],
                 [("x", "a", "p"), ("x", "a", "q")], [])
    assert any("nondeterministic" in v for v in validate_acr(a).violations)


def test_es_hereditary_violation_detected():
    es = make_event_structure("abc", causes=[("b", "c")], conflicts=[("a", "b")])
    assert validate_es(es).ok
    # drop the inherited pair to break hereditariness
    broken = es.conflict - {("a", "c"), ("c", "a")}
    from hdabridge.models import EventStructure
    bad = EventStructure(events=es.events, leq=es.leq, conflict=frozenset(broken))
    assert any("hereditary" in v for v in validate_es(bad).violations)


def test_configurations_oracle_three_concurrent():
    es = make_event_structure("abc")
    expected = {frozenset(c) for k in range(4) for c in itertools.combinations("abc", k)}
    assert set(configurations(es)) == expected


def test_configurations_sequential_and_conflict():
    seq = make_event_structure("ab", causes=[("a", "b")])
    assert set(configurations(seq)) == {frozenset(), frozenset("a"), frozenset("ab")}
    conf = make_event_structure("ab", conflicts=[("a", "b")])
    assert set(configurations(conf)) == {frozenset(), frozenset("a"), frozenset("b")}


def test_event_causes_table_is_built_once_and_stays_out_of_equality():
    es = make_event_structure("abc", causes=[("a", "b"), ("b", "c")])
    fresh = make_event_structure("abc", causes=[("a", "b"), ("b", "c")])
    assert es.causes == {"b": {"a"}, "c": {"a", "b"}}
    assert es.causes is es.causes
    assert es == fresh and hash(es) == hash(fresh)
    assert "causes" not in vars(fresh)


def one_way_conflict_es():
    """a # c but not c # a, and b caused by a name outside the events:
    not a valid structure, but one the mask walks must read as the frozenset
    walks do."""
    from hdabridge.models import EventStructure
    return EventStructure(events=frozenset("abcd"),
                          leq=frozenset({(e, e) for e in "abcd"} | {("a", "d"), ("z", "b")}),
                          conflict=frozenset({("a", "c")}))


def test_event_masks_follow_canonical_ranks_and_stay_out_of_equality():
    es = make_event_structure("cab", causes=[("a", "c")], conflicts=[("a", "b")])
    # a, b, c are bits 1, 2, 4; each blocks itself and what it conflicts
    # with, and by heredity c conflicts with b
    assert es.masks == {"a": (1, 3, 0), "b": (2, 7, 0), "c": (4, 6, 1)}
    assert list(es.masks) == ["a", "b", "c"] and es.masks is es.masks
    assert es == make_event_structure("abc", causes=[("a", "c")], conflicts=[("a", "b")])
    # a cause that is no event sets a bit past the events': b is never enabled
    assert one_way_conflict_es().masks["b"][2] == 16


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_configurations_match_the_frozenset_walk(seed):
    from reference import configurations as reference_configurations
    cfg = GeneratorConfig(seed=seed)
    models = [gen_es(i, cfg) for i in range(100)] + [one_way_conflict_es()]
    for es in models:
        assert configurations(es) == reference_configurations(es)
    assert configurations(one_way_conflict_es()) == {
        frozenset(x) for x in ["", "a", "c", "ac", "ad", "acd"]}


def test_configurations_closed_under_intersection():
    es = make_event_structure("abcd", causes=[("a", "b"), ("c", "d")], conflicts=[("b", "d")])
    assert validate_es(es).ok
    configs = configurations(es)
    assert frozenset() in configs
    for c1 in configs:
        for c2 in configs:
            assert c1 & c2 in configs


def test_idle_completion_counts_and_clash():
    t = make_ts(["s"], "s", [], [])
    done = idle_completion(t)
    assert done.trans == frozenset({("s", STAR, "s")})
    with pytest.raises(StarClash):
        idle_completion(done)


def test_idle_completion_random_count_identity():
    import random

    rng = random.Random(7)
    for _ in range(20):
        states = [f"s{i}" for i in range(rng.randint(1, 6))]
        events = [f"e{i}" for i in range(rng.randint(0, 4))]
        trans = {
            (rng.choice(states), e, rng.choice(states))
            for e in events for _ in range(rng.randint(0, 3))
        }
        t = make_ts(states, states[0], events, trans)
        assert len(idle_completion(t).trans) == len(t.trans) + len(t.states)


# ---------------------------------------------------------------------------
# markings and firing
# ---------------------------------------------------------------------------

def two_mutex_net():
    return make_pn(
        places="abcdefghi",
        m0={"a": 1, "b": 1, "c": 1, "f": 1, "g": 1, "h": 1},
        events=["e1", "e2"],
        pre={"e1": {"b": 1, "f": 1, "h": 1}, "e2": {"c": 1, "g": 1, "h": 1}},
        post={"e1": {"d": 1, "f": 1, "h": 1}, "e2": {"e": 1, "g": 1, "h": 1}},
    )


def test_fire_empty_word_is_identity():
    n = two_mutex_net()
    assert fire(n, n.m0, ()) == n.m0
    assert fire(n, n.m0, (STAR,)) == n.m0


def test_fire_moves_tokens():
    n = two_mutex_net()
    m = fire(n, n.m0, ("e1",))
    assert m.get("b") == 0 and m.get("d") == 1
    assert m.get("f") == 1 and m.get("h") == 1


def test_fire_not_enabled_reports_place():
    n = two_mutex_net()
    after = fire(n, n.m0, ("e1",))
    with pytest.raises(NotEnabled) as err:
        fire(n, after, ("e1",))
    assert err.value.place == "b"


def test_fire_order_independent():
    import random

    rng = random.Random(3)
    for _ in range(15):
        places = [f"p{i}" for i in range(rng.randint(1, 4))]
        events = [f"e{i}" for i in range(rng.randint(1, 3))]
        pre = {e: {p: rng.randint(0, 1) for p in places} for e in events}
        post = {e: {p: rng.randint(0, 2) for p in places} for e in events}
        m0 = {p: rng.randint(0, 3) for p in places}
        n = make_pn(places, m0, events, pre, post)
        for w in itertools.product(events, repeat=3):
            try:
                whole = fire(n, n.m0, w)
            except NotEnabled:
                continue
            stepped = n.m0
            for e in w:
                stepped = fire(n, stepped, (e,))
            assert stepped == whole
            for perm in itertools.permutations(w):
                assert fire(n, n.m0, perm) == whole


def test_reachable_markings_two_mutex():
    graph = reachable_markings(two_mutex_net(), 100)
    assert len(graph.markings) == 4
    # closure: every enabled event from a stored marking stays stored
    n = two_mutex_net()
    for m in graph.markings:
        for e in n.events:
            if covers(m, n.pre[e]):
                assert marking_plus(marking_minus(m, n.pre[e]), n.post[e]) in graph.markings


def test_reachable_markings_explosion():
    n = make_pn(["p"], {}, ["e"], {"e": {}}, {"e": {"p": 1}})
    with pytest.raises(ExplosionLimit):
        reachable_markings(n, 50)


def test_reachable_markings_limit_is_the_number_of_markings():
    n = zoo.double_token_net()  # p=2, then p=1 q=1, then q=2
    assert len(reachable_markings(n, 3).markings) == 3
    with pytest.raises(ExplosionLimit, match="more than 2 reachable markings"):
        reachable_markings(n, 2)


def test_reachable_markings_no_events():
    n = make_pn(["p"], {"p": 1}, [], {}, {})
    graph = reachable_markings(n, 10)
    assert graph.markings == frozenset({n.m0})


def mixed_places_net():
    """Places whose canonical order (ints by value, then strings) is not
    their order by name, and pre conditions naming places outside
    ``places``: "ghost", which v fills, and "void", which nothing fills, so
    w is never enabled.  The cycle t, v, u returns to m0."""
    return make_pn([10, 2, "B", "a"], {10: 1, 2: 1, "a": 2}, ["t", "u", "v", "w"],
                   {"t": {"a": 1, 10: 1}, "u": {"ghost": 1, 2: 1}, "v": {"B": 1},
                    "w": {"void": 1, "a": 1}},
                   {"t": {"B": 1, 2: 1}, "u": {"a": 1}, "v": {"ghost": 1, 10: 1}, "w": {}})


NETS = st.one_of(
    st.just(mixed_places_net()),
    st.builds(lambda seed, index: gen_pn(index, GeneratorConfig(seed=seed)),
              st.integers(0, 9), st.integers(0, 60)),
)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(NETS, st.integers(1, 30))
def test_token_vectors_agree_with_marking_arithmetic(n, max_states):
    try:
        markings, steps = reference_markings(n, max_states)
    except ExplosionLimit:
        with pytest.raises(ExplosionLimit):
            reachable_markings(n, max_states)
        return
    # Marking equality compares items, so a marking built out of canonical
    # order is missing from the reference's set
    graph = reachable_markings(n, max_states)
    assert (graph.markings, graph.steps) == (markings, steps)

    cts = pn_to_cts(n, max_states)
    events = sorted_by_key(n.events)
    words = [w for k in range(4) for w in itertools.combinations_with_replacement(events, k)]
    for m in markings:
        for w in words:
            assert cts.enabled(m, w) == covers(m, word_pre(n, w)), (m, w)
    more = {marking_plus(m, Marking.of({p: 1})) for m in markings for p in n.vectors.places}
    for m in more - markings:
        assert not any(cts.enabled(m, w) for w in words), m


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------

def test_identity_morphisms_validate():
    a = diamond_acr()
    assert validate_ts_morphism(identity_ts_morphism(a.ts), a.ts, a.ts).ok
    assert validate_acr_morphism(AcrMorphism(identity_ts_morphism(a.ts)), a, a).ok
    n = two_mutex_net()
    assert validate_pn_morphism(identity_pn_morphism(n), n, n).ok
    es = make_event_structure("ab", causes=[("a", "b")])
    assert validate_es_morphism(EsMorphism({e: e for e in es.events}), es, es).ok


def test_ts_morphism_undefined_event_needs_collapse():
    src = make_ts(["s", "t"], "s", ["a"], [("s", "a", "t")])
    dst = make_ts(["u"], "u", [], [])
    ok = TsMorphism(sigma={"s": "u", "t": "u"}, tau={})
    assert validate_ts_morphism(ok, src, dst).ok
    dst2 = make_ts(["u", "v"], "u", [], [])
    bad = TsMorphism(sigma={"s": "u", "t": "v"}, tau={})
    assert not validate_ts_morphism(bad, src, dst2).ok


def test_es_morphism_collapse_violation():
    src = make_event_structure("ab")  # a, b concurrent
    dst = make_event_structure("c")
    m = EsMorphism({"a": "c", "b": "c"})
    report = validate_es_morphism(m, src, dst)
    assert not report.ok


def test_pn_morphism_conditions():
    n = two_mutex_net()
    # drop h from the target: phi embeds the remaining places
    sub = make_pn(
        places="abcdefgi",
        m0={"a": 1, "b": 1, "c": 1, "f": 1, "g": 1},
        events=["e1", "e2"],
        pre={"e1": {"b": 1, "f": 1}, "e2": {"c": 1, "g": 1}},
        post={"e1": {"d": 1, "f": 1}, "e2": {"e": 1, "g": 1}},
    )
    m = PnMorphism(phi={p: p for p in sub.places}, psi={"e1": "e1", "e2": "e2"})
    assert validate_pn_morphism(m, n, sub).ok


def test_pn_morphism_dropped_event_rule():
    # a dropped event reads as the idle word: zero pre and post through phi
    src = make_pn(["p", "q"], {"p": 1}, ["e"], {"e": {"p": 1}}, {"e": {"q": 1}})
    dst = make_pn(["r"], {"r": 1}, [], {}, {})
    visible = PnMorphism(phi={"r": "p"}, psi={})
    assert not validate_pn_morphism(visible, src, dst).ok
    dst2 = make_pn(["r"], {}, [], {}, {})
    invisible = PnMorphism(phi={"r": "q"}, psi={})
    assert not validate_pn_morphism(invisible, src, dst2).ok  # q gains a token
    src2 = make_pn(["p", "q"], {"p": 1}, ["e"], {"e": {"p": 1}}, {"e": {"p": 1}})
    side_loop = PnMorphism(phi={"r": "p"}, psi={})
    dst3 = make_pn(["r"], {"r": 1}, [], {}, {})
    assert not validate_pn_morphism(side_loop, src2, dst3).ok  # pre through phi nonzero
    untouched = PnMorphism(phi={"r": "q"}, psi={})
    assert validate_pn_morphism(untouched, src2, dst2).ok


def test_morphism_composition_valid():
    a = diamond_acr()
    f = identity_ts_morphism(a.ts)
    assert validate_ts_morphism(compose_ts_morphisms(f, f), a.ts, a.ts).ok
    n = two_mutex_net()
    g = identity_pn_morphism(n)
    assert validate_pn_morphism(compose_pn_morphisms(g, g), n, n).ok


def test_validate_morphism_dispatch():
    a = diamond_acr()
    assert validate_morphism("ts", identity_ts_morphism(a.ts), a.ts, a.ts).ok
    with pytest.raises(ValueError):
        validate_morphism("nope", None, None, None)


def test_marking_arithmetic():
    m = Marking.of({"p": 2, "q": 1})
    n = Marking.of({"p": 1})
    assert marking_minus(m, n).to_dict() == {"p": 1, "q": 1}
    assert marking_plus(m, n).get("p") == 3
    assert covers(m, n) and not covers(n, m)
    assert Marking.of({"p": 0}).items == ()


def test_marking_lookup_takes_no_part_in_equality_or_hashing():
    m = Marking.of({"p": 2, "q": 1})
    before = (hash(m), repr(m))
    assert [m.get(p) for p in ("p", "q", "r", "p")] == [2, 1, 0, 2]
    assert (hash(m), repr(m)) == before
    assert m == Marking.of({"q": 1, "p": 2}) and len({m, Marking.of({"q": 1, "p": 2})}) == 1


def test_acr_and_es_morphism_composition():
    from hdabridge.models import (
        compose_acr_morphisms,
        compose_es_morphisms,
        identity_acr_morphism,
        identity_es_morphism,
    )

    a = diamond_acr()
    ia = identity_acr_morphism(a)
    assert validate_acr_morphism(compose_acr_morphisms(ia, ia), a, a).ok
    es = make_event_structure("abc", causes=[("a", "b")])
    ie = identity_es_morphism(es)
    assert validate_es_morphism(compose_es_morphisms(ie, ie), es, es).ok
    # a genuinely partial composite
    mid = make_event_structure("ab", causes=[("a", "b")])
    f = EsMorphism({"a": "a", "b": "b"})
    g = EsMorphism({"a": "a"})
    assert validate_es_morphism(f, mid, mid).ok
    assert validate_es_morphism(g, mid, mid).ok
    gf = compose_es_morphisms(f, g)
    assert gf.mapping == {"a": "a"}
    assert validate_es_morphism(gf, mid, mid).ok


from hypothesis import given, strategies as st

from helpers import fixpoint_event_structure

markings = st.dictionaries(st.sampled_from("pqrs"), st.integers(min_value=0, max_value=5))


@given(markings, markings, markings)
def test_marking_addition_laws(a, b, c):
    ma, mb, mc = Marking.of(a), Marking.of(b), Marking.of(c)
    assert marking_plus(ma, mb) == marking_plus(mb, ma)
    assert marking_plus(marking_plus(ma, mb), mc) == marking_plus(ma, marking_plus(mb, mc))
    assert marking_plus(ma, Marking.of({})) == ma
    assert marking_minus(marking_plus(ma, mb), mb) == ma
    assert covers(marking_plus(ma, mb), ma)


names = st.sampled_from("abcdefg")
pairs = st.lists(st.tuples(names, names), max_size=8)


@given(st.sets(st.sampled_from("abcde")), pairs, pairs)
def test_make_event_structure_matches_fixpoint_closure(events, causes, conflicts):
    """Names outside ``events`` ("f", "g", and unpicked letters) are closed
    as the generating relations give them."""
    es = make_event_structure(events, causes, conflicts)
    assert (es.leq, es.conflict) == fixpoint_event_structure(events, causes, conflicts)

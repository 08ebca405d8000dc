import itertools
import random

import pytest

from hdabridge.cubical import (
    SIGNS,
    STAR,
    CellId,
    DegeneracyWitness,
    Hda,
    PrecubicalComplex,
    SymmetricCubicalComplex,
    index_complex,
    validate_hda,
)
from hdabridge.errors import ExplosionLimit, SizeLimit, SquareIncomplete, StarClash
from hdabridge.functors import (
    HdaMorphism,
    acr_to_hda2,
    es_to_hda,
    pn_to_hda,
    ts_to_hda1,
    validate_hda_morphism,
)
from hdabridge.laws import (
    GENERATORS,
    VALIDATORS,
    GeneratorConfig,
    _canon_hda_morphism,
    canonical_acr,
    canonical_ts,
    check_adjunction_pn_hda,
    check_comonad_identity,
    check_kleisli_lift,
    enumerate_hda_morphisms,
    enumerate_pn_morphisms,
    gen_acr,
    gen_es,
    gen_pn,
    gen_ts,
    iso_check,
    run_law,
)
from hdabridge.models import Acr, idle_completion, make_event_structure, make_pn, make_ts
from hdabridge.util import sorted_by_key
from hdabridge import laws, zoo
from reference import check_strong_labeling, iso_by_cells, pn_isomorphisms, pn_morphism_space, pn_morphisms


CFG = GeneratorConfig(seed=0, count=30)


def test_generators_always_valid():
    for kind, gen in GENERATORS.items():
        for i in range(40):
            model = gen(i, CFG)
            assert VALIDATORS[kind](model).ok, (kind, i)


def test_generators_deterministic():
    for kind, gen in GENERATORS.items():
        assert gen(17, CFG) == gen(17, CFG)
        assert gen(17, CFG) == gen(17, GeneratorConfig(seed=0, count=999))


def test_generator_degenerate_coverage():
    assert gen_ts(0, CFG).events == frozenset()
    assert ("s", "a", "s") in gen_ts(1, CFG).trans          # self-loop
    assert len(gen_es(4, CFG).conflict) == 6                # conflict triangle
    unbounded = gen_pn(2, CFG)
    assert unbounded.m0.items == ()                          # unbounded fragment


def test_canonical_ts_renames_isomorphic_copies_equally():
    t = zoo.mutex_square_ts()
    renamed = make_ts(
        ["A", "B", "C", "D"], "A", ["e1", "e2"],
        [("A", "e1", "B"), ("A", "e2", "C"), ("B", "e2", "D"), ("C", "e1", "D")],
    )
    assert canonical_ts(t) == canonical_ts(renamed)


def test_comonad_identity_suites():
    for kind in ("sTS", "ACR", "ES"):
        report = check_comonad_identity(kind, CFG)
        assert report.passed, str(report)
        assert report.instances == CFG.count


def test_comonad_identity_named_examples():
    report = check_comonad_identity("ACR", GeneratorConfig(seed=5, count=10))
    assert report.passed
    from hdabridge.functors import hda2_to_acr

    assert hda2_to_acr(acr_to_hda2(zoo.triple_diamond_acr())) == zoo.triple_diamond_acr()


def test_kleisli_lift_suite():
    report = check_kleisli_lift(CFG)
    assert report.passed, str(report)


def adjunction_pairs():
    single_edge = ts_to_hda1(make_ts(["x", "y"], "x", ["a"], [("x", "a", "y")]))
    one_event_net = make_pn(["p"], {"p": 1}, ["u"], {"u": {"p": 1}}, {"u": {}})
    square = acr_to_hda2(zoo.mutex_square_acr(True))
    mutex = zoo.two_mutex_net()
    return [(single_edge, one_event_net), (square, one_event_net),
            (single_edge, mutex)]


def test_adjunction_pn_hda_fixture_pairs():
    report = check_adjunction_pn_hda(adjunction_pairs(), cap=1, max_states=100, max_dim=2)
    assert report.passed, str(report)
    assert report.instances == 3


def test_run_law_counts_a_size_limit_as_skipped():
    def check(instance):
        if instance == "b":
            raise SizeLimit("too large")

    report = run_law("demo", 4, "abc", check)
    assert report.to_json() == {"law": "demo", "instances": 3, "skipped": 1, "passed": True,
                                "seed": 4, "counterexample": None}


def test_run_law_stops_at_the_first_counterexample():
    checked = []

    def check(instance):
        checked.append(instance)
        if instance in "ce":
            return {"instance": instance}

    report = run_law("demo", 0, "abcde", check)
    assert not report.passed
    assert report.counterexample == {"index": 2, "instance": "c"}
    assert (report.instances, checked) == (3, ["a", "b", "c"])


def test_forced_adjunction_failure_names_its_pair(monkeypatch):
    monkeypatch.setattr(laws, "transpose_to_pn", lambda g, synth, net, target: None)
    report = laws.SUITES["adjunction-pn"](CFG)
    assert not report.passed
    assert report.counterexample == {"index": 0, "reason": "pn roundtrip differs"}
    assert report.instances == 1


def _small_nets(seed):
    return [gen_pn(i, GeneratorConfig(seed=seed, max_places=3)) for i in range(20)]


def _morphism_key(m):
    return tuple(sorted(m.phi.items())), tuple(sorted(m.psi.items()))


@pytest.mark.parametrize("seed,members", [(0, 805), (1, 357)])
def test_net_morphism_search_matches_brute_force(seed, members):
    # every ordered pair of the seed's nets whose brute-force space is small
    pairs = homs = 0
    for src in _small_nets(seed):
        for dst in _small_nets(seed):
            if pn_morphism_space(src, dst) > 2000:
                continue
            found = [_morphism_key(m) for m in enumerate_pn_morphisms(src, dst)]
            assert len(set(found)) == len(found)
            assert set(found) == {_morphism_key(m) for m in pn_morphisms(src, dst)}
            pairs += 1
            homs += len(found)
    assert (pairs, homs) == (400, members)


def _renamed_places(n):
    """A copy of ``n`` whose places are renamed in reverse canonical order."""
    places = sorted_by_key(n.places)
    rename = dict(zip(places, [f"r{k}" for k in reversed(range(len(places)))]))

    def image(m):
        return {rename[p]: c for p, c in m.items}

    return make_pn(rename.values(), image(n.m0), n.events,
                   {e: image(n.pre[e]) for e in n.events}, {e: image(n.post[e]) for e in n.events})


@pytest.mark.parametrize("seed", [0, 1])
def test_net_iso_check_matches_a_search_over_place_bijections(seed):
    nets = _small_nets(seed)
    nets += [_renamed_places(n) for n in nets]
    found = 0
    for a in nets:
        for b in nets:
            m = iso_check(a, b)
            isos = pn_isomorphisms(a, b)
            assert (m is None) == (not isos)
            if m is not None:
                assert m in isos
                found += 1
    assert found > len(nets)


def test_hom_sets_nonempty_and_matching():
    source = ts_to_hda1(make_ts(["x", "y"], "x", ["a"], [("x", "a", "y")]))
    net = make_pn(["p"], {"p": 1}, ["u"], {"u": {"p": 1}}, {"u": {}})
    from hdabridge.functors import hda_to_pn

    synth = hda_to_pn(source, 1)
    target = pn_to_hda(net, 50, 2)
    pn_homs = enumerate_pn_morphisms(synth.net, net)
    hda_homs = enumerate_hda_morphisms(source, target)
    assert len(pn_homs) == len(hda_homs) > 0


def test_iso_check_self_rename():
    t = zoo.mutex_square_ts()
    renamed = make_ts(
        ["A", "B", "C", "D"], "A", ["e1", "e2"],
        [("A", "e1", "B"), ("A", "e2", "C"), ("B", "e2", "D"), ("C", "e1", "D")],
    )
    m = iso_check(t, renamed)
    assert m is not None and m["x"] == "A"
    assert iso_check(zoo.three_free_events_es(), make_event_structure("abc")) is not None


def test_iso_check_square_vs_disjoint_edges():
    square = ts_to_hda1(zoo.mutex_square_ts())
    scattered = ts_to_hda1(make_ts(
        ["x", "y", "u", "v"], "x", ["e1", "e2"],
        [("x", "e1", "y"), ("u", "e2", "v"), ("x", "e2", "y"), ("u", "e1", "v")],
    ))
    assert iso_check(square, scattered) is None


def test_iso_check_net_hda_vs_acr_hda():
    left = pn_to_hda(zoo.two_mutex_net(), 100, 2, truncate_cells=True)
    right = acr_to_hda2(zoo.mutex_square_acr(independent=False))
    assert iso_check(left, right) is not None
    # with the shared place gone the square appears and the automata differ
    free = pn_to_hda(zoo.two_mutex_net(shared_place=False), 100, 2)
    assert iso_check(free, right) is None
    assert iso_check(free, acr_to_hda2(zoo.mutex_square_acr(True))) is not None


def test_iso_check_respects_labels():
    a = ts_to_hda1(make_ts(["x", "y"], "x", ["a"], [("x", "a", "y")]))
    b = ts_to_hda1(make_ts(["x", "y"], "x", ["b"], [("x", "b", "y")]))
    assert iso_check(a, b) is None


def test_iso_check_size_limit():
    big = ts_to_hda1(gen_ts(50, GeneratorConfig(seed=1, max_states=8)))
    with pytest.raises(SizeLimit):
        iso_check(big, big, node_limit=1)


def test_reports_replay_from_seed():
    r1 = check_comonad_identity("sTS", GeneratorConfig(seed=3, count=12))
    r2 = check_comonad_identity("sTS", GeneratorConfig(seed=3, count=12))
    assert r1.to_json() == r2.to_json()


def test_failing_report_carries_replayable_counterexample(monkeypatch):
    """Sabotage the readback to confirm the counterexample machinery."""
    import hdabridge.laws as laws_module
    from hdabridge import jsonio
    from hdabridge.functors import hda1_to_ts as real
    from hdabridge.models import TransitionSystem
    from hdabridge.util import sorted_by_key

    def drop_one_transition(h, idle=False):
        t = real(h, idle=idle)
        trans = sorted_by_key(t.trans)
        return TransitionSystem(states=t.states, initial=t.initial,
                                events=t.events,
                                trans=frozenset(trans[1:]) if trans else t.trans)

    monkeypatch.setattr(laws_module, "hda1_to_ts", drop_one_transition)
    report = laws_module.check_comonad_identity("sTS", GeneratorConfig(seed=0, count=20))
    assert not report.passed
    assert report.counterexample is not None
    # replay: the serialized model still fails the (broken) roundtrip
    _, model = jsonio.document_to_model(report.counterexample["model"])
    from hdabridge.functors import ts_to_hda1

    again = drop_one_transition(ts_to_hda1(model))
    assert laws_module.canonical_ts(again) != laws_module.canonical_ts(model)


def test_functor_outputs_valid_on_random_corpus():
    """Every translation output passes its target's validator on the
    generated corpus, translations are strongly labeled where promised,
    and concurrency automata stay 1-deterministic."""
    from hdabridge.cubical import check_deterministic, check_linear_labeling, validate_hda
    from hdabridge.functors import es_to_hda, hda_to_es, ts_to_hda1
    from hdabridge.models import validate_es

    cfg = GeneratorConfig(seed=2, count=0)
    for i in range(20):
        t = gen_ts(i, cfg)
        h = ts_to_hda1(t)
        assert validate_hda(h).ok
        assert check_strong_labeling(h)
    for i in range(20):
        a = gen_acr(i, cfg)
        h = acr_to_hda2(a)
        assert validate_hda(h).ok
        assert check_deterministic(h, 1)
    for i in range(20):
        es = gen_es(i, cfg)
        h = es_to_hda(es)
        assert validate_hda(h).ok
        assert check_linear_labeling(h)
        assert validate_es(hda_to_es(h)).ok


def test_iso_check_pn_rename():
    net = zoo.two_mutex_net()
    renamed = make_pn(
        places=[p.upper() for p in "abcdefghi"],
        m0={"A": 1, "B": 1, "C": 1, "F": 1, "G": 1, "H": 1},
        events=["e1", "e2"],
        pre={"e1": {"B": 1, "F": 1, "H": 1}, "e2": {"C": 1, "G": 1, "H": 1}},
        post={"e1": {"D": 1, "F": 1, "H": 1}, "e2": {"E": 1, "G": 1, "H": 1}},
    )
    m = iso_check(net, renamed)
    assert m is not None and m["b"] == "B"
    other = make_pn(["p"], {"p": 1}, ["e1", "e2"], {"e1": {}, "e2": {}},
                    {"e1": {}, "e2": {}})
    assert iso_check(net, other) is None


def brute_force_hda_homs(src, dst):
    """Every label map and every witness assignment, kept when it passes
    validate_hda_morphism."""
    labels = sorted_by_key(src.alphabet)
    label_targets = [STAR] + sorted_by_key(dst.alphabet)
    cells = list(src.skeleton.all_cells())

    def witnesses(n):
        return [DegeneracyWitness(base, stars)
                for d in range(min(n, dst.max_dim) + 1) for base in dst.cells(d)
                for stars in itertools.combinations(range(n), n - d)]

    found = set()
    for lam in itertools.product(label_targets, repeat=len(labels)):
        for images in itertools.product(*(witnesses(c.dim) for c in cells)):
            m = HdaMorphism(cell_map=dict(zip(cells, images)), label_map=dict(zip(labels, lam)))
            if validate_hda_morphism(m, src, dst).ok:
                found.add(_canon_hda_morphism(m))
    return found


def test_hda_morphism_enumeration_matches_brute_force():
    single_edge = ts_to_hda1(make_ts(["x", "y"], "x", ["a"], [("x", "a", "y")]))
    path2 = ts_to_hda1(make_ts(["x", "y", "z"], "x", ["a", "b"],
                               [("x", "a", "y"), ("y", "b", "z")]))
    nets = [
        make_pn(["p"], {"p": 1}, ["u"], {"u": {"p": 1}}, {"u": {}}),
        make_pn(["p", "q"], {"p": 1}, ["u", "v"], {"u": {"p": 1}, "v": {"q": 1}},
                {"u": {"q": 1}, "v": {}}),
        zoo.two_mutex_net(),
    ]
    for source in (single_edge, path2):
        for net in nets:
            target = pn_to_hda(net, 200, 2, truncate_cells=True)
            homs = enumerate_hda_morphisms(source, target)
            assert len({_canon_hda_morphism(m) for m in homs}) == len(homs)
            assert {_canon_hda_morphism(m) for m in homs} == brute_force_hda_homs(source, target)


def _chain(n):
    return ts_to_hda1(make_ts([f"s{i}" for i in range(n)], "s0", ["a"],
                              [(f"s{i}", "a", f"s{i + 1}") for i in range(n - 1)]))


def test_hda_morphism_enumeration_deep_source():
    loop = ts_to_hda1(make_ts(["s"], "s", ["a"], [("s", "a", "s")]))
    homs = enumerate_hda_morphisms(_chain(700), loop)
    assert sorted(m.label_map["a"] for m in homs) == sorted([STAR, "a"])


def test_hda_morphism_enumeration_long_chain_into_net():
    # each vertex is checked by the edge that reaches it, so only the two
    # label choices branch; vertices left unchecked until all are assigned
    # would give 31 choices per vertex
    chain = _chain(31)
    net = make_pn(["p"], {"p": 30}, ["u"], {"u": {"p": 1}}, {"u": {}})
    target = pn_to_hda(net, 200, 2, truncate_cells=True)
    homs = enumerate_hda_morphisms(chain, target)
    assert sorted(m.label_map["a"] for m in homs) == sorted([STAR, "u"])


def test_hda_morphism_enumeration_chain_into_longer_chain():
    # past 100 states the names s100.. sort between s10 and s11, so a
    # vertex order by index would leave s100 unconstrained by s99
    homs = enumerate_hda_morphisms(_chain(120), _chain(121))
    assert sorted(m.label_map["a"] for m in homs) == sorted([STAR, "a"])


def test_hda_morphism_enumeration_bounds_its_members():
    # seven isolated vertices into twelve vertices: 12^6 morphisms, each
    # of which would be built and validated
    cfg = GeneratorConfig(seed=2)
    source = ts_to_hda1(gen_ts(4, cfg))
    target = es_to_hda(gen_es(5, cfg), 2, truncate_cells=True)
    assert len(source.cells(0)) == 7 and not source.cells(1) and len(target.cells(0)) == 12
    with pytest.raises(SizeLimit):
        enumerate_hda_morphisms(source, target)


@pytest.mark.parametrize("search, twins_as", [(enumerate_hda_morphisms, "target"),
                                               (iso_check, "source"), (iso_check, "target")])
def test_hda_morphism_enumeration_rejects_target_with_twin_cells(search, twins_as):
    """A target with two a-edges from x to y makes the hom-set search and
    the isomorphism check raise, naming both edges; the isomorphism check
    also raises on such a source, whose cell map would not be one to one."""
    complex_, keys = index_complex(
        {0: ["x", "y"], 1: [("x", "a", "y", 0), ("x", "a", "y", 1)]},
        lambda n, key, i, sign: key[0] if sign == "-" else key[2],
        transpose_key=lambda n, key, i: key)
    by_key = {k: c for c, k in keys.items()}
    twins = Hda(complex=complex_, alphabet=("a",), words=[[(), ()], [("a",), ("a",)]],
                initial=by_key["x"], states=["x", "y"])
    single_edge = ts_to_hda1(make_ts(["x", "y"], "x", ["a"], [("x", "a", "y")]))
    with pytest.raises(ValueError) as err:
        search(*((single_edge, twins) if twins_as == "target" else (twins, single_edge)))
    assert str(CellId(1, 0)) in str(err.value) and str(CellId(1, 1)) in str(err.value)


def test_hda_morphism_enumeration_validates_members_into_a_nondeterministic_target(monkeypatch):
    """The slot checks see only each cell's 0-ends and word.  Into a target
    whose square x -a-> r1 -b-> t, x -b-> q -a-> t has a second path
    x -a-> r2 -b-> t beside it, two full assignments send a vertex to r2:
    every edge and the square have an image, but the square's face is the
    edge to r1, so only ``validate_hda_morphism`` drops them."""
    source = acr_to_hda2(Acr(
        ts=make_ts("spqw", "s", "ab", [("s", "a", "p"), ("p", "b", "w"), ("s", "b", "q"),
                                       ("q", "a", "w")]),
        indep=frozenset({("s", "a", "b"), ("s", "b", "a")})))
    edges = [("q", "a", "t"), ("r1", "b", "t"), ("r2", "b", "t"),
             ("x", "a", "r1"), ("x", "a", "r2"), ("x", "b", "q")]
    sides = {"a": (("x", "a", "r1"), ("q", "a", "t")), "b": (("x", "b", "q"), ("r1", "b", "t"))}
    complex_, keys = index_complex(
        {0: ["q", "r1", "r2", "t", "x"], 1: edges, 2: [("x", "a", "b"), ("x", "b", "a")]},
        # an edge's faces are its ends; face i of a square is an edge of its other letter
        lambda n, key, i, sign: (key[0] if sign == "-" else key[2]) if n == 1
        else sides[key[2 - i]][sign == "+"],
        transpose_key=lambda n, key, i: (key[0], key[2], key[1]))
    by_key = {k: c for c, k in keys.items()}
    words = [[()] * 5, [(a,) for _, a, _ in edges], [("a", "b"), ("b", "a")]]
    target = Hda(complex=complex_, alphabet=("a", "b"), words=words, initial=by_key["x"],
                 states=["q", "r1", "r2", "t", "x"])
    assert validate_hda(target).ok
    built, validate = [], laws.validate_hda_morphism
    monkeypatch.setattr(laws, "validate_hda_morphism",
                        lambda m, src, dst: built.append(m) or validate(m, src, dst))
    kept = enumerate_hda_morphisms(source, target)
    assert (len(built), len(kept)) == (11, 9)
    dropped = [m for m in built if m not in kept]
    images = [{source.state(c): target.state(w.base) for c, w in m.cell_map.items()
               if c.dim == 0} for m in dropped]
    assert images == [{"s": "x", "p": "q", "q": "r2", "w": "t"},
                      {"s": "x", "p": "r2", "q": "q", "w": "t"}]
    assert [m.label_map for m in dropped] == [{"a": "b", "b": "a"}, {"a": "a", "b": "b"}]


def test_iso_check_deep_chain():
    n = 1200
    states = [f"s{i}" for i in range(n)]
    trans = [(f"s{i}", "a", f"s{i + 1}") for i in range(n - 1)]
    m = iso_check(make_ts(states, "s0", ["a"], trans), make_ts(states, "s0", ["a"], trans),
                  node_limit=5000)
    assert m == {s: s for s in states}


def test_iso_check_reversed_deep_chain_looks_up_few_keys():
    """Each vertex of the chain takes its candidates from the image of the
    edge that reaches it, so the search looks up about three keys per
    edge: one slot check, and the vertex and the edge in
    ``induced_morphism`` (721,799 lookups with every vertex a candidate)."""
    class Counting(dict):
        lookups = 0

        def __contains__(self, key):
            Counting.lookups += 1
            return super().__contains__(key)

    n = 1200
    states = [f"s{i}" for i in range(n)]
    trans = [(f"s{i}", "a", f"s{i + 1}") for i in range(n - 1)]
    rev = {f"s{i}": f"s{n - 1 - i}" for i in range(n)}
    a = ts_to_hda1(make_ts(states, "s0", ["a"], trans))
    b = ts_to_hda1(make_ts(states, rev["s0"], ["a"], [(rev[p], e, rev[q]) for p, e, q in trans]))
    b.__dict__["cell_by_ends"] = Counting(b.cell_by_ends)
    m = iso_check(a, b, node_limit=5000)
    assert {a.state(c): b.state(d) for c, d in m.items() if c.dim == 0} == rev
    assert Counting.lookups <= 3600


def test_iso_check_renamed_chain():
    # every inner state has the same signature, so only the transitions to
    # states already assigned keep this search from trying n! maps; past
    # 100 states the names s100.. sort between s10 and s11, which an order
    # of slots by name would assign before either chain neighbour
    for n in (60, 120):
        states = [f"s{i}" for i in range(n)]
        trans = [(f"s{i}", "a", f"s{i + 1}") for i in range(n - 1)]
        rev = {f"s{i}": f"s{n - 1 - i}" for i in range(n)}
        renamed = make_ts(states, rev["s0"], ["a"], [(rev[p], e, rev[q]) for p, e, q in trans])
        assert iso_check(make_ts(states, "s0", ["a"], trans), renamed, node_limit=5000) == rev


def test_iso_check_renamed_chain_automata():
    # slots taken in dimension order would guess every vertex before any
    # edge constrains it; breadth-first over faces and cofaces, each cell
    # is a coface or a face of an assigned one
    n = 120
    states = [f"s{i}" for i in range(n)]
    trans = [(f"s{i}", "a", f"s{i + 1}") for i in range(n - 1)]
    rev = {f"s{i}": f"s{n - 1 - i}" for i in range(n)}
    a = ts_to_hda1(make_ts(states, "s0", ["a"], trans))
    b = ts_to_hda1(make_ts(states, rev["s0"], ["a"], [(rev[p], e, rev[q]) for p, e, q in trans]))
    m = iso_check(a, b)
    assert m is not None
    assert {a.cell_keys[c]: b.cell_keys[d] for c, d in m.items()} == {
        **{(p, ()): (q, ()) for p, q in rev.items()},
        **{(p, (e,)): (rev[p], (e,)) for p, e, q in trans}}


def test_iso_check_event_structures_match_on_events():
    # the events are the labels: a renaming or a reversed order is not an
    # isomorphism
    assert iso_check(make_event_structure("ab"), make_event_structure("xy")) is None
    assert iso_check(make_event_structure("ab", causes=[("a", "b")]),
                     make_event_structure("ab", causes=[("b", "a")])) is None
    es = make_event_structure("abc", causes=[("a", "b")], conflicts=[("a", "c")])
    assert iso_check(es, make_event_structure("abc", causes=[("a", "b")],
                                              conflicts=[("a", "c")])) == {e: e for e in "abc"}


def _shuffled_renaming(states, seed):
    names = sorted_by_key(states)
    shuffled = list(names)
    random.Random(seed).shuffle(shuffled)
    return {s: f"r{names.index(t)}" for s, t in zip(names, shuffled)}


@pytest.mark.parametrize("seed", [0, 3])
def test_iso_check_generated_systems_against_renamings(seed):
    cfg = GeneratorConfig(seed=seed)
    for i in range(40):
        t = gen_ts(i, cfg)
        r = _shuffled_renaming(t.states, seed * 100 + i)
        renamed = make_ts([r[s] for s in t.states], r[t.initial], t.events,
                          [(r[p], e, r[q]) for p, e, q in t.trans])
        m = iso_check(t, renamed)
        assert m is not None and m[t.initial] == renamed.initial, i
        assert {(m[p], e, m[q]) for p, e, q in t.trans} == renamed.trans, i

        a = gen_acr(i, cfg)
        r = _shuffled_renaming(a.ts.states, seed * 100 + i + 50)
        renamed = Acr(
            ts=make_ts([r[s] for s in a.ts.states], r[a.ts.initial], a.ts.events,
                       [(r[p], e, r[q]) for p, e, q in a.ts.trans]),
            indep=frozenset((r[s], x, y) for s, x, y in a.indep))
        m = iso_check(a, renamed)
        assert m is not None and m[a.ts.initial] == renamed.ts.initial, i
        assert {(m[p], e, m[q]) for p, e, q in a.ts.trans} == renamed.ts.trans, i
        assert {(m[s], x, y) for s, x, y in a.indep} == renamed.indep, i


def _shuffled_cells(h: Hda, rng: random.Random) -> Hda:
    """``h`` with the cells of each dimension renumbered by a shuffle."""
    sk = h.skeleton
    new = {n: rng.sample(ids, len(ids)) for n, ids in sk.cells.items()}  # position k goes to new[n][k]

    def moved(col, n):  # a column over cells(n), each entry at its cell's new position
        out = [None] * len(col)
        for k, v in enumerate(col):
            out[new[n][k]] = v
        return out

    faces = {key: moved([new[key[0] - 1][v] for v in col], key[0]) for key, col in sk.faces.items()}
    swaps = {key: moved([new[key[0]][v] for v in col], key[0])
             for key, col in h.complex.transpositions.items()}
    return Hda(SymmetricCubicalComplex(PrecubicalComplex(sk.cells, faces, sk.max_dim), swaps),
               h.alphabet, [moved(col, n) for n, col in enumerate(h.words)],
               CellId(0, new[0][h.initial.index]))


def _assert_isomorphism(m: dict, a: Hda, b: Hda):
    """``m`` is a bijection on each dimension, pointed, that keeps labels,
    faces and transpositions."""
    for n in range(max(a.max_dim, b.max_dim) + 1):
        assert sorted(m[c] for c in a.cells(n)) == sorted(b.cells(n))
    assert m[a.initial] == b.initial
    for c, d in m.items():
        assert b.label(d) == a.label(c)
        assert all(m[a.skeleton.face(c, i, sign)] == b.skeleton.face(d, i, sign)
                   for i in range(c.dim) for sign in SIGNS)
        assert all(m[a.complex.transpose(c, i)] == b.complex.transpose(d, i) for i in range(c.dim - 1))


def test_iso_check_on_automata_agrees_with_the_search_over_cells():
    """Seed-0 automata of every translation against cell-shuffled copies
    of themselves and against automata of the same alphabet and cell
    counts: ``iso_check`` finds an isomorphism exactly when the
    cell-by-cell search of ``reference.py`` does, and each it finds is one."""
    cfg = GeneratorConfig(seed=0)
    automata = []
    for i in range(cfg.count):
        automata += [es_to_hda(gen_es(i, cfg)), ts_to_hda1(gen_ts(i, cfg)), acr_to_hda2(gen_acr(i, cfg))]
        try:
            automata.append(pn_to_hda(gen_pn(i, cfg), 200, 3, truncate_cells=True))
        except ExplosionLimit:
            pass
    rng = random.Random(0)
    by_shape: dict = {}
    for h in automata:
        shape = (frozenset(h.alphabet), tuple(len(h.cells(n)) for n in range(h.max_dim + 1)))
        by_shape.setdefault(shape, []).append(h)
    pairs = found = 0
    for same_shape in by_shape.values():
        for a in same_shape:
            for b in [_shuffled_cells(a, rng)] + [b for b in same_shape[:4] if b is not a]:
                m = iso_check(a, b)
                assert (m is None) == (iso_by_cells(a, b) is None)
                pairs += 1
                if m is not None:
                    _assert_isomorphism(m, a, b)
                    found += 1
    assert len(automata) < found < pairs


def test_iso_check_acr_independence_must_match():
    square = zoo.mutex_square_acr(independent=True)
    assert iso_check(square, zoo.mutex_square_acr(independent=False)) is None
    broken = Acr(ts=square.ts, indep=frozenset({("x", "e1", "e2")}))  # not symmetric
    with pytest.raises(SquareIncomplete):
        iso_check(broken, square)


def test_iso_check_idle_completions():
    t = zoo.mutex_square_ts()
    r = {"x": "A", "y1": "B", "y2": "C", "z": "D"}
    renamed = make_ts([r[s] for s in t.states], r[t.initial], t.events,
                      [(r[p], e, r[q]) for p, e, q in t.trans])
    m = iso_check(idle_completion(t), idle_completion(renamed))
    assert m == r
    assert iso_check(idle_completion(t), renamed) is None
    partial = make_ts(t.states, t.initial, t.events | {STAR}, t.trans | {("x", STAR, "x")})
    with pytest.raises(StarClash):
        iso_check(partial, partial)

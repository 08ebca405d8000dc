import itertools

import pytest

from hdabridge.cubical import STAR, DegeneracyWitness
from hdabridge.errors import SizeLimit
from hdabridge.functors import HdaMorphism, acr_to_hda2, pn_to_hda, ts_to_hda1, validate_hda_morphism
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
)
from hdabridge.models import make_event_structure, make_pn, make_ts
from hdabridge.util import sorted_by_key
from hdabridge import zoo


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
    from hdabridge.cubical import check_deterministic, check_linear_labeling, check_strong_labeling, validate_hda
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


def test_hda_morphism_enumeration_deep_source():
    n = 700
    chain = ts_to_hda1(make_ts([f"s{i}" for i in range(n)], "s0", ["a"],
                               [(f"s{i}", "a", f"s{i + 1}") for i in range(n - 1)]))
    loop = ts_to_hda1(make_ts(["s"], "s", ["a"], [("s", "a", "s")]))
    homs = enumerate_hda_morphisms(chain, loop)
    assert sorted(m.label_map["a"] for m in homs) == sorted([STAR, "a"])


def test_iso_check_deep_chain():
    n = 1200
    states = [f"s{i}" for i in range(n)]
    trans = [(f"s{i}", "a", f"s{i + 1}") for i in range(n - 1)]
    m = iso_check(make_ts(states, "s0", ["a"], trans), make_ts(states, "s0", ["a"], trans),
                  node_limit=5000)
    assert m == {s: s for s in states}

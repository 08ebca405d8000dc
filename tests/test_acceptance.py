"""Acceptance suite: one test per criterion, exact expectations, with the
stated runtime budgets.  Each test prints its own pass line so a verbose
run reads as a checklist."""

import time

from hdabridge import zoo
from hdabridge.cts import coskeleton_fill
from hdabridge.cubical import (
    DegeneracyWitness,
    truncate,
    validate_complex,
    validate_hda,
)
from hdabridge.functors import (
    acr_to_hda2,
    enumerate_regions,
    es_to_hda,
    hda_to_es,
    pn_to_hda,
    ts_to_hda1,
)
from hdabridge.jsonio import print_document
from hdabridge.laws import (
    GeneratorConfig,
    check_adjunction_pn_hda,
    check_comonad_identity,
    check_kleisli_lift,
    gen_es,
    iso_check,
)
from hdabridge.models import make_pn, make_ts
from helpers import brute_force_es_cells
from reference import region_check, region_of, standard_cube, word_flow


def timed(budget_seconds):
    """Run the body, assert the budget, print the checklist line."""

    class Timer:
        def __init__(self):
            self.start = None

        def __enter__(self):
            self.start = time.perf_counter()
            return self

        def finish(self, name):
            elapsed = time.perf_counter() - self.start
            assert elapsed < budget_seconds, f"{name} took {elapsed:.2f}s, budget {budget_seconds}s"
            print(f"{name}: PASS ({elapsed:.2f}s < {budget_seconds}s)")

        def __exit__(self, *exc):
            return False

    return Timer()


def orbit_counts(h):
    """Cells per dimension up to the transposition action."""
    out = []
    for n in range(h.max_dim + 1):
        parent = {c: c for c in h.cells(n)}

        def find(c):
            while parent[c] != c:
                parent[c] = parent[parent[c]]
                c = parent[c]
            return c

        for c in h.cells(n):
            for i in range(n - 1):
                parent[find(c)] = find(h.complex.transpose(c, i))
        out.append(len({find(c) for c in h.cells(n)}))
    return out


def test_a1_triple_diamond_pipeline():
    with timed(1.0) as t:
        h = acr_to_hda2(zoo.triple_diamond_acr())
        es = hda_to_es(h)
        assert es.events == frozenset("abc")
        assert es.leq == frozenset({(e, e) for e in "abc"})
        assert es.conflict == frozenset()

        cube = es_to_hda(es)
        counts = [len(cube.cells(n)) for n in range(4)]
        assert counts == [brute_force_es_cells(es, n) for n in range(4)]
        assert counts == [8, 12, 12, 6]
        assert orbit_counts(cube) == [8, 12, 6, 1]

        two = truncate(cube, 2)
        right = acr_to_hda2(zoo.full_cube_acr())
        assert iso_check(two, right) is not None
        t.finish("A1 triple-diamond pipeline")


def test_a2_region_synthesis():
    with timed(5.0) as t:
        h = ts_to_hda1(zoo.mutex_square_ts())
        regions = enumerate_regions(h, 1)
        by_state = h.vertex_by_state

        def reg(flows, tokens):
            return region_of(flows, {by_state[k]: v for k, v in tokens.items()})

        zero = (0, 0)
        stated = reg({"e1": (1, 0), "e2": zero}, {"x": 1, "y1": 0, "y2": 1, "z": 0})
        nine = [
            reg({"e1": zero, "e2": zero}, {"x": 1, "y1": 1, "y2": 1, "z": 1}),
            stated,
            reg({"e1": zero, "e2": (1, 0)}, {"x": 1, "y1": 1, "y2": 0, "z": 0}),
            reg({"e1": (0, 1), "e2": zero}, {"x": 0, "y1": 1, "y2": 0, "z": 1}),
            reg({"e1": zero, "e2": (0, 1)}, {"x": 0, "y1": 0, "y2": 1, "z": 1}),
            reg({"e1": (1, 1), "e2": zero}, {"x": 1, "y1": 1, "y2": 1, "z": 1}),
            reg({"e1": zero, "e2": (1, 1)}, {"x": 1, "y1": 1, "y2": 1, "z": 1}),
            reg({"e1": (1, 1), "e2": (1, 1)}, {"x": 1, "y1": 1, "y2": 1, "z": 1}),
            reg({"e1": zero, "e2": zero}, {"x": 0, "y1": 0, "y2": 0, "z": 0}),
        ]
        for candidate in nine:
            assert candidate in regions
        assert stated in regions

        squared = acr_to_hda2(zoo.mutex_square_acr(independent=True))
        by_state2 = squared.vertex_by_state
        shared = region_of({"e1": (1, 1), "e2": (1, 1)},
                           {by_state2[k]: 1 for k in ("x", "y1", "y2", "z")})
        assert not region_check(squared, shared)
        square_cell = squared.cells(2)[0]
        pre_needed, _ = word_flow(shared, squared.label(square_cell))
        assert pre_needed == 2  # the square needs two tokens at once
        assert shared not in enumerate_regions(squared, 1)
        t.finish("A2 region synthesis")


def test_a3_net_dynamics():
    with timed(1.0) as t:
        h = pn_to_hda(zoo.two_mutex_net(), 100, 2, truncate_cells=True)
        assert len(h.cells(0)) == 4
        assert len(h.cells(2)) == 0

        free = pn_to_hda(zoo.two_mutex_net(shared_place=False), 100, 2,
                         truncate_cells=True)
        squares = free.cells(2)
        assert len(squares) == 2
        assert free.complex.transpose(squares[0], 0) == squares[1]
        assert {free.label(c) for c in squares} == {("e1", "e2"), ("e2", "e1")}
        t.finish("A3 net dynamics")


def test_a4_comonad_identities():
    with timed(30.0) as t:
        for kind in ("sTS", "ACR", "ES"):
            report = check_comonad_identity(kind, GeneratorConfig(seed=0, count=100))
            assert report.passed, str(report)
            assert report.instances >= 100
        t.finish("A4 comonad identities")


def test_a5_transposition_bijection():
    with timed(60.0) as t:
        single_edge = ts_to_hda1(make_ts(["x", "y"], "x", ["a"], [("x", "a", "y")]))
        square = acr_to_hda2(zoo.mutex_square_acr(True))
        path2 = ts_to_hda1(make_ts(["x", "y", "z"], "x", ["a", "b"],
                                   [("x", "a", "y"), ("y", "b", "z")]))
        one_event_net = make_pn(["p"], {"p": 1}, ["u"], {"u": {"p": 1}}, {"u": {}})
        two_event_net = make_pn(["p", "q"], {"p": 1}, ["u", "v"],
                                {"u": {"p": 1}, "v": {"q": 1}},
                                {"u": {"q": 1}, "v": {}})
        mutex = zoo.two_mutex_net()
        pairs = [
            (single_edge, one_event_net),
            (single_edge, two_event_net),
            (square, one_event_net),
            (square, mutex),
            (path2, two_event_net),
        ]
        report = check_adjunction_pn_hda(pairs, cap=1, max_states=200, max_dim=2)
        assert report.passed, str(report)
        assert report.instances == len(pairs)
        t.finish("A5 transposition bijection and naturality")


def test_a6_cubical_identity_suite():
    with timed(10.0) as t:
        produced = [
            acr_to_hda2(zoo.triple_diamond_acr()),
            es_to_hda(zoo.three_free_events_es()),
            acr_to_hda2(zoo.full_cube_acr()),
            ts_to_hda1(zoo.mutex_square_ts()),
            acr_to_hda2(zoo.mutex_square_acr(True)),
            pn_to_hda(zoo.two_mutex_net(), 100, 2, truncate_cells=True),
            pn_to_hda(zoo.two_mutex_net(False), 100, 2, truncate_cells=True),
            pn_to_hda(zoo.double_token_net(), 50, 2, truncate_cells=True),
        ]
        for h in produced:
            report = validate_hda(h)
            assert report.ok, str(report)
        assert validate_complex(standard_cube(3)).ok

        # face evaluation against the term model, exhaustive to dimension 3
        import sys
        sys.path.insert(0, __file__.rsplit("/", 1)[0])
        from helpers import cube_maps, oracle_face
        from test_cubical import cube_with_ids, witness_from_map
        from hdabridge.cubical import SIGNS, cell_face

        for d in (0, 1, 2):
            sk, key_to_id = cube_with_ids(d)
            for n in range(4):
                for cell_map in cube_maps(n, d):
                    w = witness_from_map(cell_map, n, key_to_id)
                    for i in range(n):
                        for sign in SIGNS:
                            expected = witness_from_map(
                                oracle_face(cell_map, n, i, sign), n - 1, key_to_id)
                            assert cell_face(sk, w, i, sign) == expected
        t.finish("A6 cubical identity suite")


def test_a7_multiset_concurrency():
    with timed(1.0) as t:
        h = pn_to_hda(zoo.double_token_net(), 50, 2)
        labels = {h.label(c) for c in h.cells(2)}
        assert ("e", "e") in labels
        t.finish("A7 multiset self-concurrency")


def test_a8_kleisli_lift():
    with timed(10.0) as t:
        report = check_kleisli_lift(GeneratorConfig(seed=0, count=100))
        assert report.passed, str(report)
        assert report.instances == 100
        t.finish("A8 idle-completion lift")


def test_a9_event_structure_automata_are_2_coskeletal():
    with timed(1.0) as t:
        cfg = GeneratorConfig(seed=0, count=100)
        for i in range(cfg.count):
            h = es_to_hda(gen_es(i, cfg))
            assert print_document("hda", coskeleton_fill(truncate(h, 2), h.max_dim)) == \
                print_document("hda", h), i
        t.finish("A9 event structure automata are 2-coskeletal")


def semaphore_net(tokens: int):
    """Three processes share a semaphore p holding ``tokens`` tokens: event
    e takes a token from p and the one token of its own place qe, and gives
    the p token back."""
    return make_pn(["p", "qa", "qb", "qc"], {"p": tokens, "qa": 1, "qb": 1, "qc": 1},
                   list("abc"), {e: {"p": 1, f"q{e}": 1} for e in "abc"},
                   {e: {"p": 1} for e in "abc"})


def test_a10_hollow_cube():
    """Two tokens let any two of the three events run together but not all
    three: every face of the cube and no cube.  The ACR of its squares
    cannot tell this from the solid cube of three tokens; the automata can."""
    with timed(1.0) as t:
        hollow = pn_to_hda(semaphore_net(2), 100, 3)
        solid = pn_to_hda(semaphore_net(3), 100, 3)
        assert [len(hollow.cells(n)) for n in range(4)] == [8, 12, 12, 0]
        assert [len(solid.cells(n)) for n in range(4)] == [8, 12, 12, 6]
        filled = coskeleton_fill(truncate(hollow, 2), 3)
        assert print_document("hda", filled) == print_document("hda", solid)
        assert iso_check(hollow, solid) is None
        assert iso_check(filled, solid) is not None
        t.finish("A10 hollow cube")


def test_a10_hollow_cube_through_the_cli(capsys, tmp_path):
    """The fixtures of the semaphore net with 2 and 3 tokens, run as the
    README shows: their automata differ at --max-dim 3, their ACRs print
    the same bytes."""
    import json
    import pathlib

    from hdabridge.cli import main

    fixtures = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
    acrs = []
    for tokens, counts in ((2, [8, 12, 12, 0]), (3, [8, 12, 12, 6])):
        path = fixtures / f"pnet_semaphore_{tokens}.json"
        assert path.read_text() == print_document("pnet", semaphore_net(tokens))
        assert main(["translate", str(path), "--to", "hda", "--max-dim", "3"]) == 0
        text = capsys.readouterr().out
        cells = json.loads(text)["cells"]
        assert [len(cells[n]) for n in sorted(cells, key=int)] == counts
        automaton = tmp_path / f"automaton_{tokens}.json"
        automaton.write_text(text)
        assert main(["translate", str(automaton), "--to", "acr"]) == 0
        acrs.append(capsys.readouterr().out)
    assert acrs[0] == acrs[1]

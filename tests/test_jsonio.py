import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from hdabridge import jsonio, zoo
from hdabridge.cubical import STAR, validate_hda
from hdabridge.errors import ExplosionLimit, ParseError, UnknownKind
from hdabridge.functors import es_to_hda
from hdabridge.models import make_event_structure


ALL_FIXTURE_MODELS = [
    ("ts", zoo.mutex_square_ts()),
    ("acr", zoo.triple_diamond_acr()),
    ("acr", zoo.full_cube_acr()),
    ("es", zoo.three_free_events_es()),
    ("es", make_event_structure("abc", causes=[("a", "b")], conflicts=[("b", "c")])),
    ("pnet", zoo.two_mutex_net()),
    ("pnet", zoo.double_token_net()),
]


@pytest.mark.parametrize("kind,model", ALL_FIXTURE_MODELS)
def test_parse_after_print_is_identity(kind, model):
    text = jsonio.print_document(kind, model)
    kind2, model2 = jsonio.parse_document(text)
    assert kind2 == kind
    assert model2 == model


@pytest.mark.parametrize("kind,model", ALL_FIXTURE_MODELS)
def test_print_after_parse_is_identity(kind, model):
    text = jsonio.print_document(kind, model)
    kind2, model2 = jsonio.parse_document(text)
    assert jsonio.print_document(kind2, model2) == text


def test_hda_document_round_trip():
    h = es_to_hda(zoo.three_free_events_es())
    text = jsonio.print_document("hda", h)
    kind, h2 = jsonio.parse_document(text)
    assert kind == "hda"
    assert h2.complex == h.complex
    assert h2.words == h.words
    assert h2.alphabet == h.alphabet
    assert h2.initial == h.initial
    assert validate_hda(h2).ok
    assert jsonio.print_document("hda", h2) == text


def _automata_of(kind: str, model) -> list:
    """The automata a test builds from a model of each kind."""
    from hdabridge.functors import acr_to_hda2, pn_to_hda, ts_to_hda1

    if kind == "hda":
        return [model]
    if kind == "ts":
        return [ts_to_hda1(model)]
    if kind == "acr":
        return [acr_to_hda2(model)]
    if kind == "es":
        return [es_to_hda(model), es_to_hda(model, max_dim=2, truncate_cells=True)]
    try:
        return [pn_to_hda(model, 200, 3, truncate_cells=True)]
    except ExplosionLimit:
        return []


def _round_trip_automata():
    """Every fixture's automata, and those of the first 40 models of each
    generator at seed 0."""
    from hdabridge.laws import GeneratorConfig, gen_acr, gen_es, gen_pn, gen_ts

    for path in sorted(FIXTURES.glob("*.json")):
        yield from ((path.name, h) for h in _automata_of(*jsonio.parse_document(path.read_text())))
    cfg = GeneratorConfig(seed=0)
    for kind, gen in (("ts", gen_ts), ("acr", gen_acr), ("es", gen_es), ("pnet", gen_pn)):
        for i in range(40):
            yield from ((f"{kind}{i}", h) for h in _automata_of(kind, gen(i, cfg)))


def test_hda_documents_round_trip_with_a_column_per_table():
    """Each face and transposition table of dimension n, built or parsed,
    is a list over cells(n), and printing the parse of a printed automaton
    gives the same bytes and the same complex."""
    count = 0
    for name, h in _round_trip_automata():
        text = jsonio.print_document("hda", h)
        _, h2 = jsonio.parse_document(text)
        for automaton in (h, h2):
            sk = automaton.skeleton
            for (n, *_), col in [*sk.faces.items(), *automaton.complex.transpositions.items()]:
                assert type(col) is list and len(col) == len(sk.cells.get(n, ())), name
        assert h2.complex == h.complex and h2.words == h.words, name
        assert jsonio.print_document("hda", h2) == text, name
        count += 1
    assert count > 160


def test_lts_document_round_trip():
    from hdabridge.models import LabeledTransitionSystem

    lts = LabeledTransitionSystem(
        ts=zoo.mutex_square_ts(),
        labels=frozenset({"go", "stop"}),
        labeling={"e1": "go", "e2": "stop"},
    )
    text = jsonio.print_document("lts", lts)
    kind, back = jsonio.parse_document(text)
    assert kind == "lts" and back == lts


def test_unknown_kind_rejected():
    with pytest.raises(UnknownKind):
        jsonio.parse_document(json.dumps({"kind": "automaton", "format_version": 1}))


def test_truncated_document_rejected():
    text = jsonio.print_document("ts", zoo.mutex_square_ts())
    with pytest.raises(ParseError):
        jsonio.parse_document(text[: len(text) // 2])


def test_missing_field_rejected():
    with pytest.raises(ParseError):
        jsonio.parse_document(json.dumps({"kind": "ts", "format_version": 1, "states": []}))


def test_bad_version_rejected():
    with pytest.raises(ParseError):
        jsonio.parse_document(json.dumps({"kind": "ts", "format_version": 99}))


def test_idle_loop_normalized_on_ingestion():
    doc = {
        "kind": "hda", "format_version": 1,
        "alphabet": ["a"],
        "dims": [0, 1],
        "cells": {"0": [0, 1], "1": [0, 1]},
        "faces": {"1,0,-": {"0": 0, "1": 1}, "1,0,+": {"0": 1, "1": 1}},
        "sym": {},
        "labels": {"1": {"0": ["a"], "1": ["*"]}},
        "initial": 0,
    }
    kind, h = jsonio.parse_document(json.dumps(doc))
    assert len(h.cells(1)) == 1
    assert h.label(h.cells(1)[0]) == ("a",)


def test_idle_nonloop_rejected():
    doc = {
        "kind": "hda", "format_version": 1,
        "alphabet": ["a"],
        "dims": [0, 1],
        "cells": {"0": [0, 1], "1": [0]},
        "faces": {"1,0,-": {"0": 0}, "1,0,+": {"0": 1}},
        "sym": {},
        "labels": {"1": {"0": ["*"]}},
        "initial": 0,
    }
    with pytest.raises(ParseError):
        jsonio.parse_document(json.dumps(doc))


def test_idle_in_higher_label_rejected():
    h = es_to_hda(make_event_structure("ab"))
    doc = json.loads(jsonio.print_document("hda", h))
    doc["labels"]["2"][next(iter(doc["labels"]["2"]))] = ["a", STAR]
    with pytest.raises(ParseError):
        jsonio.parse_document(json.dumps(doc))


def test_fixture_files_match_zoo():
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
    expected = {
        "ts_mutex_square.json": ("ts", zoo.mutex_square_ts()),
        "acr_triple_diamond.json": ("acr", zoo.triple_diamond_acr()),
        "acr_full_cube.json": ("acr", zoo.full_cube_acr()),
        "acr_mutex_square.json": ("acr", zoo.mutex_square_acr(True)),
        "es_three_free_events.json": ("es", zoo.three_free_events_es()),
        "pnet_two_mutex.json": ("pnet", zoo.two_mutex_net()),
        "pnet_two_free.json": ("pnet", zoo.two_mutex_net(shared_place=False)),
        "pnet_double_token.json": ("pnet", zoo.double_token_net()),
    }
    for name, (kind, model) in expected.items():
        assert (root / name).read_text() == jsonio.print_document(kind, model), name


def test_nets_print_as_json_dumps_printed_their_documents():
    """Every pnet fixture, the first 40 generated nets at seed 0, the
    synthesized nets of a chain, a cycle and a filled square, and nets
    with int-named events or empty markings."""
    from hdabridge.functors import acr_to_hda2, hda_to_pn, ts_to_hda1
    from hdabridge.laws import GeneratorConfig, gen_pn
    from hdabridge.models import make_pn, make_ts
    from reference import pnet_document

    root = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
    nets = [(path.name, jsonio.parse_document(path.read_text())[1])
            for path in sorted(root.glob("pnet_*.json"))]
    nets += [(f"gen_pn {i}", gen_pn(i, GeneratorConfig(seed=0))) for i in range(40)]
    chain = make_ts(range(4), 0, "abc", [(i, a, i + 1) for i, a in enumerate("abc")])
    cycle = make_ts(range(4), 0, "abcd", [(i, a, (i + 1) % 4) for i, a in enumerate("abcd")])
    for name, h, cap in (("chain", ts_to_hda1(chain), 2), ("cycle", ts_to_hda1(cycle), 1),
                         ("square", acr_to_hda2(zoo.mutex_square_acr(True)), 2)):
        nets.append((f"synthesized {name}", hda_to_pn(h, cap).net))
    nets += [
        ("int events", make_pn(["p", "q"], {"p": 1}, [1, 2, 10], {1: {"p": 1}, 2: {}, 10: {"q": 2}},
                               {1: {"q": 1}, 2: {"p": 1}, 10: {}})),
        ("mixed events", make_pn(["p"], {}, [3, "a"], {3: {"p": 1}, "a": {}}, {3: {}, "a": {"p": 1}})),
        ("empty markings", make_pn(["p", "q"], {}, ["e"], {"e": {}}, {"e": {}})),
        ("nothing", make_pn([], {}, [], {}, {})),
    ]
    for name, net in nets:
        want = json.dumps(pnet_document(net), sort_keys=True, indent=2) + "\n"
        assert jsonio.print_document("pnet", net) == want, name


def test_a_net_with_a_place_that_is_no_string_is_not_printed():
    from hdabridge.models import make_pn

    for places in ([1], ["p", 2], [("p", 0)]):
        with pytest.raises(ParseError, match="string place names"):
            jsonio.print_document("pnet", make_pn(places, {}, ["e"], {}, {}))


def test_documented_examples_validate():
    """Every JSON block in the format docs parses and validates."""
    import pathlib
    import re

    from hdabridge.cli import VALIDATORS

    text = (pathlib.Path(__file__).resolve().parent.parent / "docs" / "formats.md").read_text()
    blocks = [b for b in re.findall(r"```json\n(.*?)```", text, re.S) if '"kind"' in b]
    assert len(blocks) >= 4
    for block in blocks:
        kind, model = jsonio.parse_document(block)
        report = VALIDATORS[kind](model)
        assert report.ok, f"{kind}: {report}"


# ---------------------------------------------------------------------------
# the printer's JSON emitter against json.dumps
# ---------------------------------------------------------------------------

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

# strings that need escaping or are not ASCII, next to drawn ones
STRINGS = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["", "*", "\"", "\\", "\n", "\t", "\x00", "\x7f", "é", " ", "😀", "1,0,-"]),
)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), STRINGS,
    st.floats(allow_nan=True, allow_infinity=True),
)
JSON_VALUES = st.recursive(
    st.one_of(
        SCALARS,
        st.lists(st.integers(), max_size=5),          # the one-join cases
        st.lists(STRINGS, max_size=5),
        st.dictionaries(STRINGS, st.integers(), max_size=5),
        st.dictionaries(STRINGS, st.lists(STRINGS, max_size=3), max_size=4),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(STRINGS, inner, max_size=4),
    ),
    max_leaves=20,
)


def reference(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(JSON_VALUES)
def test_format_json_matches_json_dumps(value):
    assert jsonio.format_json(value) == reference(value)


@pytest.mark.parametrize("value", [
    [], {}, [[]], {"a": {}}, [1, True], [0, "0"], {"b": 1, "a": False},
    {"x": [["a"], []]}, {"x": [["a"], [1]]}, (1, 2), [float("nan"), float("-inf"), -0.0],
])
def test_format_json_edge_cases(value):
    assert jsonio.format_json(value) == reference(value)


@pytest.mark.parametrize("value", [{1: 2}, {"a": {None: 1}}, [{"a": 1, 2: "b"}]])
def test_format_json_refuses_non_string_keys(value):
    with pytest.raises(TypeError):
        jsonio.format_json(value)


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.json")))
def test_fixtures_and_their_translations_print_as_json_dumps(name, capsys):
    from hdabridge.cli import main

    text = (FIXTURES / name).read_text()
    assert text == reference(json.loads(text)) + "\n"
    assert jsonio.format_json(json.loads(text)) + "\n" == text
    printed = 0
    for to in ("ts", "acr", "es", "pnet", "hda"):
        for extra in ([], ["--max-dim", "2", "--truncate"], ["--cap", "2"]):
            code = main(["translate", str(FIXTURES / name), "--to", to, *extra])
            out = capsys.readouterr().out
            if code == 0:
                assert out == reference(json.loads(out)) + "\n", (to, extra)
                printed += 1
    assert printed


def test_documented_layout_example():
    import re

    text = (pathlib.Path(__file__).resolve().parent.parent / "docs" / "formats.md").read_text()
    source, printed = re.search(r"the object `(.*?)` prints as\n\n```text\n(.*?)```", text,
                                re.S).groups()
    assert jsonio.format_json(json.loads(source)) + "\n" == printed

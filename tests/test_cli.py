import argparse
import gc
import json
import os
import pathlib
import subprocess
import sys

import pytest

from hdabridge import errors, jsonio
from hdabridge.cli import build_parser, main
from hdabridge.functors import es_to_hda, ts_to_hda1
from hdabridge.laws import LawReport
from hdabridge.models import make_event_structure
from helpers import FIXTURES, fixture

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
HDA_DOC = str(FIXTURES / "hda_three_free_events.json")
ES_DOC = str(FIXTURES / "es_three_free_events.json")
PNET_DOC = str(FIXTURES / "pnet_two_mutex.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", str(FIXTURES / "pnet_two_mutex.json"))
    assert code == 0
    assert "ok" in out


def test_validate_reports_violation(tmp_path, capsys):
    doc = jsonio.model_to_document("acr", fixture("acr_mutex_square"))
    doc["trans"] = [t for t in doc["trans"] if t != ["y1", "e2", "z"]]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 5
    assert "independence square" in out


def test_validate_reports_sparse_cells_in_document_order(tmp_path, capsys):
    # 8 comes before 1 in the iteration order of {1, 8}
    path = tmp_path / "sparse.json"
    path.write_text(json.dumps({
        "kind": "hda", "format_version": 1, "alphabet": ["a"], "cells": {"0": [0, 1], "1": [1, 8]},
        "faces": {"1,0,-": {"1": 0, "8": 0}, "1,0,+": {}},
        "labels": {"1": {"1": ["a"], "8": ["a"]}}, "initial": 0}))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 5
    assert out.splitlines() == ["hda: 2 violation(s)",
                                "  - face (1,0,+) undefined on cell 1",
                                "  - face (1,0,+) undefined on cell 8"]


def test_validate_parse_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 3
    assert "ParseError" in err


def test_validate_unknown_kind(tmp_path, capsys):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"kind": "mystery", "format_version": 1}))
    code, _, err = run(capsys, "validate", str(path))
    assert code == 4


def test_translate_pnet_to_hda(capsys):
    code, out, _ = run(capsys, "translate", str(FIXTURES / "pnet_two_mutex.json"),
                       "--to", "hda", "--max-dim", "2")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["cells"]["0"]) == 4
    assert len(doc["cells"]["1"]) == 4
    assert len(doc["cells"]["2"]) == 0


def test_translate_es_to_hda_counts(capsys):
    code, out, _ = run(capsys, "translate", str(FIXTURES / "es_three_free_events.json"),
                       "--to", "hda")
    assert code == 0
    doc = json.loads(out)
    assert [len(doc["cells"][str(n)]) for n in range(4)] == [8, 12, 12, 6]


def test_translate_output_revalidates(tmp_path, capsys):
    out_path = tmp_path / "out.json"
    code, _, _ = run(capsys, "translate", str(FIXTURES / "acr_triple_diamond.json"),
                     "--to", "hda", "-o", str(out_path))
    assert code == 0
    code, out, _ = run(capsys, "validate", str(out_path))
    assert code == 0


def test_translate_no_such_functor(capsys):
    code, _, err = run(capsys, "translate", str(FIXTURES / "es_three_free_events.json"),
                       "--to", "acr")
    assert code == 6


def test_translate_hda_to_es_not_linear(tmp_path, capsys):
    out_path = tmp_path / "hda.json"
    code, _, _ = run(capsys, "translate", str(FIXTURES / "pnet_double_token.json"),
                     "--to", "hda", "--max-dim", "2", "--max-states", "50",
                     "-o", str(out_path))
    assert code == 0
    code, _, err = run(capsys, "translate", str(out_path), "--to", "es")
    assert code == 11
    assert "NotLinear" in err


def test_translate_dimension_cap(capsys):
    code, _, err = run(capsys, "translate", str(FIXTURES / "pnet_double_token.json"),
                       "--to", "hda", "--max-dim", "1")
    assert code == 8
    code, out, _ = run(capsys, "translate", str(FIXTURES / "pnet_double_token.json"),
                       "--to", "hda", "--max-dim", "1", "--truncate")
    assert code == 0


def test_translate_explosion_limit(tmp_path, capsys):
    doc = {"kind": "pnet", "format_version": 1, "places": ["p"], "m0": {},
           "events": ["e"], "pre": {"e": {}}, "post": {"e": {"p": 1}}}
    path = tmp_path / "unbounded.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "translate", str(path), "--to", "hda",
                       "--max-states", "40")
    assert code == 7


def test_translate_rejects_dangling_ts_target(tmp_path, capsys):
    doc = json.loads((FIXTURES / "ts_mutex_square.json").read_text())
    doc["trans"].append(["z", "e1", "nowhere"])
    path = tmp_path / "dangling.json"
    path.write_text(json.dumps(doc))
    for argv in (("translate", str(path), "--to", "hda"), ("export-dot", str(path))):
        code, out, err = run(capsys, *argv)
        assert code == 5
        assert out == ""
        assert "transition target 'nowhere' not a state" in err


def test_translate_rejects_hda_initial_not_a_vertex(tmp_path, capsys):
    doc = json.loads((FIXTURES / "hda_three_free_events.json").read_text())
    doc["initial"] = 99
    path = tmp_path / "initial.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "translate", str(path), "--to", "ts")
    assert code == 5
    assert out == ""
    assert "is not a 0-cell" in err


def _as_list(field):
    def mutate(doc):
        doc[field] = list(doc[field].values())
    return mutate


def _first_state_as_list(doc):
    doc["states"][0] = [doc["states"][0]]


def _initial_as_list(doc):
    doc["initial"] = [doc["initial"]]


def _fractional_tokens(doc):
    doc["m0"] = {p: 1.5 for p in doc["m0"]}


def _sym_key_out_of_range(doc):
    doc["sym"]["2,1"] = dict(doc["sym"]["2,0"])


def _one_edge_with_face_key_out_of_range(doc):
    doc.clear()
    doc.update({"kind": "hda", "format_version": 1, "alphabet": ["a"],
                "cells": {"0": [0, 1], "1": [0]},
                "faces": {"1,0,-": {"0": 0}, "1,0,+": {"0": 1}, "1,5,-": {"0": 0}},
                "labels": {"1": {"0": ["a"]}}, "initial": 0})


def _negative_cells_key(doc):
    doc["cells"]["-1"] = []


def _set(*path, value):
    """A mutation that sets the entry at ``path`` to ``value``."""
    def mutate(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return mutate


def _cell_listed_twice(doc):
    doc["cells"]["1"].append(0)


@pytest.mark.parametrize("fixture,mutate", [
    ("hda_three_free_events.json", _as_list("cells")),
    ("hda_three_free_events.json", _as_list("faces")),
    ("hda_three_free_events.json", _as_list("sym")),
    ("hda_three_free_events.json", _as_list("labels")),
    ("pnet_two_mutex.json", _as_list("pre")),
    ("ts_mutex_square.json", _first_state_as_list),
    ("ts_mutex_square.json", _initial_as_list),
    ("pnet_two_mutex.json", _fractional_tokens),
    ("hda_three_free_events.json", _sym_key_out_of_range),
    ("hda_three_free_events.json", _one_edge_with_face_key_out_of_range),
    ("hda_three_free_events.json", _negative_cells_key),
    ("hda_three_free_events.json", _set("faces", "1,0,-", "99", value=0)),
    ("hda_three_free_events.json", _set("labels", "1", "99", value=["a"])),
    ("hda_three_free_events.json", _set("labels", "7", value={})),
    ("hda_three_free_events.json", _set("faces", "7,0,-", value={})),
    ("hda_three_free_events.json", _set("sym", "5,0", value={})),
    ("hda_three_free_events.json", _cell_listed_twice),
    ("pnet_two_mutex.json", _set("pre", "zzz", value={"p": 1})),
], ids=["hda-cells", "hda-faces", "hda-sym", "hda-labels", "pnet-pre", "ts-state", "ts-initial",
        "pnet-tokens", "hda-sym-key-range", "hda-face-key-range", "hda-cells-key-range",
        "hda-face-entry-names-no-cell", "hda-label-entry-names-no-cell", "hda-labels-dimension",
        "hda-face-dimension", "hda-sym-dimension", "hda-cell-listed-twice", "pnet-pre-names-no-event"])
def test_malformed_document_exits_3(tmp_path, capsys, fixture, mutate):
    # each shape used to escape as an AttributeError or TypeError traceback,
    # or (fractional tokens, table keys out of range, keys naming nothing)
    # to pass silently
    doc = json.loads((FIXTURES / fixture).read_text())
    mutate(doc)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 3
    assert out == ""
    assert err.startswith("error: ParseError: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("doc,message", [
    ({"kind": "es", "events": ["a", "a"], "causality": [], "conflict": []}, "events lists 'a' twice"),
    ({"kind": "es", "events": [1, 1.0], "causality": [], "conflict": []}, "events lists 1.0 twice"),
    ({"kind": "ts", "states": ["s", "s"], "initial": "s", "events": [], "trans": []},
     "states lists 's' twice"),
    ({"kind": "pnet", "places": ["p", "p"], "m0": {}, "events": [], "pre": {}, "post": {}},
     "places lists 'p' twice"),
    ({"kind": "hda", "alphabet": ["a", "a"], "cells": {"0": [0]}, "faces": {}, "initial": 0},
     "alphabet lists 'a' twice"),
], ids=["es-events", "es-events-equal-numbers", "ts-states", "pnet-places", "hda-alphabet"])
def test_a_name_listed_twice_exits_3(tmp_path, capsys, doc, message):
    # each was merged into one name, and the document passed
    path = tmp_path / "twice.json"
    path.write_text(json.dumps({"format_version": 1, **doc}))
    assert run(capsys, "validate", str(path)) == (3, "", f"error: ParseError: {message}\n")


@pytest.mark.parametrize("number", ["1e400", "-1e400", "NaN"])
def test_a_non_finite_number_name_exits_3(tmp_path, capsys, number):
    # an infinite event was printed as Infinity, which strict JSON refuses
    path = tmp_path / "events.json"
    path.write_text('{"kind": "es", "format_version": 1, "events": [%s, "a"], '
                    '"causality": [], "conflict": []}' % number)
    code, out, err = run(capsys, "translate", str(path), "--to", "hda", "--max-dim", "1", "--truncate")
    assert (code, out) == (3, "")
    assert err.startswith("error: ParseError: events must be a finite number, got ")


@pytest.mark.parametrize("raw", [b"[" * 100000 + b"]" * 100000, b"\xff\xfe{}"],
                         ids=["deep-nesting", "not-utf8"])
def test_undecodable_bytes_exit_3(tmp_path, capsys, monkeypatch, raw):
    # a nesting deeper than the decoder's recursion limit, and a byte that
    # is not UTF-8, from a file and on stdin
    import io
    import sys

    path = tmp_path / "raw.json"
    path.write_bytes(raw)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(raw)))
    for source in (str(path), "-"):
        code, out, err = run(capsys, "validate", source)
        assert code == 3
        assert out == ""
        assert err.startswith("error: ParseError: ")
        assert "Traceback" not in err


STAR_DOCUMENTS = {
    "acr": {"kind": "acr", "format_version": 1, "states": ["x", "y"], "initial": "x",
            "events": ["*"], "trans": [["x", "*", "y"]], "indep": []},
    "es": {"kind": "es", "format_version": 1, "events": ["*", "a"], "causality": [],
           "conflict": []},
    "pnet": {"kind": "pnet", "format_version": 1, "places": ["p"], "m0": {"p": 1},
             "events": ["*"], "pre": {"*": {"p": 1}}, "post": {}},
}


@pytest.mark.parametrize("kind", sorted(STAR_DOCUMENTS))
@pytest.mark.parametrize("command", [["translate", "--to", "hda"], ["export-dot"]],
                         ids=["translate", "export-dot"])
def test_an_idle_event_exits_15(tmp_path, capsys, kind, command):
    # only a transition system read with --idle may carry the idle event;
    # these used to print an automaton that validate rejects
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(STAR_DOCUMENTS[kind]))
    code, out, err = run(capsys, command[0], str(path), *command[1:])
    assert code == 15
    assert out == ""
    assert err.startswith("error: StarClash: ")


def _bad_face_value(doc):
    doc["faces"]["3,1,+"]["57"] = "x"


def _bad_face_key(doc):
    table = doc["faces"]["3,1,+"]
    table["5x7"] = table.pop("57")


def _bad_key_after_bad_value(doc):
    table = doc["faces"]["3,1,+"]
    table["57"] = True
    table["1x"] = table.pop("100")


def _bad_key_before_bad_value(doc):
    table = doc["faces"]["3,1,+"]
    table["57"] = True
    doc["faces"]["3,1,+"] = {"1x": 0, **table}


def _bad_sym_value(doc):
    doc["sym"]["4,2"]["9"] = -1.0


def _bool_in_label(doc):
    doc["labels"]["3"]["57"] = ["a", 1.5, True]


def _missing_label(doc):
    del doc["labels"]["4"]["70"]


def _string_cell_index(doc):
    doc["cells"]["4"][70] = "70"


@pytest.mark.parametrize("mutate,message", [
    (_bad_face_value, "face table '3,1,+'[57] must be an integer, got 'x'"),
    (_bad_face_key, "bad face table '3,1,+': invalid literal for int() with base 10: '5x7'"),
    (_bad_key_after_bad_value, "face table '3,1,+'[57] must be an integer, got True"),
    (_bad_key_before_bad_value,
     "bad face table '3,1,+': invalid literal for int() with base 10: '1x'"),
    (_bad_sym_value, "sym table '4,2'[9] must be an integer, got -1.0"),
    (_bool_in_label, "labels must be a string or a number, got True"),
    (_missing_label, "cell (4,70) has no label"),
    (_string_cell_index, "a cell index must be an integer, got '70'"),
], ids=["face-value", "face-key", "key-after-value", "key-before-value", "sym-value",
        "label-bool", "label-missing", "cell-index"])
def test_large_bad_table_names_its_first_bad_entry(tmp_path, capsys, mutate, message):
    # tables are read in bulk; a bad one still gets the message of its
    # first bad entry, as when every entry was read on its own
    doc = json.loads(jsonio.print_document("hda", es_to_hda(make_event_structure("abcde"))))
    assert len(doc["faces"]["3,1,+"]) == 240
    mutate(doc)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out, err) == (3, "", f"error: ParseError: {message}\n")


def test_laws_suite_pass(capsys):
    code, out, _ = run(capsys, "laws", "--suite", "comonad-sts", "--count", "15",
                       "--seed", "1")
    assert code == 0
    assert "pass" in out
    payload = json.loads(out[out.index("\n[") + 1:])
    assert payload[0]["law"] == "comonad-identity[sTS]"
    assert payload[0]["seed"] == 1


def test_laws_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("HDABRIDGE_SEED", "7")
    code, out, _ = run(capsys, "laws", "--suite", "kleisli-sts", "--count", "10")
    assert code == 0
    payload = json.loads(out[out.index("\n[") + 1:])
    assert payload[0]["seed"] == 7


def test_laws_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["laws", "--suite", "nope"])
    assert exc.value.code == 2


def test_laws_env_seed_not_an_integer_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("HDABRIDGE_SEED", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["laws", "--suite", "comonad-sts"])
    assert exc.value.code == 2
    assert "error: HDABRIDGE_SEED: invalid int value: 'abc'" in capsys.readouterr().err
    # an explicit --seed does not read the variable
    assert run(capsys, "laws", "--suite", "comonad-sts", "--count", "1", "--seed", "3")[0] == 0


def laws_seed(capsys, *argv) -> int:
    code, out, _ = run(capsys, "laws", "--suite", "comonad-sts", "--count", "2", *argv)
    assert code == 0
    return json.loads(out[out.index("\n[") + 1:])[0]["seed"]


def test_calls_after_the_first_build_no_parser(capsys, monkeypatch, tmp_path):
    run(capsys, "validate", PNET_DOC)
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    hda = str(tmp_path / "hda.json")
    assert run(capsys, "translate", ES_DOC, "--to", "hda", "-o", hda)[0] == 0
    assert run(capsys, "validate", hda)[0] == 0
    assert laws_seed(capsys, "--seed", "1") == 1
    assert run(capsys, "export-dot", hda)[0] == 0
    assert built == []


def test_no_option_crosses_calls(capsys):
    argv = ["translate", ES_DOC, "--to", "hda", "--max-dim", "2"]
    assert run(capsys, *argv, "--truncate")[0] == 0
    assert run(capsys, *argv)[0] == 8


def test_env_seed_is_read_at_each_call(capsys, monkeypatch):
    assert laws_seed(capsys, "--seed", "5") == 5
    monkeypatch.setenv("HDABRIDGE_SEED", "7")
    assert laws_seed(capsys) == 7


def test_usage_error_leaves_the_next_call_working(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["translate", ES_DOC, "--to", "nowhere"])
    assert exc.value.code == 2
    assert run(capsys, "validate", PNET_DOC)[0] == 0


def test_help_prints_the_built_parsers_help(capsys):
    run(capsys, "validate", PNET_DOC)
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == build_parser().format_help()


@pytest.mark.parametrize("argv", [
    ["translate", HDA_DOC, "--to", "pnet", "--cap", "-1"],
    ["translate", HDA_DOC, "--to", "pnet", "--cap", "one"],
    ["translate", PNET_DOC, "--to", "hda", "--max-states", "0"],
    ["export-dot", PNET_DOC, "--max-states", "-5"],
    ["laws", "--suite", "comonad-es", "--count", "-3"],
])
def test_numeric_argument_below_its_bound_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {argv[-2]}: " in capsys.readouterr().err


@pytest.mark.parametrize("argv,code", [
    (["translate", HDA_DOC, "--to", "pnet", "--cap", "0"], 0),
    # one state passes the parser; the net's reachability then stops at it
    (["translate", PNET_DOC, "--to", "hda", "--max-states", "1"], 7),
    (["laws", "--suite", "comonad-es", "--count", "0"], 0),
])
def test_numeric_argument_at_its_bound_runs(capsys, argv, code):
    got, out, _ = run(capsys, *argv)
    assert got == code
    if code == 0:
        assert out


def test_export_dot_triple_diamond(capsys):
    code, out, _ = run(capsys, "export-dot", str(FIXTURES / "acr_triple_diamond.json"))
    assert code == 0
    nodes = [l for l in out.splitlines() if "shape=" in l]
    edges = [l for l in out.splitlines() if "->" in l and "label=" in l and "dashed" not in l]
    squares = [l for l in out.splitlines() if "dashed" in l]
    assert len(nodes) == 7
    assert len(edges) == 9
    assert len(squares) == 3
    assert '"x" [shape=doublecircle];' in out


def test_export_dot_deterministic(capsys):
    _, out1, _ = run(capsys, "export-dot", str(FIXTURES / "acr_full_cube.json"))
    _, out2, _ = run(capsys, "export-dot", str(FIXTURES / "acr_full_cube.json"))
    assert out1 == out2


DOT_CASES = [(name, style) for name in ("acr_full_cube", "es_three_free_events")
             for style in ("diagonals", "clusters")]


@pytest.mark.parametrize("name,style", DOT_CASES)
def test_export_dot_pinned_bytes(capsys, name, style):
    """Vertices, edges and squares in the exact bytes of tests/golden; the
    event structure's automaton is built through its CTS."""
    code, out, _ = run(capsys, "export-dot", str(FIXTURES / f"{name}.json"), "--dim2", style)
    assert code == 0
    assert out == (GOLDEN / f"{name}.{style}.dot").read_text()


@pytest.mark.parametrize("hash_seed", ["0", "1", "2"])
def test_export_dot_names_do_not_depend_on_string_hashing(hash_seed):
    """Configurations are sets of events; their names list the members in
    canonical order under every hash seed."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-m", "hdabridge.cli", "export-dot",
         str(FIXTURES / "es_three_free_events.json"), "--dim2", "clusters"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out == (GOLDEN / "es_three_free_events.clusters.dot").read_text()


@pytest.mark.parametrize("events", [[1, 2], [0, "b", "c"]])
@pytest.mark.parametrize("style", ["diagonals", "clusters"])
def test_export_dot_spells_number_named_events(events, style):
    """JSON names may be numbers: each square's label is spelled like an
    edge's, so int and mixed event names render without a traceback."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    doc = json.dumps({"kind": "es", "format_version": 1, "events": events,
                      "causality": [], "conflict": []})
    run = subprocess.run([sys.executable, "-m", "hdabridge.cli", "export-dot", "-", "--dim2", style],
                         input=doc, env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert "Traceback" not in run.stderr
    assert ('label="1||2' if events == [1, 2] else 'label="0||b') in run.stdout


@pytest.mark.parametrize("hash_seed", ["0", "1", "2"])
def test_validate_es_violations_do_not_depend_on_string_hashing(tmp_path, hash_seed):
    """Transitivity and heredity violations are listed in canonical order
    under every hash seed."""
    path = tmp_path / "es.json"
    path.write_text(json.dumps({
        "kind": "es", "format_version": 1, "events": ["a", "b", "c", "d", "e"],
        "causality": [["a", "b"], ["b", "c"], ["b", "d"], ["b", "e"]],
        "conflict": [["b", "e"]]}))
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-m", "hdabridge.cli", "validate", str(path)],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 5
    assert run.stdout == (
        "event structure: 6 violation(s)\n"
        "  - causality not transitive on ('a','b','c')\n"
        "  - causality not transitive on ('a','b','d')\n"
        "  - causality not transitive on ('a','b','e')\n"
        "  - conflict not hereditary: 'e'#'b' <= 'c'\n"
        "  - conflict not hereditary: 'e'#'b' <= 'd'\n"
        "  - conflict not hereditary: 'e'#'b' <= 'e'\n")


@pytest.mark.parametrize("argv", [["translate", ES_DOC, "--to", "hda"],
                                  ["laws", "--suite", "comonad-es", "--count", "5"]],
                         ids=["translate", "laws"])
def test_closed_stdout_exits_18_without_a_traceback(argv):
    """The reader of standard output is gone before the command writes."""
    read, write = os.pipe()
    os.close(read)
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    try:
        run = subprocess.run([sys.executable, "-m", "hdabridge.cli", *argv], stdout=write,
                             stderr=subprocess.PIPE, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)})
    finally:
        os.close(write)
    assert (run.returncode, run.stderr) == (18, "")


def test_laws_report_list_prints_as_json_dumps(capsys):
    code, out, _ = run(capsys, "laws", "--suite", "comonad-es", "--count", "3")
    assert code == 0
    text = out[out.index("\n[") + 1:]
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    report = LawReport(law="x", instances=2)
    report.fail({"pairs": (0, 1), "model": jsonio.model_to_document("ts", fixture("ts_mutex_square"))})
    assert jsonio.format_json([report.to_json()]) == \
        json.dumps([report.to_json()], indent=2, sort_keys=True)


def test_export_dot_single_vertex(tmp_path, capsys):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"kind": "ts", "format_version": 1, "states": ["s"],
                                "initial": "s", "events": [], "trans": []}))
    code, out, _ = run(capsys, "export-dot", str(path))
    assert code == 0
    assert out.count("shape=") == 1


def test_export_dot_cluster_style(capsys):
    code, out, _ = run(capsys, "export-dot", str(FIXTURES / "acr_mutex_square.json"),
                       "--dim2", "clusters")
    assert code == 0
    assert "subgraph cluster_square_0" in out


def test_stdin_stdout_roundtrip(capsys, monkeypatch, tmp_path):
    import io
    import sys

    text = (FIXTURES / "ts_mutex_square.json").read_text()
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, _ = run(capsys, "translate", "-", "--to", "hda")
    assert code == 0
    assert json.loads(out)["kind"] == "hda"


def test_help_documents_exit_codes(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in ("ParseError", "UnknownKind", "NoSuchFunctor", "ExplosionLimit",
                 "DimensionCapExceeded", "CapExceeded", "NotLinear", "StarClash"):
        assert name in out
    table = dict(line.split() for line in out.split("exit codes:\n")[1].splitlines())
    own = [k for k in vars(errors).values()
           if isinstance(k, type) and issubclass(k, errors.HdaBridgeError)
           and "exit_code" in vars(k) and k is not errors.HdaBridgeError]
    assert len(own) == 13
    for klass in own:
        assert table[klass.__name__] == str(klass.exit_code)
    assert len(set(table.values())) == len(table)


def test_translate_hda_back_to_models(tmp_path, capsys):
    # automaton loaded from a document has plain cell ids as keys; the
    # readback must still serialize
    code, out, _ = run(capsys, "translate", str(FIXTURES / "hda_three_free_events.json"),
                       "--to", "acr")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["states"]) == 8
    assert len(doc["indep"]) == 12
    path = tmp_path / "acr.json"
    path.write_text(out)
    code, _, _ = run(capsys, "validate", str(path))
    assert code == 0
    code, out, _ = run(capsys, "translate", str(FIXTURES / "hda_three_free_events.json"),
                       "--to", "es")
    assert code == 0
    assert json.loads(out)["events"] == ["a", "b", "c"]


def test_translate_hda_to_ts_with_idle(capsys):
    code, out, _ = run(capsys, "translate", str(FIXTURES / "hda_three_free_events.json"),
                       "--to", "ts")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["states"]) == 8 and len(doc["trans"]) == 12
    assert "*" not in doc["events"]
    code, out, _ = run(capsys, "translate", str(FIXTURES / "hda_three_free_events.json"),
                       "--to", "ts", "--idle")
    assert code == 0
    doc = json.loads(out)
    assert "*" in doc["events"]
    assert len(doc["trans"]) == 12 + 8


@pytest.mark.parametrize("where", [".", "missing/out.json"], ids=["directory", "no-parent"])
def test_unwritable_output_path_exits_18(tmp_path, capsys, where):
    output = str(tmp_path / where)
    code, out, err = run(capsys, "translate", ES_DOC, "--to", "hda", "-o", output)
    assert (code, out) == (18, "")
    assert err.startswith("error: ") and output in err
    assert "Traceback" not in err


@pytest.fixture
def collector_state():
    """Puts the collector back as the test found it."""
    was = gc.isenabled()
    yield
    (gc.enable if was else gc.disable)()


CHAIN4_TS = {"kind": "ts", "format_version": 1, "states": [f"s{i}" for i in range(5)],
             "initial": "s0", "events": list("abcd"),
             "trans": [[f"s{i}", a, f"s{i + 1}"] for i, a in enumerate("abcd")]}


def _exits(tmp_path):
    """(argv, exit code) for a success and for each way out of main."""
    malformed, invalid = tmp_path / "malformed.json", tmp_path / "invalid.json"
    malformed.write_text("{not json")
    invalid.write_text(json.dumps({**CHAIN4_TS, "trans": [["s0", "a", "nowhere"]]}))
    return [(["validate", ES_DOC], 0),
            (["validate", str(malformed)], 3),
            (["translate", str(invalid), "--to", "hda"], 5),
            (["translate", ES_DOC, "--to", "hda", "-o", str(tmp_path)], 18)]


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_main_restores_the_collector_on_every_exit(tmp_path, capsys, monkeypatch,
                                                    collector_state, enabled):
    (gc.enable if enabled else gc.disable)()
    for argv, want in _exits(tmp_path):
        assert run(capsys, *argv)[0] == want
        assert gc.isenabled() is enabled, argv
    monkeypatch.setenv("HDABRIDGE_SEED", "x")
    with pytest.raises(SystemExit) as exc:
        main(["laws", "--suite", "comonad-es", "--count", "1"])
    assert exc.value.code == 2
    assert gc.isenabled() is enabled


def test_region_synthesis_starts_no_collection(tmp_path, capsys, collector_state):
    chain = tmp_path / "chain4.json"
    chain.write_text(jsonio.print_document("hda", ts_to_hda1(jsonio.document_to_model(CHAIN4_TS)[1])))
    starts = []

    def spy(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.enable()
    gc.callbacks.append(spy)
    try:
        code = main(["translate", str(chain), "--to", "pnet", "--cap", "2"])
    finally:
        gc.callbacks.remove(spy)
    assert code == 0 and len(json.loads(capsys.readouterr().out)["places"]) == 1782
    assert starts == []


def _every_command(tmp_path):
    """Each command on every fixture, error exits included."""
    for path in sorted(FIXTURES.glob("*.json")):
        yield ["validate", str(path)]
        yield ["export-dot", str(path)]
        for to in ("ts", "acr", "es", "pnet", "hda"):
            yield ["translate", str(path), "--to", to]
    yield from (argv for argv, _ in _exits(tmp_path))
    yield ["laws", "--suite", "all", "--count", "10"]


def test_commands_leave_no_reference_cycles(tmp_path, capsys, collector_state):
    """Why main may pause the collector: every object a command makes is
    freed by reference counting, so a collection afterwards finds nothing."""
    gc.disable()
    run(capsys, "translate", ES_DOC, "--to", "hda")  # warm-up: caches, lazy imports
    gc.collect()
    for argv in _every_command(tmp_path):
        run(capsys, *argv)
        assert gc.collect() == 0, argv

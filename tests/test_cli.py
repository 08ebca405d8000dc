import json
import pathlib

import pytest

from hdabridge import errors, jsonio, zoo
from hdabridge.cli import main

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", str(FIXTURES / "pnet_two_mutex.json"))
    assert code == 0
    assert "ok" in out


def test_validate_reports_violation(tmp_path, capsys):
    doc = jsonio.model_to_document("acr", zoo.mutex_square_acr(True))
    doc["trans"] = [t for t in doc["trans"] if t != ["y1", "e2", "z"]]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 5
    assert "independence square" in out


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

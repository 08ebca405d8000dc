"""Mutated fixtures through the CLI: every input ends in a documented exit
code, never in an uncaught exception, and every document a translation
prints validates."""

import io
import json
import pathlib
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from hdabridge.cli import build_parser, main

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
NAMES = sorted(p.name for p in FIXTURES.glob("*.json"))
TARGETS = {"ts": ["hda"], "acr": ["hda"], "es": ["hda"], "pnet": ["hda"],
           "hda": ["ts", "acr", "es", "pnet"]}
# the codes listed under "exit codes:" in hdabridge --help
DOCUMENTED = {int(code) for code in re.findall(r"^  \S+ +(\d+)$", build_parser().epilog, re.M)}

# one value of each JSON type a field can be retyped to, plus a drawn one
RETYPES = ([0], {"x": 1}, True, None, 1.5, "x")
RETYPED = st.one_of(
    st.lists(st.one_of(st.integers(-1, 3), st.text(max_size=2)), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-1, 3), max_size=2),
    st.booleans(),
    st.none(),
    st.floats(),
    st.text(max_size=3),
)
DOCUMENTS = {name: json.loads((FIXTURES / name).read_text()) for name in NAMES}
FIELDS = [(name, field) for name in NAMES for field in sorted(DOCUMENTS[name])]


@st.composite
def mutations(draw, name, field):
    """Copies of a fixture, each with one change at a node drawn under
    ``field``: the node dropped, or retyped to each of ``RETYPES`` and to a
    drawn value; in an automaton's cell, face or transposition table, also
    a cell index or table entry that names no cell."""
    doc = DOCUMENTS[name]
    path = [field]
    node = doc[field]
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        path.append(key)
        node = node[key]
    out = []
    for value in ("drop", *RETYPES, draw(RETYPED)):
        copy = json.loads(json.dumps(doc))
        parent = copy
        for key in path[:-1]:
            parent = parent[key]
        if value == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        out.append(copy)
    if doc["kind"] == "hda" and field in ("cells", "faces", "sym"):
        copy = json.loads(json.dumps(doc))
        key = draw(st.sampled_from(sorted(copy[field])))
        dangling = draw(st.integers(8, 40))
        if field == "cells":
            copy["cells"][key].append(dangling)
        elif draw(st.booleans()):
            copy[field][key][draw(st.sampled_from(sorted(copy[field][key])))] = dangling
        else:
            copy[field][key][str(dangling)] = 0
        out.append(copy)
    return out


def run_cli(argv, text):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(text)), redirect_stdout(out), \
            redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name,field", FIELDS, ids=[f"{n[:-5]}-{f}" for n, f in FIELDS])
@settings(max_examples=3, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_mutated_fixtures_exit_with_documented_codes(name, field, data):
    targets = TARGETS[DOCUMENTS[name]["kind"]]
    for k, doc in enumerate(data.draw(mutations(name, field))):
        text = json.dumps(doc)
        for argv in (["validate", "-"],
                     ["translate", "-", "--to", targets[k % len(targets)], "--max-states", "200"]):
            code, out, err = run_cli(argv, text)
            assert code in DOCUMENTED, (argv, code, err)
            assert "Traceback" not in err
            if argv[0] == "translate" and code == 0:
                assert run_cli(["validate", "-"], out)[0] == 0, (argv, out)

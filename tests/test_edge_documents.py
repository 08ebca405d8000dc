"""Automaton documents at the edges of the format: sparse cell indices,
face and ``sym`` values that name no cell (negative, far past the cells,
or missing from a sparse list) and a vertex index of 10**12.

Each command's exit code, standard output and standard error are pinned
in ``golden/edge_documents.json``, as the CLI printed them while tables
were still read by document index; reading them by position must change
no byte of them.
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from hdabridge.cli import main

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = json.loads((pathlib.Path(__file__).resolve().parent / "golden" / "edge_documents.json")
                    .read_text(encoding="utf-8"))
HUGE = 10 ** 12


def free3():
    return json.loads((FIXTURES / "hda_three_free_events.json").read_text(encoding="utf-8"))


def renumbered(doc):
    """``doc`` with every cell index k written 2k + 1."""
    def table(t):
        return {str(2 * int(k) + 1): 2 * v + 1 for k, v in t.items()}

    return dict(doc,
                cells={n: [2 * k + 1 for k in ids] for n, ids in doc["cells"].items()},
                faces={key: table(t) for key, t in doc["faces"].items()},
                sym={key: table(t) for key, t in doc["sym"].items()},
                labels={n: {str(2 * int(k) + 1): w for k, w in t.items()}
                        for n, t in doc["labels"].items()},
                initial=2 * doc["initial"] + 1)


def edited(doc, *edits):
    """``doc`` with each (field, table key, entry key, value) set."""
    for field, key, entry, value in edits:
        if key is None:
            doc[field] = value
        else:
            doc[field][key][entry] = value
    return doc


DOCS = {
    # the sparse document of the CI step, which no edge leaves by its + face
    "sparse-ci": lambda: {
        "kind": "hda", "format_version": 1, "alphabet": ["a"], "cells": {"0": [0, 1], "1": [1, 8]},
        "faces": {"1,0,-": {"1": 0, "8": 0}, "1,0,+": {}},
        "labels": {"1": {"1": ["a"], "8": ["a"]}}, "initial": 0},
    "face-minus-one": lambda: edited(free3(), ("faces", "1,0,-", "0", -1)),
    "face-99": lambda: edited(free3(), ("faces", "2,0,-", "0", 99)),
    "face-huge": lambda: edited(free3(), ("faces", "1,0,+", "3", HUGE)),
    "sym-99": lambda: edited(free3(), ("sym", "2,0", "1", 99)),
    "sym-huge": lambda: edited(free3(), ("sym", "3,1", "2", HUGE)),
    "initial-huge": lambda: edited(free3(), ("initial", None, None, HUGE)),
    "vertex-huge": lambda: {
        "kind": "hda", "format_version": 1, "alphabet": [], "cells": {"0": [HUGE]},
        "faces": {}, "labels": {}, "initial": HUGE},
    "edge-to-huge": lambda: {
        "kind": "hda", "format_version": 1, "alphabet": ["a"], "cells": {"0": [0, HUGE], "1": [5]},
        "faces": {"1,0,-": {"5": 0}, "1,0,+": {"5": HUGE}}, "labels": {"1": {"5": ["a"]}},
        "initial": 0},
    "sparse-free3": lambda: renumbered(free3()),
    # 4 and 2 lie among the positions of a dimension but name no cell
    "sparse-stray-value": lambda: edited(renumbered(free3()), ("faces", "1,0,-", "1", 4)),
    "sparse-stray-both": lambda: edited(renumbered(free3()), ("faces", "2,1,+", "3", -1),
                                        ("sym", "2,0", "5", 2)),
    "sparse-stray-initial": lambda: edited(renumbered(free3()), ("initial", None, None, 2)),
}

COMMANDS = (["validate", "-"], ["translate", "-", "--to", "ts"], ["translate", "-", "--to", "es"],
            ["export-dot", "-"])


def run(argv, text):
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    return [code, out.getvalue(), err.getvalue()]


@pytest.mark.parametrize("name", sorted(DOCS))
@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: "-".join(argv[::2]))
def test_edge_document_output_is_pinned(name, argv):
    assert run(argv, json.dumps(DOCS[name]())) == GOLDEN[f"{name} {' '.join(argv)}"]


def test_a_vertex_index_of_a_trillion_is_one_position():
    from hdabridge.jsonio import parse_document
    _, h = parse_document(json.dumps(DOCS["edge-to-huge"]()))
    assert list(h.skeleton.cells[0]) == [0, HUGE] and len(h.skeleton.faces[1, 0, "+"]) == 1
    assert h.skeleton.faces[1, 0, "+"] == [1]

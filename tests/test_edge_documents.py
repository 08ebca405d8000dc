"""Automaton documents at the edges of the format: sparse cell indices,
face and ``sym`` values that name no cell (negative, far past the cells,
or missing from a sparse list) and a vertex index of 10**12.

Each command's exit code, standard output and standard error are pinned
in ``golden/edge_documents.json``, as the CLI printed them while tables
were still read by document index; reading them by position must change
no byte of them.
"""

import contextlib
import hashlib
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

# sha256 of each document printed after parsing, as the printer wrote it
# while it read the range of a column by its min and max; none of the
# commands above prints them
PRINTED = {
    "edge-to-huge": "2d5d9d6bd75a92161d1ed0347e1bde86a1f62f46cb29bd8c955caa44772a88e8",
    "face-99": "c9dae4149a60f8f6f2419fb74e96e2da499ad55ef5d0ada6435cd06a67f0bf68",
    "face-huge": "4ebeffbb38f8a525374b405378af216ca3ef904a865bc8c10373692a019ccc7a",
    "face-minus-one": "96fbd3dea313e3209709e7498db1cbbfd32c17523b1712fff96ed235fbf774a2",
    "initial-huge": "1ecbe7e854d4c1481fae4bd1154d08a2556d38550373c0fff9f5f310ee772243",
    "sparse-ci": "470e77b9d09850e896097b9729f10f2865485cfd47ed49741d14036238398a0f",
    "sparse-free3": "07644324e3701b63103e622b139395aa58559c85fd1f44596bdc373e9b9df5a8",
    "sparse-stray-both": "c931e5e5193732261e122cc246fbe7beabfb274bbec09e35f7da15053a242c91",
    "sparse-stray-initial": "a9ea6983e65c70f5a464644eca707f57668659f66a03a8da48b8adc96528811a",
    "sparse-stray-value": "3d8d6406973e7c5f73f9c6e5f4b0ad183c74011d00cc7771b802b454d854febc",
    "sym-99": "11081eb4832e53f8f6f6bc5d959abbf3315debff4e2dd34a3246768bdb8ab613",
    "sym-huge": "fbbff0f5b69a965499dab4af13d5a35a91c4983639f9837677a2103dc14910d5",
    "vertex-huge": "8574c4f7f47c5f5804d252c0bb90ce7719c0a9c1db72daae9a166300798fe622",
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


@pytest.mark.parametrize("name", sorted(DOCS))
def test_edge_document_prints_its_pinned_bytes(name):
    from hdabridge.jsonio import parse_document, print_document
    text = print_document(*parse_document(json.dumps(DOCS[name]())))
    assert hashlib.sha256(text.encode()).hexdigest() == PRINTED[name]

"""The benchmark's own tests: references, generators, pins and tracing.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json

import pytest

import references
import run
import spans
import workloads

cli = run.load_cli()

from hdabridge import cts, cubical, functors, jsonio  # noqa: E402  (path set by load_cli)


def parse(doc: dict):
    return jsonio.parse_document(json.dumps(doc))[1]


def cells_per_dim(h) -> list:
    return [len(h.cells(d)) for d in range(h.max_dim + 1)]


# ---------------------------------------------------------------------------
# References agree with the program on tiny instances
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("events,causes,conflicts", [
    ("abc", [], []),
    ("abc", [("a", "b")], []),
    ("abcd", [("a", "b"), ("b", "c"), ("a", "c")], [("a", "d")]),
    ("abcd", [], [("a", "b"), ("c", "d")]),
])
def test_es_cells_match_program(events, causes, conflicts):
    # conflict must be hereditary: a # d and a < b < c give b # d, c # d
    closed = set(conflicts)
    for a, b in conflicts:
        closed |= {(c, b) for x, c in causes if x == a}
    doc = {"kind": "es", "format_version": 1, "events": list(events),
           "causality": [list(p) for p in causes], "conflict": sorted(map(list, closed))}
    model = dict(doc, max_dim=len(events))
    h = functors.es_to_hda(parse(doc), max_dim=len(events))
    assert references.es_cells(model) == cells_per_dim(h)


def test_es_cells_free_formula():
    free = {"events": list(workloads.ES_EVENTS), "causality": [], "conflict": [], "max_dim": 6}
    assert references.es_cells(free) == [64, 192, 480, 960, 1440, 1440, 720]
    three = {"events": ["a", "b", "c"], "causality": [], "conflict": [], "max_dim": 3}
    assert references.es_cells(three) == [8, 12, 12, 6]


@pytest.mark.parametrize("doc,max_dim", [
    (workloads._pipeline(2, ("x", "y")), 2),
    (workloads._pipeline(3, ("x",)), 3),
    (workloads._fork_join(1, ("f", "j", "u", "v")), 2),
    (workloads._fork_join(2, ("f", "j", "u")), 4),
])
def test_pn_cells_match_program(doc, max_dim):
    model = dict(doc, max_dim=max_dim)
    h = functors.pn_to_hda(parse(doc), 10000, max_dim)
    assert references.pn_cells(model) == cells_per_dim(h) + [0] * (max_dim + 1 - h.max_dim - 1)


@pytest.mark.parametrize("shape,cap", [
    (workloads._chain("ab"), 2),
    (workloads._chain("abc"), 1),
    (workloads._cycle("abc"), 2),
    (workloads._square_tail("ab", "c"), 1),
    (workloads._two_squares("ab", "cd"), 1),
])
def test_regions_match_program(shape, cap):
    doc = workloads.hda_doc(shape["states"], shape["edges"], shape["squares"])
    program = len(functors.enumerate_regions(parse(doc), cap))
    assert references.regions(dict(shape, cap=cap)) == program
    assert references.exhaustive_regions(dict(shape, cap=cap)) == program


def test_chain_region_counts_pinned():
    """Counts of the program at the commit that defined the benchmark."""
    got = [references.chain_regions(n, cap) for n, cap in ((4, 2), (5, 2), (6, 1), (3, 4))]
    assert got == [1782, 8997, 610, 8272]
    chain = workloads._chain("abcd")
    doc = workloads.hda_doc(chain["states"], chain["edges"])
    assert len(functors.enumerate_regions(parse(doc), 2)) == 1782


def test_region_documents_are_valid_automata():
    for slot, members in workloads._region_variants().items():
        shape = members[0]
        doc = workloads.hda_doc(shape["states"], shape["edges"], shape["squares"])
        assert cubical.validate_hda(parse(doc)).ok, slot


# ---------------------------------------------------------------------------
# Generators and pins
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_determines_documents(workload):
    def docs(seed):
        return [(op.key, op.steps, op.doc) for op in workloads.pool(workload, seed)]

    assert docs(1) == docs(1)
    assert docs(1) != docs(2)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_drawable_op_is_pinned(workload):
    pins = json.loads(run.PINS.read_text(encoding="utf-8"))[workload]
    assert {op.key for op in workloads.all_ops(workload)} == set(pins)


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

def tiny_op(tmp_path):
    op = workloads._es_op("three/0", workloads._es_variants()["three"][0])
    return op, run.write_docs([op], tmp_path)[op.key]


def test_tracer_wraps_lookups_and_removes_wrappers(tmp_path):
    op, paths = tiny_op(tmp_path)
    validate_hda, cts_to_hda = cubical.validate_hda, cts.cts_to_hda
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.VALIDATORS["hda"].__wrapped__ is validate_hda
        assert functors.cts_to_hda.__wrapped__ is cts_to_hda
        _, steps = run.run_op(cli.main, op, paths)
        tracer.drain()
    finally:
        tracer.uninstall()
    assert [code for code, _ in steps] == [0, 0]
    assert spans.wrapped_bindings() == []
    assert cli.VALIDATORS["hda"] is cubical.validate_hda is validate_hda
    assert functors.cts_to_hda is cts.cts_to_hda is cts_to_hda

    recorded = len(tracer.spans)
    names = {name for name, *_ in tracer.spans}
    assert {"cli.main", "cli", "jsonio.parse_document", "cts.enabled_cells_by_dim",
            "cubical.validate_hda", "jsonio.print_document"} <= names
    root = sum(end - start for name, parent, start, end in tracer.spans if parent < 0)
    assert sum(tracer.self_times().values()) == pytest.approx(root)

    run.run_op(cli.main, op, paths)  # untraced now: nothing more recorded
    assert len(tracer.spans) == recorded


def test_counters_repeat_exactly(tmp_path):
    op, paths = tiny_op(tmp_path)

    def counters():
        tracer = spans.Tracer()
        tracer.install()
        try:
            run.run_op(cli.main, op, paths)
            tracer.drain()
        finally:
            tracer.uninstall()
        return dict(tracer.counters)

    first = counters()
    assert first == counters()
    assert first["cts.cells"] == sum(references.es_cells(op.model))
    assert first["cts.enabled_calls"] > first["cts.enabled_true"] > 0

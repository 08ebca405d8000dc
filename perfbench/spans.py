"""Tracing for the benchmark's traced run, from outside the program.

``Tracer.install`` wraps named hdabridge functions at every place they
are looked up: module globals (so ``from .x import f`` copies are
covered) and module-level tables that captured them at import, such as
``cli.VALIDATORS["hda"]``.  Each call records a span (name, parent,
start, end); a span's self time is its duration minus its children's.
Counters are taken from the inputs and outputs of those calls, plus a
counting ``enabled`` predicate swapped into every CTS the translations
build.  ``Tracer.uninstall`` puts every original back.
"""

from __future__ import annotations

import dataclasses
import sys
from collections import Counter
from time import perf_counter

# span name -> the hdabridge functions whose calls it records.  "cli" is
# the CLI's own work: building and running the argument parser (whose
# parse_args is wrapped on each parser built), file I/O and the commands'
# dispatch and printing.  What is left of cli.main's own time is not
# attributed to any layer; run.py reports it as unaccounted.
SPANS = {
    "cli.main": (("cli", "main"),),
    "cli": tuple(("cli", f) for f in (
        "build_parser", "read_text", "write_text", "cmd_validate", "cmd_translate", "cmd_laws")),
    "jsonio.parse_document": (("jsonio", "parse_document"),),
    "jsonio.print_document": (("jsonio", "print_document"),),
    "models.reachable_markings": (("models", "reachable_markings"),),
    "models.configurations": (("models", "configurations"),),
    "cts.build": (("cts", "es_to_cts"), ("cts", "pn_to_cts")),
    "cts.enabled_cells_by_dim": (("cts", "enabled_cells_by_dim"),),
    "cts.cts_to_hda": (("cts", "cts_to_hda"),),
    "cubical.index_complex": (("cubical", "index_complex"),),
    "cubical.validate_hda": (("cubical", "validate_hda"),),
    "functors.translate": tuple(("functors", f) for f in (
        "es_to_hda", "pn_to_hda", "ts_to_hda1", "hda1_to_ts", "acr_to_hda2", "hda2_to_acr")),
    "functors.hda_to_pn": (("functors", "hda_to_pn"),),
    "functors.enumerate_regions": (("functors", "enumerate_regions"),),
    "functors.hda_to_es": (("functors", "hda_to_es"),),
    "functors.transpose": (("functors", "transpose_to_hda"), ("functors", "transpose_to_pn")),
    "laws.check": tuple(("laws", f) for f in (
        "check_comonad_identity", "check_kleisli_lift", "check_adjunction_pn_hda")),
    "laws.hom_enum": tuple(("laws", f) for f in (
        "enumerate_pn_morphisms", "enumerate_hda_morphisms_into_net_hda",
        "enumerate_hda_morphisms")),
    "laws.generate": tuple(("laws", f"gen_{k}") for k in ("ts", "acr", "es", "pn")),
    "laws.canonical": tuple(("laws", f"canonical_{k}") for k in ("ts", "acr", "es")),
}

MAX_CELL_DIM = 7
# reported counters; "cts.enabled_true" is also kept, for cts.enabled_yield
COUNTERS = (
    "jsonio.bytes_out", "models.markings", "models.configs",
    "cts.enabled_calls", "cts.cells", "cts.orbits",
    *(f"cubical.cells.d{n}" for n in range(MAX_CELL_DIM + 1)),
    "functors.flow_assignments", "functors.regions",
    "laws.homs", "laws.instances", "laws.skipped",
)

_MARK = "__perfbench_span__"


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "hdabridge" or name.startswith("hdabridge."))]


def _bindings(targets: dict):
    """(container, key, function) for every module global or module-level
    table entry that holds one of ``targets`` (id -> function)."""
    found = []
    for module in _modules():
        for attr, value in vars(module).items():
            if id(value) in targets and targets[id(value)] is value:
                found.append((vars(module), attr, value))
            elif isinstance(value, dict):
                for key, entry in value.items():
                    if id(entry) in targets and targets[id(entry)] is entry:
                        found.append((value, key, entry))
    return found


def wrapped_bindings() -> list:
    """Every place in hdabridge that still holds a tracing wrapper."""
    out = []
    for module in _modules():
        for attr, value in vars(module).items():
            tables = value.values() if isinstance(value, dict) else ()
            if getattr(value, _MARK, None) or any(getattr(v, _MARK, None) for v in tables):
                out.append(f"{module.__name__}.{attr}")
    return out


class Tracer:
    """Spans and counters for one traced phase; install, run, uninstall."""

    def __init__(self):
        self.spans = []        # [name, parent index or -1, start, end]
        self.counters = Counter()
        self._stack = []
        self._pending = []
        self._patched = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        targets, names = {}, {}
        for span, functions in SPANS.items():
            for module, attr in functions:
                fn = getattr(sys.modules[f"hdabridge.{module}"], attr)
                targets[id(fn)] = fn
                names[id(fn)] = (span, attr)
        wrappers = {}
        for container, key, fn in _bindings(targets):
            if id(fn) not in wrappers:
                span, attr = names[id(fn)]
                wrappers[id(fn)] = self._wrap(span, fn, getattr(self, f"_on_{attr}", None))
            container[key] = wrappers[id(fn)]
            self._patched.append((container, key, fn))

    def uninstall(self) -> None:
        for container, key, fn in reversed(self._patched):
            container[key] = fn
        self._patched = []

    def _wrap(self, name, fn, observe):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, perf_counter(), 0.0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][3] = perf_counter()
                stack.pop()
            if observe is not None:
                result = observe(args, kwargs, result)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__wrapped__ = fn
        setattr(traced, _MARK, name)
        return traced

    # -- counters -------------------------------------------------------------
    # Observers run outside the span.  Those that walk an output only queue
    # it; ``drain`` counts the queue between ops, outside the op's time.

    def _later(self, fn, *args):
        self._pending.append((fn, args))

    def drain(self) -> None:
        pending, self._pending = self._pending, []
        for fn, args in pending:
            fn(*args)

    def _on_build_parser(self, args, kwargs, parser):
        parser.parse_args = self._wrap("cli", parser.parse_args, None)
        return parser

    def _on_print_document(self, args, kwargs, text):
        def count(text):
            self.counters["jsonio.bytes_out"] += len(text.encode("utf-8"))
        self._later(count, text)
        return text

    def _on_reachable_markings(self, args, kwargs, graph):
        self.counters["models.markings"] += len(graph.markings)
        return graph

    def _on_configurations(self, args, kwargs, configs):
        self.counters["models.configs"] += len(configs)
        return configs

    def _count_enabled(self, cts):
        counters = self.counters
        enabled = cts.enabled

        def counted(state, multiset):
            counters["cts.enabled_calls"] += 1
            ok = enabled(state, multiset)
            if ok:
                counters["cts.enabled_true"] += 1
            return ok

        return dataclasses.replace(cts, enabled=counted)

    def _on_es_to_cts(self, args, kwargs, cts):
        return self._count_enabled(cts)

    _on_pn_to_cts = _on_es_to_cts

    def _on_cts_to_hda(self, args, kwargs, hda):
        def count(keys):
            self.counters["cts.cells"] += len(keys)
            self.counters["cts.orbits"] += len(
                {(x, frozenset(Counter(w).items())) for x, w in keys.values()})
        self._later(count, hda.cell_keys)
        return hda

    def _on_index_complex(self, args, kwargs, result):
        def count(keys):
            for dim, n in Counter(cell.dim for cell in keys).items():
                self.counters[f"cubical.cells.d{dim}"] += n
        self._later(count, result[1])
        return result

    def _on_enumerate_regions(self, args, kwargs, regions):
        h = args[0] if args else kwargs["h"]
        cap = args[1] if len(args) > 1 else kwargs["cap"]
        self.counters["functors.flow_assignments"] += (cap + 1) ** (2 * len(h.alphabet))
        self.counters["functors.regions"] += len(regions)
        return regions

    def _on_homs(self, args, kwargs, homs):
        self.counters["laws.homs"] += len(homs)
        return homs

    _on_enumerate_pn_morphisms = _on_homs
    _on_enumerate_hda_morphisms_into_net_hda = _on_homs
    _on_enumerate_hda_morphisms = _on_homs

    def _on_report(self, args, kwargs, report):
        self.counters["laws.instances"] += report.instances
        self.counters["laws.skipped"] += report.skipped
        return report

    _on_check_comonad_identity = _on_report
    _on_check_kleisli_lift = _on_report
    _on_check_adjunction_pn_hda = _on_report

    # -- results --------------------------------------------------------------

    def self_times(self) -> dict:
        """Total self time per span name, in seconds."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = dict.fromkeys(SPANS, 0.0)
        for (name, _, start, end), inner in zip(self.spans, child):
            totals[name] += (end - start) - inner
        return totals

    def inclusive(self, lo: int, hi: int) -> dict:
        """Wall time per span name over spans lo..hi-1, counting a span
        only when no enclosing span has the same name."""
        spans = self.spans
        totals = {}
        for idx in range(lo, hi):
            name, parent, start, end = spans[idx]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][1]
            if parent < 0:
                totals[name] = totals.get(name, 0.0) + end - start
        return totals

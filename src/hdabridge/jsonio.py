"""JSON documents for every model kind.

Every document carries ``kind`` and ``format_version``.  Printing is
canonical (sorted keys and lists), so printing after parsing returns the
same bytes, and parsing after printing returns an equal model.

Schemas (see docs/formats.md for the worked examples):

* ``ts``:   states, initial, events, trans (triples).
* ``lts``:  as ts, plus labels and a total labeling.
* ``acr``:  as ts, plus indep (state, event, event triples; both orders).
* ``es``:   events, causality (strict pairs of the full order), conflict
            (unordered pairs, listed once).
* ``pnet``: places, m0, events, pre, post; markings are place -> count
            objects with zero entries omitted.
* ``hda``:  alphabet, dims, cells per dimension, faces keyed "n,i,sign",
            transpositions keyed "n,i" under "sym", labels per dimension,
            and the initial 0-cell index.  Labels of listed cells never
            use the idle symbol; idle loops are degenerate and implicit.
            A 1-cell labeled by the idle symbol alone is normalized away
            when it is an unreferenced self-loop.
"""

from __future__ import annotations

import itertools
import json

from .cubical import (
    STAR,
    CellId,
    Hda,
    PrecubicalComplex,
    SymmetricCubicalComplex,
)
from .errors import ParseError, UnknownKind
from .models import (
    Acr,
    EventStructure,
    LabeledTransitionSystem,
    Marking,
    PetriNet,
    TransitionSystem,
)
from .util import canon_key, sorted_by_key

FORMAT_VERSION = 1

KINDS = ("ts", "lts", "acr", "es", "pnet", "hda")


# ---------------------------------------------------------------------------
# model -> document
# ---------------------------------------------------------------------------

def _scalarize(values) -> dict:
    """Deterministic JSON-scalar names for state-like values.  Strings and
    ints pass through; anything else (cell ids, markings from in-process
    translations) is renamed q0, q1, ... in canonical order."""
    if all(isinstance(v, (str, int)) and not isinstance(v, bool) for v in values):
        return {v: v for v in values}
    return {v: f"q{i}" for i, v in enumerate(sorted_by_key(values))}


def _ts_body(t: TransitionSystem, rename=None) -> dict:
    rename = rename if rename is not None else _scalarize(t.states)
    return {
        "states": sorted_by_key(rename[s] for s in t.states),
        "initial": rename[t.initial],
        "events": sorted_by_key(t.events),
        "trans": sorted_by_key([[rename[s], e, rename[s2]] for (s, e, s2) in t.trans]),
    }


def model_to_document(kind: str, model) -> dict:
    if kind == "ts":
        body = _ts_body(model)
    elif kind == "lts":
        body = _ts_body(model.ts)
        body["labels"] = sorted_by_key(model.labels)
        body["labeling"] = {str(e): model.labeling[e] for e in sorted_by_key(model.ts.events)}
    elif kind == "acr":
        rename = _scalarize(model.ts.states)
        body = _ts_body(model.ts, rename)
        body["indep"] = sorted_by_key([[rename[s], a, b] for (s, a, b) in model.indep])
    elif kind == "es":
        body = {
            "events": sorted_by_key(model.events),
            "causality": sorted_by_key([[a, b] for (a, b) in model.leq if a != b]),
            "conflict": sorted_by_key(
                [[a, b] for (a, b) in model.conflict if canon_key(a) < canon_key(b)]),
        }
    elif kind == "pnet":
        for p in model.places:
            if not isinstance(p, str):
                raise ParseError(f"net documents need string place names, got {p!r}")
        # every place is a string, so plain sorting is canonical and a
        # marking's pairs are its JSON object as they stand
        body = {
            "places": sorted(model.places),
            "m0": dict(model.m0.items),
            "events": sorted_by_key(model.events),
            "pre": {str(e): dict(model.pre[e].items) for e in sorted_by_key(model.events)},
            "post": {str(e): dict(model.post[e].items) for e in sorted_by_key(model.events)},
        }
    elif kind == "hda":
        sk = model.skeleton
        dims = range(sk.max_dim + 1)
        # every table of dimension n is keyed by cells(n), so each
        # dimension's key strings are spelled once and shared by its tables
        keys = {n: list(map(str, sk.cells.get(n, ()))) for n in dims}
        spelled = {n: dict(zip(sk.cells.get(n, ()), keys[n])) for n in dims}

        def by_key(n, table):
            names = list(map(spelled.get(n, {}).get, table))
            if None in names:  # a key outside cells(n)
                names = list(map(str, table))
            return dict(zip(names, table.values()))

        body = {
            "alphabet": sorted_by_key(model.alphabet),
            "dims": list(dims),
            "cells": {str(n): sorted(sk.cells.get(n, ())) for n in dims},
            "faces": {f"{n},{i},{sign}": by_key(n, table)
                      for (n, i, sign), table in sorted(sk.faces.items())},
            "sym": {f"{n},{i}": by_key(n, table)
                    for (n, i), table in sorted(model.complex.transpositions.items())},
            "labels": {str(n): dict(zip(keys[n], map(list, map(
                model.labeling.__getitem__, zip(itertools.repeat(n), sk.cells.get(n, ()))))))
                for n in dims[1:]},
            "initial": model.initial.index,
        }
    else:
        raise UnknownKind(f"cannot serialize kind {kind!r}")
    return {"kind": kind, "format_version": FORMAT_VERSION, **body}


def print_document(kind: str, model) -> str:
    return format_json(model_to_document(kind, model)) + "\n"


_string = json.encoder.encode_basestring_ascii


def format_json(value) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, byte for byte, for
    objects with string keys.

    With ``indent`` set, ``json.dumps`` runs its pure-Python encoder.  Here
    a list of only ints or only strings, and an object of only ints, are
    each written with one ``str.join``, and an object whose values are all
    lists of only strings (a table of label words) with one per value.  A
    non-string key raises TypeError.
    """
    return _format(value, "\n")


def _format(value, newline: str) -> str:
    """``value`` printed at the indent that ``newline`` carries after its
    line break."""
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        kinds = set(map(type, value))
        if kinds == {int}:
            texts = map(int.__repr__, value)
        elif kinds == {str}:
            texts = map(_string, value)
        else:
            texts = [_format(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(texts) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        if set(map(type, value)) != {str} and not all(isinstance(key, str) for key in value):
            raise TypeError("object keys must be strings")
        inner = newline + "  "
        items = sorted(value.items())
        kinds = set(map(type, value.values()))
        if kinds == {int}:
            texts = [f"{_string(key)}: {item!r}" for key, item in items]
        elif kinds == {list} and \
                set(map(type, itertools.chain.from_iterable(value.values()))) <= {str}:
            deeper = inner + "  "
            texts = [f"{_string(key)}: [{deeper}{(',' + deeper).join(map(_string, item))}{inner}]"
                     if item else f"{_string(key)}: []" for key, item in items]
        else:
            texts = [f"{_string(key)}: {_format(item, inner)}" for key, item in items]
        return "{" + inner + ("," + inner).join(texts) + newline + "}"
    return json.dumps(value)  # a string, number, bool or null: C-encoded


# ---------------------------------------------------------------------------
# document -> model
# ---------------------------------------------------------------------------

def _need(doc: dict, field: str):
    if field not in doc:
        raise ParseError(f"missing field {field!r}")
    return doc[field]


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{what} must be an object, got {type(value).__name__}")
    return value


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{what} must be a list, got {type(value).__name__}")
    return value


def _int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


def _name(value, what: str):
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ParseError(f"{what} must be a string or a number, got {value!r}")
    return value


def _names(doc: dict, field: str) -> list:
    return [_name(v, field) for v in _list(_need(doc, field), field)]


def _tuples(doc: dict, field: str, size: int) -> list:
    """The field's entries, each a list of ``size`` names."""
    out = []
    for value in _list(_need(doc, field), field):
        if not isinstance(value, list) or len(value) != size:
            raise ParseError(f"{field} entries must be {'pairs' if size == 2 else 'triples'}, "
                             f"got {value!r}")
        out.append(tuple(_name(v, field) for v in value))
    return out


def _parse_ts(doc: dict) -> TransitionSystem:
    return TransitionSystem(
        states=frozenset(_names(doc, "states")),
        initial=_name(_need(doc, "initial"), "initial"),
        events=frozenset(_names(doc, "events")),
        trans=frozenset(_tuples(doc, "trans", 3)),
    )


def _parse_marking(obj, what: str) -> Marking:
    counts = {p: _int(n, f"{what}[{p}]") for p, n in _object(obj, what).items()}
    try:
        return Marking.of(counts)
    except ValueError as err:
        raise ParseError(f"bad {what}: {err}") from err


def document_to_model(doc: dict):
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    kind = _need(doc, "kind")
    if kind not in KINDS:
        raise UnknownKind(f"unknown kind {kind!r}")
    version = doc.get("format_version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {version!r}")
    if kind == "ts":
        return kind, _parse_ts(doc)
    if kind == "lts":
        ts = _parse_ts(doc)
        labeling = {e: _name(l, "labeling") for e, l in
                    _object(_need(doc, "labeling"), "labeling").items()}
        return kind, LabeledTransitionSystem(
            ts=ts, labels=frozenset(_names(doc, "labels")), labeling=labeling)
    if kind == "acr":
        ts = _parse_ts(doc)
        indep = set(_tuples(doc, "indep", 3))
        indep |= {(s, b, a) for (s, a, b) in indep}
        return kind, Acr(ts=ts, indep=frozenset(indep))
    if kind == "es":
        events = frozenset(_names(doc, "events"))
        leq = {(e, e) for e in events} | set(_tuples(doc, "causality", 2))
        conflict = set()
        for a, b in _tuples(doc, "conflict", 2):
            conflict |= {(a, b), (b, a)}
        return kind, EventStructure(events=events, leq=frozenset(leq),
                                    conflict=frozenset(conflict))
    if kind == "pnet":
        events = _names(doc, "events")
        places = _names(doc, "places")
        if not all(isinstance(p, str) for p in places):
            raise ParseError(f"place names must be strings, got {places!r}")
        pre_doc = _object(_need(doc, "pre"), "pre")
        post_doc = _object(_need(doc, "post"), "post")
        names = set(map(str, events))
        for field, table in (("pre", pre_doc), ("post", post_doc)):
            if not table.keys() <= names:
                raise ParseError(f"{field} key {min(table.keys() - names)!r} names no event")
        return kind, PetriNet(
            places=frozenset(places),
            m0=_parse_marking(_need(doc, "m0"), "m0"),
            events=frozenset(events),
            pre={e: _parse_marking(pre_doc.get(str(e), {}), f"pre[{e}]") for e in events},
            post={e: _parse_marking(post_doc.get(str(e), {}), f"post[{e}]") for e in events},
        )
    return kind, _parse_hda(doc)


def _int_table(table, what: str, keys) -> dict:
    """An object from the cells of one dimension to integers; ``keys`` are
    those cells as printed, the pair (key strings, their ints), or None
    when ``cells`` lists no such dimension.  A table listing them as
    printed reuses the ints.  Any other is read in bulk (entry by entry
    once found bad, to name its first bad entry), then its keys are
    checked to be cells."""
    obj = _object(table, what)
    if keys is None:
        raise ParseError(f"{what} names no dimension of cells")
    ints = set(map(type, obj.values())) <= {int}
    if ints and list(obj) == keys[0]:
        return dict(zip(keys[1], obj.values()))
    try:
        out = dict(zip(map(int, obj), obj.values())) if ints else \
            {int(a): _int(b, f"{what}[{a}]") for a, b in obj.items()}
    except ValueError as err:
        raise ParseError(f"bad {what}: {err}") from err
    if not out.keys() <= set(keys[1]):
        key = next(a for a in obj if int(a) not in keys[1])
        raise ParseError(f"{what} key {key!r} is not a cell of its dimension")
    return out


def _cell_indices(ids, what: str) -> tuple:
    ids = _list(ids, what)
    if not set(map(type, ids)) <= {int}:
        ids = [_int(i, "a cell index") for i in ids]
    return tuple(sorted(ids))


def _label_words(labels_doc: dict, n: int, ids: tuple) -> list:
    """The label words of the n-cells ``ids``, in order, read in bulk; only
    a table found bad, or with more entries than ``ids``, is read again
    cell by cell, to name its first bad cell, and then its keys are
    checked to be cells."""
    if n == 0:
        return [()] * len(ids)
    table = _object(labels_doc.get(str(n), {}), f"labels[{n}]")
    words = [table.get(key) for key in map(str, ids)]
    if len(table) == len(ids) and set(map(type, words)) <= {list} and \
            set(map(type, itertools.chain.from_iterable(words))) <= {str, int, float}:
        return list(map(tuple, words))
    words = []
    for idx in ids:
        if str(idx) not in table:
            raise ParseError(f"cell ({n},{idx}) has no label")
        word = _list(table[str(idx)], f"label of cell ({n},{idx})")
        words.append(tuple(_name(e, "labels") for e in word))
    spelled = set(map(str, ids))
    if stray := [key for key in table if key not in spelled]:
        raise ParseError(f"labels[{n}] key {stray[0]!r} is not a cell of dimension {n}")
    return words


def _parse_hda(doc: dict) -> Hda:
    try:
        cells = {int(n): _cell_indices(ids, f"cells[{n}]")
                 for n, ids in _object(_need(doc, "cells"), "cells").items()}
    except ValueError as err:
        raise ParseError(f"bad cells table: {err}") from err
    if min(cells, default=0) < 0:
        raise ParseError(f"cells key {str(min(cells))!r} is not a dimension: needs n >= 0")
    max_dim = max(cells, default=0)
    # every table of dimension n is keyed by cells(n), so each dimension's
    # keys are spelled once, in the order a printed table lists them
    printed = {str(n): sorted(ids, key=str) for n, ids in cells.items()}
    spelled = {n: (list(map(str, ints)), ints) for n, ints in printed.items()}
    faces = {}
    for key, table in _object(_need(doc, "faces"), "faces").items():
        try:
            n, i, sign = key.split(",")
            dim, pos = int(n), int(i)
        except ValueError as err:
            raise ParseError(f"bad face key {key!r}: {err}") from err
        if sign not in ("-", "+"):
            raise ParseError(f"bad face sign in key {key!r}")
        if not 0 <= pos <= dim - 1:
            raise ParseError(f"face key {key!r} is out of range: needs 0 <= i <= n-1")
        faces[(dim, pos, sign)] = _int_table(table, f"face table {key!r}", spelled.get(str(dim)))
    sym = {}
    for key, table in _object(doc.get("sym", {}), "sym").items():
        try:
            n, i = key.split(",")
            dim, pos = int(n), int(i)
        except ValueError as err:
            raise ParseError(f"bad sym key {key!r}: {err}") from err
        if not (dim >= 2 and 0 <= pos <= dim - 2):
            raise ParseError(f"sym key {key!r} is out of range: needs n >= 2 and 0 <= i <= n-2")
        sym[(dim, pos)] = _int_table(table, f"sym table {key!r}", spelled.get(str(dim)))
    labels_doc = _object(doc.get("labels", {}), "labels")
    if stray := [key for key in labels_doc if key not in printed or key == "0"]:
        raise ParseError(f"labels key {stray[0]!r} is not a dimension of cells above 0")
    words, labeling = {}, {}
    for n in range(max_dim + 1):
        ids = cells.get(n, ())
        words[n] = _label_words(labels_doc, n, ids)
        labeling.update(zip([CellId(n, idx) for idx in ids], words[n]))
    if len(labeling) < sum(map(len, cells.values())):
        n, idx = next((n, a) for n, ids in cells.items() for a, b in zip(ids, ids[1:]) if a == b)
        raise ParseError(f"cells[{n}] lists index {idx} twice")
    initial = CellId(0, _int(_need(doc, "initial"), "initial"))

    # ingestion normalization: a lone idle-labeled self-loop denotes the
    # degenerate edge over its endpoint and is dropped; any other idle
    # occurrence in a listed label is an error.  Only a dimension whose
    # labels hold the idle symbol, or dimension 2 when some edge is
    # dropped, is walked cell by cell.
    def idle_in(n):
        return STAR in itertools.chain.from_iterable(words.get(n, ()))

    droppable = set()
    for idx in cells.get(1, ()) if idle_in(1) else ():
        word = labeling[CellId(1, idx)]
        if STAR in word:
            if word != (STAR,):
                raise ParseError(f"cell (1,{idx}) mixes idle and ordinary labels")
            src = faces.get((1, 0, "-"), {}).get(idx)
            tgt = faces.get((1, 0, "+"), {}).get(idx)
            if src != tgt:
                raise ParseError(f"idle-labeled cell (1,{idx}) is not a self-loop")
            droppable.add(idx)
    for n in range(2, max_dim + 1):
        faces_below = droppable and n == 2
        for idx in cells.get(n, ()) if faces_below or idle_in(n) else ():
            if STAR in labeling[CellId(n, idx)]:
                raise ParseError(
                    f"cell ({n},{idx}) lists an idle label; degeneracies are implicit")
            for i in range(n) if faces_below else ():
                for sign in ("-", "+"):
                    if faces.get((n, i, sign), {}).get(idx) in droppable:
                        raise ParseError(
                            f"cell ({n},{idx}) has an idle-labeled face; "
                            "replace it with the degenerate edge")
    if droppable:
        cells[1] = tuple(i for i in cells.get(1, ()) if i not in droppable)
        for sign in ("-", "+"):
            table = faces.get((1, 0, sign))
            if table:
                faces[(1, 0, sign)] = {a: b for a, b in table.items() if a not in droppable}
        for idx in droppable:
            labeling.pop(CellId(1, idx))

    alphabet = tuple(sorted_by_key(set(_names(doc, "alphabet")) - {STAR}))
    complex_ = SymmetricCubicalComplex(
        skeleton=PrecubicalComplex(cells=cells, faces=faces, max_dim=max_dim),
        transpositions=sym,
    )
    return Hda(complex=complex_, alphabet=alphabet, labeling=labeling, initial=initial)


def parse_document(text: str):
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as err:
        raise ParseError(f"not valid JSON: {err}") from err
    return document_to_model(doc)

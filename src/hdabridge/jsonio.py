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
import math

from .cubical import (
    STAR,
    CellId,
    Hda,
    PrecubicalComplex,
    SymmetricCubicalComplex,
    Unlisted,
    pick,
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
    else:
        raise UnknownKind(f"cannot serialize kind {kind!r}")
    return {"kind": kind, "format_version": FORMAT_VERSION, **body}


def print_document(kind: str, model) -> str:
    if kind == "hda":
        return _print_hda(model)
    if kind == "pnet":
        return _print_pnet(model)
    return format_json(model_to_document(kind, model)) + "\n"


def _print_pnet(n: PetriNet) -> str:
    """The ``pnet`` document of ``n``, each marking printed from its items:
    every place is a string, so plain sorting is canonical and the items
    come in JSON key order."""
    for p in n.places:
        if not isinstance(p, str):
            raise ParseError(f"net documents need string place names, got {p!r}")

    def marking(m: Marking, newline: str) -> _Text:
        inner = newline + "  "
        entries = [f"{_string(p)}: {count!r}" for p, count in m.items]
        return _Text("{" + inner + ("," + inner).join(entries) + newline + "}" if entries else "{}")

    events = sorted_by_key(n.events)
    return format_json({
        "events": events,
        "format_version": FORMAT_VERSION,
        "kind": "pnet",
        "m0": marking(n.m0, "\n  "),
        "places": sorted(n.places),
        "post": {str(e): marking(n.post[e], _INNER) for e in events},
        "pre": {str(e): marking(n.pre[e], _INNER) for e in events},
    }) + "\n"


def _print_hda(h: Hda) -> str:
    """The ``hda`` document of ``h`` from its columns: as every table of
    dimension n is keyed by cells(n), its key texts and their printed order
    are spelled once and each table is one join; so is each label word."""
    sk = h.skeleton
    dims = range(sk.max_dim + 1)
    texts = {n: list(map(str, sk.cells.get(n, ()))) for n in dims}
    order = {n: sorted(range(len(texts[n])), key=texts[n].__getitem__) for n in dims}
    heads = {n: list(map(f',{_DEEPER}"{{}}": '.format, pick(texts[n], order[n]))) for n in dims}
    # only string letters: a number would also find the letter it equals
    letters = {a: f",{_DEEPER}  {_string(a)}" for a in h.alphabet if type(a) is str}

    def table(col, n: int, d: int, spell=None) -> _Text:
        """The column ``col`` over cells(n) as an object of d-cells, or of ``spell``'s."""
        names, values = heads[n], pick(col, order[n])
        try:  # non-negative ints, of which one past the cells raises IndexError
            if spell or not (set(map(type, col)) <= {int} and min(col, default=0) >= 0):
                raise IndexError
            values = pick(texts[d], values)
        except IndexError:  # label words, or a map undefined somewhere (no entry) or naming no cell
            if None in values:
                kept = [(k, v) for k, v in zip(names, values) if v is not None]
                names, values = zip(*kept) if kept else ((), ())
            values = list(map(spell or (lambda v: str(sk.index_of(d, v))), values))
        parts = list(names) * 2
        parts[0::2], parts[1::2] = names, values
        return _Text("{" + "".join(parts)[1:] + _INNER + "}" if parts else "{}")

    def labels(n: int) -> _Text:
        words = set(h.words[n])
        try:  # an empty word, or a letter outside the alphabet, is spelled by _format
            if () in words:
                raise KeyError
            spelled = {w: "[" + "".join(map(letters.__getitem__, w))[1:] + _DEEPER + "]" for w in words}
        except KeyError:
            spelled = {w: _format(list(w), _DEEPER) for w in words}
        return table(h.words[n], n, n, spelled.__getitem__)

    return format_json({
        "alphabet": sorted_by_key(h.alphabet),
        "cells": {str(n): sorted(sk.cells.get(n, ())) for n in dims},
        "dims": list(dims),
        "faces": {f"{n},{i},{sign}": table(col, n, n - 1) for (n, i, sign), col in sk.faces.items()},
        "format_version": FORMAT_VERSION,
        "initial": _Text(repr(sk.index_of(0, h.initial.index))),
        "kind": "hda",
        "labels": {str(n): labels(n) for n in dims[1:]},
        "sym": {f"{n},{i}": table(col, n, n) for (n, i), col in h.complex.transpositions.items()},
    }) + "\n"


class _Text(str):
    """Printed document text, which ``_format`` writes as it stands."""


_INNER, _DEEPER = "\n    ", "\n      "  # the indents of a table's key and of its entries
_string = json.encoder.encode_basestring_ascii


def format_json(value) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, byte for byte, for
    objects with string keys.

    With ``indent`` set, ``json.dumps`` runs its pure-Python encoder.  Here
    a list of only ints or only strings, and an object of only ints, are
    each written with one ``str.join``.  A non-string key raises TypeError.
    """
    return _format(value, "\n")


def _format(value, newline: str) -> str:
    """``value`` printed at the indent that ``newline`` carries after its
    line break."""
    if type(value) is _Text:
        return value
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
    if isinstance(value, float) and not math.isfinite(value):
        raise ParseError(f"{what} must be a finite number, got {value!r}")
    return value


def _names(doc: dict, field: str) -> list:
    names = [_name(v, field) for v in _list(_need(doc, field), field)]
    if len(set(names)) < len(names):
        repeat = next(v for i, v in enumerate(names) if v in names[:i])
        raise ParseError(f"{field} lists {repeat!r} twice")
    return names


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


def _int_column(table, what: str, ids, texts, below) -> list:
    """A column over the cells ``ids``, spelled ``texts`` (None when
    ``cells`` lists no such dimension), read from an object from those
    cells to integers by one lookup per cell; any other table is read in
    bulk (entry by entry once found bad, to name its first bad entry) and
    its keys checked to be cells.  ``below`` maps the indices the values
    name to positions (None for 0..N-1)."""
    obj = _object(table, what)
    if texts is None:
        raise ParseError(f"{what} names no dimension of cells")
    try:
        col = list(map(obj.__getitem__, texts)) if len(obj) == len(texts) else None
    except KeyError:
        col = None
    if col is None or not set(map(type, col)) <= {int}:
        values = list(obj.values())
        try:
            out = dict(zip(map(int, obj), values)) if set(map(type, values)) <= {int} else \
                {int(a): _int(b, f"{what}[{a}]") for a, b in obj.items()}
        except ValueError as err:
            raise ParseError(f"bad {what}: {err}") from err
        if not out.keys() <= set(ids):
            key = next(a for a in obj if int(a) not in set(ids))
            raise ParseError(f"{what} key {key!r} is not a cell of its dimension")
        col = list(map(out.get, ids))
    if below is None:
        return col
    return [v if v is None else below[v] if v in below else Unlisted(v) for v in col]


def _cell_indices(ids, what: str) -> tuple:
    ids = _list(ids, what)
    if not set(map(type, ids)) <= {int}:
        ids = [_int(i, "a cell index") for i in ids]
    return tuple(sorted(ids))


def _label_words(labels_doc: dict, n: int, ids, texts: list) -> list:
    """The label words of the n-cells ``ids``, spelled ``texts``, in order,
    read in bulk; only a table found bad, with a float letter (which must
    be finite) or with more entries than ``ids``, is read again cell by
    cell, to name its first bad cell, and then its keys are checked to be
    cells."""
    if n == 0:
        return [()] * len(ids)
    table = _object(labels_doc.get(str(n), {}), f"labels[{n}]")
    words = list(map(table.get, texts))
    if len(table) == len(ids) and set(map(type, words)) <= {list} and \
            set(map(type, itertools.chain.from_iterable(words))) <= {str, int}:
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
    # a dimension listing 0..N-1 has its indices as positions; any other
    # maps each index to its position
    positions = {n: dict(zip(ids, range(len(ids)))) for n, ids in cells.items()
                 if ids != tuple(range(len(ids)))}
    cells = {n: ids if n in positions else range(len(ids)) for n, ids in cells.items()}
    # every table of dimension n is keyed by cells(n), so each dimension's
    # keys are spelled once
    texts = {n: list(map(str, ids)) for n, ids in cells.items()}
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
        faces[(dim, pos, sign)] = _int_column(table, f"face table {key!r}", cells.get(dim),
                                              texts.get(dim), positions.get(dim - 1))
    sym = {}
    for key, table in _object(doc.get("sym", {}), "sym").items():
        try:
            n, i = key.split(",")
            dim, pos = int(n), int(i)
        except ValueError as err:
            raise ParseError(f"bad sym key {key!r}: {err}") from err
        if not (dim >= 2 and 0 <= pos <= dim - 2):
            raise ParseError(f"sym key {key!r} is out of range: needs n >= 2 and 0 <= i <= n-2")
        sym[(dim, pos)] = _int_column(table, f"sym table {key!r}", cells.get(dim),
                                      texts.get(dim), positions.get(dim))
    labels_doc = _object(doc.get("labels", {}), "labels")
    if stray := [key for key in labels_doc if key not in set(map(str, cells)) - {"0"}]:
        raise ParseError(f"labels key {stray[0]!r} is not a dimension of cells above 0")
    words = [_label_words(labels_doc, n, cells.get(n, ()), texts.get(n, []))
             for n in range(max_dim + 1)]
    for n, ids in cells.items():
        if len(positions.get(n, ids)) < len(ids):
            idx = next(a for a, b in zip(ids, ids[1:]) if a == b)
            raise ParseError(f"cells[{n}] lists index {idx} twice")
    initial = _int(_need(doc, "initial"), "initial")
    initial = positions[0].get(initial, Unlisted(initial)) if 0 in positions else initial

    # ingestion normalization: a lone idle-labeled self-loop denotes the
    # degenerate edge over its endpoint and is dropped; any other idle
    # occurrence in a listed label is an error.  Only a dimension whose
    # labels hold the idle symbol, or dimension 2 when some edge is
    # dropped, is walked cell by cell.
    def idle_in(n):
        return n <= max_dim and STAR in itertools.chain.from_iterable(words[n])

    def entry(key, j):
        return faces[key][j] if key in faces else None

    edges, droppable = cells.get(1, ()), set()
    for j in range(len(edges)) if idle_in(1) else ():
        if STAR in words[1][j]:
            if words[1][j] != (STAR,):
                raise ParseError(f"cell (1,{edges[j]}) mixes idle and ordinary labels")
            if entry((1, 0, "-"), j) != entry((1, 0, "+"), j):
                raise ParseError(f"idle-labeled cell (1,{edges[j]}) is not a self-loop")
            droppable.add(j)
    for n in range(2, max_dim + 1):
        faces_below = droppable and n == 2
        for j in range(len(cells.get(n, ()))) if faces_below or idle_in(n) else ():
            idx = cells[n][j]
            if STAR in words[n][j]:
                raise ParseError(
                    f"cell ({n},{idx}) lists an idle label; degeneracies are implicit")
            for i in range(n) if faces_below else ():
                for sign in ("-", "+"):
                    if entry((n, i, sign), j) in droppable:
                        raise ParseError(
                            f"cell ({n},{idx}) has an idle-labeled face; "
                            "replace it with the degenerate edge")
    if droppable:  # the kept edges move up to fill the positions of the dropped
        kept = [j for j in range(len(edges)) if j not in droppable]
        moved = dict(zip(kept, range(len(kept))))
        ids, words[1] = tuple(map(edges.__getitem__, kept)), list(map(words[1].__getitem__, kept))
        cells[1] = range(len(ids)) if ids == tuple(range(len(ids))) else ids
        for key, col in faces.items():
            if key[0] == 1:
                faces[key] = list(map(col.__getitem__, kept))
            elif key[0] == 2:
                faces[key] = [moved.get(v, v) if type(v) is int else v for v in col]

    alphabet = tuple(sorted_by_key(set(_names(doc, "alphabet")) - {STAR}))
    complex_ = SymmetricCubicalComplex(
        skeleton=PrecubicalComplex(cells=cells, faces=faces, max_dim=max_dim),
        transpositions=sym,
    )
    return Hda(complex=complex_, alphabet=alphabet, words=words, initial=CellId(0, initial))


def parse_document(text: str):
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as err:
        raise ParseError(f"not valid JSON: {err}") from err
    return document_to_model(doc)

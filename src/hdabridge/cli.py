"""Command-line driver: validate, translate, laws, export-dot.

Each error class carries its own exit code (see errors.py; --help prints
the table).  Paths accept "-" for stdin/stdout.  The HDABRIDGE_SEED
environment variable seeds the law suites.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import errors, jsonio
from .cubical import Hda, truncate, validate_hda
from .dot import DIM2_STYLES, hda_to_dot
from .functors import (
    acr_to_hda2,
    es_to_hda,
    hda1_to_ts,
    hda2_to_acr,
    hda_to_es,
    hda_to_pn,
    pn_to_hda,
    ts_to_hda1,
)
from .laws import GeneratorConfig, check_adjunction_pn_hda, check_comonad_identity, check_kleisli_lift
from .models import validate_acr, validate_es, validate_lts, validate_pn, validate_ts

VALIDATION_FAILED = 5
LAW_COUNTEREXAMPLE = 10
IO_ERROR = 18

VALIDATORS = {
    "ts": validate_ts,
    "lts": validate_lts,
    "acr": validate_acr,
    "es": validate_es,
    "pnet": validate_pn,
    "hda": validate_hda,
}

SUITES = ("comonad-sts", "comonad-acr", "comonad-es", "kleisli-sts", "adjunction-pn", "all")


def read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fp:
            return fp.read()
    except OSError as err:
        raise FileNotFoundError(str(err)) from err


def write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(text)


def cmd_validate(args) -> int:
    kind, model = jsonio.parse_document(read_text(args.path))
    report = VALIDATORS[kind](model)
    print(report)
    return 0 if report.ok else VALIDATION_FAILED


def _translate(kind: str, model, args):
    to = args.to
    if kind == "ts" and to == "hda":
        return "hda", ts_to_hda1(model, idle=args.idle)
    if kind == "hda" and to == "ts":
        return "ts", hda1_to_ts(truncate(model, 1), idle=args.idle)
    if kind == "acr" and to == "hda":
        return "hda", acr_to_hda2(model)
    if kind == "hda" and to == "acr":
        return "acr", hda2_to_acr(model)
    max_dim = args.max_dim if args.max_dim is not None else 3
    if kind == "es" and to == "hda":
        return "hda", es_to_hda(model, max_dim=max_dim, truncate_cells=args.truncate)
    if kind == "hda" and to == "es":
        return "es", hda_to_es(model)
    if kind == "pnet" and to == "hda":
        return "hda", pn_to_hda(model, args.max_states, max_dim,
                                truncate_cells=args.truncate)
    if kind == "hda" and to == "pnet":
        return "pnet", hda_to_pn(model, args.cap).net
    raise errors.NoSuchFunctor(f"no translation from {kind!r} to {to!r}")


def cmd_translate(args) -> int:
    kind, model = jsonio.parse_document(read_text(args.path))
    out_kind, out_model = _translate(kind, model, args)
    write_text(args.output, jsonio.print_document(out_kind, out_model))
    return 0


def cmd_laws(args) -> int:
    seed = args.seed if args.seed is not None else int(os.environ.get("HDABRIDGE_SEED", "0"))
    cfg = GeneratorConfig(seed=seed, count=args.count)
    reports = []
    wanted = SUITES[:-1] if args.suite == "all" else (args.suite,)
    for suite in wanted:
        if suite == "comonad-sts":
            reports.append(check_comonad_identity("sTS", cfg))
        elif suite == "comonad-acr":
            reports.append(check_comonad_identity("ACR", cfg))
        elif suite == "comonad-es":
            reports.append(check_comonad_identity("ES", cfg))
        elif suite == "kleisli-sts":
            reports.append(check_kleisli_lift(cfg))
        elif suite == "adjunction-pn":
            from . import zoo
            from .models import make_pn, make_ts

            pairs = [
                (ts_to_hda1(make_ts(["x", "y"], "x", ["a"], [("x", "a", "y")])),
                 make_pn(["p"], {"p": 1}, ["u"], {"u": {"p": 1}}, {"u": {}})),
                (acr_to_hda2(zoo.mutex_square_acr(True)), zoo.two_mutex_net()),
            ]
            reports.append(check_adjunction_pn_hda(pairs, cap=1, max_states=200, max_dim=2))
    for report in reports:
        print(report)
    print(json.dumps([r.to_json() for r in reports], indent=2, sort_keys=True))
    return 0 if all(r.passed for r in reports) else LAW_COUNTEREXAMPLE


def cmd_export_dot(args) -> int:
    kind, model = jsonio.parse_document(read_text(args.path))
    if kind in ("ts", "lts"):
        h = ts_to_hda1(model if kind == "ts" else model.ts)
    elif kind == "acr":
        h = acr_to_hda2(model)
    elif kind == "es":
        h = es_to_hda(model, max_dim=2, truncate_cells=True)
    elif kind == "pnet":
        h = pn_to_hda(model, args.max_states, 2, truncate_cells=True)
    else:
        h = model
    write_text(args.output, hda_to_dot(h, dim2=args.dim2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    # every non-zero exit but usage, in code order: the error classes with
    # a code of their own, and the outcomes that are not exceptions
    classes = [k for k in vars(errors).values()
               if isinstance(k, type) and issubclass(k, errors.HdaBridgeError)
               and k is not errors.HdaBridgeError and "exit_code" in vars(k)]
    outcomes = [("ValidationFailed", VALIDATION_FAILED), ("LawCounterexample", LAW_COUNTEREXAMPLE),
                ("IoError", IO_ERROR)]
    table = sorted([(k.__name__, k.exit_code) for k in classes] + outcomes, key=lambda nc: nc[1])
    codes = "\n".join(f"  {name:<24} {code}" for name, code in table)
    parser = argparse.ArgumentParser(
        prog="hdabridge",
        description="Validate, translate and law-check concurrency models.",
        epilog="exit codes:\n  ok                       0\n  usage                    2\n" + codes,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="run the model kind's axiom validator")
    p.add_argument("path", help="model document, or - for stdin")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("translate", help="apply a translation between kinds")
    p.add_argument("path", help="model document, or - for stdin")
    p.add_argument("--to", required=True, choices=("ts", "acr", "es", "pnet", "hda"))
    p.add_argument("--cap", type=int, default=1, help="region value bound (default 1)")
    p.add_argument("--max-states", type=int, default=10000, dest="max_states")
    p.add_argument("--max-dim", type=int, default=None, dest="max_dim",
                   help="dimension bound (default 3)")
    p.add_argument("--idle", action="store_true",
                   help="treat idle loops as degenerate on input, or emit them on output")
    p.add_argument("--truncate", action="store_true",
                   help="drop cells above --max-dim instead of failing")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("laws", help="run a law suite on seeded random models")
    p.add_argument("--suite", required=True, choices=SUITES)
    p.add_argument("--seed", type=int, default=None,
                   help="defaults to HDABRIDGE_SEED or 0")
    p.add_argument("--count", type=int, default=100)
    p.set_defaults(func=cmd_laws)

    p = sub.add_parser("export-dot", help="render the 1-skeleton as DOT")
    p.add_argument("path", help="model document, or - for stdin")
    p.add_argument("--dim2", choices=DIM2_STYLES, default="diagonals",
                   help="how to render squares")
    p.add_argument("--max-states", type=int, default=10000, dest="max_states")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_export_dot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except errors.HdaBridgeError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return err.exit_code
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return VALIDATION_FAILED
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return IO_ERROR


if __name__ == "__main__":
    sys.exit(main())

"""Command-line driver: validate, translate, laws, export-dot.

Each error class carries its own exit code (see errors.py; --help prints
the table).  Paths accept "-" for stdin/stdout.  The HDABRIDGE_SEED
environment variable seeds the law suites.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys

from . import errors, jsonio
from .cubical import truncate, validate_hda
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
from .laws import SUITES, GeneratorConfig
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


def read_text(path: str) -> str:
    """The document at ``path``, or on stdin for "-", decoded as UTF-8; a
    byte that is not UTF-8 is a ParseError.  Stdin is decoded from its
    bytes, whatever the locale, when it has them."""
    try:
        if path == "-":
            raw = getattr(sys.stdin, "buffer", None)
            return sys.stdin.read() if raw is None else raw.read().decode("utf-8")
        with open(path, "r", encoding="utf-8") as fp:
            return fp.read()
    except UnicodeDecodeError as err:
        raise errors.ParseError(f"not UTF-8: {err}") from err


def write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(text)


def at_least(k: int):
    """An argparse type: an integer no smaller than ``k``.  Anything else
    is a usage error, exit 2."""
    def integer(text: str) -> int:
        value = int(text)
        if value < k:
            raise argparse.ArgumentTypeError(f"expected an integer >= {k}, got {value}")
        return value
    return integer


def _valid(kind: str, model) -> bool:
    """Run the kind's validator; print its report on stderr if it fails."""
    report = VALIDATORS[kind](model)
    if not report.ok:
        print(report, file=sys.stderr)
    return report.ok


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
    if kind == "es" and to == "hda":
        return "hda", es_to_hda(model, max_dim=args.max_dim, truncate_cells=args.truncate)
    if kind == "hda" and to == "es":
        return "es", hda_to_es(model)
    if kind == "pnet" and to == "hda":
        return "hda", pn_to_hda(model, args.max_states, args.max_dim,
                                truncate_cells=args.truncate)
    if kind == "hda" and to == "pnet":
        return "pnet", hda_to_pn(model, args.cap).net
    raise errors.NoSuchFunctor(f"no translation from {kind!r} to {to!r}")


def cmd_translate(args) -> int:
    kind, model = jsonio.parse_document(read_text(args.path))
    if not _valid(kind, model):
        return VALIDATION_FAILED
    out_kind, out_model = _translate(kind, model, args)
    write_text(args.output, jsonio.print_document(out_kind, out_model))
    return 0


def cmd_laws(args) -> int:
    try:
        seed = args.seed if args.seed is not None else int(os.environ.get("HDABRIDGE_SEED", "0"))
    except ValueError:
        _parser().error(f"HDABRIDGE_SEED: invalid int value: {os.environ['HDABRIDGE_SEED']!r}")
    cfg = GeneratorConfig(seed=seed, count=args.count)
    wanted = SUITES if args.suite == "all" else (args.suite,)
    reports = [SUITES[suite](cfg) for suite in wanted]
    for report in reports:
        print(report)
    print(jsonio.format_json([r.to_json() for r in reports]))
    return 0 if all(r.passed for r in reports) else LAW_COUNTEREXAMPLE


def cmd_export_dot(args) -> int:
    kind, model = jsonio.parse_document(read_text(args.path))
    if not _valid(kind, model):
        return VALIDATION_FAILED
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

    p = sub.add_parser("translate", help="apply a translation between kinds")
    p.add_argument("path", help="model document, or - for stdin")
    p.add_argument("--to", required=True, choices=("ts", "acr", "es", "pnet", "hda"))
    p.add_argument("--cap", type=at_least(0), default=1, help="region value bound (default 1)")
    p.add_argument("--max-states", type=at_least(1), default=10000, dest="max_states")
    p.add_argument("--max-dim", type=int, default=3, dest="max_dim",
                   help="dimension bound (default 3)")
    p.add_argument("--idle", action="store_true",
                   help="treat idle loops as degenerate on input, or emit them on output")
    p.add_argument("--truncate", action="store_true",
                   help="drop cells above --max-dim instead of failing")
    p.add_argument("-o", "--output", default="-")

    p = sub.add_parser("laws", help="run a law suite on seeded random models")
    p.add_argument("--suite", required=True, choices=(*SUITES, "all"))
    p.add_argument("--seed", type=int, default=None,
                   help="defaults to HDABRIDGE_SEED or 0")
    p.add_argument("--count", type=at_least(0), default=100)

    p = sub.add_parser("export-dot", help="render the 1-skeleton as DOT")
    p.add_argument("path", help="model document, or - for stdin")
    p.add_argument("--dim2", choices=DIM2_STYLES, default="diagonals",
                   help="how to render squares")
    p.add_argument("--max-states", type=at_least(1), default=10000, dest="max_states")
    p.add_argument("-o", "--output", default="-")
    return parser


_parser = functools.cache(build_parser)  # caches the builder, not the name: see README
COMMANDS = {"validate": cmd_validate, "translate": cmd_translate, "laws": cmd_laws,
            "export-dot": cmd_export_dot}


def main(argv=None) -> int:
    # nothing the package builds is part of a reference cycle (tests/test_cli.py
    # checks every command), so reference counting frees it all, and the
    # cyclic collector would only rescan live tuples: pause it, then restore it
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = _parser().parse_args(argv)
        code = COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to os.devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return IO_ERROR
    except errors.HdaBridgeError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return err.exit_code
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return VALIDATION_FAILED
    except OSError as err:  # a path that cannot be read or written
        print(f"error: {err}", file=sys.stderr)
        return IO_ERROR
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())

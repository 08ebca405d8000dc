"""hdabridge benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload es-cube --seed 1 --seconds 25 --trace 0

Every op goes through ``hdabridge.cli.main(argv)`` in this interpreter, on
documents written at set-up to a scratch directory inside the checkout:
parse, translate, print, exactly the user path.  Load is a closed loop
with one client: one op at a time, the next sent when the previous one
returns.  Each op's output is checked against a pinned sha256 and against
a reference computed without the program (see references.py); a failed
check counts as a failed op.  End-to-end times are scaled to a reference
machine speed, measured before every op by timing a fixed piece of
interpreter work (see README.md).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
round of ops twice, untraced and then with every layer wrapped (spans.py),
and reports per-layer self times and counters.  The last line of
standard output is the result object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import references
import spans
import workloads
from workloads import ROUND

ROOT = Path(__file__).resolve().parent.parent
PINS = Path(__file__).resolve().parent / "pins.json"
SCRATCH = ROOT / ".perfbench_tmp"
SETUP_PROBES = 5
TAIL = 70  # percentile reported as op_ms.tail; see README.md
MIN_BEYOND = 10   # timed samples that must lie beyond op_ms.tail
MIN_SAMPLES = 35  # timed ops at least: 35 samples leave 11 beyond p70
REFERENCE_S = 0.003  # time of reference_work() at the reference speed
SPEED_WINDOW = 2     # reference timings on each side that set an op's speed


class BenchError(Exception):
    """The benchmark cannot run here (no program, no pins): no result."""


def reference_work() -> float:
    """Time a fixed piece of interpreter work (tuples, a dict, a keyed
    sort) with the collector paused.  It shares no code with hdabridge, so
    it measures the machine's current speed, not the program's."""
    paused = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        table = {}
        for i in range(2500):
            key = (i % 97, i // 97, str(i % 13))
            table[key] = table.get(key, 0) + i
        ranked = sorted(table.items(), key=lambda kv: (kv[0][2], -kv[1]))
        sum(v for _, v in ranked[:500])
        return perf_counter() - start
    finally:
        if paused:
            gc.enable()


def speeds(reference_times) -> list:
    """Machine speed at each op, relative to the reference speed: the
    median reference timing in a window around the op."""
    n = len(reference_times)
    return [REFERENCE_S / statistics.median(
                reference_times[max(0, i - SPEED_WINDOW):min(n, i + SPEED_WINDOW + 1)])
            for i in range(n)]


def load_cli():
    """Import the program from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        from hdabridge import cli
    except ImportError as err:
        raise BenchError(f"cannot import hdabridge from {src}: {err}") from err
    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        raise BenchError(f"hdabridge was imported from {cli.__file__}, not from {src}")
    return cli


def write_docs(ops, directory: Path) -> dict:
    """Write each op's input document; return {op key: {"{in}": .., "{out}": ..}}."""
    paths = {}
    for i, op in enumerate(ops):
        if op.key in paths or op.doc is None:
            paths.setdefault(op.key, {})
            continue
        inp, out = directory / f"op{i}.json", directory / f"op{i}.out.json"
        inp.write_text(json.dumps(op.doc, indent=1, sort_keys=True), encoding="utf-8")
        paths[op.key] = {"{in}": str(inp), "{out}": str(out)}
    return paths


def setup_probe(workload: str, seed: int) -> tuple:
    """Time one set-up in this fresh interpreter: import the program,
    generate the workload's documents and write them.  Returns that time
    and the machine's speed just before it."""
    speed = REFERENCE_S / statistics.median(reference_work() for _ in range(5))
    start = perf_counter()
    load_cli()
    SCRATCH.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix=f"setup-{workload}-", dir=SCRATCH))
    try:
        write_docs(workloads.pool(workload, seed), directory)
        elapsed = perf_counter() - start
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return elapsed, speed


def measure_setup(workload: str, seed: int) -> float:
    """Median set-up time over several fresh interpreters, each scaled to
    the reference speed."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload,
             "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        elapsed, speed = map(float, proc.stdout.split()[-2:])
        times.append(elapsed * speed)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# Ops and their checks
# ---------------------------------------------------------------------------

def run_op(main, op, paths: dict):
    """Run the op's CLI steps; return (seconds, [(exit code, stdout)])."""
    steps = []
    start = perf_counter()
    for step in op.steps:
        argv = [paths.get(a, a) for a in step]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        steps.append((code, out.getvalue()))
    return perf_counter() - start, steps


def printed_document(op, paths: dict, steps) -> bytes:
    """The document the op prints: the translation's output file, or the
    law reports on standard output."""
    if op.doc is not None:
        return Path(paths["{out}"]).read_bytes()
    return steps[0][1].encode("utf-8")


def expected(workload: str, op):
    if workload == "es-cube":
        return references.es_cells(op.model)
    if workload == "pn-tokens":
        return references.pn_cells(op.model)
    if workload == "region-synth":
        return references.regions(op.model)
    return None


def check_printed(workload: str, printed: bytes, expect):
    """None if the printed document agrees with the reference, else why not."""
    if workload in ("es-cube", "pn-tokens"):
        cells = json.loads(printed)["cells"]
        got = [len(cells.get(str(d), ())) for d in range(len(expect))]
        if got != expect or len(cells) != len(expect):
            return f"cells per dimension {got}, reference {expect}"
    elif workload == "region-synth":
        places = len(json.loads(printed)["places"])
        if places != expect:
            return f"{places} places, reference {expect} regions"
    else:
        text = printed.decode("utf-8")
        reports = json.loads(text[text.index("\n[") + 1:])
        failing = [r["law"] for r in reports if not r["passed"]]
        if len(reports) != 5 or failing:
            return f"law reports {len(reports)}, failing {failing}"
    return None


class Checker:
    """Checks every op; a printed document is compared to the reference
    once per distinct sha256, and to its pin every time."""

    def __init__(self, workload: str, pins: dict):
        self.workload = workload
        self.pins = pins
        self.expect = {}
        self.verified = set()

    def prepare(self, ops) -> None:
        for op in ops:
            if op.key not in self.expect:
                self.expect[op.key] = expected(self.workload, op)

    def check(self, op, paths: dict, steps):
        codes = [code for code, _ in steps]
        if any(code != 0 for code in codes):
            return f"exit codes {codes}"
        if len(steps) == 2 and steps[1][1] != "hda: ok\n":
            return f"validate printed {steps[1][1]!r}"
        printed = printed_document(op, paths, steps)
        digest = hashlib.sha256(printed).hexdigest()
        if digest != self.pins.get(op.key):
            return "printed document differs from its pinned sha256"
        if digest not in self.verified:
            problem = check_printed(self.workload, printed, self.expect[op.key])
            if problem:
                return problem
            self.verified.add(digest)
        return None


class Session:
    """Runs checked ops in sequence and keeps the tallies."""

    def __init__(self, cli, workload: str, ops, paths: dict, checker: Checker):
        self.cli = cli  # cli.main is looked up per op, so tracing can wrap it
        self.workload = workload
        self.ops = ops
        self.paths = paths
        self.checker = checker
        self.attempted = 0
        self.failures = []

    def op(self, i: int, after=None):
        """Time the reference work, then run and check op i of the sequence.
        Returns (op seconds or None if it failed, seconds including the
        check, reference seconds)."""
        op = self.ops[i % len(self.ops)]
        paths = self.paths.get(op.key, {})
        self.attempted += 1
        reference = reference_work()
        start = perf_counter()
        seconds = None
        try:
            seconds, steps = run_op(self.cli.main, op, paths)
            problem = self.checker.check(op, paths, steps)
        except (Exception, SystemExit) as err:  # a crash is a failed op
            problem = f"{type(err).__name__}: {err}"
        busy = perf_counter() - start
        if after is not None:
            after()
        if problem:
            self.failures.append(f"{op.key}: {problem}")
            if len(self.failures) <= 20:
                print(f"failed: {self.failures[-1]}", file=sys.stderr)
            seconds = None
        return seconds, busy, reference

    def loop(self, first: int, seconds: float) -> list:
        """Run whole passes over the ops, from index ``first``, until
        ``seconds`` have passed and at least MIN_SAMPLES ops ran; return
        what ``op`` returned for each.  Every op of the pool is then timed
        equally often, whatever the speed of the program or machine."""
        samples = []
        start = perf_counter()
        while True:
            samples.append(self.op(first + len(samples)))
            if (len(samples) % len(self.ops) == 0 and len(samples) >= MIN_SAMPLES
                    and perf_counter() - start >= seconds):
                return samples

    def replay(self, first: int, count: int, after=None) -> list:
        """Op seconds (None if failed) of ops first..first+count-1."""
        return [self.op(i, after)[0] for i in range(first, first + count)]


def percentile(values, q: float) -> float:
    """Linear interpolation between order statistics at q * (n - 1)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def end_to_end(session: Session, seconds: float, setup_s: float) -> dict:
    """Op times scaled to the reference speed (see README.md); the raw
    figures are printed alongside."""
    samples = session.loop(ROUND, seconds)
    speed = speeds([reference for _, _, reference in samples])
    raw = [t for t, _, _ in samples if t is not None]
    times = [t * f for (t, _, _), f in zip(samples, speed) if t is not None]
    if not times:
        raise BenchError("every timed op failed")
    tail = percentile(times, TAIL / 100)
    beyond = sum(t > tail for t in times)
    if beyond < MIN_BEYOND:
        raise BenchError(f"only {beyond} of {len(times)} op times lie beyond p{TAIL}")
    busy = sum(b for _, b, _ in samples)
    # ops_per_s is the median over passes, so a slow phase of the machine
    # during a few passes does not move it
    k = len(session.ops)
    done = [t is not None for t, _, _ in samples]
    scaled_busy = [b * f for (_, b, _), f in zip(samples, speed)]
    rates = [sum(done[i:i + k]) / sum(scaled_busy[i:i + k]) for i in range(0, len(samples), k)]
    print(f"{session.workload}: {len(samples)} ops, {busy:.2f} s busy; op_ms.tail is p{TAIL}, "
          f"{beyond} of {len(times)} samples beyond it; median speed "
          f"{statistics.median(speed):.3f} of the reference; unscaled: op_ms.p50 "
          f"{statistics.median(raw) * 1000:.1f}, op_ms.tail {percentile(raw, TAIL / 100) * 1000:.1f}, "
          f"ops_per_s {len(raw) / busy:.3f}")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "op_ms.p50": metric(statistics.median(times) * 1000, "ms"),
        "op_ms.tail": metric(tail * 1000, "ms"),
        "ops_per_s": metric(statistics.median(rates), "1/s"),
        "peak_rss_mb": metric(peak_kb / 1024, "MB"),
        "setup_s": metric(setup_s, "s"),
    }


def traced(session: Session, seconds: float) -> dict:
    """Run each round of ops untraced and traced, alternating which goes
    first, until ``seconds`` have passed: both sides see the same drift,
    and neither always runs on the heap the other just freed."""
    tracer = spans.Tracer()
    ends = []  # span count after each traced op

    def after():
        ends.append(len(tracer.spans))
        tracer.drain()

    plain, timed, counts = [], [], None
    start = perf_counter()
    while counts is None or perf_counter() - start < seconds:
        first = ROUND + len(plain)
        traced_first = len(plain) % (2 * ROUND) != 0
        if not traced_first:
            plain += session.replay(first, ROUND)
        tracer.install()
        try:
            timed += session.replay(first, ROUND, after=after)
        finally:
            tracer.uninstall()
        if traced_first:
            plain += session.replay(first, ROUND)
        if counts is None:
            counts = dict(tracer.counters)
    left = spans.wrapped_bindings()
    if left:
        raise BenchError(f"tracing wrappers left in place: {left}")
    both = [(a, b) for a, b in zip(plain, timed) if a is not None and b is not None]
    if not both:
        raise BenchError("every traced op failed")
    ran = len(timed)
    per_op = {name: total / ran for name, total in tracer.self_times().items()
              if name != "cli.main"}  # cli.main's own time is unaccounted
    out = {f"{span}.self_s": metric(t, "s") for span, t in per_op.items()}
    for name in spans.COUNTERS:
        out[name] = metric(counts.get(name, 0), "B" if name == "jsonio.bytes_out" else "count")
    calls, flows = counts.get("cts.enabled_calls", 0), counts.get("functors.flow_assignments", 0)
    out["cts.enabled_yield"] = metric(counts.get("cts.enabled_true", 0) / calls if calls else 0.0,
                                      "ratio")
    out["functors.region_yield"] = metric(counts.get("functors.regions", 0) / flows if flows else 0.0,
                                          "ratio")
    traced_op_s = sum(t for t in timed if t is not None) / ran
    out["trace.op_s"] = metric(traced_op_s, "s")
    out["trace.accounted_ratio"] = metric(sum(per_op.values()) / traced_op_s, "ratio")
    out["trace.overhead_ratio"] = metric(
        sum(b for _, b in both) / sum(a for a, _ in both) - 1, "ratio")
    print(f"{session.workload}: {ran} ops, each run untraced and traced in alternate rounds; "
          f"counters are totals over the first traced round of {ROUND} ops")
    if len(session.ops) != ROUND:
        return out  # laws-all: every op has its own suite seed
    by_key = {}
    for j, end in enumerate(ends):
        key = session.ops[(ROUND + j) % len(session.ops)].key
        by_key.setdefault(key, []).append(tracer.inclusive(ends[j - 1] if j else 0, end))
    for key, runs in by_key.items():
        times = {name: statistics.median(r.get(name, 0.0) for r in runs) for name in spans.SPANS}
        print(f"  {key} (median of {len(runs)}, inclusive): " + ", ".join(
            f"{name} {t * 1000:.1f} ms" for name, t in times.items() if t > 0))
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cli = load_cli()
    if not PINS.exists():
        raise BenchError(f"missing {PINS}")
    pins = json.loads(PINS.read_text(encoding="utf-8"))[workload]
    setup_s = measure_setup(workload, seed)
    SCRATCH.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH))
    try:
        ops = workloads.pool(workload, seed)
        paths = write_docs(ops, directory)
        checker = Checker(workload, pins)
        checker.prepare(ops)
        session = Session(cli, workload, ops, paths, checker)
        session.replay(0, ROUND)  # one untimed round: warm caches, check every slot
        metrics = traced(session, seconds) if trace else end_to_end(session, seconds, setup_s)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()
    return {"correct": not session.failures, "attempted": session.attempted,
            "failed": len(session.failures), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            print(*setup_probe(args.workload, args.seed))
            return 0
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

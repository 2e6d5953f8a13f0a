"""Benchmark of the stateseq command-line tool.

Run from the repository root:

    python3 bench/run.py --workload hour_project --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all          # each workload in its own process

A run imports ``stateseq`` from ``src/`` of the checkout, generates the
workload's inputs from ``--seed`` and then runs the workload's command
in-process through ``stateseq.cli.main(argv)`` again and again for
``--seconds``, checking the outputs of every run.  With ``--trace 0`` it
reports the end-to-end metrics of ``BENCHMARK.json``, times as seconds
at a fixed machine speed (see ``Pace``); with ``--trace 1`` it
reports the per-layer metrics, recorded by rebinding names inside the
program (``tracing.py``).  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Without ``src/stateseq`` the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import os

# One process, one thread: pin the BLAS and OpenMP pools before numpy loads.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import tracing  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    SIZES,
    WORKLOADS,
    Context,
    OpResult,
    mismatch_time,
    pinned_problems,
    read_jump_file,
)

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
EXPECTED = os.path.join(BENCH, "expected.json")
MODULES = ("cli", "io", "measures", "projection", "sequence", "simulate")

# command_s and setup_s are seconds at a fixed machine speed.  Other tenants
# of the shared 2-core machine the benchmark was set up on (an Intel Xeon,
# Sapphire Rapids, under KVM) slow every computation by up to 2x for seconds
# to minutes at a time.  The hypervisor reports no steal time, so process CPU
# time stretches as much as wall time and is no steadier.  A fixed reference
# computation is therefore timed between operations and, from a timer signal,
# every PACE_INTERVAL_S during them.  An operation's wall time is multiplied
# by (REFERENCE_S / r) ** e, where r is the median reference time around and
# during it and e the workload's ``speed_exponent``.  A change of the program
# moves the operation and not the reference; a change of machine speed moves
# both.  Raw wall times are printed for reading.

# The reference's seconds at full speed on that machine.
REFERENCE_S = 0.003
REFERENCE_SAMPLES = 5
PACE_INTERVAL_S = 0.1
# Dictionary lookups over a table of several MiB, like the program's mix of
# interpreter work and cache misses.  Of the references tried, it tracked the
# speed of projection, GTS and sweep work best.
_REFERENCE_TABLE = {i: i for i in range(100_000)}
_REFERENCE_KEYS = list(range(0, 100_000, 3)) * 2


def reference() -> int:
    total = 0
    for key in _REFERENCE_KEYS:
        total += _REFERENCE_TABLE[key]
    return total


def reference_s() -> float:
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


class Pace:
    """Times calls in seconds at the machine speed of REFERENCE_S."""

    def __init__(self) -> None:
        self._during: list[float] = []
        self._before = [reference_s() for _ in range(REFERENCE_SAMPLES)]

    def _tick(self, signum, frame) -> None:
        self._during.append(reference_s())

    def measure(self, exponent: float, fn, *args):
        """``fn(*args)``, its scaled seconds and its wall seconds."""
        self._during = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PACE_INTERVAL_S, PACE_INTERVAL_S)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
        wall -= sum(self._during)
        after = [reference_s() for _ in range(REFERENCE_SAMPLES)]
        speed = REFERENCE_S / statistics.median(self._before + self._during + after)
        scaled = wall * speed**exponent
        self._before = after
        return result, scaled, wall


# Set-up is repeated and its median reported, so one slow import does not
# move setup_s.  The count is fixed: each repeat re-imports the program,
# which adds to peak_rss_mib.
SETUP_REPEATS = 9
# Fewest timed operations per run, and fewest traced/untraced pairs.
MIN_OPS = 3
MIN_PAIRS = 2


class ProgramMissing(Exception):
    """The checkout holds no importable stateseq package."""


def load_program() -> SimpleNamespace:
    """Import stateseq afresh from the checkout's ``src/``."""
    for name in [m for m in sys.modules if m == "stateseq" or m.startswith("stateseq.")]:
        del sys.modules[name]
    try:
        pkg = importlib.import_module("stateseq")
        mods = {m: importlib.import_module(f"stateseq.{m}") for m in MODULES}
    except ImportError as exc:
        raise ProgramMissing(f"cannot import stateseq from {SRC}: {exc}") from exc
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise ProgramMissing(f"stateseq was imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**mods)


def set_up(workload, seed: int, size: str, tracer_cls=None):
    """Import the program, generate and write the inputs.

    With ``tracer_cls`` the input generation is traced; returns the program,
    the check context and the tracer (or None).
    """
    prog = load_program()
    ctx = Context(workdir=os.path.join(WORK, workload.name))
    shutil.rmtree(ctx.workdir, ignore_errors=True)
    os.makedirs(ctx.workdir)
    tracer = tracer_cls(prog) if tracer_cls else None
    if tracer:
        tracer.install()
    try:
        inputs = workload.make_inputs(prog, seed, size)
    finally:
        if tracer:
            tracer.uninstall()
    workload.write_inputs(prog, inputs, ctx)
    return prog, ctx, tracer


def describe_inputs(workload, ctx: Context, seed: int, size: str, expect: str | None) -> None:
    """Fill in what the checks need, read back with the independent reader."""
    parsed = {key: read_jump_file(path) for key, path in ctx.inputs.items()}
    for key, (horizon, initial, jumps) in parsed.items():
        ctx.horizon = horizon
        ctx.input_jumps[key] = len(jumps)
        ctx.boundary[key] = (initial, jumps[-1][1] if jumps else initial)
    if "truth" in parsed:
        ctx.accuracy = 1.0 - mismatch_time(parsed["truth"], parsed["estimate"]) / ctx.horizon
    pinned = None
    if size == "full" and os.path.exists(EXPECTED):
        with open(EXPECTED, "r", encoding="utf-8") as fh:
            pinned = json.load(fh)["workloads"].get(workload.name)
    if expect is not None:
        ctx.expected = {"output_sha256": expect}
    elif seed == DEFAULT_SEED:
        ctx.expected = pinned
    # Pins that hold for every seed, such as an optimal cost the seed leaves unchanged.
    ctx.seed_free = workload.seed_free_pins(pinned) if pinned else {}


def run_op(prog, workload, ctx: Context, argv: list[str], tracer=None) -> OpResult:
    """One command through ``cli.main``.

    The workload's output files are removed first, so an operation that
    writes nothing cannot pass on files left by an earlier one.
    """
    for path in workload.outputs(ctx):
        if os.path.exists(path):
            os.remove(path)
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if tracer:
                code = tracer.call(tracing.CLI_SPAN, prog.cli.main, argv)
            else:
                code = prog.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a crash of the program is a failed operation, not a failed benchmark
        error = traceback.format_exc()
    return OpResult(code, out.getvalue(), err.getvalue(), error)


def timed(fn, *args):
    """``fn(*args)`` and its wall seconds."""
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def check_op(workload, ctx: Context, res: OpResult) -> list[str]:
    if res.error:
        return [res.error.strip().splitlines()[-1]]
    if res.code != 0:
        return [f"exit code {res.code}: {res.stderr.strip()}"]
    try:
        return workload.check(ctx, res) + pinned_problems(workload, ctx, res)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]


class Tally:
    """Operations attempted and failed, with the first few problems."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= 3:
                print(f"check failed: {'; '.join(problems)}", file=sys.stderr)


def spread_line(name: str, values: list[float], unit: str) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    line = f"{name} median {statistics.median(values):.6g} {unit} (n={len(values)}"
    for q in (99, 90, 75):
        if len(values) * (100 - q) / 100 >= 10:
            cut = statistics.quantiles(values, n=100)[q - 1]
            line += f", p{q} {cut:.6g} {unit}"
            break
    return line + ")"


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def until(start: float, seconds: float, per_op: float, done: int, minimum: int) -> bool:
    """True while another operation fits into the measuring time."""
    return done < minimum or time.perf_counter() - start + per_op <= seconds


def run_end_to_end(workload, args) -> tuple[dict, Tally]:
    pace = Pace()
    setup_s, setup_wall = [], []
    for _ in range(SETUP_REPEATS):
        (prog, ctx, _), scaled, wall = pace.measure(1.0, set_up, workload, args.seed, args.size)
        setup_s.append(scaled)
        setup_wall.append(wall)
    describe_inputs(workload, ctx, args.seed, args.size, args.expect_sha256)
    argv = workload.argv(ctx, args.seed, args.size)

    tally, times, walls = Tally(), [], []
    start = time.perf_counter()
    while until(start, args.seconds, statistics.median(walls) if walls else 0.0, len(walls), MIN_OPS):
        res, scaled, wall = pace.measure(workload.speed_exponent, run_op, prog, workload, ctx, argv)
        times.append(scaled)
        walls.append(wall)
        tally.add(check_op(workload, ctx, res))

    print(f"input_jumps {json.dumps(ctx.input_jumps)}")
    for what, values in (
        ("command scaled time", times),
        ("command wall time", walls),
        ("set-up scaled time", setup_s),
        ("set-up wall time", setup_wall),
    ):
        print(spread_line(what, values, "s"))
    metrics = {
        "command_s": (statistics.median(times), "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }
    return metrics, tally


def run_traced(workload, args) -> tuple[dict, Tally]:
    prog, ctx, tracer = set_up(workload, args.seed, args.size, tracing.Tracer)
    setup_raw = tracer.take()
    describe_inputs(workload, ctx, args.seed, args.size, args.expect_sha256)
    argv = workload.argv(ctx, args.seed, args.size)

    tally, plain, traced, raws = Tally(), [], [], []
    start = time.perf_counter()
    while until(
        start,
        args.seconds,
        statistics.median(plain) + statistics.median(traced) if plain else 0.0,
        len(traced),
        MIN_PAIRS,
    ):
        res, wall = timed(run_op, prog, workload, ctx, argv)
        plain.append(wall)
        tally.add(check_op(workload, ctx, res))
        tracer.install()
        try:
            res, wall = timed(run_op, prog, workload, ctx, argv, tracer)
        finally:
            tracer.uninstall()
        traced.append(wall)
        raws.append(tracer.take())
        tally.add(check_op(workload, ctx, res))

    overhead = statistics.median(traced) - statistics.median(plain)
    values, missing = tracing.layer_metrics(
        tracing.add_raw(setup_raw, tracing.median_raw(raws)), tracer.absent, overhead
    )
    print(f"input_jumps {json.dumps(ctx.input_jumps)}")
    print(spread_line("untraced command wall time", plain, "s"))
    print(spread_line("traced command wall time", traced, "s"))
    if tracer.absent:
        print(f"absent layers: {', '.join(sorted(tracer.absent))} (metrics read 0: {', '.join(missing)})")
    metrics = {name: (values[name], unit) for name, (unit, _, _) in tracing.LAYER_METRICS.items()}
    return metrics, tally


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--size", args.size,
        ]  # fmt: skip
        if args.expect_sha256:
            cmd += ["--expect-sha256", args.expect_sha256]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            metrics[f"{name}.{metric}"] = entry
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full", help="tiny: self-test inputs")
    parser.add_argument(
        "--expect-sha256",
        help="check the primary output against this digest instead of the pinned outputs",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    workload = WORKLOADS[args.workload]
    try:
        metrics, tally = (run_traced if args.trace else run_end_to_end)(workload, args)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"workload {workload.name} seed {args.seed} size {args.size} trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(f"failed_ops {tally.failed / tally.attempted!r} ratio ({tally.failed} of {tally.attempted})")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

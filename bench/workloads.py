"""Workload inputs, commands and output checks for the stateseq benchmark.

Every workload runs one ``stateseq`` command in-process through
``stateseq.cli.main(argv)``.  Inputs are generated from the seed with the
program's own noise model and written with its own label writer; outputs
are checked with the independent reader below, never with the program's.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
from dataclasses import dataclass, field

DEFAULT_SEED = 1

# One-hour, 3-state recording: a jump every 10 s cycling 1 -> 2 -> 3.
PERIOD_S = 10.0
SIZES = {
    "full": {"horizon": 3600.0, "reps": 20},
    "tiny": {"horizon": 120.0, "reps": 2},
}
FINE_NOISE = (0.1, 0.08)
COARSE_NOISE = (1.0, 0.8)
# The noisy hours are always the noise model's seed-1 recordings.  The
# projection time of the fine-noise hour varies about fourfold between noise
# seeds (1.8-7.5 s over seeds 1-24, set by random subproblem splits and exact
# ties), and the GTS time of the coarse-noise hour by about a fifth (its
# number of distinct shifts, 239-288 over seeds 601-610), so the benchmark
# seed only permutes the state ids, which changes the input but not the work
# or the optimal values.
HOUR_NOISE_SEED = 1
PROJECT_GAMMA = 0.5
SWEEP_GAMMAS = ("0.1", "0.5", "2.0")

SWEEP_COLUMNS = (
    "swept_param",
    "value",
    "mean_accuracy_noisy",
    "se_accuracy",
    "mean_lts_noisy",
    "se_lts_noisy",
    "mean_lts_pp",
    "se_lts_pp",
)

# Slack for comparing times read back from 9-decimal label files.
TIME_TOL = 1e-8
# Slack for values printed with 6 decimals.
PRINT_TOL = 1e-6
# Relative slack for an optimal cost summed in another order.
COST_RTOL = 1e-9


@dataclass
class Context:
    """What the checks of one workload run need to know."""

    workdir: str
    horizon: float = 0.0
    inputs: dict[str, str] = field(default_factory=dict)  # input name -> file
    input_jumps: dict[str, int] = field(default_factory=dict)
    boundary: dict[str, tuple[int, int]] = field(default_factory=dict)  # first, last state
    accuracy: float = 0.0  # independent accuracy of estimate vs truth (score workloads)
    expected: dict | None = None  # pinned outputs, or None when not pinned
    seed_free: dict = field(default_factory=dict)  # pinned values that hold for every seed


@dataclass
class OpResult:
    code: object
    stdout: str
    stderr: str
    error: str | None = None


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- independent label-file reader -------------------------------------------


def read_jump_file(path: str) -> tuple[float, int, list[tuple[float, int]]]:
    """(horizon, initial state, jumps) of a jump-list label file."""
    meta: dict[str, str] = {}
    rows: list[tuple[float, int]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                meta[key.strip()] = value.strip()
            elif line != "time,state":
                t, s = line.split(",")
                rows.append((float(t), int(s)))
    if meta.get("format") != "jumps":
        raise ValueError(f"{path}: not a jump-list file")
    return float(meta["horizon"]), int(meta["initial"]), rows


def mismatch_time(a, b) -> float:
    """Seconds of [0, horizon) on which two label files disagree."""
    horizon, state_a, jumps_a = a
    _, state_b, jumps_b = b
    times = sorted({t for t, _ in jumps_a} | {t for t, _ in jumps_b} | {horizon})
    changes_a, changes_b = dict(jumps_a), dict(jumps_b)
    total, prev = 0.0, 0.0
    for t in times:
        if state_a != state_b:
            total += t - prev
        state_a = changes_a.get(t, state_a)
        state_b = changes_b.get(t, state_b)
        prev = t
    return total


# -- inputs -------------------------------------------------------------------


def hour_base(prog, horizon: float):
    n = int(round(horizon / PERIOD_S))
    jumps = tuple((PERIOD_S * i, i % 3 + 1) for i in range(1, n))
    return prog.sequence.Labels(horizon, 3, 1, jumps)


def noisy(prog, base, means: tuple[float, float], seed: int):
    return prog.simulate.generate_noisy_labels(base, prog.simulate.NoiseModel(*means, seed=seed))


def relabel(prog, labels, seed: int):
    """The labels with state ids permuted; seed 1 keeps them as they are."""
    perms = list(itertools.permutations(range(1, labels.n_states + 1)))
    perm = dict(zip(perms[0], perms[(seed - 1) % len(perms)]))
    jumps = tuple((t, perm[s]) for t, s in labels.jumps)
    return prog.sequence.Labels(labels.horizon, labels.n_states, perm[labels.start_state], jumps)


class Workload:
    name = ""
    # How far the command's time follows the machine's slowdown as the
    # benchmark's reference computation sees it (see Pace in run.py): over
    # three ten-run sets on a shared 2-vCPU Xeon, 1 kept the medians of the
    # score commands within about 3% of each other across sets.
    speed_exponent = 1.0

    def make_inputs(self, prog, seed: int, size: str) -> dict:
        """Generate the input label sets (traced as set-up work)."""
        raise NotImplementedError

    def write_inputs(self, prog, inputs: dict, ctx: Context) -> None:
        for key, labels in inputs.items():
            path = os.path.join(ctx.workdir, f"{key}.csv")
            prog.io.write_labels(path, labels)
            ctx.inputs[key] = path

    def argv(self, ctx: Context, seed: int, size: str) -> list[str]:
        raise NotImplementedError

    def outputs(self, ctx: Context) -> list[str]:
        """Files the command writes, removed before each operation."""
        return []

    def seed_free_pins(self, pinned: dict) -> dict:
        """The default seed's pinned values that every seed must reproduce."""
        return {}

    def check(self, ctx: Context, res: OpResult) -> list[str]:
        """Seed-independent problems with one operation's outputs."""
        raise NotImplementedError

    def output(self, ctx: Context, res: OpResult) -> str:
        """The operation's primary output, pinned by its digest."""
        raise NotImplementedError

    def pinned_values(self, ctx: Context, res: OpResult, output: str) -> dict:
        """Values pinned besides the digest, readable in expected.json."""
        return {}


def pin(workload: Workload, ctx: Context, res: OpResult) -> dict:
    """What expected.json records for one operation of the default seed."""
    output = workload.output(ctx, res)
    return {
        "input_jumps": ctx.input_jumps,
        "output_sha256": sha256_text(output),
        **workload.pinned_values(ctx, res, output),
    }


def pinned_problems(workload: Workload, ctx: Context, res: OpResult) -> list[str]:
    """Differences from the pinned outputs; none when nothing is pinned."""
    if ctx.expected is None:
        return []
    got = pin(workload, ctx, res)
    return [
        f"{key} {got.get(key)!r:.80} differs from the pinned {value!r:.80}"
        for key, value in ctx.expected.items()
        if got.get(key) != value
    ]


class HourProject(Workload):
    name = "hour_project"
    # The projection slows less than the reference on a busy machine: with
    # 1 its medians fell 14% as the machine got slower; 0.75 kept them within 4%.
    speed_exponent = 0.75

    def make_inputs(self, prog, seed, size):
        base = hour_base(prog, SIZES[size]["horizon"])
        return {"noisy": relabel(prog, noisy(prog, base, FINE_NOISE, HOUR_NOISE_SEED), seed)}

    def argv(self, ctx, seed, size):
        return ["project", ctx.inputs["noisy"], "--gamma", str(PROJECT_GAMMA), "--out", self._out(ctx)]

    def _out(self, ctx):
        return os.path.join(ctx.workdir, "projected.csv")

    def outputs(self, ctx):
        return [self._out(ctx), self._out(ctx) + ".report.json"]

    def seed_free_pins(self, pinned):
        # The seed only permutes state ids, so the optimal cost is the same.
        return {"cost": pinned["cost"]}

    def check(self, ctx, res):
        out = self._out(ctx)
        with open(out + ".report.json", "r", encoding="utf-8") as fh:
            report = json.load(fh)
        horizon, initial, jumps = read_jump_file(out)
        problems = []
        if horizon != ctx.horizon:
            problems.append(f"horizon {horizon} != {ctx.horizon}")
        if (initial, jumps[-1][1] if jumps else initial) != ctx.boundary["noisy"]:
            problems.append("boundary states changed")
        short = [b - a for (a, _), (b, _) in zip(jumps, jumps[1:]) if b - a < PROJECT_GAMMA - TIME_TOL]
        if short:
            problems.append(f"{len(short)} interior events shorter than gamma, e.g. {short[0]}")
        if report["jumps_before"] != ctx.input_jumps["noisy"]:
            problems.append(f"jumps_before {report['jumps_before']} != input {ctx.input_jumps['noisy']}")
        if report["jumps_after"] != len(jumps) or report["jumps_after"] > report["jumps_before"]:
            problems.append(f"jumps_after {report['jumps_after']} inconsistent")
        if not (math.isfinite(report["cost"]) and report["cost"] >= 0):
            problems.append(f"cost {report['cost']} not finite and nonnegative")
        optimal = ctx.seed_free.get("cost")
        if optimal is not None and abs(report["cost"] - optimal) > COST_RTOL * max(1.0, abs(optimal)):
            problems.append(f"cost {report['cost']!r} is not the optimal cost {optimal!r}")
        return problems

    def output(self, ctx, res):
        with open(self._out(ctx), "r", encoding="utf-8") as fh:
            return fh.read()

    def pinned_values(self, ctx, res, output):
        with open(self._out(ctx) + ".report.json", "r", encoding="utf-8") as fh:
            return {"cost": json.load(fh)["cost"]}


class StudySweep(Workload):
    name = "study_sweep"
    # 0.875 kept the medians of three sets within 1%, against 4% for 1.
    speed_exponent = 0.875

    def make_inputs(self, prog, seed, size):
        return {}

    def argv(self, ctx, seed, size):
        return [
            "simulate", "--mu1", str(FINE_NOISE[0]), "--mu2", str(FINE_NOISE[1]),
            "--gamma", ",".join(SWEEP_GAMMAS), "--seed", str(seed),
            "--reps", str(SIZES[size]["reps"]), "--out", self._out(ctx),
        ]  # fmt: skip

    def _out(self, ctx):
        return os.path.join(ctx.workdir, "sweep.csv")

    def outputs(self, ctx):
        return [self._out(ctx)]

    def check(self, ctx, res):
        body = [line for line in self.output(ctx, res).splitlines() if not line.startswith("#")]
        problems = []
        if not body or tuple(body[0].split(",")) != SWEEP_COLUMNS:
            return ["missing or wrong CSV header"]
        rows = [line.split(",") for line in body[1:]]
        if len(rows) != len(SWEEP_GAMMAS):
            problems.append(f"{len(rows)} rows for {len(SWEEP_GAMMAS)} gammas")
        for row, gamma in zip(rows, SWEEP_GAMMAS):
            values = [float(x) for x in row[1:]]
            if row[0] != "gamma" or values[0] != float(gamma):
                problems.append(f"row {row[:2]} is not gamma {gamma}")
            if not all(math.isfinite(v) for v in values):
                problems.append(f"non-finite value in row for gamma {gamma}")
                continue
            acc, se_acc, lts_noisy, se_noisy, lts_pp, se_pp = values[1:]
            if not (0.0 <= acc <= 1.0 and 0.0 < lts_noisy <= 1.0 and 0.0 < lts_pp <= 1.0):
                problems.append(f"mean out of range in row for gamma {gamma}")
            if min(se_acc, se_noisy, se_pp) < 0:
                problems.append(f"negative standard error for gamma {gamma}")
        return problems

    def output(self, ctx, res):
        with open(self._out(ctx), "r", encoding="utf-8") as fh:
            return fh.read()

    def pinned_values(self, ctx, res, output):
        return {"csv": output}


class HourScore(Workload):
    """Truth is the hour base; the estimate is it under coarse noise."""

    def __init__(self, measure: str):
        self.measure = measure
        self.name = f"hour_score_{measure}"

    def make_inputs(self, prog, seed, size):
        base = hour_base(prog, SIZES[size]["horizon"])
        estimate = noisy(prog, base, COARSE_NOISE, HOUR_NOISE_SEED)
        return {"truth": relabel(prog, base, seed), "estimate": relabel(prog, estimate, seed)}

    def seed_free_pins(self, pinned):
        # Both label sets get the same state ids, which no measure depends on.
        return {"printed": pinned["printed"]}

    def argv(self, ctx, seed, size):
        return ["score", ctx.inputs["truth"], ctx.inputs["estimate"], "--measure", self.measure]

    def check(self, ctx, res):
        problems = []
        value = float(res.stdout)
        if self.measure == "accuracy":
            ok = 0.0 <= value <= 1.0 and abs(value - ctx.accuracy) <= PRINT_TOL
        elif self.measure == "lts":
            ok = 0.0 < value <= 1.0
        else:
            ok = 0.0 <= value <= (1.0 - ctx.accuracy) * ctx.horizon + PRINT_TOL
        if not ok:
            problems.append(f"{self.measure} value {value} out of range (accuracy {ctx.accuracy})")
        printed = ctx.seed_free.get("printed")
        if printed is not None and res.stdout != printed:
            problems.append(f"printed {res.stdout!r} differs from the seed-1 value {printed!r}")
        return problems

    def output(self, ctx, res):
        return res.stdout

    def pinned_values(self, ctx, res, output):
        return {"printed": output}


WORKLOADS = {
    w.name: w
    for w in (HourProject(), StudySweep(), HourScore("accuracy"), HourScore("lts"), HourScore("gts"))
}

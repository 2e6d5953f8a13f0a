"""Self-test of the benchmark at tiny sizes.

Run from the repository root:

    python3 bench/selftest.py

It checks that every workload reports every metric of ``BENCHMARK.json`` by
name with its unit, in both the end-to-end and the traced mode, and passes
its output checks; that a wrong expected digest makes operations fail; that
a command which writes nothing fails even where an earlier run left its
files; that a projection whose cost is not the pinned optimum, or a score other
than the pinned one, fails; that a
traced name the program no longer has is reported as an absent layer; and
that without the program the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import run
import tracing
from workloads import FINE_NOISE, WORKLOADS, hour_base, noisy

WRONG_DIGEST = "0" * 64
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(script: str, workload: str, trace: int, *extra: str) -> tuple[int, list[str]]:
    cmd = [
        sys.executable, script, "--workload", workload, "--size", "tiny",
        "--seconds", "0.5", "--trace", str(trace), *extra,
    ]  # fmt: skip
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=False)
    return proc.returncode, proc.stdout.strip().splitlines()


def main() -> int:
    failures: list[str] = []

    def expect(ok: bool, message: str) -> None:
        if not ok:
            failures.append(message)

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workload names differ")
    script = os.path.join(run.BENCH, "run.py")

    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = bench(script, name, trace)
            if code != 0 or not lines:
                failures.append(f"{name} trace {trace}: exit code {code}")
                continue
            result = json.loads(lines[-1])
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {metric: entry["unit"] for metric, entry in result["metrics"].items()}
            where = f"{name} trace {trace}"
            expect(set(result) == RESULT_KEYS, f"{where}: result keys {sorted(result)}")
            expect(got == wanted, f"{where}: metrics and units {got} != {wanted}")
            expect(result["correct"] and result["failed"] == 0, f"{where}: checks failed")
            expect(result["attempted"] >= 1, f"{where}: nothing attempted")
            for metric, unit in wanted.items():
                printed = any(line.startswith(f"{metric} ") and line.endswith(f" {unit}") for line in lines)
                expect(printed, f"{where}: {metric} not printed with its unit")
            expect(any(line.startswith("failed_ops ") for line in lines), f"{where}: no failed_ops line")

        code, lines = bench(script, name, 0, "--expect-sha256", WRONG_DIGEST)
        result = json.loads(lines[-1]) if code == 0 and lines else {}
        expect(
            result.get("failed", 0) > 0 and result.get("correct") is False,
            f"{name}: a wrong expected digest did not fail the checks",
        )

    sys.path.insert(0, run.SRC)

    # The checks fire: a cost or score other than the pinned one fails, and so
    # does a command that exits 0 but writes nothing, although the run before
    # it left correct files behind.
    for name in ("hour_project", "study_sweep", "hour_score_gts"):
        workload = WORKLOADS[name]
        prog, ctx, _ = run.set_up(workload, 1, "tiny")
        run.describe_inputs(workload, ctx, 1, "tiny", None)
        argv = workload.argv(ctx, 1, "tiny")
        res = run.run_op(prog, workload, ctx, argv)
        expect(not run.check_op(workload, ctx, res), f"{name}: a correct run failed its checks")
        if name == "hour_project":
            with open(workload.outputs(ctx)[1], "r", encoding="utf-8") as fh:
                cost = json.load(fh)["cost"]
            ctx.seed_free = {"cost": cost * 1.001 + 1e-6}
            expect(bool(run.check_op(workload, ctx, res)), "a cost above the pinned optimum passed")
            ctx.seed_free = {}
        if name == "hour_score_gts":
            ctx.seed_free = {"printed": f"{float(res.stdout) + 1.0:.6f}\n"}
            expect(bool(run.check_op(workload, ctx, res)), "a score other than the pinned one passed")
            ctx.seed_free = {}
        prog.cli.main = lambda argv: 0
        res = run.run_op(prog, workload, ctx, argv)
        expect(bool(run.check_op(workload, ctx, res)), f"{name}: a command that wrote nothing passed")

    # A traced private name that is gone: its layers read 0 and are named.
    prog = run.load_program()
    gone = ("_Core", "_reassemble")
    projection = SimpleNamespace(**{k: v for k, v in vars(prog.projection).items() if k not in gone})
    tracer = tracing.Tracer(SimpleNamespace(**{**vars(prog), "projection": projection}))
    labels = noisy(prog, hour_base(prog, 120.0), FINE_NOISE, 1)
    tracer.install()
    try:
        prog.projection.project_labels(labels, 0.5)
    finally:
        tracer.uninstall()
    values, missing = tracing.layer_metrics(tracer.take(), tracer.absent, 0.0)
    expect(
        {"projection.solve_s", "projection.reassemble_s", "projection.fast_share"} <= set(missing),
        f"missing private names not reported as absent: {missing}",
    )
    expect(values["projection.split_s"] > 0, "layers still present were not traced")
    expect(values["trace.absent_layers"] == 5, f"absent layers {sorted(tracer.absent)}")

    # Without src/, the benchmark must fail and print no result.
    bare = os.path.join(run.WORK, "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    code, lines = bench(os.path.join(bare, "bench", "run.py"), "hour_project", 0)
    shutil.rmtree(bare, ignore_errors=True)
    expect(code != 0 and not any(line.startswith("{") for line in lines), "ran without the program")

    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

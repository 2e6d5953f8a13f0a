"""Command-line front end.

Subcommands: ``project`` (post-process a label file), ``score`` (compare an
estimate against ground truth), ``simulate`` (seeded Monte Carlo parameter
sweeps, CSV output) and ``oracle-check`` (verify the fast projection against
the brute-force reference on random instances).

Exit codes: 0 ok, 1 check failed, 2 malformed file, 3 invalid parameters,
4 incompatible inputs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .io import LabelFileError, read_labels, write_labels, write_sweep_csv
from .measures import GtsParams, LtsParams, accuracy, extend, gts_distance, lts_measure
from .oracle import brute_force_project, random_instance
from .projection import energy, project, project_labels
from .sequence import costs_close
from .simulate import RNG_ALGORITHM, SweepConfig, run_sweep

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_BAD_PARAMS = 3
EXIT_INCOMPATIBLE = 4


class _Parser(argparse.ArgumentParser):
    """argparse reports usage problems with our bad-parameters exit code."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_BAD_PARAMS)


def _build_parser() -> _Parser:
    parser = _Parser(prog="stateseq", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("project", help="eliminate implausibly short events from a label file")
    p.add_argument("input")
    p.add_argument("--gamma", type=float, required=True, help="minimum event duration (seconds)")
    p.add_argument("--binary", action="store_true", help="two-state mode (doubled minimum gap)")
    p.add_argument("--all-optimal", action="store_true", help="list every optimal projection in the report")
    p.add_argument("--out", required=True)

    p = sub.add_parser("score", help="score an estimate against ground-truth labels")
    p.add_argument("truth")
    p.add_argument("estimate")
    p.add_argument("--measure", choices=("accuracy", "gts", "lts"), required=True)
    p.add_argument("--w", type=float, default=0.6)
    p.add_argument("--sigma", type=float, default=0.35)
    p.add_argument("--lambda", dest="lam", type=float, default=0.0001)
    p.add_argument("--zeta", type=float, default=0.5)

    p = sub.add_parser("simulate", help="seeded Monte Carlo sweep; exactly one comma-list flag is swept")
    p.add_argument("--mu1", default="0.1", help="mean correct-spell duration")
    p.add_argument("--mu2", default="0.08", help="mean incorrect-spell duration (list to sweep)")
    p.add_argument("--gamma", default="0.5", help="projection penalty (list to sweep)")
    p.add_argument("--w", default="0.6", help="forgiven-segment weight (list to sweep)")
    p.add_argument("--lambda", dest="lam", default="0.0001", help="short-event penalty (list to sweep)")
    p.add_argument("--sigma", type=float, default=0.35)
    p.add_argument("--zeta", type=float, default=0.5)
    p.add_argument("--reps", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--base", help="base label file (defaults to the bundled 60 s sequence)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("oracle-check", help="compare projection against brute force on random instances")
    p.add_argument("--instances", type=int, default=500)
    p.add_argument("--max-jumps", type=int, default=8)
    p.add_argument("--max-states", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="oracle-counterexample.json", help="counterexample dump on failure")

    return parser


def _cmd_project(args) -> int:
    if not (math.isfinite(args.gamma) and args.gamma >= 0):
        print("error: gamma must be finite and nonnegative", file=sys.stderr)
        return EXIT_BAD_PARAMS
    try:
        labels = read_labels(args.input)
    except LabelFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    if args.binary and labels.n_states != 2:
        print("error: --binary requires a two-state file", file=sys.stderr)
        return EXIT_BAD_PARAMS

    projected, result = project_labels(
        labels, args.gamma, binary=args.binary, all_optimal=args.all_optimal
    )
    write_labels(args.out, projected)

    report = {
        "gamma": args.gamma,
        "binary": args.binary,
        "cost": result.cost,
        "jumps_before": len(labels.jumps),
        "jumps_after": len(projected.jumps),
        "n_subproblems": result.n_subproblems,
        "subproblem_spans": [list(span) for span in result.subproblem_spans],
    }
    if result.optima is not None:
        report["optima"] = [
            {"initial": seq.state_at(0.0), "jumps": [[t, s] for t, s in seq.jumps]}
            for seq in result.optima
        ]
    with open(args.out + ".report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return EXIT_OK


def _cmd_score(args) -> int:
    try:
        if args.measure == "gts":
            params = GtsParams(args.w, args.sigma)
        elif args.measure == "lts":
            params = LtsParams(args.w, args.sigma, args.lam, args.zeta)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS
    try:
        truth = read_labels(args.truth)
        estimate = read_labels(args.estimate)
    except LabelFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    if truth.horizon != estimate.horizon or truth.n_states != estimate.n_states:
        print("error: horizon or state count mismatch between inputs", file=sys.stderr)
        return EXIT_INCOMPATIBLE

    if args.measure == "accuracy":
        value = accuracy(truth, estimate)
    elif args.measure == "gts":
        value = gts_distance(extend(truth), extend(estimate), params)
    else:
        value = lts_measure(truth, estimate, params)
    print(f"{value:.6f}")
    return EXIT_OK


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(","))


def _cmd_simulate(args) -> int:
    try:
        lists = {
            "mu2": _parse_float_list(args.mu2),
            "gamma": _parse_float_list(args.gamma),
            "w": _parse_float_list(args.w),
            "lambda": _parse_float_list(args.lam),
        }
        mu1 = float(args.mu1)
    except ValueError:
        print("error: parameter lists must be comma-separated numbers", file=sys.stderr)
        return EXIT_BAD_PARAMS

    swept = [name for name, values in lists.items() if len(values) > 1]
    if len(swept) > 1:
        print(f"error: only one parameter may be swept, got lists for {swept}", file=sys.stderr)
        return EXIT_BAD_PARAMS
    param = swept[0] if swept else "mu2"

    base = None
    if args.base:
        try:
            base = read_labels(args.base)
        except LabelFileError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PARSE_ERROR

    try:
        lts = LtsParams(lists["w"][0], args.sigma, lists["lambda"][0], args.zeta)
        kwargs = dict(
            param=param,
            values=lists[param],
            replications=args.reps,
            mu1=mu1,
            mu2=lists["mu2"][0],
            gamma=lists["gamma"][0],
            lts=lts,
            seed=args.seed,
        )
        if base is not None:
            kwargs["base"] = base
        config = SweepConfig(**kwargs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS

    rows = run_sweep(config)
    metadata = {
        "rng": RNG_ALGORITHM,
        "seed": args.seed,
        "replications": args.reps,
        "mu1": mu1,
        "mu2": args.mu2,
        "gamma": args.gamma,
        "w": args.w,
        "sigma": args.sigma,
        "lambda": args.lam,
        "zeta": args.zeta,
        "swept": param,
    }
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        write_sweep_csv(fh, rows, metadata)
    return EXIT_OK


def _cmd_oracle_check(args) -> int:
    if args.instances < 0 or args.max_jumps < 2 or not 2 <= args.max_states <= 4:
        print("error: bounds outside oracle feasibility", file=sys.stderr)
        return EXIT_BAD_PARAMS
    if args.max_jumps > 10:
        print("error: oracle is limited to 10 jumps", file=sys.stderr)
        return EXIT_BAD_PARAMS

    rng = np.random.default_rng(args.seed)
    for i in range(args.instances):
        f, gamma = random_instance(rng, args.max_jumps, args.max_states)
        reference = brute_force_project(f, gamma)
        result = project(f, gamma)
        got = energy(f, result.projected, gamma)
        if not costs_close(got, reference.optimal_cost) or not reference.contains(result.projected):
            dump = {
                "instance": i,
                "initial": f.initial_state,
                "jumps": [[t, s] for t, s in f.jumps],
                "gamma": gamma,
                "expected_cost": reference.optimal_cost,
                "projected_cost": got,
                "projected_jumps": [[t, s] for t, s in result.projected.jumps],
                "in_optimal_set": reference.contains(result.projected),
            }
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(dump, fh, indent=2)
                fh.write("\n")
            print(f"FAIL: instance {i} disagrees with brute force (see {args.out})")
            return EXIT_CHECK_FAILED
    print(f"OK: {args.instances} instances agree with brute force")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "project": _cmd_project,
        "score": _cmd_score,
        "simulate": _cmd_simulate,
        "oracle-check": _cmd_oracle_check,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())

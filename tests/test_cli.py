import json
import math

import numpy as np
import pytest

from stateseq.cli import main
from stateseq.io import (
    LabelFileError,
    _meta_value,
    _read_metadata,
    format_labels,
    parse_labels,
    read_labels,
    write_labels,
)
from stateseq.sequence import Labels

WORKED_FILE = """\
# format: jumps
# horizon: 1.000000000
# states: 4
# initial: 1
time,state
0.200000000,2
0.350000000,1
0.400000000,3
0.550000000,4
0.750000000,3
"""

SAMPLED_FILE = """\
# format: sampled
# rate: 500
state
""" + "\n".join(["1"] * 2500 + ["2"] * 2500) + "\n"


class TestLabelFiles:
    def test_jump_list_round_trip(self):
        labels = parse_labels(WORKED_FILE)
        assert labels.horizon == 1.0
        assert labels.n_states == 4
        assert labels.jumps[0] == (0.2, 2)
        again = parse_labels(format_labels(labels))
        assert again == labels

    def test_sampled_form(self):
        labels = parse_labels(SAMPLED_FILE)
        assert labels.horizon == pytest.approx(10.0)
        assert labels.start_state == 1
        assert labels.jumps == ((5.0, 2),)

    def test_round_trip_survives_serialization_precision(self):
        labels = Labels(60.0, 3, 1, ((1.0 / 3.0, 2), (2.0 / 7.0 + 10.0, 3)))
        again = parse_labels(format_labels(labels))
        assert len(again.jumps) == len(labels.jumps)
        for (t1, s1), (t2, s2) in zip(labels.jumps, again.jumps):
            assert abs(t1 - t2) <= 5e-10 and s1 == s2

    def test_malformed_files(self):
        with pytest.raises(LabelFileError):
            parse_labels("no metadata at all\n")
        with pytest.raises(LabelFileError):
            parse_labels("# format: jumps\n# horizon: -5\n# states: 3\n# initial: 1\n")
        with pytest.raises(LabelFileError):
            parse_labels(
                "# format: jumps\n# horizon: 10\n# states: 3\n# initial: 1\ntime,state\n11.0,2\n"
            )
        with pytest.raises(LabelFileError):
            parse_labels("# format: sampled\n# rate: 500\nstate\n")
        with pytest.raises(LabelFileError):
            parse_labels("# format: sampled\n# rate: 500\n# states: x\nstate\n1\n2\n")

    @pytest.mark.parametrize(
        "text",
        [
            "# format: sampled\n# rate: 500\nstate\n",
            "# format: sampled\n# rate: 500\n# states: x\nstate\n1\n2\n",
            "# format: sampled\n# rate: 500\n# states: 2\nstate\n1\n3\n",
            "# format: sampled\n# rate: 500\nstate\n1\n0\n",
            "# format: sampled\n# rate: 500\nstate\n1\n2.0\n",
            "# format: sampled\n# rate: 0\nstate\n1\n",
            "# format: sampled\n# rate: inf\nstate\n1\n",
            "# format: sampled\nstate\n1\n",
            "# format: sampled\n# rate: 7\nstate\n2\n",
            "# format: sampled\n# rate: 3e9\nstate\n1\n2\n2\n1\n3\n3\n1\n",
            f"# format: sampled\n# rate: 5\n# states: {2**65}\nstate\n1\n{2**63}\n{2**63 + 1}\n",
            SAMPLED_FILE,
        ],
        ids=[
            "no-samples",
            "states-not-int",
            "state-above-count",
            "state-zero",
            "state-not-int",
            "rate-zero",
            "rate-inf",
            "rate-missing",
            "one-sample",
            "samples-within-merge-tolerance",
            "state-ids-beyond-int64",
            "two-runs",
        ],
    )
    def test_sampled_form_matches_per_sample_route(self, text):
        assert _outcome(parse_labels, text) == _outcome(_per_sample_labels, text)

    def test_sampled_form_matches_per_sample_route_on_long_file(self):
        rng = np.random.default_rng(11)
        runs = rng.integers(1, 400, size=800)
        samples = np.repeat(rng.integers(1, 5, size=runs.size), runs)[:100_000]
        text = "# format: sampled\n# rate: 250\nstate\n" + "\n".join(map(str, samples.tolist())) + "\n"
        labels = parse_labels(text)
        assert labels == _per_sample_labels(text)
        assert samples.size == 100_000 and len(labels.jumps) > 300


def _per_sample_labels(text):
    """The sampled form read with one (time, state) pair per sample."""
    meta, rows = _read_metadata(text.splitlines())
    rate = _meta_value(meta, "rate", float)
    if rows and rows[0] == "state":
        rows = rows[1:]
    if not rows:
        raise LabelFileError("sampled file has no samples")
    try:
        samples = [int(r) for r in rows]
    except ValueError as exc:
        raise LabelFileError("sample rows must be integer state ids") from exc
    count = _meta_value(meta, "states", int) if "states" in meta else max(max(samples), 2)
    if not all(1 <= s <= count for s in samples):
        raise LabelFileError(f"sample state ids must lie in 1..{count}")
    pairs = [(i / rate, s) for i, s in enumerate(samples)]
    try:
        return Labels.from_pairs(len(samples) / rate, count, samples[0], pairs)
    except ValueError as exc:
        raise LabelFileError(str(exc)) from exc


def _outcome(parse, text):
    try:
        return parse(text)
    except LabelFileError as exc:
        return "error", str(exc)


@pytest.fixture
def worked_path(tmp_path):
    path = tmp_path / "worked.csv"
    path.write_text(WORKED_FILE)
    return path


class TestProjectCommand:
    def test_worked_example(self, worked_path, tmp_path):
        out = tmp_path / "out.csv"
        code = main(["project", str(worked_path), "--gamma", "0.2", "--out", str(out)])
        assert code == 0
        projected = read_labels(str(out))
        assert projected.jumps == ((0.4, 3),)
        report = json.loads((tmp_path / "out.csv.report.json").read_text())
        assert report["cost"] == pytest.approx(0.55, abs=1e-12)
        assert report["jumps_before"] == 5
        assert report["jumps_after"] == 1
        assert report["n_subproblems"] == 1

    def test_gamma_zero_identity(self, worked_path, tmp_path):
        out = tmp_path / "out.csv"
        assert main(["project", str(worked_path), "--gamma", "0", "--out", str(out)]) == 0
        assert read_labels(str(out)) == read_labels(str(worked_path))

    def test_all_optimal_report(self, tmp_path):
        src = tmp_path / "binary.csv"
        src.write_text(
            "# format: jumps\n# horizon: 1.0\n# states: 2\n# initial: 1\n"
            "time,state\n0.35,2\n0.45,1\n0.55,2\n"
        )
        out = tmp_path / "out.csv"
        code = main(
            ["project", str(src), "--gamma", "0.2", "--binary", "--all-optimal", "--out", str(out)]
        )
        assert code == 0
        report = json.loads((tmp_path / "out.csv.report.json").read_text())
        assert len(report["optima"]) == 2

    def test_malformed_input_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("garbage\n")
        assert main(["project", str(bad), "--gamma", "0.2", "--out", str(tmp_path / "o")]) == 2

    def test_negative_gamma_exits_3(self, worked_path, tmp_path):
        assert (
            main(["project", str(worked_path), "--gamma", "-1", "--out", str(tmp_path / "o")]) == 3
        )

    def test_binary_on_many_states_exits_3(self, worked_path, tmp_path):
        assert (
            main(
                ["project", str(worked_path), "--gamma", "0.2", "--binary", "--out", str(tmp_path / "o")]
            )
            == 3
        )

    def test_sampled_input(self, tmp_path):
        src = tmp_path / "sampled.csv"
        src.write_text(SAMPLED_FILE)
        out = tmp_path / "out.csv"
        assert main(["project", str(src), "--gamma", "0.5", "--out", str(out)]) == 0
        assert read_labels(str(out)).horizon == pytest.approx(10.0)


class TestScoreCommand:
    def test_identical_lts_is_one(self, tmp_path, capsys):
        path = tmp_path / "clean.csv"
        path.write_text(
            "# format: jumps\n# horizon: 10.0\n# states: 3\n# initial: 1\n"
            "time,state\n4.0,2\n6.0,1\n"
        )
        code = main(["score", str(path), str(path), "--measure", "lts"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "1.000000"

    def test_single_short_event_scores_exp_lambda(self, tmp_path, capsys):
        text = (
            "# format: jumps\n# horizon: 10.0\n# states: 3\n# initial: 1\n"
            "time,state\n4.0,2\n4.3,1\n"
        )
        path = tmp_path / "x.csv"
        path.write_text(text)
        code = main(
            ["score", str(path), str(path), "--measure", "lts", "--lambda", "0.01", "--zeta", "0.5"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == f"{math.exp(-0.01):.6f}"

    def test_disjoint_accuracy_zero(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("# format: jumps\n# horizon: 10\n# states: 2\n# initial: 1\ntime,state\n")
        b.write_text("# format: jumps\n# horizon: 10\n# states: 2\n# initial: 2\ntime,state\n")
        assert main(["score", str(a), str(b), "--measure", "accuracy"]) == 0
        assert capsys.readouterr().out.strip() == "0.000000"

    def test_gts_measure_runs(self, worked_path, capsys):
        assert main(["score", str(worked_path), str(worked_path), "--measure", "gts"]) == 0
        assert capsys.readouterr().out.strip() == "0.000000"

    def test_horizon_mismatch_exits_4(self, worked_path, tmp_path):
        other = tmp_path / "other.csv"
        other.write_text("# format: jumps\n# horizon: 2.0\n# states: 4\n# initial: 1\ntime,state\n")
        assert main(["score", str(worked_path), str(other), "--measure", "lts"]) == 4


@pytest.mark.parametrize(
    "argv, code",
    [
        (["project", "{worked}", "--gamma", "nan", "--out", "{out}"], 3),
        (["project", "{worked}", "--gamma", "inf", "--out", "{out}"], 3),
        (["score", "{worked}", "{worked}", "--measure", "gts", "--w", "nan"], 3),
        (["score", "{worked}", "{worked}", "--measure", "lts", "--sigma", "-1"], 3),
        (["score", "{worked}", "{worked}", "--measure", "lts", "--zeta", "nan"], 3),
        (["simulate", "--gamma", "nan", "--reps", "1", "--out", "{out}"], 3),
        (["simulate", "--mu2", "0.08,nan", "--reps", "1", "--out", "{out}"], 3),
        (["score", "{inf}", "{inf}", "--measure", "accuracy"], 2),
        (["score", "{worked}", "{worked}", "--measure", "gts", "--w", "inf"], 3),
        (["score", "{worked}", "{worked}", "--measure", "lts", "--w", "inf"], 3),
        (["score", "{worked}", "{worked}", "--measure", "lts", "--lambda", "inf"], 3),
        (["simulate", "--w", "inf", "--reps", "1", "--out", "{out}"], 3),
    ],
    ids=[
        "project-gamma-nan",
        "project-gamma-inf",
        "score-gts-w-nan",
        "score-lts-sigma-negative",
        "score-lts-zeta-nan",
        "simulate-gamma-nan",
        "simulate-mu2-nan",
        "score-horizon-inf",
        "score-gts-w-inf",
        "score-lts-w-inf",
        "score-lts-lambda-inf",
        "simulate-w-inf",
    ],
)
def test_invalid_or_non_finite_parameters_exit_with_error(argv, code, worked_path, tmp_path, capsys):
    inf_horizon = tmp_path / "inf.csv"
    inf_horizon.write_text("# format: jumps\n# horizon: inf\n# states: 2\n# initial: 1\ntime,state\n")
    out = tmp_path / "out.csv"
    paths = {"worked": str(worked_path), "inf": str(inf_horizon), "out": str(out)}
    assert main([arg.format(**paths) for arg in argv]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err
    assert not out.exists()


class TestSimulateCommand:
    def test_deterministic_bytes(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["simulate", "--mu2", "0.08", "--reps", "1", "--seed", "7"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_sweep_rows_and_metadata(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            ["simulate", "--mu2", "0.05,0.08", "--reps", "2", "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert data[0].startswith("swept_param,value,mean_accuracy_noisy")
        assert len(data) == 3
        assert any("rng" in l for l in lines if l.startswith("#"))

    def test_two_lists_exit_3(self, tmp_path):
        code = main(
            [
                "simulate",
                "--mu2",
                "0.05,0.08",
                "--gamma",
                "0.5,1.0",
                "--reps",
                "1",
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert code == 3

    def test_bad_reps_exit_3(self, tmp_path):
        assert main(["simulate", "--reps", "0", "--out", str(tmp_path / "x.csv")]) == 3


def test_sampled_and_jump_forms_agree_on_accuracy(tmp_path):
    # Scoring via the sampled representation matches the continuous one to
    # within a sample period per transition.
    import numpy as np

    from stateseq import accuracy
    from stateseq.sequence import Labels

    rng = np.random.default_rng(17)
    rate = 100.0
    truth = Labels.from_pairs(
        10.0, 3, 1, [(float(t), int(rng.integers(1, 4))) for t in sorted(rng.uniform(0.5, 9.5, 5))]
    )
    estimate = Labels.from_pairs(
        10.0, 3, 1, [(float(t), int(rng.integers(1, 4))) for t in sorted(rng.uniform(0.5, 9.5, 5))]
    )

    def sampled_text(labels):
        rows = [str(labels.state_at(i / rate)) for i in range(int(labels.horizon * rate))]
        return "# format: sampled\n# rate: 100\n# states: 3\nstate\n" + "\n".join(rows) + "\n"

    truth_s = parse_labels(sampled_text(truth))
    est_s = parse_labels(sampled_text(estimate))
    transitions = len(truth.jumps) + len(estimate.jumps)
    assert abs(accuracy(truth, estimate) - accuracy(truth_s, est_s)) <= transitions / rate


def test_two_state_demo_pipeline(tmp_path, capsys):
    # Synthetic stand-in for a private binary classification dataset: corrupt
    # two-state truth, post-process through the CLI, and verify the score
    # improves.  Exercises the same project + score path end to end.
    from stateseq import Labels, NoiseModel, generate_noisy_labels
    from stateseq.io import write_labels

    truth = Labels(20.0, 2, 1, ((4.0, 2), (9.0, 1), (15.0, 2)))
    noisy = generate_noisy_labels(truth, NoiseModel(1.2, 0.15, seed=11))
    truth_path = tmp_path / "truth.csv"
    noisy_path = tmp_path / "noisy.csv"
    pp_path = tmp_path / "pp.csv"
    write_labels(str(truth_path), truth)
    write_labels(str(noisy_path), noisy)

    assert (
        main(["project", str(noisy_path), "--gamma", "0.5", "--binary", "--out", str(pp_path)])
        == 0
    )

    def score(path):
        assert main(["score", str(truth_path), str(path), "--measure", "lts"]) == 0
        return float(capsys.readouterr().out.strip())

    assert score(pp_path) > score(noisy_path)


class TestOracleCheckCommand:
    def test_small_run_passes(self, tmp_path, capsys):
        code = main(
            [
                "oracle-check",
                "--instances",
                "10",
                "--max-jumps",
                "5",
                "--seed",
                "3",
                "--out",
                str(tmp_path / "cex.json"),
            ]
        )
        assert code == 0
        assert "OK" in capsys.readouterr().out
        assert not (tmp_path / "cex.json").exists()

    def test_generator_handles_sub_millisecond_gaps(self, tmp_path, capsys):
        # Seed 22 draws an instance whose inter-jump gaps all lie below 1e-3.
        argv = ["oracle-check", "--seed", "22", "--max-jumps", "3", "--instances", "500"]
        assert main(argv + ["--out", str(tmp_path / "c.json")]) == 0
        assert "OK" in capsys.readouterr().out

    def test_zero_instances_vacuous_pass(self, tmp_path, capsys):
        assert main(["oracle-check", "--instances", "0", "--out", str(tmp_path / "c.json")]) == 0
        assert "0 instances" in capsys.readouterr().out

    def test_bad_bounds_exit_3(self, tmp_path):
        assert main(["oracle-check", "--max-states", "9", "--out", str(tmp_path / "c.json")]) == 3
        assert main(["oracle-check", "--max-jumps", "40", "--out", str(tmp_path / "c.json")]) == 3

    def test_injected_fault_dumps_counterexample(self, tmp_path, capsys, monkeypatch):
        import stateseq.cli as cli
        from stateseq.projection import ProjectionResult

        # A deliberately broken projection: returns the input unchanged.
        monkeypatch.setattr(cli, "project", lambda f, gamma: ProjectionResult(f, 0.0, ()))
        out = tmp_path / "cex.json"
        code = main(
            ["oracle-check", "--instances", "20", "--seed", "5", "--out", str(out)]
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().out
        dump = json.loads(out.read_text())
        assert "expected_cost" in dump and "projected_cost" in dump

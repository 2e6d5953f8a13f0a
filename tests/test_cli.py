import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stateseq
from stateseq.cli import main
from stateseq.io import (
    LabelFileError,
    _meta_value,
    format_labels,
    parse_labels,
    read_labels,
    write_labels,
)
from stateseq.sequence import Labels
from stateseq.simulate import NoiseModel, generate_noisy_labels

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
        with pytest.raises(LabelFileError, match="infinite horizon"):
            parse_labels("# format: sampled\n# rate: 1e-320\nstate\n1\n2\n")

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


def _jump_file(body, header="# format: jumps\n# horizon: 10\n# states: 3\n# initial: 1\ntime,state\n"):
    return header + body


def _hour_recording_file():
    """The seed-1 one-hour recording under fine noise, about 40k jump rows."""
    base = Labels(3600.0, 3, 1, tuple((10.0 * i, i % 3 + 1) for i in range(1, 360)))
    return format_labels(generate_noisy_labels(base, NoiseModel(0.1, 0.08, seed=1)))


# Enough rows for the reader's numpy route.
LONG_ROWS = "".join(f"{0.03 * k:.9f},{1 + k % 3}\n" for k in range(1, 300))

JUMP_FILES = {
    "worked": WORKED_FILE,
    "three-fields": _jump_file("1.0,2\n2.0,3,1\n"),
    "empty-state": _jump_file("1.0,2\n2.0,\n"),
    "no-comma": _jump_file("1.0,2\n2.0\n"),
    "no-comma-then-two": _jump_file("1\n2,3,1\n"),
    "time-nan": _jump_file("1.0,2\nnan,3\n"),
    "time-inf": _jump_file("1.0,2\ninf,3\n"),
    "time-negative": _jump_file("-1,2\n"),
    "time-at-horizon": _jump_file("1.0,2\n10.0,3\n"),
    "time-past-horizon": _jump_file("11.0,2\n"),
    "equal-times": _jump_file("1.0,2\n1.0,3\n4.0,1\n"),
    "unsorted-times": _jump_file("1.0,2\n3.0,3\n2.0,1\n"),
    "state-zero": _jump_file("1.0,0\n"),
    "state-above-count": _jump_file("1.0,2\n2.0,4\n"),
    "state-2**65": _jump_file(f"1.0,{2**65}\n"),
    "state-ids-beyond-int64": _jump_file(
        f"1.0,{2**65}\n2.0,{2**63}\n", f"# format: jumps\n# horizon: 10\n# states: {2**66}\n# initial: 1\n"
    ),
    "row-at-zero-overrides-initial": _jump_file("0.0,3\n0,2\n5.0,1\n"),
    "chain-0.6e-9-apart": _jump_file("1.0,2\n1.0000000006,3\n1.0000000012,1\n1.0000000018,2\n"),
    "spaced-header": _jump_file(
        "1.0,2\n", "# format: jumps\n#horizon:10\n  # states : 3\n# initial: 1\n time , state \n"
    ),
    "comments-and-blanks-in-body": _jump_file("1.0,2\n\n# note: here\n  \n 2.0 , 3 \n# initial: 2\n3.0,1\n"),
    "state-row-after-out-of-range-row": _jump_file("11.0,2\nx,3\n"),
    "out-of-range-row-after-bad-row": _jump_file("1.0,x\n11.0,2\n"),
    "bad-state-and-time-in-one-row": _jump_file("-1.0,7\n"),
    "initial-out-of-range": _jump_file("1.0,2\n", "# format: jumps\n# horizon: 10\n# states: 3\n# initial: 4\n"),
    "bad-row-before-bad-initial": _jump_file("1.0,9\n", "# format: jumps\n# horizon: 10\n# states: 3\n# initial: 4\n"),
    "one-state": _jump_file("1.0,1\n", "# format: jumps\n# horizon: 10\n# states: 1\n# initial: 1\n"),
    "no-rows": _jump_file(""),
    "long": _jump_file(LONG_ROWS),
    "long-unsorted-late": _jump_file(LONG_ROWS + "0.5,1\n"),
    "long-bad-state-late": _jump_file(LONG_ROWS.replace("6.000000000,3", "6.000000000,5")),
    "long-time-nan-late": _jump_file(LONG_ROWS + "nan,1\n"),
    "long-with-chain-and-repeats": _jump_file(LONG_ROWS + "9.1,1\n9.1000000004,2\n9.1000000008,3\n9.2,3\n9.3,3\n"),
    "long-three-fields-late": _jump_file(LONG_ROWS + "9.5,1,2\n"),
    # One bad row at the end of a long file, where the bulk check sees the
    # fault and the row walk names it.  A negative time there is also
    # unsorted, so the range must be checked before the order.
    "long-time-past-horizon-late": _jump_file(LONG_ROWS + "11.0,1\n"),
    "long-time-negative-late": _jump_file(LONG_ROWS + "-1.0,2\n"),
    "long-state-zero-late": _jump_file(LONG_ROWS + "9.5,0\n"),
    "long-no-comma-late": _jump_file(LONG_ROWS + "9.5\n"),
    "long-time-unparsable-late": _jump_file(LONG_ROWS + "x,1\n"),
}


class TestJumpFileReader:
    """The bulk jump-list reader against the per-row reference."""

    @pytest.mark.parametrize("text", list(JUMP_FILES.values()), ids=list(JUMP_FILES))
    def test_matches_per_row_route(self, text):
        assert _outcome(parse_labels, text) == _outcome(_per_row_labels, text)

    def test_matches_per_row_route_on_hour_recording(self):
        text = _hour_recording_file()
        labels = parse_labels(text)
        assert labels == _per_row_labels(text)
        assert len(labels.jumps) == 40149
        assert labels._times == tuple(t for t, _ in labels.jumps)


def _per_line_metadata(text):
    """``# key: value`` lines and the other non-blank lines, read one line at a time."""
    meta = {}
    body = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            if ":" in stripped:
                key, _, value = stripped[1:].partition(":")
                meta[key.strip()] = value.strip()
        else:
            body.append(stripped)
    return meta, body


def _per_row_labels(text):
    """The jump-list form read and checked one row at a time."""
    meta, rows = _per_line_metadata(text)
    horizon = _meta_value(meta, "horizon", float)
    n_states = _meta_value(meta, "states", int)
    initial = _meta_value(meta, "initial", int, positive=False)
    if rows and rows[0].replace(" ", "") == "time,state":
        rows = rows[1:]
    pairs = []
    prev_t = -math.inf
    for row in rows:
        parts = row.split(",")
        if len(parts) != 2:
            raise LabelFileError(f"expected 'time,state', got {row!r}")
        try:
            t, s = float(parts[0]), int(parts[1])
        except ValueError as exc:
            raise LabelFileError(f"bad row {row!r}") from exc
        if not 0.0 <= t < horizon:
            raise LabelFileError(f"jump time {t} outside [0, horizon)")
        if t < prev_t:
            raise LabelFileError("jump rows must be time-sorted")
        if not 1 <= s <= n_states:
            raise LabelFileError(f"state id {s} outside 1..{n_states}")
        prev_t = t
        pairs.append((t, s))
    if not 1 <= initial <= n_states:
        raise LabelFileError(f"initial state {initial} outside 1..{n_states}")
    try:
        return Labels.from_pairs(horizon, n_states, initial, pairs)
    except ValueError as exc:
        raise LabelFileError(str(exc)) from exc


def _per_sample_labels(text):
    """The sampled form read with one (time, state) pair per sample."""
    meta, rows = _per_line_metadata(text)
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

    def test_report_counts_candidate_vertices(self, worked_path, tmp_path):
        # Vertices 0.2, 0.4 and 0.75; only 0.4 can lie on an optimal path,
        # whose Potts bound 0.55 is the optimum.
        out = tmp_path / "out.csv"
        assert main(["project", str(worked_path), "--gamma", "0.2", "--out", str(out)]) == 0
        report = json.loads((tmp_path / "out.csv.report.json").read_text())
        assert (report["candidates"], report["candidates_kept"]) == (3, 1)

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

    def test_sampled_file_with_infinite_horizon_exits_2(self, tmp_path):
        # 2 samples at 1e-320 Hz span an infinite horizon, which no label file can carry.
        bad = tmp_path / "bad.csv"
        bad.write_text("# format: sampled\n# rate: 1e-320\nstate\n1\n2\n")
        assert main(["project", str(bad), "--gamma", "0.2", "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

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

    def test_unwritable_out_exits_3_without_traceback(self, worked_path, tmp_path):
        out = tmp_path / "missing" / "out.csv"
        env = {**os.environ, "PYTHONPATH": str(Path(stateseq.__file__).parents[1])}
        argv = ["project", str(worked_path), "--gamma", "0.1", "--out", str(out)]
        done = subprocess.run([sys.executable, "-m", "stateseq.cli", *argv], capture_output=True, text=True, env=env)
        assert done.returncode == 3 and "Traceback" not in done.stderr
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    def test_unwritable_report_leaves_no_label_file(self, worked_path, tmp_path, capsys):
        out = tmp_path / "x.csv"
        (tmp_path / "x.csv.report.json").mkdir()
        assert main(["project", str(worked_path), "--gamma", "0.1", "--out", str(out)]) == 3
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

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
        (["simulate", "--mu1", "inf", "--reps", "1", "--out", "{out}"], 3),
        (["simulate", "--mu2", "inf", "--reps", "1", "--out", "{out}"], 3),
        (["simulate", "--zeta", "inf", "--reps", "1", "--out", "{out}"], 3),
        (["score", "{worked}", "{worked}", "--measure", "lts", "--zeta", "inf"], 3),
        (["simulate", "--seed", "-5", "--reps", "2", "--out", "{out}"], 3),
        (["oracle-check", "--seed", "-1", "--instances", "3", "--out", "{out}"], 3),
        (["project", "{worked}", "--gamma", "0.1", "--out", "{missing}"], 3),
        (["simulate", "--reps", "1", "--out", "{missing}"], 3),
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
        "simulate-mu1-inf",
        "simulate-mu2-inf",
        "simulate-zeta-inf",
        "score-lts-zeta-inf",
        "simulate-seed-negative",
        "oracle-check-seed-negative",
        "project-out-unwritable",
        "simulate-out-unwritable",
    ],
)
def test_invalid_or_non_finite_parameters_exit_with_error(argv, code, worked_path, tmp_path, capsys):
    inf_horizon = tmp_path / "inf.csv"
    inf_horizon.write_text("# format: jumps\n# horizon: inf\n# states: 2\n# initial: 1\ntime,state\n")
    out = tmp_path / "out.csv"
    missing = tmp_path / "missing" / "out.csv"  # under a directory that does not exist
    paths = {"worked": str(worked_path), "inf": str(inf_horizon), "out": str(out), "missing": str(missing)}
    assert main([arg.format(**paths) for arg in argv]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("command", ["project", "score", "simulate"])
def test_non_utf8_label_file_exits_2(command, worked_path, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(WORKED_FILE.encode() + b"0.9\xff,2\n")
    out = tmp_path / "o.csv"
    argv = {
        "project": ["project", str(bad), "--gamma", "0.5", "--out", str(out)],
        "score": ["score", str(worked_path), str(bad), "--measure", "accuracy"],
        "simulate": ["simulate", "--base", str(bad), "--reps", "1", "--out", str(out)],
    }[command]
    assert main(argv) == 2
    assert f"error: cannot read {bad}: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err
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

    def test_unwritable_out_exits_3_before_the_sweep(self, tmp_path, capsys, monkeypatch):
        import stateseq.cli as cli

        def no_sweep(config):
            raise AssertionError("the sweep ran before the output was opened")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        out = tmp_path / "missing" / "x.csv"
        assert main(["simulate", "--gamma", "0.1,0.5", "--reps", "200", "--out", str(out)]) == 3
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


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


def test_successive_in_process_calls_match_fresh_processes(worked_path, tmp_path, capsys):
    # main() parses with one parser per process; no flag or default of one
    # call may carry over into the next.
    estimate = tmp_path / "estimate.csv"
    estimate.write_text(WORKED_FILE.replace("0.400000000,3", "0.420000000,3"))
    calls = [
        ["project", str(worked_path), "--gamma", "0.2", "--all-optimal", "--out", "{dir}/a.csv"],
        ["score", str(worked_path), str(estimate), "--measure", "lts", "--w", "0.3", "--sigma", "0.1"],
        ["score", str(worked_path), str(estimate), "--measure", "lts"],
        ["project", str(worked_path), "--gamma", "0.1", "--out", "{dir}/b.csv"],
        ["score", str(worked_path), str(estimate), "--measure", "gts"],
        ["score", str(worked_path), str(estimate), "--measure", "median"],
        ["score", str(worked_path), str(estimate), "--measure", "accuracy"],
    ]

    def outcomes(run, directory):
        directory.mkdir()
        results = [run([arg.format(dir=directory) for arg in argv]) for argv in calls]
        files = {path.name: path.read_text() for path in sorted(directory.iterdir())}
        return results, files

    def in_process(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    env = {**os.environ, "PYTHONPATH": str(Path(stateseq.__file__).parents[1])}

    def fresh(argv):
        done = subprocess.run([sys.executable, "-m", "stateseq.cli", *argv], capture_output=True, text=True, env=env)
        return done.returncode, done.stdout, done.stderr

    here, there = outcomes(in_process, tmp_path / "here"), outcomes(fresh, tmp_path / "there")
    assert here == there
    results, files = here
    assert [code for code, _, _ in results] == [0, 0, 0, 0, 0, 3, 0]
    assert results[1][1] != results[2][1]  # --w and --sigma of the first score do not stick
    assert "optima" in files["a.csv.report.json"] and "optima" not in files["b.csv.report.json"]


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

    def test_default_run_passes_with_all_optima_checked(self, tmp_path, capsys):
        # The default 500 instances, each also projected with all_optimal.
        assert main(["oracle-check", "--out", str(tmp_path / "c.json")]) == 0
        assert "OK: 500 instances" in capsys.readouterr().out
        assert not (tmp_path / "c.json").exists()

    def test_stray_optimum_dumps_counterexample(self, tmp_path, capsys, monkeypatch):
        import dataclasses

        import stateseq.cli as cli
        from stateseq.projection import project

        # A broken optimum list: the input itself is listed as an optimum.
        def listing_input(f, gamma, all_optimal=False):
            res = project(f, gamma, all_optimal=all_optimal)
            return dataclasses.replace(res, optima=res.optima + (f,)) if all_optimal else res

        monkeypatch.setattr(cli, "project", listing_input)
        out = tmp_path / "cex.json"
        assert main(["oracle-check", "--instances", "20", "--seed", "5", "--out", str(out)]) == 1
        assert "FAIL" in capsys.readouterr().out
        dump = json.loads(out.read_text())
        assert dump["in_optimal_set"] and dump["stray_optima"]

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

    def test_unwritable_dump_still_fails_the_check(self, tmp_path, capsys, monkeypatch):
        import stateseq.cli as cli
        from stateseq.projection import ProjectionResult

        # The fault of test_injected_fault_dumps_counterexample, with no directory for the dump.
        monkeypatch.setattr(cli, "project", lambda f, gamma: ProjectionResult(f, 0.0, ()))
        out = tmp_path / "missing" / "cex.json"
        assert main(["oracle-check", "--instances", "20", "--seed", "5", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("FAIL: instance") and "error:" in captured.err
        assert not out.exists()

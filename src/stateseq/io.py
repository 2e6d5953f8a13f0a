"""Label file formats and sweep-table serialization.

Two on-disk forms are supported, both plain CSV with ``#``-prefixed
metadata lines so they stay hand-inspectable:

jump-list form::

    # format: jumps
    # horizon: 60.000000000
    # states: 3
    # initial: 1
    time,state
    5.000000000,2

sampled form (one state id per row at a fixed rate; sample i covers
[i/rate, (i+1)/rate))::

    # format: sampled
    # rate: 500
    state
    1

Times are written with 9 decimal places, matching the construction-time
merge tolerance, so write/read round-trips are exact.  A file that is not
UTF-8 text or breaks a rule of its form raises :class:`LabelFileError`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import compress, repeat
from operator import contains, not_
from typing import TYPE_CHECKING, Iterable, TextIO

import numpy as np

from .sequence import TIME_MERGE_TOL, Labels, StateSequence

if TYPE_CHECKING:
    from .simulate import SweepRow


class LabelFileError(ValueError):
    """Raised for malformed label files."""


def _read_metadata(lines: list[str]) -> tuple[dict[str, str], list[str]]:
    """The ``# key: value`` lines as a dict (a later key wins) and the other non-blank lines, stripped."""
    lines = list(filter(None, map(str.strip, lines)))
    head = next((k for k, line in enumerate(lines) if line[0] != "#"), len(lines))
    marked, body = lines[:head], lines[head:]
    if "#" in "".join(body):  # '#' lines among the rows
        is_meta = list(map(str.startswith, body, repeat("#")))
        marked += compress(body, is_meta)
        body = list(compress(body, map(not_, is_meta)))
    meta: dict[str, str] = {}
    for line in marked:
        if ":" in line:
            key, _, value = line[1:].partition(":")
            meta[key.strip()] = value.strip()
    return meta, body


def parse_labels(text: str) -> Labels:
    """Parse either label file form from its text content."""
    meta, body = _read_metadata(text.splitlines())
    form = meta.get("format")
    if form == "jumps":
        return _parse_jumps(meta, body)
    if form == "sampled":
        return _parse_sampled(meta, body)
    raise LabelFileError(f"unknown or missing '# format:' line (got {form!r})")


def _meta_value(meta: dict[str, str], key: str, conv, positive: bool = True):
    if key not in meta:
        raise LabelFileError(f"missing '# {key}:' metadata line")
    try:
        value = conv(meta[key])
    except ValueError as exc:
        raise LabelFileError(f"bad '# {key}:' value {meta[key]!r}") from exc
    if not math.isfinite(value):
        raise LabelFileError(f"'# {key}:' must be finite, got {value}")
    if positive and not value > 0:
        raise LabelFileError(f"'# {key}:' must be positive, got {value}")
    return value


def _parse_jumps(meta: dict[str, str], body: list[str]) -> Labels:
    """The jump-list form, every rule checked on all rows at once; only when one fails does
    :func:`_first_bad_row` walk the rows to name the first bad one.  ``# initial:`` comes after."""
    horizon = _meta_value(meta, "horizon", float)
    n_states = _meta_value(meta, "states", int)
    initial = _meta_value(meta, "initial", int, positive=False)
    rows = body
    if rows and rows[0].replace(" ", "") == "time,state":
        rows = rows[1:]
    try:
        # Every row has one comma when each has one or more and there are twice as many fields.
        fields = ",".join(rows).split(",") if rows else []
        if len(fields) != 2 * len(rows) or not all(map(contains, rows, repeat(","))):
            raise ValueError("a row without one comma")
        times = list(map(float, fields[0::2]))
        ids = {text: int(text) for text in set(fields[1::2])}  # few ids, each converted once
        states = list(map(ids.__getitem__, fields[1::2]))
        t = np.array(times, dtype=float)
        if not (((t >= 0.0) & (t < horizon)).all() and (t[1:] >= t[:-1]).all()):
            raise ValueError("a time out of range or order")
        if states and not (1 <= min(states) and max(states) <= n_states):
            raise ValueError("a state id out of range")
    except ValueError:
        _first_bad_row(rows, horizon, n_states)
    if not 1 <= initial <= n_states:
        raise LabelFileError(f"initial state {initial} outside 1..{n_states}")
    # Rows at time 0, a prefix of the sorted rows, override '# initial:'.
    at_zero = bisect_right(times, 0.0)
    if at_zero:
        initial = states[at_zero - 1]
    try:
        seq = StateSequence._from_columns(initial, times[at_zero:], states[at_zero:])
        return Labels._within(horizon, n_states, seq)
    except ValueError as exc:
        raise LabelFileError(str(exc)) from exc


def _first_bad_row(rows: list[str], horizon: float, n_states: int) -> None:
    """Raise for the first row that breaks a rule, and the first rule it breaks,
    in this order: one comma, a ``float`` time and an ``int`` state, time in
    [0, horizon), times sorted, state in 1..states."""
    prev = -math.inf
    for row in rows:
        if row.count(",") != 1:
            raise LabelFileError(f"expected 'time,state', got {row!r}")
        time_text, state_text = row.split(",")
        try:
            t, s = float(time_text), int(state_text)
        except ValueError:
            raise LabelFileError(f"bad row {row!r}") from None
        if not 0.0 <= t < horizon:
            raise LabelFileError(f"jump time {t} outside [0, horizon)")
        if t < prev:
            raise LabelFileError("jump rows must be time-sorted")
        if not 1 <= s <= n_states:
            raise LabelFileError(f"state id {s} outside 1..{n_states}")
        prev = t


def _parse_sampled(meta: dict[str, str], body: list[str]) -> Labels:
    rate = _meta_value(meta, "rate", float)
    rows = body
    if rows and rows[0] == "state":
        rows = rows[1:]
    if not rows:
        raise LabelFileError("sampled file has no samples")
    try:
        samples = [int(r) for r in rows]
    except ValueError as exc:
        raise LabelFileError("sample rows must be integer state ids") from exc
    horizon = len(samples) / rate
    if not math.isfinite(horizon):
        raise LabelFileError(f"{len(samples)} samples at '# rate:' {rate} give an infinite horizon")
    count = _meta_value(meta, "states", int) if "states" in meta else max(max(samples), 2)
    if not (min(samples) >= 1 and max(samples) <= count):
        raise LabelFileError(f"sample state ids must lie in 1..{count}")
    # Sample i starts at i / rate.  Only the samples that change state become
    # pairs, unless samples lie closer than the merge tolerance, where
    # Labels.from_pairs collapses them one by one and needs every sample.
    # Object dtype keeps state ids of any size exact.
    starts: Iterable[int] = range(1, len(samples))
    if np.diff(np.arange(len(samples)) / rate).min(initial=math.inf) >= TIME_MERGE_TOL:
        starts = (np.flatnonzero(np.diff(np.array(samples, dtype=object))) + 1).tolist()
    pairs = [(i / rate, samples[i]) for i in starts]
    try:
        return Labels.from_pairs(horizon, count, samples[0], pairs)
    except ValueError as exc:
        raise LabelFileError(str(exc)) from exc


def read_labels(path: str) -> Labels:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_labels(fh.read())
    except (OSError, UnicodeDecodeError) as exc:  # UnicodeDecodeError is a ValueError
        raise LabelFileError(f"cannot read {path}: {exc}") from exc


def format_labels(labels: Labels) -> str:
    head = (
        f"# format: jumps\n# horizon: {labels.horizon:.9f}\n# states: {labels.n_states}\n"
        f"# initial: {labels.start_state}\ntime,state\n"
    )
    return head + "".join([f"{t:.9f},{s}\n" for t, s in zip(labels._times, labels._states)])


def write_labels(path: str, labels: Labels) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_labels(labels))


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


def write_sweep_csv(fh: TextIO, rows: Iterable[SweepRow], metadata: dict[str, object]) -> None:
    """Sweep table as CSV with reproducibility metadata up front, in the given key order."""
    for key, value in metadata.items():
        fh.write(f"# {key}: {value}\n")
    fh.write(",".join(SWEEP_COLUMNS) + "\n")
    for row in rows:
        fields = (
            row.param,
            f"{row.value:.12g}",
            f"{row.mean_accuracy_noisy:.12g}",
            f"{row.se_accuracy:.12g}",
            f"{row.mean_lts_noisy:.12g}",
            f"{row.se_lts_noisy:.12g}",
            f"{row.mean_lts_pp:.12g}",
            f"{row.se_lts_pp:.12g}",
        )
        fh.write(",".join(fields) + "\n")

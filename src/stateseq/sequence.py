"""Piecewise-constant state sequences on the real line.

A state sequence is a right-continuous step function from time (seconds) into
a finite set of integer state ids, with finitely many jumps.  This module
holds the exact representation plus the primitive operations everything else
is built on: evaluation, event/segment decomposition and the integral
distance between two sequences.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

INF = math.inf

# Jumps closer together than this are merged on construction via from_pairs;
# keeps file round-trips (9 decimal digits) from creating zero-length events.
TIME_MERGE_TOL = 1e-9

# Tolerance for comparing costs/energies that are mathematically equal but
# accumulated in different float orders.
COST_TOL = 1e-12


def costs_close(a: float, b: float) -> bool:
    """True when two energy/cost values are equal up to float noise."""
    if a == b:
        return True
    if math.isinf(a) or math.isinf(b):
        return False
    return abs(a - b) <= COST_TOL * max(1.0, abs(a), abs(b))


class StateMetric:
    """A metric d on state ids.  Subclasses implement ``d``."""

    def d(self, a: int, b: int) -> float:
        raise NotImplementedError

    def matrix(self, states: Sequence[int]) -> np.ndarray:
        """Dense distance matrix over the given state ids (row/col order)."""
        return np.array([[self.d(a, b) for b in states] for a in states], dtype=float)


class DiscreteMetric(StateMetric):
    """d(a, b) = 1 if a != b else 0."""

    def d(self, a: int, b: int) -> float:
        return 0.0 if a == b else 1.0

    def __repr__(self) -> str:
        return "DiscreteMetric()"


DISCRETE = DiscreteMetric()


class TableMetric(StateMetric):
    """Metric given by an explicit table over the state ids 1..m.

    Validates finiteness and the metric axioms (zero diagonal, symmetry,
    positivity, triangle inequality) at construction.
    """

    def __init__(self, table: Sequence[Sequence[float]]):
        m = len(table)
        if m < 2 or any(len(row) != m for row in table):
            raise ValueError("table must be square with size >= 2")
        if not all(math.isfinite(x) for row in table for x in row):
            raise ValueError("distances must be finite")
        for i in range(m):
            if table[i][i] != 0.0:
                raise ValueError(f"d({i + 1},{i + 1}) must be 0")
            for j in range(m):
                if table[i][j] != table[j][i]:
                    raise ValueError("table must be symmetric")
                if i != j and table[i][j] <= 0.0:
                    raise ValueError("off-diagonal distances must be positive")
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    if table[i][j] > table[i][k] + table[k][j] + 1e-12:
                        raise ValueError("triangle inequality violated")
        self._table = tuple(tuple(float(x) for x in row) for row in table)

    def d(self, a: int, b: int) -> float:
        return self._table[a - 1][b - 1]


@dataclass(frozen=True)
class Event:
    """Maximal interval [start, end) on which a sequence is constant."""

    start: float
    end: float
    state: int

    @property
    def length(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class StateSequence:
    """A cadlag step function: ``initial_state`` on (-inf, t1), then jumps.

    ``jumps`` is an ordered tuple of (time, new_state).  Invariants: jump
    times strictly increase and consecutive states differ.  Instances are
    immutable; all operations on them are pure functions.
    """

    initial_state: int
    jumps: tuple[tuple[float, int], ...] = ()

    def __post_init__(self) -> None:
        prev_t = -INF
        prev_s = self.initial_state
        for t, s in self.jumps:
            if not (prev_t < t < INF):
                raise ValueError(f"jump times must strictly increase, got {t} after {prev_t}")
            if s == prev_s:
                raise ValueError(f"consecutive states must differ (state {s} at t={t})")
            prev_t, prev_s = t, s
        # A list, not a generator: tuple() then allocates the exact size, so
        # CPython's tuple free lists do not fill up between full collections.
        object.__setattr__(self, "_times", tuple([t for t, _ in self.jumps]))

    @classmethod
    def from_pairs(cls, initial_state: int, pairs: Iterable[tuple[float, int]]) -> "StateSequence":
        """Build from possibly messy (time, state) pairs.

        Normalizes classifier-style output: jumps closer than TIME_MERGE_TOL
        collapse onto the earlier time (the later state wins), and adjacent
        equal states merge silently.  Times must be non-decreasing.
        """
        cleaned: list[tuple[float, int]] = []
        prev_t = -INF
        for t, s in pairs:
            t = float(t)
            s = int(s)
            if t < prev_t:
                raise ValueError(f"jump times must be sorted, got {t} after {prev_t}")
            if cleaned and t - cleaned[-1][0] < TIME_MERGE_TOL:
                cleaned[-1] = (cleaned[-1][0], s)
            else:
                cleaned.append((t, s))
            prev_t = t
        merged: list[tuple[float, int]] = []
        state = initial_state
        for t, s in cleaned:
            if s != state:
                merged.append((t, s))
                state = s
        return cls(initial_state, tuple(merged))

    @classmethod
    def from_events(cls, events: Sequence[Event]) -> "StateSequence":
        """Inverse of :meth:`events`."""
        if not events:
            raise ValueError("need at least one event")
        return cls.from_pairs(events[0].state, [(e.start, e.state) for e in events[1:]])

    def _slice(self, a: int, b: int) -> "StateSequence":
        """Jumps a..b-1 after the state they follow; a slice of a valid sequence skips the checks."""
        out = object.__new__(StateSequence)
        initial = self.jumps[a - 1][1] if a else self.initial_state
        out.__dict__.update(initial_state=initial, jumps=self.jumps[a:b], _times=self._times[a:b])  # type: ignore[attr-defined]
        return out

    @property
    def jump_times(self) -> tuple[float, ...]:
        return self._times  # type: ignore[attr-defined]

    @property
    def n_jumps(self) -> int:
        return len(self.jumps)

    @property
    def final_state(self) -> int:
        return self.jumps[-1][1] if self.jumps else self.initial_state

    @property
    def states_used(self) -> tuple[int, ...]:
        seen = {self.initial_state} | {s for _, s in self.jumps}
        return tuple(sorted(seen))

    def state_at(self, t: float) -> int:
        """Value at time t (right-continuous at jumps)."""
        i = bisect_right(self.jump_times, t)
        return self.initial_state if i == 0 else self.jumps[i - 1][1]

    def events(self) -> tuple[Event, ...]:
        """The maximal constant intervals, partitioning the real line."""
        out = []
        start, state = -INF, self.initial_state
        for t, s in self.jumps:
            out.append(Event(start, t, state))
            start, state = t, s
        out.append(Event(start, INF, state))
        return tuple(out)

    def shifted(self, eps: float) -> "StateSequence":
        """The sequence t -> self(t - eps), i.e. moved right by eps."""
        if eps == 0.0:
            return self
        return StateSequence(self.initial_state, tuple((t + eps, s) for t, s in self.jumps))


@dataclass(frozen=True)
class Segmentation:
    """Joint constant-piece decomposition of two sequences.

    ``breakpoints`` is the sorted union of both jump-time sets;
    ``pairs[i]`` holds (state of f, state of g) on the i-th segment, where
    segment 0 is (-inf, a1) and the last is [a_l, inf).  If both sequences
    are constant there are no breakpoints and a single all-of-R segment.
    """

    breakpoints: tuple[float, ...]
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if len(self.pairs) != len(self.breakpoints) + 1:
            raise ValueError("need exactly one more pair than breakpoints")


def segments(f: StateSequence, g: StateSequence) -> Segmentation:
    """Smallest partition of the line on which neither f nor g changes."""
    ft, gt = f.jump_times, g.jump_times
    breaks: list[float] = []
    pairs = [(f.initial_state, g.initial_state)]
    sf, sg = f.initial_state, g.initial_state
    i = j = 0
    while i < len(ft) or j < len(gt):
        if j >= len(gt) or (i < len(ft) and ft[i] <= gt[j]):
            t = ft[i]
        else:
            t = gt[j]
        if i < len(ft) and ft[i] == t:
            sf = f.jumps[i][1]
            i += 1
        if j < len(gt) and gt[j] == t:
            sg = g.jumps[j][1]
            j += 1
        breaks.append(t)
        pairs.append((sf, sg))
    return Segmentation(tuple(breaks), tuple(pairs))


def standard_distance(f: StateSequence, g: StateSequence, metric: StateMetric = DISCRETE) -> float:
    """Integral of d(f(t), g(t)) over the whole line.

    Exact finite sum of segment-length * state-distance terms; +inf as soon
    as the sequences disagree on an unbounded segment.
    """
    if metric.d(f.initial_state, g.initial_state) > 0.0:
        return INF
    if metric.d(f.final_state, g.final_state) > 0.0:
        return INF
    seg = segments(f, g)
    total = 0.0
    for i in range(1, len(seg.pairs) - 1):
        sf, sg = seg.pairs[i]
        if sf != sg:
            total += (seg.breakpoints[i] - seg.breakpoints[i - 1]) * metric.d(sf, sg)
    return total


@dataclass(frozen=True)
class Labels:
    """State labels on a finite recording [0, horizon).

    This is the on-disk form: a horizon in seconds, the size of the state
    alphabet, the state at time 0 and the interior transitions.  Conversion
    to a full-line :class:`StateSequence` is context dependent: projection
    anchors the boundary states (``to_anchored``), the timing-tolerant
    measures use the fixed-fill extension from the measures module.
    """

    horizon: float
    n_states: int
    start_state: int
    jumps: tuple[tuple[float, int], ...] = ()

    def __post_init__(self) -> None:
        if not (self.horizon > 0):
            raise ValueError("horizon must be positive")
        if self.n_states < 2:
            raise ValueError("need at least 2 states")
        prev_t, prev_s = 0.0, self.start_state
        for t, s in self.jumps:
            if not (prev_t < t < self.horizon):
                raise ValueError(f"jump time {t} outside (0, horizon)")
            if s == prev_s:
                raise ValueError("consecutive states must differ")
            prev_t, prev_s = t, s
        object.__setattr__(self, "_times", tuple([t for t, _ in self.jumps]))

    @classmethod
    def from_pairs(
        cls, horizon: float, n_states: int, start_state: int, pairs: Iterable[tuple[float, int]]
    ) -> "Labels":
        """Normalizing constructor; a pair at time 0 overrides start_state."""
        seq_pairs = []
        start = start_state
        for t, s in pairs:
            if t <= 0.0:
                start = int(s)
            elif t < horizon:
                seq_pairs.append((t, s))
        seq = StateSequence.from_pairs(start, seq_pairs)
        return cls(horizon, n_states, seq.initial_state, seq.jumps)

    def state_at(self, t: float) -> int:
        i = bisect_right(self._times, t)  # type: ignore[attr-defined]
        return self.start_state if i == 0 else self.jumps[i - 1][1]

    def to_anchored(self) -> StateSequence:
        """Full-line view with immovable boundary states.

        The first and last events are extended to -inf/+inf, so projection
        treats the recording edges as frozen anchors.
        """
        return StateSequence(self.start_state, self.jumps)

    @classmethod
    def from_anchored(cls, seq: StateSequence, horizon: float, n_states: int) -> "Labels":
        jumps = tuple((t, s) for t, s in seq.jumps if 0.0 < t < horizon)
        start = seq.state_at(0.0)
        return cls(horizon, n_states, start, jumps)

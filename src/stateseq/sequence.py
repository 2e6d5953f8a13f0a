"""Piecewise-constant state sequences on the real line.

A state sequence is a right-continuous step function from time (seconds) into
a finite set of integer state ids, with finitely many jumps.  This module
holds the exact representation plus the primitive operations everything else
is built on: evaluation, event/segment decomposition and the integral
distance between two sequences.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from itertools import chain, compress, repeat
from operator import eq, gt, le, lt, ne, sub
from typing import Iterable, Sequence

import numpy as np

INF = math.inf

# Jumps closer together than this are merged on construction via from_pairs;
# keeps file round-trips (9 decimal digits) from creating zero-length events.
TIME_MERGE_TOL = 1e-9

# Below these many jumps, from_pairs takes its time gaps with Python's
# builtins, which then cost less than numpy's fixed cost per call.
_NUMPY_GAPS_FROM = 256

# A merge tolerance under which only equal times merge: a gap below the
# smallest positive float is zero.
_EQUAL_ONLY = math.ulp(0.0)

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


def _unchecked(cls, **fields):
    """An instance of ``cls`` holding ``fields`` as they are, without the checks of its constructor:
    only for jumps that are valid by construction.  They come as the two columns, the tuples ``_times``
    and ``_states``; :attr:`~_Jumps.jumps` pairs them when it is first read."""
    out = object.__new__(cls)
    out.__dict__.update(fields)
    return out


class _Jumps:
    """The immutable base of :class:`StateSequence` and :class:`Labels`.

    An instance holds the scalars named in ``_fields`` and its jumps as two
    columns: the tuples ``_times`` and ``_states``.  ``jumps``, the tuple of
    (time, state) pairs, is built from them when it is first read and then
    kept.  Equality, hashing and ``repr`` read the scalars and the columns,
    and agree with those of the scalars and the pairs.
    """

    _fields: tuple[str, ...] = ()
    _times: tuple[float, ...]
    _states: tuple[int, ...]

    def _store(self, jumps: tuple, **scalars) -> None:
        """Set the scalars and the columns of the checked ``jumps``."""
        # Lists, not generators: tuple() then allocates the exact size, so
        # CPython's tuple free lists do not fill up between full collections.
        times, states = tuple([t for t, _ in jumps]), tuple([s for _, s in jumps])
        self.__dict__.update(scalars, _times=times, _states=states)

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @cached_property
    def jumps(self) -> tuple[tuple[float, int], ...]:
        """The ordered (time, new state) pairs."""
        # tuple() of a list allocates the exact size; of a zip it grows the
        # tuple step by step, which costs far more garbage collection.
        return tuple(list(zip(self._times, self._states)))

    @property
    def n_jumps(self) -> int:
        return len(self._times)

    def _key(self) -> tuple:
        return (*map(self.__dict__.__getitem__, self._fields), self._times, self._states)

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        scalars = "".join(f"{name}={self.__dict__[name]!r}, " for name in self._fields)
        return f"{type(self).__qualname__}({scalars}jumps={tuple(zip(self._times, self._states))!r})"


class StateSequence(_Jumps):
    """A cadlag step function: ``initial_state`` on (-inf, t1), then jumps.

    The jumps are given as (time, new_state) pairs, in any iterable, and are
    held as the columns ``_times`` and ``_states`` (see :class:`_Jumps`);
    ``jumps`` is the ordered tuple of the pairs.  Invariants: jump times
    strictly increase and consecutive states differ.  Instances are
    immutable; all operations on them are pure functions.
    """

    _fields = ("initial_state",)
    initial_state: int

    def __init__(self, initial_state: int, jumps: Iterable[tuple[float, int]] = ()) -> None:
        jumps = tuple(jumps)
        prev_t = -INF
        prev_s = initial_state
        for t, s in jumps:
            if not (prev_t < t < INF):
                raise ValueError(f"jump times must strictly increase, got {t} after {prev_t}")
            if s == prev_s:
                raise ValueError(f"consecutive states must differ (state {s} at t={t})")
            prev_t, prev_s = t, s
        self._store(jumps, initial_state=initial_state)

    @classmethod
    def from_pairs(cls, initial_state: int, pairs: Iterable[tuple[float, int]]) -> "StateSequence":
        """Build from possibly messy (time, state) pairs.

        Normalizes classifier-style output: jumps closer than TIME_MERGE_TOL
        collapse onto the earlier time (the later state wins), and adjacent
        equal states merge silently.  Times must be non-decreasing.
        """
        pairs = list(pairs)
        return cls._from_columns(initial_state, [float(t) for t, _ in pairs], [int(s) for _, s in pairs])

    @classmethod
    def _from_columns(
        cls, initial_state: int, times: list[float], states: list, tol: float = TIME_MERGE_TOL
    ) -> "StateSequence":
        """:meth:`from_pairs` of the pairs (times[k], states[k]), merging gaps below ``tol``.

        Takes the lists over.  Only gaps that are not >= tol (short, negative
        or NaN) need a second look: a jump after a gap >= tol never merges,
        since it lies at least that far from the head of the chain before it.
        """
        if len(times) < _NUMPY_GAPS_FROM:
            close = [k for k, gap in enumerate(map(sub, times[1:], times), 1) if not gap >= tol]
        else:
            close = (np.flatnonzero(~(np.diff(times) >= tol)) + 1).tolist()
        if close:
            for k in close:
                if times[k] < times[k - 1]:
                    raise ValueError(f"jump times must be sorted, got {times[k]} after {times[k - 1]}")
            # Sequential merge onto the head of each chain, over the close jumps only.
            keep = [True] * len(times)
            head = last = 0
            for k in close:
                if k - 1 != last:
                    head = k - 1
                if times[k] - times[head] < tol:
                    keep[k] = False
                    states[head] = states[k]
                else:
                    head = k
                last = k
            times = list(compress(times, keep))
            states = list(compress(states, keep))
        if states and (states[0] == initial_state or any(map(eq, states[1:], states))):
            changed = list(map(ne, states, chain((initial_state,), states)))
            times = list(compress(times, changed))
            states = list(compress(states, changed))
        # Without close gaps the times are sorted and free of NaN, so the ends bound them.
        if all(map(math.isfinite, times)) if close else not times or -INF < times[0] and times[-1] < INF:
            return _unchecked(cls, initial_state=initial_state, _times=tuple(times), _states=tuple(states))
        return cls(initial_state, zip(times, states))  # raises for the first NaN or infinite time

    def _slice(self, a: int, b: int) -> "StateSequence":
        """Jumps a..b-1 after the state they follow; a slice of a valid sequence skips the checks."""
        initial = self._states[a - 1] if a else self.initial_state
        return _unchecked(StateSequence, initial_state=initial, _times=self._times[a:b], _states=self._states[a:b])

    @property
    def jump_times(self) -> tuple[float, ...]:
        return self._times

    @property
    def final_state(self) -> int:
        return self._states[-1] if self._states else self.initial_state

    @cached_property
    def states_used(self) -> tuple[int, ...]:
        return tuple(sorted({self.initial_state, *self._states}))

    def state_at(self, t: float) -> int:
        """Value at time t (right-continuous at jumps)."""
        i = bisect_right(self._times, t)
        return self._states[i - 1] if i else self.initial_state

    def events(self) -> tuple[Event, ...]:
        """The maximal constant intervals, partitioning the real line."""
        out = []
        start, state = -INF, self.initial_state
        for t, s in zip(self._times, self._states):
            out.append(Event(start, t, state))
            start, state = t, s
        out.append(Event(start, INF, state))
        return tuple(out)

    def shifted(self, eps: float) -> "StateSequence":
        """The sequence t -> self(t - eps), i.e. moved right by eps."""
        if eps == 0.0:
            return self
        # Rounding can make two shifted times equal; like from_pairs, the
        # later state wins, but only exactly equal times merge.
        times = [t + eps for t in self._times]
        return StateSequence._from_columns(self.initial_state, times, list(self._states), tol=_EQUAL_ONLY)


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


def _columns(seq: StateSequence) -> tuple[np.ndarray, list]:
    """The jump times of ``seq`` as an array and its states, the initial state first."""
    return np.array(seq._times, dtype=float), [seq.initial_state, *seq._states]


def _codes(f_states: list, g_states: list) -> tuple[list, np.ndarray, np.ndarray]:
    """The sorted distinct states of both lists, then each list as indices into them (exact for ids of any size)."""
    states = sorted({*f_states, *g_states})
    index = dict(zip(states, range(len(states))))
    return states, *(np.fromiter(map(index.__getitem__, s), np.intp, len(s)) for s in (f_states, g_states))


def _joint(f_times: np.ndarray, f_states: list, g_times: np.ndarray, g_states: list) -> tuple:
    """The joint segmentation of two sequences given by their :func:`_columns`: the breakpoints
    (the sorted union of the jump times), f's and g's state codes on each of the len(breakpoints) + 1
    segments, segment 0 being (-inf, first breakpoint), and the sorted states that the codes index."""
    states, f_codes, g_codes = _codes(f_states, g_states)
    # The sorted union, as np.union1d has it; that one's first call imports
    # numpy.ma, which adds over 1 MiB to the peak memory.
    both = np.sort(np.concatenate((f_times, g_times)))
    breaks = np.concatenate((both[:1], both[1:][both[1:] != both[:-1]]))
    # Code k is the state after the first k jumps; no jump precedes -inf.
    starts = np.concatenate(([-INF], breaks))
    f_at, g_at = f_times.searchsorted(starts, "right"), g_times.searchsorted(starts, "right")
    return breaks, f_codes[f_at], g_codes[g_at], states


def segments(f: StateSequence, g: StateSequence) -> Segmentation:
    """Smallest partition of the line on which neither f nor g changes."""
    breaks, f_codes, g_codes, states = _joint(*_columns(f), *_columns(g))
    at = states.__getitem__
    pairs = list(zip(map(at, f_codes.tolist()), map(at, g_codes.tolist())))
    return Segmentation(tuple(breaks.tolist()), tuple(pairs))


def standard_distance(f: StateSequence, g: StateSequence, metric: StateMetric = DISCRETE) -> float:
    """Integral of d(f(t), g(t)) over the whole line: the segment-length * state-distance terms
    added in segment order, or +inf as soon as the sequences disagree on an unbounded segment."""
    return _integral(_joint(*_columns(f), *_columns(g)), metric)


def _integral(joint: tuple, metric: StateMetric, w: float = 1.0, sigma: float = -INF) -> float:
    """Sum of (delta * length) * d(f, g) over the finite segments of a :func:`_joint`, in segment order,
    with delta ``w`` on a segment at most ``sigma`` long whose neighbours both agree and 1 elsewhere;
    +inf when f and g disagree on an unbounded segment."""
    breaks, f_codes, g_codes, states = joint
    d = metric.matrix(states)[f_codes, g_codes]
    if d[0] > 0.0 or d[-1] > 0.0:
        return INF
    lengths = breaks[1:] - breaks[:-1]
    if w != 1.0:  # delta = 1 changes no term: 1.0 * length is length
        agree = f_codes == g_codes
        # lengths[i] is finite segment i + 1, between segments i and i + 2.
        lengths = np.where((lengths <= sigma) & agree[:-2] & agree[2:], w * lengths, lengths)
    terms = lengths * d[1:-1]
    # A sequential sum, as a loop would add them; np.sum adds pairwise.
    return 0.0 + np.add.accumulate(terms).item(-1) if terms.size else 0.0


class Labels(_Jumps):
    """State labels on a finite recording [0, horizon).

    This is the on-disk form: a horizon in seconds, the size of the state
    alphabet, the state at time 0 and the interior transitions, given as
    (time, state) pairs and held as the columns ``_times`` and ``_states``
    (see :class:`_Jumps`).  Conversion to a full-line
    :class:`StateSequence` is context dependent: projection anchors the
    boundary states (``to_anchored``), the timing-tolerant measures use the
    fixed-fill extension from the measures module.
    """

    _fields = ("horizon", "n_states", "start_state")
    horizon: float
    n_states: int
    start_state: int

    def __init__(
        self, horizon: float, n_states: int, start_state: int, jumps: Iterable[tuple[float, int]] = ()
    ) -> None:
        _check_scalars(horizon, n_states)
        jumps = tuple(jumps)
        prev_t, prev_s = 0.0, start_state
        for t, s in jumps:
            if not (prev_t < t < horizon):
                raise ValueError(f"jump time {t} outside (0, horizon)")
            if s == prev_s:
                raise ValueError("consecutive states must differ")
            prev_t, prev_s = t, s
        self._store(jumps, horizon=horizon, n_states=n_states, start_state=start_state)

    @classmethod
    def from_pairs(
        cls, horizon: float, n_states: int, start_state: int, pairs: Iterable[tuple[float, int]]
    ) -> "Labels":
        """Normalizing constructor; a pair at time 0 overrides start_state."""
        pairs = list(pairs)
        times = [t for t, _ in pairs]
        early = list(map(le, times, repeat(0.0)))
        inside = list(map(lt, times, repeat(horizon)))
        start = start_state
        if True in early:
            start = int(pairs[len(early) - 1 - early[::-1].index(True)][1])
        if True in early or False in inside:
            pairs = list(compress(pairs, map(gt, inside, early)))  # inside and not early
        return cls._within(horizon, n_states, StateSequence.from_pairs(start, pairs))

    @classmethod
    def _within(cls, horizon: float, n_states: int, seq: StateSequence) -> "Labels":
        """Labels with the start and jumps of ``seq``, whose jumps lie in (0, horizon); checks only the scalars."""
        _check_scalars(horizon, n_states)
        scalars = {"horizon": horizon, "n_states": n_states, "start_state": seq.initial_state}
        return _unchecked(cls, **scalars, _times=seq._times, _states=seq._states)

    def state_at(self, t: float) -> int:
        i = bisect_right(self._times, t)
        return self._states[i - 1] if i else self.start_state

    def to_anchored(self) -> StateSequence:
        """Full-line view with immovable boundary states.

        The first and last events are extended to -inf/+inf, so projection
        treats the recording edges as frozen anchors.
        """
        return _unchecked(StateSequence, initial_state=self.start_state, _times=self._times, _states=self._states)

    @classmethod
    def from_anchored(cls, seq: StateSequence, horizon: float, n_states: int) -> "Labels":
        times = seq.jump_times
        first = bisect_right(times, 0.0)
        return cls._within(horizon, n_states, seq._slice(first, bisect_left(times, horizon, first)))


def _check_scalars(horizon: float, n_states: int) -> None:
    if not horizon > 0:
        raise ValueError("horizon must be positive")
    if horizon == INF:
        raise ValueError("horizon must be finite")
    if n_states < 2:
        raise ValueError("need at least 2 states")

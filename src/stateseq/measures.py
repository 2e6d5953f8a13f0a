"""Timing-tolerant performance measures for state sequences.

The standard integral distance treats every misclassified second alike, but
hand-made labels carry uncertainty in where activities begin and end.  The
measures here discount that: the globally time-shifted (GTS) distance allows
one shift of the whole sequence at a price per shifted second, the locally
time-shifted (LTS) distance down-weights short disagreement segments flanked
by agreement, and a duration penalty charges estimates containing
implausibly short events.  exp(-LTS/horizon - penalty) maps everything to a
(0, 1] score where 1 is perfect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .sequence import (
    DISCRETE,
    INF,
    Labels,
    StateMetric,
    StateSequence,
    segments,
    standard_distance,
)


@dataclass(frozen=True)
class GtsParams:
    """Global-shift settings: ``w`` per shifted second, ``sigma`` max shift.

    ``sigma`` may be ``math.inf``, in which case the distance is an extended
    metric; with a finite bound the triangle inequality can fail.
    """

    w: float = 0.6
    sigma: float = 0.35

    def __post_init__(self) -> None:
        if not self.w >= 0:
            raise ValueError("w must be nonnegative")
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")


@dataclass(frozen=True)
class LtsParams:
    """Local-shift and duration-penalty settings.

    ``w`` down-weights forgivable segments, ``sigma`` bounds their length,
    ``lam`` is the penalty per event shorter than ``zeta`` in the estimate.
    """

    w: float = 0.6
    sigma: float = 0.35
    lam: float = 0.0001
    zeta: float = 0.5

    def __post_init__(self) -> None:
        if not self.w >= 0:
            raise ValueError("w must be nonnegative")
        if not self.sigma > 0 or math.isinf(self.sigma):
            raise ValueError("sigma must be positive and finite")
        if not self.lam >= 0:
            raise ValueError("lambda must be nonnegative")
        if not self.zeta > 0:
            raise ValueError("zeta must be positive")


def gts_distance(
    f: StateSequence, g: StateSequence, params: GtsParams, metric: StateMetric = DISCRETE
) -> float:
    """inf over shifts eps in [-sigma, sigma] of dist(f shifted by eps, g) + w|eps|.

    The objective is piecewise linear in eps with kinks only where a shifted
    jump of f meets a jump of g (and at eps = 0), so evaluating it at those
    alignments, clipped to the window, plus the window endpoints is exact.
    """
    candidates = {0.0}
    if math.isfinite(params.sigma):
        candidates.update((-params.sigma, params.sigma))
    for a in g.jump_times:
        for t in f.jump_times:
            eps = a - t
            if math.isfinite(params.sigma):
                eps = min(max(eps, -params.sigma), params.sigma)
            candidates.add(eps)
    best = INF
    for eps in candidates:
        value = standard_distance(f.shifted(eps), g, metric) + params.w * abs(eps)
        if value < best:
            best = value
    return best


def lts_distance(
    f: StateSequence, g: StateSequence, params: LtsParams, metric: StateMetric = DISCRETE
) -> float:
    """Segment-weighted distance forgiving short, flanked mismatches.

    Sums length * d over the finite joint segments, scaled by ``w`` whenever
    the segment is at most ``sigma`` long and both neighbouring segments
    agree; for the outermost finite segments the unbounded end segments act
    as the neighbours.  Disagreement on an unbounded segment yields +inf.
    """
    if metric.d(f.initial_state, g.initial_state) > 0.0:
        return INF
    if metric.d(f.final_state, g.final_state) > 0.0:
        return INF
    seg = segments(f, g)
    n_seg = len(seg.pairs)
    total = 0.0
    # seg.pairs[0] is (-inf, a1); finite segments are indices 1 .. n_seg-2.
    for i in range(1, n_seg - 1):
        sf, sg = seg.pairs[i]
        d = metric.d(sf, sg)
        if d == 0.0:
            continue
        length = seg.breakpoints[i] - seg.breakpoints[i - 1]
        prev_f, prev_g = seg.pairs[i - 1]
        nxt_f, nxt_g = seg.pairs[i + 1]
        delta = (
            params.w
            if length <= params.sigma and prev_f == prev_g and nxt_f == nxt_g
            else 1.0
        )
        total += delta * length * d
    return total


def duration_penalty(g: StateSequence, lam: float, zeta: float) -> float:
    """lam per inter-jump gap strictly shorter than zeta."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if not zeta > 0:
        raise ValueError("zeta must be positive")
    times = g.jump_times
    violations = sum(1 for a, b in zip(times, times[1:]) if b - a < zeta)
    return lam * violations


FILL_STATE = 1


def extend(labels: Labels, fill_state: int = FILL_STATE) -> StateSequence:
    """Extend finite-horizon labels to the whole line with a fixed state.

    Both compared sequences get the same fill outside [0, horizon), so the
    introduced segments never disagree and the LTS distance is independent
    of the chosen state.
    """
    pairs = [(0.0, labels.start_state)] + list(labels.jumps) + [(labels.horizon, fill_state)]
    return StateSequence.from_pairs(fill_state, pairs)


def _check_same_horizon(f: Labels, g: Labels) -> None:
    if f.horizon != g.horizon:
        raise ValueError(f"horizon mismatch: {f.horizon} vs {g.horizon}")


def lts_measure(
    truth: Labels, estimate: Labels, params: LtsParams, metric: StateMetric = DISCRETE
) -> float:
    """exp(-LTS(truth*, estimate*)/horizon - duration_penalty(estimate)).

    1.0 means a perfect estimate with no implausibly short events; the
    duration penalty looks only at the estimate's interior transitions, so
    the artificial extension jumps at 0 and the horizon never count.
    """
    _check_same_horizon(truth, estimate)
    dist = lts_distance(extend(truth), extend(estimate), params, metric)
    dp = duration_penalty(estimate.to_anchored(), params.lam, params.zeta)
    return math.exp(-dist / truth.horizon - dp)


def accuracy(truth: Labels, estimate: Labels) -> float:
    """Fraction of [0, horizon) on which the two label sets agree."""
    _check_same_horizon(truth, estimate)
    seg = segments(extend(truth), extend(estimate))
    mismatch = 0.0
    for i in range(1, len(seg.pairs) - 1):
        sf, sg = seg.pairs[i]
        if sf != sg:
            mismatch += seg.breakpoints[i] - seg.breakpoints[i - 1]
    return 1.0 - mismatch / truth.horizon

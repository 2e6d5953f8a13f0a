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

import numpy as np

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
        if not (math.isfinite(self.w) and self.w >= 0):
            raise ValueError("w must be finite and nonnegative")
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
        if not (math.isfinite(self.w) and self.w >= 0):
            raise ValueError("w must be finite and nonnegative")
        if not self.sigma > 0 or math.isinf(self.sigma):
            raise ValueError("sigma must be positive and finite")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError("lambda must be finite and nonnegative")
        if not self.zeta > 0:
            raise ValueError("zeta must be positive")


def gts_distance(
    f: StateSequence, g: StateSequence, params: GtsParams, metric: StateMetric = DISCRETE
) -> float:
    """inf over shifts eps in [-sigma, sigma] of dist(f shifted by eps, g) + w|eps|.

    The objective is piecewise linear in eps with kinks only where a shifted
    jump of f meets a jump of g, so its minimum lies at eps = 0, at a window
    endpoint or at a kink eps = a_j - t_i with |eps| <= sigma.  One sorted
    sweep finds them all: it starts from the unshifted distance and its
    right slope, the sum over f's jumps of d(p_i, g(t_i)) - d(q_i, g(t_i))
    (p_i, q_i: f's states before and after jump i), and carries value and
    slope outward to both window ends.  Crossing kink (i, j) changes the
    slope by [d(p_i, v_j) - d(q_i, v_j)] - [d(p_i, u_j) - d(q_i, u_j)], with
    u_j, v_j g's states before and after jump j.

    The swept values only pick the candidates: every candidate within a
    rounding-error bound of the swept minimum is evaluated again as
    ``standard_distance(f.shifted(eps), g) + w*|eps|``, and the smallest of
    those exact values is returned, so the result is the float a direct
    evaluation at every candidate would give.  Cost O(K log K) time and O(K)
    memory for the K jump pairs within sigma of each other (K = n*m when
    sigma is infinite), plus O((n + m) log m) and one standard distance per
    re-evaluated candidate.
    """
    if metric.d(f.initial_state, g.initial_state) > 0.0:
        return INF
    if metric.d(f.final_state, g.final_state) > 0.0:
        return INF
    sigma, w = params.sigma, params.w
    d0 = standard_distance(f, g, metric)

    states = sorted(set(f.states_used) | set(g.states_used))
    index = {s: k for k, s in enumerate(states)}
    dmat = metric.matrix(states)
    f_times = np.array(f.jump_times, dtype=float)
    g_times = np.array(g.jump_times, dtype=float)
    f_states = np.array([index[f.initial_state]] + [index[s] for _, s in f.jumps], dtype=np.intp)
    g_states = np.array([index[g.initial_state]] + [index[s] for _, s in g.jumps], dtype=np.intp)
    p, q = f_states[:-1], f_states[1:]

    # Right slope at eps = 0: g right after each unshifted jump of f.
    g_at = g_states[np.searchsorted(g_times, f_times, side="right")]
    slope0 = float(np.sum(dmat[p, g_at] - dmat[q, g_at]))

    # Jump pairs (i, j) with |a_j - t_i| <= sigma, eps computed as a_j - t_i;
    # the search window is padded so rounding in t_i +- sigma loses no pair.
    t_abs = max(np.max(np.abs(f_times), initial=0.0), np.max(np.abs(g_times), initial=0.0))
    pad = 2.0**-40 * (t_abs + sigma)
    lo = np.searchsorted(g_times, f_times - sigma - pad, side="left")
    hi = np.searchsorted(g_times, f_times + sigma + pad, side="right")
    counts = hi - lo
    # Pair k of jump i has j = lo[i] + (k - first pair index of i).
    ii = np.repeat(np.arange(len(f_times)), counts)
    jj = np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts - lo, counts)
    eps = g_times[jj] - f_times[ii]
    inside = np.abs(eps) <= sigma
    ii, jj, eps = ii[inside], jj[inside], eps[inside]
    u, v = g_states[jj], g_states[jj + 1]
    bump = (dmat[p[ii], v] - dmat[q[ii], v]) - (dmat[p[ii], u] - dmat[q[ii], u])

    # Outward walks: slope in the walking direction, bumped after each kink.
    right = eps > 0.0
    left = eps < 0.0
    edge = [sigma] if math.isfinite(sigma) else []
    ahead, ahead_d = _walk(d0, slope0, eps[right], bump[right], edge)
    back_slope = -(slope0 - float(bump[eps == 0.0].sum()))
    behind, behind_d = _walk(d0, back_slope, -eps[left], bump[left], edge)
    shifts = np.concatenate(([0.0], ahead, -behind))
    with np.errstate(invalid="ignore"):  # inf * 0 when w is infinite
        swept = np.concatenate(([d0], ahead_d, behind_d)) + w * np.abs(shifts)

    low = float(np.fmin.reduce(swept))
    if not math.isfinite(low):
        return INF
    # Rounding bound on |swept - exact|: breakpoint and sum rounding in both
    # evaluations, kink positions, and the running sums of value and slope,
    # with a wide safety factor.
    reach = float(np.max(np.abs(shifts)))
    n_terms = len(f_times) + len(g_times) + len(eps)
    d_max = float(dmat.max())
    slack = 2.0**-45 * (d_max * ((t_abs + reach) * n_terms + reach * len(eps) * len(f_times)) + w * reach + low)
    best = INF
    for shift in set(shifts[swept <= low + slack].tolist()):
        dist = d0 if shift == 0.0 else standard_distance(f.shifted(shift), g, metric)
        value = dist + w * abs(shift)
        if value < best:
            best = value
    return best


def _walk(
    value0: float, slope0: float, kinks: np.ndarray, bumps: np.ndarray, edge: list[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct kink distances from 0 (then ``edge``) and the values there.

    Starting at distance 0 with ``value0`` and slope ``slope0`` in the
    walking direction, the slope grows by the summed ``bumps`` of each kink
    once it is crossed.
    """
    order = np.argsort(kinks, kind="stable")
    kinks, bumps = kinks[order], bumps[order]
    starts = np.flatnonzero(np.diff(kinks, prepend=-INF) > 0.0)
    dists = np.concatenate((kinks[starts], edge))
    grouped = np.add.reduceat(bumps, starts) if starts.size else bumps[:0]
    slopes = slope0 + np.concatenate(([0.0], np.cumsum(grouped)))[: len(dists)]
    widths = np.diff(dists, prepend=0.0)
    return dists, value0 + np.cumsum(slopes * widths)


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
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError("lambda must be finite and nonnegative")
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

"""Timing-tolerant performance measures for state sequences.

The standard integral distance treats every misclassified second alike, but
hand-made labels carry uncertainty in where activities begin and end.  The
measures here discount that: the globally time-shifted (GTS) distance allows
one shift of the whole sequence at a price per shifted second, the locally
time-shifted (LTS) distance down-weights short disagreement segments flanked
by agreement, and a duration penalty charges estimates containing
implausibly short events.  exp(-LTS/horizon - penalty) maps everything to a
(0, 1] score where 1 is perfect.  Accuracy and LTS are read off one joint
segmentation held as arrays, in O((n + m) log(n + m)) time for n and m jumps,
with totals added in segment order, so they equal a per-segment loop bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sequence import (
    DISCRETE,
    INF,
    TIME_MERGE_TOL,
    Labels,
    StateMetric,
    StateSequence,
    _codes,
    _columns,
    _integral,
    _joint,
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
        if not (math.isfinite(self.zeta) and self.zeta > 0):
            raise ValueError("zeta must be finite and positive")


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
    d0 = standard_distance(f, g, metric)
    if d0 == INF:  # an unbounded segment disagrees at every shift
        return INF
    sigma, w = params.sigma, params.w

    (f_times, f_all), (g_times, g_all) = _columns(f), _columns(g)
    states, f_states, g_states = _codes(f_all, g_all)
    dmat = metric.matrix(states)
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
    near = set(shifts[swept <= low + slack].tolist())
    return min((d0 if eps == 0.0 else standard_distance(f.shifted(eps), g, metric)) + w * abs(eps) for eps in near)


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
    return _integral(_joint(*_columns(f), *_columns(g)), metric, params.w, params.sigma)


def duration_penalty(g: StateSequence, lam: float, zeta: float) -> float:
    """lam per inter-jump gap strictly shorter than zeta."""
    LtsParams(lam=lam, zeta=zeta)  # checks lam and zeta
    return lam * int(np.count_nonzero(np.diff(g.jump_times) < zeta))


FILL_STATE = 1


def extend(labels: Labels, fill_state: int = FILL_STATE) -> StateSequence:
    """Extend finite-horizon labels to the whole line with a fixed state.

    Both compared sequences get the same fill outside [0, horizon), so the
    introduced segments never disagree and the LTS distance is independent
    of the chosen state.  The sequence is :meth:`StateSequence.from_pairs`
    of the pairs (0, start state), the jumps and (horizon, fill state),
    except that the jumps keep the time and state objects of ``labels``.
    """
    times = [0.0, *labels._times, float(labels.horizon)]
    states = [int(labels.start_state), *labels._states, int(fill_state)]
    return StateSequence._from_columns(fill_state, times, states)


def _extension(labels: Labels, fill_state: int = FILL_STATE, times=None) -> tuple[np.ndarray, list]:
    """The :func:`~stateseq.sequence._columns` of ``extend(labels)``, built without
    that sequence unless some of its jumps lie closer than ``TIME_MERGE_TOL``.
    ``times``, if given, is the array of 0, the jump times of ``labels`` and the horizon."""
    if times is None:
        times = np.array([0.0, *labels._times, labels.horizon], dtype=float)
    if not (np.diff(times) >= TIME_MERGE_TOL).all():
        return _columns(extend(labels, fill_state))  # some jumps merge
    states = [int(labels.start_state), *labels._states, int(fill_state)]
    # Consecutive label states differ, so only a jump at 0 or the horizon can repeat one (and drop out).
    first, last = int(states[0] == fill_state), int(states[-2] == fill_state)
    return times[first : len(times) - last], [fill_state, *states[first : len(states) - last]]


def _extended_joint(truth: Labels, estimate: Labels, estimate_times=None) -> tuple:
    """The :func:`~stateseq.sequence._joint` of both extensions (``estimate_times``: see :func:`_extension`);
    ValueError if the horizons differ."""
    if truth.horizon != estimate.horizon:
        raise ValueError(f"horizon mismatch: {truth.horizon} vs {estimate.horizon}")
    return _joint(*_extension(truth), *_extension(estimate, FILL_STATE, estimate_times))


def lts_measure(
    truth: Labels, estimate: Labels, params: LtsParams, metric: StateMetric = DISCRETE
) -> float:
    """exp(-LTS(truth*, estimate*)/horizon - duration_penalty(estimate)).

    1.0 means a perfect estimate with no implausibly short events; the
    duration penalty looks only at the estimate's interior transitions, so
    the artificial extension jumps at 0 and the horizon never count.
    """
    times = np.array([0.0, *estimate._times, estimate.horizon], dtype=float)
    dist = _integral(_extended_joint(truth, estimate, times), metric, params.w, params.sigma)
    dp = params.lam * int(np.count_nonzero(np.diff(times[1:-1]) < params.zeta))  # as duration_penalty counts
    return math.exp(-dist / truth.horizon - dp)


def accuracy(truth: Labels, estimate: Labels) -> float:
    """Fraction of [0, horizon) on which the two label sets agree."""
    return 1.0 - _integral(_extended_joint(truth, estimate), DISCRETE) / truth.horizon

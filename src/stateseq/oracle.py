"""Brute-force reference implementations for validating the fast paths.

The projection oracle enumerates every candidate directly from the one fact
that candidate jumps can be restricted to the input's own jump locations; it
deliberately knows nothing about event freezing, vertex pruning, parity arcs
or the shortest-path reduction, so it can falsify any of them.  Past its
size bound, the per-column DP of :func:`reference_project` checks the
running-minima solver and its tie record on the same graph.  For the
shifted-distance minimization, a direct evaluation at every candidate shift
and a grid evaluator play the same role.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .measures import GtsParams
from .projection import GAP_TOL, ProjectionResult, _Core, _dp, _project_with, _tie_tol
from .sequence import DISCRETE, StateMetric, StateSequence, costs_close, standard_distance

MAX_ORACLE_JUMPS = 10
MAX_ORACLE_STATES = 4


@dataclass(frozen=True)
class OracleResult:
    optimal_cost: float
    optimal_set: tuple[StateSequence, ...]
    search_space_size: int

    def contains(self, seq: StateSequence) -> bool:
        return any(seq == cand for cand in self.optimal_set)


def _candidate_energy(
    dur: list[float],
    f_states: list[int],
    kept: tuple[int, ...],
    labels: tuple[int, ...],
    gamma: float,
    metric: StateMetric,
) -> float:
    """Energy of the candidate jumping at f's jumps ``kept`` with ``labels``.

    ``labels`` holds the candidate's state on each finite span between kept
    jumps; the unbounded boundary spans are pinned to f's boundary states.
    dur[m] is the length of f's m-th finite inter-jump interval.
    """
    n = len(f_states) - 1
    full = (f_states[0],) + labels + (f_states[n],)
    dist = 0.0
    seg = 0
    kset = set(kept)
    for m in range(1, n):
        if m in kset:
            seg += 1
        dist += dur[m - 1] * metric.d(full[seg], f_states[m])
    return dist + gamma * len(kept)


def brute_force_project(
    f: StateSequence, gamma: float, metric: StateMetric = DISCRETE, states: tuple[int, ...] | None = None
) -> OracleResult:
    """Exhaustive projection over jump subsets and segment labelings.

    Enumerates every subset of f's jump locations and every labeling of the
    resulting finite spans over ``states`` (defaults to the states appearing
    in f), discarding labelings with equal adjacent states or a finite gap
    below gamma, and returns all minimizers of the jump-penalized distance.
    Only feasible for small inputs.
    """
    if not math.isfinite(gamma) or gamma < 0:
        raise ValueError("gamma must be finite and nonnegative")
    alphabet = tuple(sorted(states)) if states is not None else f.states_used
    n = f.n_jumps
    if n > MAX_ORACLE_JUMPS or len(alphabet) > MAX_ORACLE_STATES:
        raise ValueError("instance exceeds the oracle feasibility bound")
    if n == 0:
        return OracleResult(0.0, (f,), 1)

    times = f.jump_times
    f_states = [f.initial_state] + [s for _, s in f.jumps]
    dur = [times[i + 1] - times[i] for i in range(n - 1)]
    s0, sn = f_states[0], f_states[n]

    best = math.inf
    near_best: list[tuple[float, tuple[int, ...], tuple[int, ...]]] = []
    searched = 0

    def consider(kept: tuple[int, ...], labels: tuple[int, ...]) -> None:
        nonlocal best, searched
        searched += 1
        e = _candidate_energy(dur, f_states, kept, labels, gamma, metric)
        if e < best:
            best = e
        if costs_close(e, best) or e <= best:
            near_best.append((e, kept, labels))

    for k in range(n + 1):
        for kept_idx in combinations(range(1, n + 1), k):
            kept_times = [times[i - 1] for i in kept_idx]
            if any(b - a < gamma - GAP_TOL for a, b in zip(kept_times, kept_times[1:])):
                continue
            if k == 0:
                if s0 == sn:
                    consider((), ())
                continue
            # Labels for the k-1 finite spans; boundary spans are pinned.
            def rec(pos: int, prefix: tuple[int, ...]) -> None:
                if pos == k - 1:
                    last = prefix[-1] if prefix else s0
                    if last != sn:
                        consider(kept_idx, prefix)
                    return
                prev = prefix[-1] if prefix else s0
                for s in alphabet:
                    if s != prev:
                        rec(pos + 1, prefix + (s,))

            rec(0, ())

    sequences = []
    for e, kept, labels in near_best:
        if not costs_close(e, best):
            continue
        pairs = []
        full = (s0,) + labels + (sn,)
        for seg, jump_idx in enumerate(kept, start=1):
            pairs.append((times[jump_idx - 1], full[seg]))
        sequences.append(StateSequence(f.initial_state, tuple(pairs)))
    sequences.sort(key=lambda s: (s.n_jumps, s.jumps))
    return OracleResult(best, tuple(sequences), searched)


def _reference_tables(core: _Core) -> tuple[list[int], list[float], dict[int, list[int]]]:
    """One subproblem by the per-column DP, in O(n^2) time and memory.

    The parent and distance tables come from :func:`_dp` over the stored
    full weight columns.  The tie record lists, for every vertex, each
    predecessor within COST_TOL of the exact minimum ``dmin`` of its column,
    whatever the tie-break chose.
    """
    n = core.n_vertices
    columns = [np.empty(0)] + [core.column(j) for j in range(1, n)]
    parent, dist, _ = _dp(n, columns.__getitem__)
    dmin = np.full(n, math.inf)
    dmin[0] = 0.0
    ties: dict[int, list[int]] = {}
    for v in range(1, n):
        cand = dmin[:v] + columns[v]
        dmin[v] = cand.min()
        ties[v] = np.flatnonzero(cand <= dmin[v] + _tie_tol(dmin[v])).tolist()
    return parent, dist, ties


def reference_project(
    f: StateSequence, gamma: float, metric: StateMetric = DISCRETE, *, binary: bool = False
) -> ProjectionResult:
    """:func:`project` with ``all_optimal``, each subproblem solved by the per-column DP.

    The split, the arc tables and the combination across subproblems are
    :func:`project`'s; the solver and the optimum set are not.  Its cost and
    primary must equal the fast solver's bit for bit, and its ``optima``
    tuple must equal the one enumerated from the solver's tie record.
    """
    return _project_with(_reference_tables, [f], gamma, metric, binary, True)[0]


def reference_gts(
    f: StateSequence, g: StateSequence, params: GtsParams, metric: StateMetric = DISCRETE
) -> float:
    """The shifted-distance objective evaluated at every candidate shift.

    The candidates are eps = 0, the window endpoints and the alignment
    a - t of every pair of jumps of g and f, clipped to the window: one
    standard distance each, O(n*m*(n + m)) in all.  :func:`gts_distance`
    must return the same float.
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
    best = math.inf
    for eps in candidates:
        value = standard_distance(f.shifted(eps), g, metric) + params.w * abs(eps)
        if value < best:
            best = value
    return best


def grid_gts(
    f: StateSequence,
    g: StateSequence,
    params: GtsParams,
    metric: StateMetric = DISCRETE,
    grid_step: float = 1e-4,
) -> float:
    """Shifted-distance objective minimized over a regular grid of shifts.

    Always an upper bound for :func:`gts_distance`; converges to it as the
    step shrinks.  Requires a finite shift window.  Every shift is evaluated
    at once, without the standard distance: the sum over event pairs of
    d(F_i, G_j) times the length of (F_i + eps) meeting G_j, +inf when two
    unbounded events that share a side disagree.
    """
    if not grid_step > 0:
        raise ValueError("grid_step must be positive")
    if math.isinf(params.sigma):
        raise ValueError("grid evaluation needs a finite sigma")
    if metric.d(f.initial_state, g.initial_state) > 0.0 or metric.d(f.final_state, g.final_state) > 0.0:
        return math.inf  # an unbounded stretch disagrees at every shift
    steps = int(params.sigma / grid_step)
    offsets = grid_step * np.arange(1, steps + 1)
    eps = np.concatenate((-offsets[::-1], [0.0], offsets, [-params.sigma, params.sigma]))
    # Every other pair with d > 0 meets on a finite stretch, if at all; pairs with d = 0 add nothing.
    pairs = [(x.start, x.end, y.start, y.end, metric.d(x.state, y.state)) for x in f.events() for y in g.events()]
    f_start, f_end, g_start, g_end, d = np.array([p for p in pairs if p[4] > 0.0]).reshape(-1, 5).T
    meet = np.minimum(f_end[:, None] + eps, g_end[:, None]) - np.maximum(f_start[:, None] + eps, g_start[:, None])
    return float(np.min(d @ np.maximum(meet, 0.0) + params.w * np.abs(eps)))


def random_instance(
    rng: np.random.Generator,
    max_jumps: int = 8,
    n_states: int = 3,
    span: float = 10.0,
    equal_ends: bool = False,
) -> tuple[StateSequence, float]:
    """A random test sequence plus a gamma drawn in (0, max inter-jump gap)."""
    n = int(rng.integers(2, max_jumps + 1))
    if equal_ends and n_states == 2 and n % 2 == 1:
        n = n + 1 if n < max_jumps else n - 1

    times = np.sort(rng.uniform(0.0, span, size=n))
    while np.min(np.diff(times)) < 1e-6:
        times = np.sort(rng.uniform(0.0, span, size=n))

    # Non-repeating random walk s_0 .. s_n over 1..n_states.
    states = [int(rng.integers(1, n_states + 1))]
    for _ in range(n):
        nxt = int(rng.integers(1, n_states))
        if nxt >= states[-1]:
            nxt += 1
        states.append(nxt)
    if equal_ends and states[-1] != states[0]:
        # Two states alternate, so ends already match for even n; otherwise
        # nudge the tail of the walk to close the loop.
        if states[-2] == states[0]:
            choices = [s for s in range(1, n_states + 1) if s not in (states[-3], states[0])]
            states[-2] = choices[int(rng.integers(0, len(choices)))]
        states[-1] = states[0]

    seq = StateSequence.from_pairs(states[0], list(zip(times.tolist(), states[1:])))
    gaps = np.diff(seq.jump_times)
    max_gap = float(gaps.max()) if gaps.size else span
    # Gaps can all lie below 1e-3; draw from (max_gap / 2, max_gap) then.
    gamma = float(rng.uniform(1e-3 if max_gap >= 1e-3 else max_gap / 2, max_gap))
    return seq, gamma

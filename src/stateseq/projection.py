"""Optimal elimination of short events by shortest-path projection.

A sequence is replaced by the minimizer of (integral distance to it) plus a
per-jump penalty ``gamma``; every finite event of the minimizer then lasts at
least ``gamma`` (``2*gamma`` for two-state sequences).  The minimizer is found
exactly: events long enough to survive some optimal solution are frozen, the
stretches between them become independent subproblems, and each subproblem is
solved as a shortest source-to-sink path in a weighted DAG over candidate
jump times.  The solver sweeps the vertices once with a running minimum per
label plus a bucket of the vertices within a fixed slack of it, so exact
cost ties are settled inside the sweep from arc weights computed one at a
time; :func:`build_graph` materializes the quadratic arc matrix on demand
for inspection, and the reference DP enumerates ties from full columns.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .sequence import (
    COST_TOL,
    DISCRETE,
    INF,
    DiscreteMetric,
    Labels,
    StateMetric,
    StateSequence,
    standard_distance,
)

# Slack for gap-vs-threshold comparisons (arc feasibility, event freezing);
# absorbs float noise in differences of decimal-valued times.
GAP_TOL = 1e-12


def energy(f: StateSequence, g: StateSequence, gamma: float, metric: StateMetric = DISCRETE) -> float:
    """dist(f, g) + gamma * (number of jumps of g)."""
    if not (math.isfinite(gamma) and gamma >= 0):
        raise ValueError("gamma must be finite and nonnegative")
    return standard_distance(f, g, metric) + gamma * g.n_jumps


@dataclass(frozen=True)
class Subproblem:
    """A run of removable short events between two frozen anchors.

    ``sequence`` is the sub-function with the anchor states extended to
    +-inf (its initial and final states are the left and right anchors);
    ``first_jump`` / ``last_jump`` index into the jumps of the original
    sequence.
    """

    sequence: StateSequence
    first_jump: int
    last_jump: int

    @property
    def span(self) -> tuple[float, float]:
        times = self.sequence.jump_times
        return times[0], times[-1]


def _freeze_threshold(gamma: float, rows: list[list[float]]) -> float:
    """Event length from which freezing is sound: ``2*gamma / min(1, d_min)``.

    ``d_min`` is the smallest off-diagonal entry of the distance matrix
    ``rows`` (1 when there is only one state); relabelling L seconds of an
    event costs at least ``L * d_min``.
    """
    d_min = min((d for i, row in enumerate(rows) for j, d in enumerate(row) if i != j), default=1.0)
    return 2.0 * gamma / min(1.0, d_min)


def split_long_events(f: StateSequence, gamma: float, metric: StateMetric = DISCRETE) -> tuple[Subproblem, ...]:
    """Freeze events no optimal solution needs to remove and split between them.

    An event at least ``2*gamma / min(1, d_min)`` long, where ``d_min`` is the
    smallest distance between two of f's states (``2*gamma`` under the
    discrete metric), is kept verbatim in some optimal projection, as are the
    two unbounded boundary events; each maximal run of shorter events in
    between forms one independent subproblem.  The threshold is the same for
    two-state sequences: freezing at ``gamma`` looks tempting there but is
    unsound, since keeping an event of length in (gamma, 2*gamma) pins two
    retained jumps closer than the binary minimum gap, and removing such an
    event can be strictly optimal.
    """
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    threshold = _freeze_threshold(gamma, metric.matrix(f.states_used).tolist())
    events = f.events()
    frozen = [ev.length >= threshold - GAP_TOL for ev in events]
    subs = []
    i = 1
    while i < len(events) - 1:
        if frozen[i]:
            i += 1
            continue
        j = i
        while j + 1 < len(events) - 1 and not frozen[j + 1]:
            j += 1
        # Jump into events[i] is f.jumps[i-1]; jump out of events[j] is f.jumps[j].
        sub_seq = StateSequence(events[i - 1].state, f.jumps[i - 1 : j + 1])
        subs.append(Subproblem(sub_seq, i - 1, j))
        i = j + 1
    return tuple(subs)


class _Core:
    """Per-subproblem weight machinery shared by the solver and the graph.

    Vertices are indexed 0 (source, -inf), 1..k (candidate jump times in
    order), k+1 (sink, +inf).  Every finite arc weight comes from one table,
    ``score[c, i]``: the occupancy of each state x of f in [t_1, kept time
    i), weighted by 1 - d(c, x).  An arc k -> j labelled c therefore costs
    (t_j - t_k) - (score[c, j] - score[c, k]), the integral of d(c, f) over
    the arc, plus gamma; it takes the cheapest label under the metric.
    ``enter`` / ``admit`` are the table with -inf / +inf where label c may
    not end at j / start at k: in the binary graph c must be f's state right
    after k, and the jump at j must leave c.  ``column(j)`` returns the arc
    weights from every earlier vertex into j; absent arcs are +inf.

    Labels are the subproblem's own states plus each state of ``universe``
    (the whole input's states and their distance-matrix rows, shared by
    every subproblem of one projection) that no own state dominates: s
    dominates c when d(s, x) <= d(c, x) for every own state x, so
    relabelling c as s never costs more.  Without ``universe`` the labels
    are the own states.
    """

    def __init__(
        self,
        f: StateSequence,
        gamma: float,
        metric: StateMetric,
        binary: bool,
        universe: tuple[tuple[int, ...], list[list[float]]] | None = None,
    ):
        n = f.n_jumps
        if not gamma > 0:
            raise ValueError("gamma must be positive")
        if n < 2:
            raise ValueError("graph construction needs at least 2 jumps")
        own = f.states_used
        if binary and len(own) != 2:
            raise ValueError("binary graph requires a two-state sequence")
        labels, rows = universe if universe is not None else (own, metric.matrix(own).tolist())
        own_pos = [labels.index(s) for s in own]
        keep = [
            c
            for c, s in enumerate(labels)
            if s in own or not any(all(rows[o][x] <= rows[c][x] for x in own_pos) for o in own_pos)
        ]
        states = [labels[c] for c in keep]
        dmat = np.array([[rows[a][b] for b in keep] for a in keep])
        comp = {s: i for i, s in enumerate(states)}
        m = len(states)

        t = np.array(f.jump_times)
        svec = np.array([comp[f.initial_state]] + [comp[s] for _, s in f.jumps])
        internal = np.diff(t)
        if internal.size and internal.max() > _freeze_threshold(gamma, rows) + GAP_TOL:
            raise ValueError("internal gap exceeds the split threshold; split the sequence first")

        # Occupancy of each state within [t_1, t_i), column i = 1..n.
        pref = np.zeros((m, n + 1))
        onehot = np.zeros((m, n - 1))
        onehot[svec[1:n], np.arange(n - 1)] = internal
        pref[:, 2:] = np.cumsum(onehot, axis=1)

        # Candidate jump vertices.  The second (second-to-last) jump can be
        # dropped when the gap to its neighbour is at most gamma: a solution
        # jumping there can shift that jump onto the neighbour at no extra
        # cost under the discrete metric.  For wider gaps, keeping both
        # boundary jumps of an event can be uniquely optimal.
        drop: set[int] = set()
        if not binary and n > 2 and isinstance(metric, DiscreteMetric):
            if t[1] - t[0] <= gamma + GAP_TOL:
                drop.add(2)
            if t[n - 1] - t[n - 2] <= gamma + GAP_TOL:
                drop.add(n - 1)
        kidx = np.array([i for i in range(1, n + 1) if i not in drop])
        pref_k = pref[:, kidx]
        # C order: column() reduces over states for a run of vertices.
        score = (1.0 - dmat) @ pref_k
        if binary:
            after = np.arange(m)[:, None] == svec[kidx]
            self.admit, self.enter = np.where(after, score, INF), np.where(after, -INF, score)
        else:
            self.admit = self.enter = score

        self.gamma = gamma
        self.binary = binary
        self.states = states
        self.ktimes = t[kidx - 1]
        self.k = len(kidx)
        self.c0 = c0 = int(svec[0])
        self.cn = cn = int(svec[n])
        self.min_gap = (2.0 * gamma if binary else gamma) - GAP_TOL
        self.times = np.concatenate(([-INF], self.ktimes, [INF]))

        # Arcs touching a sentinel carry its boundary state; the direct
        # source-to-sink arc exists iff both boundary states agree.
        self.w_source = np.where(self.enter[c0] > -INF, dmat[c0] @ pref_k + gamma, INF)
        self.w_sink = np.where(self.admit[cn] < INF, dmat[cn] @ (pref[:, n, None] - pref_k), INF)
        self.w_direct = float(dmat[c0] @ pref[:, n]) if c0 == cn else INF

        # Plain-float tables for solve_primary, and its bucket slack M.
        self.time_list = self.ktimes.tolist()
        self.enter_rows = self.enter.tolist()
        self.admit_rows = self.admit.tolist() if binary else self.enter_rows
        bound = 2 * max(-t[0], t[-1]) + 4 * (t[-1] - t[0]) * max(1.0, dmat.max()) + gamma * (self.k + 2)
        self.slack = float(2 * COST_TOL * max(1.0, bound))

    @property
    def n_vertices(self) -> int:
        return self.k + 2

    def column(self, j: int) -> np.ndarray:
        """Arc weights from every vertex below j into vertex j; +inf if absent."""
        out = np.full(j, INF)
        if j <= self.k:
            out[0] = self.w_source[j - 1]
            p = int(np.searchsorted(self.ktimes[: j - 1], self.ktimes[j - 1] - self.min_gap, side="right"))
            gain = self.enter[:, j - 1 : j] - self.admit[:, :p]
            out[1 : p + 1] = ((self.ktimes[j - 1] - self.ktimes[:p]) - gain).min(axis=0) + self.gamma
        else:
            out[0] = self.w_direct
            out[1:] = self.w_sink
        return out

    def arc_state(self, a: int, b: int) -> int:
        """Segment state carried by the arc between vertices a < b."""
        if a == 0:
            return self.states[self.c0]
        if b == self.k + 1:
            return self.states[self.cn]
        return self.states[int((self.enter[:, b - 1] - self.admit[:, a - 1]).argmax())]

    def _weight_single(self, j: int, k: int) -> float:
        """Arc weight from finite vertex k into finite vertex j, bitwise as in :meth:`column`."""
        dt = self.time_list[j - 1] - self.time_list[k - 1]
        return min([dt - (e[j - 1] - a[k - 1]) for e, a in zip(self.enter_rows, self.admit_rows)]) + self.gamma

    def solve_primary(self) -> tuple[tuple[int, ...], float]:
        """Single best path by running minima, settling every column exactly.

        Arc k -> j labelled c weighs (dist[k] - t_k) + admit[c][k], fixed once k
        is admitted (t_k <= t_j - min_gap), plus (gamma + t_j) - enter[c][j].  Per
        label, a bucket holds each admitted vertex whose first part lies within
        the slack M of the label's running minimum; non-finite values never
        enter, and entries go once the minimum falls by more than M.  Column
        j's candidates are the source arc and the bucket entries within M of
        lo, the least of them; each is costed bitwise as in the reference
        column, via :meth:`_weight_single`, and the winner is picked as in
        :func:`_relax`, which also settles the sink.

        M = 2 COST_TOL max(1, B) with B = 2 max|t| + 4 span max(1, d_max) +
        gamma (vertices) suffices: B bounds every intermediate on both sides (a
        path into k costs at most span d_max + gamma per jump), and each side
        takes five roundings of at most u B (u = 2^-53) of the same real sum,
        so the two values of (k, c) differ by at most E = 10 u B.  The least
        reference cost is within 2E of lo, a reference tie k within COST_TOL
        max(1, B) + 4E + u B of lo under its cheapest label c, and its first
        part within 2 u B more of best[c]: k is in c's bucket and a candidate.
        COST_TOL = 1e-12 exceeds that rounding, 23 u, over 300-fold.
        """
        kk, gamma, slack = self.k, self.gamma, self.slack
        dist, parent, njumps = (a.tolist() for a in _dp_tables(kk + 2))
        ktimes, enter, admit = self.time_list, self.enter_rows, self.admit_rows
        w_source = self.w_source.tolist()
        labels = range(len(enter))
        best, floor = [INF] * len(enter), [INF] * len(enter)  # floor: best at the last pruning
        buckets: list[list[tuple[float, int]]] = [[] for _ in labels]
        admitted = 0

        for j in range(1, kk + 1):
            tj = ktimes[j - 1]
            while admitted < kk and ktimes[admitted] <= tj - self.min_gap:
                admitted += 1
                d = dist[admitted] - ktimes[admitted - 1]
                for c in labels:
                    v = d + admit[c][admitted - 1]
                    if v < INF and v <= best[c] + slack:
                        if v < best[c]:
                            best[c] = v
                            if v < floor[c] - slack:
                                floor[c] = v
                                buckets[c] = [e for e in buckets[c] if e[0] <= v + slack]
                        buckets[c].append((v, admitted))

            g, src = gamma + tj, w_source[j - 1]
            terms = [g - row[j - 1] for row in enter]
            tops = [b + e for b, e in zip(best, terms)]
            lo = min(src, min(tops))
            if lo == INF:
                continue
            cut = lo + slack
            cands = [0] if src <= cut else []
            for c in labels:
                if tops[c] <= cut:
                    e = terms[c]
                    cands += [k for v, k in buckets[c] if v + e <= cut]
            cost = {k: dist[k] + (src if k == 0 else self._weight_single(j, k)) for k in cands}
            if len(cost) == 1:
                (k,) = cost
            else:
                low = min(cost.values())
                k = _first_path([k for k, x in cost.items() if x <= low + _tie_tol(low)], njumps, parent)
            dist[j], parent[j], njumps[j] = cost[k], k, njumps[k] + 1

        _relax(kk + 1, self.column(kk + 1), dist, parent, njumps)
        return _path(parent, dist)

    def path_to_sequence(self, path: tuple[int, ...]) -> StateSequence:
        initial = self.arc_state(path[0], path[1])
        pairs = []
        for a, b in zip(path[1:-1], path[2:]):
            pairs.append((float(self.times[a]), self.arc_state(a, b)))
        return StateSequence.from_pairs(initial, pairs)


@dataclass(frozen=True)
class ProjectionGraph:
    """Weighted DAG over candidate jump times.

    ``times`` includes the -inf source and +inf sink sentinels.  ``weight``
    and ``seg_state`` are dense (n_vertices x n_vertices) matrices: absent
    arcs hold +inf / -1, and ``seg_state[k, l]`` is the state assigned to
    the interval between vertices k and l of any solution using that arc.
    """

    times: np.ndarray
    weight: np.ndarray
    seg_state: np.ndarray
    gamma: float
    binary: bool

    @property
    def n_vertices(self) -> int:
        return len(self.times)

    @property
    def arcs(self) -> tuple[tuple[float, float, float, int], ...]:
        """(from_time, to_time, weight, segment_state) for every arc."""
        out = []
        n = self.n_vertices
        for k in range(n):
            for l in range(k + 1, n):
                if math.isfinite(self.weight[k, l]):
                    out.append(
                        (
                            float(self.times[k]),
                            float(self.times[l]),
                            float(self.weight[k, l]),
                            int(self.seg_state[k, l]),
                        )
                    )
        return tuple(out)

    def arc_weight(self, from_time: float, to_time: float) -> float:
        k = int(np.searchsorted(self.times, from_time))
        l = int(np.searchsorted(self.times, to_time))
        return float(self.weight[k, l])


def _materialize(core: _Core) -> ProjectionGraph:
    size = core.n_vertices
    weight = np.full((size, size), INF)
    seg_state = np.full((size, size), -1, dtype=int)
    for j in range(1, size):
        col = core.column(j)
        weight[:j, j] = col
        for a in np.flatnonzero(np.isfinite(col)):
            seg_state[a, j] = core.arc_state(int(a), j)
    return ProjectionGraph(core.times, weight, seg_state, core.gamma, core.binary)


def build_graph(f: StateSequence, gamma: float, metric: StateMetric = DISCRETE) -> ProjectionGraph:
    """Candidate-jump DAG for a pre-split sequence.

    Internal gaps must stay below the freezing threshold of
    :func:`split_long_events`, ``2*gamma / min(1, d_min)``.  Arc (t_k, t_l)
    exists iff t_l - t_k >= gamma; its weight is the distance contribution
    of labelling [t_k, t_l) with the cheapest state under the metric, plus
    gamma whenever t_l is finite.  Arcs touching a sentinel are
    forced to the corresponding boundary state (anything else would weigh
    infinity and is omitted).
    """
    return _materialize(_Core(f, gamma, metric, binary=False))


def build_graph_binary(f: StateSequence, gamma: float) -> ProjectionGraph:
    """Two-state variant: arcs need t_l - t_k >= 2*gamma and odd index gaps.

    The parity constraint encodes that retained jumps keep their direction,
    which also pins each arc's segment state to the state of f right after
    the arc's start (for sentinel arcs this coincides with the forced
    boundary state).
    """
    return _materialize(_Core(f, gamma, DISCRETE, binary=True))


@dataclass(frozen=True)
class ShortestPath:
    vertices: tuple[float, ...]
    cost: float
    all_optimal: tuple[tuple[float, ...], ...] | None = None


def _tie_tol(value: float) -> float:
    return COST_TOL * max(1.0, abs(value))


def _dp_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distance, parent and jump-count tables with only the source settled."""
    dist = np.full(n, INF)
    dist[0] = 0.0
    return dist, np.full(n, -1, dtype=int), np.zeros(n, dtype=int)


def _first_path(ties: list[int], njumps, parent) -> int:
    """The tied vertex whose path has the fewest jumps, then the earliest jump times.

    Paths with equal jump counts are equally deep, and times increase with
    the vertex index: walk both up in step to a shared parent and compare the
    vertices just below it, at the cost of the distance to that ancestor.
    """
    win = ties[0]
    for k in ties[1:]:
        if njumps[k] != njumps[win]:
            win = k if njumps[k] < njumps[win] else win
            continue
        a, b = k, win
        while parent[a] != parent[b]:
            a, b = parent[a], parent[b]
        win = k if a < b else win
    return win


def _relax(j: int, col: np.ndarray, dist, parent, njumps) -> None:
    """Settle vertex j from its column of incoming arc weights.

    Ties (costs equal up to COST_TOL) break by :func:`_first_path`.  The sink
    (the last vertex) adds no jump; an unreachable vertex stays at +inf.
    """
    cand = np.add(dist[:j], col)
    best = cand.min()
    if not math.isfinite(best):
        return
    k = _first_path(np.flatnonzero(cand <= best + _tie_tol(best)).tolist(), njumps, parent)
    dist[j], parent[j], njumps[j] = float(cand[k]), k, njumps[k] + (j < len(dist) - 1)


def _path(parent, dist) -> tuple[tuple[int, ...], float]:
    """Source-to-sink vertex path through the parent table, and its cost."""
    sink = len(dist) - 1
    if not math.isfinite(dist[sink]):
        raise RuntimeError("sink unreachable; the graph violates its construction invariants")
    path = [sink]
    while path[-1] > 0:
        path.append(int(parent[path[-1]]))
    return tuple(reversed(path)), float(dist[sink])


def _dp(
    times: np.ndarray, column: Callable[[int], np.ndarray], all_optimal: bool
) -> tuple[tuple[int, ...], float, tuple[tuple[int, ...], ...] | None]:
    """Cost-minimal source-to-sink path over lazily provided weight columns.

    The reference solver: every vertex is settled by :func:`_relax` from
    its full column.  Returns vertex index paths; with ``all_optimal``
    every cost-minimal path is enumerated.
    """
    n = len(times)
    dist, parent, njumps = _dp_tables(n)
    columns: list[np.ndarray | None] = [None] * n
    for j in range(1, n):
        col = column(j)
        if all_optimal:
            columns[j] = col
        _relax(j, col, dist, parent, njumps)
    primary_path, cost = _path(parent, dist)

    enumerated: tuple[tuple[int, ...], ...] | None = None
    if all_optimal:
        dmin = np.full(n, INF)
        dmin[0] = 0.0
        for j in range(1, n):
            dmin[j] = (dmin[:j] + columns[j]).min()
        paths: list[tuple[int, ...]] = []

        def backtrack(v: int, suffix: tuple[int, ...]) -> None:
            if v == 0:
                paths.append((0,) + suffix)
                return
            cand = dmin[:v] + columns[v]
            target = dmin[v]
            for k in np.flatnonzero(cand <= target + _tie_tol(target)):
                backtrack(int(k), (v,) + suffix)

        backtrack(n - 1, ())
        paths.sort(key=lambda p: (len(p), tuple(float(times[v]) for v in p)))
        enumerated = tuple(paths)

    return primary_path, cost, enumerated


def shortest_path(graph: ProjectionGraph, all_optimal: bool = False) -> ShortestPath:
    """Cost-minimal source-to-sink path by DP in time order.

    Equal-cost ties resolve to fewer jumps, then lexicographically earliest
    jump times; ``all_optimal`` also enumerates every cost-minimal path.
    """
    path, cost, enumerated = _dp(
        graph.times, lambda j: graph.weight[:j, j], all_optimal=all_optimal
    )

    def to_times(p: tuple[int, ...]) -> tuple[float, ...]:
        return tuple(float(graph.times[v]) for v in p)

    all_paths = tuple(to_times(p) for p in enumerated) if enumerated is not None else None
    return ShortestPath(to_times(path), cost, all_paths)


@dataclass(frozen=True)
class ProjectionResult:
    """Outcome of a projection.

    ``cost`` is the summed shortest-path cost over the processed regions
    (distance inside the subproblem spans plus gamma per retained jump
    there); jumps preserved between two frozen events sit outside every
    span and are not included.  ``optima`` lists every optimal projection
    when requested, the primary ``projected`` among them.
    """

    projected: StateSequence
    cost: float
    subproblem_spans: tuple[tuple[float, float], ...]
    optima: tuple[StateSequence, ...] | None = None

    @property
    def n_subproblems(self) -> int:
        return len(self.subproblem_spans)


def _reassemble(f: StateSequence, subs: tuple[Subproblem, ...], solved: list[StateSequence]) -> StateSequence:
    pairs: list[tuple[float, int]] = []
    pos = 0
    for sub, sol in zip(subs, solved):
        pairs.extend(f.jumps[pos : sub.first_jump])
        pairs.extend(sol.jumps)
        pos = sub.last_jump + 1
    pairs.extend(f.jumps[pos:])
    return StateSequence.from_pairs(f.initial_state, pairs)


def _seq_sort_key(seq: StateSequence):
    return (seq.n_jumps, seq.jump_times, tuple(s for _, s in seq.jumps))


def project(
    f: StateSequence,
    gamma: float,
    metric: StateMetric = DISCRETE,
    *,
    binary: bool = False,
    all_optimal: bool = False,
) -> ProjectionResult:
    """Project f onto the sequences whose finite events last >= gamma.

    gamma = 0 returns f unchanged.  With ``binary`` (two-state input) the
    parity-restricted graph is used and the output minimum duration doubles
    to 2*gamma.  ``all_optimal`` additionally enumerates every optimal
    projection (combinations across independent subproblems included).
    """
    if not (math.isfinite(gamma) and gamma >= 0):
        raise ValueError("gamma must be finite and nonnegative")
    if binary and len(f.states_used) > 2:
        raise ValueError("binary projection requires a two-state sequence")
    if gamma == 0 or f.n_jumps == 0:
        return ProjectionResult(f, 0.0, (), (f,) if all_optimal else None)

    subs = split_long_events(f, gamma, metric)
    if not subs:
        return ProjectionResult(f, 0.0, (), (f,) if all_optimal else None)

    states = f.states_used
    universe = (states, metric.matrix(states).tolist())
    solved: list[StateSequence] = []
    per_sub_optima: list[list[StateSequence]] = []
    total = 0.0
    for sub in subs:
        core = _Core(sub.sequence, gamma, metric, binary, universe)
        if all_optimal:
            path, cost, enumerated = _dp(core.times, core.column, all_optimal=True)
        else:
            path, cost = core.solve_primary()
            enumerated = None
        solved.append(core.path_to_sequence(path))
        total += cost
        if all_optimal:
            seen: dict[tuple, StateSequence] = {}
            for p in enumerated or ():
                seq = core.path_to_sequence(p)
                seen.setdefault((seq.initial_state, seq.jumps), seq)
            per_sub_optima.append(sorted(seen.values(), key=_seq_sort_key))

    projected = _reassemble(f, subs, solved)
    spans = tuple(sub.span for sub in subs)

    optima: tuple[StateSequence, ...] | None = None
    if all_optimal:
        combos: dict[tuple, StateSequence] = {}
        for choice in itertools.product(*per_sub_optima):
            seq = _reassemble(f, subs, list(choice))
            combos.setdefault((seq.initial_state, seq.jumps), seq)
        optima = tuple(sorted(combos.values(), key=_seq_sort_key))

    return ProjectionResult(projected, total, spans, optima)


def project_labels(
    labels: Labels,
    gamma: float,
    metric: StateMetric = DISCRETE,
    *,
    binary: bool = False,
    all_optimal: bool = False,
) -> tuple[Labels, ProjectionResult]:
    """Project finite-horizon labels, keeping the recording edges anchored."""
    result = project(labels.to_anchored(), gamma, metric, binary=binary, all_optimal=all_optimal)
    out = Labels.from_anchored(result.projected, labels.horizon, labels.n_states)
    return out, result

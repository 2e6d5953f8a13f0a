"""Optimal elimination of short events by shortest-path projection.

A sequence is replaced by the minimizer of (integral distance to it) plus a
per-jump penalty ``gamma``; every finite event of the minimizer then lasts at
least ``gamma`` (``2*gamma`` for two-state sequences).  The minimizer is found
exactly: events long enough to survive some optimal solution are frozen, the
stretches between them become independent subproblems, and each subproblem is
solved as a shortest source-to-sink path in a weighted DAG over candidate
jump times.  Weight columns are computed lazily from occupancy prefix sums,
so solving never materializes the quadratic arc matrix; :func:`build_graph`
materializes it on demand for inspection and enumeration.
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
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
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


def split_long_events(f: StateSequence, gamma: float, binary: bool = False) -> tuple[Subproblem, ...]:
    """Freeze events no optimal solution needs to remove and split between them.

    An event at least ``2*gamma`` long is kept verbatim in some optimal
    projection, as are the two unbounded boundary events; each maximal run
    of shorter events in between forms one independent subproblem.  The
    threshold is ``2*gamma`` for two-state sequences as well: freezing at
    ``gamma`` looks tempting there but is unsound, since keeping an event of
    length in (gamma, 2*gamma) pins two retained jumps closer than the
    binary minimum gap, and removing such an event can be strictly optimal.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    threshold = 2.0 * gamma
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
    order), k+1 (sink, +inf).  ``column(j)`` returns the arc weights from
    every earlier vertex into j, computed from occupancy prefix sums; absent
    arcs are +inf.
    """

    def __init__(self, f: StateSequence, gamma: float, metric: StateMetric, binary: bool):
        n = f.n_jumps
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        if n < 2:
            raise ValueError("graph construction needs at least 2 jumps")
        states = list(f.states_used)
        if binary and len(states) != 2:
            raise ValueError("binary graph requires a two-state sequence")
        comp = {s: i for i, s in enumerate(states)}
        m = len(states)

        t = np.array(f.jump_times)
        svec = np.array([comp[f.initial_state]] + [comp[s] for _, s in f.jumps])
        internal = np.diff(t)
        if internal.size and internal.max() > 2.0 * gamma + GAP_TOL:
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
        kept = [i for i in range(1, n + 1) if i not in drop]

        self.gamma = gamma
        self.binary = binary
        self.discrete = isinstance(metric, DiscreteMetric)
        self.states = states
        self.dmat = metric.matrix(states)
        self.n = n
        self.kidx = np.array(kept)
        self.ktimes = t[self.kidx - 1]
        self.k = len(kept)
        self.pref_k = pref[:, self.kidx]
        self.pref_end = pref[:, n]
        self.c0 = int(svec[0])
        self.cn = int(svec[n])
        self.skept = svec[self.kidx]  # state right after each candidate jump
        self.min_gap = (2.0 * gamma if binary else gamma) - GAP_TOL
        self.times = np.concatenate(([-INF], self.ktimes, [INF]))

        # Forced-state arcs touching the sentinels; in the binary graph only
        # odd jump indices connect to the source and only those of the
        # sink's parity to the sink.
        self.w_source = self.dmat[self.c0] @ self.pref_k + gamma
        self.w_sink = self.dmat[self.cn] @ (self.pref_end[:, None] - self.pref_k)
        if binary:
            self.w_source[self.kidx % 2 == 0] = INF
            self.w_sink[(n + 1 - self.kidx) % 2 == 0] = INF
        self.direct_ok = (n + 1) % 2 == 1 if binary else self.c0 == self.cn
        self.w_direct = float(self.dmat[self.c0] @ self.pref_end) if self.direct_ok else INF
        # qmat[c, i] = sum_x d(c, x) * occupancy of x in [t_1, kept time i);
        # binary arc weights are differences of its entries.
        self.qmat = self.dmat @ self.pref_k

    @property
    def n_vertices(self) -> int:
        return self.k + 2

    def _finite_weights(self, j: int, p: int) -> np.ndarray:
        """Weights from finite vertices 1..p into finite vertex j (1-based)."""
        if self.binary:
            rows = self.skept[:p]
            w = self.qmat[rows, j - 1] - self.qmat[rows, np.arange(p)]
        elif self.discrete:
            occ = self.pref_k[:, j - 1 : j] - self.pref_k[:, :p]
            w = (self.ktimes[j - 1] - self.ktimes[:p]) - occ.max(axis=0)
        else:
            occ = self.pref_k[:, j - 1 : j] - self.pref_k[:, :p]
            smc = occ.argmax(axis=0)
            w = np.einsum("km,mk->k", self.dmat[smc], occ)
        return w + self.gamma

    def column(self, j: int) -> np.ndarray:
        """Arc weights from every vertex below j into vertex j; +inf if absent."""
        out = np.full(j, INF)
        if j <= self.k:
            out[0] = self.w_source[j - 1]
            p = int(np.searchsorted(self.ktimes[: j - 1], self.ktimes[j - 1] - self.min_gap, side="right"))
            if p:
                w = self._finite_weights(j, p)
                if self.binary:
                    w = np.where((self.kidx[j - 1] - self.kidx[:p]) % 2 == 1, w, INF)
                out[1 : p + 1] = w
        else:
            out[0] = self.w_direct
            out[1:] = self.w_sink
        return out

    def arc_state(self, a: int, b: int) -> int:
        """Segment state carried by the arc between vertices a < b."""
        if a == 0:
            return self.states[self.c0]
        if self.binary:
            return self.states[int(self.skept[a - 1])]
        if b == self.k + 1:
            return self.states[self.cn]
        occ = self.pref_k[:, b - 1] - self.pref_k[:, a - 1]
        return self.states[int(occ.argmax())]

    def _weight_single(self, j: int, k: int) -> float:
        """Exact arc weight from finite vertex k into finite vertex j.

        Evaluates the same elementwise expression as :meth:`_finite_weights`
        so results are bitwise identical to the reference columns.
        """
        if self.binary:
            s = self.skept[k - 1]
            w = self.qmat[s, j - 1] - self.qmat[s, k - 1]
        else:
            occ = self.pref_k[:, j - 1] - self.pref_k[:, k - 1]
            w = (self.ktimes[j - 1] - self.ktimes[k - 1]) - occ.max()
        return float(w) + self.gamma

    def _class_terms(self) -> tuple[list[list[float]], list[list[float]]]:
        """Per-class arc terms: arc k -> j of class c weighs admit[c][k-1] + enter[c][j-1].

        For the discrete metric a class is the arc's segment state c, and
        the weight is (occ_c[k] - t_k) + (gamma + t_j - occ_c[j]).  In the
        binary graph a class is the predecessor's index parity, whose
        segment state is fixed because states alternate; the weight is
        qmat[s, j] - qmat[s, k] + gamma, allowed only when j has the other
        parity.  +inf marks a vertex outside a class.
        """
        if not self.binary:
            enter = self.gamma + self.ktimes - self.pref_k
            return (self.pref_k - self.ktimes).tolist(), enter.tolist()
        parity = self.kidx % 2
        admit, enter = [], []
        for c in (0, 1):
            q = self.qmat[self.c0 ^ c]
            admit.append(np.where(parity == c, -q, INF).tolist())
            enter.append(np.where(parity != c, q + self.gamma, INF).tolist())
        return admit, enter

    def solve_primary(self) -> tuple[tuple[int, ...], float]:
        """Single best path in O(vertices * classes) via running minima.

        Every arc weight decomposes into a predecessor term and a column
        term per class (see :meth:`_class_terms`), so a running minimum
        (plus runner-up for safety) per class of dist[k] + admit[c][k]
        over the feasible prefix yields each column's winner in O(classes).
        The winner's cost is recomputed with the exact reference arc
        expression, and whenever the runner-up comes within a safety margin
        the column goes through the reference relaxation step
        :func:`_relax` instead, as does the sink, so results match the
        reference DP bit for bit including tie-breaking.  Metrics other
        than the discrete one take the reference path.
        """
        if not (self.discrete or self.binary):
            path, cost, _ = _dp(self.times, self.column, all_optimal=False)
            return path, cost

        margin = 1e-9
        kk = self.k
        dist, parent, njumps = _dp_tables(kk + 2)
        ktimes = self.ktimes.tolist()
        w_source = self.w_source.tolist()
        admit, enter = self._class_terms()
        classes = range(len(admit))
        best1 = [INF] * len(classes)
        best1_k = [-1] * len(classes)
        best2 = [INF] * len(classes)
        admitted = 0

        for j in range(1, kk + 1):
            bound = ktimes[j - 1] - self.min_gap
            while admitted < kk and ktimes[admitted] <= bound:
                d = float(dist[admitted + 1])
                for c in classes:
                    v = d + admit[c][admitted]
                    if v < best1[c]:
                        best2[c] = best1[c]
                        best1[c] = v
                        best1_k[c] = admitted + 1
                    elif v < best2[c]:
                        best2[c] = v
                admitted += 1

            best_val, best_cls = INF, -1
            runner = INF
            for c in classes:
                term = enter[c][j - 1]
                v1 = best1[c] + term
                if v1 < best_val:
                    runner = min(runner, best_val)
                    best_val, best_cls = v1, c
                else:
                    runner = min(runner, v1)
                v2 = best2[c] + term
                if v2 < runner:
                    runner = v2

            # Runner-up must also consider a different vertex winning via
            # another class with the same value.
            if best_cls >= 0:
                for c in classes:
                    if c != best_cls and best1_k[c] != best1_k[best_cls]:
                        runner = min(runner, best1[c] + enter[c][j - 1])

            cand_src = w_source[j - 1]
            contenders = sorted(v for v in (best_val, cand_src, runner) if math.isfinite(v))
            if not contenders:
                continue
            scale = max(1.0, abs(contenders[0]))
            if len(contenders) > 1 and contenders[1] - contenders[0] <= margin * scale:
                _relax(j, self.column(j), dist, parent, njumps, self.times)
                continue
            if cand_src < best_val:
                dist[j] = cand_src
                parent[j] = 0
                njumps[j] = 1
            else:
                k = best1_k[best_cls]
                dist[j] = dist[k] + self._weight_single(j, k)
                parent[j] = k
                njumps[j] = njumps[k] + 1

        _relax(kk + 1, self.column(kk + 1), dist, parent, njumps, self.times)
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
    """Candidate-jump DAG for a pre-split sequence (internal gaps < 2*gamma).

    Arc (t_k, t_l) exists iff t_l - t_k >= gamma; its weight is the distance
    contribution of labelling [t_k, t_l) with the most common state of f
    there, plus gamma whenever t_l is finite.  Arcs touching a sentinel are
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


def _path_times(v: int, parent: np.ndarray, times: np.ndarray) -> tuple[float, ...]:
    """Jump times along the settled path from the source to vertex v."""
    out: list[float] = []
    while v > 0:
        out.append(float(times[v]))
        v = int(parent[v])
    return tuple(reversed(out))


def _relax(
    j: int, col: np.ndarray, dist: np.ndarray, parent: np.ndarray, njumps: np.ndarray, times: np.ndarray
) -> None:
    """Settle vertex j from its column of incoming arc weights.

    Ties (costs equal up to float noise) break deterministically: fewer
    jumps first, then lexicographically earliest jump times.  The sink
    (the last vertex) adds no jump; an unreachable vertex stays at +inf.
    """
    cand = dist[:j] + col
    best = cand.min()
    if not math.isfinite(best):
        return
    ties = np.flatnonzero(cand <= best + _tie_tol(best))
    if len(ties) == 1:
        k = int(ties[0])
    else:
        k = int(min(ties, key=lambda i: (njumps[i], _path_times(int(i), parent, times))))
    dist[j] = cand[k]
    parent[j] = k
    njumps[j] = njumps[k] + (1 if j < len(dist) - 1 else 0)


def _path(parent: np.ndarray, dist: np.ndarray) -> tuple[tuple[int, ...], float]:
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
        _relax(j, col, dist, parent, njumps, times)
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

    subs = split_long_events(f, gamma, binary)
    if not subs:
        return ProjectionResult(f, 0.0, (), (f,) if all_optimal else None)

    solved: list[StateSequence] = []
    per_sub_optima: list[list[StateSequence]] = []
    total = 0.0
    for sub in subs:
        core = _Core(sub.sequence, gamma, metric, binary)
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

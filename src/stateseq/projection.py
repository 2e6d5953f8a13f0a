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
time, and its record of tied predecessors lists every optimal path;
:func:`build_graph` materializes the quadratic arc matrix for inspection.

Before the sweep, the Potts recurrence (the same energy without the minimum
duration) runs forward and backward over f's events, as a chunked (min,+)
scan over all subproblems of similar length at once.  Its values bound from
below every path through each vertex, and its optimum bounds the
projection's optimal cost under every metric.  The sweep settles only the
vertices whose bound lies within a derived rounding margin of that optimum,
and checks the path it finds against it: a path that costs too much more
than the bound proves nothing, and a second round prunes against the path
instead, which is exact.  On a one-hour fine-noise recording (40,149 jumps)
the first round keeps 419 of 40,145 candidate vertices at gamma 0.5, 329 at
gamma 2.0 and 3,936 of 34,737 at gamma 0.1 under the discrete metric, and
418 and 448 of 40,149 at gamma 0.5 under 3-state line and star metrics,
whose distances reach 2; no second round runs there.  The answer is the
unpruned solver's, bit for bit.

One pass serves many inputs (:func:`project_many`; :func:`project` is the
pass over one): the subproblems of all inputs over the same states share
their table builds, as padded rows in runs of similar length.  Each input
gets the projection, cost and optima a pass over it alone gives; only the
bound's rounding depends on the padded width, so a vertex whose bound lies
within rounding of the cap may be kept in one batch and pruned in another,
which moves ``candidates_kept`` but no answer.  A subproblem whose bound keeps
at most ``BULK_VERTICES`` vertices, in either round, skips the sweep: one DP over
the kept vertices settles all such rows of a run at once, column by column, ties
included, unless all optima are asked for and two of its paths tie.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import add
from typing import Callable, NamedTuple

import numpy as np

from .sequence import (
    COST_TOL,
    DISCRETE,
    INF,
    TIME_MERGE_TOL,
    DiscreteMetric,
    Labels,
    StateMetric,
    StateSequence,
    _unchecked,
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
    event can be strictly optimal.  One ``np.diff`` of the jump times gives all event lengths.
    """
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    threshold = _freeze_threshold(gamma, metric.matrix(f.states_used).tolist())
    short = np.diff(np.array(f.jump_times)) < threshold - GAP_TOL
    # Interior event i (1-based) is short[i - 1]; a run of them from i to j
    # covers f.jumps[i - 1 : j + 1].
    edges = np.flatnonzero(np.diff(np.concatenate(([False], short, [False])))).tolist()
    return tuple(Subproblem(f._slice(a, b + 1), a, b) for a, b in zip(edges[0::2], edges[1::2]))


def _label_set(own: tuple[bool, ...], d: list[list[float]], labels) -> tuple:
    """Mask, positions, states and largest distance of the labels kept for one set of own states:
    those and each state c that no own state s dominates (d(s, x) <= d(c, x) for every own x).
    """
    mine = [x for x, is_own in enumerate(own) if is_own]
    keep = [c for c, is_own in enumerate(own) if is_own or not any(all(d[o][x] <= d[c][x] for x in mine) for o in mine)]
    index = {c: i for i, c in enumerate(keep)}
    mask = np.array([c in index for c in range(len(own))])
    return mask, index, [labels[c] for c in keep], max(d[a][b] for a in keep for b in keep)


# Jumps a run of several spans may pad to: bounds the temporaries of one build.
RUN_JUMPS = 8192


def _length_classes(n: list[int]) -> list[list[int]]:
    """Span indices by length, in runs that pad to their longest span without doubling their
    jumps or, unless the run is one span, passing ``RUN_JUMPS`` padded jumps.  A span longer
    than half of ``RUN_JUMPS`` thus always gets a run of its own."""
    runs: list[list[int]] = []
    total = 0
    for s in sorted(range(len(n)), key=n.__getitem__):
        if runs and (len(runs[-1]) + 1) * n[s] <= min(RUN_JUMPS, 2 * (total + n[s])):
            runs[-1].append(s)
            total += n[s]
        else:
            runs.append([s])
            total = n[s]
    return runs


def _dot(coef: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Sum of coef[..., x] * vals[:, x] over the labels x, added up in label order."""
    out = coef[..., 0, None] * vals[:, 0]
    for x in range(1, vals.shape[1]):
        out = out + coef[..., x, None] * vals[:, x]
    return out


def _potts_scan(start: np.ndarray, cost: np.ndarray, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """The Potts recurrence over K events, every row at once.

    ``start`` (rows x labels) holds the values before event 0 and ``cost``
    (rows x K x labels) each event's cost under each label; a step lets the
    label change for gamma, then pays the event: x <- min(x, min x + gamma)
    + cost[:, i].  Returns the least value over the labels before each event
    and after the last (rows x K + 1), and the values after the K events and
    one more free step, which allows a last label change (rows x labels).
    The steps run as a chunked (min,+) scan with chunks of isqrt(K) events:
    each chunk's transfer matrix (the steps applied to the unit vectors at
    once), the chunk-start values one chunk after another, then the values
    inside all chunks at once, about 3 sqrt(K) numpy steps.
    """
    rows, k, labels = cost.shape
    size = max(1, math.isqrt(k))
    chunks = k // size + 1  # free padding events past the end, at least one
    # Labels lead and rows x chunks come last, so each step works on long runs.
    steps, full = np.zeros((size, labels, rows, chunks)), k // size
    view = steps.transpose(2, 3, 0, 1)  # rows x chunks x size x labels
    view[:, :full] = cost[:, : full * size].reshape(rows, full, size, labels)
    view[:, full, : k - full * size] = cost[:, full * size :]
    # The steps update in place, so no step allocates a full-size temporary.
    m = np.empty((labels, labels, rows, chunks))  # m[a, c]: from label a to c
    m[...] = np.where(np.eye(labels, dtype=bool)[:, :, None, None], 0.0, INF)
    low = np.empty((labels, 1, rows, chunks))
    for s in range(size):
        m.min(axis=1, keepdims=True, out=low)
        low += gamma
        np.minimum(m, low, out=m)
        m += steps[s]
    x, heads = start.T, np.empty((labels, rows, chunks))
    for q in range(chunks):
        heads[:, :, q] = x
        x = (x[:, None] + m[:, :, :, q]).min(axis=0)
    x, low = heads, np.empty((size, rows, chunks))
    for s in range(size):
        x.min(axis=0, out=low[s])
        np.minimum(x, low[s] + gamma, out=x)
        x += steps[s]
    return low.transpose(1, 2, 0).reshape(rows, -1)[:, : k + 1], x[:, :, -1].T


def _block(times, ev, first, n, dist, gamma: float, binary: bool, metric: StateMetric) -> dict:
    """Arc tables of the spans of ``n`` jumps from jump ``first`` on, one padded row each.

    Each entry gets the bits a build of its span alone gives it: the occupancy
    cumsum runs along each row, and label sums go through :func:`_dot`.  The
    Potts bounds (``lb``, ``potts``) come from one scan over all rows, both
    ways at once, whose rounding depends on the padded width.  Padding
    columns get no time or source arc, and a NaN bound, which no cap keeps.
    """
    rows, size, label = np.arange(len(n)), int(n.max()), np.arange(len(dist))[:, None]
    col = np.arange(size + 1)
    sv = ev[first[:, None] + np.minimum(col, n[:, None])]  # f's states s_0..s_n, padded by s_n
    t = times[first[:, None] + np.minimum(col[:-1], n[:, None] - 1)]  # padded by t_n: zero gaps
    # Potts recurrence over f's events, forward from s_0 and backward from
    # s_n; padding events are free and carry s_n, so a row's bounds are
    # those of its own jumps.  lb[:, i] bounds every solution jumping at
    # t_{i+1}.  potts, the forward value at s_n once a free step has allowed
    # a last jump, is the Potts optimum, a lower bound on the optimal cost
    # under every metric (see _Core.solve_primary).
    c0, cn = sv[:, 0], sv[rows, n]
    cost = np.diff(t)[:, :, None] * dist.T[sv[:, 1:-1]]
    cost = np.concatenate((cost, cost[:, ::-1]))  # one scan for both ways
    low, end = _potts_scan(np.where(np.concatenate((c0, cn))[:, None] == label.T, 0.0, INF), cost, gamma)
    lb, potts = low[: len(n)] + gamma + low[len(n) :, ::-1], end[rows, cn]
    del cost, low  # before the tables below

    # Occupancy of each label within [t_1, t_i), column i = 1..n.
    pref = np.zeros((len(n), len(dist), size + 1))
    pref[:, :, 2:] = np.cumsum(np.where(sv[:, None, 1:-1] == label, np.diff(t)[:, None], 0.0), axis=2)

    # Candidate jump vertices.  The second (second-to-last) jump can be
    # dropped when the gap to its neighbour is at most gamma: a solution
    # jumping there can shift that jump onto the neighbour at no extra
    # cost under the discrete metric.  For wider gaps, keeping both
    # boundary jumps of an event can be uniquely optimal.
    k, tk, pref_k = n, t, pref[:, :, 1:]
    if not binary and isinstance(metric, DiscreteMetric):
        last = t[rows, n - 1] - t[rows, n - 2] <= gamma + GAP_TOL
        second = (n > 2) & ((t[:, 1] - t[:, 0] <= gamma + GAP_TOL) | (n == 3) & last)
        last &= n > 3  # with n == 3 the second-to-last jump is the second
        j = col[:-1]  # the kept vertex j + 1 sits at column kcol[j]; 1 + keeps the sum integer
        shift = 1 + second[:, None] * (j >= 1) + last[:, None] * (j >= (n - 2 - second)[:, None])
        k, kcol = n - second - last, np.minimum(j + shift, size)
        tk, pref_k = t[rows[:, None], kcol - 1], pref[rows[:, None, None], label, kcol[:, None]]
        lb = lb[rows[:, None], kcol - 1]
    # Under the discrete metric 1 - d is the identity, and the sums are exact.
    score = pref_k if isinstance(metric, DiscreteMetric) else np.stack([_dot(1.0 - d, pref_k) for d in dist], 1)
    admit = enter = score
    if binary:
        after = sv[:, None, 1:] == label
        admit, enter = np.where(after, score, INF), np.where(after, -INF, score)

    # Arcs touching a sentinel carry its boundary state; the direct
    # source-to-sink arc exists iff both boundary states agree, and weighs
    # what the sink arc from vertex 1 (occupancy 0) does before masking.
    sink, cand = _dot(dist[cn], pref[rows, :, n][:, :, None] - pref_k), col[1:] <= k[:, None]
    return dict(
        own=(sv[:, None] == label).any(axis=2).tolist(), k=k.tolist(), c0=c0.tolist(), cn=cn.tolist(),
        n=n.tolist(), lb=np.where(cand, lb, np.nan), potts=potts.tolist(),
        times=np.pad(np.where(cand, tk, INF), ((0, 0), (1, 1)), constant_values=(-INF, INF)),
        enter=enter, admit=admit, w_sink=np.where(admit[rows, cn] < INF, sink, INF),
        w_source=np.where(cand & (enter[rows, c0] > -INF), _dot(dist[c0], pref_k) + gamma, INF),
        w_direct=np.where(c0 == cn, sink[:, 0], INF),
    )


def _caps(block: dict, d_max: list[float], gamma: float) -> None:
    """Add each row's bucket slack M, pruning margin, round-1 acceptance bound and kept-vertex mask to ``block``.

    Row by row the bits of the scalar formulas in :meth:`_Core.solve_primary`'s
    docstring: M = 2 COST_TOL max(1, B), the margin (n + 2) M, the round-1
    cap U + (n + 2) M and the acceptance bound U + (n + 2) M / 4.
    """
    k, t, potts = np.array(block["k"]), block["times"], np.array(block["potts"])
    t0, tk = t[:, 1], t[np.arange(len(k)), k]
    bound = 2 * np.maximum(-t0, tk) + 4 * (tk - t0) * np.maximum(1.0, d_max) + gamma * (k + 2)
    slack = 2 * COST_TOL * np.maximum(1.0, bound)
    margin = (np.array(block["n"]) + 2) * slack
    block["kept"] = block["lb"] <= (potts + margin)[:, None]
    block["slack"], block["margin"], block["accept"] = slack.tolist(), margin, potts + margin / 4


def _round_two(cost, lb, margin, w_direct, w_source, w_sink) -> np.ndarray:
    """The second round's kept mask of :meth:`_Core.solve_primary`, rows on the last axis: lb <= ub + margin,
    ub the least of the ``cost`` of the path found, ``w_direct`` and w_source[j] + w_sink[j] over j."""
    return lb <= (np.minimum(np.minimum(cost, w_direct), (w_source + w_sink).min(axis=-1)) + margin)[..., None]


def _cores(fs, spans, gamma: float, metric: StateMetric, binary: bool, labels=None, settle=False, all_optimal=False):
    """(index, :class:`_Core`) for each jump span of each input, from one table build per run.

    ``spans[i]`` lists the spans (first, last) of ``fs[i]``; a core's index is
    its place in those lists laid end to end.  The inputs' jump times and
    label rows are joined the same way, so one :func:`_block` build serves
    rows of many inputs.  The sorted ``labels`` (default: the inputs' states)
    are filtered by :func:`_label_set` once per distinct set of own states.
    :func:`_block` builds each run of :func:`_length_classes` when its first
    core is asked for.  With ``settle``, the rows :func:`_bulk` answers come
    as their :class:`_Settled` answers instead; under ``all_optimal`` a row
    with a tie stays a core, for the solver's record of its ties.
    """
    labels = tuple(sorted(set().union(*(f.states_used for f in fs)))) if labels is None else labels
    dist, sets = metric.matrix(labels), {}
    d = dist.tolist()
    # Each input's states, and its times with one unused last entry, so both share positions.
    states = itertools.chain.from_iterable((f.initial_state, *f._states) for f in fs)
    ev = np.searchsorted(np.array(labels), np.fromiter(states, np.int64))  # label row of each event
    times = np.fromiter(itertools.chain.from_iterable(f.jump_times + (INF,) for f in fs), float)
    base = itertools.accumulate((f.n_jumps + 1 for f in fs), initial=0)
    offset = [(a + o, b + o) for o, own in zip(base, spans) for a, b in own]
    first, last = np.array(offset, dtype=np.int64).reshape(-1, 2).T
    n = last - first + 1
    for group in _length_classes(n.tolist()):
        block = _block(times, ev, first[group], n[group], dist, gamma, binary, metric)
        owns = [sets.get(o) or sets.setdefault(o, _label_set(o, d, labels)) for o in map(tuple, block.pop("own"))]
        _caps(block, [own[3] for own in owns], gamma)
        settled = _bulk(block, owns, labels, gamma, binary, all_optimal) if settle else {}
        for r, s in enumerate(group):
            yield s, settled[r] if r in settled else _Core(block, r, owns[r], gamma, binary)
        del block, settled  # before the next run's build


class _Settled(NamedTuple):
    """A subproblem's answer: its candidate and kept vertex counts, cost, primary and sorted optima."""

    candidates: int
    kept: int
    cost: float
    primary: StateSequence
    optima: tuple[StateSequence, ...] | None


# Rows keeping at most this many vertices go to :func:`_bulk`; its int64 keys hold (w + 2) << w up to 57.
BULK_VERTICES = 32


def _bulk(block: dict, owns: list, labels, gamma: float, binary: bool, all_optimal: bool, todo=True) -> dict:
    """:meth:`_Core.settle`'s answers, bit for bit, for the rows of ``block`` in ``todo`` (a row mask; default
    all) that keep at most ``BULK_VERTICES`` vertices: the DP over their kept vertices, column by column, all
    rows at once.

    Its arcs are :meth:`_Core.column`'s: k -> j is admitted when t_k <= t_j - min_gap and costed as in
    :meth:`_Core._weight_single`.  Each vertex chooses as :func:`_choose` does: the candidates within
    ``_tie_tol`` of the least cost tie, fewer jumps win, then the earlier path, which holds the lowest vertex
    of the two paths' symmetric difference (:func:`_first_path`): its mask, earlier vertices in higher bits,
    is larger.  A row whose cost fails the round-1 test of :meth:`_Core.solve_primary` has its kept set and
    test replaced by the second round's, as the solver replaces them, and takes one more pass if it still
    keeps at most ``BULK_VERTICES`` vertices: a call whose ``todo`` holds the rows whose test is now +inf,
    as no round-1 test is (the Potts optimum is finite).  Left to the solver are all rows when min_gap <= 0
    (it then admits no kept vertex), the rows that keep more, rows whose cost is not finite, and under
    ``all_optimal`` tied rows.
    """
    min_gap = (2.0 * gamma if binary else gamma) - GAP_TOL
    count = block["kept"].sum(axis=1)
    rows = np.flatnonzero(todo & (count <= BULK_VERTICES)) if min_gap > 0 else np.arange(0)
    rows = rows[np.argsort(-count[rows], kind="stable")]  # so the rows that keep vertex j come first
    count, at, ar, w = count[rows], rows[:, None], np.arange(len(rows)), int(count[rows].max(initial=0))
    valid, reach = np.arange(w) < count[:, None], np.searchsorted(-count, -np.arange(w + 2), side="right").tolist()
    col = np.where(valid, np.argsort(~block["kept"][rows], axis=1, kind="stable")[:, :w], 0)  # of kept vertex p + 1
    t, m = block["times"][at, col + 1], int((count > 1).sum())  # rows from m on have no arc between kept vertices
    cell = (at[:m, :, None], np.arange(len(labels))[:, None], col[:m, None])  # gain[:, c, k, j] for label c, k -> j
    own = np.array([owns[r][0] for r in rows.tolist()], bool).reshape(len(rows), len(labels))
    gain = block["enter"][cell][:, :, None, :] - block["admit"][cell][:, :, :, None]
    np.copyto(gain, -INF, where=~own[:m, :, None, None])
    admitted = valid[:m, :, None] & valid[:m, None] & (t[:m, :, None] <= t[:m, None, :] - min_gap)
    # Vertex 0 is the source, p + 1 kept vertex p and w + 1 the sink; weight[:, a, b] is arc a -> b.
    weight = np.full((len(rows), w + 2, w + 2), INF)
    arcs = np.subtract((t[:m, None, :] - t[:m, :, None])[:, None], gain, out=gain)  # (t_j - t_k) - gain, in place
    weight[:m, 1:-1, 1:-1] = np.where(admitted, arcs.min(axis=1) + gamma, INF)
    weight[:, 0, 1:-1] = np.where(valid, block["w_source"][at, col], INF)
    weight[:, 1:-1, -1] = np.where(valid, block["w_sink"][at, col], INF)
    weight[:, 0, -1] = block["w_direct"][rows]
    # A vertex's key ranks its path as _choose does: (w + 2 - jumps) << w, plus its mask.
    dist, key, tie = np.full((len(rows), w + 2), INF), np.zeros((len(rows), w + 2), np.int64), np.zeros(len(rows), bool)
    dist[:, 0], key[:, 0] = 0.0, (w + 2) << w
    for j, live in enumerate(reach[1:-1] + [len(rows)], 1):  # vertex j, for the rows that keep it, then the sink
        cost = dist[:live, :j] + weight[:live, :j, j]
        low = cost.min(axis=1)
        tied = cost <= (low + COST_TOL * np.maximum(1.0, np.abs(low)))[:, None]
        pick = np.where(tied, key[:live, :j], -1).argmax(axis=1)
        if all_optimal:
            tie[:live] |= (low < INF) & (tied.sum(axis=1) > 1)
        dist[:live, j], key[:live, j] = cost[ar[:live], pick], key[ar[:live], pick] + ((1 << max(w - j, 0)) - (1 << w))
    ok = np.isfinite(dist[:, -1]) & (dist[:, -1] <= block["accept"][rows]) & ~tie
    # The mask of the sink's parent holds the primary's vertices.  Each jumps to the state
    # of the arc to the next, the first label of its largest gain as :meth:`_Core.arc_state`
    # takes it, and the last to the sink's; from_pairs merges nothing in a row marked clean.
    r, p = np.nonzero(key[ar, pick][:, None] >> np.arange(w - 1, -1, -1) & 1)
    last, c0 = np.append(r[1:] != r[:-1], True), np.array(block["c0"])[rows]
    gain = block["enter"][rows[r], :, col[r, np.append(p[1:], 0)]] - block["admit"][rows[r], :, col[r, p]]
    state = np.where(last, np.array(block["cn"])[rows][r], np.where(own[r], gain, -INF).argmax(axis=1))
    close = ~(np.diff(t[r, p], prepend=-INF) >= TIME_MERGE_TOL) | (state == np.append(-1, state[:-1]))
    clean = np.bincount(r[np.where(np.append(True, last[:-1]), state == c0[r], close)], minlength=len(rows)) == 0
    ts, ss, c0 = t[r, p].tolist(), np.array(labels)[state].tolist(), np.array(labels)[c0].tolist()
    out, ends = {}, np.searchsorted(r, ar, side="right").tolist()
    fields = zip(rows.tolist(), count.tolist(), dist[:, -1].tolist(), [0, *ends], ends, c0, clean.tolist())
    for row, n, x, a, b, s0, fine in itertools.compress(fields, ok):
        primary = (_unchecked(StateSequence, initial_state=s0, _times=tuple(ts[a:b]), _states=tuple(ss[a:b])) if fine
                   else StateSequence._from_columns(s0, ts[a:b], ss[a:b]))
        out[row] = _Settled(block["k"][row], n, x, primary, (primary,) if all_optimal else None)
    fail = dist[:, -1] > block["accept"][rows]  # round 1 failed: take round 2's kept set and test
    redo, tables = rows[fail], (block[name][rows[fail]] for name in ("lb", "margin", "w_direct", "w_source", "w_sink"))
    block["kept"][redo], block["accept"][redo] = _round_two(dist[fail, -1], *tables), INF
    return out | _bulk(block, owns, labels, gamma, binary, all_optimal, block["accept"] == INF) if fail.any() else out


class _Core:
    """One subproblem's view of the weight tables, shared by the solver and the graph.

    Vertices are indexed 0 (source, -inf), 1..k (candidate jump times in
    order), k+1 (sink, +inf).  Every finite arc weight comes from one table,
    ``score[c, i]``: the occupancy of each state x of f in [t_1, kept time
    i), weighted by 1 - d(c, x).  An arc k -> j labelled c therefore costs
    (t_j - t_k) - (score[c, j] - score[c, k]), the integral of d(c, f) over
    the arc, plus gamma; it takes the cheapest label under the metric.
    ``enter`` / ``admit`` are the table with -inf / +inf where label c may
    not end at j / start at k: in the binary graph c must be f's state right
    after k, and the jump at j must leave c.  ``column(j)`` returns the arc
    weights from every earlier vertex into j; absent arcs are +inf.  The
    tables of a whole projection pass are built at once (:func:`_cores`); a
    core slices its row and the rows of its labels (:func:`_label_set`) out of them.
    ``lb`` holds each vertex's Potts bound, ``potts`` the Potts optimum
    and ``kept`` the vertices whose bound is within ``margin`` of it, or of
    the path found once a second round has run (see :meth:`solve_primary`).
    """

    def __init__(self, block: dict, r: int, label_set: tuple, gamma: float, binary: bool):
        keep, index, self.states, _ = label_set
        self.k = k = block["k"][r]
        self.gamma, self.binary, self.min_gap = gamma, binary, (2.0 * gamma if binary else gamma) - GAP_TOL
        self.c0, self.cn = index[block["c0"][r]], index[block["cn"][r]]
        self.times = block["times"][r, : k + 2]
        self.ktimes = self.times[1:-1]
        self.enter = block["enter"][r, keep, :k]
        self.admit = block["admit"][r, keep, :k] if binary else self.enter
        self.w_source, self.w_sink = block["w_source"][r, :k], block["w_sink"][r, :k]
        self.w_direct = block["w_direct"][r]

        # Plain-float tables for solve_primary, its bucket slack M, margin and round-1 bound (:func:`_caps`).
        self.time_list = self.ktimes.tolist()
        self.enter_rows = self.enter.tolist()
        self.admit_rows = self.admit.tolist() if binary else self.enter_rows
        self.slack, self.margin, self.accept = block["slack"][r], block["margin"][r], block["accept"][r]
        self.lb, self.potts = block["lb"][r, :k], block["potts"][r]
        self.kept = (np.flatnonzero(block["kept"][r]) + 1).tolist()

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
        gain = [enter[b - 1] - admit[a - 1] for enter, admit in zip(self.enter_rows, self.admit_rows)]
        return self.states[gain.index(max(gain))]

    def _weight_single(self, j: int, k: int) -> float:
        """Arc weight from finite vertex k into finite vertex j, bitwise as in :meth:`column`."""
        dt = self.time_list[j - 1] - self.time_list[k - 1]
        return min([dt - (e[j - 1] - a[k - 1]) for e, a in zip(self.enter_rows, self.admit_rows)]) + self.gamma

    def solve_primary(self) -> tuple[list[int], list[float], dict[int, list[int]]]:
        """Parent and distance tables by running minima, and the tie record.

        Arc k -> j labelled c weighs (dist[k] - t_k) + admit[c][k], fixed once k
        is admitted (t_k <= t_j - min_gap), plus (gamma + t_j) - enter[c][j].  Per
        label, a bucket holds each admitted vertex whose first part lies within
        the slack M of the label's running minimum; non-finite values never
        enter, and entries go once the minimum falls by more than M.  Column
        j's candidates are the source arc and the bucket entries within M of
        lo, the least of them; each is costed bitwise as in the reference
        column, via :meth:`_weight_single`, and :func:`_choose` settles j
        from them as the reference DP does.  The sink is settled the same way
        from the source and the kept vertices, whose weights come from
        ``column(k + 1)``.

        M = 2 COST_TOL max(1, B) with B = 2 max|t| + 4 span max(1, d_max) +
        gamma (vertices) suffices: B bounds every intermediate on both sides (a
        path into k costs at most span d_max + gamma per jump), and each side
        takes five roundings of at most u B (u = 2^-53) of the same real sum,
        so the two values of (k, c) differ by at most E = 10 u B.  The least
        reference cost is within 2E of lo, a reference tie k within COST_TOL
        max(1, B) + 4E + u B of lo under its cheapest label c, and its first
        part within 2 u B more of best[c]: k is in c's bucket and a candidate.
        COST_TOL = 1e-12 exceeds that rounding, 23 u, over 300-fold.

        Only the vertices in ``kept`` are admitted and settled; the others
        keep dist = inf and parent = -1.  The argument for M holds on any
        vertex subset, so the sweep is the per-column DP over the kept
        vertices, whose distances can only be higher; hence every vertex of
        every optimal path (any vertex the walk from the sink through tied
        predecessors visits) keeps its parent, distance bits and ties,
        provided it is kept.  Such a vertex v lies on a path whose computed
        cost exceeds the optimum OPT by at most one tie tolerance COST_TOL
        max(1, B) = M / 2 per arc, over at most n + 1 arcs (n the
        subproblem's jumps), and its Potts bound ``lb`` (:func:`_block`)
        bounds that path's cost from below: lb(v) <= OPT + (n + 1) M / 2 + r.
        The rounding r is at most a few u B per arc and per event: a prefix
        difference carries the rounding of the gaps it spans, and the arcs of
        a path span disjoint gaps; each Potts value is a float sum of at most
        2 n nonnegative terms, lb adds two scans and the Potts optimum U is
        one.  With M / 2 > 9000 u B, 2 r < (n + 4) M / 4.

        The kept vertices come from branch and bound (Land & Doig 1960).  The
        Potts optimum U bounds OPT from below under every metric.  Round 1
        keeps the vertices with lb <= U + (n + 2) M and solves; the path found
        costs C >= OPT - r.  If C <= U + (n + 2) M / 4, then lb(v) <= U +
        (n + 2) M / 4 + (n + 1) M / 2 + 2 r < U + (n + 2) M for every v
        above: the margin left after the tie chain, (n + 4) M / 4, covers the
        rounding, v is kept and round 1 is exact.  Otherwise round 2 keeps
        the vertices with lb <= ub + (n + 2) M, ub the least of C,
        ``w_direct`` and w_source[j] + w_sink[j] over j: costs of paths
        that exist even when round 1 cannot reach the sink, so OPT <= ub + r,
        every v is kept and round 2 is exact with no check.  When every
        distance is at most 1, U = OPT (an event of a Potts minimizer shorter
        than gamma, 2 gamma with two states, could be relabelled for at most
        its length to save a jump, the minimizer never jumps against f's
        direction, and the dropped vertices keep an optimum), so round 1
        passes unless tie-breaks along the path found add up to over
        (n + 2) M / 4.
        """
        kk, gamma, slack, min_gap, kept = self.k, self.gamma, self.slack, self.min_gap, self.kept
        dist, parent, njumps = _dp_tables(kk + 2)
        enter, admit = self.enter_rows, self.admit_rows
        labels = range(len(enter))
        best, floor = [INF] * len(enter), [INF] * len(enter)  # floor: best at the last pruning
        buckets: list[list[tuple[float, int]]] = [[] for _ in labels]
        ties: dict[int, list[int]] = {}
        times = [self.time_list[j - 1] for j in kept]
        w_source = self.w_source.tolist()
        p = 0  # position in kept of the next vertex to admit

        for j, tj in zip(kept, times):
            src, lim = w_source[j - 1], tj - min_gap
            while p < len(kept) and times[p] <= lim:
                k = kept[p]
                d = dist[k] - times[p]
                for c, row in enumerate(admit):
                    v = d + row[k - 1]
                    if v < INF and v <= best[c] + slack:
                        if v < best[c]:
                            best[c] = v
                            if v < floor[c] - slack:
                                floor[c] = v
                                buckets[c] = [e for e in buckets[c] if e[0] <= v + slack]
                        buckets[c].append((v, k))
                p += 1

            g = gamma + tj
            terms = [g - row[j - 1] for row in enter]
            tops = list(map(add, best, terms))
            lo = min(src, *tops)
            if lo == INF:
                continue
            cut = lo + slack
            cands = [0] if src <= cut else []
            for c in labels:
                if tops[c] <= cut:
                    e = terms[c]
                    cands += [k for v, k in buckets[c] if v + e <= cut]
            cost = {k: dist[k] + (self._weight_single(j, k) if k else src) for k in cands}
            _choose(j, cost, dist, parent, njumps, ties)

        into = [0, *kept]  # the others stay at +inf and cannot reach the sink
        weights = self.column(kk + 1)[into].tolist()
        _choose(kk + 1, {k: dist[k] + w for k, w in zip(into, weights)}, dist, parent, njumps, ties)
        if dist[-1] > self.accept:  # round 2, pruned against the cheapest path found
            keep = _round_two(dist[-1], self.lb, self.margin, self.w_direct, self.w_source, self.w_sink)
            self.kept, self.accept = (np.flatnonzero(keep) + 1).tolist(), INF
            return self.solve_primary()
        return parent, dist, ties

    def settle(self, solve, all_optimal: bool) -> _Settled:
        """This subproblem's answer from the tables and tie record of ``solve(self)``."""
        parent, dist, ties = solve(self)
        path, cost = _path(parent, dist)
        optima = None
        if all_optimal:
            optima = _distinct(map(self.path_to_sequence, _optimal_paths(parent, ties, self.times)))
        return _Settled(self.k, len(self.kept), cost, self.path_to_sequence(path), optima)

    def path_to_sequence(self, path: tuple[int, ...]) -> StateSequence:
        pairs = [(self.time_list[a - 1], self.arc_state(a, b)) for a, b in zip(path[1:-1], path[2:])]
        return StateSequence.from_pairs(self.arc_state(path[0], path[1]), pairs)


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
        n, t = self.n_vertices, self.times
        return tuple(
            (float(t[k]), float(t[l]), float(self.weight[k, l]), int(self.seg_state[k, l]))
            for k in range(n)
            for l in range(k + 1, n)
            if math.isfinite(self.weight[k, l])
        )

    def arc_weight(self, from_time: float, to_time: float) -> float:
        k = int(np.searchsorted(self.times, from_time))
        l = int(np.searchsorted(self.times, to_time))
        return float(self.weight[k, l])


def _graph(f: StateSequence, gamma: float, metric: StateMetric, binary: bool) -> ProjectionGraph:
    """The DAG of a caller-supplied sequence, taken whole as one subproblem."""
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    if f.n_jumps < 2:
        raise ValueError("graph construction needs at least 2 jumps")
    if binary and len(f.states_used) != 2:
        raise ValueError("binary graph requires a two-state sequence")
    if np.diff(f.jump_times).max() > _freeze_threshold(gamma, metric.matrix(f.states_used).tolist()) + GAP_TOL:
        raise ValueError("internal gap exceeds the split threshold; split the sequence first")
    _, core = next(_cores([f], [[(0, f.n_jumps - 1)]], gamma, metric, binary))
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
    return _graph(f, gamma, metric, binary=False)


def build_graph_binary(f: StateSequence, gamma: float) -> ProjectionGraph:
    """Two-state variant: arcs need t_l - t_k >= 2*gamma and odd index gaps.

    The parity constraint encodes that retained jumps keep their direction,
    which also pins each arc's segment state to the state of f right after
    the arc's start (for sentinel arcs this coincides with the forced
    boundary state).
    """
    return _graph(f, gamma, DISCRETE, binary=True)


@dataclass(frozen=True)
class ShortestPath:
    vertices: tuple[float, ...]
    cost: float
    all_optimal: tuple[tuple[float, ...], ...] | None = None


def _tie_tol(value: float) -> float:
    return COST_TOL * max(1.0, abs(value))


def _dp_tables(n: int) -> tuple[list[float], list[int], list[int]]:
    """Distance, parent and jump-count tables with only the source settled."""
    return [0.0] + [INF] * (n - 1), [-1] * n, [0] * n


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


def _choose(j: int, cost: dict[int, float], dist, parent, njumps, ties: dict[int, list[int]]) -> None:
    """Settle vertex j from ``cost``, the path cost through each candidate predecessor.

    The candidates within ``_tie_tol`` of the least cost are tied; several
    go into ``ties[j]``, and :func:`_first_path` picks among them.  A vertex
    whose least cost is +inf is unreachable and stays unsettled.
    """
    low = min(cost.values())
    if low == INF:
        return
    tied = [k for k, x in cost.items() if x <= low + _tie_tol(low)]
    if len(tied) > 1:
        ties[j] = tied
    k = _first_path(tied, njumps, parent)
    dist[j], parent[j], njumps[j] = cost[k], k, njumps[k] + 1


def _path(parent, dist) -> tuple[tuple[int, ...], float]:
    """Source-to-sink vertex path through the parent table, and its cost."""
    sink = len(dist) - 1
    if not math.isfinite(dist[sink]):
        raise RuntimeError("sink unreachable; the graph violates its construction invariants")
    path = [sink]
    while path[-1] > 0:
        path.append(int(parent[path[-1]]))
    return tuple(reversed(path)), float(dist[sink])


def _optimal_paths(parent, ties: dict[int, list[int]], times) -> list[tuple[int, ...]]:
    """Every optimal source-to-sink path, sorted by jump count, then jump times.

    Walks back from the sink through each vertex's tied predecessors:
    ``ties[v]`` where recorded, else ``parent[v]`` alone.  Memory is linear
    in the vertex count plus the output, whose size can be exponential.
    """
    paths: list[tuple[int, ...]] = []
    trail: list[int] = []  # the sink back to the vertex being visited
    stack = [(len(parent) - 1, 0)]
    while stack:
        v, depth = stack.pop()
        del trail[depth:]
        trail.append(v)
        if v == 0:
            paths.append(tuple(reversed(trail)))
        else:
            stack.extend((k, depth + 1) for k in ties.get(v, (parent[v],)))
    paths.sort(key=lambda p: (len(p), tuple(float(times[v]) for v in p)))
    return paths


def _dp(n: int, column: Callable[[int], np.ndarray]) -> tuple[list[int], list[float], dict[int, list[int]]]:
    """:meth:`_Core.solve_primary`'s tables, each vertex settled by :func:`_choose` from its full column."""
    dist, parent, njumps = _dp_tables(n)
    ties: dict[int, list[int]] = {}
    for j in range(1, n):
        cand = np.add(dist[:j], column(j))
        low = cand.min()
        near = np.flatnonzero(cand <= low + _tie_tol(low))  # the candidates _choose can tie
        _choose(j, dict(zip(near.tolist(), cand[near].tolist())), dist, parent, njumps, ties)
    return parent, dist, ties


def shortest_path(graph: ProjectionGraph, all_optimal: bool = False) -> ShortestPath:
    """Cost-minimal source-to-sink path by DP in time order.

    Equal-cost ties resolve to fewer jumps, then lexicographically earliest
    jump times; ``all_optimal`` also enumerates every cost-minimal path.
    """
    parent, dist, ties = _dp(graph.n_vertices, lambda j: graph.weight[:j, j])
    path, cost = _path(parent, dist)

    def to_times(p: tuple[int, ...]) -> tuple[float, ...]:
        return tuple(float(graph.times[v]) for v in p)

    all_paths = tuple(map(to_times, _optimal_paths(parent, ties, graph.times))) if all_optimal else None
    return ShortestPath(to_times(path), cost, all_paths)


@dataclass(frozen=True)
class ProjectionResult:
    """Outcome of a projection.

    ``cost`` is the summed shortest-path cost over the processed regions
    (distance inside the subproblem spans plus gamma per retained jump
    there); jumps preserved between two frozen events sit outside every
    span and are not included.  ``optima`` lists, when requested, the
    optimal projections :func:`project` enumerates, the primary
    ``projected`` among them.  ``candidates`` counts the candidate jump
    vertices of all subproblems, and ``candidates_kept`` those the Potts
    bound could not rule out: against the Potts optimum, or, in a
    subproblem that took a second round, against the path the first found
    (see :meth:`_Core.solve_primary`).  ``reference_project`` settles every
    vertex and reports the first round's count.
    """

    projected: StateSequence
    cost: float
    subproblem_spans: tuple[tuple[float, float], ...]
    optima: tuple[StateSequence, ...] | None = None
    candidates: int = 0
    candidates_kept: int = 0

    @property
    def n_subproblems(self) -> int:
        return len(self.subproblem_spans)


def _reassemble(f: StateSequence, spans: list[tuple[int, int]], solved: list[StateSequence]) -> StateSequence:
    """f with the jumps of each span (first, last) replaced by those of its solution, as
    :meth:`StateSequence.from_pairs` of the pairs builds it (Python floats and ints)."""
    times: list[float] = []
    states: list[int] = []
    pos = 0
    for (first, last), sol in zip(spans, solved):
        times += f._times[pos:first]
        times += sol._times
        states += f._states[pos:first]
        states += sol._states
        pos = last + 1
    times += f._times[pos:]
    states += f._states[pos:]
    return StateSequence._from_columns(f.initial_state, list(map(float, times)), list(map(int, states)))


def _distinct(seqs) -> tuple[StateSequence, ...]:
    """The distinct sequences, sorted by jump count, then jump times, then states."""
    return tuple(sorted(dict.fromkeys(seqs), key=lambda seq: (seq.n_jumps, seq._times, seq._states)))


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
    to 2*gamma.  ``all_optimal`` additionally enumerates the optimal paths
    of the candidate DAGs, combined across subproblems.  Each is an optimal
    projection, but dropping the second and second-to-last candidates and
    freezing events exactly at the threshold of :func:`split_long_events`
    each keep some optimum, not all: tied optima through them are not
    listed, and ``projected`` is the earliest optimum of the DAGs, not
    always of all optima.
    """
    return project_many([f], gamma, metric, binary=binary, all_optimal=all_optimal)[0]


def project_many(
    fs: list[StateSequence],
    gamma: float,
    metric: StateMetric = DISCRETE,
    *,
    binary: bool = False,
    all_optimal: bool = False,
) -> list[ProjectionResult]:
    """:func:`project` of each sequence of ``fs``, in one pass.

    The subproblems of all inputs over the same states share their table
    builds, which spreads each build's fixed cost over many inputs.  Each
    result's ``projected``, ``cost``, ``subproblem_spans``, ``optima`` and
    ``candidates`` are those :func:`project` gives for its input alone;
    ``candidates_kept`` can differ where the Potts bound of a vertex lies
    within rounding of its cap, since that rounding depends on the padded
    width of the build the input shares; it counts the second round's kept
    vertices in each subproblem that took one.
    """
    return _project_with(None, fs, gamma, metric, binary, all_optimal)


def _project_with(solve, fs, gamma, metric, binary, all_optimal) -> list[ProjectionResult]:
    """:func:`project_many`, each subproblem settled by ``solve(core)``.

    With ``solve`` None, most subproblems that keep at most ``BULK_VERTICES`` vertices
    are settled in bulk (:func:`_bulk`) and the others by :meth:`_Core.solve_primary`.
    """
    if not (math.isfinite(gamma) and gamma >= 0):
        raise ValueError("gamma must be finite and nonnegative")
    if binary and any(len(f.states_used) > 2 for f in fs):
        raise ValueError("binary projection requires a two-state sequence")
    results: list[ProjectionResult | None] = [None] * len(fs)
    spans: list[list[tuple[int, int]]] = [[] for _ in fs]
    groups: dict[tuple[int, ...], list[int]] = {}  # inputs by their sorted states
    for i, f in enumerate(fs):
        if gamma > 0 and f.n_jumps:
            # Only the spans are kept, so the subproblems' sequences go at once.
            spans[i] = [(sub.first_jump, sub.last_jump) for sub in split_long_events(f, gamma, metric)]
        if spans[i]:
            groups.setdefault(f.states_used, []).append(i)
        else:
            results[i] = ProjectionResult(f, 0.0, (), (f,) if all_optimal else None)

    for labels, members in groups.items():
        done: list = [None] * sum(len(spans[i]) for i in members)
        inputs, their_spans = [fs[i] for i in members], [spans[i] for i in members]
        rows = _cores(inputs, their_spans, gamma, metric, binary, labels, solve is None, all_optimal)
        for s, core in rows:  # in run order; each run's tables go once its rows are settled
            done[s] = core if isinstance(core, _Settled) else core.settle(solve or _Core.solve_primary, all_optimal)
        pos = 0
        for i in members:
            results[i] = _combine(fs[i], spans[i], done[pos : pos + len(spans[i])], all_optimal)
            pos += len(spans[i])
    return results


def _combine(
    f: StateSequence, spans: list[tuple[int, int]], done: list[_Settled], all_optimal: bool
) -> ProjectionResult:
    """f's projection from the answers of its subproblems, in span order."""
    total = 0.0
    for answer in done:
        total += answer.cost
    optima = None
    if all_optimal:
        optima = _distinct(_reassemble(f, spans, list(pick)) for pick in itertools.product(*(a.optima for a in done)))
    times = f.jump_times
    return ProjectionResult(
        _reassemble(f, spans, [a.primary for a in done]), total, tuple((times[a], times[b]) for a, b in spans), optima,
        sum(a.candidates for a in done), sum(a.kept for a in done),
    )


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

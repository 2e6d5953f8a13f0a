import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from stateseq import (
    DISCRETE,
    Labels,
    NoiseModel,
    StateSequence,
    TableMetric,
    build_graph,
    build_graph_binary,
    default_base_labels,
    energy,
    generate_noisy_labels,
    project,
    project_labels,
    project_many,
    shortest_path,
    split_long_events,
)
from stateseq.cli import main
from stateseq import projection
from stateseq.io import format_labels
from stateseq.oracle import _reference_tables, brute_force_project, random_instance, reference_project
from stateseq.projection import (
    BULK_VERTICES,
    GAP_TOL,
    RUN_JUMPS,
    ProjectionGraph,
    Subproblem,
    _Settled,
    _cores,
    _dp,
    _first_path,
    _freeze_threshold,
    _length_classes,
    _path,
    _project_with,
)

INF = math.inf

# 0 / 1 on [0.2,0.35) / 0 / 2 on [0.4,0.55) / 3 on [0.55,0.75) / 2 afterwards
WORKED = StateSequence(0, ((0.2, 1), (0.35, 0), (0.4, 2), (0.55, 3), (0.75, 2)))
WORKED_GAMMA = 0.2
WORKED_ARCS = {
    (-INF, 0.2): (0.2, 0),
    (-INF, 0.4): (0.35, 0),
    (-INF, 0.75): (0.7, 0),
    (0.2, 0.4): (0.25, 1),
    (0.2, 0.75): (0.55, 3),
    (0.2, INF): (0.4, 2),
    (0.4, 0.75): (0.35, 3),
    (0.4, INF): (0.2, 2),
    (0.75, INF): (0.0, 2),
}

# Two-state sequence whose projection is genuinely non-unique at gamma 0.2.
BINARY = StateSequence(0, ((0.35, 1), (0.45, 0), (0.55, 1)))

# Non-discrete metrics, each with the number of states random instances use.
TABLE_METRICS = {
    "line": (TableMetric([[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]]), 4),
    "skew3": (TableMetric([[0, 0.3, 1], [0.3, 0, 0.8], [1, 0.8, 0]]), 3),
    "star": (TableMetric([[0, 1, 1, 1], [1, 0, 2, 2], [1, 2, 0, 2], [1, 2, 2, 0]]), 4),
    # Relabelling costs 5-10 per second, so the Potts optimum lies far below the
    # projection's, and most rows that reach the solver need its second round.
    "far": (TableMetric([[0, 5, 9, 10], [5, 0, 5, 9], [9, 5, 0, 5], [10, 9, 5, 0]]), 4),
}


class TestEnergy:
    def test_identity_costs_jump_count(self):
        f = StateSequence(1, ((1.0, 2), (3.0, 1)))
        assert energy(f, f, 0.4) == pytest.approx(0.8, abs=1e-12)

    def test_worked_example(self):
        g = StateSequence(0, ((0.4, 2),))
        assert energy(WORKED, g, WORKED_GAMMA) == pytest.approx(0.55, abs=1e-12)

    def test_infinite_on_unbounded_disagreement(self):
        assert energy(StateSequence(1), StateSequence(2), 1.0) == INF

    def test_rejects_negative_gamma(self):
        with pytest.raises(ValueError):
            energy(StateSequence(1), StateSequence(1), -1.0)


class TestSplitLongEvents:
    def test_all_short_gives_single_subproblem(self):
        subs = split_long_events(WORKED, WORKED_GAMMA)
        assert len(subs) == 1
        assert subs[0].sequence == WORKED
        assert (subs[0].first_jump, subs[0].last_jump) == (0, 4)
        assert _split_parts(subs) == [(WORKED.jump_times, (0.2, 0.75))]

    def test_all_long_gives_no_subproblems(self):
        base = StateSequence(1, ((5.0, 2), (15.0, 3), (30.0, 2), (40.0, 3), (55.0, 1)))
        assert split_long_events(base, 0.5) == ()

    def test_split_inside_long_middle_event(self):
        f = StateSequence(0, ((0.0, 1), (0.3, 2), (10.0, 3), (10.2, 0)))
        subs = split_long_events(f, 0.2)
        assert len(subs) == 2
        assert subs[0].sequence == StateSequence(0, ((0.0, 1), (0.3, 2)))
        assert subs[1].sequence == StateSequence(2, ((10.0, 3), (10.2, 0)))
        assert _split_parts(subs) == [((0.0, 0.3), (0.0, 0.3)), ((10.0, 10.2), (10.0, 10.2))]

    def test_binary_threshold_matches_general(self):
        # Freezing two-state events already at gamma would pin retained jumps
        # closer than the binary minimum gap, so both modes freeze at 2*gamma.
        f = StateSequence(0, ((1.0, 1), (1.3, 0), (1.4, 1), (1.5, 0)))
        binary = split_long_events(f, 0.25)
        assert len(binary) == 1 and binary[0].sequence == f
        frozen = split_long_events(f, 0.14)
        assert len(frozen) == 1
        assert frozen[0].sequence == StateSequence(1, ((1.3, 0), (1.4, 1), (1.5, 0)))


def _split_by_events(f, gamma, metric=DISCRETE):
    """The event-by-event split, the reference for split_long_events."""
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
        subs.append(Subproblem(StateSequence(events[i - 1].state, f.jumps[i - 1 : j + 1]), i - 1, j))
        i = j + 1
    return tuple(subs)


def _split_parts(subs):
    """What ``==`` on subproblems leaves out: each sequence's stored jump times and the span."""
    return [(sub.sequence.jump_times, sub.span) for sub in subs]


class TestSplitMatchesEventLoop:
    def _check(self, f, gamma, metric=DISCRETE):
        got, want = split_long_events(f, gamma, metric), _split_by_events(f, gamma, metric)
        assert got == want
        assert _split_parts(got) == _split_parts(want)

    def test_random_and_grid_inputs(self):
        rng = np.random.default_rng(70)
        choices = [(DISCRETE, 2), (DISCRETE, 4), *TABLE_METRICS.values()]
        for trial in range(400):
            metric, n_states = choices[trial % len(choices)]
            if trial % 2:
                f, gamma = random_instance(rng, max_jumps=30, n_states=n_states)
            else:
                f, gamma = _grid_instance(rng, int(rng.integers(0, 40)), n_states), float(rng.choice([0.1, 0.2, 0.3]))
            self._check(f, gamma, metric)

    @pytest.mark.parametrize("name", [None, *sorted(TABLE_METRICS)])
    def test_lengths_at_the_threshold_and_one_ulp_either_side(self, name):
        metric = DISCRETE if name is None else TABLE_METRICS[name][0]
        rng = np.random.default_rng(71)
        for gamma in (0.1, 0.25, 0.3, 1.0 / 3.0):
            at = _freeze_threshold(gamma, metric.matrix((1, 2, 3)).tolist()) - GAP_TOL
            lengths = [np.nextafter(at, -INF), at, np.nextafter(at, INF), 0.01]
            for _ in range(20):
                # Sums of the lengths, so the event lengths land within an ulp or so of them.
                times = np.concatenate(([0.0], np.cumsum(rng.choice(lengths, size=int(rng.integers(1, 12))))))
                states = [1 + (i % 3) for i in range(len(times) + 1)]
                self._check(StateSequence(states[0], tuple(zip(times.tolist(), states[1:]))), gamma, metric)
            # A jump at 0 makes the interior event exactly ``length`` long.
            for length in lengths[:3]:
                f = StateSequence(1, ((0.0, 2), (float(length), 3)))
                self._check(f, gamma, metric)
                assert len(split_long_events(f, gamma, metric)) == (length < at)

    def test_zero_one_and_two_jumps(self):
        for f in (StateSequence(1), StateSequence(1, ((0.5, 2),)), StateSequence(1, ((0.5, 2), (0.6, 1)))):
            for gamma in (0.05, 0.2):
                self._check(f, gamma)
        assert split_long_events(StateSequence(1, ((0.5, 2),)), 0.2) == ()


def _mixed_layout(rng, n_short, long_jumps, n_states, offset):
    """Hundreds of 2-6 jump stretches and one long one, between frozen 5 s events."""
    times, t = [], offset
    long_at = int(rng.integers(0, n_short))
    for i in range(n_short):
        size = long_jumps if i == long_at else int(rng.integers(2, 7))
        t += 5.0
        for gap in rng.uniform(0.05, 0.3, size=size).tolist():
            t += gap
            times.append(t)
    states = [1]
    for _ in times:
        nxt = int(rng.integers(1, n_states))
        states.append(nxt if nxt < states[-1] else nxt + 1)
    return StateSequence(1, tuple(zip(times, states[1:])))


class TestSharedTables:
    # Every subproblem's view of the projection-wide tables must hold the bits
    # of a build of its sequence alone, over the same labels.
    CASES = {
        "discrete": (DISCRETE, 4, False),
        "binary": (DISCRETE, 2, True),
        **{name: (metric, n, False) for name, (metric, n) in TABLE_METRICS.items()},
    }

    @staticmethod
    def _assert_same(core, alone):
        assert core.states == alone.states and (core.k, core.c0, core.cn) == (alone.k, alone.c0, alone.cn)
        for name in ("ktimes", "times", "enter", "admit", "w_source", "w_sink"):
            a, b = getattr(core, name), getattr(alone, name)
            assert a.shape == b.shape and np.array_equal(a, b), name
        assert core.w_direct == alone.w_direct and core.slack == alone.slack
        assert (core.time_list, core.enter_rows, core.admit_rows) == (alone.time_list, alone.enter_rows, alone.admit_rows)

    def _check(self, f, gamma, metric, binary):
        subs = split_long_events(f, gamma, metric)
        cores = dict(_cores([f], [[(sub.first_jump, sub.last_jump) for sub in subs]], gamma, metric, binary))
        assert sorted(cores) == list(range(len(subs)))
        jumps = {}
        for s, sub in enumerate(subs):
            n, core = sub.sequence.n_jumps, cores[s]
            _, alone = next(_cores([sub.sequence], [[(0, n - 1)]], gamma, metric, binary, f.states_used))
            self._assert_same(core, alone)
            jumps.setdefault(id(core.times.base), [core.times.base.shape, 0])[1] += n
        # Padding at most doubles the jumps of each build.
        for (rows, width), n in jumps.values():
            assert rows * (width - 2) <= 2 * n
        return subs

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_views_match_single_builds(self, case, offset):
        metric, n_states, binary = self.CASES[case]
        rng = np.random.default_rng(72)
        for trial in range(40):
            if trial % 2:
                f, gamma = random_instance(rng, max_jumps=40, n_states=n_states)
            else:
                f, gamma = _grid_instance(rng, int(rng.integers(2, 60)), n_states), float(rng.choice([0.1, 0.2, 0.3]))
            self._check(StateSequence(f.initial_state, tuple((t + offset, s) for t, s in f.jumps)), gamma, metric, binary)

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_one_long_subproblem_among_hundreds_of_short_ones(self, case, offset):
        metric, n_states, binary = self.CASES[case]
        rng = np.random.default_rng(73)
        f = _mixed_layout(rng, 200, 1000, n_states, offset)
        subs = self._check(f, 0.3, metric, binary)
        assert len(subs) == 200 and max(sub.sequence.n_jumps for sub in subs) == 1000


class TestSolverTables:
    # Vertex by vertex, the running-minima sweep with nothing pruned must
    # return the tables of the per-column DP over the same core: every
    # parent, the bits of every distance and each column's tied predecessors.
    # Pruned, it must keep those of every vertex on an optimal path.
    @staticmethod
    def _tables(parent, dist, ties):
        return parent, [x.hex() for x in dist], sorted((j, sorted(tied)) for j, tied in ties.items())

    @staticmethod
    def _optimal_vertices(parent, ties):
        """The vertices the optimal-path walk from the sink visits."""
        seen, stack = set(), [len(parent) - 1]
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack.extend(ties.get(v, (parent[v],)) if v else ())
        return seen

    def _check_pruned(self, core, pruned, full):
        (parent, dist, ties), (want_parent, want_dist, want_ties) = pruned, full
        kept = set(core.kept)
        for v in range(1, core.k + 1):
            if v not in kept:
                assert (dist[v], parent[v], v in ties) == (INF, -1, False)
        on_paths = self._optimal_vertices(want_parent, want_ties)
        assert on_paths <= kept | {0, core.k + 1}
        for v in on_paths:
            assert (parent[v], dist[v].hex(), sorted(ties.get(v, []))) == (
                want_parent[v], want_dist[v].hex(), sorted(want_ties.get(v, []))
            )
        assert _path(parent, dist) == _path(want_parent, want_dist)

    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
    @pytest.mark.parametrize("case", sorted(TestSharedTables.CASES))
    def test_sweep_matches_per_column_dp(self, case, offset):
        metric, n_states, binary = TestSharedTables.CASES[case]
        rng = np.random.default_rng(74)
        for trial in range(100):
            if trial % 2:
                f, gamma = random_instance(rng, max_jumps=30, n_states=n_states)
            else:
                f, gamma = _grid_instance(rng, int(rng.integers(2, 80)), n_states), float(rng.choice([0.1, 0.2, 0.3]))
            f = StateSequence(f.initial_state, tuple((t + offset, s) for t, s in f.jumps))
            spans = [(sub.first_jump, sub.last_jump) for sub in split_long_events(f, gamma, metric)]
            for _, core in _cores([f], [spans], gamma, metric, binary):
                full = _dp(core.n_vertices, core.column)
                want = self._tables(*full)
                self._check_pruned(core, core.solve_primary(), full)
                core.kept = list(range(1, core.k + 1))  # the same sweep with nothing pruned
                assert self._tables(*core.solve_primary()) == want, (trial, core.k)


def _noisy_recording(n_states, seed, horizon=270.0):
    """About 11 jumps a second: a state change every 10 s under fine noise."""
    base = Labels(horizon, n_states, 1, tuple((10.0 * i, i % n_states + 1) for i in range(1, int(horizon / 10))))
    return generate_noisy_labels(base, NoiseModel(0.1, 0.08, seed=seed)).to_anchored()


def _reference_primary(f, gamma, metric=DISCRETE, binary=False):
    """reference_project's cost and primary, without enumerating the optima."""
    return _project_with(_reference_tables, [f], gamma, metric, binary, False)[0]


class TestPottsBound:
    # The sweep settles only the candidate vertices whose Potts lower bound
    # lies within the margin of the Potts optimum, or of the path a first
    # round found; the answer must be the unpruned reference's, bit for bit.
    @pytest.mark.parametrize("gamma", [0.1, 0.5, 2.0])
    def test_noisy_recording_matches_reference_with_few_vertices_kept(self, gamma):
        f = _noisy_recording(3, seed=1)
        fast, slow = project(f, gamma), _reference_primary(f, gamma)
        assert 2900 < f.n_jumps < 3200
        assert fast.cost == slow.cost
        assert fast.projected == slow.projected
        # At gamma 0.1 most subproblems have under ten candidates, and the
        # optimal path itself holds about a tenth of them.
        assert fast.candidates_kept < (0.15 if gamma == 0.1 else 0.1) * fast.candidates
        assert fast.candidates > 2500

    def test_skew3_and_binary_prune(self):
        for f, metric, binary in [
            (_noisy_recording(3, seed=2), TABLE_METRICS["skew3"][0], False),
            (_noisy_recording(2, seed=3), DISCRETE, True),
        ]:
            fast, slow = project(f, 0.5, metric, binary=binary), _reference_primary(f, 0.5, metric, binary)
            assert fast.cost == slow.cost
            assert fast.projected == slow.projected
            assert fast.candidates_kept < 0.1 * fast.candidates

    @pytest.mark.parametrize("name", ["line", "star"])
    def test_distances_above_one_prune_and_match_reference(self, name):
        # Distances up to 2 let the duration constraint bind, so the Potts
        # optimum is only a lower bound; checked against the path found, it
        # still prunes all but a few vertices of a noisy recording.
        metric, n_states = TABLE_METRICS[name]
        f = _noisy_recording(3, seed=4, horizon=60.0)
        fast, slow = project(f, 0.5, metric), _reference_primary(f, 0.5, metric)
        assert fast.cost.hex() == slow.cost.hex() and fast.projected == slow.projected
        assert 0 < fast.candidates_kept < 0.05 * fast.candidates
        rng = np.random.default_rng(75)
        for _ in range(50):
            f, gamma = random_instance(rng, max_jumps=30, n_states=n_states)
            fast, slow = project(f, gamma, metric), _reference_primary(f, gamma, metric)
            assert fast.cost.hex() == slow.cost.hex() and fast.projected == slow.projected

    def test_chunked_scan_matches_step_by_step_recurrence(self):
        rng = np.random.default_rng(77)
        for rows, k, labels in [(3, 1, 2), (2, 5, 3), (4, 17, 3), (1, 1000, 4), (5, 99, 2), (2, 4, 1)]:
            cost = np.where(rng.uniform(size=(rows, k, labels)) < 0.3, 0.0, rng.uniform(0.0, 2.0, (rows, k, labels)))
            start = np.where(rng.uniform(size=(rows, labels)) < 0.5, 0.0, INF)
            start[:, 0] = 0.0
            want = [start]
            for i in range(k):
                x = want[-1]
                want.append(np.minimum(x, x.min(axis=1, keepdims=True) + 0.37) + cost[:, i])
            x = want[-1]
            want = np.stack(want, axis=1).min(axis=2), np.minimum(x, x.min(axis=1, keepdims=True) + 0.37)
            for got, expected in zip(projection._potts_scan(start, cost, 0.37), want):
                finite = np.isfinite(expected)
                assert got.shape == expected.shape and np.array_equal(np.isfinite(got), finite)
                # Sums of at most 2k + 1 nonnegative terms, added in another order.
                tol = (2 * k + 2) * np.finfo(float).eps * np.maximum(1.0, expected[finite])
                assert np.all(np.abs(got[finite] - expected[finite]) <= tol)

    @pytest.mark.parametrize("case", sorted(TestSharedTables.CASES))
    def test_bound_holds_at_every_vertex(self, case):
        # lb bounds every path through its vertex from below, and the Potts
        # optimum bounds the optimal cost, which it equals whenever every
        # distance is at most 1.  Larger distances open gaps between the two.
        metric, n_states, binary = TestSharedTables.CASES[case]
        rng = np.random.default_rng(76)
        gaps = unproven = 0
        for trial in range(60):
            f, gamma = random_instance(rng, max_jumps=30, n_states=n_states)
            proven = metric.matrix(f.states_used).max() <= 1
            unproven += not proven
            spans = [(sub.first_jump, sub.last_jump) for sub in split_long_events(f, gamma, metric)]
            for _, core in _cores([f], [spans], gamma, metric, binary):
                size = core.n_vertices
                weight = np.full((size, size), INF)
                for j in range(1, size):
                    weight[:j, j] = core.column(j)
                _, dist, _ = _dp(size, core.column)
                rest = np.zeros(size)  # cheapest completion from each vertex to the sink
                for v in range(size - 2, -1, -1):
                    rest[v] = np.min(weight[v, v + 1 :] + rest[v + 1 :])
                through = np.array(dist) + rest
                assert np.all(core.lb <= through[1:-1] + 1e-9 * np.maximum(1.0, np.abs(through[1:-1]))), trial
                tol = 1e-9 * max(1.0, dist[-1])
                assert core.potts <= dist[-1] + tol, trial
                if proven:
                    assert abs(core.potts - dist[-1]) <= tol, trial
                gaps += core.potts < dist[-1] - tol
        assert (gaps > 0) == (unproven > 0)

    @pytest.mark.parametrize("route", ["bulk", "solver"])
    def test_lowered_bound_takes_a_second_round(self, monkeypatch, route):
        # A Potts optimum gamma too low prunes the optimal path's vertices, so
        # no first round passes its check; the second, pruned against the
        # path found, must return the unpruned reference's answer, on the
        # bulk route and in the solver alike, once per subproblem.
        build, round_two, again = projection._block, projection._round_two, []

        def lowered(times, ev, first, n, dist, gamma, *rest):
            block = build(times, ev, first, n, dist, gamma, *rest)
            block["potts"] = [u - gamma for u in block["potts"]]
            return block

        def counted(cost, lb, *rest):
            again.append(len(lb) if lb.ndim == 2 else 1)
            return round_two(cost, lb, *rest)

        f = _noisy_recording(3, seed=1, horizon=60.0)
        want = _reference_primary(f, 0.5)
        assert project(f, 0.5).candidates_kept > 0
        monkeypatch.setattr(projection, "_block", lowered)
        monkeypatch.setattr(projection, "_round_two", counted)
        solve = None if route == "bulk" else projection._Core.solve_primary
        got = _project_with(solve, [f], 0.5, DISCRETE, False, False)[0]
        assert got.cost.hex() == want.cost.hex() and got.projected == want.projected
        assert sum(again) == got.n_subproblems > 0


class TestBuildGraph:
    def test_worked_example_vertices(self):
        graph = build_graph(WORKED, WORKED_GAMMA)
        assert graph.times.tolist() == [-INF, 0.2, 0.4, 0.75, INF]

    def test_worked_example_arcs_exactly(self):
        graph = build_graph(WORKED, WORKED_GAMMA)
        arcs = {(a, b): (w, s) for a, b, w, s in graph.arcs}
        assert set(arcs) == set(WORKED_ARCS)
        for key, (weight, state) in WORKED_ARCS.items():
            assert arcs[key][0] == pytest.approx(weight, abs=1e-12), key
            assert arcs[key][1] == state, key

    def test_two_jump_sequence_keeps_both_jumps(self):
        f = StateSequence(0, ((1.0, 1), (1.1, 0)))
        graph = build_graph(f, 1.0)
        assert graph.times.tolist() == [-INF, 1.0, 1.1, INF]

    def test_vertex_counts(self):
        # n > 3 drops two interior candidates, n == 3 drops one.
        f4 = StateSequence(1, ((1.0, 2), (2.0, 1), (3.0, 2), (4.0, 1)))
        assert build_graph(f4, 3.0).n_vertices == 4 + 2 - 2
        # n == 3: the second and second-to-last jump coincide, one drop only.
        f3 = StateSequence(1, ((1.0, 2), (2.0, 1), (3.0, 2)))
        assert build_graph(f3, 3.0).n_vertices == 4

    def test_rejects_bad_gamma_and_unsplit_input(self):
        with pytest.raises(ValueError):
            build_graph(WORKED, 0.0)
        long_mid = StateSequence(1, ((0.0, 2), (10.0, 1), (10.1, 2)))
        with pytest.raises(ValueError):
            build_graph(long_mid, 0.2)

    def test_rejects_too_few_jumps(self):
        with pytest.raises(ValueError):
            build_graph(StateSequence(1, ((1.0, 2),)), 0.5)


class TestBuildGraphBinary:
    def test_example_arc_set(self):
        graph = build_graph_binary(BINARY, 0.2)
        arcs = {(a, b): (w, s) for a, b, w, s in graph.arcs}
        assert set(arcs) == {(-INF, 0.35), (-INF, 0.55), (0.35, INF), (0.55, INF)}
        assert arcs[(-INF, 0.35)][0] == pytest.approx(0.2, abs=1e-12)
        assert arcs[(-INF, 0.55)][0] == pytest.approx(0.3, abs=1e-12)
        assert arcs[(0.35, INF)][0] == pytest.approx(0.1, abs=1e-12)
        assert arcs[(0.55, INF)][0] == pytest.approx(0.0, abs=1e-12)

    def test_even_index_gap_absent_despite_wide_gap(self):
        # (-inf, +inf) has infinite gap but even index difference: no arc.
        graph = build_graph_binary(BINARY, 0.2)
        assert math.isinf(graph.arc_weight(-INF, INF))

    def test_paths_have_parity_matching_the_jump_count(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            f, gamma = random_instance(rng, max_jumps=6, n_states=2)
            subs = split_long_events(f, gamma)
            for sub in subs:
                graph = build_graph_binary(sub.sequence, gamma)
                n = sub.sequence.n_jumps
                for path in shortest_path(graph, all_optimal=True).all_optimal:
                    assert (len(path) - 1) % 2 == (n + 1) % 2

    def test_rejects_more_than_two_states(self):
        with pytest.raises(ValueError):
            build_graph_binary(WORKED, 0.2)


class TestShortestPath:
    def test_worked_example_path_and_cost(self):
        sp = shortest_path(build_graph(WORKED, WORKED_GAMMA))
        assert sp.vertices == (-INF, 0.4, INF)
        assert sp.cost == pytest.approx(0.55, abs=1e-12)

    def test_single_arc_graph(self):
        graph = ProjectionGraph(
            times=np.array([-INF, INF]),
            weight=np.array([[INF, 0.7], [INF, INF]]),
            seg_state=np.array([[-1, 1], [-1, -1]]),
            gamma=1.0,
            binary=False,
        )
        sp = shortest_path(graph)
        assert sp.vertices == (-INF, INF)
        assert sp.cost == 0.7

    def test_binary_tie_enumeration_and_tiebreak(self):
        sp = shortest_path(build_graph_binary(BINARY, 0.2), all_optimal=True)
        assert sp.cost == pytest.approx(0.3, abs=1e-12)
        assert sp.all_optimal == ((-INF, 0.35, INF), (-INF, 0.55, INF))
        assert sp.vertices == (-INF, 0.35, INF)


class TestProject:
    def test_worked_example(self):
        res = project(WORKED, WORKED_GAMMA)
        assert res.projected == StateSequence(0, ((0.4, 2),))
        assert res.cost == pytest.approx(0.55, abs=1e-12)
        assert res.subproblem_spans == ((0.2, 0.75),)

    def test_gamma_zero_is_identity(self):
        assert project(WORKED, 0.0).projected == WORKED

    def test_large_gamma_collapses_to_constant(self):
        f = StateSequence(1, ((1.0, 2), (2.0, 3), (3.0, 1)))
        res = project(f, 100.0)
        assert res.projected == StateSequence(1)

    def test_nothing_to_do_when_all_events_long(self):
        base = StateSequence(1, ((5.0, 2), (15.0, 3), (30.0, 2), (40.0, 3), (55.0, 1)))
        res = project(base, 0.5)
        assert res.projected == base
        assert res.cost == 0.0
        assert res.n_subproblems == 0

    def test_short_event_between_equal_anchors_is_removed(self):
        f = StateSequence(1, ((5.0, 2), (5.1, 1)))
        res = project(f, 1.0)
        assert res.projected == StateSequence(1)
        assert res.cost == pytest.approx(0.1, abs=1e-12)

    def test_binary_nonuniqueness(self):
        res = project(BINARY, 0.2, binary=True, all_optimal=True)
        assert res.optima == (
            StateSequence(0, ((0.35, 1),)),
            StateSequence(0, ((0.55, 1),)),
        )
        assert res.projected == res.optima[0]
        assert res.cost == pytest.approx(0.3, abs=1e-12)

    def test_rejects_negative_gamma(self):
        for gamma in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError):
                project(WORKED, gamma)
            with pytest.raises(ValueError):
                energy(WORKED, WORKED, gamma)
        for gamma in (-0.1, 0.0, math.nan):
            for call in (split_long_events, build_graph):
                with pytest.raises(ValueError):
                    call(WORKED, gamma)

    def test_rejects_binary_flag_on_three_states(self):
        with pytest.raises(ValueError):
            project(WORKED, 0.2, binary=True)


def _cost_tol(*values):
    return 1e-12 * max(1.0, *[abs(v) for v in values if math.isfinite(v)])


class TestProjectionProperties:
    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            f, gamma = random_instance(rng, max_jumps=6, n_states=3)
            reference = brute_force_project(f, gamma)
            res = project(f, gamma)
            got = energy(f, res.projected, gamma)
            assert abs(got - reference.optimal_cost) <= _cost_tol(got, reference.optimal_cost)
            assert reference.contains(res.projected)

    def test_restricted_cost_identity(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            f, gamma = random_instance(rng, max_jumps=8, n_states=3)
            res = project(f, gamma)
            outside = sum(
                1
                for t, _ in res.projected.jumps
                if not any(a <= t <= b for a, b in res.subproblem_spans)
            )
            full = energy(f, res.projected, gamma)
            assert abs(full - (res.cost + gamma * outside)) <= _cost_tol(full)

    def test_structural_invariants(self):
        rng = np.random.default_rng(44)
        for _ in range(150):
            binary = bool(rng.integers(0, 2))
            f, gamma = random_instance(rng, max_jumps=8, n_states=2 if binary else 4)
            res = project(f, gamma, binary=binary)
            fhat = res.projected
            # jump containment
            assert set(fhat.jump_times) <= set(f.jump_times)
            # minimum gap
            min_gap = 2 * gamma if binary else gamma
            times = fhat.jump_times
            assert all(b - a >= min_gap - GAP_TOL for a, b in zip(times, times[1:]))
            # long events survive verbatim
            threshold = 2 * gamma
            for ev in f.events():
                if ev.length > threshold + GAP_TOL:
                    assert fhat.state_at(ev.start) == ev.state
                    assert not any(ev.start < t < ev.end for t in fhat.jump_times)
            # binary jumps keep their direction
            if binary:
                for t, s in fhat.jumps:
                    assert f.state_at(t) == s

    def test_cost_monotone_against_random_feasible_candidates(self):
        rng = np.random.default_rng(45)
        f, gamma = random_instance(rng, max_jumps=8, n_states=3)
        best = energy(f, project(f, gamma).projected, gamma)
        states = f.states_used
        tried = 0
        while tried < 1000:
            n = f.n_jumps
            mask = rng.integers(0, 2, size=n).astype(bool)
            kept = [f.jumps[i][0] for i in range(n) if mask[i]]
            if any(b - a < gamma for a, b in zip(kept, kept[1:])):
                continue
            labels = [f.initial_state]
            for _ in kept:
                choices = [s for s in states if s != labels[-1]]
                labels.append(choices[int(rng.integers(0, len(choices)))])
            if labels[-1] != f.final_state:
                continue
            g = StateSequence(f.initial_state, tuple(zip(kept, labels[1:])))
            tried += 1
            assert energy(f, g, gamma) >= best - _cost_tol(best)

    def test_graph_api_matches_project_route(self):
        # build_graph + shortest_path must reproduce project() exactly on
        # inputs that split into a single subproblem.
        rng = np.random.default_rng(47)
        checked = 0
        while checked < 40:
            f, gamma = random_instance(rng, max_jumps=7, n_states=3)
            subs = split_long_events(f, gamma)
            if len(subs) != 1 or subs[0].sequence != f:
                continue
            checked += 1
            sp = shortest_path(build_graph(f, gamma))
            res = project(f, gamma)
            assert sp.cost == res.cost
            assert sp.vertices[1:-1] == res.projected.jump_times or (
                # path vertices whose adjacent segment states coincide merge
                # away in the reassembled sequence
                set(res.projected.jump_times) <= set(sp.vertices)
            )

    def test_fast_solver_matches_reference_dp(self):
        # project() uses the running-minima solver; reference_project the
        # per-column DP.  Both must agree bit for bit, and the optima listed
        # from the solver's tie record must be the reference's.
        rng = np.random.default_rng(48)
        for trial in range(120):
            binary = trial % 3 == 0
            f, gamma = random_instance(rng, max_jumps=10, n_states=2 if binary else 4)
            fast = project(f, gamma, binary=binary)
            slow = reference_project(f, gamma, binary=binary)
            assert fast.cost == slow.cost
            assert fast.projected == slow.projected
            assert fast.projected in slow.optima
            assert project(f, gamma, binary=binary, all_optimal=True).optima == slow.optima
        for trial in range(20 * len(TABLE_METRICS)):
            metric, n_states = list(TABLE_METRICS.values())[trial % len(TABLE_METRICS)]
            f, gamma = random_instance(rng, max_jumps=10, n_states=n_states)
            fast = project(f, gamma, metric)
            slow = reference_project(f, gamma, metric)
            assert fast.cost == slow.cost
            assert fast.projected == slow.projected
            assert fast.projected in slow.optima
            assert project(f, gamma, metric, all_optimal=True).optima == slow.optima

    def test_fast_solver_matches_reference_on_grid_aligned_ties(self):
        # Times on a coarse decimal grid mass-produce exact cost ties, the
        # hard case for deterministic tie-breaking and the fallback path.
        rng = np.random.default_rng(50)
        for trial in range(100):
            binary = trial % 2 == 0
            n_states = 2 if binary else 3
            n = int(rng.integers(2, 9))
            grid = np.round(np.arange(0.1, 5.01, 0.1), 10)
            times = sorted(rng.choice(grid, size=n, replace=False))
            states = [int(rng.integers(1, n_states + 1))]
            for _ in range(n):
                nxt = int(rng.integers(1, n_states))
                states.append(nxt if nxt < states[-1] else nxt + 1)
            f = StateSequence.from_pairs(states[0], zip([float(t) for t in times], states[1:]))
            if f.n_jumps < 2:
                continue
            gamma = float(rng.choice([0.1, 0.2, 0.3, 0.5, 0.7, 1.0]))
            fast = project(f, gamma, binary=binary)
            slow = reference_project(f, gamma, binary=binary)
            assert fast.cost == slow.cost
            assert fast.projected == slow.projected
            assert project(f, gamma, binary=binary, all_optimal=True).optima == slow.optima
            reference = brute_force_project(f, gamma)
            for optimum in slow.optima:
                assert abs(energy(f, optimum, gamma) - reference.optimal_cost) <= _cost_tol(
                    reference.optimal_cost
                )

    def test_fast_solver_matches_reference_dp_on_large_instances(self):
        rng = np.random.default_rng(49)
        for trial in range(8):
            binary = trial % 2 == 0
            n_states = 2 if binary else 3
            n = int(rng.integers(150, 350))
            times = np.sort(rng.uniform(0.0, 0.05 * n, size=n))
            while np.min(np.diff(times)) < 1e-9:
                times = np.sort(rng.uniform(0.0, 0.05 * n, size=n))
            states = [1]
            for _ in range(n):
                nxt = int(rng.integers(1, n_states))
                states.append(nxt if nxt < states[-1] else nxt + 1)
            f = StateSequence.from_pairs(states[0], zip(times.tolist(), states[1:]))
            gamma = float(rng.uniform(0.1, 1.0))
            fast = project(f, gamma, binary=binary)
            slow = reference_project(f, gamma, binary=binary)
            assert fast.cost == slow.cost
            assert fast.projected == slow.projected
            assert project(f, gamma, binary=binary, all_optimal=True).optima == slow.optima

    @pytest.mark.parametrize("offset", [1e3, 1e6])
    def test_fast_solver_matches_reference_dp_under_time_offsets(self, offset):
        # Large absolute times widen the rounding gap between the solver's
        # running-minimum values and the reference arc costs, which the tie
        # buckets' slack has to cover.
        rng = np.random.default_rng(53)
        metric = TABLE_METRICS["line"][0]
        for trial in range(150):
            kind = trial % 3
            if trial % 2:
                f, gamma = random_instance(rng, max_jumps=10, n_states=2 if kind == 0 else 4)
            else:
                f, gamma = _grid_instance(rng, int(rng.integers(2, 12)), 2 if kind == 0 else 4), 0.3
            f = StateSequence.from_pairs(f.initial_state, [(t + offset, s) for t, s in f.jumps])
            args = (f, gamma, metric) if kind == 2 else (f, gamma)
            fast = project(*args, binary=kind == 0)
            slow = reference_project(*args, binary=kind == 0)
            assert fast.cost == slow.cost
            assert fast.projected == slow.projected
            assert project(*args, binary=kind == 0, all_optimal=True).optima == slow.optima

    @pytest.mark.parametrize("seed", [0, 1, 4, 6, 7])
    def test_fast_solver_matches_reference_dp_on_long_grid_instances(self, seed):
        # 320 jumps on a 0.1 s grid, one subproblem: long runs of exact ties
        # put several vertices into a tie bucket and several candidates into
        # most columns.  These seeds keep the optimum set small enough to
        # enumerate.
        rng = np.random.default_rng(seed)
        binary = seed % 2 == 0
        f = _grid_instance(rng, 320, 2 if binary else 3)
        gamma = float(rng.choice([0.2, 0.3, 0.5]))
        fast = project(f, gamma, binary=binary)
        slow = reference_project(f, gamma, binary=binary)
        assert fast.n_subproblems == 1 and f.n_jumps >= 300
        assert fast.cost == slow.cost
        assert fast.projected == slow.projected
        assert project(f, gamma, binary=binary, all_optimal=True).optima == slow.optima

    def test_all_optimal_memory_stays_linear(self):
        # One 4,000-jump subproblem: its full weight columns alone would take
        # ~64 MiB, while the solver's tie record grows with the vertex count.
        rng = np.random.default_rng(60)
        n = 4000
        times = np.sort(rng.uniform(0.0, 0.05 * n, size=n))
        states = [1]
        for _ in range(n):
            nxt = int(rng.integers(1, 3))
            states.append(nxt if nxt < states[-1] else nxt + 1)
        f = StateSequence.from_pairs(states[0], zip(times.tolist(), states[1:]))
        tracemalloc.start()
        try:
            res = project(f, 0.5, all_optimal=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.n_subproblems == 1 and f.n_jumps == n
        assert peak < 16 * 2**20
        assert res.projected == res.optima[0]

    def test_binary_graph_agrees_with_general_graph(self):
        rng = np.random.default_rng(46)
        for _ in range(50):
            f, gamma = random_instance(rng, max_jumps=8, n_states=2)
            eb = energy(f, project(f, gamma, binary=True).projected, gamma)
            eg = energy(f, project(f, gamma, binary=False).projected, gamma)
            assert abs(eb - eg) <= _cost_tol(eb, eg)


def _grid_instance(rng, n, n_states):
    """n jumps 0.1, 0.2 or 0.3 s apart, never repeating a state."""
    times = np.round(0.1 * np.cumsum(rng.choice([1, 1, 2, 3], size=n)), 10)
    states = [1]
    for _ in range(n):
        nxt = int(rng.integers(1, n_states))
        states.append(nxt if nxt < states[-1] else nxt + 1)
    return StateSequence.from_pairs(states[0], zip(times.tolist(), states[1:]))


class TestFirstPath:
    def test_orders_like_jump_count_then_path_times(self):
        # Random parent trees over time-ordered vertices; the reference key
        # is (jumps, jump times from the source), built by walking each path.
        rng = np.random.default_rng(54)
        for _ in range(300):
            n = int(rng.integers(2, 40))
            times = np.concatenate(([-INF], np.cumsum(rng.uniform(0.01, 1.0, size=n - 1))))
            parent, njumps = [-1], [0]
            for v in range(1, n):
                parent.append(int(rng.integers(0, v)))
                njumps.append(njumps[parent[v]] + 1)

            def key(v):
                jumps, path = njumps[v], []
                while v > 0:
                    path.append(float(times[v]))
                    v = parent[v]
                return jumps, tuple(reversed(path))

            for _ in range(10):
                ties = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist()
                expected = min(ties, key=key)
                assert _first_path(ties, njumps, parent) == expected
                assert _first_path(ties, np.array(njumps), np.array(parent)) == expected


def _assert_optimal(f, gamma, metric):
    reference = brute_force_project(f, gamma, metric)
    projected = project(f, gamma, metric).projected
    got = energy(f, projected, gamma, metric)
    assert abs(got - reference.optimal_cost) <= _cost_tol(got, reference.optimal_cost)
    assert reference.contains(projected)


def _nth_instance(seed, index, n_states):
    rng = np.random.default_rng(seed)
    for _ in range(index):
        random_instance(rng, 7, n_states)
    return random_instance(rng, 7, n_states)


# Star input whose middle stretch, between the long 2-events, holds only
# states 2-4, yet relabelling all of it with the centre 1 is strictly optimal.
STAR_CENTRE = StateSequence(
    1, ((0.0, 2), (5.0, 3), (5.4, 4), (5.8, 2), (6.2, 3), (6.6, 4), (7.0, 2), (7.4, 3), (7.8, 4), (8.2, 2))
)


class TestTableMetricProjection:
    # Pinned regressions: "line" costs 8.96 against the optimum 8.29 when arcs
    # take the most common state; "skew3" (d_min 0.3) loses its optimum when
    # events are frozen from 2*gamma; "star" needs the absent centre as label;
    # "far" costs 19.14 against the optimum 7.49 when its first round is
    # accepted unchecked.
    PINNED = {
        "line": lambda: _nth_instance(5, 889, 4),
        "skew3": lambda: _nth_instance(5, 10, 3),
        "star": lambda: (STAR_CENTRE, 0.5),
        "far": lambda: _nth_instance(5, 308, 4),
    }

    @pytest.mark.parametrize("name", sorted(TABLE_METRICS))
    def test_matches_oracle(self, name):
        metric, n_states = TABLE_METRICS[name]
        _assert_optimal(*self.PINNED[name](), metric)
        rng = np.random.default_rng(52)
        for _ in range(150):
            f, gamma = random_instance(rng, max_jumps=7, n_states=n_states)
            _assert_optimal(f, gamma, metric)


def _study_draws(count, seed, base=None):
    """Fine-noise draws of the simulation study's 60 s base (or of ``base``), anchored."""
    base = default_base_labels() if base is None else base
    return [generate_noisy_labels(base, NoiseModel(0.1, 0.08, seed=seed + r)).to_anchored() for r in range(count)]


BINARY_BASE = Labels(60.0, 2, 1, ((5.0, 2), (15.0, 1), (30.0, 2), (40.0, 1), (55.0, 2)))

# Close to the discrete metric, so its study draws split into small subproblems.
NEAR_DISCRETE = TableMetric([[0, 1, 0.9], [1, 0, 0.95], [0.9, 0.95, 0]])


class TestProjectMany:
    # One pass over many inputs must give each input what a pass over it
    # alone gives: projection, cost bits, spans and optima.  The kept-vertex
    # count can differ only for a vertex whose bound lies within rounding of
    # its cap, which none of these inputs has, so it is compared too.
    @staticmethod
    def _assert_same(batched, single):
        assert len(batched) == len(single)
        for got, want in zip(batched, single):
            assert got.projected == want.projected
            assert got.cost.hex() == want.cost.hex()
            assert got.subproblem_spans == want.subproblem_spans
            assert (got.candidates, got.candidates_kept) == (want.candidates, want.candidates_kept)
            assert got.optima == want.optima

    @pytest.mark.parametrize("gamma", [0.05, 0.1, 0.5, 2.0])
    @pytest.mark.parametrize("name", ["discrete", *sorted(TABLE_METRICS)])
    def test_study_draws_match_one_at_a_time(self, name, gamma):
        # Two-state draws among them have other labels, so their rows get builds of their own.
        metric = DISCRETE if name == "discrete" else TABLE_METRICS[name][0]
        fs = _study_draws(20, seed=40) + _study_draws(3, seed=70, base=BINARY_BASE)
        self._assert_same(project_many(fs, gamma, metric), [project(f, gamma, metric) for f in fs])

    @pytest.mark.parametrize("gamma", [0.05, 0.1, 0.5, 2.0])
    def test_binary_draws_match_one_at_a_time(self, gamma):
        fs = _study_draws(20, seed=60, base=BINARY_BASE)
        self._assert_same(project_many(fs, gamma, binary=True), [project(f, gamma, binary=True) for f in fs])

    def test_short_inputs_match_one_at_a_time_with_all_optima(self):
        # Inputs over different states, with and without subproblems, and
        # grid-aligned ones with exact ties.
        rng = np.random.default_rng(78)
        fs = [StateSequence(2), WORKED, BINARY]
        fs += [_grid_instance(rng, int(rng.integers(2, 16)), int(rng.integers(2, 5))) for _ in range(30)]
        fs += [random_instance(rng, max_jumps=10, n_states=3)[0] for _ in range(30)]
        for gamma in (0.0, 0.1, 0.2, 0.3, 5.0):
            batched = project_many(fs, gamma, all_optimal=True)
            self._assert_same(batched, [project(f, gamma, all_optimal=True) for f in fs])
        assert any(len(res.optima) > 1 for res in batched)

    def test_builds_are_shared_and_capped(self, monkeypatch):
        # On 64 study draws at gamma 0.1, no run of several spans pads past
        # RUN_JUMPS or doubles its jumps, and one build serves many draws.
        fs = _study_draws(64, seed=0)
        n = [sub.sequence.n_jumps for f in fs for sub in split_long_events(f, 0.1)]
        shared = [run for run in _length_classes(n) if len(run) > 1]
        assert shared
        for run in shared:
            padded = len(run) * max(n[s] for s in run)
            assert padded <= RUN_JUMPS and padded <= 2 * sum(n[s] for s in run)
        build, rows = projection._block, []

        def counted(times, ev, first, *rest):
            rows.append(len(first))
            return build(times, ev, first, *rest)

        monkeypatch.setattr(projection, "_block", counted)
        project_many(fs[:20], 0.5)
        assert len(rows) < 5 and max(rows) > 5


class TestSettledRows:
    # Subproblems that keep at most BULK_VERTICES vertices are settled by one
    # DP over the rows of a build, with no core, unless all optima are asked
    # for and the row has a tie; reference_project still settles each of them
    # by the per-column DP.  The counts below are of such bulk rows: those
    # that keep 3..BULK_VERTICES vertices, and those that tie, which come as
    # cores once all optima are asked for.
    @staticmethod
    def _rows(fs, gamma, metric=DISCRETE, binary=False, all_optimal=False):
        spans = [[(sub.first_jump, sub.last_jump) for sub in split_long_events(f, gamma, metric)] for f in fs]
        rows = dict(_cores(fs, spans, gamma, metric, binary, settle=True, all_optimal=all_optimal))
        return [rows[s] for s in range(len(rows))]

    @staticmethod
    def _keep_all(monkeypatch):
        """Keep every candidate vertex of every row and accept the first round, as a bound that prunes nothing would."""
        caps = projection._caps

        def keep_all(block, d_max, gamma):
            caps(block, d_max, gamma)
            block["kept"] = np.arange(block["kept"].shape[1]) < np.array(block["k"])[:, None]
            block["accept"] = np.full(len(block["k"]), INF)

        monkeypatch.setattr(projection, "_caps", keep_all)

    @pytest.mark.parametrize("setting", ["discrete", "binary", "line", "star", "far"])
    def test_bulk_rows_match_solver_and_reference(self, monkeypatch, setting):
        # Under "far" most rows fail the first round's check.  The bulk route
        # re-keeps them against the path found and settles most of them in a
        # second pass; the rows still too wide, and those the solver takes from
        # the start, run the solver's second round.  Each kind is counted so
        # that none can silently go dead, and no other setting has any.
        metric, binary, base = {
            "discrete": (DISCRETE, False, None),
            "binary": (DISCRETE, True, BINARY_BASE),
            **{name: (TABLE_METRICS[name][0], False, None) for name in ("line", "star", "far")},
        }[setting]
        round_two, again = projection._round_two, []

        def counted(cost, lb, *rest):
            again.append(len(lb) if lb.ndim == 2 else 1)  # rows re-kept, in bulk or by the solver
            return round_two(cost, lb, *rest)

        monkeypatch.setattr(projection, "_round_two", counted)
        fs = _study_draws(4, seed=85, base=base)
        wide = tied = in_bulk = handed = by_solver = 0
        for gamma in (0.1, 0.5, 2.0):
            again.clear()
            rows = self._rows(fs, gamma, metric, binary)
            bulk = [isinstance(row, _Settled) for row in rows]
            wide += sum(b and 3 <= row.kept <= BULK_VERTICES for b, row in zip(bulk, rows))
            in_bulk, handed = in_bulk + sum(again), handed + sum(not b and row.accept == INF for b, row in zip(bulk, rows))
            again.clear()
            [row.solve_primary() for b, row in zip(bulk, rows) if not b]
            by_solver += sum(again)
            alone = self._rows(fs, gamma, metric, binary, all_optimal=True)
            tied += sum(b and not isinstance(row, _Settled) for b, row in zip(bulk, alone))
            slow = [reference_project(f, gamma, metric, binary=binary) for f in fs]
            for all_optimal in (False, True):
                fast = project_many(fs, gamma, metric, binary=binary, all_optimal=all_optimal)
                solver = _project_with(projection._Core.solve_primary, fs, gamma, metric, binary, all_optimal)
                for got, *others in zip(fast, solver, slow):
                    for other in others:
                        assert got.cost.hex() == other.cost.hex() and got.projected == other.projected
                        assert got.candidates == other.candidates
                    # The reference settles every vertex and reports the first round's kept count.
                    assert got.candidates_kept == others[0].candidates_kept
                    assert setting == "far" or got.candidates_kept == others[1].candidates_kept
                    assert got.optima == others[0].optima and got.optima in (None, others[1].optima)
        # The binary draws have no tied row, and under "far" most rows take the second round.
        assert wide > 5 and (binary or setting == "far" or tied > 5)
        assert (in_bulk + by_solver > 0) == (setting == "far")
        if setting == "far":
            assert in_bulk - handed > 100 and handed > 0 and by_solver > 0

    def test_sink_ties_between_paths_pick_the_first_path(self, monkeypatch):
        # In bulk rows keeping at least three vertices, the sink arc of a kept
        # vertex v is set so that its path ties, at no higher cost, that of a
        # later kept vertex u whose path _first_path prefers: it has fewer
        # jumps, or as many and leaves v's at an earlier vertex.  The sink's
        # other arcs are closed.  Each such row must be answered as the solver
        # and the reference DP answer the same tables: through u.  With every
        # candidate kept, such pairs of paths are common.
        bulk, kinds = projection._bulk, []

        def with_ties(block, owns, labels, gamma, binary, all_optimal):
            crafted, count = [], block["kept"].sum(axis=1)
            for r in np.flatnonzero((count >= 3) & (count <= BULK_VERTICES)).tolist():
                core = projection._Core(block, r, owns[r], gamma, binary)
                parent, dist, _ = core.solve_primary()
                jumps = [0] * len(parent)
                for j in range(1, len(parent)):
                    jumps[j] = jumps[parent[j]] + 1 if parent[j] >= 0 else 0
                pairs = [(u, v) for v in core.kept for u in core.kept if v < u and max(dist[u], dist[v]) < INF]
                pairs = [(jumps[u] < jumps[v], u, v) for u, v in pairs if _first_path([v, u], jumps, parent) == u]
                if not pairs:
                    continue
                fewer, u, v = min(pairs)  # as many jumps, where there is such a pair
                sink = block["w_sink"][r]  # a view: the block changes with it
                sink[np.arange(len(sink)) != u - 1] = INF
                sink[v - 1] = (dist[u] + sink[u - 1]) - dist[v]
                while dist[v] + sink[v - 1] > dist[u] + sink[u - 1]:
                    sink[v - 1] = np.nextafter(sink[v - 1], -INF)
                block["w_direct"][r] = INF
                crafted.append((r, u, fewer))
            out = bulk(block, owns, labels, gamma, binary, all_optimal)
            for r, u, fewer in crafted:
                core = projection._Core(block, r, owns[r], gamma, binary)
                assert core.solve_primary()[0][-1] == u  # the tie holds, and _first_path takes u
                want, slow = core.settle(projection._Core.solve_primary, False), core.settle(_reference_tables, True)
                assert out[r].cost.hex() == want.cost.hex() == slow.cost.hex()
                assert out[r].primary == want.primary == slow.primary
                kinds.append(fewer)
            return out

        monkeypatch.setattr(projection, "_bulk", with_ties)
        self._keep_all(monkeypatch)
        project_many(_study_draws(8, seed=85), 0.1, TABLE_METRICS["line"][0])
        assert kinds.count(True) > 5 and kinds.count(False) > 5

    def test_a_tie_with_the_direct_arc_keeps_it_and_records_both(self, monkeypatch):
        # A few rows with one kept vertex j and no direct arc get one that
        # costs exactly what the path through j costs.  The direct arc must
        # win the tie, having no jump, in bulk; with all optima asked for,
        # the rows go to the solver, which lists both answers.
        caps, tied = projection._caps, []

        def with_ties(block, d_max, gamma):
            caps(block, d_max, gamma)
            one = np.flatnonzero(block["kept"].sum(axis=1) == 1).tolist()
            rows = [r for r in one if block["c0"][r] != block["cn"][r]]
            for r in rows[: 3 - len(tied)]:
                j = int(block["kept"][r].argmax())
                block["w_direct"][r] = float(block["w_source"][r, j] + block["w_sink"][r, j])
                tied.append(r)

        f = _study_draws(1, seed=81)[0]
        untied, before = len(project(f, 0.1, all_optimal=True).optima), self._rows([f], 0.1)
        monkeypatch.setattr(projection, "_caps", with_ties)
        fast = project(f, 0.1, all_optimal=True)
        assert len(tied) == 3 and len(fast.optima) == 8 * untied
        tied.clear()  # the same rows again, on the reference route
        slow = reference_project(f, 0.1)
        assert fast.cost.hex() == slow.cost.hex()
        assert fast.projected == slow.projected and fast.optima == slow.optima
        tied.clear()
        changed = [(a, b) for a, b in zip(before, self._rows([f], 0.1)) if a.primary != b.primary]
        assert len(changed) == 3
        for a, b in changed:
            assert isinstance(b, _Settled) and b.kept == 1 and b.cost.hex() == a.cost.hex()
            assert b.primary.n_jumps == 0 and a.primary.n_jumps == 1
        tied.clear()
        rows = self._rows([f], 0.1, all_optimal=True)
        cores = [row for row in rows if isinstance(row, projection._Core) and row.w_direct < INF and row.c0 != row.cn]
        assert len(cores) == 3
        for core in cores:
            answer = core.settle(projection._Core.solve_primary, True)
            assert answer.kept == 1 and answer.primary.n_jumps == 0
            assert len(answer.optima) == 2 and answer.optima[0] == answer.primary and answer.optima[1].n_jumps == 1

    def test_rows_past_the_limit_go_to_the_solver(self, monkeypatch):
        self._keep_all(monkeypatch)
        rows = self._rows(_study_draws(1, seed=87), 0.1, TABLE_METRICS["line"][0])
        kept = [(row.kept, True) if isinstance(row, _Settled) else (len(row.kept), False) for row in rows]
        assert (BULK_VERTICES, True) in kept and (BULK_VERTICES + 1, False) in kept
        assert all(bulk == (n <= BULK_VERTICES) for n, bulk in kept)

    def test_rows_without_a_positive_gap_go_to_the_solver(self):
        # At gamma <= GAP_TOL the solver admits no kept vertex as a predecessor
        # of another, and the bulk route must not answer in its place.
        rng = np.random.default_rng(86)
        gaps = rng.uniform(5e-14, 6e-13, size=(6, 8))
        fs = [StateSequence(1, tuple(zip(np.cumsum(g).tolist(), [2, 3, 1, 3, 2, 1, 2, 3]))) for g in gaps]
        rows = self._rows(fs, 8e-13)
        assert any(0 < len(row.kept) <= BULK_VERTICES for row in rows)
        assert all(isinstance(row, projection._Core) for row in rows)

    def test_tied_rows_go_to_the_solver_for_all_optima(self):
        # A row settled in bulk comes as a core once all optima are asked for
        # exactly when the solver records a tie in it.
        fs = _study_draws(2, seed=88)
        rows, alone = self._rows(fs, 0.1), self._rows(fs, 0.1, all_optimal=True)
        moved = [core for row, core in zip(rows, alone) if isinstance(row, _Settled) and not isinstance(core, _Settled)]
        assert len(moved) > 3 and all(core.solve_primary()[2] for core in moved)
        assert all(isinstance(row, _Settled) for row, other in zip(rows, alone) if isinstance(other, _Settled))

    @pytest.mark.parametrize("closed", [False, True])
    @pytest.mark.parametrize("route", ["bulk", "solver"])
    def test_rows_with_no_vertex_kept_take_a_second_round(self, monkeypatch, closed, route):
        # With no vertex kept in the first round, rows with equal boundary
        # states reach the sink only by the direct arc, which costs more than
        # the first round accepts, and the others cannot reach it at all.  The
        # second round prunes against the direct or a one-jump path and
        # recovers the answer; with those arcs closed too, it keeps every
        # vertex, and the sink stays unreachable.
        caps, ends = projection._caps, set()

        def no_vertex(block, d_max, gamma):
            caps(block, d_max, gamma)
            block["kept"][:] = False
            ends.update(c0 == cn for c0, cn in zip(block["c0"], block["cn"]))
            if closed:
                block["w_source"][:], block["w_direct"][:] = INF, INF

        f = _study_draws(1, seed=82)[0]
        want = project(f, 0.1)
        monkeypatch.setattr(projection, "_caps", no_vertex)
        solve = None if route == "bulk" else projection._Core.solve_primary
        if closed:
            with pytest.raises(RuntimeError, match="sink unreachable"):
                _project_with(solve, [f], 0.1, DISCRETE, False, False)
        else:
            got = _project_with(solve, [f], 0.1, DISCRETE, False, False)[0]
            assert got.cost.hex() == want.cost.hex() and got.projected == want.projected
        assert ends == {False, True}


class TestPinnedAnswers:
    # Answers recorded from the per-subproblem table build; a changed answer
    # fails here and not only in the benchmark.
    def test_simulate_gamma_sweep_bytes(self, tmp_path):
        out = tmp_path / "sweep.csv"
        argv = ["simulate", "--gamma", "0.1,0.5,2.0", "--reps", "5", "--seed", "3", "--out", str(out)]
        assert main(argv) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "84d36a6ffce460bc14630bea2176005483a874b2f3c0b6232d0c47695aa53597"
        )

    def test_hour_recording_projection(self):
        # A jump every 10 s cycling 1 -> 2 -> 3, under fine noise (seed 1).
        base = Labels(3600.0, 3, 1, tuple((10.0 * i, i % 3 + 1) for i in range(1, 360)))
        noisy = generate_noisy_labels(base, NoiseModel(0.1, 0.08, seed=1))
        projected, res = project_labels(noisy, 0.5)
        assert len(noisy.jumps) == 40149 and res.n_subproblems == 2
        assert res.cost == 1733.6194707499412
        assert hashlib.sha256(format_labels(projected).encode()).hexdigest() == (
            "60fd9a0fffeeca5c6ff65ca0c46a0df0bfde98b27ad4d727f63b6d744b854f20"
        )

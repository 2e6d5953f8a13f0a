import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stateseq import (
    DISCRETE,
    Labels,
    StateSequence,
    TableMetric,
    segments,
    standard_distance,
)

INF = math.inf


class TestStateSequence:
    def test_rejects_unsorted_jumps(self):
        with pytest.raises(ValueError):
            StateSequence(1, ((2.0, 2), (1.0, 3)))

    def test_rejects_repeated_state(self):
        with pytest.raises(ValueError):
            StateSequence(1, ((2.0, 1),))
        with pytest.raises(ValueError):
            StateSequence(1, ((1.0, 2), (2.0, 2)))

    def test_state_at_right_continuous(self):
        seq = StateSequence(1, ((0.2, 2),))
        assert seq.state_at(0.2) == 2
        assert seq.state_at(0.1999) == 1

    def test_state_at_constant(self):
        assert StateSequence(3).state_at(-100.0) == 3
        assert StateSequence(3).state_at(100.0) == 3

    def test_from_pairs_merges_equal_adjacent(self):
        seq = StateSequence.from_pairs(1, [(1.0, 1), (2.0, 2), (3.0, 2), (4.0, 1)])
        assert seq.jumps == ((2.0, 2), (4.0, 1))

    def test_from_pairs_merges_close_times(self):
        seq = StateSequence.from_pairs(1, [(1.0, 2), (1.0 + 1e-12, 3)])
        assert seq.jumps == ((1.0, 3),)

    def test_events_partition(self):
        seq = StateSequence(1, ((5.0, 2), (15.0, 3)))
        evs = seq.events()
        assert [(e.start, e.end, e.state) for e in evs] == [
            (-INF, 5.0, 1),
            (5.0, 15.0, 2),
            (15.0, INF, 3),
        ]

    def test_events_constant(self):
        evs = StateSequence(2).events()
        assert len(evs) == 1
        assert (evs[0].start, evs[0].end, evs[0].state) == (-INF, INF, 2)

    def test_events_of_simulation_base(self):
        base = Labels(
            60.0, 3, 1, ((5.0, 2), (15.0, 3), (30.0, 2), (40.0, 3), (55.0, 1))
        ).to_anchored()
        evs = base.events()
        assert len(evs) == 6
        assert [e.state for e in evs] == [1, 2, 3, 2, 3, 1]
        assert [e.length for e in evs[1:-1]] == [10.0, 15.0, 10.0, 15.0]


class TestSegments:
    def test_disjoint_jump_times(self):
        f = StateSequence(1, ((2.0, 2),))
        g = StateSequence(1, ((3.0, 2),))
        seg = segments(f, g)
        assert seg.breakpoints == (2.0, 3.0)
        assert seg.pairs == ((1, 1), (2, 1), (2, 2))

    def test_equal_sequences(self):
        f = StateSequence(1, ((2.0, 2), (5.0, 1)))
        assert segments(f, f).breakpoints == f.jump_times

    def test_duplicate_breakpoints_merged(self):
        f = StateSequence(1, ((2.0, 2), (5.0, 1)))
        g = StateSequence(1, ((2.0, 3), (6.0, 1)))
        assert segments(f, g).breakpoints == (2.0, 5.0, 6.0)

    def test_both_constant(self):
        seg = segments(StateSequence(1), StateSequence(2))
        assert seg.breakpoints == ()
        assert seg.pairs == ((1, 2),)


class TestStandardDistance:
    def test_zero_for_equal(self):
        f = StateSequence(1, ((2.0, 2),))
        assert standard_distance(f, f) == 0.0

    def test_worked_example_value(self):
        f = StateSequence(0, ((0.2, 1), (0.35, 0), (0.4, 2), (0.55, 3), (0.75, 2)))
        g = StateSequence(0, ((0.4, 2),))
        assert standard_distance(f, g) == pytest.approx(0.35, abs=1e-12)

    def test_infinite_for_unbounded_disagreement(self):
        assert standard_distance(StateSequence(1), StateSequence(2)) == INF
        f = StateSequence(1, ((1.0, 2),))
        g = StateSequence(1, ((1.0, 3),))
        assert standard_distance(f, g) == INF

    def test_symmetry_and_triangle_on_random_triples(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            seqs = []
            for _ in range(3):
                times = np.sort(rng.uniform(0, 10, size=4))
                states = [1]
                for _ in range(4):
                    nxt = int(rng.integers(1, 3))
                    states.append(nxt if nxt < states[-1] else nxt + 1)
                states[-1] = states[0] if states[-2] != states[0] else states[-1]
                seqs.append(StateSequence.from_pairs(states[0], zip(times.tolist(), states[1:])))
            f, g, h = seqs
            dfg, dgf = standard_distance(f, g), standard_distance(g, f)
            assert dfg == pytest.approx(dgf, abs=1e-9)
            if all(
                math.isfinite(x)
                for x in (dfg, standard_distance(f, h), standard_distance(g, h))
            ):
                assert standard_distance(f, h) <= dfg + standard_distance(g, h) + 1e-9


@given(
    st.integers(1, 4),
    st.lists(
        st.tuples(st.floats(0, 100, allow_nan=False), st.integers(1, 4)),
        max_size=8,
    ),
)
def test_events_round_trip(initial, raw_pairs):
    raw_pairs.sort(key=lambda p: p[0])
    seq = StateSequence.from_pairs(initial, raw_pairs)
    assert StateSequence.from_events(seq.events()) == seq


def test_segment_breakpoints_are_union_of_jump_times():
    rng = np.random.default_rng(11)
    for _ in range(100):
        f_times = sorted(rng.uniform(0, 5, size=3).tolist())
        g_times = sorted(rng.uniform(0, 5, size=3).tolist())
        f = StateSequence.from_pairs(1, [(t, 2 if i % 2 == 0 else 1) for i, t in enumerate(f_times)])
        g = StateSequence.from_pairs(2, [(t, 1 if i % 2 == 0 else 2) for i, t in enumerate(g_times)])
        assert set(segments(f, g).breakpoints) == set(f.jump_times) | set(g.jump_times)


class TestTableMetric:
    def test_valid_table(self):
        m = TableMetric([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        assert m.d(1, 3) == 2.0
        assert m.d(2, 2) == 0.0

    def test_rejects_asymmetry(self):
        with pytest.raises(ValueError):
            TableMetric([[0, 1], [2, 0]])

    def test_rejects_triangle_violation(self):
        with pytest.raises(ValueError):
            TableMetric([[0, 1, 5], [1, 0, 1], [5, 1, 0]])

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            TableMetric([[1, 1], [1, 0]])


class TestLabels:
    def test_jump_zero_overrides_start(self):
        labels = Labels.from_pairs(10.0, 3, 1, [(0.0, 2), (4.0, 3)])
        assert labels.start_state == 2
        assert labels.jumps == ((4.0, 3),)

    def test_rejects_jump_outside_horizon(self):
        with pytest.raises(ValueError):
            Labels(10.0, 3, 1, ((10.0, 2),))

    def test_anchored_round_trip(self):
        labels = Labels(10.0, 3, 1, ((4.0, 3), (7.0, 2)))
        seq = labels.to_anchored()
        assert seq.initial_state == 1
        assert Labels.from_anchored(seq, 10.0, 3) == labels

    def test_metric_default_is_discrete(self):
        assert DISCRETE.d(1, 1) == 0.0
        assert DISCRETE.d(1, 2) == 1.0

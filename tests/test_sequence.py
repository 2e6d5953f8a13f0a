import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stateseq import (
    DISCRETE,
    Labels,
    LtsParams,
    NoiseModel,
    Segmentation,
    StateSequence,
    TableMetric,
    accuracy,
    duration_penalty,
    extend,
    generate_noisy_labels,
    lts_distance,
    lts_measure,
    segments,
    standard_distance,
)
from stateseq.measures import _extension
from stateseq.sequence import TIME_MERGE_TOL, _columns

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

    def test_states_used_is_computed_once_and_leaves_equality_alone(self):
        seq = StateSequence(3, ((1.0, 1), (2.0, 3), (4.0, 2)))
        fresh = StateSequence.from_pairs(3, [(1.0, 1), (2.0, 3), (4.0, 2)])
        sliced = StateSequence(5, ((0.5, 3), *seq.jumps))._slice(1, 4)
        assert seq.states_used == (1, 2, 3) and seq.states_used is seq.states_used
        assert sliced.states_used == (1, 2, 3) and StateSequence(4).states_used == (4,)
        assert seq == fresh == sliced and hash(seq) == hash(fresh) == hash(sliced)
        assert repr(seq) == repr(fresh) and seq != StateSequence(3, ((1.0, 1), (2.0, 3)))

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
    events = seq.events()
    assert StateSequence.from_pairs(events[0].state, [(e.start, e.state) for e in events[1:]]) == seq


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

    @pytest.mark.parametrize("bad", [INF, math.nan])
    def test_rejects_non_finite_distances(self, bad):
        # inf passes the triangle check and NaN would only fail as asymmetric;
        # both are named for what they are.
        with pytest.raises(ValueError, match="finite"):
            TableMetric([[0, bad, bad], [bad, 0, bad], [bad, bad, 0]])
        with pytest.raises(ValueError, match="finite"):
            TableMetric([[0, 1], [1, bad]])


class TestLabels:
    def test_jump_zero_overrides_start(self):
        labels = Labels.from_pairs(10.0, 3, 1, [(0.0, 2), (4.0, 3)])
        assert labels.start_state == 2
        assert labels.jumps == ((4.0, 3),)

    def test_rejects_jump_outside_horizon(self):
        with pytest.raises(ValueError):
            Labels(10.0, 3, 1, ((10.0, 2),))

    def test_rejects_infinite_horizon(self):
        # format_labels would write '# horizon: inf', which parse_labels rejects.
        with pytest.raises(ValueError, match="finite"):
            Labels(INF, 3, 1, ((1.0, 2),))
        with pytest.raises(ValueError, match="finite"):
            Labels.from_pairs(INF, 3, 1, [(1.0, 2)])
        with pytest.raises(ValueError, match="positive"):
            Labels.from_pairs(math.nan, 3, 1, [(1.0, 2)])

    def test_anchored_round_trip(self):
        labels = Labels(10.0, 3, 1, ((4.0, 3), (7.0, 2)))
        seq = labels.to_anchored()
        assert seq.initial_state == 1
        assert Labels.from_anchored(seq, 10.0, 3) == labels

    def test_metric_default_is_discrete(self):
        assert DISCRETE.d(1, 1) == 0.0
        assert DISCRETE.d(1, 2) == 1.0


class TestJumpCheck:
    # Both constructors check their jumps by one rule: the times increase
    # strictly inside (lo, hi), (-inf, inf) for a sequence and (0, horizon)
    # for labels, and each state differs from the one before it.
    BUILD = {
        "sequence": (lambda jumps: StateSequence(1, jumps), -INF, INF),
        "labels": (lambda jumps: Labels(10.0, 3, 1, jumps), 0.0, 10.0),
    }

    @pytest.mark.parametrize("kind", sorted(BUILD))
    def test_rejects_times_at_the_ends_or_not_finite(self, kind):
        build, lo, hi = self.BUILD[kind]
        for t in (lo, hi, math.nan, -INF, INF):
            for jumps in (((t, 2),), ((5.0, 2), (t, 3))):
                with pytest.raises(ValueError, match=f"jump time {t} outside"):
                    build(jumps)

    @pytest.mark.parametrize("kind", sorted(BUILD))
    def test_rejects_equal_or_unsorted_times_by_their_order(self, kind):
        build, _, _ = self.BUILD[kind]
        for t in (5.0, 3.0):
            with pytest.raises(ValueError, match=f"strictly increase, got {t} after 5.0"):
                build(((1.0, 3), (5.0, 2), (t, 3)))

    @pytest.mark.parametrize("kind", sorted(BUILD))
    def test_rejects_a_repeated_state(self, kind):
        build, _, _ = self.BUILD[kind]
        for jumps in (((5.0, 1),), ((3.0, 2), (5.0, 2))):
            with pytest.raises(ValueError, match="consecutive states must differ"):
                build(jumps)

    @pytest.mark.parametrize("kind", sorted(BUILD))
    def test_accepts_times_just_inside_the_ends(self, kind):
        build, lo, hi = self.BUILD[kind]
        times = (math.nextafter(lo, hi), 5.0, math.nextafter(hi, lo))
        out = build(tuple(zip(times, (2, 3, 1))))
        assert out._times == times and out._states == (2, 3, 1) and out.jumps == tuple(zip(times, (2, 3, 1)))


# -- the bulk normalisation and segmentation against per-item references -----

LTS = LtsParams(0.6, 0.35)
TABLE = TableMetric([[0, 1, 2], [1, 0, 1.5], [2, 1.5, 0]])
SIZES = (0, 1, 2, 3, 5, 10, 23, 24, 25, 200, 255, 256, 300)


def _per_pair_from_pairs(initial_state, pairs):
    """StateSequence.from_pairs one pair at a time."""
    cleaned = []
    prev_t = -INF
    for t, s in pairs:
        t = float(t)
        s = int(s)
        if t < prev_t:
            raise ValueError(f"jump times must be sorted, got {t} after {prev_t}")
        if cleaned and t - cleaned[-1][0] < TIME_MERGE_TOL:
            cleaned[-1] = (cleaned[-1][0], s)
        else:
            cleaned.append((t, s))
        prev_t = t
    merged = []
    state = initial_state
    for t, s in cleaned:
        if s != state:
            merged.append((t, s))
            state = s
    return StateSequence(initial_state, tuple(merged))


def _per_pair_labels(horizon, n_states, start_state, pairs):
    """Labels.from_pairs one pair at a time."""
    seq_pairs = []
    start = start_state
    for t, s in pairs:
        if t <= 0.0:
            start = int(s)
        elif t < horizon:
            seq_pairs.append((t, s))
    seq = _per_pair_from_pairs(start, seq_pairs)
    return Labels(horizon, n_states, seq.initial_state, seq.jumps)


def _merged_segments(f, g):
    """segments() by a two-pointer merge of the jump times."""
    ft, gt = f.jump_times, g.jump_times
    breaks = []
    pairs = [(f.initial_state, g.initial_state)]
    sf, sg = f.initial_state, g.initial_state
    i = j = 0
    while i < len(ft) or j < len(gt):
        if j >= len(gt) or (i < len(ft) and ft[i] <= gt[j]):
            t = ft[i]
        else:
            t = gt[j]
        if i < len(ft) and ft[i] == t:
            sf = f.jumps[i][1]
            i += 1
        if j < len(gt) and gt[j] == t:
            sg = g.jumps[j][1]
            j += 1
        breaks.append(t)
        pairs.append((sf, sg))
    return Segmentation(tuple(breaks), tuple(pairs))


def _per_segment_standard_distance(f, g, metric):
    if metric.d(f.initial_state, g.initial_state) > 0.0 or metric.d(f.final_state, g.final_state) > 0.0:
        return INF
    seg = _merged_segments(f, g)
    total = 0.0
    for i in range(1, len(seg.pairs) - 1):
        sf, sg = seg.pairs[i]
        if sf != sg:
            total += (seg.breakpoints[i] - seg.breakpoints[i - 1]) * metric.d(sf, sg)
    return total


def _per_segment_lts_distance(f, g, params, metric):
    if metric.d(f.initial_state, g.initial_state) > 0.0 or metric.d(f.final_state, g.final_state) > 0.0:
        return INF
    seg = _merged_segments(f, g)
    total = 0.0
    for i in range(1, len(seg.pairs) - 1):
        sf, sg = seg.pairs[i]
        d = metric.d(sf, sg)
        if d == 0.0:
            continue
        length = seg.breakpoints[i] - seg.breakpoints[i - 1]
        prev_f, prev_g = seg.pairs[i - 1]
        nxt_f, nxt_g = seg.pairs[i + 1]
        flanked = length <= params.sigma and prev_f == prev_g and nxt_f == nxt_g
        total += (params.w if flanked else 1.0) * length * d
    return total


def _per_pair_extended(labels):
    """extend() by the per-pair route."""
    return _per_pair_from_pairs(1, [(0.0, labels.start_state), *labels.jumps, (labels.horizon, 1)])


def _per_gap_penalty(seq, lam, zeta):
    short = 0
    for a, b in zip(seq.jump_times, seq.jump_times[1:]):
        if b - a < zeta:
            short += 1
    return lam * short


def _per_segment_lts_measure(truth, estimate, params, metric):
    dist = _per_segment_lts_distance(_per_pair_extended(truth), _per_pair_extended(estimate), params, metric)
    return math.exp(-dist / truth.horizon - _per_gap_penalty(estimate.to_anchored(), params.lam, params.zeta))


def _per_segment_accuracy(truth, estimate):
    seg = _merged_segments(_per_pair_extended(truth), _per_pair_extended(estimate))
    mismatch = 0.0
    for i in range(1, len(seg.pairs) - 1):
        sf, sg = seg.pairs[i]
        if sf != sg:
            mismatch += seg.breakpoints[i] - seg.breakpoints[i - 1]
    return 1.0 - mismatch / truth.horizon


def _messy_pairs(rng, n, t0=0.0):
    """Sorted (time, state) pairs with sub-tolerance chains, repeated states and numpy scalars."""
    gaps = rng.choice([0.0, 3e-10, 6e-10, 1e-9, 1.1e-9, 0.01, 0.3, 1.0], size=n)
    times = (t0 + rng.uniform(0.0, 1.0) + np.cumsum(gaps)).tolist()
    pairs = []
    for t, s in zip(times, rng.integers(1, 4, size=n).tolist()):
        kind = rng.random()
        pairs.append((np.float64(t), s) if kind < 0.1 else (t, np.int64(s)) if kind < 0.2 else (t, s))
    return pairs


def _spoiled(rng, pairs):
    """The pairs with two times swapped or one time made non-finite."""
    pairs = list(pairs)
    if len(pairs) >= 2 and rng.random() < 0.5:
        i = int(rng.integers(0, len(pairs) - 1))
        (a, s), (b, r) = pairs[i], pairs[i + 1]
        pairs[i], pairs[i + 1] = (b + 1.0, s), (a, r)
    elif pairs:
        i = int(rng.integers(0, len(pairs)))
        pairs[i] = (float(rng.choice([math.nan, INF, -INF])), pairs[i][1])
    return pairs


def _result(fn, *args):
    try:
        out = fn(*args)
    except ValueError as exc:
        return "error", str(exc)
    types = [(type(t), type(s)) for t, s in out.jumps]
    initial = getattr(out, "initial_state", getattr(out, "start_state", None))
    return out, out._times, types, type(initial)


def test_from_pairs_matches_per_pair_route():
    rng = np.random.default_rng(20)
    errors = 0
    for trial in range(800):
        pairs = _messy_pairs(rng, int(rng.choice(SIZES)))
        if trial % 3 == 2:
            pairs = _spoiled(rng, pairs)
        initial = int(rng.integers(1, 4))
        if trial % 5 == 0:
            initial = np.int64(initial)
        got = _result(StateSequence.from_pairs, initial, pairs)
        assert got == _result(_per_pair_from_pairs, initial, pairs)
        errors += got[0] == "error"
        # Labels also drop or fold in pairs outside (0, horizon).
        horizon = float(rng.uniform(0.5, 30.0))
        shifted = [(t - 1.0, s) for t, s in pairs]
        assert _result(Labels.from_pairs, horizon, 3, 1, shifted) == _result(_per_pair_labels, horizon, 3, 1, shifted)
    assert 100 < errors < 400


def test_segments_and_measures_match_per_segment_route():
    rng = np.random.default_rng(21)
    for _ in range(300):
        f_pairs = _messy_pairs(rng, int(rng.choice(SIZES)))
        g_pairs = _messy_pairs(rng, int(rng.choice(SIZES)))
        if f_pairs and rng.random() < 0.5:  # some jump times shared with f
            shared = [(t, int(rng.integers(1, 4))) for t, _ in f_pairs if rng.random() < 0.5]
            g_pairs = sorted(g_pairs + shared, key=lambda p: p[0])
        f = StateSequence.from_pairs(1, f_pairs)
        # Same boundary states, so that the distances are finite.
        end = max([float(t) for t, _ in f_pairs + g_pairs], default=0.0) + 1.0
        g = StateSequence.from_pairs(1, [*g_pairs, (end, f.final_state)])
        assert segments(f, g) == _merged_segments(f, g)
        assert segments(g, f) == _merged_segments(g, f)
        for metric in (DISCRETE, TABLE):
            got = standard_distance(f, g, metric).hex()
            assert got == _per_segment_standard_distance(f, g, metric).hex()
            got = lts_distance(f, g, LTS, metric).hex()
            assert got == _per_segment_lts_distance(f, g, LTS, metric).hex()
        horizon = end + 0.5
        truth = Labels.from_pairs(horizon, 3, 1, f_pairs)
        estimate = Labels.from_pairs(horizon, 3, 2, g_pairs)
        assert accuracy(truth, estimate).hex() == _per_segment_accuracy(truth, estimate).hex()


def test_measures_match_per_segment_route_on_hour_recording():
    # A jump every 10 s for an hour against it under coarse noise: 359 against 4,134 jumps.
    truth = Labels(3600.0, 3, 1, tuple((10.0 * i, i % 3 + 1) for i in range(1, 360)))
    estimate = generate_noisy_labels(truth, NoiseModel(1.0, 0.8, seed=1))
    assert len(estimate.jumps) > 4000
    assert accuracy(truth, estimate).hex() == _per_segment_accuracy(truth, estimate).hex()
    f, g = extend(truth), extend(estimate)
    for metric in (DISCRETE, TABLE):
        got = lts_measure(truth, estimate, LTS, metric).hex()
        assert got == _per_segment_lts_measure(truth, estimate, LTS, metric).hex()
        assert lts_distance(f, g, LTS, metric).hex() == _per_segment_lts_distance(f, g, LTS, metric).hex()
        got = standard_distance(f, g, metric).hex()
        assert got == _per_segment_standard_distance(f, g, metric).hex()


EDGE_LABELS = {
    "first jump near 0": Labels(10.0, 3, 2, ((5e-10, 3), (4.0, 1), (4.5, 2), (7.0, 1))),
    "first jump near 0 from the fill": Labels(10.0, 3, 1, ((1e-9 - 1e-18, 2), (0.5, 3), (1.0, 1))),
    "last jump near the horizon": Labels(10.0, 3, 1, ((3.0, 2), (3.5, 3), (10.0 - 5e-10, 2))),
    "last jump near the horizon to the fill": Labels(10.0, 3, 2, ((2.0, 3), (10.0 - 3e-10, 1))),
    "interior gaps below the tolerance": Labels(
        10.0, 3, 1, ((2.0, 2), (2.0 + 3e-10, 3), (2.0 + 6e-10, 1), (2.5, 2), (2.5 + 9e-10, 3), (3.0, 1))
    ),
    "gaps at the tolerance": Labels(10.0, 3, 1, ((1e-9, 2), (1.0, 3), (1.0 + 1e-9, 2), (10.0 - 1e-9, 3))),
    "no jumps": Labels(10.0, 3, 2),
    "no jumps in the fill state": Labels(10.0, 3, 1),
    "ends in the fill state": Labels(10.0, 3, 1, ((2.0, 2), (2.5, 1))),
}


@pytest.mark.parametrize("name", sorted(EDGE_LABELS))
def test_extension_columns_equal_extend(name):
    labels = EDGE_LABELS[name]
    for fill in (1, 2, 3):
        times, states = _extension(labels, fill)
        want_times, want_states = _columns(extend(labels, fill))
        assert times.tolist() == want_times.tolist() and states == want_states
        assert [type(s) for s in states] == [type(s) for s in want_states]
    ext = extend(labels)
    assert (ext.initial_state, ext.jumps) == (1, _per_pair_extended(labels).jumps)


@pytest.mark.parametrize("name", sorted(EDGE_LABELS))
def test_measures_on_edge_labels_match_per_segment_route(name):
    labels = EDGE_LABELS[name]
    other = Labels(10.0, 3, 2, ((1.0, 1), (1.5, 3), (9.0, 1)))
    for truth, estimate in ((labels, other), (other, labels), (labels, labels)):
        assert accuracy(truth, estimate).hex() == _per_segment_accuracy(truth, estimate).hex()
        for metric in (DISCRETE, TABLE):
            got = lts_measure(truth, estimate, LTS, metric).hex()
            assert got == _per_segment_lts_measure(truth, estimate, LTS, metric).hex()
    # zeta equal to gaps of the labels: a gap of exactly zeta is not short.
    seq = labels.to_anchored()
    gaps = np.diff(seq.jump_times).tolist()
    for zeta in {0.5, 1e-9, *gaps} - {0.0}:
        assert duration_penalty(seq, 0.25, zeta) == _per_gap_penalty(seq, 0.25, zeta)

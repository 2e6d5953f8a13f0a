import math

import numpy as np
import pytest

from stateseq import (
    GtsParams,
    Labels,
    LtsParams,
    StateSequence,
    accuracy,
    duration_penalty,
    extend,
    gts_distance,
    lts_distance,
    lts_measure,
    standard_distance,
)

INF = math.inf


def random_pair(rng, n_states=3, jumps=4, span=10.0, match_ends=True):
    seqs = []
    boundary = int(rng.integers(1, n_states + 1))
    for _ in range(2):
        times = np.sort(rng.uniform(0.5, span, size=jumps))
        states = [boundary]
        for _ in range(jumps):
            nxt = int(rng.integers(1, n_states))
            states.append(nxt if nxt < states[-1] else nxt + 1)
        if match_ends and states[-1] != states[0]:
            if states[-2] != states[0]:
                states[-1] = states[0]
            else:
                states.pop()
                times = times[:-1]
        seqs.append(StateSequence.from_pairs(states[0], zip(times.tolist(), states[1:])))
    return seqs


class TestGtsDistance:
    def test_zero_for_equal(self):
        f = StateSequence(1, ((1.0, 2), (4.0, 1)))
        assert gts_distance(f, f, GtsParams(0.5, 1.0)) == 0.0

    def test_pure_shift_costs_w_times_shift(self):
        # g is f delayed by 0.1; aligning costs w * 0.1, cheaper than the
        # 0.2 of mismatch at zero shift.
        f = StateSequence(1, ((0.0, 2), (1.0, 1)))
        g = StateSequence(1, ((0.1, 2), (1.1, 1)))
        value = gts_distance(f, g, GtsParams(w=0.5, sigma=0.5))
        assert value == pytest.approx(0.05, abs=1e-12)
        assert standard_distance(f, g) == pytest.approx(0.2, abs=1e-12)

    def test_infinite_when_initial_states_differ(self):
        f = StateSequence(1, ((1.0, 2),))
        g = StateSequence(2, ((1.0, 1),))
        assert gts_distance(f, g, GtsParams(0.5, 10.0)) == INF

    def test_never_exceeds_standard_distance(self):
        rng = np.random.default_rng(5)
        params = GtsParams(0.7, 2.0)
        for _ in range(100):
            f, g = random_pair(rng)
            assert gts_distance(f, g, params) <= standard_distance(f, g) + 1e-12

    def test_monotone_in_sigma(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            f, g = random_pair(rng)
            small = gts_distance(f, g, GtsParams(0.7, 0.2))
            large = gts_distance(f, g, GtsParams(0.7, 2.0))
            assert large <= small + 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        params = GtsParams(0.7, math.inf)
        for _ in range(50):
            f, g = random_pair(rng)
            assert gts_distance(f, g, params) == pytest.approx(
                gts_distance(g, f, params), abs=1e-9
            )

    def test_finite_sigma_symmetry_and_identity(self):
        rng = np.random.default_rng(14)
        params = GtsParams(0.7, 0.4)
        for _ in range(50):
            f, g = random_pair(rng)
            d_fg = gts_distance(f, g, params)
            assert d_fg == pytest.approx(gts_distance(g, f, params), abs=1e-9)
            assert (d_fg == 0.0) == (f == g)


class TestLtsDistance:
    PARAMS = LtsParams(w=0.6, sigma=0.35, lam=0.01, zeta=0.5)

    def test_zero_for_equal(self):
        f = StateSequence(1, ((1.0, 2), (4.0, 1)))
        assert lts_distance(f, f, self.PARAMS) == 0.0

    def test_short_flanked_mismatch_is_forgiven(self):
        # Same event, boundary off by 0.2 <= sigma: weighted by w.
        f = StateSequence(0, ((1.0, 1), (2.0, 0)))
        g = StateSequence(0, ((1.2, 1), (2.0, 0)))
        assert lts_distance(f, g, self.PARAMS) == pytest.approx(0.6 * 0.2, abs=1e-12)

    def test_long_mismatch_keeps_full_weight(self):
        f = StateSequence(0, ((1.0, 1), (3.0, 0)))
        g = StateSequence(0, ((1.5, 1), (3.0, 0)))
        assert lts_distance(f, g, self.PARAMS) == pytest.approx(0.5, abs=1e-12)

    def test_mismatch_not_flanked_by_agreement_keeps_full_weight(self):
        # Two adjacent mismatch segments: each fails the neighbour check.
        f = StateSequence(0, ((1.0, 1), (1.2, 2), (1.4, 0)))
        g = StateSequence(0, ((1.0, 2), (1.2, 1), (1.4, 0)))
        assert lts_distance(f, g, self.PARAMS) == pytest.approx(0.4, abs=1e-12)

    def test_infinite_on_unbounded_disagreement(self):
        assert lts_distance(StateSequence(1), StateSequence(2), self.PARAMS) == INF

    def test_symmetry_and_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            f, g = random_pair(rng)
            d_fg = lts_distance(f, g, self.PARAMS)
            assert d_fg == pytest.approx(lts_distance(g, f, self.PARAMS), abs=1e-9)
            assert (d_fg == 0.0) == (f == g)

    def test_reduces_to_standard_distance_at_w_one(self):
        rng = np.random.default_rng(9)
        params = LtsParams(w=1.0, sigma=0.35, lam=0.01, zeta=0.5)
        for _ in range(50):
            f, g = random_pair(rng)
            assert lts_distance(f, g, params) == pytest.approx(
                standard_distance(f, g), abs=1e-9
            )


class TestDurationPenalty:
    def test_zero_when_all_gaps_long(self):
        g = StateSequence(1, ((1.0, 2), (3.0, 1)))
        assert duration_penalty(g, 0.01, 0.5) == 0.0

    def test_counts_short_gaps(self):
        g = StateSequence(1, ((1.0, 2), (1.3, 1), (2.0, 3)))
        assert duration_penalty(g, 0.01, 0.5) == pytest.approx(0.01, abs=1e-15)

    def test_three_violations(self):
        g = StateSequence(1, ((1.0, 2), (1.1, 1), (1.2, 2), (1.3, 1)))
        assert duration_penalty(g, 0.0001, 0.5) == pytest.approx(0.0003, abs=1e-15)

    def test_boundary_gap_not_counted(self):
        # Gap exactly zeta is not a violation (strict inequality).
        g = StateSequence(1, ((1.0, 2), (1.5, 1)))
        assert duration_penalty(g, 0.01, 0.5) == 0.0

    def test_few_jumps(self):
        assert duration_penalty(StateSequence(2), 0.01, 0.5) == 0.0
        assert duration_penalty(StateSequence(2, ((1.0, 1),)), 0.01, 0.5) == 0.0


class TestExtend:
    def test_constant_labels(self):
        labels = Labels(10.0, 3, 2)
        assert extend(labels) == StateSequence(1, ((0.0, 2), (10.0, 1)))

    def test_labels_already_matching_fill(self):
        labels = Labels(10.0, 3, 1, ((4.0, 2), (6.0, 1)))
        assert extend(labels) == StateSequence(1, ((4.0, 2), (6.0, 1)))

    def test_fill_state_does_not_change_lts(self):
        rng = np.random.default_rng(10)
        params = LtsParams(0.6, 0.35, 0.0001, 0.5)
        for _ in range(50):
            f = Labels.from_pairs(
                8.0, 3, 1, [(float(t), int(rng.integers(1, 4))) for t in sorted(rng.uniform(0.1, 7.9, 4))]
            )
            g = Labels.from_pairs(
                8.0, 3, 2, [(float(t), int(rng.integers(1, 4))) for t in sorted(rng.uniform(0.1, 7.9, 4))]
            )
            for fill in (1, 2, 3):
                assert lts_distance(extend(f, fill), extend(g, fill), params) == pytest.approx(
                    lts_distance(extend(f), extend(g), params), abs=1e-12
                )


class TestLtsMeasure:
    PARAMS = LtsParams(w=0.6, sigma=0.35, lam=0.01, zeta=0.5)

    def test_perfect_estimate(self):
        labels = Labels(10.0, 3, 1, ((4.0, 2), (6.0, 1)))
        assert lts_measure(labels, labels, self.PARAMS) == 1.0

    def test_single_short_event_costs_exp_lambda(self):
        labels = Labels(10.0, 3, 1, ((4.0, 2), (4.3, 1)))
        assert lts_measure(labels, labels, self.PARAMS) == pytest.approx(
            math.exp(-0.01), abs=1e-12
        )

    def test_extension_jumps_do_not_count_as_violations(self):
        # One real event close to the recording edges: extension adds jumps
        # at 0 and the horizon, which must not trip the duration penalty.
        labels = Labels(1.0, 3, 2, ((0.7, 3),))
        assert lts_measure(labels, labels, self.PARAMS) == 1.0

    def test_strictly_decreasing_in_violation_count_at_fixed_distance(self):
        # Scoring a sequence against itself pins the distance term to zero,
        # leaving exp(-lambda * violations).
        def with_short_gaps(k):
            pairs = [(1.0 + 0.3 * i, 2 if i % 2 == 0 else 1) for i in range(k + 1)]
            return Labels.from_pairs(10.0, 3, 1, pairs)

        values = [lts_measure(with_short_gaps(k), with_short_gaps(k), self.PARAMS) for k in range(4)]
        assert values[0] == 1.0
        assert all(0.0 < b < a <= 1.0 for a, b in zip(values, values[1:]))
        assert values[2] == pytest.approx(math.exp(-0.02), abs=1e-12)

    def test_horizon_mismatch_rejected(self):
        with pytest.raises(ValueError):
            lts_measure(Labels(10.0, 3, 1), Labels(20.0, 3, 1), self.PARAMS)


class TestAccuracy:
    def test_equal(self):
        labels = Labels(60.0, 3, 1, ((5.0, 2),))
        assert accuracy(labels, labels) == 1.0

    def test_six_seconds_of_sixty(self):
        truth = Labels(60.0, 3, 1)
        est = Labels(60.0, 3, 1, ((10.0, 2), (16.0, 1)))
        assert accuracy(truth, est) == pytest.approx(0.9, abs=1e-12)

    def test_disjoint_constants(self):
        assert accuracy(Labels(60.0, 3, 1), Labels(60.0, 3, 2)) == pytest.approx(0.0, abs=1e-12)


class TestParameterValidation:
    # An infinite weight or penalty turns the eps = 0 term or the LTS
    # exponent into inf * 0 = nan, so it is rejected up front.
    @pytest.mark.parametrize("w", [math.nan, math.inf, -0.1])
    def test_gts_rejects_non_finite_or_negative_w(self, w):
        with pytest.raises(ValueError):
            GtsParams(w=w, sigma=0.35)

    @pytest.mark.parametrize("field", ["w", "lam"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -0.1])
    def test_lts_rejects_non_finite_or_negative_w_and_lambda(self, field, value):
        kwargs = {"w": 0.6, "sigma": 0.35, "lam": 0.0001, "zeta": 0.5, field: value}
        with pytest.raises(ValueError):
            LtsParams(**kwargs)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -0.1])
    def test_duration_penalty_rejects_non_finite_or_negative_lambda(self, lam):
        with pytest.raises(ValueError):
            duration_penalty(StateSequence(1, ((1.0, 2), (1.3, 1))), lam, 0.5)

import math

import numpy as np
import pytest

from stateseq import DISCRETE, GtsParams, StateSequence, TableMetric, gts_distance
from stateseq.oracle import brute_force_project, grid_gts, random_instance, reference_gts

WORKED = StateSequence(0, ((0.2, 1), (0.35, 0), (0.4, 2), (0.55, 3), (0.75, 2)))
BINARY = StateSequence(0, ((0.35, 1), (0.45, 0), (0.55, 1)))


class TestBruteForceProject:
    def test_worked_example_unique_optimum(self):
        res = brute_force_project(WORKED, 0.2)
        assert res.optimal_cost == pytest.approx(0.55, abs=1e-12)
        assert res.optimal_set == (StateSequence(0, ((0.4, 2),)),)

    def test_binary_example_two_optima(self):
        res = brute_force_project(BINARY, 0.2)
        assert res.optimal_cost == pytest.approx(0.3, abs=1e-12)
        assert res.optimal_set == (
            StateSequence(0, ((0.35, 1),)),
            StateSequence(0, ((0.55, 1),)),
        )

    def test_gamma_zero_returns_input(self):
        res = brute_force_project(WORKED, 0.0)
        assert res.optimal_cost == 0.0
        assert res.optimal_set == (WORKED,)

    def test_rejects_oversized_instances(self):
        big = StateSequence.from_pairs(
            1, [(float(i), 1 + i % 2) for i in range(1, 12)]
        )
        with pytest.raises(ValueError):
            brute_force_project(big, 0.5)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    def test_rejects_non_finite_gamma(self, gamma):
        with pytest.raises(ValueError):
            brute_force_project(WORKED, gamma)

    def test_search_space_nontrivial(self):
        res = brute_force_project(WORKED, 0.2)
        assert res.search_space_size > 7  # more candidates than surviving paths


class TestGridGts:
    PARAMS = GtsParams(w=0.5, sigma=0.3)

    def test_zero_for_equal(self):
        f = StateSequence(1, ((1.0, 2), (4.0, 1)))
        assert grid_gts(f, f, self.PARAMS, grid_step=0.01) == 0.0

    def test_sigma_equal_step_evaluates_three_points(self):
        f = StateSequence(1, ((1.0, 2), (4.0, 1)))
        g = StateSequence(1, ((1.25, 2), (4.25, 1)))
        coarse = grid_gts(f, g, self.PARAMS, grid_step=self.PARAMS.sigma)
        candidates = []
        for eps in (-0.3, 0.0, 0.3):
            from stateseq import standard_distance

            candidates.append(standard_distance(f.shifted(eps), g) + self.PARAMS.w * abs(eps))
        assert coarse == pytest.approx(min(candidates), abs=1e-12)

    def test_requires_finite_sigma(self):
        f = StateSequence(1, ((1.0, 2), (4.0, 1)))
        with pytest.raises(ValueError):
            grid_gts(f, f, GtsParams(0.5, math.inf))

    def test_upper_bounds_exact_gts(self):
        rng = np.random.default_rng(12)
        params = GtsParams(w=0.7, sigma=0.5)
        for _ in range(40):
            f, _ = random_instance(rng, max_jumps=5, n_states=3, equal_ends=True)
            g, _ = random_instance(rng, max_jumps=5, n_states=3, equal_ends=True)
            exact = gts_distance(f, g, params)
            coarse = grid_gts(f, g, params, grid_step=1e-3)
            if math.isfinite(exact):
                assert exact <= coarse + 1e-12
                assert coarse - exact <= 1e-3 * (params.w + f.n_jumps + g.n_jumps)


GTS_TABLE = TableMetric([[0, 1, 1.7, 2.3], [1, 0, 1.3, 2.1], [1.7, 1.3, 0, 0.9], [2.3, 2.1, 0.9, 0]])


def _decisecond_sequence(rng, start, end, n_states, n_jumps, span):
    """Jumps on a 0.1 s grid, so many jump pairs share one alignment shift."""
    times = np.sort(np.round(rng.uniform(0.0, span, n_jumps), 1))
    states = rng.integers(1, n_states + 1, size=len(times))
    pairs = list(zip(times.tolist(), states.tolist())) + [(span + 0.5, end)]
    return StateSequence.from_pairs(start, pairs)


class TestReferenceGts:
    """The kink sweep returns the float of the direct evaluation at every shift."""

    @pytest.mark.parametrize("metric,n_states", [(DISCRETE, 3), (GTS_TABLE, 4)], ids=["discrete", "table"])
    @pytest.mark.parametrize("sigma", [0.1, 0.35, 2.0, math.inf])
    @pytest.mark.parametrize("w", [0.0, 0.6])
    def test_equals_reference_on_grid_aligned_jumps(self, metric, n_states, sigma, w):
        rng = np.random.default_rng(41)
        params = GtsParams(w, sigma)
        finite = 0
        for _ in range(60):
            start, end = (int(s) for s in rng.integers(1, n_states + 1, size=2))
            f, g = (_decisecond_sequence(rng, start, end, n_states, int(n), 4.0) for n in rng.integers(0, 11, 2))
            if rng.random() < 0.1:
                g = f.shifted(float(np.round(rng.uniform(-1.0, 1.0), 1)))
            value = gts_distance(f, g, params, metric)
            assert value == reference_gts(f, g, params, metric)
            finite += math.isfinite(value)
        assert finite >= 50

    def test_shift_zero_kinks(self):
        # Both jumps of f meet a jump of g unshifted: four kinks sit at eps = 0.
        f = StateSequence(1, ((1.0, 2), (2.0, 3), (3.0, 1)))
        g = StateSequence(1, ((1.0, 3), (2.0, 2), (3.0, 1)))
        for params in (GtsParams(0.0, 1.5), GtsParams(0.6, 1.0), GtsParams(0.6, math.inf)):
            for metric in (DISCRETE, GTS_TABLE):
                value = gts_distance(f, g, params, metric)
                assert value == reference_gts(f, g, params, metric)

    def test_shift_that_rounds_two_jumps_together(self):
        # Below 2**24 floats lie 2**-29 apart, above it 2**-28: shifted by 0.3
        # or 0.35, f's first two jumps round to one time.  The later state wins.
        t2 = math.nextafter(2.0**24, 0.0)
        t1 = math.nextafter(t2, 0.0)
        f = StateSequence(1, ((t1, 2), (t2, 3), (2.0**24 + 1.0, 1)))
        g = StateSequence(1, ((2.0**24 + 0.3, 3), (2.0**24 + 1.3, 1)))
        assert t1 + 0.35 == t2 + 0.35
        assert f.shifted(0.35).jumps == ((t1 + 0.35, 3), (2.0**24 + 1.35, 1))
        params = GtsParams(0.6, 0.35)
        assert gts_distance(f, g, params) == reference_gts(f, g, params)

    @pytest.mark.parametrize("metric", [DISCRETE, GTS_TABLE], ids=["discrete", "table"])
    def test_equals_reference_on_long_sequences(self, metric):
        rng = np.random.default_rng(42)
        f = _decisecond_sequence(rng, 1, 2, 4, 500, 300.0)
        g = _decisecond_sequence(rng, 1, 2, 4, 500, 300.0)
        assert f.n_jumps > 300 and g.n_jumps > 300
        for params in (GtsParams(0.6, 0.35), GtsParams(0.0, 2.0)):
            assert gts_distance(f, g, params, metric) == reference_gts(f, g, params, metric)


def test_random_instance_respects_bounds():
    rng = np.random.default_rng(13)
    for _ in range(50):
        f, gamma = random_instance(rng, max_jumps=6, n_states=3)
        assert 2 <= f.n_jumps <= 6
        assert gamma > 0
        assert set(f.states_used) <= {1, 2, 3}
    for _ in range(20):
        f, _ = random_instance(rng, max_jumps=6, n_states=2, equal_ends=True)
        assert f.initial_state == f.final_state

import math

import numpy as np
import pytest

from stateseq import (
    Labels,
    LtsParams,
    NoiseModel,
    SweepConfig,
    SweepRow,
    accuracy,
    default_base_labels,
    generate_noisy_labels,
    lts_measure,
    project_labels,
    run_sweep,
)
from stateseq import simulate
from stateseq.simulate import SWEEP_CHUNK, _mean_se


class TestNoiseModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(0.0, 0.1)
        with pytest.raises(ValueError):
            NoiseModel(0.1, -1.0)

    @pytest.mark.parametrize("means", [(math.inf, 0.08), (0.1, math.inf), (math.nan, 0.08)])
    def test_rejects_non_finite_means(self, means):
        # An infinite correct spell would copy the base, an infinite wrong one hold a single state.
        with pytest.raises(ValueError):
            NoiseModel(*means)
        with pytest.raises(ValueError):
            SweepConfig(param="mu2", values=(means[1],), mu1=means[0], replications=1)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed"):
            NoiseModel(0.1, 0.08, seed=-3)
        with pytest.raises(ValueError, match="seed"):
            SweepConfig(param="mu2", values=(0.08,), replications=1, seed=-3)

    @pytest.mark.parametrize("seed", [math.nan, 1.5, "3"])
    def test_rejects_non_integer_seed(self, seed):
        with pytest.raises(ValueError, match="seed"):
            NoiseModel(0.1, 0.08, seed=seed)
        with pytest.raises(ValueError, match="seed"):
            SweepConfig(param="mu2", values=(0.08,), replications=1, seed=seed)

    def test_accepts_numpy_integer_seed(self):
        base = default_base_labels()
        drawn = generate_noisy_labels(base, NoiseModel(0.1, 0.08, seed=np.int64(4)))
        assert drawn == generate_noisy_labels(base, NoiseModel(0.1, 0.08, seed=4))
        # Stored as a Python int, so seed + replication cannot overflow a small numpy type.
        assert type(SweepConfig(param="mu2", values=(0.08,), replications=1, seed=np.uint8(255)).seed) is int

    def test_reproducible(self):
        base = default_base_labels()
        model = NoiseModel(0.1, 0.08, seed=123)
        assert generate_noisy_labels(base, model) == generate_noisy_labels(base, model)

    def test_different_seeds_differ(self):
        base = default_base_labels()
        a = generate_noisy_labels(base, NoiseModel(0.1, 0.08, seed=1))
        b = generate_noisy_labels(base, NoiseModel(0.1, 0.08, seed=2))
        assert a != b

    def test_vanishing_corruption_recovers_base(self):
        base = default_base_labels()
        for seed in range(5):
            noisy = generate_noisy_labels(base, NoiseModel(0.1, 1e-12, seed=seed))
            assert accuracy(base, noisy) > 0.999

    def test_agreement_fraction_matches_renewal_ratio(self):
        base = default_base_labels()
        values = [
            accuracy(base, generate_noisy_labels(base, NoiseModel(0.1, 0.08, seed=s)))
            for s in range(200)
        ]
        mean = sum(values) / len(values)
        se = math.sqrt(sum((v - mean) ** 2 for v in values) / (len(values) - 1) / len(values))
        assert abs(mean - 0.1 / 0.18) <= 3 * se + 0.01

    def test_matches_full_scan_of_base_jumps_on_hour_base(self):
        # A one-hour base with a jump every 10 s, cycling 1 -> 2 -> 3.
        base = Labels(3600.0, 3, 1, tuple((10.0 * i, i % 3 + 1) for i in range(1, 360)))
        for mu_correct, mu_incorrect, seed in ((1.0, 0.8, 1), (0.1, 0.08, 2)):
            model = NoiseModel(mu_correct, mu_incorrect, seed=seed)
            assert generate_noisy_labels(base, model) == _noisy_by_full_scan(base, model)

    @pytest.mark.parametrize(
        "base",
        [
            Labels(20.0, 2, 1, ((5.0, 2), (12.0, 1), (12.5, 2))),
            Labels(20.0, 5, 3, ((2.0, 5), (7.5, 1), (9.0, 4), (15.0, 2))),
            Labels(20.0, 3, 2),
            Labels(0.01, 3, 1, ((0.004, 3),)),  # shorter than most correct spells
            Labels(20.0, 3, 7, ((4.0, 2), (8.0, 0), (13.0, 3))),  # states 7 and 0 lie outside 1..3
        ],
        ids=["two-states", "five-states", "no-jumps", "short-horizon", "outside-states"],
    )
    def test_matches_full_scan_of_base_jumps_on_small_bases(self, base):
        for mu_correct, mu_incorrect in ((0.1, 0.08), (1.0, 0.8), (3.0, 0.5)):
            for seed in range(4):
                model = NoiseModel(mu_correct, mu_incorrect, seed=seed)
                assert generate_noisy_labels(base, model) == _noisy_by_full_scan(base, model)
        if base.horizon < 0.1:  # one spell covers the recording
            assert generate_noisy_labels(base, NoiseModel(1.0, 0.8, seed=0)) == base

    @pytest.mark.parametrize(
        "base",
        [
            Labels(20.0, 2, 1, ((5.0, 2), (12.0, 1))),  # one wrong state: nothing is drawn
            default_base_labels(),  # two
            Labels(20.0, 4, 2, ((3.0, 4), (9.0, 1), (16.0, 3))),  # three, not a power of two
            Labels(20.0, 3, 7, ((4.0, 2), (8.0, 0), (13.0, 3))),  # 7 and 0 lie outside 1..3
            Labels(20.0, 3 * 10**9, 5, ((6.0, 0), (11.0, 3 * 10**9))),  # Lemire rejects ~30% of draws
            Labels(20.0, 2**32, 1, ((4.0, 0), (9.0, 2**32), (14.0, 3))),  # 2**32 - 1 and 2**32 wrong states
            Labels(20.0, 2**32 + 1, 1, ((4.0, 0), (9.0, 2**32 + 1), (14.0, 3))),  # 2**32 and 2**32 + 1
            Labels(20.0, 2**32 + 2, 2, ((7.0, 2**32 + 2), (15.0, 1))),  # 2**32 + 1 and 2**32 + 2
        ],
        ids=["one-wrong", "two-wrong", "three-wrong", "outside-states", "rejections", "32-bit", "2**32", "64-bit"],
    )
    def test_draws_the_same_random_numbers_as_the_full_scan(self, base, monkeypatch):
        # The PCG64 stream is pinned: the same words in the same order as Generator.exponential and
        # Generator.integers(0, k) draw them, so the same labels and the same final generator state.
        generators = []
        default_rng = np.random.default_rng

        def capturing(seed):
            generators.append(default_rng(seed))
            return generators[-1]

        monkeypatch.setattr(simulate.np.random, "default_rng", capturing)
        for seed in range(3):
            model = NoiseModel(0.1, 0.08, seed=seed)
            generators.clear()
            ours = generate_noisy_labels(base, model)
            assert ours == _noisy_by_full_scan(base, model)
            assert len(ours.jumps) > 100
            ours_rng, scan_rng = generators
            # has_uint32 and uinteger are left out: the in-line draw keeps its spare half itself.
            assert ours_rng.bit_generator.state["state"] == scan_rng.bit_generator.state["state"]

    def test_wrong_state_stays_in_alphabet(self):
        base = default_base_labels()
        noisy = generate_noisy_labels(base, NoiseModel(0.5, 0.5, seed=7))
        assert set(s for _, s in noisy.jumps) <= {1, 2, 3}
        assert noisy.horizon == base.horizon


def _noisy_by_full_scan(base, model):
    """generate_noisy_labels as it was written first: every correct spell scans all base jumps."""
    rng = np.random.default_rng(model.seed)
    pairs = []
    t = 0.0
    correct = True
    start_state = None
    while t < base.horizon:
        if correct:
            span = rng.exponential(model.mu_correct)
            if start_state is None:
                start_state = base.state_at(0.0)
            else:
                pairs.append((t, base.state_at(t)))
            end = min(t + span, base.horizon)
            for jt, js in base.jumps:
                if t < jt < end:
                    pairs.append((jt, js))
        else:
            span = rng.exponential(model.mu_incorrect)
            current = base.state_at(t)
            # The states 1..n other than the current one, as ranges: n may exceed 2**32.
            below = range(1, min(max(current, 1), base.n_states + 1))
            above = range(max(current + 1, 1), base.n_states + 1)
            r = int(rng.integers(0, len(below) + len(above)))
            pairs.append((t, below[r] if r < len(below) else above[r - len(below)]))
        t += span
        correct = not correct
    start = base.start_state if start_state is None else start_state
    return Labels.from_pairs(base.horizon, base.n_states, start, pairs)


def _plain_sweep(config):
    """run_sweep's rows, from one replication and one swept value at a time."""
    scores = {value: ([], [], []) for value in config.values}
    for rep in range(config.replications):
        for value, (acc, noisy_lts, pp_lts) in scores.items():
            mu2 = value if config.param == "mu2" else config.mu2
            gamma = value if config.param == "gamma" else config.gamma
            noisy = generate_noisy_labels(config.base, NoiseModel(config.mu1, mu2, seed=config.seed + rep))
            projected, _ = project_labels(noisy, gamma)
            acc.append(accuracy(config.base, noisy))
            noisy_lts.append(lts_measure(config.base, noisy, config.lts))
            pp_lts.append(lts_measure(config.base, projected, config.lts))
    return tuple(
        SweepRow(config.param, value, *_mean_se(acc), *_mean_se(noisy_lts), *_mean_se(pp_lts))
        for value, (acc, noisy_lts, pp_lts) in scores.items()
    )


class TestSweep:
    PARAMS = LtsParams(0.6, 0.35, 0.0001, 0.5)

    @pytest.mark.parametrize("param, values", [("gamma", (0.1, 0.5, 2.0)), ("mu2", (0.05, 0.08))])
    def test_chunked_sweep_matches_plain_loop(self, param, values):
        # Two chunks, the second one short.
        config = SweepConfig(param=param, values=values, replications=SWEEP_CHUNK + 3, lts=self.PARAMS, seed=11)
        assert run_sweep(config) == _plain_sweep(config)

    def test_deterministic(self):
        config = SweepConfig(
            param="mu2", values=(0.05, 0.08), replications=20, lts=self.PARAMS, seed=9
        )
        assert run_sweep(config) == run_sweep(config)

    def test_row_shape_and_ranges(self):
        config = SweepConfig(param="mu2", values=(0.05,), replications=15, lts=self.PARAMS)
        rows = run_sweep(config)
        assert len(rows) == 1
        row = rows[0]
        assert row.param == "mu2" and row.value == 0.05
        assert 0.0 <= row.mean_accuracy_noisy <= 1.0
        assert 0.0 < row.mean_lts_noisy <= 1.0
        assert 0.0 < row.mean_lts_pp <= 1.0
        assert row.se_accuracy >= 0.0

    def test_accuracy_degrades_in_mu2(self):
        config = SweepConfig(
            param="mu2", values=(0.01, 0.09), replications=120, lts=self.PARAMS, seed=3
        )
        rows = run_sweep(config)
        assert rows[0].mean_accuracy_noisy > rows[1].mean_accuracy_noisy

    def test_scoring_only_sweep_matches_naive_loop(self):
        # w only affects scoring; the cached path must equal recomputing.
        cached = run_sweep(
            SweepConfig(param="w", values=(0.3, 0.9), replications=10, lts=self.PARAMS, seed=5)
        )
        naive = [
            run_sweep(
                SweepConfig(
                    param="mu2",
                    values=(0.08,),
                    replications=10,
                    lts=LtsParams(w, 0.35, 0.0001, 0.5),
                    seed=5,
                )
            )[0]
            for w in (0.3, 0.9)
        ]
        for row_c, row_n in zip(cached, naive):
            assert row_c.mean_lts_noisy == row_n.mean_lts_noisy
            assert row_c.mean_lts_pp == row_n.mean_lts_pp

    def test_single_replication_has_zero_se(self):
        config = SweepConfig(param="gamma", values=(0.5,), replications=1, lts=self.PARAMS)
        row = run_sweep(config)[0]
        assert row.se_accuracy == 0.0 and row.se_lts_pp == 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(param="sigma", values=(0.1,))
        with pytest.raises(ValueError):
            SweepConfig(param="mu2", values=())
        with pytest.raises(ValueError):
            SweepConfig(param="mu2", values=(0.1,), replications=0)

    def test_custom_base(self):
        base = Labels(10.0, 2, 1, ((5.0, 2),))
        config = SweepConfig(param="mu2", values=(0.5,), base=base, replications=5, lts=self.PARAMS)
        rows = run_sweep(config)
        assert len(rows) == 1

"""Monte Carlo study of noisy classifier output and its post-processing.

Noisy labels alternate between following a base sequence for an
exponentially distributed spell and holding a uniformly drawn wrong state
for another; the two means control how fragmented the result is.  The sweep
harness draws many replications, scores them before and after projection,
and tabulates means with standard errors, reproducibly from a single seed.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .measures import LtsParams, accuracy, lts_measure
from .projection import project_many
from .sequence import INF, Labels, StateSequence

RNG_ALGORITHM = "numpy PCG64 (default_rng), per-replication seed = seed + replication index"

# Replications drawn, projected and scored together by run_sweep.  Sharing
# table builds pays little past about 32 draws (3-gamma projection of 60 s
# study draws on a 2-vCPU Xeon VM: 5.3 ms a draw alone, 2.9 in batches of 8,
# 2.7 of 32, 2.5 of 128), while each draw held costs 0.15-0.2 MiB: a
# 1,000-replication sweep peaks at 45 MiB in chunks of 32, 176 MiB in one.
SWEEP_CHUNK = 32


def _set_seed(config) -> None:
    """Store ``config.seed`` as a Python int; ValueError unless ``operator.index`` takes it and it is >= 0.

    A numpy integer seed would otherwise overflow in ``seed + replication``.
    """
    try:
        seed = operator.index(config.seed)
    except TypeError:
        raise ValueError(f"seed must be an integer, not {config.seed!r}") from None
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    object.__setattr__(config, "seed", seed)  # the dataclass is frozen


@dataclass(frozen=True)
class NoiseModel:
    """Exponential alternation between correct and incorrect spells.

    ``mu_correct`` and ``mu_incorrect`` are the mean durations (seconds) of
    the spells following the base labels and of the spells spent in a
    uniformly drawn wrong state.
    """

    mu_correct: float
    mu_incorrect: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not all(math.isfinite(mu) and mu > 0 for mu in (self.mu_correct, self.mu_incorrect)):
            raise ValueError("spell means must be finite and positive")
        _set_seed(self)


def generate_noisy_labels(base: Labels, model: NoiseModel) -> Labels:
    """Corrupt base labels with the alternating spell model.

    Spells are drawn as correct, incorrect, correct, ... until they cover
    the horizon (the last one is clipped).  The wrong state is drawn
    uniformly from the other states 1..n_states at the spell's start and
    held for the whole spell even if the base moves on meanwhile.  One
    forward index walks the base jumps; the result is ``Labels.from_pairs``
    of the pairs (spell start, its state) and of the base jumps inside each
    correct spell, so the pairs at t = 0 set the start state.

    It reads the same PCG64 words, in the same order, as calls of
    ``Generator.exponential`` per spell and ``Generator.integers(0, k)`` per
    wrong state (checked on numpy 2.4.6), copying the latter for k <= 2**32.
    """
    rng = np.random.default_rng(model.seed)
    exponential, integers, random_raw = rng.exponential, rng.integers, rng.bit_generator.random_raw
    spare = None  # the unused high half of the last word read by a 32-bit draw
    mu_correct, mu_incorrect = model.mu_correct, model.mu_incorrect
    horizon, n = base.horizon, base.n_states
    base_times = [*map(float, base._times), INF]  # INF: past every spell
    base_states = [int(base.start_state), *map(int, base._states)]  # the state after i jumps
    times: list[float] = []
    states: list[int] = []
    i, t, correct = 0, 0.0, True
    while t < horizon:
        while base_times[i] <= t:
            i += 1
        current = base_states[i]
        times.append(t)
        if correct:
            span = exponential(mu_correct)
            states.append(current)
            end, first = min(t + span, horizon), i
            while base_times[i] < end:
                i += 1
            if i > first:
                times += base_times[first:i]
                states += base_states[first + 1 : i + 1]
        else:
            span = exponential(mu_incorrect)
            k = n - (0 < current <= n)  # the states 1..n other than the current one
            r = int(integers(0, k)) if k > 1 << 32 else 0
            while 1 < k <= 1 << 32:  # integers(0, k) in-line: Lemire's method on 32-bit halves
                x, spare = spare, None
                if x is None:  # a fresh word: its low half now, its high half next time
                    x, spare = (word := random_raw()) & 0xFFFFFFFF, word >> 32
                m = x * k
                if m & 0xFFFFFFFF >= ((1 << 32) - k) % k:  # else the draw is rejected and made again
                    r = m >> 32
                    break
            r += 1  # the r-th of those states
            states.append(r + (r >= current > 0))
        t += span
        correct = not correct
    k = bisect_right(times, 0.0)  # the pairs at t = 0; the last of them is the start state
    return Labels._within(horizon, n, StateSequence._from_columns(states[k - 1], times[k:], states[k:]))


def default_base_labels() -> Labels:
    """The 60 s three-state sequence used by the bundled simulation study."""
    return Labels(
        horizon=60.0,
        n_states=3,
        start_state=1,
        jumps=((5.0, 2), (15.0, 3), (30.0, 2), (40.0, 3), (55.0, 1)),
    )


SWEEPABLE = ("mu2", "gamma", "w", "lambda")


@dataclass(frozen=True)
class SweepConfig:
    """One-parameter sweep around fixed noise/projection/scoring settings."""

    param: str
    values: tuple[float, ...]
    base: Labels = field(default_factory=default_base_labels)
    replications: int = 1000
    mu1: float = 0.1
    mu2: float = 0.08
    gamma: float = 0.5
    lts: LtsParams = LtsParams()
    seed: int = 0

    def __post_init__(self) -> None:
        if self.param not in SWEEPABLE:
            raise ValueError(f"unknown sweep parameter {self.param!r}; pick one of {SWEEPABLE}")
        if not self.values:
            raise ValueError("need at least one swept value")
        if self.replications < 1:
            raise ValueError("need at least one replication")
        _set_seed(self)
        self._settings()

    def _settings(self) -> list[tuple[float, float, LtsParams]]:
        """(mu2, gamma, LTS settings) of each swept value; ValueError if one is invalid."""
        out = []
        for value in self.values:
            mu2 = value if self.param == "mu2" else self.mu2
            gamma = value if self.param == "gamma" else self.gamma
            lts = self.lts
            if self.param == "w":
                lts = LtsParams(value, lts.sigma, lts.lam, lts.zeta)
            elif self.param == "lambda":
                lts = LtsParams(lts.w, lts.sigma, value, lts.zeta)
            NoiseModel(self.mu1, mu2)  # validates the spell means
            if not (math.isfinite(gamma) and gamma >= 0):
                raise ValueError("gamma must be finite and nonnegative")
            out.append((mu2, gamma, lts))
        return out


@dataclass(frozen=True)
class SweepRow:
    param: str
    value: float
    mean_accuracy_noisy: float
    se_accuracy: float
    mean_lts_noisy: float
    se_lts_noisy: float
    mean_lts_pp: float
    se_lts_pp: float


def _mean_se(values: list[float]) -> tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var / n)


def run_sweep(config: SweepConfig) -> tuple[SweepRow, ...]:
    """Score noisy and post-processed labels across the swept values.

    Replications go in chunks of ``SWEEP_CHUNK``, and within a chunk the
    stages run in order: every replication is drawn and anchored once per
    mu2, the draws of one mu2 projected together once per (mu2, gamma), by
    :func:`project_many`, and then scored, once per (mu2, LTS settings) before
    projection and once per swept value after.  A gamma sweep thus draws,
    anchors and scores the noisy labels once per replication, not per value.
    Per-replication seeds do not depend on the swept value or on the
    chunking, and each value's scores are kept in replication order.
    """
    base = config.base
    settings = config._settings()
    acc: list[list[float]] = [[] for _ in settings]
    lts_noisy: list[list[float]] = [[] for _ in settings]
    lts_pp: list[list[float]] = [[] for _ in settings]
    for start in range(0, config.replications, SWEEP_CHUNK):
        reps = range(start, min(start + SWEEP_CHUNK, config.replications))
        draws: dict[float, tuple[list[Labels], list[StateSequence]]] = {}
        projections: dict[tuple[float, float], list[Labels]] = {}
        noisy_scores: dict[tuple[float, LtsParams], list[tuple[float, float]]] = {}
        for i, (mu2, gamma, lts) in enumerate(settings):
            if mu2 not in draws:
                models = (NoiseModel(config.mu1, mu2, seed=config.seed + rep) for rep in reps)
                noisy = [generate_noisy_labels(base, model) for model in models]
                draws[mu2] = noisy, [x.to_anchored() for x in noisy]  # one anchored view for every gamma
            noisy, anchored = draws[mu2]
            if (mu2, gamma) not in projections:
                projections[mu2, gamma] = [
                    Labels.from_anchored(res.projected, x.horizon, x.n_states)
                    for res, x in zip(project_many(anchored, gamma), noisy)
                ]
            if (mu2, lts) not in noisy_scores:
                noisy_scores[mu2, lts] = [(accuracy(base, x), lts_measure(base, x, lts)) for x in noisy]
            for (noisy_acc, noisy_lts), projected in zip(noisy_scores[mu2, lts], projections[mu2, gamma]):
                acc[i].append(noisy_acc)
                lts_noisy[i].append(noisy_lts)
                lts_pp[i].append(lts_measure(base, projected, lts))

    rows = []
    for i, value in enumerate(config.values):
        m_acc, se_acc = _mean_se(acc[i])
        m_noisy, se_noisy = _mean_se(lts_noisy[i])
        m_pp, se_pp = _mean_se(lts_pp[i])
        rows.append(SweepRow(config.param, value, m_acc, se_acc, m_noisy, se_noisy, m_pp, se_pp))
    return tuple(rows)

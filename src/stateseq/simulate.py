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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from .measures import LtsParams, accuracy, lts_measure
from .projection import project_many
from .sequence import Labels

RNG_ALGORITHM = "numpy PCG64 (default_rng), per-replication seed = seed + replication index"

# Replications drawn, projected and scored together by run_sweep.  Sharing
# table builds stops paying at about 32 draws (3-gamma projection of 60 s
# study draws on a 2-vCPU Xeon VM: 11.1 ms a draw alone, 6.1 in batches of 8,
# 5.5 in batches of 32 or 128), while each draw held costs 0.15-0.2 MiB: a
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
    uniformly from the other states at the spell's start and held for the
    whole spell even if the base moves on meanwhile.
    """
    rng = np.random.default_rng(model.seed)
    horizon = base.horizon
    times = [jt for jt, _ in base.jumps]
    pairs: list[tuple[float, int]] = []
    t = 0.0
    correct = True
    while t < horizon:
        if correct:
            span = rng.exponential(model.mu_correct)
            pairs.append((t, base.state_at(t)))  # at t = 0 it restates the start state
            end = min(t + span, horizon)
            pairs.extend(base.jumps[bisect_right(times, t) : bisect_left(times, end)])
        else:
            span = rng.exponential(model.mu_incorrect)
            current = base.state_at(t)
            others = [s for s in range(1, base.n_states + 1) if s != current]
            wrong = others[int(rng.integers(0, len(others)))]
            pairs.append((t, wrong))
        t += span
        correct = not correct
    return Labels.from_pairs(horizon, base.n_states, base.start_state, pairs)


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
    stages run in order: every replication is drawn once per mu2, all the
    draws of one mu2 are projected together once per (mu2, gamma), by
    :func:`project_many`, and then scored, once per (mu2, LTS settings) before
    projection and once per swept value after.  A gamma sweep thus draws and
    scores the noisy labels once per replication, not once per value.
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
        draws: dict[float, list[Labels]] = {}
        projections: dict[tuple[float, float], list[Labels]] = {}
        noisy_scores: dict[tuple[float, LtsParams], list[tuple[float, float]]] = {}
        for i, (mu2, gamma, lts) in enumerate(settings):
            if mu2 not in draws:
                models = (NoiseModel(config.mu1, mu2, seed=config.seed + rep) for rep in reps)
                draws[mu2] = [generate_noisy_labels(base, model) for model in models]
            noisy = draws[mu2]
            if (mu2, gamma) not in projections:
                projections[mu2, gamma] = [
                    Labels.from_anchored(res.projected, x.horizon, x.n_states)
                    for res, x in zip(project_many([x.to_anchored() for x in noisy], gamma), noisy)
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

"""Monte Carlo study of noisy classifier output and its post-processing.

Noisy labels alternate between following a base sequence for an
exponentially distributed spell and holding a uniformly drawn wrong state
for another; the two means control how fragmented the result is.  The sweep
harness draws many replications, scores them before and after projection,
and tabulates means with standard errors, reproducibly from a single seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .measures import LtsParams, accuracy, lts_measure
from .projection import project_labels
from .sequence import Labels

RNG_ALGORITHM = "numpy PCG64 (default_rng), per-replication seed = seed + replication index"


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
        if not (self.mu_correct > 0 and self.mu_incorrect > 0):
            raise ValueError("spell means must be positive")


def generate_noisy_labels(base: Labels, model: NoiseModel) -> Labels:
    """Corrupt base labels with the alternating spell model.

    Spells are drawn as correct, incorrect, correct, ... until they cover
    the horizon (the last one is clipped).  The wrong state is drawn
    uniformly from the other states at the spell's start and held for the
    whole spell even if the base moves on meanwhile.
    """
    rng = np.random.default_rng(model.seed)
    horizon = base.horizon
    pairs: list[tuple[float, int]] = []
    t = 0.0
    correct = True
    start_state: int | None = None
    while t < horizon:
        if correct:
            span = rng.exponential(model.mu_correct)
            if start_state is None:
                start_state = base.state_at(0.0)
            else:
                pairs.append((t, base.state_at(t)))
            end = min(t + span, horizon)
            for jt, js in base.jumps:
                if t < jt < end:
                    pairs.append((jt, js))
        else:
            span = rng.exponential(model.mu_incorrect)
            current = base.state_at(t)
            others = [s for s in range(1, base.n_states + 1) if s != current]
            wrong = others[int(rng.integers(0, len(others)))]
            pairs.append((t, wrong))
        t += span
        correct = not correct
    start = base.start_state if start_state is None else start_state
    return Labels.from_pairs(horizon, base.n_states, start, pairs)


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

    Replications run on the outside and swept values on the inside.
    Per-replication seeds do not depend on the swept value, so within one
    replication each stage runs once per distinct input it depends on: the
    noisy draw per mu2, its projection per (mu2, gamma) and its scores per
    (mu2, LTS settings).  A gamma sweep thus draws and scores the noisy
    labels once per replication, not once per value.
    """
    base = config.base
    settings = config._settings()
    acc: list[list[float]] = [[] for _ in settings]
    lts_noisy: list[list[float]] = [[] for _ in settings]
    lts_pp: list[list[float]] = [[] for _ in settings]
    for rep in range(config.replications):
        draws: dict[float, Labels] = {}
        projections: dict[tuple[float, float], Labels] = {}
        noisy_scores: dict[tuple[float, LtsParams], tuple[float, float]] = {}
        for i, (mu2, gamma, lts) in enumerate(settings):
            if mu2 not in draws:
                draws[mu2] = generate_noisy_labels(base, NoiseModel(config.mu1, mu2, seed=config.seed + rep))
            noisy = draws[mu2]
            if (mu2, gamma) not in projections:
                projections[mu2, gamma] = project_labels(noisy, gamma)[0]
            if (mu2, lts) not in noisy_scores:
                noisy_scores[mu2, lts] = (accuracy(base, noisy), lts_measure(base, noisy, lts))
            noisy_acc, noisy_lts = noisy_scores[mu2, lts]
            acc[i].append(noisy_acc)
            lts_noisy[i].append(noisy_lts)
            lts_pp[i].append(lts_measure(base, projections[mu2, gamma], lts))

    rows = []
    for i, value in enumerate(config.values):
        m_acc, se_acc = _mean_se(acc[i])
        m_noisy, se_noisy = _mean_se(lts_noisy[i])
        m_pp, se_pp = _mean_se(lts_pp[i])
        rows.append(SweepRow(config.param, value, m_acc, se_acc, m_noisy, se_noisy, m_pp, se_pp))
    return tuple(rows)

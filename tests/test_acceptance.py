"""Acceptance suite: statistical guarantees, reductions, and end-to-end behavior.

Each test prints a ``criterion N`` line so a full run doubles as a checklist.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from kgconformal import conformal, verify
from kgconformal.experiment import ExperimentConfig, prepare_run, run_single
from kgconformal.metrics import efficiency_rate
from kgconformal.scores import aps_scores, raps_scores

from gradcheck import TOL, check_bce, check_transe

PHI_GRID = (20, 50, 100)
GAMMA_GRID = (0.01, 0.1, 0.5)
N_SEEDS = 5


def report(criterion: int, text: str) -> None:
    print(f"[PASS] criterion {criterion}: {text}")


def imbalanced_config() -> ExperimentConfig:
    """Imbalanced synthetic KG: one rich clean predicate, tiers of noisier ones."""
    return ExperimentConfig(
        synthetic={
            "n_entities": 100,
            "n_predicates": 6,
            "triple_counts": [500, 150, 150, 75, 75, 75],
            "noise_rates": [0.02, 0.3, 0.3, 0.25, 0.25, 0.25],
            "n_clusters": 3,
            "rules": [[0, 1], [1, 2], [2, 0], [0, 1], [0, 1], [0, 1]],
        },
        model_kind="transe",
        dim=16,
        epochs=100,
        lr=0.05,
        negatives=5,
        epsilons=[0.1],
        gamma=0.05,
        phi=20,
        seeds=list(range(N_SEEDS)),
    )


@pytest.fixture(scope="module")
def synthetic_runs():
    """Per-seed data and method reports for the imbalanced synthetic experiment."""
    config = imbalanced_config()
    start = time.monotonic()
    runs = []
    for seed in config.seeds:
        data = prepare_run(config, seed)
        reports = {r.method: r for r in run_single(config, seed, data=data)}
        runs.append((seed, data, reports))
    elapsed = time.monotonic() - start
    return config, runs, elapsed


class TestCriterion1:
    def test_quantile_matches_oracle(self):
        start = time.monotonic()
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(1, 300))
            values = np.round(rng.normal(size=n), 2)  # rounding forces ties
            eps = float(rng.uniform(0.005, 0.995))
            ordered = sorted(values.tolist())
            k = math.ceil((n + 1) * (1 - eps))
            expect = math.inf if k > n else ordered[k - 1]
            assert conformal.quantile(values, eps) == expect
        elapsed = time.monotonic() - start
        assert elapsed < 5.0
        report(1, f"1000 quantile instances match the order-statistic oracle in {elapsed:.1f}s")


class TestCriterion2:
    def test_marginal_coverage_band(self):
        start = time.monotonic()
        result = verify.marginal_coverage_check(n_cal=99, epsilon=0.1, seed=0)
        elapsed = time.monotonic() - start
        assert result.passed, result.details
        assert elapsed < 60.0
        report(2, result.details)


class TestCriterion3:
    def test_conditional_coverage_bounds(self):
        start = time.monotonic()
        result = verify.conditional_coverage_check(
            gammas=(0.0, 0.5, 1.0), epsilon=0.1, n_resamples=300, part_size=200, seed=1,
        )
        elapsed = time.monotonic() - start
        assert result.passed, result.details
        assert elapsed < 300.0
        report(3, f"{result.details} in {elapsed:.0f}s")


class TestCriterion4:
    def test_shrinkage_condition_and_reporting(self):
        result = verify.shrinkage_check(seed=2)
        assert result.passed, result.details
        assert math.isfinite(result.stats["sigma_bar_mean"])
        report(4, result.details)

    def test_csr_and_sigma_reported_on_synthetic_runs(self, synthetic_runs):
        _, runs, _ = synthetic_runs
        for _, _, reports in runs:
            cond = reports["condkgcp"]
            assert cond.csr is not None and 0.0 <= cond.csr <= 1.0
            assert cond.sigma_bar is not None and cond.sigma_bar > 0.0
        report(4, "CSR and mean set-size ratio reported for every synthetic seed")


class TestCriterion5:
    def test_ef_reference_arithmetic(self):
        ef = efficiency_rate(0.030, 19.56, 0.096, 132.36)
        assert ef == pytest.approx(-17.09, abs=0.01)
        report(5, f"EF({0.030}, {19.56} | {0.096}, {132.36}) = {ef:.4f}")


class TestCriterion6:
    def test_partition_invariants_random_instances(self):
        start = time.monotonic()
        rng = np.random.default_rng(3)
        for _ in range(200):
            n_pred = int(rng.integers(2, 20))
            counts = rng.integers(0, 60, size=n_pred)
            if counts.max() == 0:
                counts[0] = 1
            calib = np.repeat(np.arange(n_pred), counts)
            vectors = rng.normal(size=(n_pred, int(rng.integers(2, 8))))
            phi = int(rng.integers(1, counts.max() + 1))
            partition = conformal.build_partition(calib, vectors, phi)
            partition.validate(n_pred)  # disjoint cover of all predicates
            for part in partition.parts:
                assert counts[part].sum() >= phi
        elapsed = time.monotonic() - start
        assert elapsed < 10.0
        report(6, f"200 partition instances are disjoint covers with >= phi pairs in {elapsed:.1f}s")

    def test_all_rich_yields_singletons(self):
        calib = np.repeat(np.arange(6), 30)
        vectors = np.random.default_rng(4).normal(size=(6, 3))
        partition = conformal.build_partition(calib, vectors, phi=10)
        assert partition.parts == [[r] for r in range(6)]
        report(6, "all-rich vocabulary maps to singleton parts")


class TestCriterion7:
    def test_condkgcp_reduces_to_part_mcp(self):
        rng = np.random.default_rng(5)
        n_entities = 50
        preds = np.repeat([0, 1, 2], 40)
        nonconf = rng.uniform(size=120)
        rng.integers(1, 20, size=120)  # unused draw; pins the stream for the draws below
        ranks = np.full(120, n_entities)  # every answer at rank |E|: rank cutoff |E|, miscoverage 0
        partition = conformal.build_partition(preds, rng.normal(size=(3, 4)), phi=30)
        cond = conformal.fit_condkgcp(preds, nonconf, ranks, partition, 0.1, gamma=0.0)
        star = conformal.fit_part_mcp(preds, nonconf, partition, 0.1, n_entities)
        for g in range(len(partition.parts)):
            assert cond.per_part[g].rank_cutoff == star.per_part[g].rank_cutoff == n_entities
            assert cond.per_part[g].rank_miscoverage == star.per_part[g].rank_miscoverage == 0.0
        for _ in range(50):
            r = int(rng.integers(3))
            vec = rng.uniform(size=n_entities)
            cand = rng.permutation(n_entities) + 1
            a = conformal.predict_set(cond, r, vec, cand)
            b = conformal.predict_set(star, r, vec, cand)
            assert np.array_equal(a, b)
        report(7, "condkgcp(gamma=0, rank cutoff |E|) equals part-level mcp pointwise")

    def test_raps_lambda_zero_is_aps(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            raw = rng.normal(size=int(rng.integers(2, 40)))
            u = float(rng.random())
            assert np.array_equal(raps_scores(raw, u, 0.0, 5), aps_scores(raw, u))
        report(7, "raps(lambda=0) equals aps pointwise")

    def test_mcp_single_predicate_is_kgcp(self):
        rng = np.random.default_rng(7)
        scores_cal = rng.uniform(size=80)
        mcp = conformal.fit_mcp(np.zeros(80, dtype=int), scores_cal, 0.15, n_predicates=1)
        kgcp = conformal.fit_kgcp(scores_cal, 0.15)
        for _ in range(50):
            vec = rng.uniform(size=30)
            a = conformal.predict_set(mcp, 0, vec)
            b = conformal.predict_set(kgcp, 0, vec)
            assert np.array_equal(a, b)
        report(7, "mcp on single-predicate data equals kgcp pointwise")


class TestCriterion8:
    def test_gradients_match_finite_differences(self):
        """The batched loss/gradient functions that ``models.train`` calls, on batches of 4 rows."""
        start = time.monotonic()
        rng = np.random.default_rng(8)
        for trial in range(50):
            kind = ("transe", "distmult", "complex")[trial % 3]
            if kind == "transe":
                check_transe(rng, p=1 + trial % 2, margin=10.0)
            else:
                check_bce(rng, kind, first_label=float(trial % 2))
        elapsed = time.monotonic() - start
        assert elapsed < 10.0
        report(8, f"50 finite-difference gradient instances within rel {TOL:g} in {elapsed:.1f}s")


class TestCriterion9:
    def test_condkgcp_beats_baselines_across_seeds(self, synthetic_runs):
        config, runs, elapsed = synthetic_runs
        wins = 0
        for seed, _, reports in runs:
            kgcp, mcp, cond = reports["kgcp"], reports["mcp"], reports["condkgcp"]
            wins += int(cond.covgap < kgcp.covgap and cond.avesize < mcp.avesize)
        assert wins >= 4, f"only {wins}/{N_SEEDS} seeds improved on both baselines"
        assert elapsed < 600.0
        report(9, f"condkgcp beat kgcp CovGap and mcp AveSize in {wins}/{N_SEEDS} seeds "
                  f"({elapsed:.0f}s total)")


class TestCriterion10:
    def test_phi_sweep_shrinks_avesize(self, synthetic_runs):
        config, runs, _ = synthetic_runs
        monotone = 0
        for seed, data, _ in runs:
            sizes = []
            for phi in PHI_GRID:
                rep = next(r for r in run_single(replace(config, phi=phi), seed, data=data)
                           if r.method == "condkgcp")
                sizes.append(rep.avesize)
            monotone += int(all(a >= b - 1e-9 for a, b in zip(sizes, sizes[1:])))
        assert monotone >= 4, f"phi sweep monotone in only {monotone}/{N_SEEDS} seeds"
        report(10, f"AveSize nonincreasing over phi {PHI_GRID} in {monotone}/{N_SEEDS} seeds")

    def test_gamma_sweep_grows_avesize(self, synthetic_runs):
        config, runs, _ = synthetic_runs
        monotone = 0
        for seed, data, _ in runs:
            sizes = []
            for gamma in GAMMA_GRID:
                rep = next(r for r in run_single(replace(config, gamma=gamma), seed, data=data)
                           if r.method == "condkgcp")
                sizes.append(rep.avesize)
            monotone += int(all(a <= b + 1e-9 for a, b in zip(sizes, sizes[1:])))
        assert monotone >= 4, f"gamma sweep monotone in only {monotone}/{N_SEEDS} seeds"
        report(10, f"AveSize nondecreasing over gamma {GAMMA_GRID} in {monotone}/{N_SEEDS} seeds")

import math

import numpy as np
import pytest

from kgconformal.conformal import (
    CalibratedModel,
    build_partition,
    fit_condkgcp,
    fit_kgcp,
    fit_mcp,
    fit_part_mcp,
    predict_set,
    quantile,
    rank_threshold,
    verify_shrinkage,
)


def oracle_quantile(values, epsilon):
    """Independent order-statistic oracle: full sort, direct index."""
    values = sorted(values)
    n = len(values)
    k = math.ceil((n + 1) * (1 - epsilon))
    return math.inf if k > n else values[k - 1]


class TestQuantile:
    def test_nine_scores(self):
        assert quantile(list(range(1, 10)), 0.1) == 9

    def test_small_sample_overflow(self):
        assert quantile([1, 2, 3], 0.1) == math.inf

    def test_singleton(self):
        assert quantile([5.0], 0.5) == 5.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            quantile([], 0.1)

    def test_epsilon_zero_is_inf(self):
        assert quantile([1.0, 2.0], 0.0) == math.inf

    def test_matches_oracle_randomized(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(1, 200))
            values = rng.normal(size=n)
            eps = float(rng.uniform(0.01, 0.99))
            assert quantile(values, eps) == oracle_quantile(values.tolist(), eps)

    def test_monotone_in_epsilon(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=50)
        eps = np.sort(rng.uniform(0.01, 0.99, size=10))
        thresholds = [quantile(values, e) for e in eps]
        assert all(a >= b for a, b in zip(thresholds, thresholds[1:]))


class TestFitKgcpMcp:
    def test_kgcp_threshold(self):
        model = fit_kgcp(list(range(1, 10)), 0.1)
        assert model.global_threshold == 9

    def test_kgcp_single_point(self):
        assert fit_kgcp([3.0], 0.1).global_threshold == math.inf

    def test_kgcp_constant_scores(self):
        assert fit_kgcp([2.0] * 40, 0.1).global_threshold == 2.0

    def test_mcp_per_predicate_pools(self):
        preds = [0] * 9 + [1] * 9
        scores = list(range(1, 10)) + list(range(10, 19))
        model = fit_mcp(preds, scores, 0.1, n_predicates=2)
        assert model.per_predicate == {0: 9, 1: 18}

    def test_mcp_sparse_predicate_inf(self):
        model = fit_mcp([0], [1.0], 0.1, n_predicates=2)
        assert model.per_predicate[0] == math.inf
        assert model.per_predicate[1] == math.inf
        assert model.warnings

    def test_mcp_single_predicate_equals_kgcp(self):
        rng = np.random.default_rng(2)
        scores = rng.normal(size=30)
        mcp = fit_mcp(np.zeros(30, dtype=int), scores, 0.2, n_predicates=1)
        kgcp = fit_kgcp(scores, 0.2)
        assert mcp.per_predicate[0] == kgcp.global_threshold


class TestPartition:
    def vectors(self, rows):
        return np.array(rows, dtype=float)

    def test_all_rich_gives_singletons(self):
        calib = [0] * 5 + [1] * 5 + [2] * 5
        partition = build_partition(calib, self.vectors([[0], [1], [2]]), phi=3)
        assert partition.parts == [[0], [1], [2]]

    def test_one_rich_absorbs_all(self):
        calib = [0] * 10 + [1, 2]
        partition = build_partition(calib, self.vectors([[0], [5], [9]]), phi=5)
        assert partition.parts == [[0, 1, 2]]

    def test_manhattan_similarity_choice(self):
        calib = [0] * 5 + [1] * 5 + [2]
        vectors = self.vectors([[0, 0], [10, 10], [1, 1]])
        partition = build_partition(calib, vectors, phi=4)
        assert partition.part_of[2] == partition.part_of[0]

    def test_tie_breaks_to_lowest_index(self):
        calib = [0] * 5 + [1] * 5 + [2]
        vectors = self.vectors([[0.0], [2.0], [1.0]])  # equidistant from both rich seeds
        partition = build_partition(calib, vectors, phi=4)
        assert partition.part_of[2] == partition.part_of[0]

    def test_phi_too_large_rejected(self):
        with pytest.raises(ValueError, match="phi exceeds"):
            build_partition([0, 0, 1], self.vectors([[0], [1]]), phi=5)

    def test_random_instances_are_valid_partitions(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            n_pred = int(rng.integers(2, 15))
            counts = rng.integers(0, 40, size=n_pred)
            if counts.max() == 0:
                continue
            calib = np.repeat(np.arange(n_pred), counts)
            vectors = rng.normal(size=(n_pred, 4))
            phi = int(rng.integers(1, counts.max() + 1))
            partition = build_partition(calib, vectors, phi)
            partition.validate(n_pred)
            for part in partition.parts:
                assert counts[part].sum() >= phi


class TestRankThreshold:
    def test_small_example(self):
        k_hat, misc = rank_threshold([1, 1, 1, 2], 0.1)
        assert (k_hat, misc) == (2, 0.0)

    def test_all_rank_one(self):
        assert rank_threshold([1] * 7, 0.3) == (1, 0.0)

    def test_uniform_ranks(self):
        k_hat, misc = rank_threshold(list(range(1, 11)), 0.25)
        assert (k_hat, misc) == (8, 0.2)

    def test_miscoverage_strictly_below_epsilon(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            ranks = rng.integers(1, 30, size=int(rng.integers(1, 80)))
            eps = float(rng.uniform(0.05, 0.5))
            k_hat, misc = rank_threshold(ranks, eps)
            assert misc < eps
            assert k_hat >= 1
            # k_hat is minimal: one step down violates the target
            if k_hat > 1:
                smaller = float(np.count_nonzero(ranks > k_hat - 1) / ranks.size)
                assert smaller >= eps


class TestCondKGCP:
    def setup_data(self, seed=5, n=60):
        rng = np.random.default_rng(seed)
        preds = np.repeat([0, 1], n // 2)
        nonconf = rng.uniform(size=n)
        ranks = rng.integers(1, 10, size=n)
        partition = build_partition(preds, np.array([[0.0], [1.0]]), phi=10)
        return preds, nonconf, ranks, partition

    def test_gamma_zero_threshold_matches_part_mcp(self):
        preds, nonconf, ranks, partition = self.setup_data()
        cond = fit_condkgcp(preds, nonconf, ranks, partition, 0.1, gamma=0.0)
        star = fit_part_mcp(preds, nonconf, partition, 0.1, n_entities=100)
        for g in cond.per_part:
            assert cond.per_part[g].score_threshold == star.per_part[g].score_threshold

    def test_zero_rank_miscoverage_keeps_epsilon(self):
        preds, nonconf, _, partition = self.setup_data()
        ranks = np.ones(len(preds), dtype=int)  # perfect ranker
        cond = fit_condkgcp(preds, nonconf, ranks, partition, 0.1, gamma=0.9)
        for pc in cond.per_part.values():
            assert pc.adjusted_epsilon == pytest.approx(0.1)

    def test_adjusted_epsilon_arithmetic(self):
        # eps 0.1, gamma 0.5, rank miscoverage 0.04 -> adjusted 0.08
        preds = np.zeros(50, dtype=int)
        ranks = np.array([1] * 48 + [5, 5])  # misc at k=1 is 0.04 < 0.1
        nonconf = np.linspace(0, 1, 50)
        partition = build_partition(preds, np.array([[0.0]]), phi=10)
        cond = fit_condkgcp(preds, nonconf, ranks, partition, 0.1, gamma=0.5)
        pc = cond.per_part[0]
        assert pc.rank_miscoverage == pytest.approx(0.04)
        assert pc.adjusted_epsilon == pytest.approx(0.1 - 0.5 * 0.04)

    def test_invalid_gamma(self):
        preds, nonconf, ranks, partition = self.setup_data()
        with pytest.raises(ValueError):
            fit_condkgcp(preds, nonconf, ranks, partition, 0.1, gamma=1.5)


class TestPredictSet:
    def test_kgcp_threshold_filter(self):
        model = CalibratedModel(method="kgcp", epsilon=0.1, global_threshold=0.5)
        members = predict_set(model, 0, np.array([0.1, 0.4, 0.6, 0.9]))
        assert members.tolist() == [0, 1]

    def test_inf_threshold_includes_everything_unmasked(self):
        model = CalibratedModel(method="kgcp", epsilon=0.1, global_threshold=math.inf)
        members = predict_set(model, 0, np.array([0.1, 0.9, 0.5]), filter_mask={1})
        assert members.tolist() == [0, 2]

    def test_condkgcp_dual_filter(self):
        preds = np.zeros(30, dtype=int)
        partition = build_partition(preds, np.array([[0.0]]), phi=10)
        model = fit_condkgcp(preds, np.linspace(0, 1, 30), np.ones(30, dtype=int), partition, 0.1, 0.0)
        model.per_part[0].score_threshold = 0.5
        model.per_part[0].rank_cutoff = 3
        nonconf = np.array([0.1, 0.4, 0.6, 0.9])
        ranks = np.array([1, 2, 3, 4])
        members = predict_set(model, 0, nonconf, ranks)
        assert members.tolist() == [0, 1]

    def test_condkgcp_inf_threshold_top_k(self):
        preds = np.zeros(30, dtype=int)
        partition = build_partition(preds, np.array([[0.0]]), phi=10)
        model = fit_condkgcp(preds, np.linspace(0, 1, 30), np.ones(30, dtype=int), partition, 0.1, 0.0)
        model.per_part[0].score_threshold = math.inf
        model.per_part[0].rank_cutoff = 3
        nonconf = np.array([0.9, 0.1, 0.5, 0.2, 0.7])
        ranks = np.array([5, 1, 3, 2, 4])
        members = predict_set(model, 0, nonconf, ranks)
        assert members.tolist() == [1, 2, 3]

    def test_condkgcp_subset_of_part_mcp_at_gamma_zero(self):
        # with gamma=0 the score filters coincide, so the added rank filter
        # can only shrink the set
        rng = np.random.default_rng(6)
        preds = np.repeat([0, 1], 40)
        nonconf = rng.uniform(size=80)
        ranks = rng.integers(1, 20, size=80)
        partition = build_partition(preds, np.array([[0.0], [3.0]]), phi=20)
        cond = fit_condkgcp(preds, nonconf, ranks, partition, 0.2, gamma=0.0)
        star = fit_part_mcp(preds, nonconf, partition, 0.2, n_entities=50)
        for _ in range(10):
            vec = rng.uniform(size=50)
            cand_ranks = rng.permutation(50) + 1
            cond_set = set(predict_set(cond, 0, vec, cand_ranks).tolist())
            star_set = set(predict_set(star, 0, vec, cand_ranks).tolist())
            assert cond_set <= star_set

    def test_nested_sets_in_epsilon(self):
        rng = np.random.default_rng(7)
        scores = rng.uniform(size=200)
        vec = rng.uniform(size=40)
        small = predict_set(fit_kgcp(scores, 0.05), 0, vec)
        large = predict_set(fit_kgcp(scores, 0.3), 0, vec)
        assert set(large.tolist()) <= set(small.tolist())


class TestSerialization:
    def test_round_trip_condkgcp(self):
        rng = np.random.default_rng(8)
        preds = np.repeat([0, 1, 2], 20)
        nonconf = rng.uniform(size=60)
        ranks = rng.integers(1, 8, size=60)
        partition = build_partition(preds, rng.normal(size=(3, 2)), phi=5)
        model = fit_condkgcp(preds, nonconf, ranks, partition, 0.1, gamma=0.5)
        restored = CalibratedModel.from_json(model.to_json())
        assert restored.method == "condkgcp"
        assert restored.partition.parts == model.partition.parts
        for g, pc in model.per_part.items():
            assert restored.per_part[g].score_threshold == pc.score_threshold
            assert restored.per_part[g].rank_cutoff == pc.rank_cutoff

    def test_inf_encoded_as_string(self):
        model = fit_kgcp([1.0], 0.1)
        assert '"inf"' in model.to_json()
        assert CalibratedModel.from_json(model.to_json()).global_threshold == math.inf


class TestShrinkage:
    def test_sigma_one_when_filters_coincide(self):
        rng = np.random.default_rng(9)
        preds = np.zeros(50, dtype=int)
        nonconf = rng.uniform(size=50)
        partition = build_partition(preds, np.array([[0.0]]), phi=10)
        cond = fit_condkgcp(preds, nonconf, np.full(50, 30), partition, 0.1, gamma=0.0)
        star = fit_part_mcp(preds, nonconf, partition, 0.1, n_entities=30)
        assert cond.per_part[0].rank_cutoff == star.per_part[0].rank_cutoff == 30
        assert cond.per_part[0].rank_miscoverage == star.per_part[0].rank_miscoverage == 0.0
        queries = [(0, rng.uniform(size=30), rng.permutation(30) + 1, set()) for _ in range(10)]
        report = verify_shrinkage(cond, star, iter(queries))
        assert report.sigma_per_part[0] == pytest.approx(1.0)
        assert report.csr == 1.0

    def test_rank_filter_halves_candidates(self):
        preds = np.zeros(50, dtype=int)
        nonconf = np.linspace(0.0, 0.5, 50)
        partition = build_partition(preds, np.array([[0.0]]), phi=10)
        cond = fit_condkgcp(preds, nonconf, np.full(50, 10), partition, 0.1, gamma=0.0)
        star = fit_part_mcp(preds, nonconf, partition, 0.1, n_entities=20)
        assert cond.per_part[0].rank_cutoff == 10
        assert cond.per_part[0].rank_miscoverage == 0.0
        assert star.per_part[0].rank_cutoff == 20
        # all 20 candidates pass the score filter; ranks 1..20 so cutoff 10 keeps half
        queries = [(0, np.zeros(20), np.arange(1, 21), set()) for _ in range(5)]
        report = verify_shrinkage(cond, star, iter(queries))
        assert report.sigma_per_part[0] == pytest.approx(0.5)

    def test_empty_part_skipped(self):
        rng = np.random.default_rng(10)
        preds = np.repeat([0, 1], 30)
        nonconf = rng.uniform(size=60)
        partition = build_partition(preds, np.array([[0.0], [1.0]]), phi=10)
        cond = fit_condkgcp(preds, nonconf, np.ones(60, dtype=int), partition, 0.1, gamma=0.0)
        star = fit_part_mcp(preds, nonconf, partition, 0.1, n_entities=20)
        queries = [(0, rng.uniform(size=20), rng.permutation(20) + 1, set())]
        report = verify_shrinkage(cond, star, iter(queries))
        assert 1 in report.skipped_parts

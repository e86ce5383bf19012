import math

import numpy as np
import pytest

from kgconformal.conformal import (
    CalibratedModel,
    PartCalibration,
    build_partition,
    fit_condkgcp,
    fit_kgcp,
    fit_mcp,
    fit_part_mcp,
    predict_set,
    prop1_bounds,
    quantile,
    query_filters,
    rank_threshold,
    set_outcomes,
    verify_shrinkage,
)

from kgconformal.scores import raps_scores

from rank_oracle import candidate_ranks


def thresholds(model):
    return {g: pc.score_threshold for g, pc in model.per_part.items()}


def pooled_score_only(threshold):
    """A kgcp-shaped model: one pooled part with a score threshold and no rank filter."""
    return CalibratedModel(method="kgcp", epsilon=0.1, per_part={0: PartCalibration(None, 0.0, 0.1, threshold, 1, threshold)})


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
        assert model.partition is None
        assert model.per_part[0].rank_cutoff is None
        assert thresholds(model) == {0: 9}

    def test_kgcp_single_point(self):
        assert thresholds(fit_kgcp([3.0], 0.1)) == {0: math.inf}

    def test_kgcp_constant_scores(self):
        assert thresholds(fit_kgcp([2.0] * 40, 0.1)) == {0: 2.0}

    def test_mcp_per_predicate_pools(self):
        preds = [0] * 9 + [1] * 9
        scores = list(range(1, 10)) + list(range(10, 19))
        model = fit_mcp(preds, scores, 0.1, n_predicates=2)
        assert model.partition.parts == [[0], [1]]
        assert thresholds(model) == {0: 9, 1: 18}
        assert all(pc.rank_cutoff is None for pc in model.per_part.values())

    def test_mcp_sparse_predicate_inf(self):
        model = fit_mcp([0], [1.0], 0.1, n_predicates=2)
        assert thresholds(model) == {0: math.inf, 1: math.inf}
        assert model.warnings

    def test_mcp_single_predicate_equals_kgcp(self):
        rng = np.random.default_rng(2)
        scores = rng.normal(size=30)
        mcp = fit_mcp(np.zeros(30, dtype=int), scores, 0.2, n_predicates=1)
        kgcp = fit_kgcp(scores, 0.2)
        assert thresholds(mcp) == thresholds(kgcp)


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

    def test_prop1_bounds_arithmetic(self):
        # eps 0.1, gamma 0.5, rank miscoverage 0.04, 9 calibration pairs
        lower, upper = prop1_bounds(0.1, 0.5, 0.04, 9)
        assert lower == pytest.approx(1 - 0.1 - 0.5 * 0.04)
        assert upper == pytest.approx(1 - 0.1 + 0.5 * 0.04 + 0.1)
        assert prop1_bounds(0.1, 0.0, 0.0, 9) == pytest.approx((0.9, 1.0))


class TestPredictSet:
    def test_kgcp_threshold_filter(self):
        model = pooled_score_only(0.5)
        members = predict_set(model, 0, np.array([0.1, 0.4, 0.6, 0.9]))
        assert members.tolist() == [0, 1]

    def test_inf_threshold_includes_everything_unmasked(self):
        model = pooled_score_only(math.inf)
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

    def test_condkgcp_without_ranks_rejected(self):
        preds = np.zeros(30, dtype=int)
        partition = build_partition(preds, np.array([[0.0]]), phi=10)
        model = fit_condkgcp(preds, np.linspace(0, 1, 30), np.ones(30, dtype=int), partition, 0.1, 0.0)
        with pytest.raises(ValueError, match="requires candidate ranks"):
            predict_set(model, 0, np.array([0.1, 0.4]))

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


class TestSetOutcomes:
    """The blocked (size, hit) pass against predict_set with candidate ranks."""

    @pytest.mark.parametrize("method", ["kgcp", "mcp", "part-mcp", "condkgcp"])
    def test_sizes_and_hits_equal_predict_set(self, method):
        rng = np.random.default_rng(12)
        n_entities, n_predicates, n_queries = 12, 4, 60
        preds = np.repeat([0, 1, 2], 20)  # predicate 3 has no calibration pairs
        nonconf_true = rng.integers(0, 5, size=60) / 4
        # part of predicate 0 gets a small cutoff, the others one at least the unmasked count
        ranks_true = np.where(preds == 0, rng.integers(1, 4, size=60), rng.integers(10, 13, size=60))
        partition = build_partition(preds, np.array([[0.0], [5.0], [9.0], [5.5]]), phi=5)
        model = {
            "kgcp": lambda: fit_kgcp(nonconf_true, 0.2),
            "mcp": lambda: fit_mcp(preds, nonconf_true, 0.2, n_predicates),
            "part-mcp": lambda: fit_part_mcp(preds, nonconf_true, partition, 0.2, n_entities),
            "condkgcp": lambda: fit_condkgcp(preds, nonconf_true, ranks_true, partition, 0.2, gamma=0.5),
        }[method]()

        raw = rng.integers(-2, 3, size=(n_queries, n_entities)).astype(float)  # tied scores
        nonconf = rng.integers(0, 7, size=(n_queries, n_entities)) / 4  # ties with the thresholds
        predicates = rng.integers(0, n_predicates, size=n_queries)
        answers = rng.integers(0, n_entities, size=n_queries)
        masks = [set(rng.choice(n_entities, size=rng.integers(0, 6), replace=False).tolist()) - {int(a)}
                 for a in answers]
        masked = raw.copy()
        for i, mask in enumerate(masks):
            masked[i, list(mask)] = -np.inf
        thresholds_, cutoffs = query_filters(model, predicates, n_entities)
        rows = np.arange(n_queries)  # one pair per query row
        sizes, hits = set_outcomes(nonconf, masked, thresholds_[None, :], cutoffs[None, :], rows,
                                   nonconf[rows, answers], raw[rows, answers], masked[rows, answers] == -np.inf)

        for i, mask in enumerate(masks):
            members = predict_set(model, int(predicates[i]), nonconf[i], candidate_ranks(raw[i], mask), mask)
            assert sizes[0, i] == members.size
            assert hits[0, i] == (answers[i] in members)
        unmasked = n_entities - np.array([len(m) for m in masks])
        if method == "mcp":
            assert np.any(thresholds_ == math.inf)
        if method == "condkgcp":
            assert np.any(cutoffs < unmasked) and np.any(cutoffs >= unmasked)
        assert 0 < sizes.sum() < masked.size and 0 < hits.sum() < n_queries

    def test_raps_row_with_underflowed_ties_is_compared_entity_by_entity(self):
        """RAPS orders entities whose probability underflows to 0 by index and penalises them by position, so their
        nonconformity differs at one raw score and no raw-score cut gives their sets: each pair's row is compared
        whole, and equals predict_set."""
        raw = np.array([[5.0, -1000.0, 0.0, -1000.0, -1000.0, 4.0]] * 2)
        nonconf = np.array([raps_scores(row, 0.3, lam=0.2, k_reg=1) for row in raw])
        tied = raw[0] == -1000.0
        assert np.unique(nonconf[0, tied]).size == tied.sum()  # p = 0 on each, one nonconformity each
        masks = [{0}, set()]  # the first row filtered, its answer masked; the second raw
        answers, masked = np.array([0, 3]), raw.copy()
        masked[0, 0] = -np.inf
        thresholds_ = np.array([[nonconf[0, 3], nonconf[1, 3]], [np.nan, 1.1], [math.inf, nonconf[1, 4]]])
        cutoffs = np.array([[6, 6], [2, 5], [4, 3]])
        rows = np.arange(2)
        sizes, hits = set_outcomes(nonconf, masked, thresholds_, cutoffs, rows, nonconf[rows, answers],
                                   raw[rows, answers], masked[rows, answers] == -np.inf)
        for f, (t, k) in enumerate(zip(thresholds_, cutoffs)):
            for i, mask in enumerate(masks):
                own = mask - {answers[i]}
                model = CalibratedModel("condkgcp", 0.1, {0: PartCalibration(int(k[i]), 0.0, 0.1, t[i], 1, t[i])})
                members = predict_set(model, 0, nonconf[i], candidate_ranks(raw[i], own), own)
                assert sizes[f, i] == members.size
                assert hits[f, i] == (answers[i] in members)
        assert 0 < sizes.sum() and 0 < hits.sum() < hits.size


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

    @pytest.mark.parametrize("method", ["kgcp", "mcp", "part-mcp", "condkgcp"])
    def test_round_trip_predicts_same(self, method):
        rng = np.random.default_rng(11)
        n_entities, n_predicates = 30, 4
        preds = np.repeat([0, 1, 2], 20)  # predicate 3 has no calibration pairs
        nonconf = rng.uniform(size=60)
        ranks = rng.integers(1, 8, size=60)
        partition = build_partition(preds, rng.normal(size=(n_predicates, 2)), phi=5)
        model = {
            "kgcp": lambda: fit_kgcp(nonconf, 0.1),
            "mcp": lambda: fit_mcp(preds, nonconf, 0.1, n_predicates),
            "part-mcp": lambda: fit_part_mcp(preds, nonconf, partition, 0.1, n_entities),
            "condkgcp": lambda: fit_condkgcp(preds, nonconf, ranks, partition, 0.1, gamma=0.5),
        }[method]()
        if method == "mcp":
            assert model.per_part[3].score_threshold == math.inf
            assert model.warnings
        restored = CalibratedModel.from_json(model.to_json())
        assert restored == model
        needs_ranks = method in ("part-mcp", "condkgcp")  # kgcp and mcp predict without ranks
        for _ in range(20):
            r = int(rng.integers(n_predicates))
            vec = rng.uniform(size=n_entities)
            cand = rng.permutation(n_entities) + 1 if needs_ranks else None
            mask = set(rng.choice(n_entities, size=3, replace=False).tolist())
            assert np.array_equal(predict_set(restored, r, vec, cand, mask), predict_set(model, r, vec, cand, mask))

    def test_inf_encoded_as_string(self):
        model = fit_kgcp([1.0], 0.1)
        assert '"inf"' in model.to_json()
        assert thresholds(CalibratedModel.from_json(model.to_json())) == {0: math.inf}


def shrinkage_of(cond, star, queries):
    """verify_shrinkage on the set sizes predict_set gives each (predicate, nonconf, ranks, mask) query."""
    sizes = [[predict_set(model, *query).size for query in queries] for model in (cond, star)]
    return verify_shrinkage(cond.partition, [query[0] for query in queries], *sizes)


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
        report = shrinkage_of(cond, star, queries)
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
        report = shrinkage_of(cond, star, queries)
        assert report.sigma_per_part[0] == pytest.approx(0.5)

    def test_empty_part_skipped(self):
        rng = np.random.default_rng(10)
        preds = np.repeat([0, 1], 30)
        nonconf = rng.uniform(size=60)
        partition = build_partition(preds, np.array([[0.0], [1.0]]), phi=10)
        cond = fit_condkgcp(preds, nonconf, np.ones(60, dtype=int), partition, 0.1, gamma=0.0)
        star = fit_part_mcp(preds, nonconf, partition, 0.1, n_entities=20)
        queries = [(0, rng.uniform(size=20), rng.permutation(20) + 1, set())]
        report = shrinkage_of(cond, star, queries)
        assert 1 in report.skipped_parts

import re
import tracemalloc

import numpy as np
import pytest

from kgconformal import conformal, experiment, models, scores
from kgconformal.experiment import (
    ExperimentConfig,
    calibrate,
    evaluate,
    load_or_generate_kg,
    prepare_run,
    prepare_test,
    run_experiment,
    run_single,
    tune_condkgcp,
)
from kgconformal.kg import DIRECTIONS, KGError, Query, QueryAnswerSet, filter_masks, make_queries, rank_of
from kgconformal.metrics import EF_FAILURE
from kgconformal.models import ModelScores, score

import tune_oracle
from score_rows import in_memory


def tiny_config(**kw):
    base = dict(
        synthetic={"n_entities": 40, "n_predicates": 3, "triple_counts": [150, 80, 40],
                   "noise_rates": 0.2, "n_clusters": 4},
        model_kind="distmult",
        dim=8,
        epochs=10,
        batch_size=64,
        epsilons=[0.1],
        gamma=0.1,
        phi=10,
        seeds=[0],
    )
    base.update(kw)
    return ExperimentConfig(**base)


def trained_model(config, seed=0):
    """The model :func:`prepare_run` trains for ``config`` and ``seed`` when given none."""
    return models.train(load_or_generate_kg(config, seed), config.model_kind, config.train_config(seed),
                        dim=config.dim, norm=config.transe_norm)


class TestConfig:
    def test_needs_data_source(self):
        with pytest.raises(ValueError, match="dataset path"):
            ExperimentConfig()

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            tiny_config(methods=["kgcp", "bogus"])

    def test_empty_lists_rejected(self):
        with pytest.raises(ValueError):
            tiny_config(epsilons=[])

    @pytest.mark.parametrize("setting, message", [
        ({"epsilons": [0.1, 0.0]}, "epsilon must be in (0, 1), got [0.1, 0.0]"),
        ({"gamma": 1.5}, "gamma must be in [0, 1], got 1.5"),
        ({"phi": 0}, "phi must be >= 1, got 0"),
        ({"scorer": {"kind": "raps", "raps_k_reg": 0}}, "raps_k_reg must be >= 1"),
        ({"synthetic": {"n_predicates": 2, "triple_counts": [10]}}, "need one triple count per predicate"),
        ({"synthetic": {"noise_rates": [0.1, 0.2]}}, "noise_rates must hold one rate per predicate (5), got 2"),
    ], ids=["epsilon-zero", "gamma", "phi", "raps-k-reg", "synthetic", "synthetic-noise"])
    def test_rejects_what_calibration_would_reject(self, setting, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            tiny_config(**setting)

    def test_scorer_rng_seed_is_rejected_at_load(self):
        """Each seed draws its own APS/RAPS stream; a config may not pin them all to one."""
        with pytest.raises(ValueError, match=re.escape("scorer has unknown keys: rng_seed")):
            ExperimentConfig.from_dict({"synthetic": {}, "scorer": {"kind": "aps", "rng_seed": 3}})
        config = tiny_config(scorer={"kind": "aps"})
        assert config.scorer_config(5) == scores.ScorerConfig(kind="aps", rng_seed=5) != config.scorer_config(0)

    def test_json_round_trip(self, tmp_path):
        config = tiny_config(methods=["kgcp"], epsilons=[0.05, 0.2])
        (tmp_path / "config.json").write_text(config.to_json(), encoding="utf-8")
        assert ExperimentConfig.load(tmp_path / "config.json") == config

    def test_load_names_a_file_that_is_not_json(self, tmp_path):
        bad = tmp_path / "config.json"
        bad.write_text('{"epochs": 3,}', encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{bad}: Expecting property name enclosed in double quotes")):
            ExperimentConfig.load(bad)

    def test_load_applies_overrides_before_validating(self, tmp_path):
        """A file that is incomplete alone (no data source) loads once the overrides complete it."""
        path = tmp_path / "config.json"
        path.write_text('{"epochs": 3}', encoding="utf-8")
        with pytest.raises(ValueError, match="dataset path"):
            ExperimentConfig.load(path)
        config = ExperimentConfig.load(path, dataset="data/manifest.json", seeds=[4])
        assert (config.epochs, config.dataset, config.seeds) == (3, "data/manifest.json", [4])


class TestPrepareRun:
    def test_arrays_consistent(self):
        config = tiny_config()
        model = trained_model(config)
        data = prepare_run(config, 0, model=model)
        n_cal, n_test = len(data.calib.pairs), len(data.test.pairs)
        assert data.calib_nonconf.shape == (n_cal,)
        assert data.calib_ranks.shape == (n_cal,)
        assert data.test_rows.shape == (n_test,)
        # one CSR slice per score row; filtered, a test pair's row masks its answer too
        assert data.mask_indptr.shape == (len(data.score_rows.queries) + 1,)
        for row, a in zip(data.test_rows.tolist(), data.test.answer.tolist()):
            assert a in data.mask_indices[data.mask_indptr[row] : data.mask_indptr[row + 1]]
        assert isinstance(data.score_rows, ModelScores) and data.score_rows.n_entities == 40
        rows = np.empty((n_test, 40))
        data.score_rows.fill(data.test_rows, rows)
        for row, (d, a, p) in zip(rows, data.test.queries().tolist()):
            assert np.array_equal(row, score(model, Query(DIRECTIONS[d], a, p)))
        assert np.all(data.calib_ranks >= 1)
        assert data.predicate_vectors.shape[0] == 3

    def test_deterministic(self):
        config = tiny_config()
        a = prepare_run(config, 0)
        b = prepare_run(config, 0)
        assert np.array_equal(a.calib_nonconf, b.calib_nonconf)
        assert np.array_equal(a.calib_ranks, b.calib_ranks)

    def test_score_matrix_width_must_match_kg(self):
        config = tiny_config()
        model = trained_model(config)
        data = prepare_run(config, 0, model=model)
        matrix = in_memory(ModelScores(model, data.calib, data.test))
        matrix.scores = matrix.scores[:, :-1]
        with pytest.raises(KGError, match="^score matrix: 39 score columns, but the KG has 40 entities$"):
            prepare_run(config, 0, score_matrix=matrix, model=model)

    @pytest.mark.parametrize("filtered", [True, False], ids=["filtered", "raw"])
    @pytest.mark.parametrize("kind", ["softmax", "aps"])
    def test_calibration_equals_the_per_pair_oracle(self, monkeypatch, kind, filtered):
        """Each calibration pair's nonconformity and rank equal the per-pair primitives, on tied scores."""
        config = tiny_config(scorer={"kind": kind}, filtered=filtered)
        model = trained_model(config)
        trained = prepare_run(config, 0, model=model)
        matrix = in_memory(ModelScores(model, trained.calib, trained.test))
        matrix.scores = np.round(matrix.scores)  # a few distinct values per row: ties everywhere
        monkeypatch.setattr(experiment, "EVAL_BLOCK_ROWS", 7)
        data = prepare_run(config, 0, score_matrix=matrix, model=model)
        known = np.concatenate([data.kg.splits[name] for name in ("train", "valid", "test")])
        indptr, indices = filter_masks(matrix.queries, known if filtered else known[:0])
        assert np.array_equal(data.mask_indptr, indptr) and np.array_equal(data.mask_indices, indices)
        (rows,) = matrix.rows(data.calib)
        scorer = config.scorer_config(0)
        ties = 0
        for i, (row, a) in enumerate(zip(rows.tolist(), data.calib.answer.tolist())):
            raw = matrix.scores[row]
            row_mask = indices[indptr[row] : indptr[row + 1]].tolist()
            assert (a in row_mask) == filtered
            mask = [e for e in row_mask if e != a]  # the pair's own mask: its row's, less its answer
            assert data.calib_nonconf[i] == scores.nonconformity(raw, scorer, query_index=i)[a]
            assert data.calib_ranks[i] == rank_of(raw, a, mask)
            ties += np.count_nonzero(np.delete(raw, mask) == raw[a]) > 1
        assert ties > len(data.calib) // 2
        assert bool(indices.size) == filtered

    def test_unfiltered_masks_empty(self):
        data = prepare_run(tiny_config(filtered=False), 0)
        assert not data.mask_indptr.any() and data.mask_indices.size == 0

    def test_kgcp_and_mcp_need_no_predicate_vectors(self):
        """Only condkgcp merges predicates, so imported scores with no model or vectors serve kgcp and mcp."""
        model = trained_model(tiny_config())
        trained = prepare_run(tiny_config(), 0, model=model)
        matrix = in_memory(ModelScores(model, trained.calib, trained.test))
        config = tiny_config(methods=["kgcp", "mcp"])
        data = prepare_run(config, 0, score_matrix=matrix)
        assert data.predicate_vectors is None
        reports = run_single(config, 0, data=data)
        assert [repr(r) for r in reports] == [repr(r) for r in run_single(config, 0, data=trained)]
        with pytest.raises(KGError, match="^condkgcp merging needs a trained model or a predicate-vector sidecar"):
            prepare_run(tiny_config(), 0, score_matrix=matrix)


class TestPrepareTest:
    @pytest.mark.parametrize("split_directions", [False, True], ids=["pooled", "split"])
    def test_test_rows_alone_evaluate_as_the_full_run(self, split_directions):
        """Scores of the test queries only: no calibration pass can run, and the reports equal the full run's."""
        config = tiny_config(split_directions=split_directions, scorer={"kind": "aps"})
        model = trained_model(config)
        data = prepare_run(config, 0, model=model)
        fitted = calibrate(config, 0, data)
        test_only = in_memory(ModelScores(model, data.test))
        assert len(test_only.queries) < len(data.score_rows.queries)
        with pytest.raises(KGError, match="^score matrix: missing scores for"):
            prepare_run(config, 0, score_matrix=test_only, model=model)
        reports = evaluate(config, 0, prepare_test(config, 0, test_only), fitted)
        assert [repr(r) for r in reports] == [repr(r) for r in evaluate(config, 0, data, fitted)]


class TestMemory:
    """Four times the triples (|E| = 2000) must raise the traced peak, from a trained model and from a score file,
    by less than half a byte per added (test score row x entity) cell: no path holds an array that grows with
    |Q| x |E|.  Per-pair state (queries, masks, filters, set sizes and hits: about 350 B per added pair) grows,
    and the fixed block buffers do not."""

    @staticmethod
    def config(scale):
        counts = [scale * c for c in (600, 400, 300, 200)]
        return tiny_config(synthetic={"n_entities": 2000, "n_predicates": 4, "triple_counts": counts,
                                      "noise_rates": 0.2, "n_clusters": 8}, model_kind="transe", dim=16,
                           epochs=1, phi=50)

    def assert_peak_grows_by_less_than_half_a_byte_per_test_cell(self, run, before=lambda cfg, kg, model: None):
        """Trace the peak of ``run(config, kg, model)`` at x1 and x4, after an untraced ``before`` with the same
        arguments; the model is trained at x1 beforehand."""
        small = self.config(1)
        model = models.train(experiment.load_or_generate_kg(small, 0), "transe", small.train_config(0), dim=16)
        peaks, cells = [], []
        for scale in (1, 4):
            cfg = self.config(scale)
            kg = experiment.load_or_generate_kg(cfg, 0)
            test_rows = np.unique(make_queries(kg.splits["test"], cfg.both_directions).queries(), axis=0)
            cells.append(test_rows.shape[0] * kg.vocab.n_entities)
            before(cfg, kg, model)
            tracemalloc.start()
            try:
                run(cfg, kg, model)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        allowed = 0.5 * (cells[1] - cells[0])
        assert peaks[1] - peaks[0] < allowed, [f"{p / 1e6:.2f} MB" for p in (*peaks, allowed)]

    def test_traced_peak_does_not_grow_with_the_splits(self):
        """prepare_run + run_single with a trained model: score rows are scored block by block, not kept."""
        def in_memory_run(cfg, kg, model):
            run_single(cfg, 0, data=prepare_run(cfg, 0, model=model, kg=kg))

        self.assert_peak_grows_by_less_than_half_a_byte_per_test_cell(in_memory_run)

    def test_staged_traced_peak_does_not_grow_with_the_splits(self, tmp_path):
        """import_scores + prepare_run + run_single from a score file: the import keeps the query columns only,
        and each block reads its rows from the file."""
        path = tmp_path / "scores_s0.bin"

        def write_scores(cfg, kg, model):
            models.export_scores(ModelScores(model, *(make_queries(kg.splits[name], cfg.both_directions)
                                                      for name in ("valid", "test"))), path)

        def staged_run(cfg, kg, model):
            source = models.import_scores(path)
            run_single(cfg, 0, data=prepare_run(cfg, 0, score_matrix=source, model=model, kg=kg))

        self.assert_peak_grows_by_less_than_half_a_byte_per_test_cell(staged_run, before=write_scores)


class TestRunSingle:
    def test_softmax_tail_below_1e17_gets_a_set_smaller_than_every_candidate(self):
        """Each filtered score row is 40 times a permutation of 0..|E|-1, so every p but the top one lies below
        1e-17.  1 - p rounds those to exactly 1.0, and kgcp's threshold then keeps every candidate; -log p keeps
        them apart, so the sets are smaller than the candidates."""
        config = tiny_config(methods=["kgcp"])
        model = trained_model(config)
        trained = prepare_run(config, 0, model=model)
        matrix = in_memory(ModelScores(model, trained.calib, trained.test))
        matrix.scores = 40.0 * np.argsort(np.argsort(matrix.scores, axis=1), axis=1)
        assert np.sort(scores.softmax_probs(matrix.scores[0]))[-2] < 1e-17
        data = prepare_run(config, 0, score_matrix=matrix, model=model)
        (report,) = run_single(config, 0, data=data)
        candidates = data.kg.vocab.n_entities - np.diff(data.mask_indptr)[data.test_rows] + 1  # e_j adds the answer
        assert 0.0 < report.avesize < candidates.mean()

    def test_reports_for_all_methods(self):
        config = tiny_config()
        reports = run_single(config, 0)
        assert {r.method for r in reports} == {"kgcp", "mcp", "condkgcp"}
        for r in reports:
            assert 0.0 <= r.covgap <= 1.0
            assert r.avesize >= 0.0
            if r.method != "kgcp":
                assert isinstance(r.ef, float) or r.ef == EF_FAILURE
        cond = next(r for r in reports if r.method == "condkgcp")
        assert cond.csr is not None and 0.0 <= cond.csr <= 1.0

    def test_kgcp_coverage_near_target(self):
        config = tiny_config(methods=["kgcp"], epochs=15)
        (report,) = run_single(config, 0)
        overall = float(np.mean([c for c in report.coverage.values()]))
        assert overall > 0.6  # marginal guarantee holds loosely even per-predicate average

    def test_split_directions(self):
        reports = run_single(tiny_config(split_directions=True), 0)
        assert {r.method for r in reports} == {"kgcp", "mcp", "condkgcp"}

    def test_split_directions_calibrate_each_group_on_its_own_pairs(self):
        config = tiny_config(split_directions=True, methods=["kgcp"])
        data = prepare_run(config, 0)
        fitted = calibrate(config, 0, data)
        for code, direction in enumerate(("tail", "head")):
            own = data.calib_nonconf[data.calib.direction == code]
            assert fitted[("kgcp", direction, 0.1)].per_part[0].score_threshold == conformal.quantile(own, 0.1)

    @pytest.mark.parametrize("kind", ["softmax", "aps"])
    def test_reports_do_not_depend_on_the_evaluation_block(self, monkeypatch, kind):
        """Each test pair keeps its own mask and APS draw however the pass splits the pairs into blocks."""
        config = tiny_config(scorer={"kind": kind})
        model = trained_model(config)
        data = prepare_run(config, 0, model=model)
        assert len(data.calib) > 2 * 7 and len(data.test) > 2 * 7
        whole = run_single(config, 0, data=data)
        monkeypatch.setattr(experiment, "EVAL_BLOCK_ROWS", 7)
        blocked = run_single(config, 0, data=data)
        assert [(r.row(), r.coverage) for r in blocked] == [(r.row(), r.coverage) for r in whole]
        rerun = prepare_run(config, 0, model=model)
        assert np.array_equal(rerun.calib_nonconf, data.calib_nonconf)
        assert np.array_equal(rerun.calib_ranks, data.calib_ranks)

    @pytest.mark.parametrize("filtered", [True, False], ids=["filtered", "raw"])
    @pytest.mark.parametrize("kind", ["softmax", "aps"])
    def test_outcomes_do_not_change_when_a_query_straddles_blocks(self, monkeypatch, kind, filtered):
        """Blocks of 2 and 3 pairs split the pairs of some test query; every (filter, pair) size and hit stays."""
        config = tiny_config(scorer={"kind": kind}, filtered=filtered)
        data = prepare_run(config, 0, model=trained_model(config))
        fitted = calibrate(config, 0, data)
        groups = list(experiment._direction_groups(data, False))
        models_ = [*fitted.values(), conformal.score_only(fitted[("condkgcp", None, 0.1)])]
        filters = experiment._filters(data, groups, [[model] for model in models_])
        draws = len(data.calib) + np.arange(len(data.test))
        whole = experiment._outcomes(config, 0, data, filters, draws)
        ordered = np.sort(data.test_rows)
        for block in (2, 3):
            assert np.any(ordered[block::block] == ordered[block - 1 : -1 : block])  # a query straddles two blocks
            monkeypatch.setattr(experiment, "EVAL_BLOCK_ROWS", block)
            for got, want in zip(experiment._outcomes(config, 0, data, filters, draws), whole):
                assert np.array_equal(got, want)

    def test_multiple_epsilons(self):
        reports = run_single(tiny_config(methods=["kgcp"], epsilons=[0.1, 0.3]), 0)
        by_eps = {r.epsilon: r for r in reports}
        # larger error budget -> smaller sets
        assert by_eps[0.3].avesize <= by_eps[0.1].avesize


def tuning_config(**kw):
    """:func:`tiny_config` on 80 entities and four times its triples: 432 calibration pairs, and the
    default phi grid keeps 20 and 50 pooled, and 20 alone with split directions."""
    return tiny_config(synthetic={"n_entities": 80, "n_predicates": 3, "triple_counts": [600, 320, 160],
                                  "noise_rates": 0.2, "n_clusters": 4}, tune=True, **kw)


GAMMA_GRID, PHI_GRID = (0.01, 0.1, 0.5), (10, 20, 30, 70)  # 70 past every group's reach, 30 past none


@pytest.fixture(scope="module")
def tuning_runs():
    """Prepared :func:`tuning_config` runs by (scorer kind, seed), trained once per seed."""
    runs, trained = {}, {}

    def get(kind: str, seed: int):
        if (kind, seed) not in runs:
            config = tuning_config(scorer={"kind": kind}, seeds=[seed])
            if seed not in trained:
                trained[seed] = trained_model(config, seed)
            runs[(kind, seed)] = prepare_run(config, seed, model=trained[seed])
        return runs[(kind, seed)]
    return get


def pair_set(qa: QueryAnswerSet, idx=slice(None)) -> set:
    return set(map(tuple, np.column_stack((qa.queries(), qa.answer))[idx].tolist()))


class TestTuning:
    def test_grid_selection_returns_grid_point(self, tuning_runs):
        config = tuning_config()
        gamma, phi, _ = tune_condkgcp(config, 0, tuning_runs("softmax", 0), gamma_grid=(0.1, 0.5), phi_grid=(5, 10))
        assert gamma in (0.1, 0.5)
        assert phi in (5, 10)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("kind", ["softmax", "raps"])
    @pytest.mark.parametrize("split_directions", [False, True], ids=["pooled", "split"])
    @pytest.mark.parametrize("objective", ["ef", "covgap", "avesize"])
    def test_selection_equals_the_per_grid_point_oracle(self, tuning_runs, objective, split_directions, kind, seed):
        """Scored pairs draw as their calibration index, so the per-pair RAPS oracle picks the same point."""
        config = tuning_config(tune_objective=objective, split_directions=split_directions,
                               scorer={"kind": kind}, seeds=[seed], epsilons=[0.2, 0.1])
        data = tuning_runs(kind, seed)
        assert tune_condkgcp(config, seed, data, GAMMA_GRID, PHI_GRID)[:2] == tune_oracle.tune_condkgcp(
            config, seed, data, GAMMA_GRID, PHI_GRID)

    def test_default_grid_under_split_directions_keeps_the_phi_every_group_reaches(self, tuning_runs):
        """The pooled cuts admit a default phi that a direction group's cuts cannot reach; tuning skips that phi."""
        data = tuning_runs("softmax", 0)
        pred = data.calib.predicate

        def reach(split_directions):
            cuts = tune_oracle.calibration_cuts(data, split_directions, 0)
            return min(np.bincount(pred[idx]).max() for fit, _, cal in cuts for idx in (fit, cal))

        admissible = tuple(phi for phi in experiment.DEFAULT_PHI_GRID if phi <= reach(True))
        assert admissible and any(reach(True) < phi <= reach(False) for phi in experiment.DEFAULT_PHI_GRID)
        config = tuning_config(split_directions=True)
        chosen = tune_condkgcp(config, 0, data)[:2]
        assert chosen == tune_oracle.tune_condkgcp(config, 0, data, experiment.DEFAULT_GAMMA_GRID, admissible)
        assert chosen[1] in admissible

    def test_grid_is_evaluated_at_the_first_epsilon_only(self, monkeypatch, tuning_runs):
        config = tuning_config(epsilons=[0.2, 0.1, 0.3])
        data = tuning_runs("softmax", 0)
        fitted = []
        for name in ("fit_kgcp", "fit_condkgcp"):
            real = getattr(conformal, name)

            def recording(*args, real=real, name=name, **kw):
                model = real(*args, **kw)
                fitted.append((name, model.epsilon))
                return model
            monkeypatch.setattr(conformal, name, recording)
        chosen = tune_condkgcp(config, 0, data, GAMMA_GRID, PHI_GRID)[:2]
        assert {name for name, _ in fitted} == {"fit_kgcp", "fit_condkgcp"}
        assert all(epsilon == 0.2 for _, epsilon in fitted)
        monkeypatch.undo()
        assert chosen == tune_condkgcp(tuning_config(epsilons=[0.2]), 0, data, GAMMA_GRID, PHI_GRID)[:2]

    def test_one_outcomes_pass_and_no_run_single(self, monkeypatch, tuning_runs):
        config = tuning_config(split_directions=True)
        data = tuning_runs("softmax", 0)
        calls = {"_outcomes": [], "run_single": 0}
        real_outcomes = experiment._outcomes

        def recording_outcomes(config, seed, data, filters, draws):
            calls["_outcomes"].append(len(filters[0]))
            return real_outcomes(config, seed, data, filters, draws)

        def no_run_single(*args, **kw):
            calls["run_single"] += 1
            raise AssertionError("tuning called run_single")
        monkeypatch.setattr(experiment, "_outcomes", recording_outcomes)
        monkeypatch.setattr(experiment, "run_single", no_run_single)
        tune_condkgcp(config, 0, data, GAMMA_GRID, PHI_GRID)
        assert calls == {"_outcomes": [1 + len(GAMMA_GRID) * (len(PHI_GRID) - 1)], "run_single": 0}

    @pytest.mark.parametrize("split_directions", [False, True], ids=["pooled", "split"])
    def test_tuning_scores_held_out_calibration_pairs_and_needs_no_model(self, tmp_path, monkeypatch,
                                                                          split_directions):
        """From imported scores and no model, tuning trains, scores and prepares nothing.  Its scored pairs are
        calibration pairs, each drawing as its calibration index, held out from training and from the pairs
        every method calibrates on; each calibrated model counts those pairs alone."""
        config = tuning_config(split_directions=split_directions, scorer={"kind": "raps"})
        model = trained_model(config)
        kg = load_or_generate_kg(config, 0)
        models.export_predicate_vectors(np.stack([models.predicate_vector(model, r)
                                                  for r in range(kg.vocab.n_predicates)]), tmp_path / "vectors.bin")
        matrix = in_memory(ModelScores(model, *(make_queries(kg.splits[name]) for name in ("valid", "test"))))
        data = prepare_run(config, 0, score_matrix=matrix, kg=kg, predicate_vectors=tmp_path / "vectors.bin")
        seen = []
        real_outcomes = experiment._outcomes

        def recording_outcomes(config, seed, view, filters, draws):
            seen.append((view.test, draws))
            return real_outcomes(config, seed, view, filters, draws)

        def forbidden(*args, **kw):
            raise AssertionError("tuning trained or scored a model, or prepared a run")
        for owner, name in ((models, "train"), (models, "ModelScores"), (experiment, "prepare_run")):
            monkeypatch.setattr(owner, name, forbidden)
        monkeypatch.setattr(experiment, "_outcomes", recording_outcomes)
        gamma, phi, cal_idx = tune_condkgcp(config, 0, data)
        (scored, draws), = seen
        calibrating = np.concatenate(list(cal_idx.values()))
        assert pair_set(scored) == pair_set(data.calib, draws) and np.unique(draws).size == draws.size
        assert not np.intersect1d(draws, calibrating).size
        assert not pair_set(scored) & pair_set(make_queries(kg.splits["train"]))
        groups = list(experiment._direction_groups(data, split_directions))
        assert draws.size == sum(idx.size // 2 - idx.size // 4 for _, idx, _ in groups)
        assert calibrating.size == sum(idx.size - idx.size // 2 for _, idx, _ in groups)
        for (method, direction, _), fit in calibrate(config, 0, data).items():
            assert sum(pc.n_cal for pc in fit.per_part.values()) == cal_idx[direction].size
            if method == "condkgcp":
                assert (fit.gamma, fit.partition.phi) == (gamma, phi)

    def test_an_empty_grid_tunes_nothing(self):
        """On tiny_config no cut reaches phi 20: every method calibrates on all pairs with the config's (gamma,
        phi), each condkgcp model warns that tuning kept no point, and the reports equal those of tune false."""
        config = tiny_config(tune=True, split_directions=True, gamma=0.5, phi=5)
        data = prepare_run(config, 0)
        assert tune_condkgcp(config, 0, data) is None
        warning = "tune kept no grid point; condkgcp uses the config's gamma 0.5 and phi 5"
        fitted = calibrate(config, 0, data)
        assert sum(sum(pc.n_cal for pc in fit.per_part.values())
                   for (method, _, eps), fit in fitted.items() if (method, eps) == ("kgcp", 0.1)) == len(data.calib)
        for (method, _, _), fit in fitted.items():
            assert (warning in fit.warnings) == (method == "condkgcp")
            if method == "condkgcp":
                assert (fit.gamma, fit.partition.phi) == (0.5, 5)
        untuned = tiny_config(split_directions=True, gamma=0.5, phi=5)
        reports = run_single(config, 0, data=data)
        assert [repr(r) for r in reports] == [repr(r) for r in run_single(untuned, 0, data=data)]


def test_run_experiment_aggregates_across_seeds():
    config = tiny_config(methods=["kgcp", "condkgcp"], seeds=[0, 1], epochs=5)
    reports, rows = run_experiment(config)
    assert len(reports) == 4
    assert {row["method"] for row in rows} == {"kgcp", "condkgcp"}
    assert all(row["n_seeds"] == 2 for row in rows)

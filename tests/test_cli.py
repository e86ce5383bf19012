import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kgconformal import cli, experiment, models
from kgconformal.experiment import ExperimentConfig, load_or_generate_kg
from kgconformal.kg import DIRECTIONS, Query, make_queries
from kgconformal.models import (ScoreMatrix, export_predicate_vectors, export_scores, import_predicate_vectors,
                                import_scores, load_model, save_model)
from kgconformal.verify import CheckResult

from score_rows import in_memory


def write_config(tmp_path, dataset, **kw):
    base = dict(
        dataset=str(dataset),
        model_kind="distmult",
        dim=8,
        epochs=8,
        batch_size=64,
        epsilons=[0.1],
        gamma=0.1,
        phi=5,
        seeds=[0],
        output_dir=str(tmp_path / "out"),
    )
    base.update(kw)
    path = tmp_path / "config.json"
    path.write_text(ExperimentConfig(**base).to_json(), encoding="utf-8")
    return path


def edited(config, **changes):
    """Apply ``changes`` to a config file written by :func:`write_config`, without validating them."""
    doc = json.loads(config.read_text())
    doc.update(changes)
    config.write_text(json.dumps(doc), encoding="utf-8")
    return config


def without_dataset(config):
    """Drop the ``dataset`` field from a config file written by :func:`write_config`."""
    doc = json.loads(config.read_text())
    del doc["dataset"]
    config.write_text(json.dumps(doc), encoding="utf-8")
    return config


def _with_parts(parts):
    """An edit of a saved mcp file (parts [[0], [1], [2]]) that lists ``parts``, one per_part entry each."""
    def edit(text):
        doc = json.loads(text)
        doc["partition"]["parts"] = parts
        doc["per_part"] = {str(g): doc["per_part"]["0"] for g in range(len(parts))}
        return json.dumps(doc)
    return edit


def _without_part_counts(text):
    """A saved model in the format before each part stored ``n_cal`` and ``score_only_threshold``."""
    doc = json.loads(text)
    for part in doc["per_part"].values():
        del part["n_cal"], part["score_only_threshold"]
    return json.dumps(doc)


def _without_direction(text):
    """A saved model in the format before it stored its direction group."""
    doc = json.loads(text)
    del doc["direction"]
    return json.dumps(doc)


def _without_scorer(text):
    """A saved model in the format before it named its scorer: its thresholds were 1 - p under softmax."""
    doc = json.loads(text)
    del doc["scorer"]
    return json.dumps(doc)


def evaluate_from_test_rows_only(config, monkeypatch):
    """Staged ``evaluate`` on ``config`` (seed 0) with no model or sidecar file and a calibration pass that raises;
    every score row it reads must be a test query's, one read per test query and block."""
    out = Path(json.loads(config.read_text())["output_dir"])
    for name in ("model_s0.npz", "predvecs_s0.bin"):
        (out / name).unlink(missing_ok=True)

    def no_calibration_pass(*args, **kw):
        raise AssertionError("staged evaluate ran a calibration pass")

    read = []
    real_fill = models.ScoreFile.fill

    def recording_fill(self, rows, buffer):
        read.append(rows.copy())
        return real_fill(self, rows, buffer)

    with monkeypatch.context() as patch:
        patch.setattr(experiment, "answer_nonconf_and_ranks", no_calibration_pass)
        patch.setattr(models.ScoreFile, "fill", recording_fill)
        assert cli.main(["evaluate", "--config", str(config)]) == 0
    kg = load_or_generate_kg(ExperimentConfig.load(config), 0)
    (test_rows,) = import_scores(out / "scores_s0.bin").rows(make_queries(kg.splits["test"]))
    asked, wanted = np.concatenate(read), np.unique(test_rows)
    assert all(np.unique(rows).size == rows.size for rows in read)
    assert np.array_equal(np.unique(asked), wanted)
    assert asked.size < wanted.size + len(read)  # only a query that straddles two blocks is read twice


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    rc = cli.main([
        "generate", "--entities", "40", "--counts", "150", "80", "40",
        "--noise", "0.2", "--clusters", "4", "--seed", "0", "--out", str(root),
    ])
    assert rc == 0
    return root / "manifest.json"


@pytest.fixture(scope="module")
def parity_dataset(tmp_path_factory):
    """The dataset of ``tools/parity.py``."""
    root = tmp_path_factory.mktemp("parity-data")
    assert cli.main(["generate", "--entities", "100", "--counts", "200", "100", "60", "40", "30",
                     "--seed", "0", "--out", str(root)]) == 0
    return root / "manifest.json"


class TestGenerate:
    def test_writes_manifest_and_splits(self, dataset):
        assert dataset.exists()
        doc = json.loads(dataset.read_text())
        for key in ("train", "valid", "test", "entities", "relations"):
            assert (dataset.parent / doc[key]).exists()

    def test_generate_and_run_open_text_files_as_utf8_only(self, tmp_path):
        """Under ``-X warn_default_encoding -W error::EncodingWarning`` a text file opened without an encoding
        is an error; ``generate`` then ``run`` open none."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        strict = [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
                  "-m", "kgconformal.cli"]
        config = write_config(tmp_path, "data/manifest.json", epochs=2, output_dir="out")
        for args in (["generate", "--entities", "40", "--counts", "60", "30", "--seed", "0", "--out", "data"],
                     ["run", "--config", str(config)]):
            proc = subprocess.run([*strict, *args], cwd=tmp_path, env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "summary.json").exists()


class TestPipeline:
    def test_full_staged_pipeline(self, tmp_path, dataset):
        config = write_config(tmp_path, dataset)
        out = tmp_path / "out"
        assert cli.main(["train", "--config", str(config)]) == 0
        assert (out / "model_s0.npz").exists()
        assert cli.main(["score", "--config", str(config)]) == 0
        assert (out / "scores_s0.bin").exists()
        assert (out / "predvecs_s0.bin").exists()
        assert cli.main(["calibrate", "--config", str(config)]) == 0
        assert (out / "calibrated_condkgcp_e0.1_s0.json").exists()
        assert cli.main(["evaluate", "--config", str(config), "--plot-data"]) == 0
        assert (out / "reports.csv").exists()
        assert (out / "summary.json").exists()
        assert (out / "plot_data.csv").exists()
        rows = json.loads((out / "summary.json").read_text())
        assert {row["method"] for row in rows} == {"kgcp", "mcp", "condkgcp"}

    def test_recalibration_is_deterministic(self, tmp_path, dataset):
        config = write_config(tmp_path, dataset, methods=["kgcp", "condkgcp"])
        assert cli.main(["train", "--config", str(config)]) == 0
        assert cli.main(["score", "--config", str(config)]) == 0
        assert cli.main(["calibrate", "--config", str(config)]) == 0
        artifact = tmp_path / "out" / "calibrated_condkgcp_e0.1_s0.json"
        first = artifact.read_bytes()
        assert cli.main(["calibrate", "--config", str(config)]) == 0
        assert artifact.read_bytes() == first

    def test_run_end_to_end(self, tmp_path, dataset):
        config = write_config(tmp_path, dataset, methods=["kgcp", "condkgcp"])
        assert cli.main(["run", "--config", str(config)]) == 0
        assert (tmp_path / "out" / "reports.csv").exists()

    def test_epsilon_override_from_flags(self, tmp_path, dataset):
        config = write_config(tmp_path, dataset, methods=["kgcp"])
        assert cli.main(["run", "--config", str(config), "--epsilons", "0.2,0.3"]) == 0
        echoed = json.loads((tmp_path / "out" / "config.json").read_text())
        assert echoed["epsilons"] == [0.2, 0.3]

    def test_dataset_flag_completes_a_config_without_one(self, tmp_path, dataset):
        config = without_dataset(write_config(tmp_path, dataset, methods=["kgcp"]))
        assert cli.main(["train", "--config", str(config), "--dataset", str(dataset)]) == 0
        assert (tmp_path / "out" / "model_s0.npz").exists()
        assert json.loads((tmp_path / "out" / "config.json").read_text())["dataset"] == str(dataset)


def assert_tuned(config):
    """The pooled calibrated files of ``config`` (seed 0) count the calibrating half of the calibration pairs alone,
    as they do when the tuning grid keeps a point."""
    out = Path(json.loads(config.read_text())["output_dir"])
    n_calib = 2 * len(load_or_generate_kg(ExperimentConfig.load(config), 0).splits["valid"])
    for method in ("kgcp", "mcp", "condkgcp"):
        saved = json.loads((out / f"calibrated_{method}_e0.1_s0.json").read_text())
        assert sum(part["n_cal"] for part in saved["per_part"].values()) == n_calib - n_calib // 2, method


class TestStagedMatchesRun:
    """generate -> train -> score -> calibrate -> evaluate writes what `run` writes; `calibrate` reads no model,
    and `evaluate` reads only the calibrated files and the test pairs' score rows."""

    @pytest.mark.parametrize("extra", [{}, {"split_directions": True}, {"tune": True}],
                             ids=["pooled", "split-directions", "tune"])
    def test_reports_byte_identical(self, tmp_path, request, monkeypatch, extra):
        """``tune`` runs on the parity dataset, where the default grid keeps phi 20 and half the pairs calibrate."""
        dataset = request.getfixturevalue("parity_dataset" if extra.get("tune") else "dataset")
        outputs = {}
        for mode, stages in (("staged", ("train", "score", "calibrate")), ("run", ("run",))):
            root = tmp_path / mode
            root.mkdir()
            config = write_config(root, dataset, **extra)
            for stage in stages:
                if stage == "calibrate":
                    (root / "out" / "model_s0.npz").unlink()
                assert cli.main([stage, "--config", str(config)]) == 0
            if mode == "staged":
                if extra.get("tune"):
                    assert_tuned(config)
                evaluate_from_test_rows_only(config, monkeypatch)
            outputs[mode] = root / "out"
        for name in ("reports.csv", "summary.json"):
            assert (outputs["staged"] / name).read_bytes() == (outputs["run"] / name).read_bytes(), name
        if extra.get("split_directions"):
            for direction in ("tail", "head"):
                assert (outputs["staged"] / f"calibrated_condkgcp_{direction}_e0.1_s0.json").exists()
            assert not (outputs["staged"] / "calibrated_condkgcp_e0.1_s0.json").exists()


class TestImportedScores:
    def test_exported_matrix_and_sidecar_give_the_reports_of_run(self, tmp_path, dataset):
        """Score and sidecar files written from Python into a directory with no model: staged ``calibrate`` and
        ``evaluate`` write what ``run`` writes on the model the scores came from."""
        self.imported_matches_run(tmp_path, dataset)

    def test_tune_needs_no_model_either(self, tmp_path, parity_dataset):
        """Under ``tune``, on a dataset where the default grid keeps a point, the imported files still suffice."""
        assert_tuned(self.imported_matches_run(tmp_path, parity_dataset, tune=True))

    @staticmethod
    def imported_matches_run(tmp_path, dataset, **extra):
        roots = {name: tmp_path / name for name in ("trained", "imported", "run")}
        for root in roots.values():
            root.mkdir()
        assert cli.main(["train", "--config", str(write_config(roots["trained"], dataset, **extra))]) == 0
        model = load_model(roots["trained"] / "out" / "model_s0.npz")
        config = write_config(roots["imported"], dataset, **extra)
        kg = load_or_generate_kg(ExperimentConfig.load(config), 0)
        out = roots["imported"] / "out"
        out.mkdir()
        export_scores(in_memory(models.ModelScores(model, make_queries(kg.splits["valid"]),
                                                   make_queries(kg.splits["test"]))), out / "scores_s0.bin")
        export_predicate_vectors(np.stack([models.predicate_vector(model, r) for r in range(kg.vocab.n_predicates)]),
                                 out / "predvecs_s0.bin")
        for stage in ("calibrate", "evaluate"):
            assert cli.main([stage, "--config", str(config)]) == 0
        assert not (out / "model_s0.npz").exists()
        assert cli.main(["run", "--config", str(write_config(roots["run"], dataset, **extra))]) == 0
        for name in ("reports.csv", "summary.json"):
            assert (out / name).read_bytes() == (roots["run"] / "out" / name).read_bytes(), name
        return config


class TestExitCodes:
    def test_score_without_model_is_config_error(self, tmp_path, dataset, capsys):
        config = write_config(tmp_path, dataset)
        assert cli.main(["score", "--config", str(config)]) == cli.EXIT_CONFIG
        assert "rerun the 'train' stage" in capsys.readouterr().err

    def test_evaluate_without_calibrate(self, tmp_path, dataset, capsys):
        config = write_config(tmp_path, dataset)
        assert cli.main(["train", "--config", str(config)]) == 0
        assert cli.main(["score", "--config", str(config)]) == 0
        assert cli.main(["evaluate", "--config", str(config)]) == cli.EXIT_CONFIG
        assert "rerun the 'calibrate' stage" in capsys.readouterr().err

    def test_training_divergence_names_stage(self, tmp_path, dataset, capsys):
        config = write_config(tmp_path, dataset, lr=1e6)
        assert cli.main(["train", "--config", str(config)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "non-finite loss" in err and "'train' stage" in err

    @pytest.mark.parametrize("stage", ["score", "run"])
    def test_non_finite_scores_name_stage(self, tmp_path, dataset, capsys, monkeypatch, stage):
        """Overflowing scores exit 2 naming the stage, also when ``run`` meets them mid-pass."""
        config = write_config(tmp_path, dataset)
        if stage == "score":
            assert cli.main(["train", "--config", str(config)]) == 0
            model_file = tmp_path / "out" / "model_s0.npz"
            model = load_model(model_file)
            model.entity_embeddings *= 1e200  # finite, but every DistMult score overflows
            save_model(model, model_file)
        else:
            real_train = models.train

            def overflowing_train(*args, **kw):
                model = real_train(*args, **kw)
                model.entity_embeddings *= 1e200
                return model

            monkeypatch.setattr(models, "train", overflowing_train)
        assert cli.main([stage, "--config", str(config)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "non-finite score" in err and f"'{stage}' stage" in err

    @pytest.mark.parametrize("keep", [slice(0, 2), slice(None)], ids=["truncated", "extra-row"])
    def test_predicate_vector_sidecar_row_count_names_file(self, tmp_path, dataset, capsys, keep):
        """``calibrate`` names the sidecar; ``evaluate`` reads none, so its reports stay as they were."""
        config = write_config(tmp_path, dataset)
        for stage in ("train", "score", "calibrate", "evaluate"):
            assert cli.main([stage, "--config", str(config)]) == 0
        reports = (tmp_path / "out" / "reports.csv").read_bytes()
        sidecar = tmp_path / "out" / "predvecs_s0.bin"
        vectors = import_predicate_vectors(sidecar)[keep]
        if keep == slice(None):
            vectors = np.vstack([vectors, vectors[:1]])
        export_predicate_vectors(vectors, sidecar)
        capsys.readouterr()
        assert cli.main(["calibrate", "--config", str(config)]) == cli.EXIT_CONFIG
        assert (f"{sidecar}: {len(vectors)} predicate vectors, but the KG has 3 predicates "
                "(rerun the 'score' stage)") in capsys.readouterr().err
        assert cli.main(["evaluate", "--config", str(config)]) == 0
        assert (tmp_path / "out" / "reports.csv").read_bytes() == reports

    def test_non_finite_imported_score_names_file_and_query(self, tmp_path, dataset, capsys):
        config = write_config(tmp_path, dataset)
        for stage in ("train", "score"):
            assert cli.main([stage, "--config", str(config)]) == 0
        kg = load_or_generate_kg(ExperimentConfig.load(config), 0)
        scores_file = tmp_path / "out" / "scores_s0.bin"
        matrix = in_memory(import_scores(scores_file))
        calib_rows, test_rows = matrix.rows(make_queries(kg.splits["valid"]), make_queries(kg.splits["test"]))
        # a query only test pairs ask: no calibration score or rank ever reads its row
        calib = set(calib_rows.tolist())
        row = next(r for r in test_rows.tolist() if r not in calib)
        d, a, p = matrix.queries[row].tolist()
        key = Query(DIRECTIONS[d], a, p).key()
        matrix.scores[row, 3] = np.nan
        export_scores(matrix, scores_file)
        capsys.readouterr()
        for stage in ("calibrate", "evaluate"):
            assert cli.main([stage, "--config", str(config)]) == cli.EXIT_CONFIG
            err = capsys.readouterr().err
            assert str(scores_file) in err and f"non-finite score for query {key}" in err

    def test_score_file_missing_a_query_names_file(self, tmp_path, dataset, capsys):
        config = write_config(tmp_path, dataset)
        for stage in ("train", "score"):
            assert cli.main([stage, "--config", str(config)]) == 0
        kg = load_or_generate_kg(ExperimentConfig.load(config), 0)
        test = make_queries(kg.splits["test"])
        key = test.pairs[0][0].key()
        scores_file = tmp_path / "out" / "scores_s0.bin"
        matrix = in_memory(import_scores(scores_file))
        row = matrix.rows(test)[0][0]
        export_scores(ScoreMatrix(queries=np.delete(matrix.queries, row, axis=0),
                                  scores=np.delete(matrix.scores, row, axis=0)), scores_file)
        capsys.readouterr()
        for stage in ("calibrate", "evaluate"):
            assert cli.main([stage, "--config", str(config)]) == cli.EXIT_CONFIG
            err = capsys.readouterr().err
            assert f"{scores_file}: missing scores for 1 queries: {key}" in err

    def test_score_file_repeating_a_query_names_file_and_query(self, tmp_path, dataset, capsys):
        config = write_config(tmp_path, dataset)
        for stage in ("train", "score"):
            assert cli.main([stage, "--config", str(config)]) == 0
        scores_file = tmp_path / "out" / "scores_s0.bin"
        data = scores_file.read_bytes()
        n_queries = int.from_bytes(data[8:12], "little")
        record = (len(data) - 12) // n_queries
        last = data[-record:]  # the file's last query, listed a second time with other scores
        d, a, p = last[0], int.from_bytes(last[1:5], "little"), int.from_bytes(last[5:9], "little")
        repeat = last[:9] + np.full(40, 0.5).tobytes()
        scores_file.write_bytes(data[:8] + (n_queries + 1).to_bytes(4, "little") + data[12:] + repeat)
        key = Query(DIRECTIONS[d], a, p).key()
        capsys.readouterr()
        for stage in ("calibrate", "evaluate"):
            assert cli.main([stage, "--config", str(config)]) == cli.EXIT_CONFIG
            err = capsys.readouterr().err
            assert f"{scores_file}: scores for query {key} repeated" in err

    @pytest.mark.parametrize("extra", [10, -10], ids=["wider", "narrower"])
    def test_score_matrix_width_must_match_kg(self, tmp_path, dataset, capsys, extra):
        config = write_config(tmp_path, dataset)
        for stage in ("train", "score"):
            assert cli.main([stage, "--config", str(config)]) == 0
        scores_file = tmp_path / "out" / "scores_s0.bin"
        matrix = in_memory(import_scores(scores_file))
        width = matrix.n_entities + extra
        resized = np.stack([np.resize(vec, width) for vec in matrix.scores])
        export_scores(ScoreMatrix(queries=matrix.queries, scores=resized), scores_file)
        capsys.readouterr()
        for stage in ("calibrate", "evaluate"):
            assert cli.main([stage, "--config", str(config)]) == cli.EXIT_CONFIG
            err = capsys.readouterr().err
            assert f"{scores_file}: {width} score columns, but the KG has 40 entities" in err

    def test_score_file_cut_short_after_import_names_file(self, tmp_path, dataset, capsys, monkeypatch):
        """The staged import reads no score row, so a file that shrinks after it fails at the first row read."""
        config = write_config(tmp_path, dataset)
        for stage in ("train", "score", "calibrate"):
            assert cli.main([stage, "--config", str(config)]) == 0
        scores_file = tmp_path / "out" / "scores_s0.bin"
        real_import = models.import_scores

        def import_then_cut(path):
            source = real_import(path)
            Path(path).write_bytes(Path(path).read_bytes()[:12])
            return source

        monkeypatch.setattr(models, "import_scores", import_then_cut)
        capsys.readouterr()
        assert cli.main(["evaluate", "--config", str(config)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"error: {scores_file}: score row of query" in err and "cut short" in err

    def test_tune_with_split_directions_exits_0_with_a_phi_every_group_reaches(self, tmp_path, parity_dataset):
        """On the parity dataset each direction group's fitting quarter reaches at most 11 pairs of a predicate, so
        the default grid keeps no phi, every group calibrates on all its pairs with the config's phi 20, and each
        condkgcp file says so in its warnings."""
        config = write_config(tmp_path, parity_dataset, tune=True, phi=20)
        for stage in ("train", "score", "calibrate"):
            assert cli.main([stage, "--config", str(config), "--split-directions"]) == 0
        calib = make_queries(load_or_generate_kg(ExperimentConfig.load(config), 0).splits["valid"])
        phis = set()
        for code, direction in enumerate(DIRECTIONS):
            saved = json.loads((tmp_path / "out" / f"calibrated_condkgcp_{direction.value}_e0.1_s0.json").read_text())
            phis.add(saved["partition"]["phi"])
            assert saved["partition"]["phi"] <= np.bincount(calib.predicate[calib.direction == code]).max()
            assert (f"tune kept no grid point; condkgcp uses the config's gamma {saved['gamma']:g} and phi 20"
                    in saved["warnings"])
        assert phis == {20}

    def test_split_directions_phi_past_a_group_names_phi_count_and_group(self, tmp_path, parity_dataset, capsys):
        config = write_config(tmp_path, parity_dataset, phi=20)
        for stage in ("train", "score"):
            assert cli.main([stage, "--config", str(config)]) == 0
        capsys.readouterr()
        assert cli.main(["calibrate", "--config", str(config), "--split-directions", "--phi", "50"]) == cli.EXIT_CONFIG
        assert ("error: phi exceeds max per-predicate calibration count: phi 50, largest count 41 "
                "in direction group 'tail'") in capsys.readouterr().err

    def test_missing_predicate_vector_sidecar_names_the_score_stage(self, tmp_path, dataset, capsys):
        """condkgcp's ``calibrate`` names the missing sidecar; ``evaluate`` reads none, so its reports stay."""
        config = write_config(tmp_path, dataset)
        for stage in ("train", "score", "calibrate", "evaluate"):
            assert cli.main([stage, "--config", str(config)]) == 0
        reports = (tmp_path / "out" / "reports.csv").read_bytes()
        sidecar = tmp_path / "out" / "predvecs_s0.bin"
        sidecar.unlink()
        capsys.readouterr()
        assert cli.main(["calibrate", "--config", str(config)]) == cli.EXIT_CONFIG
        assert f"error: missing predicate-vector artifact {sidecar} (rerun the 'score' stage)" in capsys.readouterr().err
        assert cli.main(["evaluate", "--config", str(config)]) == 0
        assert (tmp_path / "out" / "reports.csv").read_bytes() == reports

    def test_kgcp_and_mcp_need_no_predicate_vector_sidecar(self, tmp_path, dataset):
        """Only condkgcp merges predicates: without it, staged stages with no sidecar write what ``run`` writes."""
        outputs = {}
        for mode, stages in (("staged", ("train", "score", "calibrate", "evaluate")), ("run", ("run",))):
            root = tmp_path / mode
            root.mkdir()
            config = write_config(root, dataset, methods=["kgcp", "mcp"])
            for stage in stages:
                if stage == "calibrate":
                    (root / "out" / "predvecs_s0.bin").unlink()
                assert cli.main([stage, "--config", str(config)]) == 0
            outputs[mode] = root / "out"
        for name in ("reports.csv", "summary.json"):
            assert (outputs["staged"] / name).read_bytes() == (outputs["run"] / name).read_bytes(), name

    @pytest.mark.parametrize("changes, message", [
        ({"foo": 1}, "config has unknown keys: foo"),
        ({"scorer": {"kind": "softmax", "bogus": 1}}, "scorer has unknown keys: bogus"),
        ({"scorer": {"kind": "aps", "rng_seed": 3}}, "scorer has unknown keys: rng_seed"),
        ({"synthetic": {"n_entities": 40, "bogus": 1}}, "synthetic has unknown keys: bogus"),
        ({"score_matrix": None, "predicate_vectors": None}, "config has unknown keys: predicate_vectors, score_matrix"),
    ], ids=["top-level", "scorer", "scorer-rng-seed", "synthetic", "echoed-with-score-import"])
    def test_unknown_config_keys_are_named(self, tmp_path, dataset, capsys, changes, message):
        config = edited(write_config(tmp_path, dataset), **changes)
        assert cli.main(["train", "--config", str(config)]) == cli.EXIT_CONFIG
        assert f"error: {message}\n" == capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("changes, message", [
        ({"gamma": "0.1"}, 'config key gamma must be float, got "0.1"'),
        ({"epsilons": "0.1"}, 'config key epsilons must be list[float], got "0.1"'),
        ({"epochs": "3"}, 'config key epochs must be int, got "3"'),
        ({"dim": 16.0}, "config key dim must be int, got 16.0"),
        ({"seeds": [0.5]}, "config key seeds must be list[int], got [0.5]"),
        ({"dataset": 5}, "config key dataset must be str | None, got 5"),
        ({"synthetic": {"n_entities": "10"}}, 'synthetic key n_entities must be int, got "10"'),
        ({"scorer": {"kind": "aps", "raps_lambda": "x"}}, 'scorer key raps_lambda must be float, got "x"'),
        ({"methods": "kgcp"}, 'config key methods must be list[str], got "kgcp"'),
        ({"phi": 2.5}, "config key phi must be int, got 2.5"),
        ({"gamma": True}, "config key gamma must be float, got true"),
    ], ids=["gamma", "epsilons", "epochs", "dim", "seeds", "dataset", "synthetic", "scorer", "methods", "phi",
            "bool-for-number"])
    def test_config_value_of_the_wrong_type_is_named(self, tmp_path, dataset, capsys, changes, message):
        config = edited(write_config(tmp_path, dataset), **changes)
        assert cli.main(["train", "--config", str(config)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("manifest, message", [
        ({"train": 5}, "manifest key 'train' must be a path string, got int"),
        (["train"], "manifest must be a JSON object, got list"),
        ({"train": "train.tsv", "valid": "valid.tsv", "test": "test.tsv", "entities": 3},
         "manifest key 'entities' must be a path string, got int"),
        ({"train": "train.tsv", "valid": "valid.tsv", "tset": "test.tsv"},
         "manifest has unknown keys: tset (train, valid, test, entities, relations)"),
    ], ids=["split-not-a-string", "not-an-object", "vocabulary-not-a-string", "unknown-key"])
    def test_malformed_manifest_names_the_manifest_and_key(self, tmp_path, dataset, capsys, manifest, message):
        bad = tmp_path / "data" / "manifest.json"
        bad.parent.mkdir()
        for name in ("train.tsv", "valid.tsv", "test.tsv"):
            (bad.parent / name).write_bytes((dataset.parent / name).read_bytes())
        bad.write_text(json.dumps(manifest), encoding="utf-8")
        config = write_config(tmp_path, bad)
        assert cli.main(["train", "--config", str(config)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"
        assert not (tmp_path / "out" / "model_s0.npz").exists()

    @pytest.mark.parametrize("flag, values, message", [
        ("--seeds", "0,1,0", "seeds lists 0 more than once: [0, 1, 0]"),
        ("--epsilons", "0.1,0.2,0.1", "epsilons lists 0.1 more than once: [0.1, 0.2, 0.1]"),
        ("--methods", "kgcp,mcp,kgcp", "methods lists kgcp more than once: ['kgcp', 'mcp', 'kgcp']"),
    ], ids=["seeds", "epsilons", "methods"])
    def test_repeated_list_value_is_named(self, tmp_path, dataset, capsys, flag, values, message):
        """A repeated seed would count as another seed in summary.json, a repeated ε or method would write its
        report rows twice: the config is refused before any training."""
        config = write_config(tmp_path, dataset)
        assert cli.main(["run", "--config", str(config), flag, values]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args, message", [
        (["run", "--seeds", "0,-1"], "seeds must be >= 0, got [0, -1]"),
        (["verify-bounds", "--seed", "-1"], "--seed must be >= 0, got -1"),
    ], ids=["run-seeds", "verify-bounds-seed"])
    def test_negative_seed_is_named_before_any_work(self, tmp_path, dataset, capsys, args, message):
        """numpy rejects a negative seed only where it first draws, and for ``run`` that is after the KG is read."""
        config = ["--config", str(write_config(tmp_path, dataset))] if args[0] == "run" else []
        assert cli.main([*args, *config]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_impossible_triple_count_names_the_predicate_and_field(self, tmp_path, capsys):
        """Two entities hold at most four distinct triples of a predicate, so 100 cannot be placed."""
        assert cli.main(["generate", "--entities", "2", "--counts", "100", "--out", str(tmp_path / "d")]) == 2
        assert capsys.readouterr().err == ("error: predicate 0: cannot place triple_counts[0] = 100 distinct triples "
                                           "among n_entities 2\n")

    def test_synthetic_rule_naming_an_empty_cluster_names_the_predicate_and_rule(self, tmp_path, dataset, capsys):
        """Seed 0 puts the two entities in clusters 6 and 5, so cluster 0 is empty."""
        spec = {"n_entities": 2, "n_predicates": 2, "triple_counts": [2, 2], "n_clusters": 8,
                "rules": [[5, 6], [5, 0]], "seed": 0}
        config = edited(without_dataset(write_config(tmp_path, dataset)), synthetic=spec)
        assert cli.main(["train", "--config", str(config)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == ("error: predicate 1: rules[1] names cluster 0, which holds no entity "
                                           "(n_entities 2, n_clusters 8, seed 0)\n")

    def test_synthetic_spec_without_predicates_names_the_field(self, tmp_path, dataset, capsys):
        """A spec with no predicate would generate an empty KG, whose empty calibration split names no field."""
        spec = {"n_entities": 20, "n_predicates": 0, "triple_counts": [], "noise_rates": [], "n_clusters": 2}
        config = edited(without_dataset(write_config(tmp_path, dataset)), synthetic=spec)
        assert cli.main(["run", "--config", str(config)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "error: n_predicates must be >= 1, got 0\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("what", ["config", "scorer"])
    def test_config_that_is_not_an_object(self, tmp_path, dataset, capsys, what):
        config = write_config(tmp_path, dataset)
        if what == "config":
            config.write_text("[1, 2]", encoding="utf-8")
        else:
            edited(config, scorer=["softmax"])
        assert cli.main(["run", "--config", str(config)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {what} must be a JSON object, got list\n"

    def test_bad_scorer_kind_exits_before_training(self, tmp_path, dataset, capsys):
        config = edited(write_config(tmp_path, dataset), scorer={"kind": "apss"})
        assert cli.main(["train", "--config", str(config)]) == cli.EXIT_CONFIG
        assert "error: unknown nonconformity kind: apss" in capsys.readouterr().err
        assert not (tmp_path / "out" / "model_s0.npz").exists()

    @pytest.mark.parametrize("changes, message", [
        ({"negatives": 0}, "negatives must be >= 1, got 0"),
        ({"lr": 0}, "lr must be > 0, got 0"),
        ({"epochs": -1}, "epochs must be >= 0, got -1"),
        ({"batch_size": 0}, "batch_size must be >= 1, got 0"),
        ({"margin": 0}, "margin must be > 0, got 0"),
        ({"l2": -1}, "l2 must be >= 0, got -1"),
        ({"dim": 0}, "dim must be >= 1, got 0"),
        ({"model_kind": "rescal"}, "unknown model_kind: rescal (transe, distmult, complex)"),
    ], ids=["negatives", "lr", "epochs", "batch-size", "margin", "l2", "dim", "model-kind"])
    def test_bad_training_setting_is_named_before_loading_the_kg(self, tmp_path, dataset, capsys, monkeypatch,
                                                                 changes, message):
        def no_kg(*args, **kw):
            raise AssertionError("loaded the KG for a config that training rejects")
        monkeypatch.setattr(cli, "load_or_generate_kg", no_kg)
        config = edited(write_config(tmp_path, dataset), **changes)
        assert cli.main(["train", "--config", str(config)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()  # no config echo, so no model_s*.npz either

    def test_epsilon_outside_zero_one_exits_before_training(self, tmp_path, dataset, capsys, monkeypatch):
        def no_training(*args, **kw):
            raise AssertionError("trained a model for a config that calibration rejects")
        monkeypatch.setattr(models, "train", no_training)
        config = edited(write_config(tmp_path, dataset), epsilons=[1.5])
        assert cli.main(["run", "--config", str(config)]) == cli.EXIT_CONFIG
        assert "error: epsilon must be in (0, 1), got [1.5]" in capsys.readouterr().err

    @pytest.mark.parametrize("method, edit, message", [
        ("kgcp", lambda text: '{"epsilon": 0.1}', "missing key"),
        ("kgcp", lambda text: '{"method": "kgcp", "epsilon": 0.1, "gamma": 0.0, "partition": null, '
                              '"per_part": {"0": {"k_h', "current format"),
        ("kgcp", lambda text: '{"method": "kgcp", "epsilon": 0.1, "gamma": 0.0, "global_threshold": 0.5}',
         "older format"),
        ("condkgcp", _without_part_counts, "missing key 'n_cal'"),
        ("kgcp", _without_direction, "missing key 'direction'"),
        ("kgcp", _without_scorer, "missing key 'scorer'"),
        ("mcp", _with_parts([[0], [1]]), "partition misses predicate 2 of 3"),
        ("mcp", _with_parts([[0], [2]]), "partition misses predicate 1"),
        ("mcp", _with_parts([[0], [1], [2], [3]]), "partition names predicate 3, but there are 3"),
        ("mcp", _with_parts([[0, 1], [1], [2]]), "partition parts overlap on predicates [1]"),
        ("mcp", _with_parts([[0], [1], [2], [-1]]), "partition lists negative predicate -1"),
    ], ids=["missing-key", "truncated", "old-format", "without-part-counts", "without-direction", "without-scorer",
            "part-dropped", "predicate-skipped", "predicate-past-kg", "predicate-repeated", "predicate-negative"])
    def test_malformed_calibrated_model_names_file(self, tmp_path, dataset, capsys, method, edit, message):
        config = write_config(tmp_path, dataset, methods=[method])
        for stage in ("train", "score", "calibrate"):
            assert cli.main([stage, "--config", str(config)]) == 0
        artifact = tmp_path / "out" / f"calibrated_{method}_e0.1_s0.json"
        artifact.write_text(edit(artifact.read_text(encoding="utf-8")), encoding="utf-8")
        capsys.readouterr()
        assert cli.main(["evaluate", "--config", str(config)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(artifact) in err and "rerun the 'calibrate' stage" in err and message in err

    @pytest.mark.parametrize("source, target", [("kgcp_e0.1", "kgcp_e0.3"), ("mcp_e0.1", "kgcp_e0.1")],
                             ids=["epsilon", "method"])
    def test_calibrated_file_of_another_key_names_file(self, tmp_path, dataset, capsys, source, target):
        config = write_config(tmp_path, dataset, methods=["kgcp", "mcp"], epsilons=[0.1, 0.3])
        for stage in ("train", "score", "calibrate"):
            assert cli.main([stage, "--config", str(config)]) == 0
        artifact = tmp_path / "out" / f"calibrated_{target}_s0.json"
        artifact.write_bytes((tmp_path / "out" / f"calibrated_{source}_s0.json").read_bytes())
        capsys.readouterr()
        assert cli.main(["evaluate", "--config", str(config)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        method, epsilon = source.split("_e")
        assert f"error: {artifact}: holds {method} at epsilon {epsilon}, not " in err
        assert "rerun the 'calibrate' stage" in err

    @pytest.mark.parametrize("scorer", [{"kind": "raps"}, {"kind": "softmax", "raps_k_reg": 2}],
                             ids=["kind", "raps-setting"])
    def test_calibrated_file_of_another_scorer_names_file(self, tmp_path, dataset, capsys, scorer):
        """Thresholds calibrated under softmax are on another scale than RAPS scores: evaluate refuses them."""
        config = write_config(tmp_path, dataset, methods=["kgcp"])
        for stage in ("train", "score", "calibrate"):
            assert cli.main([stage, "--config", str(config)]) == 0
        capsys.readouterr()
        assert cli.main(["evaluate", "--config", str(edited(config, scorer=scorer))]) == cli.EXIT_CONFIG
        artifact = tmp_path / "out" / "calibrated_kgcp_e0.1_s0.json"
        settings = {"kind": "softmax", "raps_lambda": 0.01, "raps_k_reg": 5}
        err = capsys.readouterr().err
        assert f"error: {artifact}: holds thresholds of scorer {settings}, not of {settings | scorer}" in err
        assert "rerun the 'calibrate' stage" in err and not (tmp_path / "out" / "reports.csv").exists()

    def test_calibrated_file_of_another_direction_group_names_file(self, tmp_path, dataset, capsys):
        config = write_config(tmp_path, dataset, methods=["kgcp", "mcp"])
        for stage in ("train", "score", "calibrate"):
            assert cli.main([stage, "--config", str(config), "--split-directions"]) == 0
        head = tmp_path / "out" / "calibrated_mcp_head_e0.1_s0.json"
        head.write_bytes((tmp_path / "out" / "calibrated_mcp_tail_e0.1_s0.json").read_bytes())
        capsys.readouterr()
        assert cli.main(["evaluate", "--config", str(config), "--split-directions"]) == cli.EXIT_CONFIG
        assert (f"error: {head}: holds mcp at epsilon 0.1 in direction group 'tail', "
                "not mcp at 0.1 in direction group 'head' (rerun the 'calibrate' stage)") in capsys.readouterr().err

    def test_missing_dataset_path(self, tmp_path, capsys):
        config = write_config(tmp_path, tmp_path / "nope.json")
        assert cli.main(["train", "--config", str(config)]) == cli.EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_config_without_a_data_source(self, tmp_path, dataset, capsys):
        config = without_dataset(write_config(tmp_path, dataset))
        assert cli.main(["train", "--config", str(config)]) == cli.EXIT_CONFIG
        assert "error: need a dataset path or a synthetic spec" in capsys.readouterr().err

    def test_unknown_tune_objective(self, tmp_path, dataset, capsys):
        config = edited(write_config(tmp_path, dataset), tune_objective="EF")
        assert cli.main(["calibrate", "--config", str(config)]) == cli.EXIT_CONFIG
        assert "unknown tune_objective: EF" in capsys.readouterr().err

    def test_transe_norm_outside_one_or_two(self, tmp_path, dataset, capsys):
        config = edited(write_config(tmp_path, dataset, model_kind="transe"), transe_norm=3)
        assert cli.main(["train", "--config", str(config)]) == cli.EXIT_CONFIG
        assert "norm must be 1 or 2, got 3" in capsys.readouterr().err
        # a model file written elsewhere is checked on load
        config = write_config(tmp_path, dataset, model_kind="transe")
        assert cli.main(["train", "--config", str(config)]) == 0
        model_file = tmp_path / "out" / "model_s0.npz"
        np.savez(model_file, **{**np.load(model_file), "norm": 3})
        assert cli.main(["score", "--config", str(config)]) == cli.EXIT_CONFIG
        assert "norm must be 1 or 2, got 3" in capsys.readouterr().err

    def test_bad_method_in_flags(self, tmp_path, dataset):
        config = write_config(tmp_path, dataset)
        assert cli.main(["run", "--config", str(config), "--methods", "bogus"]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("flag, value, message", [
        ("epsilons", "0.1,", "could not convert string to float: ''"),
        ("seeds", "a", "invalid literal for int() with base 10: 'a'"),
    ], ids=["epsilons", "seeds"])
    def test_list_flag_that_does_not_parse_names_the_flag(self, tmp_path, dataset, capsys, flag, value, message):
        config = write_config(tmp_path, dataset)
        assert cli.main(["run", "--config", str(config), f"--{flag}", value]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: --{flag}: {message}\n"

    @pytest.mark.parametrize("flag", ["config", "dataset", "output-dir"])
    def test_path_of_the_wrong_kind_names_the_path(self, tmp_path, dataset, capsys, flag):
        """A directory as the config or the dataset, or a file as the output directory, exits 2 naming it."""
        config = write_config(tmp_path, dataset)
        wrong = config if flag == "output-dir" else tmp_path  # a repeated --config takes the last path
        assert cli.main(["run", "--config", str(config), f"--{flag}", str(wrong)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(wrong) in err

    @pytest.mark.parametrize("flag", ["config", "dataset"])
    def test_malformed_json_names_the_file(self, tmp_path, dataset, capsys, flag):
        """A config or a dataset manifest that is not JSON exits 2 naming the file."""
        config = write_config(tmp_path, dataset)
        bad = tmp_path / "bad.json"
        bad.write_text('{"epochs": 3,}', encoding="utf-8")
        assert cli.main(["run", "--config", str(config), f"--{flag}", str(bad)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: {bad}: Expecting property name enclosed in double quotes")

    @pytest.mark.parametrize("args, field", [
        (["--entities", "30", "--counts", "20", "20", "20", "--noise", "0.1", "0.2"], "noise_rates"),
        (["--entities", "0", "--counts", "20"], "n_entities"),
        (["--entities", "30", "--counts", "20", "--clusters", "0"], "n_clusters"),
        (["--entities", "30", "--counts", "20", "--seed", "-1"], "seed"),
    ], ids=["noise", "entities", "clusters", "seed"])
    def test_generate_sizes_name_their_field(self, tmp_path, capsys, args, field):
        assert cli.main(["generate", *args, "--out", str(tmp_path / "data")]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: {field} must")

    def test_verify_bounds_exit_codes(self, monkeypatch):
        ok = [CheckResult(name="a", passed=True, details="fine")]
        bad = [CheckResult(name="a", passed=False, details="off")]
        monkeypatch.setattr(cli.verify, "run_all_checks", lambda seed: ok)
        assert cli.main(["verify-bounds"]) == 0
        monkeypatch.setattr(cli.verify, "run_all_checks", lambda seed: bad)
        assert cli.main(["verify-bounds"]) == cli.EXIT_VERIFY

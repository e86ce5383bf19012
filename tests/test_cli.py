import json
from pathlib import Path

import pytest

from kgconformal import cli
from kgconformal.experiment import ExperimentConfig
from kgconformal.models import load_model, save_model
from kgconformal.verify import CheckResult


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


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    rc = cli.main([
        "generate", "--entities", "40", "--counts", "150", "80", "40",
        "--noise", "0.2", "--clusters", "4", "--seed", "0", "--out", str(root),
    ])
    assert rc == 0
    return root / "manifest.json"


class TestGenerate:
    def test_writes_manifest_and_splits(self, dataset):
        assert dataset.exists()
        doc = json.loads(dataset.read_text())
        for key in ("train", "valid", "test", "entities", "relations"):
            assert (dataset.parent / doc[key]).exists()


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


class TestStagedMatchesRun:
    """generate -> train -> score -> calibrate -> evaluate writes what `run` writes."""

    @pytest.mark.parametrize("extra", [{}, {"split_directions": True}, {"tune": True}],
                             ids=["pooled", "split-directions", "tune"])
    def test_reports_byte_identical(self, tmp_path, dataset, extra):
        outputs = {}
        for mode, stages in (("staged", ("train", "score", "calibrate", "evaluate")), ("run", ("run",))):
            root = tmp_path / mode
            root.mkdir()
            config = write_config(root, dataset, **extra)
            for stage in stages:
                assert cli.main([stage, "--config", str(config)]) == 0
            outputs[mode] = root / "out"
        for name in ("reports.csv", "summary.json"):
            assert (outputs["staged"] / name).read_bytes() == (outputs["run"] / name).read_bytes(), name
        if extra.get("split_directions"):
            for direction in ("tail", "head"):
                assert (outputs["staged"] / f"calibrated_condkgcp_{direction}_e0.1_s0.json").exists()
            assert not (outputs["staged"] / "calibrated_condkgcp_e0.1_s0.json").exists()


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

    def test_non_finite_scores_name_stage(self, tmp_path, dataset, capsys):
        config = write_config(tmp_path, dataset)
        assert cli.main(["train", "--config", str(config)]) == 0
        model_file = tmp_path / "out" / "model_s0.npz"
        model = load_model(model_file)
        model.entity_embeddings *= 1e200  # finite, but every DistMult score overflows
        save_model(model, model_file)
        assert cli.main(["score", "--config", str(config)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "non-finite score" in err and "'score' stage" in err

    def test_missing_dataset_path(self, tmp_path, capsys):
        config = write_config(tmp_path, tmp_path / "nope.json")
        assert cli.main(["train", "--config", str(config)]) == cli.EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_bad_method_in_flags(self, tmp_path, dataset):
        config = write_config(tmp_path, dataset)
        assert cli.main(["run", "--config", str(config), "--methods", "bogus"]) == cli.EXIT_CONFIG

    def test_verify_bounds_exit_codes(self, monkeypatch):
        ok = [CheckResult(name="a", passed=True, details="fine")]
        bad = [CheckResult(name="a", passed=False, details="off")]
        monkeypatch.setattr(cli.verify, "run_all_checks", lambda seed: ok)
        assert cli.main(["verify-bounds"]) == 0
        monkeypatch.setattr(cli.verify, "run_all_checks", lambda seed: bad)
        assert cli.main(["verify-bounds"]) == cli.EXIT_VERIFY

"""Command-line pipeline: generate, train, score, calibrate, evaluate, verify-bounds.

Stages communicate through versioned artifacts in the output directory, so
expensive scoring is reused across calibration settings.  Exit codes:
0 success, 2 configuration error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import conformal, metrics, models, verify
from .experiment import (ExperimentConfig, calibrate, calibration_keys, evaluate, load_or_generate_kg,
                         prepare_run, run_experiment)
from .kg import KGError, make_queries
from .synth import SyntheticKGSpec, write_dataset

EXIT_CONFIG = 2
EXIT_VERIFY = 3


class StageError(RuntimeError):
    def __init__(self, message: str, rerun: str):
        super().__init__(f"{message} (rerun the '{rerun}' stage)")
        self.rerun = rerun


def _model_path(out: Path, seed: int) -> Path:
    return out / f"model_s{seed}.npz"


def _scores_path(out: Path, seed: int) -> Path:
    return out / f"scores_s{seed}.bin"


def _predvecs_path(out: Path, seed: int) -> Path:
    return out / f"predvecs_s{seed}.bin"


def _calibrated_path(out: Path, seed: int, method: str, direction: str | None, epsilon: float) -> Path:
    group = "" if direction is None else f"_{direction}"
    return out / f"calibrated_{method}{group}_e{epsilon:g}_s{seed}.json"


def _load_config(args) -> ExperimentConfig:
    if args.config:
        config = ExperimentConfig.load(args.config)
    else:
        config = ExperimentConfig(dataset=getattr(args, "dataset", None))
    for attr in ("dataset", "output_dir", "gamma", "phi"):
        value = getattr(args, attr, None)
        if value is not None:
            setattr(config, attr, value)
    if getattr(args, "methods", None):
        config.methods = args.methods.split(",")
    if getattr(args, "epsilons", None):
        config.epsilons = [float(e) for e in args.epsilons.split(",")]
    if getattr(args, "seeds", None):
        config.seeds = [int(s) for s in args.seeds.split(",")]
    if getattr(args, "split_directions", False):
        config.split_directions = True
    if getattr(args, "raw_ranking", False):
        config.filtered = False
    config.validate()
    return config


def _echo_config(config: ExperimentConfig, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(config.to_json(), encoding="utf-8")


def cmd_generate(args) -> int:
    spec = SyntheticKGSpec(
        n_entities=args.entities,
        n_predicates=len(args.counts),
        triple_counts=args.counts,
        noise_rates=args.noise if len(args.noise) > 1 else args.noise[0],
        n_clusters=args.clusters,
        seed=args.seed,
    )
    manifest = write_dataset(spec, args.out)
    print(f"wrote dataset manifest: {manifest}")
    return 0


def cmd_train(args) -> int:
    config = _load_config(args)
    out = Path(config.output_dir)
    _echo_config(config, out)
    for seed in config.seeds:
        kg = load_or_generate_kg(config, seed)
        model = models.train(kg, config.model_kind, config.train_config(seed),
                             dim=config.dim, norm=config.transe_norm)
        models.save_model(model, _model_path(out, seed))
        print(f"seed {seed}: trained {config.model_kind} -> {_model_path(out, seed)}")
    return 0


def cmd_score(args) -> int:
    config = _load_config(args)
    out = Path(config.output_dir)
    _echo_config(config, out)
    for seed in config.seeds:
        model_file = _model_path(out, seed)
        if not model_file.exists():
            raise StageError(f"missing model artifact {model_file}", rerun="train")
        model = models.load_model(model_file)
        kg = load_or_generate_kg(config, seed)
        queries = [q for q, _ in make_queries(kg.splits.get("valid", []), config.both_directions).pairs]
        queries += [q for q, _ in make_queries(kg.splits.get("test", []), config.both_directions).pairs]
        matrix = models.ScoreMatrix.from_model(model, queries)
        models.export_scores(matrix, _scores_path(out, seed))
        vectors = np.stack([models.predicate_vector(model, r) for r in range(kg.vocab.n_predicates)])
        models.export_predicate_vectors(vectors, _predvecs_path(out, seed))
        print(f"seed {seed}: scored {len(matrix.vectors)} queries -> {_scores_path(out, seed)}")
    return 0


def _run_data_from_artifacts(config: ExperimentConfig, out: Path, seed: int):
    scores_file = _scores_path(out, seed)
    if not scores_file.exists():
        raise StageError(f"missing score artifact {scores_file}", rerun="score")
    matrix = models.import_scores(scores_file)
    vectors = models.import_predicate_vectors(_predvecs_path(out, seed))
    model_file = _model_path(out, seed)
    model = models.load_model(model_file) if model_file.exists() else None
    kg = load_or_generate_kg(config, seed)
    return prepare_run(config, seed, score_matrix=matrix, model=model,
                       kg=kg, predicate_vectors=vectors)


def cmd_calibrate(args) -> int:
    config = _load_config(args)
    out = Path(config.output_dir)
    _echo_config(config, out)
    for seed in config.seeds:
        data = _run_data_from_artifacts(config, out, seed)
        fitted = calibrate(config, seed, data)
        for key, model in fitted.items():
            model.save(_calibrated_path(out, seed, *key))
        print(f"seed {seed}: calibrated {sorted({m for m, _, _ in fitted})} at eps {config.epsilons}")
    return 0


def cmd_evaluate(args) -> int:
    config = _load_config(args)
    out = Path(config.output_dir)
    _echo_config(config, out)
    reports: list[metrics.EvaluationReport] = []
    for seed in config.seeds:
        data = _run_data_from_artifacts(config, out, seed)
        fitted = {}
        for key in calibration_keys(config, data):
            path = _calibrated_path(out, seed, *key)
            if not path.exists():
                raise StageError(f"missing calibrated model {path}", rerun="calibrate")
            fitted[key] = conformal.CalibratedModel.load(path)
        reports.extend(evaluate(config, seed, data, fitted))

    rows = metrics.aggregate_rows(reports)
    _write_reports(out, reports, rows, plot_data=args.plot_data)
    print(metrics.format_table(rows))
    return 0


def _write_reports(out: Path, reports, rows, plot_data: bool = False) -> None:
    with open(out / "reports.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(reports[0].row()))
        writer.writeheader()
        for rep in reports:
            writer.writerow(rep.row())
    (out / "summary.json").write_text(json.dumps(rows, indent=2), encoding="utf-8")
    if plot_data:
        with open(out / "plot_data.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["method", "epsilon", "seed", "metric", "value"])
            for rep in reports:
                writer.writerow([rep.method, rep.epsilon, rep.seed, "covgap", rep.covgap])
                writer.writerow([rep.method, rep.epsilon, rep.seed, "avesize", rep.avesize])


def cmd_verify_bounds(args) -> int:
    results = verify.run_all_checks(seed=args.seed)
    for result in results:
        print(result.line())
    return 0 if all(r.passed for r in results) else EXIT_VERIFY


def cmd_run(args) -> int:
    """Convenience end-to-end run without staged artifacts."""
    config = _load_config(args)
    out = Path(config.output_dir)
    _echo_config(config, out)
    reports, rows = run_experiment(config)
    _write_reports(out, reports, rows, plot_data=getattr(args, "plot_data", False))
    print(metrics.format_table(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kgconformal",
                                     description="Conformal prediction sets for KG link prediction")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic dataset")
    p.add_argument("--entities", type=int, default=100)
    p.add_argument("--counts", type=int, nargs="+", required=True,
                   help="triples per predicate (length = number of predicates)")
    p.add_argument("--noise", type=float, nargs="+", default=[0.1],
                   help="noise rate(s), one value or one per predicate")
    p.add_argument("--clusters", type=int, default=8,
                   help="entity clusters behind the predicate rules")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    def common(p):
        p.add_argument("--config", help="experiment config JSON")
        p.add_argument("--dataset", help="dataset manifest or TSV path")
        p.add_argument("--output-dir", dest="output_dir")
        p.add_argument("--methods", help="comma-separated: kgcp,mcp,condkgcp")
        p.add_argument("--epsilons", help="comma-separated error rates")
        p.add_argument("--seeds", help="comma-separated seeds")
        p.add_argument("--gamma", type=float)
        p.add_argument("--phi", type=int)
        p.add_argument("--split-directions", action="store_true", dest="split_directions",
                       help="calibrate head and tail queries separately")
        p.add_argument("--raw-ranking", action="store_true", dest="raw_ranking",
                       help="disable the filtered-ranking mask")

    for name, func in (("train", cmd_train), ("score", cmd_score), ("calibrate", cmd_calibrate)):
        p = sub.add_parser(name)
        common(p)
        p.set_defaults(func=func)

    p = sub.add_parser("evaluate", help="evaluate calibrated models and print the comparison table")
    common(p)
    p.add_argument("--plot-data", action="store_true", help="emit tidy CSV for metric curves")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("run", help="end-to-end run (train+score+calibrate+evaluate in memory)")
    common(p)
    p.add_argument("--plot-data", action="store_true")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify-bounds", help="run the Monte-Carlo coverage/shrinkage suites")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify_bounds)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (KGError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (models.TrainingDiverged, FloatingPointError) as exc:
        print(f"error: {exc} (in the '{args.command}' stage)", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

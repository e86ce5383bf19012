"""Experiment configuration and the fit/predict/evaluate pipeline."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import conformal, metrics, models, scores
from .kg import (
    Direction,
    KnowledgeGraph,
    KGError,
    QueryAnswerSet,
    SplitConfig,
    build_answer_index,
    candidate_ranks,
    load_kg,
    make_queries,
    rank_of,
    split_triples,
)
from .synth import SyntheticKGSpec, synthetic_kg

__all__ = ["ExperimentConfig", "RunData", "calibrate", "calibration_keys", "evaluate", "load_or_generate_kg",
           "prepare_run", "run_experiment", "run_single", "tune_condkgcp"]

DEFAULT_GAMMA_GRID = (0.01, 0.1, 0.5)
DEFAULT_PHI_GRID = (20, 50, 100, 200)


@dataclass
class ExperimentConfig:
    dataset: str | None = None
    synthetic: dict | None = None
    model_kind: str = "transe"
    dim: int = 16
    transe_norm: int = 1
    epochs: int = 150
    lr: float = 0.05
    negatives: int = 5
    margin: float = 1.0
    l2: float = 1e-6
    batch_size: int = 256
    score_matrix: str | None = None
    predicate_vectors: str | None = None
    scorer: dict = field(default_factory=lambda: {"kind": "softmax"})
    methods: list[str] = field(default_factory=lambda: ["kgcp", "mcp", "condkgcp"])
    epsilons: list[float] = field(default_factory=lambda: [0.1])
    gamma: float = 0.1
    phi: int = 20
    seeds: list[int] = field(default_factory=lambda: [0])
    filtered: bool = True
    both_directions: bool = True
    split_directions: bool = False
    macro_avesize: bool = False
    tune: bool = False
    tune_objective: str = "ef"  # ef (with covgap tiebreak) | covgap | avesize
    output_dir: str = "out"

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if not self.methods or not self.epsilons or not self.seeds:
            raise ValueError("need at least one method, epsilon, and seed")
        if self.dataset is None and self.synthetic is None and self.score_matrix is None:
            raise ValueError("need a dataset path, a synthetic spec, or a score matrix")
        for m in self.methods:
            if m not in ("kgcp", "mcp", "condkgcp"):
                raise ValueError(f"unknown method: {m}")

    def scorer_config(self, seed: int) -> scores.ScorerConfig:
        doc = dict(self.scorer)
        doc.setdefault("rng_seed", seed)
        return scores.ScorerConfig(**doc)

    def train_config(self, seed: int) -> models.TrainConfig:
        return models.TrainConfig(
            epochs=self.epochs, lr=self.lr, negatives=self.negatives, margin=self.margin,
            l2=self.l2, batch_size=self.batch_size, seed=seed,
        )

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls(**json.loads(text))

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentConfig":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


@dataclass
class RunData:
    """Everything one seed needs for calibration and evaluation."""

    kg: KnowledgeGraph
    calib: QueryAnswerSet
    test: QueryAnswerSet
    calib_predicates: np.ndarray
    calib_nonconf: np.ndarray     # nonconformity of the true calibration answers
    calib_ranks: np.ndarray       # filtered rank of the true calibration answers
    test_predicates: np.ndarray
    test_answers: np.ndarray
    test_nonconf: list[np.ndarray]   # per test pair, vector over all entities
    test_ranks: list[np.ndarray]     # per test pair, candidate ranks
    test_masks: list[set]
    predicate_vectors: np.ndarray
    model: models.EmbeddingModel | None = None
    score_matrix: models.ScoreMatrix | None = None


def load_or_generate_kg(config: ExperimentConfig, seed: int) -> KnowledgeGraph:
    """The seed's KG: the synthetic spec (its seed offset by ``seed``) or the dataset.

    A bare TSV (a single ``"all"`` split) is split with ``SplitConfig(seed=seed)``.
    """
    if config.synthetic is not None:
        spec_doc = dict(config.synthetic)
        spec_doc["seed"] = spec_doc.get("seed", 0) + seed
        return synthetic_kg(SyntheticKGSpec(**spec_doc))
    if config.dataset is None:
        raise KGError("no dataset configured")
    kg = load_kg(config.dataset)
    if set(kg.splits) == {"all"}:
        kg = KnowledgeGraph(vocab=kg.vocab, splits=split_triples(kg.splits["all"], SplitConfig(seed=seed)))
    return kg


def prepare_run(config: ExperimentConfig, seed: int,
                score_matrix: models.ScoreMatrix | None = None,
                model: models.EmbeddingModel | None = None,
                kg: KnowledgeGraph | None = None,
                predicate_vectors: np.ndarray | None = None) -> RunData:
    """Generate/load data, train or import scores, and precompute per-pair arrays."""
    if kg is None:
        kg = load_or_generate_kg(config, seed)
    calib = make_queries(kg.splits.get("valid", []), config.both_directions, name="calib")
    test = make_queries(kg.splits.get("test", []), config.both_directions, name="test")
    if not calib.pairs or not test.pairs:
        raise KGError("calibration or test split is empty")
    train_qa = make_queries(kg.splits.get("train", []), config.both_directions, name="train")
    answer_index = build_answer_index([train_qa, calib, test]) if config.filtered else {}

    all_queries = [q for q, _ in calib.pairs] + [q for q, _ in test.pairs]
    if score_matrix is None:
        if config.score_matrix is not None:
            score_matrix = models.import_scores(config.score_matrix, required_queries=all_queries)
        else:
            if model is None:
                model = models.train(kg, config.model_kind, config.train_config(seed),
                                     dim=config.dim, norm=config.transe_norm)
            score_matrix = models.ScoreMatrix.from_model(model, all_queries)
    else:
        score_matrix.require(all_queries)

    if predicate_vectors is not None:
        pred_vecs = predicate_vectors
    elif model is not None:
        pred_vecs = np.stack([models.predicate_vector(model, r) for r in range(kg.vocab.n_predicates)])
    elif config.predicate_vectors is not None:
        pred_vecs = models.import_predicate_vectors(config.predicate_vectors)
    else:
        raise KGError("condkgcp merging needs a trained model or a predicate-vector sidecar file")

    scorer = config.scorer_config(seed)

    def mask_for(q, a) -> set:
        if not config.filtered:
            return set()
        return answer_index.get(q.key(), set()) - {a}

    calib_nonconf = np.empty(len(calib.pairs))
    calib_ranks = np.empty(len(calib.pairs), dtype=np.int64)
    for i, (q, a) in enumerate(calib.pairs):
        raw = score_matrix.get(q)
        calib_nonconf[i] = scores.nonconformity(raw, scorer, query_index=i)[a]
        calib_ranks[i] = rank_of(raw, a, mask_for(q, a))

    offset = len(calib.pairs)
    test_nonconf: list[np.ndarray] = []
    test_ranks: list[np.ndarray] = []
    test_masks: list[set] = []
    for j, (q, a) in enumerate(test.pairs):
        raw = score_matrix.get(q)
        mask = mask_for(q, a)
        test_nonconf.append(scores.nonconformity(raw, scorer, query_index=offset + j))
        test_ranks.append(candidate_ranks(raw, mask))
        test_masks.append(mask)

    return RunData(
        kg=kg,
        calib=calib,
        test=test,
        calib_predicates=calib.predicates(),
        calib_nonconf=calib_nonconf,
        calib_ranks=calib_ranks,
        test_predicates=test.predicates(),
        test_answers=np.array([a for _, a in test.pairs], dtype=np.int64),
        test_nonconf=test_nonconf,
        test_ranks=test_ranks,
        test_masks=test_masks,
        predicate_vectors=pred_vecs,
        model=model,
        score_matrix=score_matrix,
    )


def _direction_groups(data: RunData, split_directions: bool):
    """(direction, calib indices, test indices): one pool (direction None), or one per direction."""
    if not split_directions:
        yield None, np.arange(len(data.calib.pairs)), np.arange(len(data.test.pairs))
        return
    for direction in (Direction.TAIL, Direction.HEAD):
        cal_idx = np.array([i for i, (q, _) in enumerate(data.calib.pairs) if q.direction is direction], dtype=np.int64)
        test_idx = np.array([j for j, (q, _) in enumerate(data.test.pairs) if q.direction is direction], dtype=np.int64)
        if cal_idx.size and test_idx.size:
            yield direction.value, cal_idx, test_idx


def _fitted_methods(config: ExperimentConfig) -> list[str]:
    """The configured methods plus kgcp, the EF reference."""
    return sorted(set(config.methods) | {"kgcp"})


def calibration_keys(config: ExperimentConfig, data: RunData) -> list[tuple[str, str | None, float]]:
    """``(method, direction, epsilon)`` of every model :func:`calibrate` fits (direction None when pooled)."""
    groups = [direction for direction, _, _ in _direction_groups(data, config.split_directions)]
    return [(m, d, eps) for eps in config.epsilons for d in groups for m in _fitted_methods(config)]


def _fit(method: str, data: RunData, cal_idx: np.ndarray, epsilon: float,
         gamma: float, phi: int) -> conformal.CalibratedModel:
    preds = data.calib_predicates[cal_idx]
    nonconf = data.calib_nonconf[cal_idx]
    if method == "kgcp":
        return conformal.fit_kgcp(nonconf, epsilon)
    if method == "mcp":
        return conformal.fit_mcp(preds, nonconf, epsilon, data.kg.vocab.n_predicates)
    partition = conformal.build_partition(preds, data.predicate_vectors, phi)
    return conformal.fit_condkgcp(preds, nonconf, data.calib_ranks[cal_idx], partition, epsilon, gamma)


def calibrate(config: ExperimentConfig, seed: int, data: RunData,
              gamma: float | None = None, phi: int | None = None) -> dict[tuple, conformal.CalibratedModel]:
    """Fit every model of :func:`calibration_keys` on its direction group's calibration pairs.

    (gamma, phi) default to the config's; with ``config.tune`` they are
    grid-selected by :func:`tune_condkgcp` instead.
    """
    gamma = config.gamma if gamma is None else gamma
    phi = config.phi if phi is None else phi
    if config.tune and "condkgcp" in config.methods:
        gamma, phi = tune_condkgcp(config, seed, data)
    cal_idx = {direction: idx for direction, idx, _ in _direction_groups(data, config.split_directions)}
    return {
        (method, direction, epsilon): _fit(method, data, cal_idx[direction], epsilon, gamma, phi)
        for method, direction, epsilon in calibration_keys(config, data)
    }


def _predict_all(model: conformal.CalibratedModel, data: RunData, test_idx: np.ndarray) -> list[np.ndarray]:
    return [conformal.predict_set(model, int(data.test_predicates[j]), data.test_nonconf[j],
                                  data.test_ranks[j], data.test_masks[j]) for j in test_idx]


def _prop1_bound_checks(model: conformal.CalibratedModel, data: RunData,
                        test_idx: np.ndarray, prediction_sets: list[np.ndarray]) -> dict[int, bool]:
    """Point check of the per-part conditional coverage bounds on the test split."""
    partition = model.partition
    calib_part = np.array([partition.part_of[int(r)] for r in data.calib_predicates], dtype=np.int64)
    covered: dict[int, list[bool]] = {}
    for j, members in zip(test_idx, prediction_sets):
        g = partition.part_of[int(data.test_predicates[j])]
        covered.setdefault(g, []).append(int(data.test_answers[j]) in members)
    checks: dict[int, bool] = {}
    for g, flags in covered.items():
        pc = model.per_part[g]
        n_g = int(np.count_nonzero(calib_part == g))
        lower = 1 - model.epsilon - (1 - model.gamma) * pc.rank_miscoverage
        upper = 1 - model.epsilon + model.gamma * pc.rank_miscoverage + 1.0 / (n_g + 1)
        slack = 3.0 * math.sqrt(0.25 / len(flags))  # binomial half-width at 3 SE
        cov = float(np.mean(flags))
        checks[g] = (lower - slack) <= cov <= (upper + slack)
    return checks


def evaluate(config: ExperimentConfig, seed: int, data: RunData,
             fitted: dict[tuple, conformal.CalibratedModel]) -> list[metrics.EvaluationReport]:
    """Reports of the models :func:`calibrate` fitted, one per (epsilon, method).

    Each method's prediction sets are scored against kgcp's (EF); condkgcp
    reports also carry the shrinkage diagnostics and the Prop-1 bound checks.
    """
    reports: list[metrics.EvaluationReport] = []
    for epsilon in config.epsilons:
        per_method_sets = {m: [None] * len(data.test.pairs) for m in _fitted_methods(config)}
        shrinkage: list[conformal.ShrinkageReport] = []
        bound_checks: dict[int, bool] = {}
        for direction, cal_idx, test_idx in _direction_groups(data, config.split_directions):
            for method in per_method_sets:
                model = fitted[(method, direction, epsilon)]
                sets = _predict_all(model, data, test_idx)
                for j, members in zip(test_idx, sets):
                    per_method_sets[method][j] = members
                if method == "condkgcp":
                    mcp_star = conformal.fit_part_mcp(
                        data.calib_predicates[cal_idx], data.calib_nonconf[cal_idx],
                        model.partition, epsilon, data.kg.vocab.n_entities,
                    )
                    queries = (
                        (int(data.test_predicates[j]), data.test_nonconf[j], data.test_ranks[j], data.test_masks[j])
                        for j in test_idx
                    )
                    shrinkage.append(conformal.verify_shrinkage(model, mcp_star, queries))
                    bound_checks.update(_prop1_bound_checks(model, data, test_idx, sets))

        reference = metrics.evaluate_predictions(
            "kgcp", epsilon, seed, data.test_predicates, data.test_answers,
            per_method_sets["kgcp"], config.macro_avesize,
        )
        for method in config.methods:
            if method == "kgcp":
                report = reference
            else:
                report = metrics.evaluate_predictions(
                    method, epsilon, seed, data.test_predicates, data.test_answers,
                    per_method_sets[method], config.macro_avesize,
                )
                report.ef = metrics.efficiency_rate(
                    report.covgap, report.avesize, reference.covgap, reference.avesize,
                )
            if method == "condkgcp" and shrinkage:
                report.csr = float(np.nanmean([s.csr for s in shrinkage]))
                report.sigma_bar = float(np.nanmean([s.sigma_bar for s in shrinkage]))
                report.bound_checks = bound_checks
            reports.append(report)
    return reports


def run_single(config: ExperimentConfig, seed: int, data: RunData | None = None,
               gamma: float | None = None, phi: int | None = None) -> list[metrics.EvaluationReport]:
    """Calibrate every configured method for one seed and evaluate on the test split."""
    if data is None:
        data = prepare_run(config, seed)
    return evaluate(config, seed, data, calibrate(config, seed, data, gamma, phi))


def tune_condkgcp(config: ExperimentConfig, seed: int, data: RunData,
                  gamma_grid=DEFAULT_GAMMA_GRID, phi_grid=DEFAULT_PHI_GRID) -> tuple[float, int]:
    """Grid-select (gamma, phi) on a held-out slice of the training split.

    Two disjoint samples of training triples, each sized like the calibration
    set, stand in for calibration and test; the objective is EF with a CovGap
    tiebreak (failures sort last).
    """
    rng = np.random.default_rng(seed + 7)
    train_triples = list(data.kg.splits.get("train", []))
    if not train_triples:
        raise KGError("tuning needs a non-empty training split")
    want = max(2, min(len(data.kg.splits.get("valid", [])), len(train_triples) // 2))
    order = rng.permutation(len(train_triples))
    tune_cal = [train_triples[i] for i in order[:want]]
    tune_test = [train_triples[i] for i in order[want : 2 * want]]

    sub = ExperimentConfig(**{**asdict(config), "tune": False, "methods": ["kgcp", "condkgcp"]})
    sub_kg = KnowledgeGraph(vocab=data.kg.vocab, splits={
        "train": data.kg.splits["train"], "valid": tune_cal, "test": tune_test,
    })
    needed = make_queries(tune_cal, config.both_directions).pairs \
        + make_queries(tune_test, config.both_directions).pairs
    if data.model is not None:
        matrix = models.ScoreMatrix.from_model(data.model, [q for q, _ in needed])
    elif config.score_matrix is not None:
        matrix = models.import_scores(config.score_matrix, required_queries=[q for q, _ in needed])
    else:
        raise KGError("tuning needs a trained model or an importable score matrix")
    sub_data = prepare_run(sub, seed, score_matrix=matrix, model=data.model,
                           kg=sub_kg, predicate_vectors=data.predicate_vectors)

    max_count = int(np.bincount(sub_data.calib_predicates, minlength=data.kg.vocab.n_predicates).max())
    candidates = []
    for phi in phi_grid:
        if phi > max_count:
            continue
        for gamma in gamma_grid:
            reps = run_single(sub, seed, data=sub_data, gamma=gamma, phi=phi)
            rep = next(r for r in reps if r.method == "condkgcp")
            ef = rep.ef if isinstance(rep.ef, float) else math.inf
            if config.tune_objective == "covgap":
                key = (rep.covgap, rep.avesize)
            elif config.tune_objective == "avesize":
                key = (rep.avesize, rep.covgap)
            else:
                key = (ef, rep.covgap)
            candidates.append((key, gamma, phi))
    if not candidates:
        return config.gamma, config.phi
    candidates.sort(key=lambda c: c[0])
    _, gamma, phi = candidates[0]
    return gamma, phi


def run_experiment(config: ExperimentConfig):
    """All seeds, aggregated: returns (reports, aggregate rows)."""
    reports: list[metrics.EvaluationReport] = []
    for seed in config.seeds:
        reports.extend(run_single(config, seed))
    rows = metrics.aggregate_rows(reports)
    return reports, rows

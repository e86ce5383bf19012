"""Experiment configuration and the fit/predict/evaluate pipeline."""

from __future__ import annotations

import json
import math
import numbers
import types
import typing
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import conformal, metrics, models, scores
from .kg import (
    DIRECTIONS,
    KnowledgeGraph,
    KGError,
    QueryAnswerSet,
    SplitConfig,
    filter_masks,
    load_kg,
    make_queries,
    split_triples,
)
from .synth import SyntheticKGSpec, synthetic_kg

__all__ = ["METHODS", "EvalData", "ExperimentConfig", "RunData", "answer_nonconf_and_ranks", "calibrate",
           "calibration_keys", "evaluate", "load_or_generate_kg", "prepare_run", "prepare_test", "run_experiment",
           "run_single", "tune_condkgcp"]

DEFAULT_GAMMA_GRID = (0.01, 0.1, 0.5)
DEFAULT_PHI_GRID = (20, 50, 100, 200)
EVAL_BLOCK_ROWS = 256  # pairs per block of the calibration and the evaluation pass (see _score_blocks)
TUNE_CUTS = (0.25, 0.5)  # under tune, the shares of a direction group's calibration pairs that fit, then score the grid


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
        """Reject what calibration would reject, before any training; ValueError names the setting."""
        if not self.methods or not self.epsilons or not self.seeds:
            raise ValueError("need at least one method, epsilon, and seed")
        if self.dataset is None and self.synthetic is None:
            raise ValueError("need a dataset path or a synthetic spec")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method: {m} ({', '.join(METHODS)})")
        for name in ("methods", "epsilons", "seeds"):
            values = list(getattr(self, name))
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ValueError(f"{name} lists {value} more than once: {values}")
        if any(seed < 0 for seed in self.seeds):
            raise ValueError(f"seeds must be >= 0, got {self.seeds}")
        if self.tune_objective not in ("ef", "covgap", "avesize"):
            raise ValueError(f"unknown tune_objective: {self.tune_objective} (ef, covgap or avesize)")
        if not all(0.0 < epsilon < 1.0 for epsilon in self.epsilons):
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilons}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        if self.phi < 1:
            raise ValueError(f"phi must be >= 1, got {self.phi}")
        if self.model_kind not in models.MODEL_KINDS:
            raise ValueError(f"unknown model_kind: {self.model_kind} ({', '.join(models.MODEL_KINDS)})")
        if self.transe_norm not in (1, 2):
            raise ValueError(f"transe_norm must be 1 or 2, got {self.transe_norm}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        self.train_config(0)
        self.scorer_config(0)
        if self.synthetic is not None:
            SyntheticKGSpec(**_known_keys(SyntheticKGSpec, self.synthetic, "synthetic"))

    def scorer_config(self, seed: int) -> scores.ScorerConfig:
        # each seed draws its own APS/RAPS stream, so a config cannot pin rng_seed
        return scores.ScorerConfig(**_known_keys(scores.ScorerConfig, self.scorer, "scorer", fixed=("rng_seed",)),
                                   rng_seed=seed)

    def train_config(self, seed: int) -> models.TrainConfig:
        return models.TrainConfig(
            epochs=self.epochs, lr=self.lr, negatives=self.negatives, margin=self.margin,
            l2=self.l2, batch_size=self.batch_size, seed=seed,
        )

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, doc, **overrides) -> "ExperimentConfig":
        """The config a parsed JSON document describes, with ``overrides`` applied; ValueError names unknown keys."""
        return cls(**{**_known_keys(cls, doc, "config"), **overrides})

    @classmethod
    def load(cls, path: str | Path, **overrides) -> "ExperimentConfig":
        """The config file at ``path`` with ``overrides`` applied; ValueError names the path when it is not JSON."""
        try:
            return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")), **overrides)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from exc


def _known_keys(cls, doc, what: str, fixed: tuple[str, ...] = ()) -> dict:
    """``doc``, checked to be a dict whose keys are all fields of dataclass ``cls`` but ``fixed``, each holding a
    value of its field's type (:func:`_fits`); ValueError names ``what``, and the key of a value of the wrong
    type."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - ({f.name for f in fields(cls)} - set(fixed)))
    if unknown:
        raise ValueError(f"{what} has unknown keys: {', '.join(map(str, unknown))}")
    hints = typing.get_type_hints(cls)
    for f in fields(cls):
        if f.name in doc and not _fits(doc[f.name], hints[f.name]):
            raise ValueError(f"{what} key {f.name} must be {f.type}, got {json.dumps(doc[f.name], default=str)}")
    return doc


def _fits(value, hint) -> bool:
    """Whether a parsed JSON ``value`` is of the field type ``hint``: an integer is also a float, but a bool is
    neither, and a list stands for a tuple.  Any value fits ``dict``: a nested document (``scorer``,
    ``synthetic``) goes through its own :func:`_known_keys`, which names it."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint is dict:
        return True
    if origin in (typing.Union, types.UnionType):
        return any(_fits(value, arg) for arg in args)
    if origin is list:
        return isinstance(value, (list, tuple)) and all(_fits(item, args[0]) for item in value)
    if origin is tuple:
        return isinstance(value, (list, tuple)) and len(value) == len(args) and all(map(_fits, value, args))
    if hint in (int, float):
        return isinstance(value, numbers.Integral if hint is int else numbers.Real) and not isinstance(value, bool)
    return isinstance(value, hint)


@dataclass
class EvalData:
    """What :func:`evaluate` reads: the KG, the query sets, the score rows and their masks, the test pairs' rows."""

    kg: KnowledgeGraph
    calib: QueryAnswerSet         # read for its size and directions only
    test: QueryAnswerSet
    score_rows: models.RowSource  # raw score rows of the test queries (and, in a RunData, the calibration ones)
    test_rows: np.ndarray         # row of each test pair's query in ``score_rows``
    mask_indptr: np.ndarray       # CSR filter masks of the score rows: row s masks
    mask_indices: np.ndarray      # mask_indices[mask_indptr[s]:mask_indptr[s + 1]]


@dataclass
class RunData(EvalData):
    """An :class:`EvalData` plus what :func:`calibrate` reads: the calibration answers' scores."""

    calib_nonconf: np.ndarray     # nonconformity of the true calibration answers
    calib_ranks: np.ndarray       # filtered rank of the true calibration answers
    predicate_vectors: np.ndarray | None = None  # None unless condkgcp is configured


def load_or_generate_kg(config: ExperimentConfig, seed: int) -> KnowledgeGraph:
    """The seed's KG: the synthetic spec (its seed offset by ``seed``) or the dataset.

    A bare TSV (a single ``"all"`` split) is split with ``SplitConfig(seed=seed)``.
    """
    if config.synthetic is not None:
        return synthetic_kg(SyntheticKGSpec(**{**config.synthetic, "seed": config.synthetic.get("seed", 0) + seed}))
    kg = load_kg(config.dataset)
    if set(kg.splits) == {"all"}:
        kg = KnowledgeGraph(vocab=kg.vocab, splits=split_triples(kg.splits["all"], SplitConfig(seed=seed)))
    return kg


def _query_sets(config: ExperimentConfig, kg: KnowledgeGraph):
    """The calibration and test query sets, and the known triples that filter masks are built from (none when raw)."""
    calib = make_queries(kg.triples("valid"), config.both_directions)
    test = make_queries(kg.triples("test"), config.both_directions)
    if not len(calib) or not len(test):
        raise KGError("calibration or test split is empty")
    known = np.concatenate([kg.triples(name) for name in ("train", "valid", "test")])
    return calib, test, known if config.filtered else known[:0]


def _rows(source: models.RowSource, kg: KnowledgeGraph, *sets) -> list[np.ndarray]:
    """``source.rows(*sets)``; KGError unless ``source`` has one score column per KG entity."""
    rows = source.rows(*sets)
    if source.n_entities != kg.vocab.n_entities:
        raise KGError(f"{source.source}: {source.n_entities} score columns, "
                      f"but the KG has {kg.vocab.n_entities} entities")
    return rows


def prepare_test(config: ExperimentConfig, seed: int, score_matrix: models.RowSource,
                 kg: KnowledgeGraph | None = None) -> EvalData:
    """What :func:`evaluate` reads, with no calibration pass: the test pairs' rows of ``score_matrix`` and masks.

    Only the test queries must have rows in ``score_matrix``; :func:`evaluate` reads no other.
    """
    if kg is None:
        kg = load_or_generate_kg(config, seed)
    calib, test, known = _query_sets(config, kg)
    (test_rows,) = _rows(score_matrix, kg, test)
    return EvalData(kg, calib, test, score_matrix, test_rows, *filter_masks(score_matrix.queries, known))


def prepare_run(config: ExperimentConfig, seed: int,
                score_matrix: models.RowSource | None = None,
                model: models.EmbeddingModel | None = None,
                kg: KnowledgeGraph | None = None,
                predicate_vectors: str | Path | None = None) -> RunData:
    """What :func:`prepare_test` prepares, plus the calibration pass: everything calibration and evaluation read.

    The scores come from ``score_matrix`` (any row source, such as
    :func:`models.import_scores` of a file), else from ``model``, trained here if none is given; a model's
    rows are scored when a pass reads them (:class:`models.ModelScores`), and a binary score file's are read
    from it (:class:`models.ScoreFile`), so no run holds all of them.  Only condkgcp merges predicates, so
    predicate vectors are read only when it is configured: from the ``predicate_vectors`` sidecar file,
    else the model; KGError unless there is one per KG predicate.
    """
    if kg is None:
        kg = load_or_generate_kg(config, seed)
    calib, test, known = _query_sets(config, kg)
    source = score_matrix
    if source is None:
        if model is None:
            model = models.train(kg, config.model_kind, config.train_config(seed),
                                 dim=config.dim, norm=config.transe_norm)
        source = models.ModelScores(model, calib, test)
    calib_rows, test_rows = _rows(source, kg, calib, test)
    pred_vecs = _predicate_vectors(kg, predicate_vectors, model) if "condkgcp" in config.methods else None
    masks = filter_masks(source.queries, known)
    calib_nonconf, calib_ranks = answer_nonconf_and_ranks(config.scorer_config(seed), source, calib_rows,
                                                          calib.answer, *masks)
    return RunData(kg, calib, test, source, test_rows, *masks,
                   calib_nonconf=calib_nonconf, calib_ranks=calib_ranks, predicate_vectors=pred_vecs)


def _predicate_vectors(kg: KnowledgeGraph, sidecar: str | Path | None,
                       model: models.EmbeddingModel | None) -> np.ndarray:
    """One vector per KG predicate: the ``sidecar`` file's, else the model's."""
    n_pred = kg.vocab.n_predicates
    if sidecar is not None:
        named, pred_vecs = str(sidecar), models.import_predicate_vectors(sidecar)
    elif model is not None:
        named, pred_vecs = "model", np.stack([models.predicate_vector(model, r) for r in range(n_pred)])
    else:
        raise KGError("condkgcp merging needs a trained model or a predicate-vector sidecar file")
    if pred_vecs.shape[0] != n_pred:
        raise KGError(f"{named}: {pred_vecs.shape[0]} predicate vectors, but the KG has {n_pred} predicates "
                      "(rerun the 'score' stage)")
    return pred_vecs


def answer_nonconf_and_ranks(scorer: scores.ScorerConfig, source: models.RowSource, rows: np.ndarray,
                             answers: np.ndarray, indptr: np.ndarray,
                             indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nonconformity and filtered rank of each pair's answer, in one blocked pass (see :func:`_score_blocks`).

    Pair ``j`` reads score row ``rows[j]``, which masks its CSR slice of ``indices``, and draws as query ``j``.
    Its nonconformity is the one the pass yields.  Its rank is pessimistic: the number of candidates that score
    ``>=`` the answer, where the candidates are the row's unmasked entities plus the answer.  That is the masked
    row's count of scores ``>=`` the answer's, plus ``e_j``, as a filtered row masks every known answer.
    """
    nonconf_at = np.empty(rows.shape[0])
    ranks = np.empty(rows.shape[0], dtype=np.int64)
    for block, unit, _, _, masked, answer_raw, answer_nonconf, added in _score_blocks(
            scorer, source, rows, answers, indptr, indices, np.arange(rows.shape[0])):
        nonconf_at[block] = answer_nonconf
        per_row = np.split(answer_raw, np.flatnonzero(np.diff(unit)) + 1)
        ranks[block] = np.concatenate([(row >= x[:, None]).sum(axis=1) for row, x in zip(masked, per_row)]) + added
    return nonconf_at, ranks


def _score_blocks(scorer: scores.ScorerConfig, source: models.RowSource, rows: np.ndarray, answers: np.ndarray,
                  indptr: np.ndarray, indices: np.ndarray, draws: np.ndarray):
    """Yield ``(block, unit, owner, nonconf_at, masked, answer_raw, answer_nonconf, added)`` per block of
    ``EVAL_BLOCK_ROWS`` pairs: the one place a pair's answer is read.

    Pair ``j`` reads score row ``rows[j]``.  The pairs are visited in stable ``rows`` order, so the pairs of one
    query are adjacent; a query may straddle two blocks.  ``block`` holds the block's pair indices; ``masked`` holds
    one row per distinct query of the block, filled once by the source, and pair ``block[i]`` reads its row
    ``unit[i]``, whose first pair is ``owner[unit[i]]``.  ``answer_raw`` holds each pair's answer score, read before
    each ``masked`` row gets its score row's CSR mask at -inf, and ``added`` its ``e_j``, whether the row masks the
    answer.  ``answer_nonconf`` is its :func:`scores.nonconformity`, bit for bit, drawn as query ``draws[j]``.
    Once ``masked`` is sorted ascending in place, ``nonconf_at(at)`` reads pair ``block[i]``'s nonconformity at
    each unmasked position ``at[..., i]`` of its row (:func:`scores.softmax_at`, :func:`scores.aps_at`).  The
    arrays are views of buffers sized for the fullest block, which the next block overwrites.
    """
    n, width = rows.shape[0], source.n_entities
    order = np.argsort(rows, kind="stable")
    first = np.diff(rows[order], prepend=-1) != 0  # each block's first pair of each query
    first[::EVAL_BLOCK_ROWS] = True
    most = np.bincount(np.flatnonzero(first) // EVAL_BLOCK_ROWS).max(initial=0)  # query rows of the fullest block
    buffer, softmax = np.empty((most, width)), scorer.kind == "softmax"
    if softmax:
        lse, exps = np.empty(most), np.empty(width)  # exps: log_sum_exp's exponentials, one row at a time
    else:  # zeros: positions no unmasked entity sorts to stay finite
        ahead, mass = np.zeros((most, width)), np.zeros((most, width))
        place = np.zeros((most, width), dtype=np.int32) if scorer.kind == "raps" else None
    for start in range(0, n, EVAL_BLOCK_ROWS):
        block, firsts = order[start : start + EVAL_BLOCK_ROWS], first[start : start + EVAL_BLOCK_ROWS]
        unit, owner = np.cumsum(firsts) - 1, block[firsts]
        masked, answer = buffer[: owner.size], answers[block]
        source.fill(rows[owner], masked)
        answer_raw = masked[unit, answer]
        if not softmax:
            u = np.array([scores.uniform_for_query(scorer.rng_seed, q) for q in draws[block].tolist()])
            answer_nonconf, bounds = np.empty(block.size), np.append(np.flatnonzero(firsts), block.size).tolist()
        for i, s in enumerate(rows[owner].tolist()):
            known = indices[indptr[s] : indptr[s + 1]]
            if softmax:
                lse[i] = scores.log_sum_exp(masked[i], out=exps)
            else:
                pairs = slice(bounds[i], bounds[i + 1])  # the row's pairs
                answer_nonconf[pairs] = _aps_row(scorer, masked[i], known, answer[pairs], u[pairs], ahead[i],
                                                 mass[i], None if place is None else place[i])
            masked[i, known] = -np.inf  # score row s's mask, once per query row
        if softmax:
            answer_nonconf, nonconf_at = lse[unit] - answer_raw, scores.softmax_at(lse, masked, unit)
        else:
            nonconf_at = scores.aps_at(scorer, ahead, mass, place, u, unit)
        yield block, unit, owner, nonconf_at, masked, answer_raw, answer_nonconf, masked[unit, answer] == -np.inf


def _aps_row(scorer: scores.ScorerConfig, row: np.ndarray, known: np.ndarray, answers: np.ndarray, u: np.ndarray,
             ahead: np.ndarray, mass: np.ndarray, place: np.ndarray | None) -> np.ndarray:
    """APS or RAPS nonconformity of ``answers``, drawn with ``u``, over a query ``row`` before its mask ``known``.
    Lays out the row's :func:`scores.aps_order` terms (and 1-based places) where its unmasked entities sort to."""
    ranked, row_ahead, row_mass = scores.aps_order(row)
    pos = np.empty(row.size, dtype=np.int64)  # each entity's position in the order
    pos[ranked] = np.arange(row.size)
    kept = np.flatnonzero(np.isin(ranked, known, invert=True))[::-1]  # the unmasked ones' positions, lowest first
    top, at = slice(row.size - kept.size, row.size), pos[answers]
    ahead[top], mass[top] = row_ahead[kept], row_mass[kept]
    if place is None:
        return row_ahead[at] + u * row_mass[at]
    place[top] = kept + 1
    return row_ahead[at] + u * row_mass[at] + scores.raps_penalty(at + 1, scorer.raps_lambda, scorer.raps_k_reg)


def _direction_groups(data: EvalData, split_directions: bool):
    """(direction, calib indices, test indices): one pool (direction None), or one per direction."""
    if not split_directions:
        yield None, np.arange(len(data.calib)), np.arange(len(data.test))
        return
    for code, direction in enumerate(DIRECTIONS):
        cal_idx = np.flatnonzero(data.calib.direction == code)
        test_idx = np.flatnonzero(data.test.direction == code)
        if cal_idx.size and test_idx.size:
            yield direction.value, cal_idx, test_idx


def _fitted_methods(config: ExperimentConfig) -> list[str]:
    """The configured methods plus kgcp, the EF reference."""
    return sorted(set(config.methods) | {"kgcp"})


def calibration_keys(config: ExperimentConfig, data: EvalData) -> list[tuple[str, str | None, float]]:
    """``(method, direction, epsilon)`` of every model :func:`calibrate` fits (direction None when pooled)."""
    groups = [direction for direction, _, _ in _direction_groups(data, config.split_directions)]
    return [(m, d, eps) for eps in config.epsilons for d in groups for m in _fitted_methods(config)]


def _fit_condkgcp(data: RunData, cal_idx: np.ndarray, epsilon: float, gamma: float, phi: int,
                  direction: str | None = None) -> conformal.CalibratedModel:
    preds = data.calib.predicate[cal_idx]
    partition = conformal.build_partition(preds, data.predicate_vectors, phi, group=direction or "pooled")
    return conformal.fit_condkgcp(preds, data.calib_nonconf[cal_idx], data.calib_ranks[cal_idx],
                                  partition, epsilon, gamma)


# The one place a method name selects code: each entry fits one model on
# (data, calibration indices, epsilon, gamma, phi, direction group or None when pooled).
METHODS = {
    "kgcp": lambda data, cal_idx, epsilon, gamma, phi, direction=None: conformal.fit_kgcp(
        data.calib_nonconf[cal_idx], epsilon),
    "mcp": lambda data, cal_idx, epsilon, gamma, phi, direction=None: conformal.fit_mcp(
        data.calib.predicate[cal_idx], data.calib_nonconf[cal_idx], epsilon, data.kg.vocab.n_predicates),
    "condkgcp": _fit_condkgcp,
}


def calibrate(config: ExperimentConfig, seed: int, data: RunData) -> dict[tuple, conformal.CalibratedModel]:
    """Fit every model of :func:`calibration_keys` on its direction group's calibration pairs, each recording its
    direction group and its scorer.

    condkgcp uses the config's (gamma, phi).  With ``config.tune`` and condkgcp,
    :func:`tune_condkgcp` selects them on held-out calibration pairs, and every
    method calibrates on the pairs it leaves over; when the grid keeps no
    point, each condkgcp model carries a warning naming the config's values.
    """
    gamma, phi = config.gamma, config.phi
    cal_idx = {direction: idx for direction, idx, _ in _direction_groups(data, config.split_directions)}
    tune_warnings = []
    if config.tune and "condkgcp" in config.methods:
        tuned = tune_condkgcp(config, seed, data)
        if tuned is None:
            tune_warnings.append(f"tune kept no grid point; condkgcp uses the config's gamma {gamma:g} and phi {phi}")
        else:
            gamma, phi, cal_idx = tuned
    fitted = {}
    scorer = config.scorer_config(seed).record()
    for method, direction, epsilon in calibration_keys(config, data):
        model = METHODS[method](data, cal_idx[direction], epsilon, gamma, phi, direction)
        model.direction, model.scorer = direction, scorer
        if method == "condkgcp":
            model.warnings.extend(tune_warnings)
        fitted[(method, direction, epsilon)] = model
    return fitted


def _outcomes(config: ExperimentConfig, seed: int, data: EvalData, filters: tuple[np.ndarray, np.ndarray],
              draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Set size and answer hit of every test pair under each filter, in one blocked pass.

    ``filters`` holds each filter's per-test-pair score thresholds and rank cutoffs, one row per filter, equal
    across the pairs of a query, since :func:`_filters` looks them up by direction group and predicate; a row
    takes its first pair's.  Each block of :func:`_score_blocks` (test pair ``j`` draws as query ``draws[j]``) is
    sorted in its buffer and reduced by :func:`conformal.set_outcomes`, whatever the scorer.
    Returns ``(sizes, hits)``, each shaped ``(n_filters, n_test)``.
    """
    thresholds, cutoffs = filters
    sizes = np.empty(thresholds.shape, dtype=np.int64)
    hits = np.empty(thresholds.shape, dtype=bool)
    for block, unit, owner, nonconf_at, masked, answer_raw, answer_nonconf, added in _score_blocks(
            config.scorer_config(seed), data.score_rows, data.test_rows, data.test.answer, data.mask_indptr,
            data.mask_indices, draws):
        masked.sort(axis=1)
        sizes[:, block], hits[:, block] = conformal.set_outcomes(masked, nonconf_at, thresholds[:, owner],
                                                                 cutoffs[:, owner], unit, answer_nonconf,
                                                                 answer_raw, added)
    return sizes, hits


def _filters(data: EvalData, groups: list,
             filter_models: list[list[conformal.CalibratedModel]]) -> tuple[np.ndarray, np.ndarray]:
    """Per-test-pair (score thresholds, rank cutoffs), one row per filter: filter ``f`` applies
    ``filter_models[f]``, one model per direction group of ``groups`` (see :func:`_direction_groups`)."""
    n_entities = data.kg.vocab.n_entities
    shape = (len(filter_models), len(data.test))
    # NaN: a pair outside every direction group gets an empty set
    thresholds = np.full(shape, np.nan)
    cutoffs = np.full(shape, n_entities, dtype=np.int64)
    for f, group_models in enumerate(filter_models):
        for (_, _, test_idx), model in zip(groups, group_models):
            thresholds[f, test_idx], cutoffs[f, test_idx] = conformal.query_filters(
                model, data.test.predicate[test_idx], n_entities)
    return thresholds, cutoffs


def evaluate(config: ExperimentConfig, seed: int, data: EvalData,
             fitted: dict[tuple, conformal.CalibratedModel]) -> list[metrics.EvaluationReport]:
    """Reports of the models :func:`calibrate` fitted, one per (epsilon, method).

    Each method's sets are scored against kgcp's (EF); condkgcp reports also
    carry the shrinkage diagnostics, against each part's stored score-only
    threshold (:func:`conformal.score_only`).  Prop 1's coverage bounds are
    checked by ``verify``, not here.
    Everything but the test pairs comes from the models, so ``data`` needs no
    calibration pass (:func:`prepare_test`).  No set is materialised: every
    test pair reduces to its set size and answer hit (:func:`_outcomes`).
    """
    groups = list(_direction_groups(data, config.split_directions))
    # (label, epsilon) -> the model of each direction group; "score-only" is condkgcp's sigma_g reference
    per_group: dict[tuple[str, float], list[conformal.CalibratedModel]] = {}
    for epsilon in config.epsilons:
        for method in _fitted_methods(config):
            per_group[(method, epsilon)] = [fitted[(method, direction, epsilon)] for direction, _, _ in groups]
        if "condkgcp" in config.methods:
            per_group[("score-only", epsilon)] = [conformal.score_only(m) for m in per_group[("condkgcp", epsilon)]]

    sizes, hits = _outcomes(config, seed, data, _filters(data, groups, list(per_group.values())),
                            len(data.calib) + np.arange(len(data.test)))
    outcome = {key: (sizes[f], hits[f]) for f, key in enumerate(per_group)}

    reports: list[metrics.EvaluationReport] = []
    for epsilon in config.epsilons:
        by_method = {method: metrics.evaluate_outcomes(method, epsilon, seed, data.test.predicate,
                                                       *outcome[(method, epsilon)], config.macro_avesize)
                     for method in _fitted_methods(config)}
        reference = by_method["kgcp"]
        for method in config.methods:
            rep = by_method[method]
            if method != "kgcp":
                rep.ef = metrics.efficiency_rate(rep.covgap, rep.avesize, reference.covgap, reference.avesize)
            if method == "condkgcp":
                dual_sizes = outcome[("condkgcp", epsilon)][0]
                score_only_sizes = outcome[("score-only", epsilon)][0]
                shrinkage = [conformal.verify_shrinkage(model.partition, data.test.predicate[test_idx],
                                                        dual_sizes[test_idx], score_only_sizes[test_idx])
                             for (_, _, test_idx), model in zip(groups, per_group[("condkgcp", epsilon)])]
                rep.csr = float(np.nanmean([s.csr for s in shrinkage]))
                rep.sigma_bar = float(np.nanmean([s.sigma_bar for s in shrinkage]))
            reports.append(rep)
    return reports


def run_single(config: ExperimentConfig, seed: int, data: RunData | None = None) -> list[metrics.EvaluationReport]:
    """Calibrate every configured method for one seed and evaluate on the test split."""
    if data is None:
        data = prepare_run(config, seed)
    return evaluate(config, seed, data, calibrate(config, seed, data))


def _tuning_split(groups: list, seed: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Each direction group's calibration indices, permuted once in group order by one ``default_rng(seed + 7)``
    and cut at ``TUNE_CUTS`` into sorted (fitting, scored, calibrating) index sets."""
    rng = np.random.default_rng(seed + 7)
    return [tuple(np.sort(part) for part in np.split(rng.permutation(idx), [int(idx.size * f) for f in TUNE_CUTS]))
            for _, idx, _ in groups]


def tune_condkgcp(config: ExperimentConfig, seed: int, data: RunData, gamma_grid=DEFAULT_GAMMA_GRID,
                  phi_grid=DEFAULT_PHI_GRID) -> tuple[float, int, dict[str | None, np.ndarray]] | None:
    """Grid-select (gamma, phi) on held-out calibration pairs; return it and each group's pairs to calibrate on.

    The grid keeps the phi every group reaches in both its fitting and its
    calibrating pairs (:func:`_tuning_split`); with none left, nothing is
    tuned and None comes back.  kgcp, the EF reference, and condkgcp
    at each grid point are fitted on the fitting pairs at ``config.epsilons[0]``,
    and one :func:`_outcomes` pass scores their filters on the scored pairs,
    each drawing as its calibration index.  Points rank by ``config.tune_objective``
    (by default EF with a CovGap tiebreak, failures last); the first best, in
    phi-then-gamma order, serves every epsilon.
    """
    groups = list(_direction_groups(data, config.split_directions))
    split = _tuning_split(groups, seed)
    predicates = data.calib.predicate
    reach = min(np.bincount(predicates[idx], minlength=1).max() for fit, _, cal in split for idx in (fit, cal))
    grid = [(gamma, phi) for phi in phi_grid if phi <= reach for gamma in gamma_grid]
    if not grid:
        return None
    epsilon = config.epsilons[0]
    fitted = [[conformal.fit_kgcp(data.calib_nonconf[fit], epsilon) for fit, _, _ in split]]
    fitted += [[_fit_condkgcp(data, fit, epsilon, gamma, phi, direction)
                for (direction, _, _), (fit, _, _) in zip(groups, split)] for gamma, phi in grid]

    # a view whose test pairs are the scored pairs, so its direction groups are theirs, in the same order
    scored = np.concatenate([held for _, held, _ in split])
    pairs = QueryAnswerSet(*(getattr(data.calib, f.name)[scored] for f in fields(QueryAnswerSet)))
    (rows,) = _rows(data.score_rows, data.kg, pairs)
    held_out = replace(data, test=pairs, test_rows=rows)
    scored_groups = list(_direction_groups(held_out, config.split_directions))
    sizes, hits = _outcomes(config, seed, held_out, _filters(held_out, scored_groups, fitted), scored)
    reference, *reps = [metrics.evaluate_outcomes("tune", epsilon, seed, pairs.predicate, size, hit,
                                                  config.macro_avesize) for size, hit in zip(sizes, hits)]

    def objective(rep: metrics.EvaluationReport) -> tuple[float, float]:
        if config.tune_objective == "covgap":
            return rep.covgap, rep.avesize
        if config.tune_objective == "avesize":
            return rep.avesize, rep.covgap
        ef = metrics.efficiency_rate(rep.covgap, rep.avesize, reference.covgap, reference.avesize)
        return (ef if isinstance(ef, float) else math.inf), rep.covgap

    gamma, phi = grid[min(range(len(grid)), key=lambda i: objective(reps[i]))]
    return gamma, phi, {direction: cal for (direction, _, _), (_, _, cal) in zip(groups, split)}


def run_experiment(config: ExperimentConfig):
    """All seeds, aggregated: returns (reports, aggregate rows)."""
    reports: list[metrics.EvaluationReport] = []
    for seed in config.seeds:
        reports.extend(run_single(config, seed))
    rows = metrics.aggregate_rows(reports)
    return reports, rows

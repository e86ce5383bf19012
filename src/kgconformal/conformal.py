"""Calibration and prediction-set construction.

Every method is a per-part calibration over a predicate partition: each part
gets a score threshold and, optionally, a rank cutoff.

* ``kgcp``     -- one part holding every predicate, no rank filter (marginal coverage);
* ``mcp``      -- one part per predicate, no rank filter (predicate-conditional coverage);
* ``condkgcp`` -- predicates merged into parts, each part calibrated with a
  rank cutoff plus a score threshold at an adjusted error rate.

``predict_set`` and the JSON codec therefore treat all three the same way.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .kg import rank_cuts

__all__ = [
    "CalibratedModel",
    "PartCalibration",
    "PredicatePartition",
    "ShrinkageReport",
    "build_partition",
    "fit_condkgcp",
    "fit_kgcp",
    "fit_mcp",
    "fit_part_mcp",
    "predict_set",
    "prop1_bounds",
    "quantile",
    "query_filters",
    "rank_threshold",
    "score_only",
    "set_outcomes",
    "verify_shrinkage",
]


def _count_above(x: float) -> int:
    """Smallest integer strictly greater than x, robust to float noise."""
    nearest = round(x)
    if abs(x - nearest) < 1e-9:
        return int(nearest) + 1
    return math.floor(x) + 1


def quantile(values, epsilon: float) -> float:
    """Finite-sample conformal quantile: the ceil((n+1)(1-eps))-th smallest value.

    Returns +inf when the index exceeds n (the small-sample regime where the
    prediction set must be all of E to guarantee coverage).  ``epsilon`` may
    be 0 (adjusted error rates can hit 0), which always yields +inf.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("empty score multiset")
    if not 0.0 <= epsilon < 1.0:
        raise ValueError("epsilon must be in [0, 1)")
    n = values.size
    k = math.ceil(round((n + 1) * (1.0 - epsilon), 9))
    if k > n:
        return math.inf
    return float(np.partition(values, k - 1)[k - 1])


@dataclass
class PredicatePartition:
    """Disjoint cover of predicates ``0..n-1``; each part has >= phi calibration pairs.

    Construction raises ``ValueError`` on a negative predicate, on one listed
    twice, and on a gap below the largest one listed.
    """

    parts: list[list[int]]
    phi: int
    part_of: np.ndarray = field(init=False, repr=False, compare=False)  # part index of each predicate

    def __post_init__(self):
        members = np.array([r for part in self.parts for r in part], dtype=np.int64)
        listed = np.sort(members)
        if listed.size and listed[0] < 0:
            raise ValueError(f"partition lists negative predicate {listed[0]}")
        repeated = np.unique(listed[1:][listed[1:] == listed[:-1]])
        if repeated.size:
            raise ValueError(f"partition parts overlap on predicates {repeated.tolist()}")
        gaps = np.flatnonzero(listed != np.arange(listed.size))
        if gaps.size:  # the first gap: predicate gaps[0] is listed nowhere, though a larger one is
            raise ValueError(f"partition misses predicate {gaps[0]}")
        self.part_of = np.empty(members.size, dtype=np.int64)
        self.part_of[members] = np.repeat(np.arange(len(self.parts)), [len(part) for part in self.parts])

    def validate(self, n_predicates: int) -> None:
        """Raise ``ValueError`` unless the parts cover exactly predicates ``0..n_predicates-1``."""
        if self.part_of.size < n_predicates:
            raise ValueError(f"partition misses predicate {self.part_of.size} of {n_predicates}")
        if self.part_of.size > n_predicates:
            raise ValueError(f"partition names predicate {self.part_of.size - 1}, but there are {n_predicates}")


def build_partition(calib_predicates, predicate_vectors: np.ndarray, phi: int,
                    group: str | None = None) -> PredicatePartition:
    """Merge data-poor predicates into the part of their most similar rich predicate.

    Similarity is negative Manhattan distance between predicate vectors;
    argmax ties break toward the lowest predicate index.  ``group`` names the
    direction group of the calibration pairs in the error raised when phi
    exceeds every predicate's count.
    """
    predicate_vectors = np.asarray(predicate_vectors, dtype=np.float64)
    n_pred = predicate_vectors.shape[0]
    counts = np.bincount(np.asarray(calib_predicates, dtype=np.int64), minlength=n_pred)
    if phi < 1:
        raise ValueError("phi must be >= 1")
    largest = int(counts.max()) if counts.size else 0
    if phi > largest:
        where = "" if group is None else f" in direction group '{group}'"
        raise ValueError(f"phi exceeds max per-predicate calibration count: phi {phi}, "
                         f"largest count {largest}{where}")

    rich = [r for r in range(n_pred) if counts[r] >= phi]
    poor = [r for r in range(n_pred) if counts[r] < phi]
    parts = {r: [r] for r in rich}
    rich_vecs = predicate_vectors[rich]
    for r in poor:
        dist = np.abs(rich_vecs - predicate_vectors[r]).sum(axis=1)
        target = rich[int(np.argmin(dist))]  # argmin over sorted rich => lowest index wins ties
        parts[target].append(r)

    part_lists = [sorted(parts[r]) for r in rich]
    partition = PredicatePartition(parts=part_lists, phi=phi)
    partition.validate(n_pred)
    for i, members in enumerate(part_lists):
        if counts[members].sum() < phi:
            raise AssertionError(f"part {i} below phi calibration pairs")
    return partition


def rank_threshold(ranks, epsilon: float) -> tuple[int, float]:
    """Smallest rank cutoff whose empirical miscoverage is strictly below epsilon.

    Returns (k_hat, miscoverage at k_hat), where miscoverage at k is the
    fraction of calibration answers ranked deeper than k.
    """
    ranks = np.sort(np.asarray(ranks, dtype=np.int64))
    n = ranks.size
    if n == 0:
        raise ValueError("empty calibration ranks")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    # need count(rank <= k) > n * (1 - eps); take that order statistic
    c_min = _count_above(n * (1.0 - epsilon))
    c_min = min(c_min, n)
    k_hat = int(ranks[c_min - 1])
    miscoverage = float(np.count_nonzero(ranks > k_hat) / n)
    return k_hat, miscoverage


@dataclass
class PartCalibration:
    """One part's calibration; ``rank_cutoff`` None means no rank filter.

    ``n_cal`` counts the part's calibration pairs (Prop 1's n_g), and
    ``score_only_threshold`` is the part's quantile at the full error rate:
    the score-only filter that the shrinkage ratio sigma_g compares against.
    """

    rank_cutoff: int | None
    rank_miscoverage: float
    adjusted_epsilon: float
    score_threshold: float
    n_cal: int
    score_only_threshold: float


_METHOD_LABELS = ("kgcp", "mcp", "condkgcp")  # the labels the fit_* functions write


@dataclass
class CalibratedModel:
    """Per-part calibration over a predicate partition (None: one part, index 0, for every predicate).

    ``direction`` names the direction group whose calibration pairs fitted it
    (None when the directions are pooled), and ``scorer`` the nonconformity
    scorer whose scale the thresholds are on (``scores.ScorerConfig.record``;
    None when not fitted through a configured run).
    """

    method: str
    epsilon: float
    per_part: dict[int, PartCalibration]
    partition: PredicatePartition | None = None
    gamma: float = 0.0
    warnings: list[str] = field(default_factory=list)
    direction: str | None = None
    scorer: dict | None = None

    def to_json(self) -> str:
        def enc(x):
            return "inf" if math.isinf(x) else x

        partition = self.partition
        doc = {
            "method": self.method,
            "epsilon": self.epsilon,
            "direction": self.direction,
            "scorer": self.scorer,
            "gamma": self.gamma,
            "partition": None if partition is None else {"parts": partition.parts, "phi": partition.phi},
            "per_part": {
                str(g): {
                    "k_hat": pc.rank_cutoff,
                    "rank_miscoverage": pc.rank_miscoverage,
                    "adjusted_epsilon": pc.adjusted_epsilon,
                    "score_threshold": enc(pc.score_threshold),
                    "n_cal": pc.n_cal,
                    "score_only_threshold": enc(pc.score_only_threshold),
                }
                for g, pc in self.per_part.items()
            },
            "warnings": self.warnings,
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "CalibratedModel":
        def dec(x):
            return math.inf if x == "inf" else float(x)

        doc = json.loads(text)
        if "global_threshold" in doc or "per_predicate" in doc:
            raise ValueError("older format with global_threshold/per_predicate")
        if doc["method"] not in _METHOD_LABELS:
            raise ValueError(f"unknown method {doc['method']!r}")
        partition = None
        if doc["partition"] is not None:
            parts = [[int(r) for r in members] for members in doc["partition"]["parts"]]
            partition = PredicatePartition(parts=parts, phi=int(doc["partition"]["phi"]))
        per_part = {
            int(g): PartCalibration(
                rank_cutoff=None if pc["k_hat"] is None else int(pc["k_hat"]),
                rank_miscoverage=float(pc["rank_miscoverage"]),
                adjusted_epsilon=float(pc["adjusted_epsilon"]),
                score_threshold=dec(pc["score_threshold"]),
                n_cal=int(pc["n_cal"]),
                score_only_threshold=dec(pc["score_only_threshold"]),
            )
            for g, pc in doc["per_part"].items()
        }
        n_parts = 1 if partition is None else len(partition.parts)
        if sorted(per_part) != list(range(n_parts)):
            raise ValueError(f"per_part holds parts {sorted(per_part)}, the partition has {n_parts}")
        return cls(method=doc["method"], epsilon=float(doc["epsilon"]), per_part=per_part,
                   partition=partition, gamma=float(doc["gamma"]), warnings=list(doc["warnings"]),
                   direction=doc["direction"], scorer=doc["scorer"])

    def part_ids(self, predicates) -> np.ndarray:
        """The part index of each predicate (0 for every predicate without a partition)."""
        predicates = np.asarray(predicates, dtype=np.int64)
        return np.zeros_like(predicates) if self.partition is None else self.partition.part_of[predicates]

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "CalibratedModel":
        """Read a saved model; a malformed or outdated file raises ``ValueError`` naming it."""
        try:
            return cls.from_json(Path(path).read_text(encoding="utf-8"))
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
            raise ValueError(f"{path} is not a calibrated model in the current format ({detail}) "
                             "(rerun the 'calibrate' stage)") from exc


def _fit_parts(method: str, epsilon: float, nonconf_true, calib_predicates,
               partition: PredicatePartition | None = None, rank_filter=None,
               gamma: float = 0.0) -> CalibratedModel:
    """Calibrate every part of ``partition`` (None: one pooled part) on its own pairs.

    ``rank_filter(in_part)`` gives a part's (rank cutoff, rank miscoverage);
    without it no part has a rank filter.  The score threshold is the part's
    conformal quantile at ``epsilon - gamma * miscoverage``, and the score-only
    threshold its quantile at ``epsilon``.  A part without calibration pairs
    gets both thresholds +inf, no rank filter, and a warning.
    """
    nonconf_true = np.asarray(nonconf_true, dtype=np.float64)
    model = CalibratedModel(method=method, epsilon=epsilon, per_part={}, partition=partition, gamma=gamma)
    part_ids = model.part_ids(calib_predicates)
    for g in range(1 if partition is None else len(partition.parts)):
        in_g = part_ids == g
        n_cal = int(np.count_nonzero(in_g))
        if not n_cal:
            model.per_part[g] = PartCalibration(None, 0.0, epsilon, math.inf, 0, math.inf)
            model.warnings.append(f"part {g} has no calibration pairs; threshold +inf")
            continue
        rank_cutoff, miscoverage = (None, 0.0) if rank_filter is None else rank_filter(in_g)
        adjusted = epsilon - gamma * miscoverage
        values = nonconf_true[in_g]
        model.per_part[g] = PartCalibration(rank_cutoff, miscoverage, adjusted, quantile(values, adjusted),
                                            n_cal, quantile(values, epsilon))
    return model


def fit_kgcp(nonconf_true, epsilon: float) -> CalibratedModel:
    """One pooled part, score threshold only (marginal coverage)."""
    return _fit_parts("kgcp", epsilon, nonconf_true, np.zeros(np.shape(nonconf_true), dtype=np.int64))


def fit_mcp(calib_predicates, nonconf_true, epsilon: float, n_predicates: int) -> CalibratedModel:
    """One part per predicate, score threshold only; predicates without calibration data get +inf."""
    partition = PredicatePartition(parts=[[r] for r in range(n_predicates)], phi=0)
    return _fit_parts("mcp", epsilon, nonconf_true, calib_predicates, partition)


def fit_condkgcp(
    calib_predicates,
    nonconf_true,
    ranks_true,
    partition: PredicatePartition,
    epsilon: float,
    gamma: float,
) -> CalibratedModel:
    """Dual calibration: per-part rank cutoff plus score threshold at the adjusted rate."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must be in [0, 1]")
    ranks_true = np.asarray(ranks_true, dtype=np.int64)
    return _fit_parts("condkgcp", epsilon, nonconf_true, calib_predicates, partition,
                      lambda in_g: rank_threshold(ranks_true[in_g], epsilon), gamma)


def fit_part_mcp(calib_predicates, nonconf_true, partition: PredicatePartition,
                 epsilon: float, n_entities: int) -> CalibratedModel:
    """Part-level score-only calibration at the full error rate, refitted from the calibration pairs.

    Every part keeps all ``n_entities`` ranks, so its rank miscoverage is 0.  Its
    thresholds equal the ``score_only_threshold`` a fit over the same partition
    stores; the pipeline reads those (:func:`score_only`), and this refit is the
    reference they are tested against.
    """
    return _fit_parts("condkgcp", epsilon, nonconf_true, calib_predicates, partition,
                      lambda in_g: (int(n_entities), 0.0))


def score_only(model: CalibratedModel) -> CalibratedModel:
    """``model`` with each part's stored score-only threshold and no rank filter: sigma_g's reference filter."""
    return replace(model, per_part={g: replace(pc, rank_cutoff=None, score_threshold=pc.score_only_threshold)
                                    for g, pc in model.per_part.items()})


def predict_set(model: CalibratedModel, predicate: int, nonconf: np.ndarray,
                ranks: np.ndarray | None = None, filter_mask=None) -> np.ndarray:
    """Entity indices in the prediction set for one query (masked entities excluded).

    ``ranks`` are needed only when the predicate's part has a rank cutoff.
    """
    pc = model.per_part[int(model.part_ids(predicate))]
    member = np.asarray(nonconf, dtype=np.float64) <= pc.score_threshold
    if pc.rank_cutoff is not None:
        if ranks is None:
            raise ValueError(f"{model.method} prediction with a rank cutoff requires candidate ranks")
        member &= np.asarray(ranks) <= pc.rank_cutoff
    if filter_mask is not None:
        member[list(filter_mask)] = False
    return np.flatnonzero(member)


def query_filters(model: CalibratedModel, predicates, n_entities: int) -> tuple[np.ndarray, np.ndarray]:
    """Each query's (score threshold, rank cutoff), looked up by predicate as :func:`predict_set` does.

    A part without a rank filter reads as cutoff ``n_entities``, which every
    candidate's rank meets.
    """
    parts = [model.per_part[g] for g in range(len(model.per_part))]
    ids = model.part_ids(predicates)
    thresholds = np.array([pc.score_threshold for pc in parts], dtype=np.float64)
    cutoffs = np.array([n_entities if pc.rank_cutoff is None else pc.rank_cutoff for pc in parts], dtype=np.int64)
    return thresholds[ids], cutoffs[ids]


def prop1_bounds(epsilon: float, gamma: float, rank_miscoverage: float, n_cal: int) -> tuple[float, float]:
    """Prop 1's (lower, upper) coverage bounds for a part with ``n_cal`` calibration pairs."""
    lower = 1 - epsilon - (1 - gamma) * rank_miscoverage
    upper = 1 - epsilon + gamma * rank_miscoverage + 1.0 / (n_cal + 1)
    return lower, upper


def set_outcomes(ordered: np.ndarray, nonconf_at, thresholds: np.ndarray, cutoffs: np.ndarray, rows: np.ndarray,
                 answer_nonconf, answer_raw, added) -> tuple[np.ndarray, np.ndarray]:
    """Set size and answer hit of each (query, answer) pair under each filter, without building the sets.

    Rows of ``ordered`` are query rows over all entities, sorted ascending.  A row masks its query's known answers
    (filtered), its pairs' own included, or none (raw): its entities at -inf, first.  ``thresholds`` and ``cutoffs``
    hold one filter per row (see :func:`query_filters`) and one query row per column.  Pair ``j`` reads row
    ``rows[j]``; its answer has nonconformity ``answer_nonconf[j]``, scored ``answer_raw[j]`` before masking, and is
    added back when the row masks it (``added[j]``, ``e_j``): its candidates are the row's unmasked entities plus
    that answer.  ``nonconf_at(at)`` reads pair ``j``'s nonconformity at position ``at[f, j]`` of its row
    (``scores.softmax_at``, ``scores.aps_at``).  A set is ``(nonconf <= threshold) & (raw > cut)`` with the rank
    cutoff as a score cut, so sizes and hits equal those of :func:`predict_set` given the pair's candidate ranks
    and mask.  A NaN threshold gives an empty set.  No input is modified.

    With ``b_k`` the k-th largest unmasked score of the row (:func:`kg.rank_cuts`; ``b_0 = +inf``, -inf past the
    end), cutoff ``k`` gives pair ``j``:

    * ``hit = answer_nonconf <= threshold & x > (b_k if e_j else b_(k+1))``,
      since an added-back answer is one more candidate at its own score ``x``;
    * ``cut = b_k if (e_j and x >= b_k) else b_(k+1)``: the (k+1)-th largest
      candidate score, as it acts on the row's own entities;
    * ``size = #{row entities: nonconf <= threshold, raw > cut} + e_j * hit``.

    Down a row from its top raw never rises and no scorer's nonconformity falls (``scores.aps_order``), so a set's
    row entities are a top of the row, whose length one bisection per (filter, pair) finds.
    Returns ``(sizes, hits)``, each shaped ``(len(thresholds), len(rows))``.
    """
    n_filters, width = thresholds.shape[0], ordered.shape[1]
    both = rank_cuts(ordered, np.hstack((cutoffs.T - 1, cutoffs.T))).T  # b_k, then b_(k+1), per (filter, row)
    b_k, b_next = both[:n_filters, rows], both[n_filters:, rows]
    thresholds = thresholds[:, rows]
    hits = (answer_nonconf <= thresholds) & (answer_raw > np.where(added, b_k, b_next))
    cuts = np.where(added & (answer_raw >= b_k), b_k, b_next)
    sizes = np.zeros(cuts.shape, dtype=np.int64)  # the longest top of the row in the set found so far
    for step in (1 << b for b in reversed(range(width.bit_length()))):
        longer = sizes + step
        at = np.maximum(width - longer, 0)  # the top's last position
        sizes += step * ((longer <= width) & (ordered[rows, at] > cuts) & (nonconf_at(at) <= thresholds))
    sizes += added & hits
    return sizes, hits


@dataclass
class ShrinkageReport:
    sigma_per_part: dict[int, float]
    skipped_parts: list[int]
    csr: float
    sigma_bar: float


def verify_shrinkage(partition: PredicatePartition, predicates, dual_sizes, score_only_sizes) -> ShrinkageReport:
    """Empirical per-part shrinkage ratio of the dual filter vs the score-only filter.

    ``dual_sizes`` and ``score_only_sizes`` are the test queries' set sizes
    under the dual calibration and under the part-level full-rate threshold;
    ``predicates`` are the queries' predicates.  sigma_g is the part's total
    dual size divided by its total score-only size; parts with a zero
    denominator (or no test queries) are skipped and flagged.
    """
    n_parts = len(partition.parts)
    part = partition.part_of[np.asarray(predicates, dtype=np.int64)]
    numer = np.bincount(part, weights=np.asarray(dual_sizes, dtype=np.float64), minlength=n_parts)
    denom = np.bincount(part, weights=np.asarray(score_only_sizes, dtype=np.float64), minlength=n_parts)
    seen = np.bincount(part, minlength=n_parts) > 0

    sigma: dict[int, float] = {}
    skipped: list[int] = []
    for g in range(n_parts):
        if not seen[g] or denom[g] == 0:
            skipped.append(g)
        else:
            sigma[g] = float(numer[g] / denom[g])
    if sigma:
        csr = float(np.mean([s <= 1.0 for s in sigma.values()]))
        sigma_bar = float(np.mean(list(sigma.values())))
    else:
        csr = math.nan
        sigma_bar = math.nan
    return ShrinkageReport(sigma_per_part=sigma, skipped_parts=skipped, csr=csr, sigma_bar=sigma_bar)

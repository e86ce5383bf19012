"""Calibration and prediction-set construction.

Three methods are supported:

* ``kgcp``     -- one global score threshold (marginal coverage);
* ``mcp``      -- one threshold per predicate (predicate-conditional coverage);
* ``condkgcp`` -- predicates merged into parts, each part calibrated with a
  rank cutoff plus a score threshold at an adjusted error rate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

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
    "quantile",
    "rank_threshold",
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
    """Disjoint cover of the predicate set; each part has >= phi calibration pairs."""

    parts: list[list[int]]
    part_of: dict[int, int]
    phi: int

    def validate(self, n_predicates: int) -> None:
        seen: set[int] = set()
        for part in self.parts:
            overlap = seen & set(part)
            if overlap:
                raise ValueError(f"partition parts overlap on predicates {sorted(overlap)}")
            seen |= set(part)
        if seen != set(range(n_predicates)):
            raise ValueError("partition does not cover the predicate set")


def build_partition(calib_predicates, predicate_vectors: np.ndarray, phi: int) -> PredicatePartition:
    """Merge data-poor predicates into the part of their most similar rich predicate.

    Similarity is negative Manhattan distance between predicate vectors;
    argmax ties break toward the lowest predicate index.
    """
    predicate_vectors = np.asarray(predicate_vectors, dtype=np.float64)
    n_pred = predicate_vectors.shape[0]
    counts = np.bincount(np.asarray(calib_predicates, dtype=np.int64), minlength=n_pred)
    if phi < 1:
        raise ValueError("phi must be >= 1")
    if counts.size == 0 or phi > counts.max():
        raise ValueError("phi exceeds max per-predicate calibration count")

    rich = [r for r in range(n_pred) if counts[r] >= phi]
    poor = [r for r in range(n_pred) if counts[r] < phi]
    parts = {r: [r] for r in rich}
    rich_vecs = predicate_vectors[rich]
    for r in poor:
        dist = np.abs(rich_vecs - predicate_vectors[r]).sum(axis=1)
        target = rich[int(np.argmin(dist))]  # argmin over sorted rich => lowest index wins ties
        parts[target].append(r)

    part_lists = [sorted(parts[r]) for r in rich]
    part_of = {r: i for i, members in enumerate(part_lists) for r in members}
    partition = PredicatePartition(parts=part_lists, part_of=part_of, phi=phi)
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
    rank_cutoff: int
    rank_miscoverage: float
    adjusted_epsilon: float
    score_threshold: float


@dataclass
class CalibratedModel:
    method: str  # kgcp | mcp | condkgcp
    epsilon: float
    gamma: float = 0.0
    global_threshold: float | None = None
    per_predicate: dict[int, float] = field(default_factory=dict)
    per_part: dict[int, PartCalibration] = field(default_factory=dict)
    partition: PredicatePartition | None = None
    warnings: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        def enc(x):
            return "inf" if math.isinf(x) else x

        doc = {"method": self.method, "epsilon": self.epsilon, "gamma": self.gamma}
        if self.global_threshold is not None:
            doc["global_threshold"] = enc(self.global_threshold)
        if self.per_predicate:
            doc["per_predicate"] = {str(r): enc(t) for r, t in self.per_predicate.items()}
        if self.partition is not None:
            doc["partition"] = self.partition.parts
            doc["phi"] = self.partition.phi
        if self.per_part:
            doc["per_part"] = {
                str(g): {
                    "k_hat": pc.rank_cutoff,
                    "rank_miscoverage": pc.rank_miscoverage,
                    "adjusted_epsilon": pc.adjusted_epsilon,
                    "score_threshold": enc(pc.score_threshold),
                }
                for g, pc in self.per_part.items()
            }
        if self.warnings:
            doc["warnings"] = self.warnings
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "CalibratedModel":
        def dec(x):
            return math.inf if x == "inf" else float(x)

        doc = json.loads(text)
        model = cls(method=doc["method"], epsilon=doc["epsilon"], gamma=doc.get("gamma", 0.0))
        if "global_threshold" in doc:
            model.global_threshold = dec(doc["global_threshold"])
        if "per_predicate" in doc:
            model.per_predicate = {int(r): dec(t) for r, t in doc["per_predicate"].items()}
        if "partition" in doc:
            parts = [list(map(int, p)) for p in doc["partition"]]
            part_of = {r: i for i, members in enumerate(parts) for r in members}
            model.partition = PredicatePartition(parts=parts, part_of=part_of, phi=int(doc.get("phi", 1)))
        if "per_part" in doc:
            model.per_part = {
                int(g): PartCalibration(
                    rank_cutoff=int(pc["k_hat"]),
                    rank_miscoverage=float(pc["rank_miscoverage"]),
                    adjusted_epsilon=float(pc["adjusted_epsilon"]),
                    score_threshold=dec(pc["score_threshold"]),
                )
                for g, pc in doc["per_part"].items()
            }
        model.warnings = list(doc.get("warnings", []))
        return model

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "CalibratedModel":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


def fit_kgcp(nonconf_true, epsilon: float) -> CalibratedModel:
    """Global threshold from the nonconformity scores of true calibration answers."""
    return CalibratedModel(
        method="kgcp",
        epsilon=epsilon,
        global_threshold=quantile(nonconf_true, epsilon),
    )


def fit_mcp(calib_predicates, nonconf_true, epsilon: float, n_predicates: int) -> CalibratedModel:
    """One threshold per predicate; predicates without calibration data get +inf."""
    calib_predicates = np.asarray(calib_predicates, dtype=np.int64)
    nonconf_true = np.asarray(nonconf_true, dtype=np.float64)
    thresholds: dict[int, float] = {}
    warnings: list[str] = []
    for r in range(n_predicates):
        pool = nonconf_true[calib_predicates == r]
        if pool.size == 0:
            thresholds[r] = math.inf
            warnings.append(f"predicate {r} has no calibration pairs; threshold +inf")
        else:
            thresholds[r] = quantile(pool, epsilon)
    return CalibratedModel(method="mcp", epsilon=epsilon, per_predicate=thresholds, warnings=warnings)


def _part_pools(calib_predicates, partition: PredicatePartition):
    """(part index, mask over calibration pairs) for every part; each part must be non-empty."""
    part_ids = np.array([partition.part_of[int(r)] for r in calib_predicates], dtype=np.int64)
    for g in range(len(partition.parts)):
        in_g = part_ids == g
        if not np.any(in_g):
            raise ValueError(f"part {g} has no calibration pairs")
        yield g, in_g


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
    nonconf_true = np.asarray(nonconf_true, dtype=np.float64)
    ranks_true = np.asarray(ranks_true, dtype=np.int64)

    per_part: dict[int, PartCalibration] = {}
    for g, in_g in _part_pools(calib_predicates, partition):
        k_hat, miscoverage = rank_threshold(ranks_true[in_g], epsilon)
        adjusted = epsilon - gamma * miscoverage
        per_part[g] = PartCalibration(
            rank_cutoff=k_hat,
            rank_miscoverage=miscoverage,
            adjusted_epsilon=adjusted,
            score_threshold=quantile(nonconf_true[in_g], adjusted),
        )
    return CalibratedModel(
        method="condkgcp", epsilon=epsilon, gamma=gamma, per_part=per_part, partition=partition
    )


def fit_part_mcp(calib_predicates, nonconf_true, partition: PredicatePartition,
                 epsilon: float, n_entities: int) -> CalibratedModel:
    """Part-level score-only calibration at the full error rate (no rank cutoff).

    Every part keeps all ``n_entities`` ranks, so its rank miscoverage is 0.
    """
    nonconf_true = np.asarray(nonconf_true, dtype=np.float64)
    per_part = {
        g: PartCalibration(
            rank_cutoff=int(n_entities),
            rank_miscoverage=0.0,
            adjusted_epsilon=epsilon,
            score_threshold=quantile(nonconf_true[in_g], epsilon),
        )
        for g, in_g in _part_pools(calib_predicates, partition)
    }
    return CalibratedModel(method="condkgcp", epsilon=epsilon, per_part=per_part, partition=partition)


def predict_set(model: CalibratedModel, predicate: int, nonconf: np.ndarray,
                ranks: np.ndarray | None = None, filter_mask=None) -> np.ndarray:
    """Entity indices in the prediction set for one query (masked entities excluded)."""
    nonconf = np.asarray(nonconf, dtype=np.float64)
    keep = np.ones(nonconf.shape[0], dtype=bool)
    if filter_mask is not None:
        keep[list(filter_mask)] = False

    if model.method == "kgcp":
        member = nonconf <= model.global_threshold
    elif model.method == "mcp":
        threshold = model.per_predicate.get(predicate, math.inf)
        member = nonconf <= threshold
    elif model.method == "condkgcp":
        if ranks is None:
            raise ValueError("condkgcp prediction requires candidate ranks")
        part = model.partition.part_of[predicate]
        pc = model.per_part[part]
        member = (nonconf <= pc.score_threshold) & (np.asarray(ranks) <= pc.rank_cutoff)
    else:
        raise ValueError(f"unknown method: {model.method}")
    return np.flatnonzero(member & keep)


@dataclass
class ShrinkageReport:
    sigma_per_part: dict[int, float]
    skipped_parts: list[int]
    csr: float
    sigma_bar: float


def verify_shrinkage(cond_model: CalibratedModel, mcp_star: CalibratedModel, test_queries) -> ShrinkageReport:
    """Empirical per-part shrinkage ratio of the dual filter vs the score-only filter.

    ``test_queries`` yields (predicate, nonconformity vector, candidate ranks,
    filter mask) per test query.  sigma_g is the count of candidates passing
    both dual-calibration filters divided by the count passing the part-level
    full-rate threshold; parts with a zero denominator (or no test queries)
    are skipped and flagged.
    """
    partition = cond_model.partition
    n_parts = len(partition.parts)
    numer = np.zeros(n_parts)
    denom = np.zeros(n_parts)
    seen = np.zeros(n_parts, dtype=bool)
    for predicate, nonconf, ranks, mask in test_queries:
        g = partition.part_of[predicate]
        seen[g] = True
        numer[g] += predict_set(cond_model, predicate, nonconf, ranks, mask).size
        denom[g] += predict_set(mcp_star, predicate, nonconf, ranks, mask).size

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

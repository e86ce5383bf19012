"""Verification of the coverage and shrinkage guarantees through the code that a run executes.

Every check fits through ``experiment.METHODS`` and reduces through ``conformal.query_filters`` and
``conformal.set_outcomes``, which sizes each set by the lse search of every softmax run: each query row goes in as
its log-sum-exp and its sorted raw scores.  This is the one place Prop 1's bounds are checked.  Marginal coverage of kgcp and mcp is checked exactly, by split conformal's
leave-one-out identity on one seeded multiset.  Per-part conditional coverage of the dual calibration, and the
set-size shrinkage implied by the rank filter, are Monte-Carlo estimates over resamples of calibration and test
pairs from one synthetic pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import conformal, experiment, models, scores
from .kg import KnowledgeGraph, QueryAnswerSet, Vocab

__all__ = [
    "CheckResult",
    "leave_one_out_hits",
    "marginal_coverage_check",
    "conditional_coverage_check",
    "shrinkage_check",
    "run_all_checks",
]


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: str
    stats: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.details}"


def _run_data(predicates, answers, raw, calib_nonconf=None, calib_ranks=None) -> experiment.RunData:
    """An unmasked run with one-hot predicate vectors whose pair ``j`` is calibration and test pair on row ``j``."""
    n, n_predicates = answers.size, int(predicates.max()) + 1
    pairs = QueryAnswerSet(direction=np.zeros(n, dtype=np.int64), anchor=np.arange(n), predicate=predicates,
                           answer=answers)
    kg = KnowledgeGraph(Vocab.from_identifiers(range(raw.shape[1]), range(n_predicates)), splits={})
    no_masks = np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64)
    return experiment.RunData(kg, pairs, pairs, models.ScoreMatrix(pairs.queries(), raw), np.arange(n), *no_masks,
                              calib_nonconf, calib_ranks, np.eye(n_predicates))


def leave_one_out_hits(method: str, predicates, nonconf, epsilon: float) -> np.ndarray:
    """Whether pair ``i``'s answer is in the set that ``experiment.METHODS[method]`` fits on all pairs but ``i``.

    Pair ``i`` is a test pair on a one-entity query row: its answer, scored 0, with log-sum-exp ``nonconf[i]``, so
    its nonconformity is exactly ``nonconf[i] - 0.0 == nonconf[i]``.  ``conformal.query_filters`` turns each fit
    into a filter over every row, one ``conformal.set_outcomes`` call sizes every (fit, pair), and pair ``i``'s hit
    is read at fit ``i``.
    """
    nonconf = np.asarray(nonconf, dtype=np.float64)
    n = nonconf.size
    data = _run_data(np.asarray(predicates, dtype=np.int64), np.zeros(n, dtype=np.int64), np.zeros((n, 1)),
                     nonconf, np.ones(n, dtype=np.int64))  # the one entity ranks first
    fitted = [experiment.METHODS[method](data, np.delete(np.arange(n), i), epsilon, 0.0, 0) for i in range(n)]
    return _outcomes(data, nonconf, data.score_rows.scores, fitted, np.arange(n))[1].diagonal().copy()


def marginal_coverage_check(n_cal: int = 19, epsilon: float = 0.1, seed: int = 0) -> CheckResult:
    """Split conformal's leave-one-out identity on 5 predicates of ``n_cal + 1`` standard normal scores each.

    Over n + 1 distinct scores exactly ``k = ceil((n+1)(1-eps))`` of the n + 1 held-out choices are covered, for
    kgcp pooled and for mcp per predicate.  The check passes only when every count equals its ``k``.
    """
    predicates = np.repeat(np.arange(5), n_cal + 1)
    nonconf = np.random.default_rng(seed).normal(size=predicates.size)
    stats, details = {}, []
    for method, groups in (("kgcp", np.zeros_like(predicates)), ("mcp", predicates)):
        covered = np.bincount(groups, leave_one_out_hits(method, groups, nonconf, epsilon)).astype(int).tolist()
        size = predicates.size // len(covered)
        stats[method] = {"covered": covered, "k": math.ceil(size * (1 - Fraction(str(epsilon))))}
        details.append(f"{method} {', '.join(map(str, covered))} of {size} (k {stats[method]['k']})")
    passed = all(c == counts["k"] for counts in stats.values() for c in counts["covered"])
    return CheckResult("marginal-coverage", passed, "held-out values covered: " + "; ".join(details), stats)


def _pool(rng, n_parts: int, pool_size: int, n_entities: int) -> tuple[experiment.RunData, np.ndarray, np.ndarray]:
    """``pool_size`` synthetic pairs per predicate as one :func:`_run_data` run, plus each pair's row in the form
    ``conformal.set_outcomes`` sizes softmax sets from: its ``scores.log_sum_exp`` and its raw scores sorted.

    Scores are standard normal with the answer boosted by a per-predicate
    quality from 3 down to 0.75.  A resample is a pair of index arrays.  The
    answers' nonconformity and ranks come from
    ``experiment.answer_nonconf_and_ranks``, as in ``prepare_run``.
    """
    raw = np.empty((n_parts, pool_size, n_entities))
    answer = np.empty((n_parts, pool_size), dtype=np.int64)
    for g, quality in enumerate(np.linspace(3.0, 0.75, n_parts)):
        raw[g] = rng.normal(size=(pool_size, n_entities))
        answer[g] = rng.integers(0, n_entities, size=pool_size)
        raw[g, np.arange(pool_size), answer[g]] += quality
    raw, answer = raw.reshape(-1, n_entities), answer.ravel()
    pool = _run_data(np.repeat(np.arange(n_parts), pool_size), answer, raw)
    pool.calib_nonconf, pool.calib_ranks = experiment.answer_nonconf_and_ranks(
        scores.ScorerConfig(), pool.score_rows, pool.test_rows, answer, pool.mask_indptr, pool.mask_indices)
    return pool, np.array([scores.log_sum_exp(row) for row in raw]), np.sort(raw, axis=1)


def _resample(rng, n_parts: int, pool_size: int, part_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint calibration and test pool indices, ``part_size`` of each per predicate, grouped by predicate."""
    idx = np.stack([g * pool_size + rng.choice(pool_size, size=2 * part_size, replace=False) for g in range(n_parts)])
    return idx[:, :part_size].ravel(), idx[:, part_size:].ravel()


def _outcomes(pool: experiment.RunData, lse: np.ndarray, ordered: np.ndarray, fitted,
              test_idx) -> tuple[np.ndarray, np.ndarray]:
    """Set size and answer hit of each test pair under each fitted model, as the evaluation pass reduces softmax
    sets: each row's ``lse`` and sorted raw scores ``ordered``, and each answer's nonconformity from
    ``pool.calib_nonconf``.  Each pair has its own query row, which no mask touches (no ``e_j``)."""
    filters = [conformal.query_filters(model, pool.test.predicate[test_idx], pool.kg.vocab.n_entities)
               for model in fitted]
    answer_raw = pool.score_rows.scores[test_idx, pool.test.answer[test_idx]]
    return conformal.set_outcomes(lse[test_idx], ordered[test_idx], *map(np.stack, zip(*filters)),
                                  np.arange(test_idx.size), pool.calib_nonconf[test_idx], answer_raw,
                                  np.zeros(test_idx.size, dtype=bool))


def conditional_coverage_check(gammas=(0.0, 0.5, 1.0), epsilon: float = 0.1,
                               n_resamples: int = 300, part_size: int = 200,
                               n_parts: int = 5, n_entities: int = 40,
                               pool_size: int = 4000, seed: int = 1) -> CheckResult:
    """Per-part coverage of condkgcp against Prop 1's two-sided bounds, over resplits of one pool.

    The bounds use the pool-wide (population-proxy) rank miscoverage at the
    calibrated cutoff; the fit uses the calibration estimate, as in the
    algorithm itself.  With phi = ``part_size`` every predicate is its own part:
    part g is predicate g.
    """
    rng = np.random.default_rng(seed)
    pool, lse, ordered = _pool(rng, n_parts, pool_size, n_entities)
    pool_ranks = pool.calib_ranks.reshape(n_parts, pool_size)
    margins = np.empty((2, len(gammas), n_parts, n_resamples))  # coverage above the lower bound, below the upper
    for t in range(n_resamples):
        cal_idx, test_idx = _resample(rng, n_parts, pool_size, part_size)
        fitted = [experiment.METHODS["condkgcp"](pool, cal_idx, epsilon, gamma, part_size) for gamma in gammas]
        hits = _outcomes(pool, lse, ordered, fitted, test_idx)[1]
        coverage = hits.reshape(len(gammas), n_parts, part_size).mean(axis=2)
        for i, (gamma, model) in enumerate(zip(gammas, fitted)):
            for g, pc in model.per_part.items():
                misc_pop = float(np.mean(pool_ranks[g] > pc.rank_cutoff))
                lower, upper = conformal.prop1_bounds(epsilon, gamma, misc_pop, part_size)
                margins[:, i, g, t] = coverage[i, g] - lower, upper - coverage[i, g]
    mean = margins.mean(axis=3)
    ok = mean >= -3 * margins.std(axis=3, ddof=1) / math.sqrt(n_resamples)
    worst = {"margin_low": float(mean[0].min()), "margin_high": float(mean[1].min())}
    violations = [f"gamma={gammas[i]} part={g} low={mean[0, i, g]:.4f} high={mean[1, i, g]:.4f}"
                  for i, g in zip(*np.nonzero(~ok.all(axis=0)))]
    details = (
        f"worst mean slack: lower {worst['margin_low']:.4f}, upper {worst['margin_high']:.4f}"
        + ("; violations: " + "; ".join(violations) if violations else "")
    )
    return CheckResult(name="conditional-coverage", passed=not violations, details=details, stats=worst)


def shrinkage_check(gamma: float = 0.5, epsilon: float = 0.1, n_resamples: int = 40,
                    part_size: int = 60, n_parts: int = 5, n_entities: int = 40,
                    pool_size: int = 1500, phi: int = 50, seed: int = 2) -> CheckResult:
    """Whenever sigma_g <= 1 for every part, the dual-filter sets must be smaller on average.

    The dual sets are condkgcp's; the score-only sets use each part's stored
    full-rate threshold (``conformal.score_only``), as in the evaluation.
    sigma_bar is an unweighted mean of the per-part ratios, so sigma_bar <= 1
    does not imply a smaller AveSize: how often the sign of (dual AveSize -
    score-only AveSize) agrees with the sign of (sigma_bar - 1), and their
    correlation, are only reported.
    """
    rng = np.random.default_rng(seed)
    pool, lse, ordered = _pool(rng, n_parts, pool_size, n_entities)
    implication_holds = True
    sigma_bars, gaps = np.empty(n_resamples), np.empty(n_resamples)
    for t in range(n_resamples):
        cal_idx, test_idx = _resample(rng, n_parts, pool_size, part_size)
        cond = experiment.METHODS["condkgcp"](pool, cal_idx, epsilon, gamma, phi)
        sizes, _ = _outcomes(pool, lse, ordered, [cond, conformal.score_only(cond)], test_idx)
        report = conformal.verify_shrinkage(cond.partition, pool.test.predicate[test_idx], *sizes)
        sigma_bars[t] = report.sigma_bar
        gaps[t] = np.mean(sizes[0]) - np.mean(sizes[1])
        if all(s <= 1.0 for s in report.sigma_per_part.values()) and gaps[t] > 0:
            implication_holds = False

    agree = float(np.mean((gaps <= 1e-9) == (sigma_bars <= 1.0)))
    if np.std(sigma_bars) > 0 and np.std(gaps) > 0:
        corr = float(np.corrcoef(sigma_bars, gaps)[0, 1])
    else:
        corr = math.nan
    return CheckResult(
        name="shrinkage-condition",
        passed=implication_holds,
        details=(
            f"mean sigma_bar {sigma_bars.mean():.3f}, mean size gap {gaps.mean():.3f}, "
            f"corr {corr:.3f}, sign agreement {agree:.2f}"
        ),
        stats={"sigma_bar_mean": float(sigma_bars.mean()), "gap_mean": float(gaps.mean()), "corr": corr},
    )


def run_all_checks(seed: int = 0) -> list[CheckResult]:
    return [
        marginal_coverage_check(seed=seed),
        conditional_coverage_check(seed=seed + 1),
        shrinkage_check(seed=seed + 2),
    ]

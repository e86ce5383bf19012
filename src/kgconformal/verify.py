"""Monte-Carlo verification of the coverage and shrinkage guarantees.

These suites run on synthetic data where the relevant probabilities can be
estimated by resampling: marginal coverage of the global threshold,
per-part conditional coverage of the dual calibration, and the set-size
shrinkage implied by the rank filter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import conformal
from .kg import candidate_ranks, rank_of
from .scores import softmax_scores

__all__ = [
    "CheckResult",
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


def marginal_coverage_check(n_cal: int = 99, epsilon: float = 0.1, n_trials: int = 500,
                            n_test: int = 100, seed: int = 0) -> CheckResult:
    """Mean coverage of the global threshold over i.i.d. continuous scores.

    The target band is [1-eps, 1-eps + 1/(n_cal+1)], widened by 3 Monte-Carlo
    standard errors on each side.
    """
    rng = np.random.default_rng(seed)
    coverages = np.empty(n_trials)
    for t in range(n_trials):
        cal = rng.normal(size=n_cal)
        test = rng.normal(size=n_test)
        threshold = conformal.quantile(cal, epsilon)
        coverages[t] = np.mean(test <= threshold)
    mean_cov = float(coverages.mean())
    se = float(coverages.std(ddof=1) / math.sqrt(n_trials))
    low = 1.0 - epsilon
    high = 1.0 - epsilon + 1.0 / (n_cal + 1)
    passed = (low - 3 * se) <= mean_cov <= (high + 3 * se)
    return CheckResult(
        name="marginal-coverage",
        passed=passed,
        details=f"mean coverage {mean_cov:.4f} vs [{low:.4f}, {high:.4f}] +/- 3*{se:.4f}",
        stats={"mean_coverage": mean_cov, "se": se, "low": low, "high": high},
    )


@dataclass
class _PartPool:
    """Precomputed query pool for one predicate: true-answer scores and ranks."""

    nonconf_true: np.ndarray
    rank_true: np.ndarray
    raw: np.ndarray  # pool_size x n_entities raw scores
    answers: np.ndarray


def _build_pools(rng, n_parts: int, pool_size: int, n_entities: int,
                 qualities) -> list[_PartPool]:
    pools = []
    for g in range(n_parts):
        raw = rng.normal(size=(pool_size, n_entities))
        answers = rng.integers(0, n_entities, size=pool_size)
        raw[np.arange(pool_size), answers] += qualities[g]
        nonconf = np.empty(pool_size)
        ranks = np.empty(pool_size, dtype=np.int64)
        for i in range(pool_size):
            nonconf[i] = softmax_scores(raw[i])[answers[i]]
            ranks[i] = rank_of(raw[i], answers[i])
        pools.append(_PartPool(nonconf_true=nonconf, rank_true=ranks, raw=raw, answers=answers))
    return pools


def conditional_coverage_check(gammas=(0.0, 0.5, 1.0), epsilon: float = 0.1,
                               n_resamples: int = 300, part_size: int = 200,
                               n_parts: int = 5, n_entities: int = 40,
                               pool_size: int = 4000, seed: int = 1) -> CheckResult:
    """Per-part coverage of the dual calibration against the two-sided bounds.

    The bound slots use the pool-wide (population-proxy) rank miscoverage at
    the calibrated cutoff; the fitting path uses the calibration estimate, as
    in the algorithm itself.
    """
    rng = np.random.default_rng(seed)
    qualities = np.linspace(3.0, 0.75, n_parts)
    pools = _build_pools(rng, n_parts, pool_size, n_entities, qualities)

    worst: dict[str, float] = {"margin_low": math.inf, "margin_high": math.inf}
    all_ok = True
    details_parts = []
    for gamma in gammas:
        for g, pool in enumerate(pools):
            m_low = np.empty(n_resamples)
            m_high = np.empty(n_resamples)
            for t in range(n_resamples):
                idx = rng.choice(pool_size, size=2 * part_size, replace=False)
                cal, test = idx[:part_size], idx[part_size:]
                k_hat, misc_cal = conformal.rank_threshold(pool.rank_true[cal], epsilon)
                adjusted = epsilon - gamma * misc_cal
                threshold = conformal.quantile(pool.nonconf_true[cal], adjusted)
                covered = (pool.nonconf_true[test] <= threshold) & (pool.rank_true[test] <= k_hat)
                cov = covered.mean()
                misc_pop = float(np.mean(pool.rank_true > k_hat))
                lower = 1 - epsilon - (1 - gamma) * misc_pop
                upper = 1 - epsilon + gamma * misc_pop + 1.0 / (part_size + 1)
                m_low[t] = cov - lower
                m_high[t] = upper - cov
            se_low = m_low.std(ddof=1) / math.sqrt(n_resamples)
            se_high = m_high.std(ddof=1) / math.sqrt(n_resamples)
            ok_low = m_low.mean() >= -3 * se_low
            ok_high = m_high.mean() >= -3 * se_high
            if not (ok_low and ok_high):
                all_ok = False
                details_parts.append(f"gamma={gamma} part={g} low={m_low.mean():.4f} high={m_high.mean():.4f}")
            worst["margin_low"] = min(worst["margin_low"], float(m_low.mean()))
            worst["margin_high"] = min(worst["margin_high"], float(m_high.mean()))
    details = (
        f"worst mean slack: lower {worst['margin_low']:.4f}, upper {worst['margin_high']:.4f}"
        + ("" if all_ok else "; violations: " + "; ".join(details_parts))
    )
    return CheckResult(name="conditional-coverage", passed=all_ok, details=details, stats=worst)


def shrinkage_check(gamma: float = 0.5, epsilon: float = 0.1, n_resamples: int = 40,
                    part_size: int = 60, n_parts: int = 5, n_entities: int = 40,
                    pool_size: int = 1500, phi: int = 50, seed: int = 2) -> CheckResult:
    """Whenever sigma_g <= 1 for every part, the dual-filter sets must be smaller.

    Also reports how often the sign of (dual AveSize - score-only AveSize)
    agrees with the sign of (sigma_bar - 1) across resamples.
    """
    rng = np.random.default_rng(seed)
    qualities = np.linspace(3.0, 0.75, n_parts)
    pools = _build_pools(rng, n_parts, pool_size, n_entities, qualities)
    # distinct predicate vectors; every predicate is data-rich so parts are singletons
    pred_vectors = np.eye(n_parts)

    implication_holds = True
    sigma_bars, gaps = [], []
    for t in range(n_resamples):
        cal_preds, cal_nonconf, cal_ranks = [], [], []
        test_records = []  # (predicate, nonconf vector, candidate ranks, mask)
        for g, pool in enumerate(pools):
            idx = rng.choice(pool_size, size=2 * part_size, replace=False)
            cal, test = idx[:part_size], idx[part_size:]
            cal_preds.extend([g] * part_size)
            cal_nonconf.extend(pool.nonconf_true[cal])
            cal_ranks.extend(pool.rank_true[cal])
            for i in test:
                raw = pool.raw[i]
                test_records.append((g, softmax_scores(raw), candidate_ranks(raw), set()))
        partition = conformal.build_partition(cal_preds, pred_vectors, phi)
        cond = conformal.fit_condkgcp(cal_preds, cal_nonconf, cal_ranks, partition, epsilon, gamma)
        mcp_star = conformal.fit_part_mcp(cal_preds, cal_nonconf, partition, epsilon, n_entities)
        sizes_cond, sizes_star = (
            np.array([conformal.predict_set(model, g, nc, rk, mask).size for g, nc, rk, mask in test_records])
            for model in (cond, mcp_star)
        )
        report = conformal.verify_shrinkage(partition, [g for g, *_ in test_records], sizes_cond, sizes_star)
        size_cond = np.mean(sizes_cond)
        size_star = np.mean(sizes_star)
        if all(s <= 1.0 for s in report.sigma_per_part.values()) and size_cond > size_star:
            implication_holds = False
        sigma_bars.append(report.sigma_bar)
        gaps.append(size_cond - size_star)

    sigma_bars = np.array(sigma_bars)
    gaps = np.array(gaps)
    agree = float(np.mean((gaps <= 1e-9) == (sigma_bars <= 1.0)))
    if np.std(sigma_bars) > 0 and np.std(gaps) > 0:
        corr = float(np.corrcoef(sigma_bars, gaps)[0, 1])
    else:
        corr = math.nan
    # sigma_bar below 1 should go with non-positive size gaps
    sign_ok = bool(np.all(gaps[sigma_bars <= 1.0] <= 1e-9)) if np.any(sigma_bars <= 1.0) else True
    passed = implication_holds and sign_ok
    return CheckResult(
        name="shrinkage-condition",
        passed=passed,
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

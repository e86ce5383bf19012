"""Coverage/size metrics and per-run evaluation reports."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EF_FAILURE",
    "EvaluationReport",
    "covgap",
    "efficiency_rate",
    "evaluate_outcomes",
    "evaluate_predictions",
]

EF_FAILURE = "failure"


def _hits(answers, prediction_sets) -> list[bool]:
    return [answer in members for answer, members in zip(answers, prediction_sets)]


def _coverage(predicates, hits) -> dict[int, float]:
    predicates = np.asarray(predicates, dtype=np.int64)
    totals = np.bincount(predicates)
    covered = np.bincount(predicates[np.asarray(hits, dtype=bool)], minlength=totals.size)
    return {int(r): int(covered[r]) / int(totals[r]) for r in np.flatnonzero(totals)}


def covgap(coverage: dict[int, float], epsilon: float) -> float:
    """Mean absolute deviation of per-predicate coverage from the 1-eps target."""
    if not coverage:
        raise ValueError("empty coverage map")
    target = 1.0 - epsilon
    return float(np.mean([abs(c - target) for c in coverage.values()]))


def _mean_size(sizes, predicates, macro: bool) -> float:
    sizes = np.asarray(sizes, dtype=np.float64)
    if sizes.size == 0:
        raise ValueError("no prediction sets")
    if not macro:
        return float(sizes.mean())
    predicates = np.asarray(predicates, dtype=np.int64)
    return float(np.mean([sizes[predicates == r].mean() for r in np.unique(predicates)]))


def efficiency_rate(covgap_value: float, avesize_value: float,
                    covgap_ref: float, avesize_ref: float):
    """Additional entities spent per 0.01 of coverage-gap reduction vs the reference.

    Returns the sentinel ``"failure"`` when the gap is not reduced or the
    average size is unchanged.
    """
    gap_reduction = covgap_ref - covgap_value
    if gap_reduction <= 0 or avesize_value == avesize_ref:
        return EF_FAILURE
    return float((avesize_value - avesize_ref) / gap_reduction * 0.01)


@dataclass
class EvaluationReport:
    method: str
    epsilon: float
    seed: int
    coverage: dict[int, float]
    covgap: float
    avesize: float
    ef: float | str | None = None
    csr: float | None = None
    sigma_bar: float | None = None

    def row(self) -> dict:
        return {
            "method": self.method,
            "epsilon": self.epsilon,
            "seed": self.seed,
            "covgap": self.covgap,
            "avesize": self.avesize,
            "ef": self.ef if self.ef is not None else "",
            "csr": "" if self.csr is None else self.csr,
            "sigma_bar": "" if self.sigma_bar is None else self.sigma_bar,
        }


def evaluate_predictions(method: str, epsilon: float, seed: int,
                         predicates, answers, prediction_sets,
                         macro_avesize: bool = False) -> EvaluationReport:
    """Report of explicit prediction sets (see :func:`evaluate_outcomes`)."""
    return evaluate_outcomes(method, epsilon, seed, predicates, [len(m) for m in prediction_sets],
                             _hits(answers, prediction_sets), macro_avesize)


def evaluate_outcomes(method: str, epsilon: float, seed: int, predicates, sizes, hits,
                      macro_avesize: bool = False) -> EvaluationReport:
    """Report from each test pair's set size and whether its set holds the answer."""
    coverage = _coverage(predicates, hits)
    return EvaluationReport(
        method=method,
        epsilon=epsilon,
        seed=seed,
        coverage=coverage,
        covgap=covgap(coverage, epsilon),
        avesize=_mean_size(sizes, predicates, macro_avesize),
    )


def aggregate_rows(reports: list[EvaluationReport]) -> list[dict]:
    """Mean +/- std across seeds per (method, epsilon); EF reported as the mean over the seeds where it did not
    fail, ``"failure"`` when it failed on every seed, and None when no report has one (kgcp, the EF reference)."""
    groups: dict[tuple[str, float], list[EvaluationReport]] = {}
    for rep in reports:
        groups.setdefault((rep.method, rep.epsilon), []).append(rep)
    rows = []
    for (method, epsilon), group in groups.items():
        gaps = np.array([r.covgap for r in group])
        sizes = np.array([r.avesize for r in group])
        efs = [r.ef for r in group if isinstance(r.ef, float)]
        any_ef = any(r.ef is not None for r in group)
        rows.append({
            "method": method,
            "epsilon": epsilon,
            "n_seeds": len(group),
            "covgap_mean": float(gaps.mean()),
            "covgap_std": float(gaps.std()),
            "avesize_mean": float(sizes.mean()),
            "avesize_std": float(sizes.std()),
            "ef_mean": float(np.mean(efs)) if efs else EF_FAILURE if any_ef else None,
        })
    return rows


def format_table(rows: list[dict]) -> str:
    header = f"{'method':<10} {'eps':>5} {'CovGap':>16} {'AveSize':>18} {'EF':>10}"
    lines = [header, "-" * len(header)]
    for row in rows:
        ef = row["ef_mean"]
        ef_text = f"{ef:10.2f}" if isinstance(ef, float) else f"{ef or '':>10}"  # blank without an EF
        lines.append(
            f"{row['method']:<10} {row['epsilon']:>5.2f} "
            f"{row['covgap_mean']:8.3f}±{row['covgap_std']:<7.3f} "
            f"{row['avesize_mean']:9.2f}±{row['avesize_std']:<8.2f} {ef_text}".rstrip()
        )
    return "\n".join(lines)

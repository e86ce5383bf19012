"""Nonconformity transforms of plausibility scores: softmax (default), APS, RAPS."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ScorerConfig",
    "aps_at",
    "aps_order",
    "aps_scores",
    "log_sum_exp",
    "nonconformity",
    "raps_penalty",
    "raps_scores",
    "softmax_at",
    "softmax_probs",
    "softmax_scores",
    "uniform_for_query",
]


@dataclass(frozen=True)
class ScorerConfig:
    kind: str = "softmax"  # softmax | aps | raps
    raps_lambda: float = 0.01
    raps_k_reg: int = 5
    rng_seed: int = 0

    def __post_init__(self):
        if self.kind not in ("softmax", "aps", "raps"):
            raise ValueError(f"unknown nonconformity kind: {self.kind}")
        if self.raps_lambda < 0:
            raise ValueError("raps_lambda must be nonnegative")
        if self.raps_k_reg < 1:
            raise ValueError("raps_k_reg must be >= 1")

    def record(self) -> dict:
        """The settings that fix the scale of the thresholds calibrated on this scorer: all but the per-seed
        ``rng_seed``."""
        return {"kind": self.kind, "raps_lambda": self.raps_lambda, "raps_k_reg": self.raps_k_reg}


def softmax_probs(raw: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over all candidate entities."""
    raw = np.asarray(raw, dtype=np.float64)
    shifted = raw - raw.max()
    exp = np.exp(shifted)
    return exp / exp.sum()


def log_sum_exp(raw: np.ndarray, out: np.ndarray | None = None) -> float:
    """``log(sum(exp(raw)))`` of one score row, as ``max + log(sum(exp(raw - max)))`` so that it cannot overflow.

    ``out``, when given, is a work buffer shaped like ``raw`` that the shifted exponentials are written to.
    """
    top = raw.max()
    return float(top + np.log(np.exp(np.subtract(raw, top, out=out), out=out).sum()))


def softmax_scores(raw: np.ndarray) -> np.ndarray:
    """Nonconformity -log softmax(raw), computed as ``log_sum_exp(raw) - raw``; lower means more plausible.

    It orders entities as 1 - softmax(raw) does, but 1 - p rounds to exactly 1.0 for every p below about
    5.5e-17, where -log p keeps them apart.  As IEEE subtraction is monotone, a higher raw score never gets a
    higher nonconformity, so a set ``nonconf <= t`` is the top of the row's raw scores.
    """
    raw = np.asarray(raw, dtype=np.float64)
    return log_sum_exp(raw) - raw


def aps_order(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A row's stable descending-score order (ties by index) and, in that order, the softmax mass ahead of each
    candidate and its own.  Along it ``ahead + u * mass`` never falls: each step adds ``mass >= u * mass``."""
    raw = np.asarray(raw, dtype=np.float64)
    order = np.argsort(-raw, kind="stable")
    mass = softmax_probs(raw)[order]
    return order, np.concatenate([[0.0], np.cumsum(mass)[:-1]]), mass


def raps_penalty(places: np.ndarray, lam: float, k_reg: int) -> np.ndarray:
    """RAPS's penalty of the candidates at 1-based ``places`` in :func:`aps_order`."""
    return lam * np.maximum(places - k_reg, 0)


def aps_scores(raw: np.ndarray, u: float) -> np.ndarray:
    """Cumulative-probability nonconformity: in :func:`aps_order`, the mass strictly ahead of a candidate plus
    ``u`` times its own.  Like :func:`raps_scores`, the per-query reference of the evaluation pass."""
    return raps_scores(raw, u, 0.0, 1)


def raps_scores(raw: np.ndarray, u: float, lam: float, k_reg: int) -> np.ndarray:
    """APS plus :func:`raps_penalty` by 1-based place in :func:`aps_order`."""
    if not 0.0 <= u <= 1.0:
        raise ValueError("u must be in [0, 1]")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if k_reg < 1:
        raise ValueError("k_reg must be >= 1")
    order, ahead, mass = aps_order(raw)
    out = np.empty(order.size)
    out[order] = ahead + u * mass + raps_penalty(np.arange(1, order.size + 1), lam, k_reg)
    return out


def softmax_at(lse: np.ndarray, ordered: np.ndarray, rows: np.ndarray):
    """Reads -log p at positions of sorted rows: pair ``j``'s of row ``rows[j]`` of ``ordered``, whose log-sum-exp
    is ``lse[rows[j]]``, by the subtraction :func:`softmax_scores` makes."""
    return lambda at: lse[rows] - ordered[rows, at]


def aps_at(cfg: ScorerConfig, ahead: np.ndarray, mass: np.ndarray, place: np.ndarray | None, u: np.ndarray,
           rows: np.ndarray):
    """Reads pair ``j``'s APS or RAPS nonconformity, drawn with ``u[j]``, from row ``rows[j]`` of the laid-out
    :func:`aps_order` terms ``ahead``, ``mass`` and (RAPS) 1-based ``place``, as :func:`raps_scores` computes it."""
    if cfg.kind == "aps":
        return lambda at: ahead[rows, at] + u * mass[rows, at]
    return lambda at: (ahead[rows, at] + u * mass[rows, at]
                       + raps_penalty(place[rows, at], cfg.raps_lambda, cfg.raps_k_reg))


def uniform_for_query(seed: int, query_index: int) -> float:
    """Deterministic uniform draw for the given query position in a run."""
    return float(np.random.default_rng([seed, query_index]).random())


def nonconformity(raw: np.ndarray, cfg: ScorerConfig, query_index: int = 0) -> np.ndarray:
    """Apply the configured transform; APS/RAPS draw one u per query."""
    if cfg.kind == "softmax":
        return softmax_scores(raw)
    lam = cfg.raps_lambda if cfg.kind == "raps" else 0.0  # APS: RAPS without its penalty, as aps_scores
    return raps_scores(raw, uniform_for_query(cfg.rng_seed, query_index), lam, cfg.raps_k_reg)

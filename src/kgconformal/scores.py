"""Nonconformity transforms of plausibility scores: softmax (default), APS, RAPS."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ScorerConfig",
    "aps_scores",
    "log_sum_exp",
    "nonconformity",
    "raps_scores",
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


def _descending_order(probs: np.ndarray) -> np.ndarray:
    # stable: ties broken by lowest entity index
    return np.argsort(-probs, kind="stable")


def _aps_in_order(raw: np.ndarray, u: float) -> tuple[np.ndarray, np.ndarray]:
    """The descending softmax order and each candidate's APS score, in that order."""
    if not 0.0 <= u <= 1.0:
        raise ValueError("u must be in [0, 1]")
    probs = softmax_probs(raw)
    order = _descending_order(probs)
    sorted_probs = probs[order]
    ahead = np.concatenate([[0.0], np.cumsum(sorted_probs)[:-1]])
    return order, ahead + u * sorted_probs


def _unsort(order: np.ndarray, values_sorted: np.ndarray) -> np.ndarray:
    out = np.empty_like(values_sorted)
    out[order] = values_sorted
    return out


def aps_scores(raw: np.ndarray, u: float) -> np.ndarray:
    """Cumulative-probability nonconformity.

    Candidates are sorted by descending softmax probability (ties by entity
    index); the score of a candidate is the probability mass strictly ahead
    of it plus ``u`` times its own mass.
    """
    return _unsort(*_aps_in_order(raw, u))


def raps_scores(raw: np.ndarray, u: float, lam: float, k_reg: int) -> np.ndarray:
    """APS plus a rank-based penalty ``lam * max(position - k_reg, 0)``."""
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if k_reg < 1:
        raise ValueError("k_reg must be >= 1")
    order, aps_sorted = _aps_in_order(raw, u)
    penalty = lam * np.maximum(np.arange(1, order.size + 1) - k_reg, 0)  # by 1-based position in the order
    return _unsort(order, aps_sorted + penalty)


def uniform_for_query(seed: int, query_index: int) -> float:
    """Deterministic uniform draw for the given query position in a run."""
    return float(np.random.default_rng([seed, query_index]).random())


def nonconformity(raw: np.ndarray, cfg: ScorerConfig, query_index: int = 0) -> np.ndarray:
    """Apply the configured transform; APS/RAPS draw one u per query."""
    if cfg.kind == "softmax":
        return softmax_scores(raw)
    u = uniform_for_query(cfg.rng_seed, query_index)
    if cfg.kind == "aps":
        return aps_scores(raw, u)
    return raps_scores(raw, u, cfg.raps_lambda, cfg.raps_k_reg)

"""Output checks: report structure, kgcp coverage, and a reference built from primitives.

Every check raises ``CheckFailed``; the harness counts that as a failed
operation.  The reference (``reference_reports``) assembles reports from the
per-query public primitives only -- ``models.score``, ``scores.nonconformity``,
``kg.rank_of``, the ``conformal.fit_*`` functions, ``conformal.predict_set``
and ``metrics.evaluate_predictions`` -- so it shares no code path with
``experiment.prepare_run``/``run_single`` or the staged CLI beyond them.
"""

from __future__ import annotations

import math

import numpy as np
from kgconformal import conformal, kg as kgm, metrics, models, scores


class CheckFailed(Exception):
    pass


def rows_of(reports) -> list[dict[str, str]]:
    """Report rows as ``reports.csv`` holds them: every value as ``str``."""
    return [{k: str(v) for k, v in rep.row().items()} for rep in reports]


def _key(row: dict) -> tuple[str, float, int]:
    return (row["method"], float(row["epsilon"]), int(row["seed"]))


def check_structure(rows: list[dict], methods, epsilons, seeds, n_entities: int) -> None:
    """One row per (method, epsilon, seed), with finite CovGap and AveSize in range."""
    keys = [_key(r) for r in rows]
    want = {(m, float(e), int(s)) for m in methods for e in epsilons for s in seeds}
    if len(keys) != len(set(keys)) or set(keys) != want:
        raise CheckFailed(f"expected one report per (method, epsilon, seed) in {sorted(want)}, got {keys}")
    for row in rows:
        covgap, avesize = float(row["covgap"]), float(row["avesize"])
        if not (math.isfinite(covgap) and 0.0 <= covgap <= 1.0):
            raise CheckFailed(f"{_key(row)}: CovGap {covgap} not a finite value in [0, 1]")
        if not (math.isfinite(avesize) and 0.0 < avesize <= n_entities):
            raise CheckFailed(f"{_key(row)}: AveSize {avesize} not a finite value in (0, |E|={n_entities}]")


def coverage_band(epsilon: float, n_test: int, n_calib: int) -> tuple[float, float]:
    """Band for pooled kgcp test coverage.

    Conformal coverage lies in [1-eps, 1-eps + 1/(n_calib+1)] in expectation.
    Around that it varies with the calibration draw and with the test draw,
    each binomial.  Pairs come in head/tail couples from one triple, so each
    split counts as half its pairs.  The band is 4 standard errors wide.
    """
    draws = 1.0 / max(n_calib / 2.0, 1.0) + 1.0 / max(n_test / 2.0, 1.0)
    half = 4.0 * math.sqrt(epsilon * (1.0 - epsilon) * draws)
    return 1.0 - epsilon - half, 1.0 - epsilon + 1.0 / (n_calib + 1) + half


def check_coverage(pooled: float, epsilon: float, n_test: int, n_calib: int) -> None:
    lo, hi = coverage_band(epsilon, n_test, n_calib)
    if not lo <= pooled <= hi:
        raise CheckFailed(f"kgcp pooled coverage {pooled:.4f} at eps={epsilon} outside [{lo:.4f}, {hi:.4f}]")


def pooled_coverage(report, test_predicates: np.ndarray) -> float:
    """Pooled coverage from a report's per-predicate coverage and the test pairs' predicates."""
    counts = np.bincount(test_predicates)
    hits = sum(cov * counts[r] for r, cov in report.coverage.items())
    return float(hits / test_predicates.size)


def check_equal(rows: list[dict], reference: list[dict], what: str) -> None:
    got = {_key(r): r for r in rows}
    for ref in reference:
        row = got.get(_key(ref))
        if row is None:
            raise CheckFailed(f"{what}: no report for {_key(ref)}")
        diff = {k: (row.get(k), v) for k, v in ref.items() if row.get(k) != v}
        if diff:
            raise CheckFailed(f"{what}: {_key(ref)} differs from the reference: {diff}")


def check_coverage_maps(reports, reference) -> None:
    ref = {(r.method, r.epsilon, r.seed): r.coverage for r in reference}
    for rep in reports:
        if ref.get((rep.method, rep.epsilon, rep.seed)) != rep.coverage:
            raise CheckFailed(f"{rep.method} eps={rep.epsilon}: per-predicate coverage differs from the reference")


def _entity_ranks(raw: np.ndarray, mask: set) -> np.ndarray:
    """Filtered rank of every unmasked entity via ``kg.rank_of``; masked entities get 0."""
    ranks = np.zeros(raw.shape[0], dtype=np.int64)
    for e in range(raw.shape[0]):
        if e not in mask:
            ranks[e] = kgm.rank_of(raw, e, mask)
    return ranks


def reference_reports(kg, config, seed: int, methods=None):
    """Reports for one seed assembled query by query from the public primitives.

    The model is trained the way the pipeline trains it.  ``methods``
    defaults to ``config.methods``; with ``["kgcp"]`` no ranks are computed,
    which keeps the reference cheap at full size.
    """
    methods = list(config.methods if methods is None else methods)
    model = models.train(kg, config.model_kind, config.train_config(seed),
                         dim=config.dim, norm=config.transe_norm)
    calib = kgm.make_queries(kg.splits["valid"], config.both_directions)
    test = kgm.make_queries(kg.splits["test"], config.both_directions)
    known: dict[tuple, set] = {}
    if config.filtered:
        for qa in (kgm.make_queries(kg.splits["train"], config.both_directions), calib, test):
            for q, a in qa.pairs:
                known.setdefault(q.key(), set()).add(a)

    raw_cache: dict[tuple, np.ndarray] = {}

    def raw(q) -> np.ndarray:
        if q.key() not in raw_cache:
            raw_cache[q.key()] = models.score(model, q)
        return raw_cache[q.key()]

    def mask(q, a) -> set:
        return known.get(q.key(), set()) - {a}

    need_ranks = "condkgcp" in methods
    scorer = config.scorer_config(seed)
    cal_pred = np.array([q.predicate for q, _ in calib.pairs], dtype=np.int64)
    cal_nc = np.array([scores.nonconformity(raw(q), scorer, query_index=i)[a]
                       for i, (q, a) in enumerate(calib.pairs)])
    cal_rank = np.array([kgm.rank_of(raw(q), a, mask(q, a)) for q, a in calib.pairs], dtype=np.int64)
    offset = len(calib.pairs)
    items = []
    for j, (q, a) in enumerate(test.pairs):
        m = mask(q, a)
        items.append((q.predicate, scores.nonconformity(raw(q), scorer, query_index=offset + j),
                      _entity_ranks(raw(q), m) if need_ranks else None, m))
    test_pred = np.array([q.predicate for q, _ in test.pairs], dtype=np.int64)
    test_ans = np.array([a for _, a in test.pairs], dtype=np.int64)
    n_pred, n_ent = kg.vocab.n_predicates, kg.vocab.n_entities

    reports = []
    for eps in config.epsilons:
        fitted = {"kgcp": conformal.fit_kgcp(cal_nc, eps)}
        if "mcp" in methods:
            fitted["mcp"] = conformal.fit_mcp(cal_pred, cal_nc, eps, n_pred)
        if need_ranks:
            vectors = np.stack([models.predicate_vector(model, r) for r in range(n_pred)])
            partition = conformal.build_partition(cal_pred, vectors, config.phi)
            fitted["condkgcp"] = conformal.fit_condkgcp(cal_pred, cal_nc, cal_rank, partition, eps, config.gamma)
            fitted["part_mcp"] = conformal.fit_part_mcp(cal_pred, cal_nc, partition, eps, n_ent)
        sets = {name: [conformal.predict_set(f, p, nc, rk, m) for p, nc, rk, m in items]
                for name, f in fitted.items()}
        reference = metrics.evaluate_predictions("kgcp", eps, seed, test_pred, test_ans,
                                                 sets["kgcp"], config.macro_avesize)
        for method in methods:
            if method == "kgcp":
                reports.append(reference)
                continue
            rep = metrics.evaluate_predictions(method, eps, seed, test_pred, test_ans,
                                               sets[method], config.macro_avesize)
            rep.ef = metrics.efficiency_rate(rep.covgap, rep.avesize, reference.covgap, reference.avesize)
            if method == "condkgcp":
                rep.csr, rep.sigma_bar = _shrinkage(partition, test_pred, sets["condkgcp"], sets["part_mcp"])
            reports.append(rep)
    return reports


def _shrinkage(partition, test_pred, dual_sets, score_only_sets) -> tuple[float, float]:
    """Share of parts whose dual-filter sets are no larger than the score-only ones, and the mean ratio."""
    n_parts = len(partition.parts)
    numer, denom = np.zeros(n_parts), np.zeros(n_parts)
    seen = np.zeros(n_parts, dtype=bool)
    for r, dual, single in zip(test_pred, dual_sets, score_only_sets):
        g = partition.part_of[int(r)]
        seen[g] = True
        numer[g] += dual.size
        denom[g] += single.size
    sigma = [float(numer[g] / denom[g]) for g in range(n_parts) if seen[g] and denom[g] > 0]
    if not sigma:
        return math.nan, math.nan
    return float(np.mean([s <= 1.0 for s in sigma])), float(np.mean(sigma))

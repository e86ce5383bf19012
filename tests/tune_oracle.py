"""The (gamma, phi) grid search on held-out calibration pairs, pair by pair, kept as an oracle.

``tune_condkgcp`` cuts each direction group's calibration pairs the way
``experiment._tuning_split`` does (a copy, not a call), fits kgcp and
condkgcp per grid point on the fitting pairs, and builds every scored pair's
set with ``conformal.predict_set`` from the pair's own score row, its
``scores.nonconformity`` drawn as its calibration index, and ``kg.rank_of``
per entity.  ``metrics.evaluate_predictions`` reports each grid point, and a
stable sort ranks them.  ``experiment.tune_condkgcp`` must pick the same
point.  Used by ``test_experiment.py``.
"""

from __future__ import annotations

import math

import numpy as np

from kgconformal import conformal, metrics, scores
from kgconformal.kg import DIRECTIONS, Query, make_queries, rank_of


def calibration_cuts(data, split_directions: bool, seed: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per direction group with calibration and test pairs, in direction order: its calibration indices permuted
    by one ``default_rng(seed + 7)`` and cut into sorted (first quarter, second quarter, last half)."""
    groups = [np.arange(len(data.calib))]
    if split_directions:
        groups = [np.flatnonzero(data.calib.direction == code) for code in range(len(DIRECTIONS))
                  if np.any(data.calib.direction == code) and np.any(data.test.direction == code)]
    rng = np.random.default_rng(seed + 7)
    cuts = []
    for idx in groups:
        order, n = rng.permutation(idx), idx.size
        cuts.append((np.sort(order[: n // 4]), np.sort(order[n // 4 : n // 2]), np.sort(order[n // 2 :])))
    return cuts


def tune_condkgcp(config, seed: int, data, gamma_grid, phi_grid) -> tuple[float, int]:
    """(gamma, phi) chosen on the scored quarter, pair by pair; the config's when no phi is reached."""
    cuts = calibration_cuts(data, config.split_directions, seed)
    predicates = data.calib.predicate
    reach = min(np.bincount(predicates[idx], minlength=1).max() for fit, _, cal in cuts for idx in (fit, cal))
    grid = [(gamma, phi) for phi in phi_grid if phi <= reach for gamma in gamma_grid]
    if not grid:
        return config.gamma, config.phi
    epsilon = config.epsilons[0]
    known: dict[tuple, set] = {}
    if config.filtered:
        for name in ("train", "valid", "test"):
            for q, a in make_queries(data.kg.splits[name], config.both_directions).pairs:
                known.setdefault(q.key(), set()).add(a)
    scorer = config.scorer_config(seed)
    (rows,) = data.score_rows.rows(data.calib)
    raw = np.empty((1, data.score_rows.n_entities))
    items = []  # (group, predicate, answer, nonconformity, entity ranks, mask) of each scored pair
    for group, (_, scored, _) in enumerate(cuts):
        for i in scored.tolist():
            d, a, p, answer = (int(c[i]) for c in (data.calib.direction, data.calib.anchor, predicates,
                                                    data.calib.answer))
            data.score_rows.fill(rows[[i]], raw)
            mask = known.get(Query(DIRECTIONS[d], a, p).key(), set()) - {answer}
            ranks = np.array([0 if e in mask else rank_of(raw[0], e, mask) for e in range(raw.shape[1])])
            items.append((group, p, answer, scores.nonconformity(raw[0], scorer, query_index=i), ranks, mask))
    item_predicates = np.array([it[1] for it in items])
    item_answers = np.array([it[2] for it in items])

    def report(group_models):
        sets = [conformal.predict_set(group_models[g], p, nc, rk, m) for g, p, _, nc, rk, m in items]
        return metrics.evaluate_predictions("tune", epsilon, seed, item_predicates, item_answers, sets,
                                            config.macro_avesize)

    reference = report([conformal.fit_kgcp(data.calib_nonconf[fit], epsilon) for fit, _, _ in cuts])
    candidates = []
    for gamma, phi in grid:
        group_models = []
        for fit, _, _ in cuts:
            partition = conformal.build_partition(predicates[fit], data.predicate_vectors, phi)
            group_models.append(conformal.fit_condkgcp(predicates[fit], data.calib_nonconf[fit],
                                                       data.calib_ranks[fit], partition, epsilon, gamma))
        rep = report(group_models)
        ef = metrics.efficiency_rate(rep.covgap, rep.avesize, reference.covgap, reference.avesize)
        if config.tune_objective == "covgap":
            key = (rep.covgap, rep.avesize)
        elif config.tune_objective == "avesize":
            key = (rep.avesize, rep.covgap)
        else:
            key = (ef if isinstance(ef, float) else math.inf, rep.covgap)
        candidates.append((key, gamma, phi))
    candidates.sort(key=lambda c: c[0])
    _, gamma, phi = candidates[0]
    return gamma, phi

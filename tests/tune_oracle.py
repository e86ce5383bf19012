"""The (gamma, phi) grid search as it ran before it became one pass, kept as an oracle.

``tune_condkgcp`` runs one ``run_single`` of a kgcp + condkgcp sub-config on
the held-out run per (gamma, phi) grid point and ranks the condkgcp reports
with a stable sort.  ``experiment.tune_condkgcp`` must pick the same grid
point; the caller passes only phi values that every direction group reaches.
Used by ``test_experiment.py``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, replace

import numpy as np

from kgconformal import experiment
from kgconformal.kg import KGError, KnowledgeGraph


def held_out_triples(kg: KnowledgeGraph, seed: int) -> tuple[list, list]:
    """The two disjoint samples of training triples that stand in for the calibration and the test split."""
    rng = np.random.default_rng(seed + 7)
    train_triples = list(kg.splits.get("train", []))
    if not train_triples:
        raise KGError("tuning needs a non-empty training split")
    want = max(2, min(len(kg.splits.get("valid", [])), len(train_triples) // 2))
    order = rng.permutation(len(train_triples))
    return [train_triples[i] for i in order[:want]], [train_triples[i] for i in order[want : 2 * want]]


def tune_condkgcp(config: experiment.ExperimentConfig, seed: int, data: experiment.RunData,
                  gamma_grid=experiment.DEFAULT_GAMMA_GRID,
                  phi_grid=experiment.DEFAULT_PHI_GRID) -> tuple[float, int]:
    """(gamma, phi) chosen by one ``run_single`` of a kgcp + condkgcp sub-config per grid point."""
    tune_cal, tune_test = held_out_triples(data.kg, seed)
    sub = experiment.ExperimentConfig(**{**asdict(config), "tune": False, "methods": ["kgcp", "condkgcp"],
                                         "epsilons": config.epsilons[:1]})
    sub_kg = KnowledgeGraph(vocab=data.kg.vocab, splits={
        "train": data.kg.splits["train"], "valid": tune_cal, "test": tune_test,
    })
    if data.model is None:
        raise KGError("tuning scores training queries, so it needs the trained model")
    sub_data = experiment.prepare_run(sub, seed, model=data.model, kg=sub_kg,
                                      predicate_vectors=data.predicate_vectors)

    max_count = int(np.bincount(sub_data.calib.predicate, minlength=data.kg.vocab.n_predicates).max())
    candidates = []
    for phi in phi_grid:
        if phi > max_count:
            continue
        for gamma in gamma_grid:
            reps = experiment.run_single(replace(sub, gamma=gamma, phi=phi), seed, data=sub_data)
            rep = next(r for r in reps if r.method == "condkgcp")
            ef = rep.ef if isinstance(rep.ef, float) else math.inf
            if config.tune_objective == "covgap":
                key = (rep.covgap, rep.avesize)
            elif config.tune_objective == "avesize":
                key = (rep.avesize, rep.covgap)
            else:
                key = (ef, rep.covgap)
            candidates.append((key, gamma, phi))
    if not candidates:
        return config.gamma, config.phi
    candidates.sort(key=lambda c: c[0])
    _, gamma, phi = candidates[0]
    return gamma, phi

"""The benchmark's reference contract: ``run_single`` equals reports built from the public primitives.

``perfbench/checks.py`` assembles reports query by query from ``models.score``,
``scores.nonconformity``, ``kg.rank_of``, the ``conformal.fit_*`` functions and
``conformal.predict_set``.  The benchmark rejects a run whose reports differ
from it; this test fails ``pytest`` on the same change.
"""

import importlib.util
from pathlib import Path

import pytest

from kgconformal import experiment

CHECKS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"


@pytest.fixture(scope="module")
def checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# (seed, scorer, filtered); ids "0" and "1" are the softmax, filtered cases
CASES = [(0, "softmax", True), (1, "softmax", True)] + [
    (0, kind, filtered) for kind in ("softmax", "aps", "raps") for filtered in (True, False)
    if (kind, filtered) != ("softmax", True)
]


@pytest.mark.parametrize("seed, scorer, filtered", CASES,
                         ids=["0", "1"] + [f"{k}-{'filtered' if f else 'raw'}" for _, k, f in CASES[2:]])
def test_run_single_equals_primitive_reference(checks, seed, scorer, filtered):
    # APS/RAPS draw one u per pair from its run-wide query index, so these cases pin the
    # test pairs' offset behind the calibration pairs
    config = experiment.ExperimentConfig(
        synthetic=dict(n_entities=60, n_predicates=4, triple_counts=[200, 100, 50, 25],
                       noise_rates=0.1, n_clusters=4),
        model_kind="transe", dim=8, epochs=5, methods=["kgcp", "mcp", "condkgcp"],
        epsilons=[0.1, 0.2], gamma=0.5, phi=25, seeds=[seed], scorer={"kind": scorer}, filtered=filtered,
    )
    kg = experiment.load_or_generate_kg(config, seed)
    reports = experiment.run_single(config, seed, data=experiment.prepare_run(config, seed, kg=kg))
    reference = checks.reference_reports(kg, config, seed)
    checks.check_equal(checks.rows_of(reports), checks.rows_of(reference), "run_single")
    checks.check_coverage_maps(reports, reference)
    assert len(reports) == len(reference) == 6

"""The benchmark's workloads: inputs made from the seed, set-up, the measured operation, checks.

Every workload draws a synthetic, imbalanced KG from ``synth.generate_triples``
with ten predicates (counts 3000 down to 200, noise 0.02 to 0.4).  Inputs
depend only on the benchmark seed, which is also the pipeline seed.

* ``inmem-transe`` -- the default user path: ``prepare_run`` + ``run_single``
  (what ``run_experiment`` runs per seed) with TransE-L1, |E| = 4000 and a
  short training run.  Scoring and candidate ranking dominate, and the
  per-query score and rank state grows with |Q_test| x |E|.
* ``staged-sweep`` -- the staged CLI in-process: set-up runs ``generate``,
  ``train`` and ``score``; each operation runs ``calibrate`` and
  ``evaluate`` over five error rates.  Nothing is trained or scored in the
  measured phase; score import, ranking and set construction dominate.
* ``train-complex`` -- ``prepare_run`` + ``run_single`` with ComplEx,
  |E| = 2000, 20 epochs and an 80/10/10 split, so training dominates.

Each workload also names a small instance of the same shape, on which the
pipeline's reports must equal ``checks.reference_reports``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import shutil
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np
from kgconformal import cli, experiment, kg as kgm, metrics, synth

import checks

METHODS = ("kgcp", "mcp", "condkgcp")
COUNTS = (3000, 2000, 1500, 1000, 800, 600, 400, 300, 200, 200)
SMALL_COUNTS = (300, 150, 100, 60, 40)


@dataclass(frozen=True)
class Shape:
    n_entities: int
    counts: tuple[int, ...]
    clusters: int
    model_kind: str
    epochs: int
    epsilons: tuple[float, ...]
    phi: int
    fractions: tuple[float, float, float] = (0.6, 0.2, 0.2)
    dim: int = 32

    def spec(self, seed: int) -> synth.SyntheticKGSpec:
        # Each predicate maps a source cluster to a different target cluster.  A rule
        # within one cluster is a reflexive relation, which TransE cannot fit: on the
        # seeds that draw one, kgcp sets cover most of |E|, and set sizes (and the
        # work and memory they cost) split into two modes across seeds.
        n_pred = len(self.counts)
        rng = np.random.default_rng([seed, 2])
        src = rng.integers(0, self.clusters, size=n_pred)
        dst = (src + rng.integers(1, self.clusters, size=n_pred)) % self.clusters
        return synth.SyntheticKGSpec(
            n_entities=self.n_entities, n_predicates=n_pred, triple_counts=list(self.counts),
            noise_rates=[float(x) for x in np.linspace(0.02, 0.4, n_pred)],
            n_clusters=self.clusters, rules=[(int(a), int(b)) for a, b in zip(src, dst)], seed=seed,
        )

    def config(self, seed: int, **where) -> experiment.ExperimentConfig:
        return experiment.ExperimentConfig(
            model_kind=self.model_kind, dim=self.dim, epochs=self.epochs, phi=self.phi,
            methods=list(METHODS), epsilons=list(self.epsilons), seeds=[seed], **where,
        )

    def small(self) -> "Shape":
        return replace(self, n_entities=120, counts=SMALL_COUNTS, clusters=6, phi=10, dim=8)


def make_kg(shape: Shape, seed: int) -> kgm.KnowledgeGraph:
    """Generate the triples and split them with the shape's fractions."""
    spec = shape.spec(seed)
    triples = synth.generate_triples(spec)
    order = np.random.default_rng([seed, 1]).permutation(len(triples))
    n_train = int(round(len(order) * shape.fractions[0]))
    n_valid = int(round(len(order) * shape.fractions[1]))
    shuffled = [triples[i] for i in order]
    vocab = kgm.Vocab.from_identifiers([f"e{i:05d}" for i in range(spec.n_entities)],
                                       [f"r{i:03d}" for i in range(spec.n_predicates)])
    return kgm.KnowledgeGraph(vocab=vocab, splits={
        "train": shuffled[:n_train],
        "valid": shuffled[n_train:n_train + n_valid],
        "test": shuffled[n_train + n_valid:],
    })


def _test_predicates(kg, config) -> np.ndarray:
    return kgm.make_queries(kg.splits["test"], config.both_directions).predicates()


class Workload:
    """Base class.  ``attempted`` counts the operations run in this process: set-up
    stages, reference checks, and ``stages_per_op`` per measured operation."""

    name = ""
    why = ""
    shape: Shape
    setup_repeats = 7
    stages_per_op = 1

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.first_rows: list[dict] | None = None

    def sizes(self) -> dict:
        """Figures the per-layer metrics are normalised by."""
        return {"n_entities": self.shape.n_entities, "test_pairs": self.test_pairs,
                "epochs": self.shape.epochs, "train_triples": self.train_triples}

    def _count_inputs(self) -> None:
        self.test_pred = _test_predicates(self.kg, self.config)
        self.test_pairs = int(self.test_pred.size)
        self.calib_pairs = len(kgm.make_queries(self.kg.splits["valid"], self.config.both_directions))
        self.train_triples = len(self.kg.splits["train"])

    def check_repeat(self, rows: list[dict]) -> None:
        """Repeated operations on the same inputs must give the same reports."""
        if self.first_rows is None:
            self.first_rows = rows
        elif rows != self.first_rows:
            raise checks.CheckFailed("reports differ between repetitions of the same operation")


class InMemory(Workload):
    """``prepare_run`` + ``run_single`` + ``aggregate_rows`` on a KG built in set-up."""

    def setup(self) -> None:
        self.kg = make_kg(self.shape, self.seed)
        self.config = self.shape.config(self.seed, synthetic=asdict(self.shape.spec(self.seed)))
        self._count_inputs()

    def run_once(self):
        data = experiment.prepare_run(self.config, self.seed, kg=self.kg)
        reports = experiment.run_single(self.config, self.seed, data=data)
        metrics.aggregate_rows(reports)
        return reports

    def check(self, reports) -> dict:
        rows = checks.rows_of(reports)
        checks.check_structure(rows, METHODS, self.shape.epsilons, [self.seed], self.shape.n_entities)
        coverage = {}
        for rep in reports:
            if rep.method == "kgcp":
                coverage[rep.epsilon] = checks.pooled_coverage(rep, self.test_pred)
                checks.check_coverage(coverage[rep.epsilon], rep.epsilon, self.test_pairs, self.calib_pairs)
        self.check_repeat(rows)
        return {"kgcp_coverage": coverage,
                "avesize_frac": {f"{r.method}@{r.epsilon:g}": r.avesize / self.shape.n_entities for r in reports}}

    def final_check(self) -> dict:
        """Nothing beyond the per-operation checks at full size."""
        return {}

    def reference_check(self, corrupt=None) -> None:
        small = self.shape.small()
        kg = make_kg(small, self.seed)
        config = small.config(self.seed, synthetic=asdict(small.spec(self.seed)))
        self.attempted += 1
        reports = experiment.run_single(config, self.seed, data=experiment.prepare_run(config, self.seed, kg=kg))
        if corrupt is not None:
            corrupt(reports)
        rows = checks.rows_of(reports)
        checks.check_structure(rows, METHODS, small.epsilons, [self.seed], small.n_entities)
        reference = checks.reference_reports(kg, config, self.seed)
        checks.check_equal(rows, checks.rows_of(reference), f"{self.name} small instance")
        checks.check_coverage_maps(reports, reference)


class InMemTransE(InMemory):
    name = "inmem-transe"
    why = "default in-memory path (TransE-L1, |E|=4000): scoring and candidate ranking dominate and memory grows with |Q_test|x|E|"
    shape = Shape(n_entities=4000, counts=COUNTS, clusters=40, model_kind="transe",
                  epochs=5, epsilons=(0.1,), phi=50)


class TrainComplex(InMemory):
    name = "train-complex"
    why = "ComplEx with 20 epochs on an 80/10/10 split (|E|=2000): training dominates, scoring and calibration are light"
    shape = Shape(n_entities=2000, counts=COUNTS, clusters=20, model_kind="complex",
                  epochs=20, epsilons=(0.1,), phi=50, fractions=(0.8, 0.1, 0.1))


class StagedSweep(Workload):
    """The staged CLI in-process; each operation is ``calibrate`` then ``evaluate``."""

    name = "staged-sweep"
    why = "staged CLI: score once in set-up, then calibrate+evaluate over 5 error rates; score import, ranking and set building dominate"
    shape = Shape(n_entities=4000, counts=COUNTS, clusters=40, model_kind="transe",
                  epochs=5, epsilons=(0.05, 0.1, 0.15, 0.2, 0.25), phi=50)
    setup_repeats = 3
    stages_per_op = 2

    def _stage(self, *argv: str) -> None:
        self.attempted += 1
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            code = cli.main(list(argv))
        if code != 0:
            raise checks.CheckFailed(f"'kgconformal {argv[0]}' exited with code {code}")

    def _write_inputs(self, shape: Shape, root: Path):
        if root.exists():
            shutil.rmtree(root)
        manifest = synth.write_dataset(shape.spec(self.seed), root / "data")
        config = shape.config(self.seed, dataset=str(manifest), output_dir=str(root / "out"))
        config_path = root / "config.json"
        config_path.write_text(config.to_json(), encoding="utf-8")
        return manifest, config, str(config_path)

    def setup(self) -> None:
        self.root = self.work / "full"
        self.manifest, self.config, self.config_path = self._write_inputs(self.shape, self.root)
        self._stage("train", "--config", self.config_path)
        self._stage("score", "--config", self.config_path)
        self.kg = kgm.load_kg(self.manifest)
        self._count_inputs()

    def _calibrate_evaluate(self, config_path: str) -> None:
        self._stage("calibrate", "--config", config_path)
        self._stage("evaluate", "--config", config_path)

    def run_once(self):
        self._calibrate_evaluate(self.config_path)
        return _read_rows(self.root / "out" / "reports.csv")

    def check(self, rows) -> dict:
        checks.check_structure(rows, METHODS, self.shape.epsilons, [self.seed], self.shape.n_entities)
        self.check_repeat(rows)
        return {"avesize_frac": {f"{r['method']}@{float(r['epsilon']):g}": float(r["avesize"]) / self.shape.n_entities
                                 for r in rows}}

    def final_check(self) -> dict:
        """Full-size kgcp reference: equal kgcp rows, and pooled coverage in its band."""
        reference = checks.reference_reports(self.kg, self.config, self.seed, methods=["kgcp"])
        checks.check_equal([r for r in self.first_rows if r["method"] == "kgcp"],
                           checks.rows_of(reference), f"{self.name} kgcp at full size")
        coverage = {}
        for rep in reference:
            coverage[rep.epsilon] = checks.pooled_coverage(rep, self.test_pred)
            checks.check_coverage(coverage[rep.epsilon], rep.epsilon, self.test_pairs, self.calib_pairs)
        return {"kgcp_coverage": coverage}

    def reference_check(self, corrupt=None) -> None:
        small = replace(self.shape.small(), epsilons=(0.1, 0.2))
        manifest, config, config_path = self._write_inputs(small, self.work / "small")
        for stage in ("train", "score"):
            self._stage(stage, "--config", config_path)
        self._calibrate_evaluate(config_path)
        rows = _read_rows(self.work / "small" / "out" / "reports.csv")
        if corrupt is not None:
            corrupt(rows)
        checks.check_structure(rows, METHODS, small.epsilons, [self.seed], small.n_entities)
        reference = checks.reference_reports(kgm.load_kg(manifest), config, self.seed)
        checks.check_equal(rows, checks.rows_of(reference), f"{self.name} small instance")


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


WORKLOADS = {w.name: w for w in (InMemTransE, StagedSweep, TrainComplex)}

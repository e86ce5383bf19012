"""Synthetic knowledge graphs with learnable per-predicate structure.

Entities are assigned to clusters; each predicate encodes a latent rule
mapping a source cluster to a target cluster.  Noise replaces the ruled
tail with a uniform random entity, so noisier predicates carry genuinely
higher predictive uncertainty after training.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .kg import KnowledgeGraph, SplitConfig, Vocab, split_triples

__all__ = ["SyntheticKGSpec", "generate_triples", "synthetic_kg", "write_dataset"]


@dataclass
class SyntheticKGSpec:
    n_entities: int = 100
    n_predicates: int = 5
    triple_counts: list[int] = field(default_factory=lambda: [400, 200, 80, 40, 20])
    noise_rates: list[float] | float = 0.1
    n_clusters: int = 8
    rules: list[tuple[int, int]] | None = None  # (source, target) cluster per predicate
    seed: int = 0

    def __post_init__(self):
        for name in ("n_entities", "n_predicates", "n_clusters"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if len(self.triple_counts) != self.n_predicates:
            raise ValueError("need one triple count per predicate")
        if any(c < 1 for c in self.triple_counts):
            raise ValueError("triple counts must be >= 1")
        for r, count in enumerate(self.triple_counts):
            if count > self.n_entities ** 2:
                raise ValueError(f"predicate {r}: triple_counts[{r}] = {count} exceeds n_entities ** 2 = "
                                 f"{self.n_entities ** 2}, the distinct triples a predicate can hold")
        rates = self.rates()
        if len(rates) != self.n_predicates:
            raise ValueError(f"noise_rates must hold one rate per predicate ({self.n_predicates}), got {len(rates)}")
        if any(not 0.0 <= x < 1.0 for x in rates):
            raise ValueError("noise rates must be in [0, 1)")
        if self.rules is not None:
            if len(self.rules) != self.n_predicates:
                raise ValueError("need one (source, target) rule per predicate")
            for src, dst in self.rules:
                if not (0 <= src < self.n_clusters and 0 <= dst < self.n_clusters):
                    raise ValueError("rule cluster index out of range")

    def rates(self) -> list[float]:
        if isinstance(self.noise_rates, (int, float)):
            return [float(self.noise_rates)] * self.n_predicates
        return [float(x) for x in self.noise_rates]


def generate_triples(spec: SyntheticKGSpec) -> np.ndarray:
    """Distinct (head, predicate, tail) rows, an ``(n, 3)`` int64 array grouped by predicate in draw order.

    The rows depend only on the spec and numpy's PCG64 stream from ``default_rng(spec.seed)``: one cluster
    per entity, then, per predicate, its (source, target) clusters when ``rules`` is None, then one head,
    one noise coin and one tail per attempt; an attempt that repeats a row is dropped.
    ``tests/synth_oracle.py`` pins that order.
    """
    rng = np.random.default_rng(spec.seed)
    clusters = rng.integers(0, spec.n_clusters, size=spec.n_entities)
    members = [np.flatnonzero(clusters == c) for c in range(spec.n_clusters)]
    for r, rule in enumerate(spec.rules or []):
        for c in rule:
            if members[c].size == 0:
                raise ValueError(f"predicate {r}: rules[{r}] names cluster {c}, which holds no entity "
                                 f"(n_entities {spec.n_entities}, n_clusters {spec.n_clusters}, seed {spec.seed})")
    if spec.rules is None:
        members = [m for m in members if m.size > 0]
    n_clusters = len(members)
    rates = spec.rates()

    # One scalar rng.integers per draw: rng.choice(a) draws the same integers(0, a.size) at several times the
    # cost, and a bulk draw with size= would take other numbers from the stream.
    rows: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int, int]] = set()
    for r, count in enumerate(spec.triple_counts):
        if spec.rules is not None:
            src, dst = spec.rules[r]
        else:
            src = int(rng.integers(0, n_clusters))
            dst = int(rng.integers(0, n_clusters))
        heads, tails = members[src].tolist(), members[dst].tolist()
        produced = 0
        attempts = 0
        while produced < count:
            attempts += 1
            if attempts > 1000 * count:
                raise ValueError(f"predicate {r}: cannot place triple_counts[{r}] = {count} distinct "
                                 f"triples among n_entities {spec.n_entities}")
            h = heads[rng.integers(0, len(heads))]
            if rng.random() < rates[r]:
                t = int(rng.integers(0, spec.n_entities))
            else:
                t = tails[rng.integers(0, len(tails))]
            key = (h, r, t)
            if key in seen:
                continue
            rows.append(key)
            seen.add(key)
            produced += 1
    return np.array(rows, dtype=np.int64)


def synthetic_kg(spec: SyntheticKGSpec,
                 fractions: tuple[float, float, float] = (0.6, 0.2, 0.2)) -> KnowledgeGraph:
    """Generated triples split into train/valid/test by :func:`~kgconformal.kg.split_triples` with ``seed + 1``.

    Entities are named ``e00000, e00001, ...`` and predicates ``r000, ...``.
    """
    vocab = Vocab.from_identifiers(
        [f"e{i:05d}" for i in range(spec.n_entities)],
        [f"r{i:03d}" for i in range(spec.n_predicates)],
    )
    return KnowledgeGraph(vocab=vocab, splits=split_triples(generate_triples(spec),
                                                            SplitConfig(*fractions, seed=spec.seed + 1)))


def write_dataset(spec: SyntheticKGSpec, out_dir: str | Path,
                  fractions: tuple[float, float, float] = (0.6, 0.2, 0.2)) -> Path:
    """Write the :func:`synthetic_kg` splits as TSVs plus a manifest; returns the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    kg = synthetic_kg(spec, fractions)
    ent_name, pred_name = kg.vocab.entities, kg.vocab.predicates
    for name, rows in kg.splits.items():
        with open(out_dir / f"{name}.tsv", "w", encoding="utf-8") as fh:
            for h, r, t in rows.tolist():
                fh.write(f"{ent_name[h]}\t{pred_name[r]}\t{ent_name[t]}\n")
    (out_dir / "entities.txt").write_text("\n".join(ent_name) + "\n", encoding="utf-8")
    (out_dir / "relations.txt").write_text("\n".join(pred_name) + "\n", encoding="utf-8")
    manifest = out_dir / "manifest.json"
    manifest.write_text(
        '{\n  "train": "train.tsv",\n  "valid": "valid.tsv",\n  "test": "test.tsv",\n'
        '  "entities": "entities.txt",\n  "relations": "relations.txt"\n}\n',
        encoding="utf-8",
    )
    return manifest

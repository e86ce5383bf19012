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

from .kg import KnowledgeGraph, Triple, Vocab

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
        if len(self.triple_counts) != self.n_predicates:
            raise ValueError("need one triple count per predicate")
        if any(c < 1 for c in self.triple_counts):
            raise ValueError("triple counts must be >= 1")
        rates = self.rates()
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


def generate_triples(spec: SyntheticKGSpec) -> list[Triple]:
    rng = np.random.default_rng(spec.seed)
    clusters = rng.integers(0, spec.n_clusters, size=spec.n_entities)
    members = [np.flatnonzero(clusters == c) for c in range(spec.n_clusters)]
    if spec.rules is not None and any(m.size == 0 for m in members):
        raise RuntimeError("explicit rules need every cluster to be non-empty")
    if spec.rules is None:
        members = [m for m in members if m.size > 0]
    n_clusters = len(members)
    rates = spec.rates()

    triples: list[Triple] = []
    seen: set[tuple[int, int, int]] = set()
    for r in range(spec.n_predicates):
        if spec.rules is not None:
            src, dst = spec.rules[r]
        else:
            src = int(rng.integers(0, n_clusters))
            dst = int(rng.integers(0, n_clusters))
        produced = 0
        attempts = 0
        while produced < spec.triple_counts[r]:
            attempts += 1
            if attempts > 1000 * spec.triple_counts[r]:
                raise RuntimeError(f"predicate {r}: cannot place {spec.triple_counts[r]} distinct triples")
            h = int(rng.choice(members[src]))
            if rng.random() < rates[r]:
                t = int(rng.integers(0, spec.n_entities))
            else:
                t = int(rng.choice(members[dst]))
            key = (h, r, t)
            if key in seen:
                continue
            seen.add(key)
            triples.append(Triple(h, r, t))
            produced += 1
    return triples


def synthetic_kg(spec: SyntheticKGSpec,
                 fractions: tuple[float, float, float] = (0.6, 0.2, 0.2)) -> KnowledgeGraph:
    """Generated triples shuffled with ``seed + 1`` and cut into train/valid/test.

    Entities are named ``e00000, e00001, ...`` and predicates ``r000, ...``.
    """
    order = generate_triples(spec)
    np.random.default_rng(spec.seed + 1).shuffle(order)
    n = len(order)
    n_train = int(round(n * fractions[0]))
    n_valid = int(round(n * fractions[1]))
    vocab = Vocab.from_identifiers(
        [f"e{i:05d}" for i in range(spec.n_entities)],
        [f"r{i:03d}" for i in range(spec.n_predicates)],
    )
    return KnowledgeGraph(vocab=vocab, splits={
        "train": order[:n_train],
        "valid": order[n_train : n_train + n_valid],
        "test": order[n_train + n_valid :],
    })


def write_dataset(spec: SyntheticKGSpec, out_dir: str | Path,
                  fractions: tuple[float, float, float] = (0.6, 0.2, 0.2)) -> Path:
    """Write the :func:`synthetic_kg` splits as TSVs plus a manifest; returns the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    kg = synthetic_kg(spec, fractions)
    ent_name, pred_name = kg.vocab.entities, kg.vocab.predicates
    for name, rows in kg.splits.items():
        with open(out_dir / f"{name}.tsv", "w", encoding="utf-8") as fh:
            for tr in rows:
                fh.write(f"{ent_name[tr.head]}\t{pred_name[tr.predicate]}\t{ent_name[tr.tail]}\n")
    (out_dir / "entities.txt").write_text("\n".join(ent_name) + "\n", encoding="utf-8")
    (out_dir / "relations.txt").write_text("\n".join(pred_name) + "\n", encoding="utf-8")
    manifest = out_dir / "manifest.json"
    manifest.write_text(
        '{\n  "train": "train.tsv",\n  "valid": "valid.tsv",\n  "test": "test.tsv",\n'
        '  "entities": "entities.txt",\n  "relations": "relations.txt"\n}\n',
        encoding="utf-8",
    )
    return manifest

"""Knowledge-graph data model: vocabularies, triples, queries, splits, ranking."""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

__all__ = [
    "Direction",
    "KGError",
    "KnowledgeGraph",
    "Query",
    "QueryAnswerSet",
    "SplitConfig",
    "Triple",
    "Vocab",
    "build_answer_index",
    "load_kg",
    "make_queries",
    "rank_of",
    "split_triples",
]


class KGError(ValueError):
    """Malformed knowledge-graph input."""


class Direction(str, Enum):
    """Which slot of the triple is the unknown to be predicted."""

    TAIL = "tail"  # (h, r, ?)
    HEAD = "head"  # (?, r, t)


@dataclass(frozen=True)
class Vocab:
    """Dense, stable index maps for entity and predicate identifiers."""

    entities: tuple[str, ...]
    predicates: tuple[str, ...]
    entity_index: dict[str, int] = field(repr=False, default_factory=dict)
    predicate_index: dict[str, int] = field(repr=False, default_factory=dict)

    @classmethod
    def from_identifiers(cls, entities, predicates) -> "Vocab":
        ents = tuple(sorted(set(entities)))
        preds = tuple(sorted(set(predicates)))
        return cls(
            entities=ents,
            predicates=preds,
            entity_index={e: i for i, e in enumerate(ents)},
            predicate_index={p: i for i, p in enumerate(preds)},
        )

    @property
    def n_entities(self) -> int:
        return len(self.entities)

    @property
    def n_predicates(self) -> int:
        return len(self.predicates)


@dataclass(frozen=True, order=True)
class Triple:
    head: int
    predicate: int
    tail: int


@dataclass(frozen=True)
class Query:
    """A link-prediction question: one slot of a triple is missing."""

    direction: Direction
    anchor: int
    predicate: int

    def key(self) -> tuple[str, int, int]:
        return (self.direction.value, self.anchor, self.predicate)


@dataclass
class QueryAnswerSet:
    pairs: list[tuple[Query, int]]
    name: str = ""

    def __len__(self) -> int:
        return len(self.pairs)

    def predicates(self) -> np.ndarray:
        return np.array([q.predicate for q, _ in self.pairs], dtype=np.int64)


@dataclass(frozen=True)
class SplitConfig:
    train_fraction: float = 0.6
    calib_fraction: float = 0.2
    test_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        fracs = (self.train_fraction, self.calib_fraction, self.test_fraction)
        if any(f <= 0 for f in fracs):
            raise KGError("split fractions must be positive")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise KGError("split fractions must sum to 1")


@dataclass
class KnowledgeGraph:
    vocab: Vocab
    splits: dict[str, list[Triple]]


def _parse_tsv(path: Path) -> list[tuple[str, str, str]]:
    rows: list[tuple[str, str, str]] = []
    seen: dict[tuple[str, str, str], int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise KGError(f"{path}:{lineno}: expected 3 tab-separated fields, got {len(parts)}")
            row = (parts[0], parts[1], parts[2])
            if row in seen:
                raise KGError(f"{path}:{lineno}: duplicate triple (first seen at line {seen[row]})")
            seen[row] = lineno
            rows.append(row)
    return rows


def load_kg(path: str | Path, fmt: str = "auto") -> KnowledgeGraph:
    """Load a KG from a triples TSV or a JSON manifest referencing split TSVs.

    The manifest format is ``{"train": path, "valid": path, "test": path,
    "entities": optional path, "relations": optional path}``.  With a bare
    TSV, all triples land in a single split named ``"all"``.
    """
    path = Path(path)
    if not path.exists():
        raise KGError(f"no such file: {path}")
    if fmt == "auto":
        fmt = "manifest" if path.suffix == ".json" else "tsv"

    if fmt == "tsv":
        raw = {"all": _parse_tsv(path)}
        closed_entities = closed_predicates = None
    elif fmt == "manifest":
        manifest = json.loads(path.read_text(encoding="utf-8"))
        raw = {}
        for name in ("train", "valid", "test"):
            if name in manifest:
                raw[name] = _parse_tsv(path.parent / manifest[name])
        if not raw:
            raise KGError(f"{path}: manifest declares no splits")
        closed_entities = closed_predicates = None
        if "entities" in manifest:
            closed_entities = [
                ln.strip() for ln in (path.parent / manifest["entities"]).read_text().splitlines() if ln.strip()
            ]
        if "relations" in manifest:
            closed_predicates = [
                ln.strip() for ln in (path.parent / manifest["relations"]).read_text().splitlines() if ln.strip()
            ]
    else:
        raise KGError(f"unknown format: {fmt}")

    all_rows = [row for rows in raw.values() for row in rows]
    if not all_rows:
        raise KGError(f"{path}: no triples")

    ents = {h for h, _, t in all_rows} | {t for _, _, t in all_rows}
    preds = {r for _, r, _ in all_rows}
    if closed_entities is not None:
        unknown = ents - set(closed_entities)
        if unknown:
            raise KGError(f"entities not in declared vocabulary: {sorted(unknown)[:5]}")
        ents |= set(closed_entities)
    if closed_predicates is not None:
        unknown = preds - set(closed_predicates)
        if unknown:
            raise KGError(f"relations not in declared vocabulary: {sorted(unknown)[:5]}")
        preds |= set(closed_predicates)

    vocab = Vocab.from_identifiers(ents, preds)
    splits = {
        name: [
            Triple(vocab.entity_index[h], vocab.predicate_index[r], vocab.entity_index[t])
            for h, r, t in rows
        ]
        for name, rows in raw.items()
    }
    return KnowledgeGraph(vocab=vocab, splits=splits)


def split_triples(triples: list[Triple], cfg: SplitConfig) -> dict[str, list[Triple]]:
    """Seeded, reproducible three-way split of a triple list."""
    order = list(triples)
    random.Random(cfg.seed).shuffle(order)
    n = len(order)
    n_train = int(round(n * cfg.train_fraction))
    n_calib = int(round(n * cfg.calib_fraction))
    return {
        "train": order[:n_train],
        "valid": order[n_train : n_train + n_calib],
        "test": order[n_train + n_calib :],
    }


def make_queries(triples: list[Triple], both_directions: bool = True, name: str = "") -> QueryAnswerSet:
    """Turn triples into (query, answer) pairs, preserving input order."""
    pairs: list[tuple[Query, int]] = []
    seen: set[tuple[tuple[str, int, int], int]] = set()
    for tr in triples:
        candidates = [(Query(Direction.TAIL, tr.head, tr.predicate), tr.tail)]
        if both_directions:
            candidates.append((Query(Direction.HEAD, tr.tail, tr.predicate), tr.head))
        for q, a in candidates:
            k = (q.key(), a)
            if k not in seen:
                seen.add(k)
                pairs.append((q, a))
    return QueryAnswerSet(pairs=pairs, name=name)


def build_answer_index(sets: list[QueryAnswerSet]) -> dict[tuple[str, int, int], set[int]]:
    """All known true answers per query across the given sets (filtered-setting masks)."""
    index: dict[tuple[str, int, int], set[int]] = {}
    for qa in sets:
        for q, a in qa.pairs:
            index.setdefault(q.key(), set()).add(a)
    return index


def rank_of(scores: np.ndarray, answer: int, filter_mask=None) -> int:
    """Pessimistic rank of ``answer``: candidates with score >= the answer's score.

    ``filter_mask`` removes entities (other known true answers) from the
    candidate pool before counting; the answer itself must not be masked.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(scores)):
        raise KGError("non-finite score in rank computation")
    if filter_mask is not None and answer in filter_mask:
        raise KGError("answer entity is in the filter mask")
    target = scores[answer]
    keep = np.ones(scores.shape[0], dtype=bool)
    if filter_mask is not None:
        keep[list(filter_mask)] = False
    return int(np.count_nonzero(scores[keep] >= target))


def candidate_ranks(scores: np.ndarray, filter_mask=None) -> np.ndarray:
    """Pessimistic rank of every entity at once (masked entities get rank 0).

    rank(e) counts unmasked candidates whose score is >= score(e); for
    unmasked e this matches :func:`rank_of`.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.shape[0]
    keep = np.ones(n, dtype=bool)
    if filter_mask is not None:
        keep[list(filter_mask)] = False
    kept_sorted = np.sort(scores[keep])
    m = kept_sorted.shape[0]
    # rank = number of kept scores >= s  =  m - (number strictly below s)
    below = np.searchsorted(kept_sorted, scores, side="left")
    ranks = m - below
    ranks[~keep] = 0
    return ranks.astype(np.int64)

"""Knowledge-graph data model: vocabularies, triples, queries, splits, ranking."""

from __future__ import annotations

import json
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
    "filter_masks",
    "load_kg",
    "make_queries",
    "rank_cuts",
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


DIRECTIONS = (Direction.TAIL, Direction.HEAD)  # indexed by the direction code: 0 tail, 1 head


@dataclass
class QueryAnswerSet:
    """(query, answer) pairs as int64 columns; pair ``i`` is row ``i`` of each column."""

    direction: np.ndarray  # 0 tail (h, r, ?), 1 head (?, r, t)
    anchor: np.ndarray
    predicate: np.ndarray
    answer: np.ndarray

    def __len__(self) -> int:
        return self.answer.shape[0]

    def queries(self) -> np.ndarray:
        """``(n, 3)`` rows of (direction, anchor, predicate)."""
        return np.column_stack((self.direction, self.anchor, self.predicate))

    @property
    def pairs(self) -> list[tuple[Query, int]]:
        """Per-pair view: ``(Query, answer)`` tuples."""
        columns = (self.direction, self.anchor, self.predicate, self.answer)
        return [(Query(DIRECTIONS[d], a, p), ans) for d, a, p, ans in zip(*(c.tolist() for c in columns))]

    def predicates(self) -> np.ndarray:
        return self.predicate


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


def load_kg(path: str | Path) -> KnowledgeGraph:
    """Load a KG from a JSON manifest (a ``.json`` path) referencing split TSVs, or a triples TSV.

    The manifest format is ``{"train": path, "valid": path, "test": path,
    "entities": optional path, "relations": optional path}``.  With a bare
    TSV, all triples land in a single split named ``"all"``.
    """
    path = Path(path)
    if not path.exists():
        raise KGError(f"no such file: {path}")
    closed_entities = closed_predicates = None
    if path.suffix != ".json":
        raw = {"all": _parse_tsv(path)}
    else:
        manifest = json.loads(path.read_text(encoding="utf-8"))
        raw = {}
        for name in ("train", "valid", "test"):
            if name in manifest:
                raw[name] = _parse_tsv(path.parent / manifest[name])
        if not raw:
            raise KGError(f"{path}: manifest declares no splits")
        if "entities" in manifest:
            closed_entities = [
                ln.strip() for ln in (path.parent / manifest["entities"]).read_text().splitlines() if ln.strip()
            ]
        if "relations" in manifest:
            closed_predicates = [
                ln.strip() for ln in (path.parent / manifest["relations"]).read_text().splitlines() if ln.strip()
            ]

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
    """Seeded, reproducible three-way split of a triple list: a numpy shuffle with ``cfg.seed``, then two cuts."""
    order = list(triples)
    np.random.default_rng(cfg.seed).shuffle(order)
    n = len(order)
    n_train = int(round(n * cfg.train_fraction))
    n_calib = int(round(n * cfg.calib_fraction))
    return {
        "train": order[:n_train],
        "valid": order[n_train : n_train + n_calib],
        "test": order[n_train + n_calib :],
    }


def make_queries(triples: list[Triple], both_directions: bool = True) -> QueryAnswerSet:
    """Turn triples into (query, answer) pairs in input order: each triple's tail query, then its head query.

    A repeated triple would repeat both of its pairs, so only its first occurrence counts.
    """
    hrt = np.array([(t.head, t.predicate, t.tail) for t in triples], dtype=np.int64).reshape(-1, 3)
    h, r, t = hrt[np.sort(np.unique(hrt, axis=0, return_index=True)[1])].T
    tail = np.stack((np.zeros_like(h), h, r, t))  # rows: direction, anchor, predicate, answer
    head = np.stack((np.ones_like(h), t, r, h))
    pairs = np.stack((tail, head) if both_directions else (tail,), axis=2)  # (4, triples, pairs per triple)
    return QueryAnswerSet(*pairs.reshape(4, -1))


def query_keys(queries: np.ndarray) -> np.ndarray:
    """One int64 per ``(direction, anchor, predicate)`` row, anchors and predicates in [0, 2**31).

    Keys sort like :meth:`Query.key` tuples: head queries (code 1) first, then by anchor, then by predicate.
    """
    return ((1 - queries[:, 0]) << 62) | (queries[:, 1] << 31) | queries[:, 2]


def filter_masks(qa: QueryAnswerSet, known: list[QueryAnswerSet]) -> tuple[np.ndarray, np.ndarray]:
    """CSR filter masks ``(indptr, indices)``: pair ``i`` of ``qa`` masks ``indices[indptr[i]:indptr[i + 1]]``.

    A mask holds, in ascending order, the answers its query has in ``known`` other than the pair's own.
    """
    indptr = np.zeros(len(qa) + 1, dtype=np.int64)
    if not known:
        return indptr, np.empty(0, dtype=np.int64)
    known_keys = query_keys(np.concatenate([k.queries() for k in known]))
    answers = np.concatenate([k.answer for k in known])
    # sorted distinct (query key, answer) rows: each query's known answers form one run
    order = np.lexsort((answers, known_keys))
    known_keys, answers = known_keys[order], answers[order]
    new = np.ones(order.shape, dtype=bool)
    new[1:] = (known_keys[1:] != known_keys[:-1]) | (answers[1:] != answers[:-1])
    known_keys, answers = known_keys[new], answers[new]
    keys = query_keys(qa.queries())
    lo = np.searchsorted(known_keys, keys, side="left")
    sizes = np.searchsorted(known_keys, keys, side="right") - lo
    owner = np.repeat(np.arange(len(qa)), sizes)
    answers = answers[np.repeat(lo - (np.cumsum(sizes) - sizes), sizes) + np.arange(owner.shape[0])]
    other = answers != qa.answer[owner]
    np.cumsum(np.bincount(owner[other], minlength=len(qa)), out=indptr[1:])
    return indptr, answers[other]


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


def rank_cuts(masked_scores: np.ndarray, cutoffs) -> np.ndarray:
    """Score cuts equivalent to top-``k`` rank filters, one per (row, cutoff).

    ``masked_scores`` holds one query per row, finite except for masked
    entities, which are -inf; ``cutoffs`` holds each row's rank cutoffs
    (shape ``(rows, m)``).  The cut for cutoff ``k`` is the (k+1)-th largest
    unmasked score, or -inf when ``k`` is at least the number of unmasked
    entities; cutoff -1 (no rank is that small) cuts at +inf, so cutoffs
    ``k - 1`` and ``k`` read the k-th and the (k+1)-th largest score from one
    sort.  For an unmasked entity ``e``, its filtered rank
    ``rank_of(scores, e, mask) <= k`` holds exactly when
    ``scores[e] > cut``, ties included: a pessimistic rank counts the
    candidates scoring ``>= scores[e]``, and at most ``k`` of them do exactly
    when the (k+1)-th largest score lies below ``scores[e]``.  Masked
    entities never pass the cut.
    """
    ordered = np.sort(masked_scores, axis=1)
    n = ordered.shape[1]
    cutoffs = np.asarray(cutoffs, dtype=np.int64)
    # the (k+1)-th largest is ascending position n-1-k; masked entries (-inf) fill the bottom
    cuts = np.take_along_axis(ordered, np.clip(n - 1 - cutoffs, 0, n - 1), axis=1)
    return np.where(cutoffs < 0, np.inf, np.where(cutoffs < n, cuts, -np.inf))

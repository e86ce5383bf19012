"""Knowledge-graph data model: vocabularies, triples as ``(n, 3)`` int64 rows, queries, splits, ranking."""

from __future__ import annotations

import json
from dataclasses import dataclass
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
    """Entity and predicate identifiers; an id is a position in these tuples."""

    entities: tuple[str, ...]
    predicates: tuple[str, ...]

    @classmethod
    def from_identifiers(cls, entities, predicates) -> "Vocab":
        return cls(entities=tuple(sorted(set(entities))), predicates=tuple(sorted(set(predicates))))

    @property
    def n_entities(self) -> int:
        return len(self.entities)

    @property
    def n_predicates(self) -> int:
        return len(self.predicates)


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
    """A vocabulary and named splits, each an ``(n, 3)`` int64 array of (head, predicate, tail) rows.

    A split may be given as any sequence of 3-wide rows of integers; it is converted here, once.  A
    split of non-integer ids (floats or strings included), a split that is not 3 wide, or an id
    outside ``[0, |E|)`` (head, tail) or ``[0, |R|)`` (predicate) raises KGError naming the split.
    """

    vocab: Vocab
    splits: dict[str, np.ndarray]

    def __post_init__(self):
        limits = np.array([self.vocab.n_entities, self.vocab.n_predicates, self.vocab.n_entities])
        splits = {}
        for name, rows in self.splits.items():
            try:
                rows = np.asarray(rows)  # no int64 dtype here: it would truncate floats and parse digit strings
            except ValueError:  # ragged rows
                rows = None
            if rows is None or (rows.size and rows.dtype.kind not in "iu"):
                raise KGError(f"split '{name}': rows are not (head, predicate, tail) integer triples")
            rows = (rows.reshape(0, 3) if rows.shape == (0,) else rows).astype(np.int64, copy=False)
            if rows.ndim != 2 or rows.shape[1] != 3:
                raise KGError(f"split '{name}': rows must be (head, predicate, tail) triples, got shape {rows.shape}")
            bad = np.argwhere((rows < 0) | (rows >= limits))
            if bad.size:
                i, j = bad[0]
                raise KGError(f"split '{name}' row {i}: {('head', 'predicate', 'tail')[j]} id {rows[i, j]} "
                              f"is outside [0, {limits[j]})")
            splits[name] = rows
        self.splits = splits

    def triples(self, name: str) -> np.ndarray:
        """Split ``name``'s rows; none, a ``(0, 3)`` array, when the KG has no such split."""
        return self.splits.get(name, np.empty((0, 3), dtype=np.int64))


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


def _manifest_files(path: Path) -> dict[str, Path]:
    """Each key of the JSON manifest at ``path`` and its file, relative to the manifest's directory.

    KGError names the manifest, and the key at fault: a document that is not an object, a key that is not one of
    ``train``, ``valid``, ``test``, ``entities`` and ``relations``, or a value that is not a path string.
    """
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise KGError(f"{path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise KGError(f"{path}: manifest must be a JSON object, got {type(manifest).__name__}")
    unknown = sorted(set(manifest) - {"train", "valid", "test", "entities", "relations"})
    if unknown:
        raise KGError(f"{path}: manifest has unknown keys: {', '.join(unknown)} "
                      "(train, valid, test, entities, relations)")
    for key, value in manifest.items():
        if not isinstance(value, str):
            raise KGError(f"{path}: manifest key '{key}' must be a path string, got {type(value).__name__}")
    return {key: path.parent / value for key, value in manifest.items()}


def load_kg(path: str | Path) -> KnowledgeGraph:
    """Load a KG from a JSON manifest (a ``.json`` path) referencing split TSVs, or a triples TSV.

    The manifest format is ``{"train": path, "valid": path, "test": path,
    "entities": optional path, "relations": optional path}``; any other key, or a value that
    is not a string, raises KGError naming the manifest and the key.  With a bare
    TSV, all triples land in a single split named ``"all"``.
    """
    path = Path(path)
    if not path.exists():
        raise KGError(f"no such file: {path}")
    declared = {}  # closed vocabularies, by manifest key
    if path.suffix != ".json":
        raw = {"all": _parse_tsv(path)}
    else:
        files = _manifest_files(path)
        raw = {name: _parse_tsv(files[name]) for name in ("train", "valid", "test") if name in files}
        if not raw:
            raise KGError(f"{path}: manifest declares no splits")
        declared = {key: {ln.strip() for ln in files[key].read_text(encoding="utf-8").splitlines() if ln.strip()}
                    for key in ("entities", "relations") if key in files}

    all_rows = [row for rows in raw.values() for row in rows]
    if not all_rows:
        raise KGError(f"{path}: no triples")

    used = {"entities": {h for h, _, t in all_rows} | {t for _, _, t in all_rows},
            "relations": {r for _, r, _ in all_rows}}
    for key, names in declared.items():
        unknown = used[key] - names
        if unknown:
            raise KGError(f"{key} not in declared vocabulary: {sorted(unknown)[:5]}")
        used[key] |= names

    vocab = Vocab.from_identifiers(used["entities"], used["relations"])
    entity_index = {e: i for i, e in enumerate(vocab.entities)}
    predicate_index = {p: i for i, p in enumerate(vocab.predicates)}
    return KnowledgeGraph(vocab=vocab, splits={
        name: [(entity_index[h], predicate_index[r], entity_index[t]) for h, r, t in rows]
        for name, rows in raw.items()
    })


def split_triples(triples: np.ndarray, cfg: SplitConfig) -> dict[str, np.ndarray]:
    """Seeded, reproducible three-way split of ``(n, 3)`` rows: a numpy permutation with ``cfg.seed``, then two cuts."""
    order = triples[np.random.default_rng(cfg.seed).permutation(len(triples))]
    n = len(order)
    n_train = int(round(n * cfg.train_fraction))
    n_calib = int(round(n * cfg.calib_fraction))
    return {
        "train": order[:n_train],
        "valid": order[n_train : n_train + n_calib],
        "test": order[n_train + n_calib :],
    }


def make_queries(triples: np.ndarray, both_directions: bool = True) -> QueryAnswerSet:
    """Turn ``(n, 3)`` (head, predicate, tail) rows into (query, answer) pairs in input order: each
    triple's tail query, then its head query.

    A repeated triple would repeat both of its pairs, so only its first occurrence counts.
    """
    h, r, t = triples[np.sort(np.unique(triples, axis=0, return_index=True)[1])].T
    tail = np.stack((np.zeros_like(h), h, r, t))  # rows: direction, anchor, predicate, answer
    head = np.stack((np.ones_like(h), t, r, h))
    pairs = np.stack((tail, head) if both_directions else (tail,), axis=2)  # (4, triples, pairs per triple)
    return QueryAnswerSet(*pairs.reshape(4, -1))


def query_keys(queries: np.ndarray) -> np.ndarray:
    """One int64 per ``(direction, anchor, predicate)`` row, anchors and predicates in [0, 2**31).

    Keys sort like :meth:`Query.key` tuples: head queries (code 1) first, then by anchor, then by predicate.
    """
    return ((1 - queries[:, 0]) << 62) | (queries[:, 1] << 31) | queries[:, 2]


def filter_masks(queries: np.ndarray, triples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR filter masks ``(indptr, indices)``: ``(n, 3)`` query row ``i`` masks ``indices[indptr[i]:indptr[i + 1]]``,
    in ascending order every answer its ``(direction, anchor, predicate)`` has among the known ``(n, 3)`` ``triples``.
    """
    known = make_queries(triples)
    keys = query_keys(known.queries())
    order = np.lexsort((known.answer, keys))  # each query's known answers form one ascending run
    keys, answers = keys[order], known.answer[order]
    wanted = query_keys(queries)
    lo = np.searchsorted(keys, wanted, side="left")
    sizes = np.searchsorted(keys, wanted, side="right") - lo
    indptr = np.concatenate(([0], np.cumsum(sizes)))
    return indptr, answers[np.repeat(lo - indptr[:-1], sizes) + np.arange(indptr[-1])]


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


def rank_cuts(ordered: np.ndarray, cutoffs) -> np.ndarray:
    """Score cuts equivalent to top-``k`` rank filters, one per (row, cutoff).

    ``ordered`` holds one query's scores per row, sorted ascending: finite
    except for masked entities, which are -inf and come first.  ``cutoffs``
    holds each row's rank cutoffs (shape ``(rows, m)``).  The cut for cutoff
    ``k`` is the (k+1)-th largest unmasked score, or -inf when ``k`` is at
    least the number of unmasked entities; cutoff -1 (no rank is that small)
    cuts at +inf, so cutoffs ``k - 1`` and ``k`` read the k-th and the
    (k+1)-th largest score.  For an unmasked entity ``e``, its filtered rank
    ``rank_of(scores, e, mask) <= k`` holds exactly when ``scores[e] > cut``,
    ties included: a pessimistic rank counts the candidates scoring
    ``>= scores[e]``, and at most ``k`` of them do exactly when the (k+1)-th
    largest score lies below ``scores[e]``.  Masked entities never pass the cut.
    """
    n = ordered.shape[1]
    cutoffs = np.asarray(cutoffs, dtype=np.int64)
    # the (k+1)-th largest is ascending position n-1-k; masked entries (-inf) fill the bottom
    cuts = np.take_along_axis(ordered, np.clip(n - 1 - cutoffs, 0, n - 1), axis=1)
    return np.where(cutoffs < 0, np.inf, np.where(cutoffs < n, cuts, -np.inf))

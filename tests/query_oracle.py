"""The per-pair query code as it was before queries became int64 columns.

``kg.make_queries``, ``kg.filter_masks`` and ``models.export_scores`` must
agree with the functions here: ``make_queries``, ``build_answer_index`` and
``export_scores`` are verbatim copies of the versions that built one
``Query`` object per pair, one ``set`` of known answers per query and one
``struct.pack`` call per score record (``export_scores`` without its CSV arm,
since the pipeline writes only the binary format).  Used by
``test_properties.py``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from kgconformal.kg import Direction, Query

SCORE_MAGIC = b"KGSC"
_DIR_CODE = {Direction.TAIL: 0, Direction.HEAD: 1}


@dataclass
class QueryAnswerSet:
    pairs: list[tuple[Query, int]]
    name: str = ""

    def __len__(self) -> int:
        return len(self.pairs)

    def predicates(self) -> np.ndarray:
        return np.array([q.predicate for q, _ in self.pairs], dtype=np.int64)


@dataclass
class ScoreMatrix:
    """Dense per-query score vectors keyed by (direction, anchor, predicate)."""

    n_entities: int
    vectors: dict[tuple[str, int, int], np.ndarray]
    source: str = "score matrix"  # the file it was imported from, for error messages


def make_queries(triples: list[tuple[int, int, int]], both_directions: bool = True, name: str = "") -> QueryAnswerSet:
    """Turn triples into (query, answer) pairs, preserving input order."""
    pairs: list[tuple[Query, int]] = []
    seen: set[tuple[tuple[str, int, int], int]] = set()
    for h, r, t in triples:
        candidates = [(Query(Direction.TAIL, h, r), t)]
        if both_directions:
            candidates.append((Query(Direction.HEAD, t, r), h))
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


def export_scores(matrix: ScoreMatrix, path: str | Path) -> None:
    keys = sorted(matrix.vectors)
    with open(path, "wb") as fh:
        fh.write(SCORE_MAGIC)
        fh.write(struct.pack("<II", matrix.n_entities, len(keys)))
        for d, a, p in keys:
            code = _DIR_CODE[Direction(d)]
            fh.write(struct.pack("<BII", code, a, p))
            fh.write(np.asarray(matrix.vectors[(d, a, p)], dtype="<f8").tobytes())

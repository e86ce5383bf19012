"""Score-row helpers for tests: an in-memory copy of any row source, and a CSV writer for the CSV import."""

import csv

import numpy as np

from kgconformal.kg import DIRECTIONS
from kgconformal.models import RowSource, ScoreMatrix


def in_memory(source: RowSource) -> ScoreMatrix:
    """Every row of ``source``, filled through ``fill(np.arange(n), buf)``, as a :class:`ScoreMatrix`."""
    scores = np.empty((source.queries.shape[0], source.n_entities))
    source.fill(np.arange(scores.shape[0]), scores)
    return ScoreMatrix(queries=source.queries.copy(), scores=scores)


def write_csv(matrix: ScoreMatrix, path) -> None:
    """The CSV table that ``models.import_scores`` reads: a ``direction,anchor,predicate,s0,...`` header, then one
    row per query in ``matrix`` order, each score written with ``repr`` so it reads back exactly."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["direction", "anchor", "predicate"] + [f"s{i}" for i in range(matrix.n_entities)])
        for (d, a, p), row in zip(matrix.queries.tolist(), matrix.scores):
            writer.writerow([DIRECTIONS[d].value, a, p] + [repr(float(v)) for v in row])


def sorted_form(raw: np.ndarray, masks, rows: np.ndarray, nonconf: np.ndarray):
    """Query rows ``raw`` with one mask of entity indices each, and each pair's own nonconformity row ``nonconf``
    (pair ``j`` reads row ``rows[j]``), in the form ``conformal.set_outcomes`` sizes sets from: ``(masked,
    ordered, nonconf_at)``.  ``masked`` holds the rows with their masks at -inf and ``ordered`` them sorted
    ascending.  Position ``k`` of a sorted row holds its masked entities first, then its unmasked ones by ascending
    score, ties by descending index: the stable descending-score order, read from the bottom.  ``nonconf_at(at)``
    reads pair ``j``'s own row at the entity in position ``at[..., j]`` of its sorted row."""
    masked = raw.copy()
    for r, mask in enumerate(masks):
        masked[r, sorted(mask)] = -np.inf
    width = raw.shape[1]
    entity = np.array([np.lexsort((-np.arange(width), row)) for row in masked]).reshape(raw.shape)
    pairs = np.arange(rows.size)
    return masked, np.take_along_axis(masked, entity, axis=1), lambda at: nonconf[pairs, entity[rows, at]]

"""An in-memory copy of any score-row source, for tests that read or edit whole score rows."""

import numpy as np

from kgconformal.models import RowSource, ScoreMatrix


def in_memory(source: RowSource) -> ScoreMatrix:
    """Every row of ``source``, filled through ``fill(np.arange(n), buf)``, as a :class:`ScoreMatrix`."""
    scores = np.empty((source.queries.shape[0], source.n_entities))
    source.fill(np.arange(scores.shape[0]), scores)
    return ScoreMatrix(queries=source.queries.copy(), scores=scores)

"""The per-query rank function the pipeline no longer runs, kept as an oracle.

``candidate_ranks`` is a verbatim copy of the function that ``kg.rank_cuts``
replaced: the pessimistic rank of every entity of one score vector at once.
Used by ``test_kg.py``, ``test_properties.py`` and ``test_conformal.py``.
"""

from __future__ import annotations

import numpy as np


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

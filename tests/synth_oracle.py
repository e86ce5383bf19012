"""The synthetic triple generator as it was when each draw went through ``rng.choice``.

``synth.generate_triples`` must agree with ``generate_triples`` here, a
verbatim copy of the version that drew each head and each ruled tail with
``rng.choice(members[c])`` and wrote each row into a preallocated array.
``Generator.choice`` on a 1-D array with no ``p`` draws ``integers(0, size)``,
so the two draw the same numbers; this copy pins that, and the per-attempt
order (head, noise coin, tail), on every numpy the suite runs on.  Used by
``test_properties.py``.
"""

from __future__ import annotations

import numpy as np

from kgconformal.synth import SyntheticKGSpec


def generate_triples(spec: SyntheticKGSpec) -> np.ndarray:
    """Distinct (head, predicate, tail) rows, an ``(n, 3)`` int64 array grouped by predicate in draw order."""
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

    triples = np.empty((sum(spec.triple_counts), 3), dtype=np.int64)
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
                raise ValueError(f"predicate {r}: cannot place triple_counts[{r}] = {spec.triple_counts[r]} distinct "
                                 f"triples among n_entities {spec.n_entities}")
            h = int(rng.choice(members[src]))
            if rng.random() < rates[r]:
                t = int(rng.integers(0, spec.n_entities))
            else:
                t = int(rng.choice(members[dst]))
            key = (h, r, t)
            if key in seen:
                continue
            triples[len(seen)] = key
            seen.add(key)
            produced += 1
    return triples

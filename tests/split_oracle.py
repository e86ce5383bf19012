"""The split routine as it was when a split was a list of triple objects.

``kg.split_triples`` must agree with ``split_triples`` here, a verbatim copy
of the version that shuffled a Python list in place (only its annotations
now name tuples).  Bare-TSV datasets are split by it with no parity config
behind them, so a change in its order would otherwise go unseen.  Used by
``test_properties.py``.
"""

from __future__ import annotations

import numpy as np

from kgconformal.kg import SplitConfig


def split_triples(triples: list[tuple[int, int, int]], cfg: SplitConfig) -> dict[str, list[tuple[int, int, int]]]:
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

"""Desk-scale KGE models (TransE, DistMult, ComplEx), their block scorer, score-row sources
and score-matrix import/export.

ComplEx embeddings are stored as ``[real | imag]`` blocks of width ``dim``
each, so a row has length ``2 * dim``.
"""

from __future__ import annotations

import csv
import logging
import struct
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .kg import DIRECTIONS, Direction, KnowledgeGraph, KGError, Query, query_keys

__all__ = [
    "EmbeddingModel",
    "ModelScores",
    "RowSource",
    "ScoreFile",
    "ScoreMatrix",
    "TrainConfig",
    "TrainingDiverged",
    "export_scores",
    "import_scores",
    "load_model",
    "predicate_vector",
    "save_model",
    "score",
    "train",
]

MODEL_KINDS = ("transe", "distmult", "complex")

SCORE_MAGIC = b"KGSC"
VEC_MAGIC = b"KGPV"
EXPORT_BLOCK_ROWS = 64  # score rows per block that export_scores writes and a ScoreFile scans
SCORE_BLOCK_QUERIES = 16  # queries the TransE block scorer scores at once

logger = logging.getLogger(__name__)


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class TrainConfig:
    epochs: int = 200
    lr: float = 0.05
    negatives: int = 5
    margin: float = 1.0
    l2: float = 1e-6
    batch_size: int = 256
    seed: int = 0

    def __post_init__(self):
        for name, ok, rule in (("epochs", self.epochs >= 0, ">= 0"), ("lr", self.lr > 0, "> 0"),
                               ("negatives", self.negatives >= 1, ">= 1"), ("margin", self.margin > 0, "> 0"),
                               ("l2", self.l2 >= 0, ">= 0"), ("batch_size", self.batch_size >= 1, ">= 1")):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)}")


@dataclass
class EmbeddingModel:
    kind: str
    dim: int
    entity_embeddings: np.ndarray
    predicate_embeddings: np.ndarray
    norm: int = 1  # TransE only, p in {1, 2}

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind: {self.kind}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        width = 2 * self.dim if self.kind == "complex" else self.dim
        if self.entity_embeddings.shape[1] != width or self.predicate_embeddings.shape[1] != width:
            raise ValueError("embedding width inconsistent with model kind")
        if self.norm not in (1, 2):
            raise ValueError(f"norm must be 1 or 2, got {self.norm}")
        if not (np.all(np.isfinite(self.entity_embeddings)) and np.all(np.isfinite(self.predicate_embeddings))):
            raise ValueError("non-finite embedding entries")

    @property
    def n_entities(self) -> int:
        return self.entity_embeddings.shape[0]


def _complex_parts(mat: np.ndarray, dim: int):
    return mat[..., :dim], mat[..., dim:]


class _BlockScorer:
    """Writes the score rows of blocks of up to ``max_queries`` queries of one model.

    TransE reads an entity-major ``(dim, |E|)`` copy of the entity embeddings
    made here, so a scorer must not outlive a change to the model (training
    updates embeddings in place).  A head query ``(?, r, t)`` is the tail
    query ``(t, -r, ?)``, so every query of a block has one shift, ``anchor +
    r`` or ``anchor - r``.  For each dim in order the block's terms
    ``|shift_d - ent_d|`` (squared for L2) against every candidate are formed
    at once and added to the rows, so a row is
    ``-sum_d |shift_d - ent[:, d]|`` summed in dim order; L2 takes ``sqrt``
    of its sum of squares.  DistMult and ComplEx score one query at a time
    with a gemv.
    """

    def __init__(self, model: EmbeddingModel, max_queries: int):
        self.model = model
        if model.kind == "transe":
            self.ent_t = np.ascontiguousarray(model.entity_embeddings.T)
            self.spare = np.empty((max_queries, model.n_entities))

    def __call__(self, queries: np.ndarray, out: np.ndarray) -> None:
        """Row ``i`` of ``out`` scores ``queries[i]``, a (direction, anchor, predicate) row.

        Raises FloatingPointError on a non-finite score.
        """
        model = self.model
        if model.kind == "transe":
            self._transe(queries, out)
        else:
            for i, (d, a, p) in enumerate(queries.tolist()):
                out[i] = _bilinear_row(model, DIRECTIONS[d], a, p)
        if not np.all(np.isfinite(out)):
            raise FloatingPointError("non-finite score")

    def _transe(self, queries: np.ndarray, out: np.ndarray) -> None:
        model = self.model
        r = model.predicate_embeddings[queries[:, 2]]
        r[queries[:, 0] == DIRECTIONS.index(Direction.HEAD)] *= -1.0
        shift = (model.entity_embeddings[queries[:, 1]] + r).T[:, :, None]  # (dim, m, 1)
        spare = self.spare[: queries.shape[0]]
        for d in range(model.dim):
            term = out if d == 0 else spare
            np.subtract(shift[d], self.ent_t[d], out=term)
            if model.norm == 2:
                np.multiply(term, term, out=term)
            else:
                np.abs(term, out=term)
            if d:
                out += term
        if model.norm == 2:
            np.sqrt(out, out=out)
        np.negative(out, out=out)


def _bilinear_row(model: EmbeddingModel, direction: Direction, a: int, p: int) -> np.ndarray:
    """DistMult or ComplEx scores of every candidate; a gemv on the strided ``[real | imag]`` views."""
    ent = model.entity_embeddings
    anchor, r = ent[a], model.predicate_embeddings[p]
    if model.kind == "distmult":
        return ent @ (anchor * r)
    d = model.dim
    ar, ai = anchor[:d], anchor[d:]
    rr, ri = r[:d], r[d:]
    if direction is Direction.HEAD:
        ri = -ri  # a head query scores as the tail query with conj(r)
    er, ei = _complex_parts(ent, d)
    # Re(<h, r, conj(t)>) with h = anchor, t = candidates
    return er @ (ar * rr - ai * ri) + ei @ (ar * ri + ai * rr)


def score(model: EmbeddingModel, query: Query) -> np.ndarray:
    """Plausibility score of every candidate entity in the missing slot.

    The one-query form of the block scorer that :class:`ModelScores` runs for
    the staged ``score`` stage and for in-memory runs, so a row is the same
    whichever computes it.
    Raises FloatingPointError on a non-finite score.
    """
    out = np.empty((1, model.n_entities))
    _BlockScorer(model, 1)(np.array([[DIRECTIONS.index(query.direction), query.anchor, query.predicate]]), out)
    return out[0]


def predicate_vector(model: EmbeddingModel, r: int) -> np.ndarray:
    """Predicate embedding row used as the merging similarity input."""
    return np.array(model.predicate_embeddings[r], copy=True)


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _softplus(x):
    return np.logaddexp(0.0, x)


class _Workspace:
    """Float64 buffers of one ``train`` call, reused by every batch step.

    ``ws(name, m, width)`` is the first ``m`` rows of the buffer ``name``, a
    C-contiguous ``(m, width)`` view (``(m,)`` without a width).  A buffer is
    allocated on first use and again only if a later call needs more rows, so
    the steps of a call write to the same pages instead of freeing and
    faulting in fresh temporaries.
    """

    def __init__(self):
        self._buffers: dict[tuple, np.ndarray] = {}

    def __call__(self, name: str, m: int, width: int | None = None) -> np.ndarray:
        key = (name, width)
        buf = self._buffers.get(key)
        if buf is None or buf.shape[0] < m:
            buf = self._buffers[key] = np.empty((m,) if width is None else (m, width))
        return buf[:m]


def _gather(mat, idx, out):
    """``mat[idx]`` written to ``out``; ``mode="clip"`` because ``"raise"`` buffers ``out``."""
    return np.take(mat, idx, axis=0, out=out, mode="clip")


def transe_loss_grad(E, R, margin: float, p: int, ws: _Workspace | None = None):
    """Margin ranking loss of a batch of (h, r, t) / (hn, r, tn) pairs with analytic gradients.

    ``E`` stacks the gathered entity rows of the pairs as ``[h; t; hn; tn]``
    (``4m`` rows) and ``R`` holds their ``m`` relation rows; nothing is
    modified.  Returns the summed loss and the gradients of those rows, laid
    out as ``E`` and ``R``.  Inactive pairs (loss <= 0) get zero gradients.
    The distances and gradients live in ``ws`` (a fresh workspace when None),
    so the gradients are valid until its next use.
    """
    ws = _Workspace() if ws is None else ws
    m, width = R.shape
    g_ent, tmp = ws("g_ent", 4 * m, width), ws("tmp", m, width)
    d_pos, d_neg = ws("d_pos", m), ws("d_neg", m)
    h, t, hn, tn = (E[i * m : (i + 1) * m] for i in range(4))
    g_h, g_t, g_hn, g_tn = (g_ent[i * m : (i + 1) * m] for i in range(4))
    for v, d, a, b in ((g_h, d_pos, h, t), (g_tn, d_neg, hn, tn)):
        # v = a + r - b, then d = ||v||_p and v becomes dd/dv
        np.add(a, R, out=v)
        np.subtract(v, b, out=v)
        if p == 1:
            np.abs(v, out=tmp)
            tmp.sum(axis=1, out=d)
            np.sign(v, out=v)
        else:
            np.multiply(v, v, out=tmp)
            tmp.sum(axis=1, out=d)
            np.sqrt(d, out=d)
            np.divide(v, np.maximum(d, 1e-12)[:, None], out=v)
    margin_loss = margin + d_pos - d_neg
    active = margin_loss > 0
    np.multiply(g_h, active[:, None], out=g_h)
    np.multiply(g_tn, active[:, None], out=g_tn)
    np.negative(g_h, out=g_t)
    np.negative(g_tn, out=g_hn)
    return float(margin_loss[active].sum()), g_ent, np.subtract(g_h, g_tn, out=ws("g_pred", m, width))


def _bce_loss_weights(s, labels):
    """Summed BCE of scores ``s`` and the derivative of each term in its score, as a column."""
    loss = float((_softplus(s) - labels * s).sum())  # -log sigmoid(s) if label 1, -log(1-sigmoid(s)) if 0
    return loss, (_sigmoid(s) - labels)[:, None]


def bilinear_bce_loss_grad(kind: str, dim: int, E, R, labels, ws: _Workspace | None = None):
    """Binary cross-entropy of a batch of labelled triples for DistMult/ComplEx with gradients.

    ``E`` stacks the gathered head and tail rows of the ``m`` triples as
    ``[H; T]`` and ``R`` holds their relation rows.  Returns the summed loss
    and the gradients of those rows, laid out as ``E`` and ``R``.  The
    products and gradients live in ``ws`` (a fresh workspace when None), so
    the gradients are valid until its next use.  ComplEx copies the real and
    imaginary halves into contiguous blocks first: the products are
    elementwise, so the layout changes no bit of them, and a contiguous
    block is several times faster to read than a strided half.
    """
    ws = _Workspace() if ws is None else ws
    m, width = R.shape
    H, T = E[:m], E[m:]
    g_ent, g_r, s = ws("g_ent", 2 * m, width), ws("g_pred", m, width), ws("s", m)
    g_h, g_t = g_ent[:m], g_ent[m:]
    if kind == "distmult":
        np.multiply(H, R, out=g_t)
        np.multiply(g_t, T, out=g_h)
        g_h.sum(axis=1, out=s)  # s = sum(H * R * T)
        loss, dl = _bce_loss_weights(s, labels)
        np.multiply(R, T, out=g_h)
        np.multiply(H, T, out=g_r)
        for g in (g_h, g_r, g_t):
            g *= dl
        return loss, g_ent, g_r
    hr, hi, rr, ri, tr, ti = (ws(name, m, dim) for name in ("hr", "hi", "rr", "ri", "tr", "ti"))
    for mat, real, imag in ((H, hr, hi), (R, rr, ri), (T, tr, ti)):
        np.copyto(real, mat[:, :dim])
        np.copyto(imag, mat[:, dim:])
    acc, tmp = ws("acc", m, dim), ws("prod", m, dim)
    # s = sum(hr * rr * tr - hi * ri * tr + hr * ri * ti + hi * rr * ti)
    np.multiply(hr, rr, out=acc)
    np.multiply(acc, tr, out=acc)
    for x, y, z, op in ((hi, ri, tr, np.subtract), (hr, ri, ti, np.add), (hi, rr, ti, np.add)):
        np.multiply(x, y, out=tmp)
        np.multiply(tmp, z, out=tmp)
        op(acc, tmp, out=acc)
    acc.sum(axis=1, out=s)
    loss, dl = _bce_loss_weights(s, labels)
    # each gradient half is (+/-x1 * y1 op x2 * y2) * dl, written to its strided half of the row
    for out, negate, x1, y1, op, x2, y2 in (
        (g_h[:, :dim], False, rr, tr, np.add, ri, ti), (g_h[:, dim:], True, ri, tr, np.add, rr, ti),
        (g_r[:, :dim], False, hr, tr, np.add, hi, ti), (g_r[:, dim:], True, hi, tr, np.add, hr, ti),
        (g_t[:, :dim], False, hr, rr, np.subtract, hi, ri), (g_t[:, dim:], False, hr, ri, np.add, hi, rr),
    ):
        if negate:
            np.negative(x1, out=acc)
            np.multiply(acc, y1, out=acc)
        else:
            np.multiply(x1, y1, out=acc)
        np.multiply(x2, y2, out=tmp)
        op(acc, tmp, out=acc)
        np.multiply(acc, dl, out=out)
    return loss, g_ent, g_r


def _init_model(kind: str, dim: int, n_ent: int, n_pred: int, rng: np.random.Generator, norm: int) -> EmbeddingModel:
    width = 2 * dim if kind == "complex" else dim
    ent = rng.uniform(-0.1, 0.1, size=(n_ent, width))
    pred = rng.uniform(-0.1, 0.1, size=(n_pred, width))
    if kind == "transe":
        ent /= np.linalg.norm(ent, axis=1, keepdims=True)
    return EmbeddingModel(kind=kind, dim=dim, entity_embeddings=ent, predicate_embeddings=pred, norm=norm)


def _triple_keys(heads, rels, tails, n_ent: int, n_pred: int):
    """Key ``(h * n_pred + r) * n_ent + t`` of each triple: one int64 per (h, r, t) in range."""
    if n_ent * n_ent * n_pred > 2**63:  # the largest key is n_ent^2 * n_pred - 1
        raise KGError(f"{n_ent} entities and {n_pred} predicates overflow the int64 triple key")
    return (heads * n_pred + rels) * n_ent + tails


def _is_known(known, keys):
    """Whether each key is in ``known``, a non-empty sorted key array."""
    pos = np.searchsorted(known, keys)
    return known[np.minimum(pos, known.size - 1)] == keys


def _sample_negatives(rng, heads, rels, tails, n_ent: int, n_pred: int, known, k: int):
    """Uniformly corrupt head or tail, resampling on collision with a known positive.

    ``known`` holds the sorted :func:`_triple_keys` of the positives.  All
    ``n * k`` candidates are checked at once; only the colliding ones are
    redrawn, one draw at a time in index order and at most 101 times each,
    so the draws match a per-candidate loop.
    """
    n = heads.shape[0]
    neg_h = np.repeat(heads, k)
    neg_t = np.repeat(tails, k)
    rels_rep = np.repeat(rels, k)
    corrupt_head = rng.random(n * k) < 0.5
    cand = rng.integers(0, n_ent, size=n * k)
    neg_h = np.where(corrupt_head, cand, neg_h)
    neg_t = np.where(corrupt_head, neg_t, cand)
    collisions = np.flatnonzero(_is_known(known, _triple_keys(neg_h, rels_rep, neg_t, n_ent, n_pred)))
    for i in collisions.tolist():
        tries = 0
        while _is_known(known, _triple_keys(neg_h[i], rels_rep[i], neg_t[i], n_ent, n_pred)):
            e = int(rng.integers(0, n_ent))
            if corrupt_head[i]:
                neg_h[i] = e
            else:
                neg_t[i] = e
            tries += 1
            if tries > 100:
                break
    return neg_h, rels_rep, neg_t


def train(kg: KnowledgeGraph, kind: str, cfg: TrainConfig, dim: int = 16, norm: int = 1) -> EmbeddingModel:
    """SGD training on the ``train`` split; margin ranking loss for TransE, BCE for DistMult/ComplEx.

    Each epoch's mean loss per training triple and its wall time in seconds
    are logged at DEBUG on ``kgconformal.models``.
    """
    triples = kg.triples("train")
    if not len(triples):
        raise KGError("empty training split 'train'")
    rng = np.random.default_rng(cfg.seed)
    n_ent, n_pred = kg.vocab.n_entities, kg.vocab.n_predicates
    model = _init_model(kind, dim, n_ent, n_pred, rng, norm)

    heads, rels, tails = triples.T
    known = np.unique(_triple_keys(heads, rels, tails, n_ent, n_pred))
    n = heads.shape[0]
    k = cfg.negatives
    ws = _Workspace()

    for epoch in range(cfg.epochs):
        began = time.perf_counter()
        if kind == "transe":
            norms = np.linalg.norm(model.entity_embeddings, axis=1, keepdims=True)
            model.entity_embeddings /= np.maximum(norms, 1e-12)
        perm = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            bh, br, bt = heads[idx], rels[idx], tails[idx]
            nh, nr, nt = _sample_negatives(rng, bh, br, bt, n_ent, n_pred, known, k)
            if kind == "transe":  # one (positive, negative) pair per negative, with the relation nr
                ent_idx = np.concatenate([np.repeat(bh, k), np.repeat(bt, k), nh, nt])
                loss = _batch_step(model, cfg, ent_idx, nr,
                                   lambda E, R: transe_loss_grad(E, R, cfg.margin, norm, ws), ws)
            else:
                labels = np.concatenate([np.ones(bh.shape[0]), np.zeros(nh.shape[0])])
                loss = _batch_step(model, cfg, np.concatenate([bh, nh, bt, nt]), np.concatenate([br, nr]),
                                   lambda E, R: bilinear_bce_loss_grad(kind, dim, E, R, labels, ws), ws)
            if not np.isfinite(loss):
                raise TrainingDiverged(f"non-finite loss at epoch {epoch}")
            epoch_loss += loss
        logger.debug("epoch %d: mean loss %.6g per training triple, %.3f s", epoch, epoch_loss / n,
                     time.perf_counter() - began)
    return model


def _scatter_update(mat, idx, grad, rows, cfg):
    """``mat[idx] -= lr * (grad + l2 * rows)``, accumulating repeated indices; overwrites ``grad`` and ``rows``.

    One 1-D ``subtract.at`` over a flat view of ``mat`` (numpy's fast indexed
    loop) in row-major order: every element takes its subtractions in batch
    order, as the 2-D call does, so the result is bit-identical.
    """
    if not mat.flags.c_contiguous:  # reshape would return a copy and drop the update
        raise ValueError("scatter target must be C-contiguous")
    np.multiply(rows, cfg.l2, out=rows)
    np.add(grad, rows, out=grad)
    np.multiply(grad, cfg.lr, out=grad)
    width = mat.shape[1]
    np.subtract.at(mat.reshape(-1), (idx[:, None] * width + np.arange(width)).ravel(), grad.ravel())


def _batch_step(model, cfg, ent_idx, pred_idx, loss_grad, ws):
    """One SGD step: gather every row, take ``loss_grad(E, R)``, scatter once per matrix; returns the loss.

    ``loss_grad`` returns the loss and the gradients of the gathered rows
    ``E = ent[ent_idx]`` and ``R = pred[pred_idx]``.  The L2 terms read those
    rows as they were before the step.
    """
    ent, pred = model.entity_embeddings, model.predicate_embeddings
    E = _gather(ent, ent_idx, ws("E", ent_idx.shape[0], ent.shape[1]))
    R = _gather(pred, pred_idx, ws("R", pred_idx.shape[0], pred.shape[1]))
    loss, g_ent, g_pred = loss_grad(E, R)
    _scatter_update(ent, ent_idx, g_ent, E, cfg)
    _scatter_update(pred, pred_idx, g_pred, R, cfg)
    return loss


def save_model(model: EmbeddingModel, path: str | Path) -> None:
    np.savez(
        path,
        kind=model.kind,
        dim=model.dim,
        norm=model.norm,
        entity_embeddings=model.entity_embeddings,
        predicate_embeddings=model.predicate_embeddings,
    )


def load_model(path: str | Path) -> EmbeddingModel:
    data = np.load(path, allow_pickle=False)
    return EmbeddingModel(
        kind=str(data["kind"]),
        dim=int(data["dim"]),
        norm=int(data["norm"]),
        entity_embeddings=data["entity_embeddings"],
        predicate_embeddings=data["predicate_embeddings"],
    )


def _query_key(query) -> str:
    d, a, p = (int(v) for v in query)
    return str(Query(DIRECTIONS[d], a, p).key())


class RowSource:
    """Score rows keyed by query: ``queries`` holds one (direction, anchor, predicate) row per score row.

    The rows are sorted by :func:`kg.query_keys` with no key twice.  A source
    has ``n_entities``, ``source`` (what its error messages name),
    :meth:`rows` and :meth:`fill`.
    """

    queries: np.ndarray
    source: str

    def rows(self, *sets) -> list[np.ndarray]:
        """Row of each pair's query, one array per query-answer set; KGError names missing ones."""
        queries = np.concatenate([qa.queries() for qa in sets])
        own, wanted = query_keys(self.queries), query_keys(queries)
        pos = np.searchsorted(own, wanted)
        missing = np.append(own, -1)[pos] != wanted  # keys are nonnegative
        if missing.any():
            _, first = np.unique(wanted[missing], return_index=True)
            preview = ", ".join(_query_key(q) for q in queries[missing][np.sort(first)][:5])
            raise KGError(f"{self.source}: missing scores for {first.size} queries: {preview}")
        return np.split(pos, np.cumsum([len(qa) for qa in sets])[:-1])

    def fill(self, rows: np.ndarray, out: np.ndarray) -> None:
        """Write score row ``rows[i]`` to ``out[i]``."""
        raise NotImplementedError


def _key_order(queries: np.ndarray, source: str) -> np.ndarray | None:
    """The stable order that sorts ``queries`` by :func:`kg.query_keys`, or None if they are sorted already.

    Raises KGError naming ``source`` on an anchor or predicate outside ``[0, 2**31)`` or a query given twice.
    """
    if np.any(queries[:, 1:] >> 31):  # negative, or 2**31 and above
        raise KGError(f"{source}: anchors and predicates must lie in [0, 2**31)")
    keys = query_keys(queries)
    if not np.any(keys[1:] <= keys[:-1]):
        return None
    order = np.argsort(keys, kind="stable")
    repeated = np.flatnonzero(np.diff(keys[order]) == 0)
    if repeated.size:
        raise KGError(f"{source}: scores for query {_query_key(queries[order[repeated[0]]])} repeated")
    return order


@dataclass
class ScoreMatrix(RowSource):
    """Row ``i`` of ``scores`` holds the ``|E|`` scores of query ``queries[i]`` (direction, anchor, predicate).

    Construction sorts the rows by :func:`kg.query_keys`, copying only rows out of order; a query given
    twice raises KGError naming ``source``.
    """

    queries: np.ndarray
    scores: np.ndarray
    source: str = "score matrix"  # the file it was imported from, for error messages

    def __post_init__(self):
        order = _key_order(self.queries, self.source)
        if order is not None:
            self.queries, self.scores = self.queries[order], self.scores[order]

    @property
    def n_entities(self) -> int:
        return self.scores.shape[1]

    def fill(self, rows: np.ndarray, out: np.ndarray) -> None:
        """Copy row ``rows[i]`` of ``scores`` to ``out[i]``."""
        for i, row in enumerate(rows.tolist()):
            out[i] = self.scores[row]


class ModelScores(RowSource):
    """The distinct queries of the given query-answer sets, scored by ``model`` when a row is asked for.

    Holds no score row between calls; the block scorer (and its entity-major
    copy of the embeddings) is made here, so train the model first.
    """

    source = "model"

    def __init__(self, model: EmbeddingModel, *sets):
        queries = np.concatenate([qa.queries() for qa in sets])
        self.queries = queries[np.unique(query_keys(queries), return_index=True)[1]]
        self.n_entities = model.n_entities
        self._scorer = _BlockScorer(model, SCORE_BLOCK_QUERIES)

    def fill(self, rows: np.ndarray, out: np.ndarray) -> None:
        """Score row ``rows[i]`` into ``out[i]``, ``SCORE_BLOCK_QUERIES`` rows at a time."""
        for lo in range(0, rows.size, SCORE_BLOCK_QUERIES):
            block = rows[lo : lo + SCORE_BLOCK_QUERIES]
            self._scorer(self.queries[block], out[lo : lo + block.size])


SCORE_HEADER_BYTES = 12  # magic, |E| and the record count
SCORE_FIELDS = ("direction", "anchor", "predicate")


def _score_record(n_ent: int) -> np.dtype:
    """One packed record of the binary score file: direction code, anchor, predicate, ``|E|`` scores."""
    return np.dtype([("direction", "u1"), ("anchor", "<u4"), ("predicate", "<u4"), ("scores", "<f8", (n_ent,))])


class ScoreFile(RowSource):
    """The rows of a binary score file, read from the file when a block asks for them.

    Construction scans the file one block of ``EXPORT_BLOCK_ROWS`` records at a
    time and keeps only the ``(n, 3)`` query columns, in key order, and the
    record index of each sorted row, so a file out of key order costs a
    permutation and no row copy.  It raises KGError naming the file, in this
    order, on a bad magic, a short header, a length that does not match the
    header, a direction code other than 0 or 1, a non-finite score (the first
    in file order), an anchor or predicate outside ``[0, 2**31)``, and a
    repeated query.  Rows are read with ``seek`` and ``readinto``, not through a
    memory map: mapped file pages count toward the resident set.
    """

    def __init__(self, path: str | Path):
        self.source = str(path)
        size = Path(path).stat().st_size
        with open(path, "rb") as fh:
            header = fh.read(SCORE_HEADER_BYTES)
            if header[:4] != SCORE_MAGIC:
                raise KGError(f"{path}: bad magic, not a score-matrix file")
            if len(header) < SCORE_HEADER_BYTES:
                raise KGError(f"{path}: truncated header")
            n_ent, n_queries = struct.unpack_from("<II", header, 4)
            record = _score_record(n_ent)
            expected = SCORE_HEADER_BYTES + n_queries * record.itemsize
            if size < expected:
                raise KGError(f"{path}: truncated record (length mismatch vs |E|={n_ent})")
            if size > expected:
                raise KGError(f"{path}: trailing bytes (length mismatch vs |E|={n_ent})")
            queries = np.empty((n_queries, 3), dtype=np.int64)
            non_finite = None  # file index of the first record with a non-finite score
            buffer = np.empty(min(EXPORT_BLOCK_ROWS, n_queries), dtype=record)
            for start in range(0, n_queries, EXPORT_BLOCK_ROWS):
                block = buffer[: min(EXPORT_BLOCK_ROWS, n_queries - start)]
                if fh.readinto(block) != block.nbytes:
                    raise KGError(f"{path}: truncated record (length mismatch vs |E|={n_ent})")
                for col, name in enumerate(SCORE_FIELDS):
                    queries[start : start + block.size, col] = block[name]
                if non_finite is None:
                    bad = np.flatnonzero(~np.isfinite(block["scores"]).all(axis=1))
                    non_finite = start + int(bad[0]) if bad.size else None
        codes = queries[:, 0]
        if np.any(codes > 1):
            raise KGError(f"{path}: direction code {int(codes[codes > 1][0])} is neither 0 (tail) nor 1 (head)")
        if non_finite is not None:
            raise KGError(f"{path}: non-finite score for query {_query_key(queries[non_finite])}")
        order = _key_order(queries, self.source)
        self.queries = queries if order is None else queries[order]
        self._records = np.arange(n_queries) if order is None else order
        self._first_score = SCORE_HEADER_BYTES + record.fields["scores"][1]  # file offset of record 0's scores
        self._record_bytes = record.itemsize
        self.n_entities = n_ent

    def fill(self, rows: np.ndarray, out: np.ndarray) -> None:
        """Read score row ``rows[i]`` into ``out[i]``, one positioned read per row.

        KGError names the file when a read comes up short (the file shrank after import).
        """
        offsets = self._first_score + self._records[rows] * self._record_bytes
        row_bytes = 8 * self.n_entities
        with open(self.source, "rb", buffering=0) as fh:
            for i, (row, offset) in enumerate(zip(rows.tolist(), offsets.tolist())):
                fh.seek(offset)
                if fh.readinto(out[i]) != row_bytes:
                    raise KGError(f"{self.source}: score row of query {_query_key(self.queries[row])} cut short; "
                                  "the file changed after it was imported (rerun the 'score' stage)")
        if sys.byteorder == "big":  # the file's scores are little-endian
            out[: rows.size].byteswap(inplace=True)


def export_scores(source: RowSource, path: str | Path) -> None:
    """Write every row of ``source`` in key order as packed binary records, ``EXPORT_BLOCK_ROWS`` rows at a time.

    Only one block of rows is held, so a :class:`ModelScores` source is exported without ever holding its
    whole matrix.
    """
    n, n_ent = source.queries.shape[0], source.n_entities
    rows = np.empty((min(EXPORT_BLOCK_ROWS, n), n_ent))
    records = np.empty(rows.shape[0], dtype=_score_record(n_ent))
    with open(path, "wb") as fh:
        fh.write(SCORE_MAGIC)
        fh.write(struct.pack("<II", n_ent, n))
        for start in range(0, n, EXPORT_BLOCK_ROWS):
            stop = min(start + EXPORT_BLOCK_ROWS, n)
            block, part = rows[: stop - start], records[: stop - start]
            source.fill(np.arange(start, stop), block)
            for col, name in enumerate(SCORE_FIELDS):
                part[name] = source.queries[start:stop, col]
            part["scores"] = block
            fh.write(part)


def import_scores(path: str | Path) -> RowSource:
    """A :class:`ScoreFile` for a binary score file; a CSV table (``.csv``) is read into a :class:`ScoreMatrix`."""
    path = Path(path)
    if not path.exists():
        raise KGError(f"no such file: {path}")
    if path.suffix == ".csv":
        return _import_scores_csv(path)
    return ScoreFile(path)


def _import_scores_csv(path: Path) -> ScoreMatrix:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[:3] != ["direction", "anchor", "predicate"]:
            raise KGError(f"{path}: bad CSV header")
        n_ent = len(header) - 3
        queries, rows = [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 3 + n_ent:
                raise KGError(f"{path}:{lineno}: length mismatch vs |E|={n_ent}")
            try:
                rows.append(np.array([float(v) for v in row[3:]]))
                queries.append((DIRECTIONS.index(Direction(row[0])), int(row[1]), int(row[2])))
            except ValueError as exc:
                raise KGError(f"{path}:{lineno}: malformed row ({exc})") from None
            if not np.all(np.isfinite(rows[-1])):
                raise KGError(f"{path}:{lineno}: non-finite score for query {_query_key(queries[-1])}")
    return ScoreMatrix(queries=np.array(queries, dtype=np.int64).reshape(-1, 3),
                       scores=np.array(rows).reshape(len(rows), n_ent), source=str(path))


def export_predicate_vectors(vectors: np.ndarray, path: str | Path) -> None:
    """Sidecar file with one similarity vector per predicate (for imported scores)."""
    vectors = np.asarray(vectors, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(VEC_MAGIC)
        fh.write(struct.pack("<II", vectors.shape[0], vectors.shape[1]))
        for r in range(vectors.shape[0]):
            fh.write(struct.pack("<I", r))
            fh.write(vectors[r].tobytes())


def import_predicate_vectors(path: str | Path) -> np.ndarray:
    """Read a sidecar written by :func:`export_predicate_vectors`.

    Every predicate index in ``[0, n_pred)`` must appear exactly once.
    """
    path = Path(path)
    data = path.read_bytes()
    if data[:4] != VEC_MAGIC:
        raise KGError(f"{path}: bad magic, not a predicate-vector file")
    if len(data) < 12:
        raise KGError(f"{path}: truncated header")
    n_pred, dim = struct.unpack_from("<II", data, 4)
    expected = 12 + n_pred * (4 + 8 * dim)
    if len(data) < expected:
        raise KGError(f"{path}: truncated, {len(data)} bytes for {n_pred} predicates of dim {dim} ({expected} expected)")
    if len(data) > expected:
        raise KGError(f"{path}: trailing bytes")
    record = np.dtype([("r", "<u4"), ("vec", "<f8", (dim,))])
    records = np.frombuffer(data, dtype=record, count=n_pred, offset=12)
    index = records["r"].astype(np.int64)
    out_of_range = index[index >= n_pred]
    if out_of_range.size:
        raise KGError(f"{path}: predicate index {int(out_of_range[0])} out of range for {n_pred} predicates")
    counts = np.bincount(index, minlength=n_pred)
    if np.any(counts != 1):
        repeated = np.flatnonzero(counts > 1).tolist()
        missing = np.flatnonzero(counts == 0).tolist()
        raise KGError(f"{path}: predicate indices repeated {repeated[:5]}, missing {missing[:5]}")
    out = np.empty((n_pred, dim))
    out[index] = records["vec"]
    return out

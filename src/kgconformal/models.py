"""Desk-scale KGE models (TransE, DistMult, ComplEx) and score-matrix import/export.

ComplEx embeddings are stored as ``[real | imag]`` blocks of width ``dim``
each, so a row has length ``2 * dim``.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .kg import Direction, KnowledgeGraph, KGError, Query

__all__ = [
    "EmbeddingModel",
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
_DIR_CODE = {Direction.TAIL: 0, Direction.HEAD: 1}
_DIR_FROM_CODE = {0: Direction.TAIL, 1: Direction.HEAD}


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
        if self.epochs < 0 or self.lr <= 0 or self.negatives < 1 or self.margin <= 0:
            raise ValueError("invalid training configuration")
        if self.l2 < 0 or self.batch_size < 1:
            raise ValueError("invalid training configuration")


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
        width = 2 * self.dim if self.kind == "complex" else self.dim
        if self.entity_embeddings.shape[1] != width or self.predicate_embeddings.shape[1] != width:
            raise ValueError("embedding width inconsistent with model kind")
        if not (np.all(np.isfinite(self.entity_embeddings)) and np.all(np.isfinite(self.predicate_embeddings))):
            raise ValueError("non-finite embedding entries")

    @property
    def n_entities(self) -> int:
        return self.entity_embeddings.shape[0]


def _complex_parts(mat: np.ndarray, dim: int):
    return mat[..., :dim], mat[..., dim:]


def score(model: EmbeddingModel, query: Query) -> np.ndarray:
    """Plausibility score of every candidate entity in the missing slot."""
    ent = model.entity_embeddings
    r = model.predicate_embeddings[query.predicate]
    anchor = ent[query.anchor]

    if model.kind == "transe":
        if query.direction is Direction.TAIL:
            diff = (anchor + r)[None, :] - ent
        else:
            diff = ent + r[None, :] - anchor[None, :]
        if model.norm == 1:
            out = -np.abs(diff).sum(axis=1)
        else:
            out = -np.sqrt((diff * diff).sum(axis=1))
    elif model.kind == "distmult":
        out = ent @ (anchor * r)
    else:  # complex
        d = model.dim
        ar, ai = anchor[:d], anchor[d:]
        rr, ri = r[:d], r[d:]
        er, ei = _complex_parts(ent, d)
        if query.direction is Direction.TAIL:
            # Re(<h, r, conj(t)>) with h = anchor, t = candidates
            out = er @ (ar * rr - ai * ri) + ei @ (ar * ri + ai * rr)
        else:
            # candidates fill h, t = anchor
            out = er @ (rr * ar + ri * ai) + ei @ (rr * ai - ri * ar)
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("non-finite score")
    return out


def predicate_vector(model: EmbeddingModel, r: int) -> np.ndarray:
    """Predicate embedding row used as the merging similarity input."""
    return np.array(model.predicate_embeddings[r], copy=True)


def transe_pair_loss_grad(h, r, t, hn, tn, margin: float, p: int):
    """Margin ranking loss of one positive/negative pair with analytic gradients.

    Returns (loss, dict of gradients keyed by 'h', 'r', 't', 'hn', 'tn').
    """
    def dist_and_grad(a, b, c):
        v = a + b - c
        if p == 1:
            g = np.sign(v)
            return np.abs(v).sum(), g
        n = np.sqrt((v * v).sum())
        g = v / n if n > 0 else np.zeros_like(v)
        return n, g

    d_pos, g_pos = dist_and_grad(h, r, t)
    d_neg, g_neg = dist_and_grad(hn, r, tn)
    loss = margin + d_pos - d_neg
    grads = {k: np.zeros_like(h) for k in ("h", "r", "t", "hn", "tn")}
    if loss <= 0:
        return 0.0, grads
    grads["h"] = g_pos
    grads["r"] = g_pos - g_neg
    grads["t"] = -g_pos
    grads["hn"] = -g_neg
    grads["tn"] = g_neg
    return float(loss), grads


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _softplus(x):
    return np.logaddexp(0.0, x)


def bilinear_bce_loss_grad(kind: str, dim: int, h, r, t, label: float):
    """Binary cross-entropy of one triple for DistMult/ComplEx with gradients."""
    if kind == "distmult":
        s = float((h * r * t).sum())
        ds_h, ds_r, ds_t = r * t, h * t, h * r
    else:
        hr, hi = h[:dim], h[dim:]
        rr, ri = r[:dim], r[dim:]
        tr, ti = t[:dim], t[dim:]
        s = float((hr * rr * tr - hi * ri * tr + hr * ri * ti + hi * rr * ti).sum())
        ds_h = np.concatenate([rr * tr + ri * ti, -ri * tr + rr * ti])
        ds_r = np.concatenate([hr * tr + hi * ti, -hi * tr + hr * ti])
        ds_t = np.concatenate([hr * rr - hi * ri, hr * ri + hi * rr])
    loss = float(_softplus(s) - label * s)  # = -log sigmoid(s) if label 1, -log(1-sigmoid(s)) if 0
    dl_ds = float(_sigmoid(s) - label)
    return loss, {"h": dl_ds * ds_h, "r": dl_ds * ds_r, "t": dl_ds * ds_t}


def _init_model(kind: str, dim: int, n_ent: int, n_pred: int, rng: np.random.Generator, norm: int) -> EmbeddingModel:
    width = 2 * dim if kind == "complex" else dim
    ent = rng.uniform(-0.1, 0.1, size=(n_ent, width))
    pred = rng.uniform(-0.1, 0.1, size=(n_pred, width))
    if kind == "transe":
        ent /= np.linalg.norm(ent, axis=1, keepdims=True)
    return EmbeddingModel(kind=kind, dim=dim, entity_embeddings=ent, predicate_embeddings=pred, norm=norm)


def _sample_negatives(rng, heads, rels, tails, n_ent, known: set, k: int):
    """Uniformly corrupt head or tail, resampling on collision with a known positive."""
    n = heads.shape[0]
    neg_h = np.repeat(heads, k)
    neg_t = np.repeat(tails, k)
    rels_rep = np.repeat(rels, k)
    corrupt_head = rng.random(n * k) < 0.5
    cand = rng.integers(0, n_ent, size=n * k)
    neg_h = np.where(corrupt_head, cand, neg_h)
    neg_t = np.where(corrupt_head, neg_t, cand)
    for i in range(n * k):
        tries = 0
        while (int(neg_h[i]), int(rels_rep[i]), int(neg_t[i])) in known:
            e = int(rng.integers(0, n_ent))
            if corrupt_head[i]:
                neg_h[i] = e
            else:
                neg_t[i] = e
            tries += 1
            if tries > 100:
                break
    return neg_h, rels_rep, neg_t


def train(kg: KnowledgeGraph, kind: str, cfg: TrainConfig, dim: int = 16, norm: int = 1,
          train_split: str = "train") -> EmbeddingModel:
    """SGD training; margin ranking loss for TransE, BCE for DistMult/ComplEx."""
    triples = kg.splits.get(train_split) or []
    if not triples:
        raise KGError(f"empty training split '{train_split}'")
    rng = np.random.default_rng(cfg.seed)
    model = _init_model(kind, dim, kg.vocab.n_entities, kg.vocab.n_predicates, rng, norm)

    heads = np.array([t.head for t in triples], dtype=np.int64)
    rels = np.array([t.predicate for t in triples], dtype=np.int64)
    tails = np.array([t.tail for t in triples], dtype=np.int64)
    known = {(t.head, t.predicate, t.tail) for t in triples}
    n = heads.shape[0]
    n_ent = kg.vocab.n_entities
    k = cfg.negatives

    for epoch in range(cfg.epochs):
        if kind == "transe":
            norms = np.linalg.norm(model.entity_embeddings, axis=1, keepdims=True)
            model.entity_embeddings /= np.maximum(norms, 1e-12)
        perm = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            bh, br, bt = heads[idx], rels[idx], tails[idx]
            nh, nr, nt = _sample_negatives(rng, bh, br, bt, n_ent, known, k)
            if kind == "transe":
                loss = _transe_batch_step(model, cfg, bh, br, bt, nh, nt, k)
            else:
                loss = _bce_batch_step(model, cfg, bh, br, bt, nh, nr, nt)
            if not np.isfinite(loss):
                raise TrainingDiverged(f"non-finite loss at epoch {epoch}")
    return model


def _scatter_update(mat, idx, grad, lr):
    np.subtract.at(mat, idx, lr * grad)


def _transe_batch_step(model, cfg, bh, br, bt, nh, nt, k):
    ent, pred = model.entity_embeddings, model.predicate_embeddings
    p = model.norm
    bh_r = np.repeat(bh, k)
    br_r = np.repeat(br, k)
    bt_r = np.repeat(bt, k)

    v_pos = ent[bh_r] + pred[br_r] - ent[bt_r]
    v_neg = ent[nh] + pred[br_r] - ent[nt]
    if p == 1:
        d_pos, g_pos = np.abs(v_pos).sum(axis=1), np.sign(v_pos)
        d_neg, g_neg = np.abs(v_neg).sum(axis=1), np.sign(v_neg)
    else:
        d_pos = np.sqrt((v_pos * v_pos).sum(axis=1))
        d_neg = np.sqrt((v_neg * v_neg).sum(axis=1))
        g_pos = v_pos / np.maximum(d_pos, 1e-12)[:, None]
        g_neg = v_neg / np.maximum(d_neg, 1e-12)[:, None]
    margin_loss = cfg.margin + d_pos - d_neg
    active = margin_loss > 0
    loss = float(margin_loss[active].sum())
    g_pos = g_pos * active[:, None]
    g_neg = g_neg * active[:, None]

    lr = cfg.lr
    _scatter_update(ent, bh_r, g_pos + cfg.l2 * ent[bh_r], lr)
    _scatter_update(ent, bt_r, -g_pos + cfg.l2 * ent[bt_r], lr)
    _scatter_update(ent, nh, -g_neg + cfg.l2 * ent[nh], lr)
    _scatter_update(ent, nt, g_neg + cfg.l2 * ent[nt], lr)
    _scatter_update(pred, br_r, g_pos - g_neg + cfg.l2 * pred[br_r], lr)
    return loss


def _bce_batch_step(model, cfg, bh, br, bt, nh, nr, nt):
    ent, pred = model.entity_embeddings, model.predicate_embeddings
    all_h = np.concatenate([bh, nh])
    all_r = np.concatenate([br, nr])
    all_t = np.concatenate([bt, nt])
    labels = np.concatenate([np.ones(bh.shape[0]), np.zeros(nh.shape[0])])

    H, R, T = ent[all_h], pred[all_r], ent[all_t]
    d = model.dim
    if model.kind == "distmult":
        s = (H * R * T).sum(axis=1)
        ds_h, ds_r, ds_t = R * T, H * T, H * R
    else:
        hr, hi = H[:, :d], H[:, d:]
        rr, ri = R[:, :d], R[:, d:]
        tr, ti = T[:, :d], T[:, d:]
        s = (hr * rr * tr - hi * ri * tr + hr * ri * ti + hi * rr * ti).sum(axis=1)
        ds_h = np.concatenate([rr * tr + ri * ti, -ri * tr + rr * ti], axis=1)
        ds_r = np.concatenate([hr * tr + hi * ti, -hi * tr + hr * ti], axis=1)
        ds_t = np.concatenate([hr * rr - hi * ri, hr * ri + hi * rr], axis=1)
    loss = float((_softplus(s) - labels * s).sum())
    dl = (_sigmoid(s) - labels)[:, None]

    lr = cfg.lr
    _scatter_update(ent, all_h, dl * ds_h + cfg.l2 * H, lr)
    _scatter_update(ent, all_t, dl * ds_t + cfg.l2 * T, lr)
    _scatter_update(pred, all_r, dl * ds_r + cfg.l2 * R, lr)
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


@dataclass
class ScoreMatrix:
    """Dense per-query score vectors keyed by (direction, anchor, predicate)."""

    n_entities: int
    vectors: dict[tuple[str, int, int], np.ndarray]

    def get(self, query: Query) -> np.ndarray:
        key = query.key()
        if key not in self.vectors:
            raise KeyError(f"no scores for query {key}")
        return self.vectors[key]

    def require(self, queries) -> None:
        missing = [q.key() for q in queries if q.key() not in self.vectors]
        if missing:
            preview = ", ".join(map(str, missing[:5]))
            raise KGError(f"{len(missing)} queries missing from score matrix: {preview}")

    @classmethod
    def from_model(cls, model: EmbeddingModel, queries) -> "ScoreMatrix":
        vectors = {}
        for q in queries:
            if q.key() not in vectors:
                vectors[q.key()] = score(model, q)
        return cls(n_entities=model.n_entities, vectors=vectors)


def export_scores(matrix: ScoreMatrix, path: str | Path, fmt: str = "binary") -> None:
    path = Path(path)
    keys = sorted(matrix.vectors)
    if fmt == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["direction", "anchor", "predicate"] + [f"s{i}" for i in range(matrix.n_entities)])
            for key in keys:
                d, a, p = key
                writer.writerow([d, a, p] + [repr(float(v)) for v in matrix.vectors[key]])
        return
    with open(path, "wb") as fh:
        fh.write(SCORE_MAGIC)
        fh.write(struct.pack("<II", matrix.n_entities, len(keys)))
        for d, a, p in keys:
            code = _DIR_CODE[Direction(d)]
            fh.write(struct.pack("<BII", code, a, p))
            fh.write(np.asarray(matrix.vectors[(d, a, p)], dtype="<f8").tobytes())


def import_scores(path: str | Path, required_queries=None) -> ScoreMatrix:
    path = Path(path)
    if not path.exists():
        raise KGError(f"no such file: {path}")
    if path.suffix == ".csv":
        matrix = _import_scores_csv(path)
    else:
        matrix = _import_scores_binary(path)
    if required_queries is not None:
        matrix.require(required_queries)
    return matrix


def _import_scores_binary(path: Path) -> ScoreMatrix:
    data = path.read_bytes()
    if data[:4] != SCORE_MAGIC:
        raise KGError(f"{path}: bad magic, not a score-matrix file")
    n_ent, n_queries = struct.unpack_from("<II", data, 4)
    offset = 12
    rec_header = struct.Struct("<BII")
    vec_bytes = 8 * n_ent
    vectors = {}
    for _ in range(n_queries):
        if offset + rec_header.size + vec_bytes > len(data):
            raise KGError(f"{path}: truncated record (length mismatch vs |E|={n_ent})")
        code, anchor, predicate = rec_header.unpack_from(data, offset)
        offset += rec_header.size
        vec = np.frombuffer(data, dtype="<f8", count=n_ent, offset=offset).copy()
        offset += vec_bytes
        vectors[(_DIR_FROM_CODE[code].value, anchor, predicate)] = vec
    if offset != len(data):
        raise KGError(f"{path}: trailing bytes (length mismatch vs |E|={n_ent})")
    return ScoreMatrix(n_entities=n_ent, vectors=vectors)


def _import_scores_csv(path: Path) -> ScoreMatrix:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[:3] != ["direction", "anchor", "predicate"]:
            raise KGError(f"{path}: bad CSV header")
        n_ent = len(header) - 3
        vectors = {}
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 3 + n_ent:
                raise KGError(f"{path}:{lineno}: length mismatch vs |E|={n_ent}")
            key = (Direction(row[0]).value, int(row[1]), int(row[2]))
            vectors[key] = np.array([float(v) for v in row[3:]])
    return ScoreMatrix(n_entities=n_ent, vectors=vectors)


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

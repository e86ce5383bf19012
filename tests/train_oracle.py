"""The training code as plain expressions, without the workspace and the vectorised collision check.

``models.train`` must give bit-identical embeddings to :func:`train` here:
the loss/gradient functions, the negative sampler with its per-candidate
collision loop, the batch steps and the scatter use fresh temporaries on
every step.  Each batch step encodes one order: it gathers every row of the
step first, then scatters name by name, the entity rows in the order h, t
(then hn, tn for TransE) and the relation rows last, each L2 term reading
its row as it was before the step.  Shared by ``test_models.py`` and
``test_properties.py``.
"""

from __future__ import annotations

import numpy as np

from kgconformal.kg import KGError, KnowledgeGraph
from kgconformal.models import EmbeddingModel, TrainConfig, TrainingDiverged


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _softplus(x):
    return np.logaddexp(0.0, x)


def transe_loss_grad(ent, pred, h, r, t, hn, tn, margin: float, p: int):
    """Margin ranking loss of a batch of (h, r, t) / (hn, r, tn) pairs with analytic gradients.

    Takes the embedding matrices and one index per pair in each of ``h``,
    ``r``, ``t``, ``hn`` and ``tn``; nothing is modified.  Returns the summed
    loss and the gradient of each gathered row, keyed by those names.
    Inactive pairs (loss <= 0) get zero gradients.
    """
    v_pos = ent[h] + pred[r] - ent[t]
    v_neg = ent[hn] + pred[r] - ent[tn]
    if p == 1:
        d_pos, g_pos = np.abs(v_pos).sum(axis=1), np.sign(v_pos)
        d_neg, g_neg = np.abs(v_neg).sum(axis=1), np.sign(v_neg)
    else:
        d_pos = np.sqrt((v_pos * v_pos).sum(axis=1))
        d_neg = np.sqrt((v_neg * v_neg).sum(axis=1))
        g_pos = v_pos / np.maximum(d_pos, 1e-12)[:, None]
        g_neg = v_neg / np.maximum(d_neg, 1e-12)[:, None]
    margin_loss = margin + d_pos - d_neg
    active = margin_loss > 0
    g_pos = g_pos * active[:, None]
    g_neg = g_neg * active[:, None]
    grads = {"h": g_pos, "r": g_pos - g_neg, "t": -g_pos, "hn": -g_neg, "tn": g_neg}
    return float(margin_loss[active].sum()), grads


def bilinear_bce_loss_grad(kind: str, dim: int, H, R, T, labels):
    """Binary cross-entropy of a batch of labelled triples for DistMult/ComplEx with gradients.

    ``H``, ``R`` and ``T`` hold one embedding row per triple.  Returns the
    summed loss and the gradients of those rows, keyed 'h', 'r' and 't'.
    """
    if kind == "distmult":
        s = (H * R * T).sum(axis=1)
        ds_h, ds_r, ds_t = R * T, H * T, H * R
    else:
        hr, hi = H[:, :dim], H[:, dim:]
        rr, ri = R[:, :dim], R[:, dim:]
        tr, ti = T[:, :dim], T[:, dim:]
        s = (hr * rr * tr - hi * ri * tr + hr * ri * ti + hi * rr * ti).sum(axis=1)
        ds_h = np.concatenate([rr * tr + ri * ti, -ri * tr + rr * ti], axis=1)
        ds_r = np.concatenate([hr * tr + hi * ti, -hi * tr + hr * ti], axis=1)
        ds_t = np.concatenate([hr * rr - hi * ri, hr * ri + hi * rr], axis=1)
    loss = float((_softplus(s) - labels * s).sum())  # -log sigmoid(s) if label 1, -log(1-sigmoid(s)) if 0
    dl = (_sigmoid(s) - labels)[:, None]
    ds_h *= dl
    ds_r *= dl
    ds_t *= dl
    return loss, {"h": ds_h, "r": ds_r, "t": ds_t}


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


def train(kg: KnowledgeGraph, kind: str, cfg: TrainConfig, dim: int = 16, norm: int = 1) -> EmbeddingModel:
    """SGD training on the ``train`` split; margin ranking loss for TransE, BCE for DistMult/ComplEx."""
    triples = kg.triples("train")
    if not len(triples):
        raise KGError("empty training split 'train'")
    rng = np.random.default_rng(cfg.seed)
    model = _init_model(kind, dim, kg.vocab.n_entities, kg.vocab.n_predicates, rng, norm)

    heads = np.array(triples[:, 0], dtype=np.int64)
    rels = np.array(triples[:, 1], dtype=np.int64)
    tails = np.array(triples[:, 2], dtype=np.int64)
    known = set(map(tuple, triples.tolist()))
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


def _scatter_update(mat, idx, grad, rows, cfg):
    """``mat[idx] -= lr * (grad + l2 * rows)``, accumulating repeated indices; overwrites ``grad``."""
    grad += cfg.l2 * rows
    np.subtract.at(mat, idx, cfg.lr * grad)


def _transe_batch_step(model, cfg, bh, br, bt, nh, nt, k):
    ent, pred = model.entity_embeddings, model.predicate_embeddings
    h, r, t = np.repeat(bh, k), np.repeat(br, k), np.repeat(bt, k)
    # the L2 terms read these rows as they were before the step
    H, R, T, HN, TN = ent[h], pred[r], ent[t], ent[nh], ent[nt]
    loss, grads = transe_loss_grad(ent, pred, h, r, t, nh, nt, cfg.margin, model.norm)
    _scatter_update(ent, h, grads["h"], H, cfg)
    _scatter_update(ent, t, grads["t"], T, cfg)
    _scatter_update(ent, nh, grads["hn"], HN, cfg)
    _scatter_update(ent, nt, grads["tn"], TN, cfg)
    _scatter_update(pred, r, grads["r"], R, cfg)
    return loss


def _bce_batch_step(model, cfg, bh, br, bt, nh, nr, nt):
    ent, pred = model.entity_embeddings, model.predicate_embeddings
    h, r, t = np.concatenate([bh, nh]), np.concatenate([br, nr]), np.concatenate([bt, nt])
    labels = np.concatenate([np.ones(bh.shape[0]), np.zeros(nh.shape[0])])
    H, R, T = ent[h], pred[r], ent[t]  # the L2 terms read these rows as they were before the step
    loss, grads = bilinear_bce_loss_grad(model.kind, model.dim, H, R, T, labels)
    _scatter_update(ent, h, grads["h"], H, cfg)
    _scatter_update(ent, t, grads["t"], T, cfg)
    _scatter_update(pred, r, grads["r"], R, cfg)
    return loss

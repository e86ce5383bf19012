"""Finite-difference checks of the batched loss/gradient functions that ``models.train`` calls.

Shared by ``test_models.py`` and the acceptance suite.  Every check uses a
central difference with step 1e-4 and a relative tolerance of 1e-3 with an
absolute floor: entries whose finite difference and gradient sum to less than
1e-6 may differ by up to 1e-9.  The central difference's truncation error (of
order step² times a third derivative) is not small against such entries, so a
purely relative check would pass or fail by the values a batch draws.
"""

import numpy as np

from kgconformal.models import bilinear_bce_loss_grad, transe_loss_grad

STEP = 1e-4
TOL = 1e-3
FLOOR = 1e-6  # scale below which TOL acts as an absolute tolerance


def assert_matches_fd(loss_fn, params: dict, grads: dict) -> None:
    """Each entry of ``grads[name]`` matches the central difference of ``loss_fn`` in ``params[name]``.

    ``loss_fn`` reads the arrays of ``params``; each entry is perturbed in
    place and restored.
    """
    for name, arr in params.items():
        flat, grad = arr.reshape(-1), grads[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + STEP
            up = loss_fn()
            flat[i] = orig - STEP
            down = loss_fn()
            flat[i] = orig
            fd, g = (up - down) / (2 * STEP), grad[i]
            assert abs(fd - g) < TOL * max(abs(fd) + abs(g), FLOOR), (name, i, fd, g)


def check_transe(rng, p: int, margin: float, n_ent: int = 6, n_pred: int = 2, dim: int = 6,
                 rows: int = 4) -> float:
    """FD-check :func:`transe_loss_grad` on a random batch in the embedding matrices; returns its loss.

    Indices repeat across rows and roles, so the row gradients are summed
    into the matrices the way training scatters them.
    """
    ent, pred = rng.normal(size=(n_ent, dim)), rng.normal(size=(n_pred, dim))
    idx = {name: rng.integers(0, n_pred if name == "r" else n_ent, size=rows)
           for name in ("h", "r", "t", "hn", "tn")}
    ent_idx, pred_idx = np.concatenate([idx["h"], idx["t"], idx["hn"], idx["tn"]]), idx["r"]

    def loss_grad():
        return transe_loss_grad(ent[ent_idx], pred[pred_idx], margin, p)

    loss, g_ent, g_pred = loss_grad()
    grads = {"ent": np.zeros_like(ent), "pred": np.zeros_like(pred)}
    np.add.at(grads["ent"], ent_idx, g_ent)
    np.add.at(grads["pred"], pred_idx, g_pred)
    assert_matches_fd(lambda: loss_grad()[0], {"ent": ent, "pred": pred}, grads)
    return loss


def check_bce(rng, kind: str, first_label: float, dim: int = 3, rows: int = 4) -> None:
    """FD-check :func:`bilinear_bce_loss_grad` on a random batch whose labels alternate from ``first_label``."""
    width = 2 * dim if kind == "complex" else dim
    h, r, t = (rng.normal(size=(rows, width)) for _ in range(3))
    params = {"E": np.concatenate([h, t]), "R": r}
    labels = (first_label + np.arange(rows)) % 2

    def loss_grad():
        return bilinear_bce_loss_grad(kind, dim, params["E"], params["R"], labels)

    _, g_ent, g_pred = loss_grad()
    assert_matches_fd(lambda: loss_grad()[0], params, {"E": g_ent, "R": g_pred})

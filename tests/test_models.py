import logging
import re
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from kgconformal import models
from kgconformal.kg import DIRECTIONS, Direction, KGError, KnowledgeGraph, Query, QueryAnswerSet, Vocab, rank_of
from kgconformal.models import (
    EmbeddingModel,
    ModelScores,
    ScoreFile,
    TrainConfig,
    export_predicate_vectors,
    export_scores,
    import_predicate_vectors,
    import_scores,
    load_model,
    predicate_vector,
    save_model,
    score,
    train,
    transe_loss_grad,
)

import train_oracle
from gradcheck import check_bce, check_transe
from score_rows import in_memory, write_csv


def make_model(kind, dim, n_ent=5, n_pred=2, seed=0, norm=1):
    rng = np.random.default_rng(seed)
    width = 2 * dim if kind == "complex" else dim
    return EmbeddingModel(
        kind=kind,
        dim=dim,
        entity_embeddings=rng.normal(size=(n_ent, width)),
        predicate_embeddings=rng.normal(size=(n_pred, width)),
        norm=norm,
    )


def query_set(queries):
    """The query-answer set asking ``queries`` in order, each with answer 0."""
    columns = [[DIRECTIONS.index(q.direction) for q in queries], [q.anchor for q in queries],
               [q.predicate for q in queries], [0] * len(queries)]
    return QueryAnswerSet(*(np.array(c, dtype=np.int64) for c in columns))


def toy_kg(n_ent=20, n_pred=2, n_triples=60, seed=0):
    rng = np.random.default_rng(seed)
    seen = set()
    while len(seen) < n_triples:
        seen.add((int(rng.integers(n_ent)), int(rng.integers(n_pred)), int(rng.integers(n_ent))))
    triples = sorted(seen)
    vocab = Vocab(
        entities=tuple(f"e{i}" for i in range(n_ent)),
        predicates=tuple(f"r{i}" for i in range(n_pred)),
    )
    return KnowledgeGraph(vocab=vocab, splits={"train": triples})


class TestScore:
    def test_transe_zero_embeddings_score_zero(self):
        model = EmbeddingModel(
            kind="transe", dim=4,
            entity_embeddings=np.zeros((3, 4)),
            predicate_embeddings=np.zeros((1, 4)),
        )
        out = score(model, Query(Direction.TAIL, 0, 0))
        assert np.allclose(out, 0.0)

    def test_transe_nonpositive(self):
        model = make_model("transe", 6)
        for d in (Direction.TAIL, Direction.HEAD):
            assert np.all(score(model, Query(d, 1, 0)) <= 0)

    def test_transe_l2_norm(self):
        model = make_model("transe", 4, norm=2)
        q = Query(Direction.TAIL, 0, 0)
        out = score(model, q)
        expect = -np.linalg.norm(
            model.entity_embeddings[0] + model.predicate_embeddings[0] - model.entity_embeddings,
            axis=1,
        )
        assert np.allclose(out, expect)

    def test_distmult_all_ones(self):
        model = EmbeddingModel(
            kind="distmult", dim=3,
            entity_embeddings=np.ones((4, 3)),
            predicate_embeddings=np.ones((1, 3)),
        )
        assert np.allclose(score(model, Query(Direction.TAIL, 0, 0)), 3.0)

    def test_distmult_symmetric_in_direction(self):
        model = make_model("distmult", 5)
        tail = score(model, Query(Direction.TAIL, 2, 1))
        head = score(model, Query(Direction.HEAD, 2, 1))
        assert np.allclose(tail, head)

    def test_complex_zero_imag_matches_distmult(self):
        rng = np.random.default_rng(1)
        d, n_ent = 4, 6
        real_e = rng.normal(size=(n_ent, d))
        real_r = rng.normal(size=(2, d))
        cm = EmbeddingModel(
            kind="complex", dim=d,
            entity_embeddings=np.concatenate([real_e, np.zeros_like(real_e)], axis=1),
            predicate_embeddings=np.concatenate([real_r, np.zeros_like(real_r)], axis=1),
        )
        dm = EmbeddingModel(kind="distmult", dim=d, entity_embeddings=real_e, predicate_embeddings=real_r)
        for direction in (Direction.TAIL, Direction.HEAD):
            q = Query(direction, 3, 1)
            assert np.allclose(score(cm, q), score(dm, q))

    def test_complex_matches_complex_arithmetic_oracle(self):
        model = make_model("complex", 3, n_ent=5, seed=2)
        d = model.dim
        ent = model.entity_embeddings[:, :d] + 1j * model.entity_embeddings[:, d:]
        rel = model.predicate_embeddings[:, :d] + 1j * model.predicate_embeddings[:, d:]
        q = Query(Direction.TAIL, 1, 0)
        oracle = np.real((ent[1] * rel[0])[None, :] @ np.conj(ent).T).ravel()
        assert np.allclose(score(model, q), oracle)
        qh = Query(Direction.HEAD, 1, 0)
        oracle_h = np.real(ent @ (rel[0] * np.conj(ent[1])))
        assert np.allclose(score(model, qh), oracle_h)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            make_model("rotate", 4)

    def test_dim_below_one_rejected(self):
        with pytest.raises(ValueError, match="dim must be >= 1, got 0"):
            make_model("transe", 0)

    def test_predicate_vector_is_embedding_row_copy(self):
        model = make_model("distmult", 4)
        vec = predicate_vector(model, 1)
        assert np.array_equal(vec, model.predicate_embeddings[1])
        vec[0] = 99.0
        assert model.predicate_embeddings[1][0] != 99.0


def oracle_score(model, query):
    """``score`` as plain per-query numpy expressions, with fresh temporaries."""
    ent = model.entity_embeddings
    r = model.predicate_embeddings[query.predicate]
    anchor = ent[query.anchor]
    if model.kind == "transe":
        shift = anchor + r if query.direction is Direction.TAIL else anchor - r
        terms = np.abs(shift[None, :] - ent) if model.norm == 1 else (shift[None, :] - ent) ** 2
        total = terms[:, 0].copy()
        for d in range(1, model.dim):  # in dim order
            total = total + terms[:, d]
        return -total if model.norm == 1 else -np.sqrt(total)
    if model.kind == "distmult":
        return ent @ (anchor * r)
    d = model.dim
    ar, ai, rr, ri = anchor[:d], anchor[d:], r[:d], r[d:]
    er, ei = ent[:, :d], ent[:, d:]
    if query.direction is Direction.TAIL:
        return er @ (ar * rr - ai * ri) + ei @ (ar * ri + ai * rr)
    return er @ (rr * ar + ri * ai) + ei @ (rr * ai - ri * ar)


WRITERS = {"binary": export_scores, "csv": write_csv}  # the pipeline's score file, and a CSV table made elsewhere
SCORE_FILE_BYTES = 12 + 7 * (9 + 8 * 7)  # TestPersistence.score_matrix: header, then 7 records of |E| = 7

SCORED_KINDS = [pytest.param("transe", 1, id="transe-l1"), pytest.param("transe", 2, id="transe-l2"),
                pytest.param("distmult", 1, id="distmult"), pytest.param("complex", 1, id="complex")]


class TestScoreExactness:
    """``score`` and every ``ModelScores`` row, alone or filled for a whole set, equal the oracle bit for bit.

    TransE rows are sums in dim order.  The dims include every branch of numpy's pairwise row sum (below 8,
    8 lanes with and without a remainder, 128, one or two halvings above it), so a scorer that adds as
    ``ndarray.sum`` does fails from dim 8 on.
    """

    @pytest.mark.parametrize("dim", [1, 5, 8, 13, 32, 128, 129, 200, 257])
    @pytest.mark.parametrize("kind,norm", SCORED_KINDS)
    def test_rows_equal_oracle(self, kind, norm, dim):
        model = make_model(kind, dim, n_ent=301, n_pred=3, seed=dim, norm=norm)
        queries = [Query(d, a, p) for d in (Direction.TAIL, Direction.HEAD) for a in (0, 7, 300) for p in (0, 2)]
        queries += queries[::3]  # repeats
        for q in queries:
            assert np.array_equal(score(model, q), oracle_score(model, q))
        matrix = in_memory(ModelScores(model, query_set(queries)))
        assert len(matrix.queries) == 12
        (rows,) = matrix.rows(query_set(queries))
        for q, row in zip(queries, rows):
            assert np.array_equal(matrix.scores[row], oracle_score(model, q))

    @pytest.mark.parametrize("norm", [1, 2])
    def test_row_does_not_depend_on_its_block(self, monkeypatch, norm):
        """A query scores the same alone, in a block mixing head and tail queries, and across block boundaries."""
        model = make_model("transe", 21, n_ent=40, n_pred=3, seed=6, norm=norm)
        queries = [Query(d, a, p) for d in (Direction.HEAD, Direction.TAIL) for a in (0, 5, 17, 39) for p in (0, 2)]
        pairs = query_set(queries)
        wanted = {q: oracle_score(model, q) for q in queries}
        for block in (3, 5, 8, 16):  # 16 holds all 8 head and 8 tail queries; 3 and 5 split them unevenly
            monkeypatch.setattr(models, "SCORE_BLOCK_QUERIES", block)
            source = ModelScores(model, pairs)
            (rows,) = source.rows(pairs)
            order = np.argsort(rows, kind="stable")
            repeated = np.repeat(rows[order], 2)  # every query asked by two adjacent pairs
            out = np.empty((repeated.size, 40))
            source.fill(repeated, out)
            for q, got in zip(np.repeat(np.array(queries, dtype=object)[order], 2), out):
                assert np.array_equal(got, wanted[q])
        for q in queries:
            assert np.array_equal(score(model, q), wanted[q])

    @pytest.mark.parametrize("kind,norm", SCORED_KINDS)
    def test_scratch_does_not_leak_between_calls(self, kind, norm):
        model = make_model(kind, 16, n_ent=50, seed=3, norm=norm)
        qa, qb = Query(Direction.TAIL, 4, 1), Query(Direction.HEAD, 9, 0)
        first = score(model, qa)
        other = score(model, qb)
        again = score(model, qa)
        assert np.array_equal(first, again)
        assert np.array_equal(other, oracle_score(model, qb))
        assert not np.shares_memory(first, again)

    @pytest.mark.parametrize("norm", [1, 2])
    def test_models_of_different_sizes(self, norm):
        small = make_model("transe", 8, n_ent=20, seed=4, norm=norm)
        large = make_model("transe", 8, n_ent=90, seed=5, norm=norm)
        for q in (Query(Direction.TAIL, 3, 1), Query(Direction.HEAD, 11, 0)):
            for model in (small, large, small):
                assert np.array_equal(score(model, q), oracle_score(model, q))
        large.entity_embeddings = large.entity_embeddings[:60].copy()  # a new shape, read at the next call
        q = Query(Direction.TAIL, 2, 0)
        assert np.array_equal(score(large, q), oracle_score(large, q))

    def test_scratch_not_saved_or_shown(self, tmp_path):
        model = make_model("transe", 4, n_ent=6)
        score(model, Query(Direction.TAIL, 0, 0))
        assert "_scratch" not in repr(model) and not hasattr(model, "_scratch")
        save_model(model, tmp_path / "model.npz")
        assert sorted(np.load(tmp_path / "model.npz").files) == [
            "dim", "entity_embeddings", "kind", "norm", "predicate_embeddings"]

    def test_distmult_overflow_raises(self):
        model = make_model("distmult", 4, n_ent=6)
        model.entity_embeddings *= 1e200  # finite entries, but every product overflows
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="non-finite score"):
            score(model, Query(Direction.TAIL, 1, 0))


class TestGradients:
    """FD checks of the batched loss/gradient functions that ``train`` calls."""

    def test_transe_pair_gradients(self):
        rng = np.random.default_rng(3)
        for p in (1, 2):
            assert check_transe(rng, p, margin=12.0) > 0  # active margins, so the gradients are informative

    @pytest.mark.parametrize("kind,label", [("distmult", 1.0), ("distmult", 0.0),
                                            ("complex", 1.0), ("complex", 0.0)])
    def test_bce_gradients(self, kind, label):
        check_bce(np.random.default_rng(4), kind, label, dim=4)

    def test_inactive_margin_zero_gradient(self):
        ent = np.array([np.zeros(4), np.full(4, 10.0)])
        loss, g_ent, g_pred = transe_loss_grad(ent[[0, 0, 1, 0]], np.zeros((1, 4)), margin=1.0, p=1)
        assert loss == 0.0
        assert np.all(g_ent == 0) and np.all(g_pred == 0)


class TestTrain:
    def test_same_seed_bit_identical(self):
        kg = toy_kg()
        cfg = TrainConfig(epochs=3, seed=7, batch_size=32)
        a = train(kg, "distmult", cfg, dim=8)
        b = train(kg, "distmult", cfg, dim=8)
        assert np.array_equal(a.entity_embeddings, b.entity_embeddings)
        assert np.array_equal(a.predicate_embeddings, b.predicate_embeddings)

    def test_different_seed_differs(self):
        kg = toy_kg()
        a = train(kg, "distmult", TrainConfig(epochs=2, seed=1), dim=8)
        b = train(kg, "distmult", TrainConfig(epochs=2, seed=2), dim=8)
        assert not np.array_equal(a.entity_embeddings, b.entity_embeddings)

    def test_zero_epochs_returns_init(self):
        kg = toy_kg()
        model = train(kg, "transe", TrainConfig(epochs=0, seed=0), dim=8)
        norms = np.linalg.norm(model.entity_embeddings, axis=1)
        assert np.allclose(norms, 1.0)

    @pytest.mark.parametrize("kind", ["transe", "distmult", "complex"])
    def test_training_beats_random_init(self, kind):
        kg = toy_kg(n_ent=30, n_pred=2, n_triples=120, seed=5)
        cfg = TrainConfig(epochs=40, lr=0.05, negatives=4, seed=0, batch_size=64)
        trained = train(kg, kind, cfg, dim=12)
        init = train(kg, kind, TrainConfig(epochs=0, seed=0), dim=12)

        def mean_rank(model):
            ranks = []
            for h, r, t in kg.splits["train"][:50].tolist():
                s = score(model, Query(Direction.TAIL, h, r))
                ranks.append(rank_of(s, t))
            return float(np.mean(ranks))

        assert mean_rank(trained) < mean_rank(init)

    def test_empty_split_rejected(self):
        kg = toy_kg()
        kg.splits["train"] = []
        from kgconformal.kg import KGError

        with pytest.raises(KGError, match="empty training split"):
            train(kg, "transe", TrainConfig(epochs=1), dim=4)

    def test_bad_train_config(self):
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0)
        with pytest.raises(ValueError):
            TrainConfig(negatives=0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)


def dense_kg():
    """Six entities, two predicates: predicate 0 holds every (h, t) pair and predicate 1 a few.

    Every negative of a predicate-0 triple is a known positive, so it runs to
    the 100-try cap; predicate-1 negatives collide often and then resolve.
    """
    triples = [(h, 0, t) for h in range(6) for t in range(6)]
    triples += [(h, 1, (h + 1) % 6) for h in range(6)] + [(0, 1, 3), (2, 1, 2)]
    vocab = Vocab(entities=tuple(f"e{i}" for i in range(6)), predicates=("r0", "r1"))
    return KnowledgeGraph(vocab=vocab, splits={"train": triples})


def assert_same_model(got, want):
    assert np.array_equal(got.entity_embeddings, want.entity_embeddings)
    assert np.array_equal(got.predicate_embeddings, want.predicate_embeddings)


class TestTrainExactness:
    """``train`` gives the embeddings of ``train_oracle.train``, the plain-expression code, bit for bit."""

    # a strong L2 term shows the order it reads its rows in across many bits, not around 1e-8
    @pytest.mark.parametrize("dim,l2,lr", [pytest.param(3, 1e-6, 0.05, id="3"), pytest.param(16, 1e-6, 0.05, id="16"),
                                           pytest.param(16, 0.5, 0.1, id="16-strong-l2")])
    @pytest.mark.parametrize("kind,norm", SCORED_KINDS)
    def test_equals_oracle(self, kind, norm, dim, l2, lr):
        kg = toy_kg(n_ent=30, n_pred=3, n_triples=100, seed=2)
        # 100 = 3 * 32 + 4: a partial last batch
        cfg = TrainConfig(epochs=3, negatives=3, batch_size=32, seed=5, l2=l2, lr=lr)
        want = train_oracle.train(kg, kind, cfg, dim=dim, norm=norm)
        assert_same_model(train(kg, kind, cfg, dim=dim, norm=norm), want)

    @pytest.mark.parametrize("kind,norm", SCORED_KINDS)
    def test_loss_grad_equal_oracle(self, kind, norm):
        """Loss and gradients bit for bit, without a workspace and through a reused larger one."""
        rng = np.random.default_rng(8)
        dim, m = 32, 700
        width = 2 * dim if kind == "complex" else dim
        ent, pred = rng.normal(size=(500, width)), rng.normal(size=(7, width))
        ws = models._Workspace()
        ws("g_h", m + 50, width)  # a buffer with spare rows, as after a full batch
        for workspace in (None, ws, ws):
            if kind == "transe":
                idx = [rng.integers(0, 7 if name == "r" else 500, size=m) for name in ("h", "r", "t", "hn", "tn")]
                h, r, t, hn, tn = idx
                loss, g_ent, g_pred = transe_loss_grad(ent[np.concatenate([h, t, hn, tn])], pred[r], 4.0, norm,
                                                       workspace)
                want_loss, want = train_oracle.transe_loss_grad(ent, pred, *idx, 4.0, norm)
                names = ("h", "t", "hn", "tn")
            else:
                H, R, T = ent[rng.integers(0, 500, m)], pred[rng.integers(0, 7, m)], ent[rng.integers(0, 500, m)]
                labels = (np.arange(m) % 3 == 0).astype(float)
                loss, g_ent, g_pred = models.bilinear_bce_loss_grad(kind, dim, np.concatenate([H, T]), R, labels,
                                                                    workspace)
                want_loss, want = train_oracle.bilinear_bce_loss_grad(kind, dim, H, R, T, labels)
                names = ("h", "t")
            assert loss == want_loss
            assert want.keys() == {*names, "r"}
            assert g_ent.shape == (len(names) * m, width) and g_pred.shape == (m, width)
            assert np.array_equal(g_ent, np.concatenate([want[name] for name in names]))
            assert np.array_equal(g_pred, want["r"])

    @pytest.mark.parametrize("kind,norm", SCORED_KINDS)
    def test_dense_kg_with_collisions_and_the_try_cap(self, kind, norm):
        kg = dense_kg()
        cfg = TrainConfig(epochs=2, negatives=4, batch_size=16, seed=3)
        want = train_oracle.train(kg, kind, cfg, dim=4, norm=norm)
        assert_same_model(train(kg, kind, cfg, dim=4, norm=norm), want)

    def test_dense_kg_collides_and_reaches_the_cap(self):
        triples = dense_kg().splits["train"]
        known = set(map(tuple, triples.tolist()))
        h, r, t = (np.array(col, dtype=np.int64) for col in zip(*sorted(known)))
        sampled = train_oracle._sample_negatives(np.random.default_rng(0), h, r, t, 6, known, 4)
        unchecked = train_oracle._sample_negatives(np.random.default_rng(0), h, r, t, 6, set(), 4)
        final = set(zip(*(a.tolist() for a in sampled)))
        assert final & known  # only the try cap leaves a known positive
        changed = np.flatnonzero(np.any(np.stack(sampled) != np.stack(unchecked), axis=0))
        assert any((sampled[0][i], sampled[1][i], sampled[2][i]) not in known for i in changed)  # resolved collisions

    def test_interleaved_calls_equal_calls_alone(self):
        calls = [(toy_kg(n_ent=25, n_triples=70, seed=1), "complex", 6),
                 (toy_kg(n_ent=60, n_triples=90, seed=2), "complex", 10),
                 (toy_kg(n_ent=40, n_triples=80, seed=3), "transe", 5)]
        cfg = TrainConfig(epochs=4, negatives=3, batch_size=16, seed=9)

        def run(i):
            kg, kind, dim = calls[i]
            return train(kg, kind, cfg, dim=dim)

        alone = [run(i) for i in range(len(calls))]
        for got, want in zip([run(i) for i in (0, 1, 0, 2)], [alone[i] for i in (0, 1, 0, 2)]):
            assert_same_model(got, want)
        with ThreadPoolExecutor(max_workers=2) as pool:  # two calls in flight at once
            for got, i in zip(pool.map(run, [0, 1, 2, 1, 0]), [0, 1, 2, 1, 0]):
                assert_same_model(got, alone[i])

    @pytest.mark.parametrize("layout", ["column-sliced", "fortran"])
    def test_scatter_refuses_a_matrix_it_would_copy(self, layout):
        base = np.arange(40.0).reshape(5, 8)
        mat = base[:, :4] if layout == "column-sliced" else np.asfortranarray(base)
        before = mat.copy()
        idx = np.array([0, 2, 2])
        grad, rows = np.ones((3, mat.shape[1])), np.ones((3, mat.shape[1]))
        with pytest.raises(ValueError, match="C-contiguous"):
            models._scatter_update(mat, idx, grad, rows, TrainConfig())
        assert np.array_equal(mat, before)

    def test_scatter_updates_a_c_contiguous_matrix_in_place(self):
        mat = np.zeros((4, 3))
        address = mat.__array_interface__["data"][0]
        idx = np.array([1, 3, 1])
        grad = np.arange(9.0).reshape(3, 3)
        models._scatter_update(mat, idx, grad, np.zeros((3, 3)), TrainConfig(lr=1.0, l2=0.0))
        assert mat.__array_interface__["data"][0] == address
        assert mat.tolist() == [[0, 0, 0], [-6, -8, -10], [0, 0, 0], [-3, -4, -5]]

    def test_triple_key_range_and_overflow(self):
        last = np.array([2**31 - 1], dtype=np.int64)
        assert models._triple_keys(last, np.array([1]), last, 2**31, 2).tolist() == [2**63 - 1]
        with pytest.raises(KGError, match="overflow the int64 triple key"):
            models._triple_keys(last, np.array([1]), last, 2**31, 3)


class TestTrainLogging:
    """``train`` logs each epoch's mean loss per training triple at DEBUG on ``kgconformal.models``."""

    @pytest.mark.parametrize("kind", ["transe", "complex"])
    def test_one_finite_record_per_epoch(self, kind, caplog, monkeypatch):
        batch_losses = []
        original = models._batch_step

        def recording_step(*args):
            batch_losses.append(original(*args))
            return batch_losses[-1]

        monkeypatch.setattr(models, "_batch_step", recording_step)
        kg = toy_kg()  # 60 training triples in batches of 16: four batches per epoch
        with caplog.at_level(logging.DEBUG, logger="kgconformal.models"):
            train(kg, kind, TrainConfig(epochs=3, seed=1, batch_size=16), dim=4)
        records = [r for r in caplog.records if r.name == "kgconformal.models"]
        assert [(r.levelno, r.args[0]) for r in records] == [(logging.DEBUG, e) for e in range(3)]
        assert len(batch_losses) == 12
        for epoch, record in enumerate(records):
            assert np.isfinite(record.args[1])
            assert record.args[1] == sum(batch_losses[4 * epoch:4 * epoch + 4]) / 60
            assert np.isfinite(record.args[2]) and record.args[2] >= 0  # the epoch's wall time in seconds

    def test_no_record_without_epochs(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="kgconformal.models"):
            train(toy_kg(), "distmult", TrainConfig(epochs=0), dim=4)
        assert not [r for r in caplog.records if r.name == "kgconformal.models"]

    def test_attaches_no_handler(self):
        assert logging.getLogger("kgconformal.models").handlers == []


class TestPersistence:
    def test_model_round_trip(self, tmp_path):
        model = make_model("complex", 5)
        path = tmp_path / "model.npz"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.kind == "complex" and loaded.dim == 5
        assert np.array_equal(loaded.entity_embeddings, model.entity_embeddings)
        assert np.array_equal(loaded.predicate_embeddings, model.predicate_embeddings)

    def score_matrix(self, seed=0):
        model = make_model("distmult", 4, n_ent=7, seed=seed)
        queries = [Query(Direction.TAIL, a, p) for a in range(3) for p in range(2)]
        queries += [Query(Direction.HEAD, 1, 0)]
        return in_memory(ModelScores(model, query_set(queries))), queries

    def test_binary_round_trip_exact(self, tmp_path):
        matrix, queries = self.score_matrix()
        path = tmp_path / "scores.bin"
        export_scores(matrix, path)
        loaded = import_scores(path)
        assert isinstance(loaded, ScoreFile) and loaded.n_entities == matrix.n_entities
        loaded.rows(query_set(queries))  # raises if a query is missing
        assert np.array_equal(loaded.queries, matrix.queries)
        assert np.array_equal(in_memory(loaded).scores, matrix.scores)

    def test_csv_round_trip_exact(self, tmp_path):
        matrix, _ = self.score_matrix(seed=1)
        path = tmp_path / "scores.csv"
        write_csv(matrix, path)
        loaded = import_scores(path)
        assert np.array_equal(loaded.queries, matrix.queries)
        assert np.array_equal(loaded.scores, matrix.scores)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "scores.bin"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        from kgconformal.kg import KGError

        with pytest.raises(KGError, match="bad magic"):
            import_scores(path)

    @pytest.mark.parametrize("corrupt", [pytest.param(("cut", n), id=f"cut-{n}") for n in range(SCORE_FILE_BYTES)]
                             + [pytest.param(("direction", 2), id="direction-2"),
                                pytest.param(("anchor", 2**32 - 1), id="anchor-2**32-1")])
    def test_truncated_record_names_length_mismatch(self, tmp_path, corrupt):
        """Cut at any byte offset, or with a bad field in a record, the file raises KGError naming it."""
        matrix, _ = self.score_matrix()
        path = tmp_path / "scores.bin"
        export_scores(matrix, path)
        data = bytearray(path.read_bytes())
        assert len(data) == SCORE_FILE_BYTES
        kind, value = corrupt
        fourth = 12 + 3 * (SCORE_FILE_BYTES - 12) // 7  # the fourth record: direction byte, anchor, predicate
        if kind == "cut":
            data = data[:value]
            expected = "bad magic" if value < 4 else "truncated header" if value < 12 else "length mismatch"
        elif kind == "direction":
            data[fourth] = value
            expected = rf"direction code {value} is neither"
        else:
            data[fourth + 1 : fourth + 5] = value.to_bytes(4, "little")
            expected = re.escape("anchors and predicates must lie in [0, 2**31)")
        path.write_bytes(bytes(data))
        with pytest.raises(KGError, match=rf"^{re.escape(str(path))}: .*{expected}"):
            import_scores(path)

    @pytest.mark.parametrize("fmt, suffix", [("binary", ".bin"), ("csv", ".csv")])
    def test_repeated_query_names_file_and_query(self, tmp_path, fmt, suffix):
        matrix, _ = self.score_matrix()
        path = tmp_path / f"scores{suffix}"
        WRITERS[fmt](matrix, path)
        data = path.read_bytes()
        tail_0_0 = int(np.flatnonzero((matrix.queries == [0, 0, 0]).all(axis=1))[0])
        if fmt == "csv":
            data += data.splitlines(keepends=True)[1 + tail_0_0]
        else:
            record = (len(data) - 12) // len(matrix.queries)
            copy = data[12 + tail_0_0 * record : 12 + (tail_0_0 + 1) * record]
            data = data[:8] + (len(matrix.queries) + 1).to_bytes(4, "little") + data[12:] + copy
        path.write_bytes(data)
        with pytest.raises(KGError, match=rf"^{re.escape(str(path))}: scores for query \('tail', 0, 0\) repeated$"):
            import_scores(path)

    @pytest.mark.parametrize("fmt, suffix", [("binary", ".bin"), ("csv", ".csv")])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_names_file_and_query(self, tmp_path, fmt, suffix, bad):
        matrix, queries = self.score_matrix()
        matrix.scores[matrix.rows(query_set(queries[4:5]))[0][0], 2] = bad
        path = tmp_path / f"scores{suffix}"
        WRITERS[fmt](matrix, path)
        key = re.escape(str(queries[4].key()))
        with pytest.raises(KGError, match=rf"{path.name}.*non-finite score for query {key}"):
            import_scores(path)

    @pytest.mark.parametrize("field,value", [(0, "sideways"), (1, "x"), (2, "1.5"), (5, "abc")],
                             ids=["direction", "anchor", "predicate", "score"])
    def test_malformed_csv_row_names_file_and_line(self, tmp_path, field, value):
        matrix, _ = self.score_matrix()
        path = tmp_path / "scores.csv"
        write_csv(matrix, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        row = lines[3].split(",")
        row[field] = value
        lines[3] = ",".join(row)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(KGError, match=rf"{path.name}:4: malformed row .*{value}"):
            import_scores(path)

    @pytest.mark.parametrize("cut", [1, -1], ids=["short", "long"])
    def test_csv_row_length_names_file_and_line(self, tmp_path, cut):
        matrix, _ = self.score_matrix()
        path = tmp_path / "scores.csv"
        write_csv(matrix, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] if cut > 0 else lines[2] + ",0.5"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(KGError, match=rf"^{re.escape(str(path))}:3: length mismatch vs \|E\|=7$"):
            import_scores(path)

    def test_file_cut_short_after_import_names_file_and_query(self, tmp_path):
        """Import reads no score row; a row read after the file shrank raises KGError naming both."""
        matrix, _ = self.score_matrix()
        path = tmp_path / "scores.bin"
        export_scores(matrix, path)
        source = import_scores(path)
        path.write_bytes(path.read_bytes()[:-1])  # the last record, the last row in key order, loses a byte
        out = np.empty((7, 7))
        source.fill(np.arange(6), out)
        assert np.array_equal(out[:6], matrix.scores[:6])
        d, a, p = matrix.queries[6].tolist()
        key = re.escape(str(Query(DIRECTIONS[d], a, p).key()))
        with pytest.raises(KGError, match=rf"^{re.escape(str(path))}: score row of query {key} cut short"):
            source.fill(np.array([5, 6]), out)

    def test_missing_required_query(self, tmp_path):
        matrix, _ = self.score_matrix()
        path = tmp_path / "scores.bin"
        export_scores(matrix, path)
        with pytest.raises(KGError, match=rf"^{re.escape(str(path))}: missing scores for 1 queries: \('head', 6, 1\)$"):
            import_scores(path).rows(query_set([Query(Direction.HEAD, 6, 1), Query(Direction.TAIL, 0, 0)]))

    def test_predicate_vector_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        vectors = rng.normal(size=(5, 9))
        path = tmp_path / "vecs.bin"
        export_predicate_vectors(vectors, path)
        assert np.array_equal(import_predicate_vectors(path), vectors)


class TestPredicateVectorSidecar:
    """Malformed sidecars raise KGError naming the file."""

    def sidecar(self, tmp_path, n_pred=4, dim=3):
        path = tmp_path / "vecs.bin"
        export_predicate_vectors(np.random.default_rng(7).normal(size=(n_pred, dim)), path)
        return path, bytearray(path.read_bytes()), 4 + 8 * dim

    def test_index_out_of_range(self, tmp_path):
        path, data, record = self.sidecar(tmp_path)
        data[12 + 2 * record : 12 + 2 * record + 4] = (999).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(KGError, match=rf"{path.name}: predicate index 999 out of range"):
            import_predicate_vectors(path)

    def test_repeated_index_leaves_one_missing(self, tmp_path):
        path, data, record = self.sidecar(tmp_path)
        data[12 + 2 * record : 12 + 2 * record + 4] = (1).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(KGError, match=rf"{path.name}: predicate indices repeated \[1\], missing \[2\]"):
            import_predicate_vectors(path)

    def test_truncated(self, tmp_path):
        path, data, _ = self.sidecar(tmp_path)
        path.write_bytes(bytes(data[:-5]))
        with pytest.raises(KGError, match=rf"{path.name}: truncated"):
            import_predicate_vectors(path)
        path.write_bytes(bytes(data[:8]))
        with pytest.raises(KGError, match=rf"{path.name}: truncated header"):
            import_predicate_vectors(path)

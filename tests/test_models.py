import numpy as np
import pytest

from kgconformal.kg import Direction, KGError, KnowledgeGraph, Query, Triple, Vocab, rank_of
from kgconformal.models import (
    EmbeddingModel,
    ScoreMatrix,
    TrainConfig,
    bilinear_bce_loss_grad,
    export_predicate_vectors,
    export_scores,
    import_predicate_vectors,
    import_scores,
    load_model,
    predicate_vector,
    save_model,
    score,
    train,
    transe_pair_loss_grad,
)


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


def toy_kg(n_ent=20, n_pred=2, n_triples=60, seed=0):
    rng = np.random.default_rng(seed)
    seen = set()
    while len(seen) < n_triples:
        seen.add((int(rng.integers(n_ent)), int(rng.integers(n_pred)), int(rng.integers(n_ent))))
    triples = [Triple(h, r, t) for h, r, t in sorted(seen)]
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

    def test_predicate_vector_is_embedding_row_copy(self):
        model = make_model("distmult", 4)
        vec = predicate_vector(model, 1)
        assert np.array_equal(vec, model.predicate_embeddings[1])
        vec[0] = 99.0
        assert model.predicate_embeddings[1][0] != 99.0


class TestGradients:
    def rel_err(self, a, b):
        return np.abs(a - b) / np.maximum(1e-8, np.abs(a) + np.abs(b))

    def check_against_fd(self, loss_fn, params, grads, step=1e-4, tol=1e-3):
        for name, vec in params.items():
            for i in range(vec.size):
                orig = vec[i]
                vec[i] = orig + step
                up = loss_fn()
                vec[i] = orig - step
                down = loss_fn()
                vec[i] = orig
                fd = (up - down) / (2 * step)
                if abs(fd) < 1e-10 and abs(grads[name][i]) < 1e-10:
                    continue
                assert self.rel_err(fd, grads[name][i]) < tol, (name, i, fd, grads[name][i])

    def test_transe_pair_gradients(self):
        rng = np.random.default_rng(3)
        for p in (1, 2):
            params = {k: rng.normal(size=8) for k in ("h", "r", "t", "hn", "tn")}
            loss, grads = transe_pair_loss_grad(
                params["h"], params["r"], params["t"], params["hn"], params["tn"], margin=12.0, p=p
            )
            assert loss > 0  # active margin so gradients are informative
            self.check_against_fd(
                lambda: transe_pair_loss_grad(
                    params["h"], params["r"], params["t"], params["hn"], params["tn"], 12.0, p
                )[0],
                params,
                grads,
            )

    @pytest.mark.parametrize("kind,label", [("distmult", 1.0), ("distmult", 0.0),
                                            ("complex", 1.0), ("complex", 0.0)])
    def test_bce_gradients(self, kind, label):
        rng = np.random.default_rng(4)
        dim = 4
        width = 2 * dim if kind == "complex" else dim
        params = {k: rng.normal(size=width) for k in ("h", "r", "t")}
        _, grads = bilinear_bce_loss_grad(kind, dim, params["h"], params["r"], params["t"], label)
        self.check_against_fd(
            lambda: bilinear_bce_loss_grad(kind, dim, params["h"], params["r"], params["t"], label)[0],
            params,
            grads,
        )

    def test_inactive_margin_zero_gradient(self):
        h = np.zeros(4)
        t = np.zeros(4)
        hn = np.ones(4) * 10
        tn = np.zeros(4)
        loss, grads = transe_pair_loss_grad(h, np.zeros(4), t, hn, tn, margin=1.0, p=1)
        assert loss == 0.0
        assert all(np.all(g == 0) for g in grads.values())


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
            for t in kg.splits["train"][:50]:
                s = score(model, Query(Direction.TAIL, t.head, t.predicate))
                ranks.append(rank_of(s, t.tail))
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
        return ScoreMatrix.from_model(model, queries), queries

    def test_binary_round_trip_exact(self, tmp_path):
        matrix, queries = self.score_matrix()
        path = tmp_path / "scores.bin"
        export_scores(matrix, path)
        loaded = import_scores(path, required_queries=queries)
        assert loaded.n_entities == matrix.n_entities
        for key, vec in matrix.vectors.items():
            assert np.array_equal(loaded.vectors[key], vec)

    def test_csv_round_trip_exact(self, tmp_path):
        matrix, _ = self.score_matrix(seed=1)
        path = tmp_path / "scores.csv"
        export_scores(matrix, path, fmt="csv")
        loaded = import_scores(path)
        for key, vec in matrix.vectors.items():
            assert np.array_equal(loaded.vectors[key], vec)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "scores.bin"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        from kgconformal.kg import KGError

        with pytest.raises(KGError, match="bad magic"):
            import_scores(path)

    def test_truncated_record_names_length_mismatch(self, tmp_path):
        matrix, _ = self.score_matrix()
        path = tmp_path / "scores.bin"
        export_scores(matrix, path)
        data = path.read_bytes()
        path.write_bytes(data[:-9])
        from kgconformal.kg import KGError

        with pytest.raises(KGError, match="length mismatch"):
            import_scores(path)

    def test_missing_required_query(self, tmp_path):
        matrix, _ = self.score_matrix()
        path = tmp_path / "scores.bin"
        export_scores(matrix, path)
        from kgconformal.kg import KGError

        with pytest.raises(KGError, match="missing from score matrix"):
            import_scores(path, required_queries=[Query(Direction.HEAD, 6, 1)])

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

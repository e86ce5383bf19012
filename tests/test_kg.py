import numpy as np
import pytest

from kgconformal.kg import (
    Direction,
    KGError,
    KnowledgeGraph,
    Query,
    SplitConfig,
    Vocab,
    filter_masks,
    load_kg,
    make_queries,
    rank_of,
    split_triples,
)

from rank_oracle import candidate_ranks


def write_tsv(path, rows):
    path.write_text("".join(f"{h}\t{r}\t{t}\n" for h, r, t in rows), encoding="utf-8")


class TestLoadKG:
    def test_basic_tsv_counts(self, tmp_path):
        f = tmp_path / "kg.tsv"
        write_tsv(f, [("a", "p", "b"), ("b", "p", "c"), ("c", "q", "d")])
        kg = load_kg(f)
        assert kg.vocab.n_entities == 4
        assert kg.vocab.n_predicates == 2
        assert len(kg.splits["all"]) == 3

    def test_empty_file_rejected(self, tmp_path):
        f = tmp_path / "kg.tsv"
        f.write_text("")
        with pytest.raises(KGError, match="no triples"):
            load_kg(f)

    def test_duplicate_line_names_lineno(self, tmp_path):
        f = tmp_path / "kg.tsv"
        write_tsv(f, [("a", "p", "b"), ("c", "p", "d"), ("a", "p", "b")])
        with pytest.raises(KGError, match=r":3.*duplicate"):
            load_kg(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(KGError, match="no such file"):
            load_kg(tmp_path / "nope.tsv")

    def test_malformed_line_names_lineno(self, tmp_path):
        f = tmp_path / "kg.tsv"
        f.write_text("a\tp\tb\nbroken line\n")
        with pytest.raises(KGError, match=":2"):
            load_kg(f)

    def test_manifest_splits(self, tmp_path):
        write_tsv(tmp_path / "train.tsv", [("a", "p", "b"), ("b", "p", "c")])
        write_tsv(tmp_path / "valid.tsv", [("c", "p", "a")])
        write_tsv(tmp_path / "test.tsv", [("a", "p", "c")])
        (tmp_path / "manifest.json").write_text(
            '{"train": "train.tsv", "valid": "valid.tsv", "test": "test.tsv"}'
        )
        kg = load_kg(tmp_path / "manifest.json")
        assert set(kg.splits) == {"train", "valid", "test"}
        assert kg.vocab.n_entities == 3

    def test_closed_vocab_rejects_unknown_entity(self, tmp_path):
        write_tsv(tmp_path / "train.tsv", [("a", "p", "zzz")])
        (tmp_path / "entities.txt").write_text("a\nb\n")
        (tmp_path / "manifest.json").write_text('{"train": "train.tsv", "entities": "entities.txt"}')
        with pytest.raises(KGError, match="zzz"):
            load_kg(tmp_path / "manifest.json")

    def test_vocab_order_is_lexicographic(self, tmp_path):
        f = tmp_path / "kg.tsv"
        write_tsv(f, [("z", "p", "a"), ("m", "p", "z")])
        kg = load_kg(f)
        assert kg.vocab.entities == ("a", "m", "z")


class TestKnowledgeGraphRows:
    vocab = Vocab(entities=("a", "b", "c"), predicates=("p", "q"))

    def test_row_sequences_become_one_int64_array(self):
        rows = np.array([(0, 1, 2), (2, 0, 1)])
        kg = KnowledgeGraph(self.vocab, {"train": [(0, 1, 2), (2, 0, 1)], "valid": list(rows), "test": []})
        for name in ("train", "valid"):
            assert kg.splits[name].dtype == np.int64 and np.array_equal(kg.splits[name], rows)
        assert kg.splits["test"].shape == (0, 3)
        assert kg.triples("missing").shape == (0, 3)

    def test_negative_id_names_the_split(self):
        with pytest.raises(KGError, match=r"split 'valid' row 1: head id -1 is outside \[0, 3\)"):
            KnowledgeGraph(self.vocab, {"train": [(0, 0, 1)], "valid": [(0, 0, 1), (-1, 0, 2)]})

    def test_entity_id_past_the_vocabulary_names_the_split(self):
        with pytest.raises(KGError, match=r"split 'test' row 0: tail id 3 is outside \[0, 3\)"):
            KnowledgeGraph(self.vocab, {"train": [(0, 0, 1)], "test": [(0, 1, 3)]})

    def test_predicate_id_past_the_vocabulary_names_the_split(self):
        with pytest.raises(KGError, match=r"split 'train' row 0: predicate id 2 is outside \[0, 2\)"):
            KnowledgeGraph(self.vocab, {"train": [(0, 2, 1)]})

    @pytest.mark.parametrize("rows", [[(0, 0)], [(0, 0, 1), (0, 1)], [(0, 0, 1, 2)], np.array([0, 0, 1])],
                             ids=["two-wide", "ragged", "four-wide", "flat"])
    def test_row_not_three_wide_names_the_split(self, rows):
        with pytest.raises(KGError, match="split 'train'"):
            KnowledgeGraph(self.vocab, {"train": rows})

    @pytest.mark.parametrize("row", [("a", 0, 1), (None, 0, 1), (2**70, 0, 1), (0.7, 0, 1), ("1", "0", "1")],
                             ids=["string", "none", "int64-overflow", "float", "digit-string"])
    def test_row_of_non_int64_ids_names_the_split(self, row):
        with pytest.raises(KGError, match="split 'valid': rows are not"):
            KnowledgeGraph(self.vocab, {"valid": [(0, 0, 1), row]})


class TestMakeQueries:
    def test_both_directions(self):
        qa = make_queries(np.array([(0, 0, 1)]), both_directions=True)
        assert len(qa) == 2
        assert qa.pairs[0] == (Query(Direction.TAIL, 0, 0), 1)
        assert qa.pairs[1] == (Query(Direction.HEAD, 1, 0), 0)

    def test_tail_only(self):
        qa = make_queries(np.array([(0, 0, 1)]), both_directions=False)
        assert len(qa) == 1
        assert qa.pairs[0][0].direction is Direction.TAIL

    def test_two_per_triple(self):
        triples = np.array([(i, 0, i + 1) for i in range(5)])
        assert len(make_queries(triples, both_directions=True)) == 10

    def test_deterministic_order(self):
        triples = np.array([(2, 1, 0), (0, 0, 1)])
        a = make_queries(triples).pairs
        b = make_queries(triples).pairs
        assert a == b


class TestRankOf:
    def test_max_element_rank_one(self):
        assert rank_of(np.array([0.9, 0.5, 0.5, 0.1]), 0) == 1

    def test_ties_counted_pessimistically(self):
        # oracle: linear scan of the >=-set
        scores = np.array([0.9, 0.5, 0.5, 0.1])
        assert rank_of(scores, 2) == sum(s >= scores[2] for s in scores) == 3

    def test_mask_removes_candidates(self):
        scores = np.array([0.9, 0.5, 0.5, 0.1])
        assert rank_of(scores, 3, filter_mask={0}) == 3

    def test_nonfinite_rejected(self):
        with pytest.raises(KGError, match="non-finite"):
            rank_of(np.array([np.nan, 1.0]), 1)

    def test_masked_answer_rejected(self):
        with pytest.raises(KGError):
            rank_of(np.array([1.0, 2.0]), 0, filter_mask={0})

    def test_rank_bounds_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            scores = rng.normal(size=n)
            mask = set(map(int, rng.choice(n, size=int(rng.integers(0, n // 2 + 1)), replace=False)))
            answers = [a for a in range(n) if a not in mask]
            a = int(rng.choice(answers))
            r = rank_of(scores, a, mask)
            assert 1 <= r <= n - len(mask)

    def test_candidate_ranks_match_rank_of(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=25)
        mask = {3, 7}
        ranks = candidate_ranks(scores, mask)
        for e in range(25):
            if e in mask:
                assert ranks[e] == 0
            else:
                assert ranks[e] == rank_of(scores, e, mask)


class TestSplits:
    def test_reproducible(self):
        triples = np.array([(i, 0, (i + 1) % 20) for i in range(20)])
        cfg = SplitConfig(seed=42)
        a, b = split_triples(triples, cfg), split_triples(triples, cfg)
        assert a.keys() == b.keys() and all(np.array_equal(a[name], b[name]) for name in a)

    def test_disjoint_cover(self):
        triples = np.array([(i, 0, (i + 1) % 30) for i in range(30)])
        splits = split_triples(triples, SplitConfig(seed=1))
        merged = np.concatenate([splits["train"], splits["valid"], splits["test"]])
        assert sorted(merged.tolist()) == sorted(triples.tolist())

    def test_bad_fractions(self):
        with pytest.raises(KGError):
            SplitConfig(train_fraction=0.5, calib_fraction=0.5, test_fraction=0.5)
        with pytest.raises(KGError):
            SplitConfig(train_fraction=-0.1, calib_fraction=0.6, test_fraction=0.5)


def test_answer_index_collects_all_splits():
    train, test = np.array([(0, 0, 1)]), np.array([(0, 0, 2)])
    # query ('tail', 0, 0) knows {1, 2}, one answer from each split, and its row masks both; ('head', 2, 0) knows {0}
    indptr, indices = filter_masks(np.array([(0, 0, 0), (1, 2, 0)]), np.concatenate([train, test]))
    assert indptr.tolist() == [0, 2, 3] and indices.tolist() == [1, 2, 0]

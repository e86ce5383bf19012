import re
from dataclasses import asdict

import numpy as np
import pytest

from kgconformal.experiment import ExperimentConfig, load_or_generate_kg
from kgconformal.kg import load_kg
from kgconformal.synth import SyntheticKGSpec, generate_triples, write_dataset


def spec(**kw):
    base = dict(n_entities=50, n_predicates=3, triple_counts=[120, 60, 20],
                noise_rates=0.1, n_clusters=5, seed=0)
    base.update(kw)
    return SyntheticKGSpec(**base)


class TestGenerate:
    def test_counts_per_predicate(self):
        triples = generate_triples(spec())
        counts = np.bincount(triples[:, 1], minlength=3)
        assert counts.tolist() == [120, 60, 20]

    def test_deterministic(self):
        assert np.array_equal(generate_triples(spec()), generate_triples(spec()))

    def test_seed_changes_output(self):
        assert not np.array_equal(generate_triples(spec()), generate_triples(spec(seed=1)))

    def test_no_duplicates_and_in_range(self):
        triples = generate_triples(spec())
        assert len(np.unique(triples, axis=0)) == len(triples)
        assert ((0 <= triples[:, [0, 2]]) & (triples[:, [0, 2]] < 50)).all()

    def test_noise_widens_tail_support(self):
        # with heavy noise the ruled predicate hits many more distinct tails
        clean = generate_triples(spec(noise_rates=0.0, n_clusters=2, triple_counts=[200, 60, 20]))
        noisy = generate_triples(spec(noise_rates=0.8, n_clusters=2, triple_counts=[200, 60, 20]))
        tails = lambda ts: len(set(ts[ts[:, 1] == 0, 2].tolist()))
        assert tails(noisy) > tails(clean)

    def test_validation(self):
        with pytest.raises(ValueError):
            spec(triple_counts=[10, 10])  # wrong length
        with pytest.raises(ValueError):
            spec(noise_rates=1.5)
        with pytest.raises(ValueError):
            spec(triple_counts=[0, 10, 10])

    @pytest.mark.parametrize("kw, message", [
        ({"noise_rates": [0.1, 0.2]}, "noise_rates must hold one rate per predicate (3), got 2"),
        ({"noise_rates": [0.1, 0.2, 0.3, 0.4]}, "noise_rates must hold one rate per predicate (3), got 4"),
        ({"n_entities": 0}, "n_entities must be >= 1, got 0"),
        ({"n_clusters": 0}, "n_clusters must be >= 1, got 0"),
        ({"n_predicates": 0, "triple_counts": [], "noise_rates": []}, "n_predicates must be >= 1, got 0"),
    ], ids=["noise-short", "noise-long", "entities", "clusters", "predicates"])
    def test_sizes_name_their_field(self, kw, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            spec(**kw)

    def test_impossible_count_raises(self):
        with pytest.raises(ValueError, match=re.escape("predicate 0: cannot place triple_counts[0] = 100")):
            generate_triples(SyntheticKGSpec(
                n_entities=3, n_predicates=1, triple_counts=[100],
                noise_rates=0.0, n_clusters=1, seed=0,
            ))


class TestWriteDataset:
    def test_manifest_loads_round_trip(self, tmp_path):
        manifest = write_dataset(spec(), tmp_path / "data")
        kg = load_kg(manifest)
        assert set(kg.splits) == {"train", "valid", "test"}
        total = sum(len(v) for v in kg.splits.values())
        assert total == 200
        assert kg.vocab.n_entities == 50
        assert kg.vocab.n_predicates == 3

    def test_split_fractions(self, tmp_path):
        manifest = write_dataset(spec(), tmp_path / "data")
        kg = load_kg(manifest)
        assert len(kg.splits["train"]) == 120
        assert len(kg.splits["valid"]) == 40
        assert len(kg.splits["test"]) == 40

    def test_entity_names_sort_like_indices(self, tmp_path):
        manifest = write_dataset(spec(), tmp_path / "data")
        kg = load_kg(manifest)
        assert list(kg.vocab.entities) == sorted(kg.vocab.entities)
        assert kg.vocab.entities[7] == "e00007"

    def test_rewrites_are_byte_identical(self, tmp_path):
        m1 = write_dataset(spec(), tmp_path / "a")
        m2 = write_dataset(spec(), tmp_path / "b")
        for name in ("train.tsv", "valid.tsv", "test.tsv", "entities.txt"):
            assert (m1.parent / name).read_bytes() == (m2.parent / name).read_bytes()

    def test_written_dataset_equals_in_memory_synthetic_kg(self, tmp_path):
        written = load_kg(write_dataset(spec(), tmp_path / "data"))
        config = ExperimentConfig(synthetic=asdict(spec()))
        in_memory = load_or_generate_kg(config, seed=0)
        assert written.vocab == in_memory.vocab
        assert written.splits.keys() == in_memory.splits.keys()
        assert all(np.array_equal(written.splits[name], in_memory.splits[name]) for name in written.splits)

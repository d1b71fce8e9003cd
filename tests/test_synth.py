import numpy as np
import pytest

from hmmtagger.evaluation import ambiguity_rate
from hmmtagger.lexicon import ClassStore
from hmmtagger.synth import (
    dominant_transition_biases,
    make_benchmark,
    sample_class_inventory,
    sample_corpus,
    sample_generator_model,
    synthetic_tagset,
)


class TestInventory:
    def test_every_tag_covered(self):
        rng = np.random.default_rng(0)
        members = sample_class_inventory(rng, 8, 25)
        covered = {t for m in members for t in m}
        assert covered == set(range(8))
        assert len(members) == 25
        assert len(set(members)) == 25

    def test_too_few_classes_rejected(self):
        with pytest.raises(ValueError):
            sample_class_inventory(np.random.default_rng(0), 10, 9)

    def test_twins_share_every_class(self):
        rng = np.random.default_rng(1)
        members = sample_class_inventory(rng, 10, 30, twin_pairs=2)
        for a, b in ((6, 7), (8, 9)):
            with_a = {m for m in members if a in m}
            with_b = {m for m in members if b in m}
            assert with_a == with_b
            assert (a, b) in members

    def test_twin_bounds(self):
        with pytest.raises(ValueError):
            sample_class_inventory(np.random.default_rng(0), 4, 10, twin_pairs=3)


class TestGenerator:
    def test_model_is_valid(self):
        rng = np.random.default_rng(3)
        ts = synthetic_tagset(6)
        members = sample_class_inventory(rng, 6, 15)
        sample_generator_model(rng, ts, members)  # the model checks itself when built

    def test_corpus_ambiguity_tracks_target(self):
        rng = np.random.default_rng(5)
        ts = synthetic_tagset(8)
        members = sample_class_inventory(rng, 8, 24)
        for target in (1.3, 1.5):
            model = sample_generator_model(rng, ts, members, ambiguity=target)
            corpus = sample_corpus(rng, model, 30_000)
            store = ClassStore.from_members(members)
            rate = ambiguity_rate([[c for _t, c in s] for s in corpus], store)
            assert rate == pytest.approx(target, abs=0.05)

    def test_corpus_token_budget(self):
        rng = np.random.default_rng(7)
        ts = synthetic_tagset(4)
        members = sample_class_inventory(rng, 4, 8)
        model = sample_generator_model(rng, ts, members)
        corpus = sample_corpus(rng, model, 1000)
        total = sum(len(s) for s in corpus)
        assert total == 1000
        assert all(1 <= len(s) <= 20 for s in corpus)

    def test_gold_tags_belong_to_classes(self):
        bench = make_benchmark(seed=9, n_tags=5, n_classes=12, train_tokens=500,
                               tagged_tokens=500, heldout_tokens=500)
        for sent in bench.train_tagged:
            for tag, c in sent:
                assert tag in bench.class_members[c]

    def test_same_seed_same_benchmark(self):
        a = make_benchmark(seed=4, n_tags=5, n_classes=12, train_tokens=800,
                           tagged_tokens=400, heldout_tokens=400)
        b = make_benchmark(seed=4, n_tags=5, n_classes=12, train_tokens=800,
                           tagged_tokens=400, heldout_tokens=400)
        assert a.class_members == b.class_members
        assert np.array_equal(a.generator.transition, b.generator.transition)
        assert a.train_tagged == b.train_tagged
        assert a.heldout == b.heldout


class TestDominantBiases:
    def test_top_successor_biased(self):
        bench = make_benchmark(seed=11, n_tags=5, n_classes=12, train_tokens=500,
                               tagged_tokens=500, heldout_tokens=500)
        biases = dominant_transition_biases(bench.generator, top_n=1, weight=3.0)
        assert len(biases.transition_biases) == 5
        for b in biases.transition_biases:
            assert b.target == int(np.argmax(bench.generator.transition[b.source]))
            assert b.weight == 3.0

    def test_top2_weights_decay(self):
        bench = make_benchmark(seed=11, n_tags=5, n_classes=12, train_tokens=500,
                               tagged_tokens=500, heldout_tokens=500)
        biases = dominant_transition_biases(bench.generator, top_n=2, weight=4.0)
        assert len(biases.transition_biases) == 10
        weights = {b.weight for b in biases.transition_biases}
        assert weights == {4.0, 2.0}

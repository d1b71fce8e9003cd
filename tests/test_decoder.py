import io

import numpy as np
import pytest

from hmmtagger.decoder import viterbi
from hmmtagger.errors import DataError, ImpossibleSequenceError
from hmmtagger.lexicon import ClassStore, classify, load_guesser_rules, load_lexicon
from hmmtagger.model import BiasSet, HmmModel, TransitionBias, apply_biases, uniform_model
from hmmtagger.tagset import Tag, TagSet, load_tagset

from oracles import brute_viterbi


def tiny_tagset(n):
    return TagSet([Tag(i, f"T{i:02d}") for i in range(n)])


class TestViterbi:
    def test_singleton_classes_force_the_path(self):
        rng = np.random.default_rng(2)
        ts = tiny_tagset(3)
        classes = [(0,), (1,), (2,)]
        for _ in range(5):
            transition = rng.dirichlet(np.ones(3), size=3)
            m = HmmModel(ts.labels, classes, rng.dirichlet(np.ones(3)),
                         transition, np.eye(3))
            decoding = viterbi(m, [2, 0, 1, 1])
            assert decoding.tags == (2, 0, 1, 1)

    def test_single_tag_model(self):
        m = uniform_model(tiny_tagset(1), [(0,)])
        decoding = viterbi(m, [0, 0, 0])
        assert decoding.tags == (0, 0, 0)
        assert decoding.log_prob == pytest.approx(0.0)

    def test_log_prob_is_nonpositive(self):
        rng = np.random.default_rng(4)
        from oracles import random_instance

        for _ in range(20):
            model, seq = random_instance(rng)
            try:
                decoding = viterbi(model, seq)
            except ImpossibleSequenceError:
                continue
            assert decoding.log_prob <= 0.0

    def test_matches_enumeration_on_random_instances(self):
        from oracles import random_instance

        rng = np.random.default_rng(17)
        checked = 0
        while checked < 60:
            model, seq = random_instance(rng, max_tags=3, max_len=6,
                                         allow_zeros=True)
            oracle = brute_viterbi(model, seq)
            if oracle is None:
                with pytest.raises(ImpossibleSequenceError):
                    viterbi(model, seq)
                continue
            decoding = viterbi(model, seq)
            assert list(decoding.tags) == oracle[0]
            assert decoding.log_prob == pytest.approx(oracle[1], abs=1e-9)
            checked += 1

    def test_tie_break_prefers_lowest_tag_id(self):
        from oracles import random_instance

        # quantized probabilities manufacture exact ties
        rng = np.random.default_rng(29)
        tied = 0
        checked = 0
        while checked < 60:
            model, seq = random_instance(rng, max_tags=3, max_len=5, quantized=True)
            oracle = brute_viterbi(model, seq)
            if oracle is None:
                continue
            decoding = viterbi(model, seq)
            assert list(decoding.tags) == oracle[0]
            assert decoding.log_prob == pytest.approx(oracle[1], abs=1e-9)
            checked += 1
        # symmetric model with a genuine tie: both tags emit the shared class
        ts = tiny_tagset(2)
        m = uniform_model(ts, [(0, 1)])
        assert viterbi(m, [0, 0]).tags == (0, 0)

    def test_constraint_satisfaction(self):
        from oracles import random_instance

        rng = np.random.default_rng(31)
        for _ in range(30):
            model, seq = random_instance(rng)
            try:
                decoding = viterbi(model, seq)
            except ImpossibleSequenceError:
                continue
            for tag, c in zip(decoding.tags, seq):
                assert tag in model.class_members[c]

    def test_determinism(self):
        from oracles import random_instance

        rng = np.random.default_rng(37)
        model, seq = random_instance(rng, max_tags=4, max_len=8)
        first = viterbi(model, seq)
        for _ in range(3):
            again = viterbi(model, seq)
            assert again.tags == first.tags
            assert again.log_prob == first.log_prob

    def test_masked_dead_end_reports_position(self):
        m = apply_biases(
            uniform_model(tiny_tagset(2), [(0,), (1,)]),
            BiasSet([TransitionBias(0, 1, 0.0)], ()))
        with pytest.raises(ImpossibleSequenceError) as err:
            viterbi(m, [0, 0, 1])
        assert err.value.position == 2

    def test_empty_sentence_rejected(self):
        m = uniform_model(tiny_tagset(1), [(0,)])
        with pytest.raises(DataError):
            viterbi(m, [])

    def test_unknown_class_rejected(self):
        m = uniform_model(tiny_tagset(1), [(0,)])
        with pytest.raises(DataError, match="class id"):
            viterbi(m, [0, 3])

    def test_long_sentence_no_underflow(self):
        from oracles import random_instance

        rng = np.random.default_rng(41)
        model, _ = random_instance(rng, max_tags=3, max_len=1)
        seq = rng.integers(0, model.n_classes, size=100_000)
        decoding = viterbi(model, seq)
        assert np.isfinite(decoding.log_prob)


def classes_of(lex, rules, words):
    return [classify(lex, rules, w) for w in words]


class TestTagText:
    """Tagging text: classify each word, then decode the class ids."""

    @pytest.fixture()
    def pipeline(self):
        ts = load_tagset(io.StringIO(
            "NN\tnoun\nNE\tproper noun\nVFIN\tfinite verb\nART\tarticle\n"
            "PROS\tpronoun\nPRELS\trelative pronoun\nADJD\tadjective\n"
            "ADV\tadverb\nCARD\tcardinal\n$.\tfull stop\n"))
        store = ClassStore()
        lex = load_lexicon(io.StringIO(
            "die\tART PROS PRELS\nKatze\tNN\nschläft\tVFIN\n.\t$.\n"), ts, store)
        rules = load_guesser_rules(io.StringIO(
            "PATTERN numeric CARD\nDEFAULT U NN NE\nDEFAULT L ADJD ADV\n"), ts, store)
        model = uniform_model(ts, store)
        return model, store, lex, rules, ts

    def test_unambiguous_words_are_forced(self, pipeline):
        model, store, lex, rules, ts = pipeline
        classes = classes_of(lex, rules, ["Katze", "schläft", "."])
        decoding = viterbi(model, classes)
        assert [ts.label(t) for t in decoding.tags] == ["NN", "VFIN", "$."]
        assert all(store.size(c) == 1 for c in classes)

    def test_unknown_capitalized_word_gets_upper_default(self, pipeline):
        model, store, lex, rules, ts = pipeline
        classes = classes_of(lex, rules, ["Xylophon", "schläft", "."])
        assert store.members(classes[0]) == (ts.tag_id("NN"), ts.tag_id("NE"))

    def test_returns_classes_used(self, pipeline):
        model, store, lex, rules, ts = pipeline
        classes = classes_of(lex, rules, ["die", "Katze"])
        assert store.size(classes[0]) == 3
        assert store.size(classes[1]) == 1

    def test_empty_token_list_rejected(self, pipeline):
        model, _, lex, rules, ts = pipeline
        with pytest.raises(DataError):
            viterbi(model, classes_of(lex, rules, []))

    def test_forced_path_is_model_independent(self, pipeline):
        model, store, lex, rules, ts = pipeline
        rng = np.random.default_rng(9)
        n, m = model.n_tags, model.n_classes
        other = HmmModel(model.tag_labels, model.class_members,
                         rng.dirichlet(np.ones(n)),
                         rng.dirichlet(np.ones(n), size=n),
                         model.emission)
        classes = classes_of(lex, rules, ["Katze", "schläft", "."])
        assert viterbi(model, classes).tags == viterbi(other, classes).tags

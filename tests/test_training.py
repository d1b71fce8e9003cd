import numpy as np
import pytest

from hmmtagger.errors import ConfigError, DataError, ImpossibleSequenceError
from hmmtagger import model as model_module
from hmmtagger.model import BiasSet, TransitionBias, apply_biases, chunks, uniform_model
from hmmtagger.tagset import Tag, TagSet
from hmmtagger.training import (
    REGIME_BIAS,
    REGIME_COUNTED,
    REGIME_COUNTED_ONLY,
    TrainingConfig,
    baum_welch,
    counted_init,
    expected_counts,
    forward_backward,
    regime_iterations,
    train_regime,
)

from oracles import brute_em_step, brute_posterior_stats, random_instance


def tiny_tagset(n):
    return TagSet([Tag(i, f"T{i:02d}") for i in range(n)])


def two_tag_toy():
    """2 tags, classes {A}, {B}, {A,B}, non-uniform parameters."""
    from hmmtagger.model import HmmModel

    ts = tiny_tagset(2)
    initial = np.array([0.7, 0.3])
    transition = np.array([[0.4, 0.6], [0.25, 0.75]])
    emission = np.array([[0.8, 0.0, 0.2], [0.0, 0.55, 0.45]])
    return HmmModel(ts.labels, [(0,), (1,), (0, 1)], initial, transition, emission)


class TestForwardBackward:
    def test_single_tag_model_counts(self):
        m = uniform_model(tiny_tagset(1), [(0,)])
        stats = forward_backward(m, [0, 0, 0, 0, 0])
        assert stats.transition_counts[0, 0] == pytest.approx(4.0)
        assert stats.log_likelihood == pytest.approx(0.0)
        assert stats.initial_counts[0] == pytest.approx(1.0)

    def test_two_tag_toy_matches_enumeration(self):
        m = two_tag_toy()
        seq = [2, 0, 2]
        stats = forward_backward(m, seq)
        init, trans, emis, ll = brute_posterior_stats(m, seq)
        np.testing.assert_allclose(stats.initial_counts, init, atol=1e-9)
        np.testing.assert_allclose(stats.transition_counts, trans, atol=1e-9)
        np.testing.assert_allclose(stats.emission_counts, emis, atol=1e-9)
        assert stats.log_likelihood == pytest.approx(ll, abs=1e-9)

    def test_random_instances_match_enumeration(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 40:
            model, seq = random_instance(rng, max_tags=4, max_len=6)
            oracle = brute_posterior_stats(model, seq)
            if oracle is None:
                continue
            stats = forward_backward(model, seq)
            np.testing.assert_allclose(stats.initial_counts, oracle[0], atol=1e-9)
            np.testing.assert_allclose(stats.transition_counts, oracle[1], atol=1e-9)
            np.testing.assert_allclose(stats.emission_counts, oracle[2], atol=1e-9)
            assert stats.log_likelihood == pytest.approx(oracle[3], abs=1e-9)
            checked += 1

    def test_masked_transition_makes_sequence_impossible(self):
        m = apply_biases(
            uniform_model(tiny_tagset(2), [(0,), (1,)]),
            BiasSet([TransitionBias(0, 1, 0.0)], ()))
        with pytest.raises(ImpossibleSequenceError) as err:
            forward_backward(m, [0, 1])
        assert err.value.position == 1

    def test_unknown_class_id_rejected(self):
        m = uniform_model(tiny_tagset(2), [(0,), (1,)])
        with pytest.raises(DataError, match="class id"):
            forward_backward(m, [0, 9])

    def test_empty_sentence_rejected(self):
        m = uniform_model(tiny_tagset(1), [(0,)])
        with pytest.raises(DataError):
            forward_backward(m, [])

    def test_stats_of_separate_sentences_add_up(self):
        m = two_tag_toy()
        a = forward_backward(m, [0, 2])
        b = forward_backward(m, [1, 2])
        combined, skipped = expected_counts(m, [[0, 2], [1, 2]])
        assert skipped == []
        for part in ("initial_counts", "transition_counts", "emission_counts"):
            np.testing.assert_allclose(
                getattr(combined, part), getattr(a, part) + getattr(b, part))
        assert combined.log_likelihood == pytest.approx(a.log_likelihood + b.log_likelihood)

    def test_long_sentence_stays_finite(self):
        m = two_tag_toy()
        rng = np.random.default_rng(3)
        seq = rng.integers(0, 3, size=100_000)
        stats = forward_backward(m, seq)
        assert np.isfinite(stats.log_likelihood)
        assert stats.log_likelihood < 0


class TestBaumWelch:
    def test_zero_iterations_is_identity(self):
        m = two_tag_toy()
        trained, traj, _ = baum_welch(m, [[0, 1, 2]], TrainingConfig(iterations=0))
        assert traj == []
        np.testing.assert_array_equal(trained.transition, m.transition)

    def test_deterministic_model_is_fixed_point(self):
        m = uniform_model(tiny_tagset(1), [(0,)])
        trained, traj, _ = baum_welch(
            m, [[0, 0, 0]], TrainingConfig(iterations=4, smoothing_floor=0.0))
        np.testing.assert_array_equal(trained.transition, m.transition)
        np.testing.assert_array_equal(trained.emission, m.emission)
        assert traj == pytest.approx([0.0] * 4)

    def test_single_iteration_matches_oracle_em_step(self):
        m = two_tag_toy()
        corpus = [[2, 0, 2], [1, 2], [0, 0, 1, 2]]
        trained, traj, _ = baum_welch(
            m, corpus, TrainingConfig(iterations=1, smoothing_floor=0.0))
        init, trans, emis = brute_em_step(m, corpus)
        np.testing.assert_allclose(trained.initial, init, atol=1e-9)
        np.testing.assert_allclose(trained.transition, trans, atol=1e-9)
        np.testing.assert_allclose(trained.emission, emis, atol=1e-9)
        expected_ll = sum(brute_posterior_stats(m, s)[3] for s in corpus)
        assert traj[0] == pytest.approx(expected_ll, abs=1e-9)

    def test_loglik_never_decreases_without_smoothing(self):
        rng = np.random.default_rng(23)
        for _ in range(8):
            model, _ = random_instance(rng, max_tags=4, max_len=1)
            corpus = [
                [int(rng.integers(model.n_classes)) for _ in range(int(rng.integers(2, 10)))]
                for _ in range(6)
            ]
            try:
                _, traj, _ = baum_welch(
                    model, corpus, TrainingConfig(iterations=8, smoothing_floor=0.0))
            except ImpossibleSequenceError:
                continue
            for prev, cur in zip(traj, traj[1:]):
                assert cur >= prev - 1e-8 * abs(prev)

    def test_rows_stochastic_and_mask_preserved_each_iteration(self):
        ts = tiny_tagset(3)
        m = apply_biases(
            uniform_model(ts, [(0,), (1,), (2,), (0, 1), (1, 2)]),
            BiasSet([TransitionBias(0, 2, 0.0), TransitionBias(2, 2, 0.0)], ()))
        corpus = [[0, 3, 1, 4], [3, 4, 2], [1, 1, 0]]
        seen = []

        def check(iteration, model, ll):
            seen.append(iteration)
            model.validate()  # row sums within 1e-9, masked cells exactly 0
            assert model.transition[0, 2] == 0.0
            assert model.transition[2, 2] == 0.0

        baum_welch(m, corpus, TrainingConfig(iterations=6, smoothing_floor=1e-6),
                   on_iteration=check)
        assert seen == list(range(6))

    def test_impossible_sentence_reports_index(self):
        m = apply_biases(
            uniform_model(tiny_tagset(2), [(0,), (1,)]),
            BiasSet([TransitionBias(0, 1, 0.0)], ()))
        with pytest.raises(ImpossibleSequenceError, match="sentence 1"):
            baum_welch(m, [[0, 0], [0, 1]], TrainingConfig(iterations=1))

    def test_skip_impossible_counts_and_continues(self):
        m = apply_biases(
            uniform_model(tiny_tagset(2), [(0,), (1,)]),
            BiasSet([TransitionBias(0, 1, 0.0)], ()))
        trained, traj, skipped = baum_welch(
            m, [[0, 0], [0, 1], [1, 1]],
            TrainingConfig(iterations=2), skip_impossible=True)
        assert skipped == 1  # one distinct sentence, though dropped in each iteration
        assert len(traj) == 2

    def test_empty_corpus_rejected(self):
        m = uniform_model(tiny_tagset(1), [(0,)])
        with pytest.raises(DataError, match="empty"):
            baum_welch(m, [], TrainingConfig(iterations=1))

    def test_reduction_order_does_not_matter(self):
        rng = np.random.default_rng(5)
        model, _ = random_instance(rng, max_tags=4, max_len=1)
        corpus = [
            [int(rng.integers(model.n_classes)) for _ in range(int(rng.integers(2, 12)))]
            for _ in range(10)
        ]
        try:
            a, _, _ = baum_welch(model, corpus, TrainingConfig(iterations=3))
            b, _, _ = baum_welch(model, corpus[::-1], TrainingConfig(iterations=3))
        except ImpossibleSequenceError:
            pytest.skip("seed produced an impossible corpus")
        np.testing.assert_allclose(a.transition, b.transition, atol=1e-9)
        np.testing.assert_allclose(a.emission, b.emission, atol=1e-9)


def prohibited_model(n_tags, seed):
    """Random model over ``n_tags`` tags with singleton and ambiguous classes
    and the transition 0 -> 1 prohibited."""
    from hmmtagger.model import HmmModel

    rng = np.random.default_rng(seed)
    classes = [(t,) for t in range(n_tags)] + [(0, 1), tuple(range(n_tags))]
    initial = rng.random(n_tags) + 0.05
    transition = rng.random((n_tags, n_tags)) + 0.05
    emission = np.zeros((n_tags, len(classes)))
    for c, members in enumerate(classes):
        emission[list(members), c] = rng.random(len(members)) + 0.05
    model = HmmModel(tiny_tagset(n_tags).labels, classes, initial / initial.sum(),
                     transition / transition.sum(axis=1, keepdims=True),
                     emission / emission.sum(axis=1, keepdims=True))
    return apply_biases(model, BiasSet([TransitionBias(0, 1, 0.0)], ()))


class TestPackedEStep:
    @pytest.mark.parametrize("n_tags, max_len", [(2, 12), (4, 6)])
    def test_mixed_corpus_matches_oracle(self, monkeypatch, n_tags, max_len):
        # a chunk holds max_len tokens, so the corpus spans several chunks and
        # the one longer sentence is a chunk by itself
        monkeypatch.setattr(model_module, "CHUNK_CELLS", n_tags * max_len)
        model = prohibited_model(n_tags, seed=n_tags)
        rng = np.random.default_rng(7)
        lengths = [*range(1, max_len + 1)] * 3 + [max_len + 2]
        rng.shuffle(lengths)
        corpus, oracles = [], []
        for length in lengths:
            while True:
                seq = rng.integers(model.n_classes, size=length).tolist()
                oracle = brute_posterior_stats(model, seq)
                if oracle is not None:
                    break
            corpus.append(seq)
            oracles.append(oracle)
        sizes = [len(c) for _, c in chunks(corpus, n_tags)]
        assert len(sizes) >= 4 and 1 in sizes

        stats, skipped = expected_counts(model, corpus)
        assert skipped == []
        for part, got in enumerate((stats.initial_counts, stats.transition_counts,
                                    stats.emission_counts)):
            np.testing.assert_allclose(got, sum(o[part] for o in oracles), rtol=0, atol=1e-9)
        assert stats.log_likelihood == pytest.approx(sum(o[3] for o in oracles), abs=1e-9)
        assert stats.transition_counts[model.transition_zero_mask].tolist() == [0.0]

    # 0-0-1-0 dies at position 2, on the prohibited 0 -> 1.  Each corpus below
    # is one chunk, in which the dead sentence's length puts it in a middle row.
    DEAD = [0, 0, 1, 0]
    CORPUS = [[0, 2, 1], [3, 3, 3, 3, 3], [2], [1, 0, 3, 2, 2, 0]]

    def test_skipped_dead_sentence_leaves_other_counts_alone(self):
        model = prohibited_model(3, seed=1)
        with_dead = self.CORPUS[:2] + [self.DEAD] + self.CORPUS[2:]
        got, skipped = expected_counts(model, with_dead, skip_impossible=True)
        want, _ = expected_counts(model, self.CORPUS)
        assert skipped == [2]
        for a, b in ((got.initial_counts, want.initial_counts),
                     (got.transition_counts, want.transition_counts),
                     (got.emission_counts, want.emission_counts)):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)
        assert got.log_likelihood == pytest.approx(want.log_likelihood, rel=1e-12)

    def test_first_dead_sentence_in_corpus_order_is_named(self):
        model = prohibited_model(3, seed=1)
        # the later dead sentence dies at an earlier position
        corpus = self.CORPUS[:2] + [self.DEAD] + self.CORPUS[2:] + [[1, 1], [0, 1]]
        with pytest.raises(ImpossibleSequenceError, match="sentence 2: .* position 2") as err:
            expected_counts(model, corpus)
        assert (err.value.sentence_index, err.value.position) == (2, 2)

    @pytest.mark.parametrize("bad, message", [
        ([2, 9], "sentence 3: unknown class id 9 at position 1"),
        ([2, -1, 9], "sentence 3: unknown class id -1 at position 1"),
        ([], "sentence 3: sentence must be a non-empty sequence of class ids"),
    ])
    def test_invalid_sentence_is_named(self, bad, message):
        model = prohibited_model(3, seed=1)
        corpus = self.CORPUS[:3] + [bad] + self.CORPUS[3:] + [[]]
        with pytest.raises(DataError, match=message) as err:
            expected_counts(model, corpus)
        assert err.value.sentence_index == 3

    def test_first_failure_in_chunk_order_whatever_its_kind(self):
        # an impossible sentence comes before an invalid one in the same chunk
        model = prohibited_model(3, seed=1)
        corpus = [self.CORPUS[0], self.DEAD, self.CORPUS[1], [2, 9], self.CORPUS[2]]
        with pytest.raises(ImpossibleSequenceError,
                           match="^sentence 1: all tag states die at position 2$") as err:
            expected_counts(model, corpus)
        assert (err.value.sentence_index, err.value.position) == (1, 2)
        # skipping the impossible one leaves the invalid one to fail
        with pytest.raises(DataError, match="^sentence 3: unknown class id 9 at position 1$"):
            expected_counts(model, corpus, skip_impossible=True)


class TestCountedInit:
    def test_hand_counted_bigrams(self):
        # one sentence  a/X b/Y a/X  with singleton classes
        ts = tiny_tagset(2)
        tagged = [[(0, 0), (1, 1), (0, 0)]]
        m = counted_init(tagged, ts, [(0,), (1,)], smoothing_floor=0.0)
        np.testing.assert_allclose(m.initial, [1.0, 0.0])
        np.testing.assert_allclose(m.transition[0], [0.0, 1.0])
        np.testing.assert_allclose(m.transition[1], [1.0, 0.0])
        np.testing.assert_allclose(m.emission[0], [1.0, 0.0])
        m.validate()

    def test_smoothing_floor_fills_allowed_cells(self):
        ts = tiny_tagset(2)
        tagged = [[(0, 0), (1, 1)]]
        m = counted_init(tagged, ts, [(0,), (1,), (0, 1)], smoothing_floor=1e-6)
        assert m.transition[1, 0] > 0  # unseen but smoothed
        assert m.emission[0, 2] > 0  # ambiguous class is allowed for tag 0
        assert m.emission[0, 1] == 0.0  # tag 0 is not a member of class {1}
        m.validate()

    def test_gold_tag_outside_class_rejected(self):
        ts = tiny_tagset(2)
        with pytest.raises(DataError, match="sentence 0 token 1"):
            counted_init([[(0, 0), (1, 0)]], ts, [(0,), (1,)])

    def test_unseen_tag_gets_uniform_rows(self):
        ts = tiny_tagset(3)
        tagged = [[(0, 0), (1, 1)]]
        m = counted_init(tagged, ts, [(0,), (1,), (2,)], smoothing_floor=0.0)
        np.testing.assert_allclose(m.transition[2], np.full(3, 1 / 3))
        np.testing.assert_allclose(m.emission[2], [0, 0, 1])
        m.validate()

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            counted_init([], tiny_tagset(1), [(0,)])

    @pytest.mark.parametrize("floor", [float("nan"), -1.0, float("inf")])
    def test_bad_smoothing_floor_rejected(self, floor):
        with pytest.raises(ValueError, match="smoothing_floor must be finite and >= 0"):
            counted_init([[(0, 0), (1, 1)]], tiny_tagset(2), [(0,), (1,)], smoothing_floor=floor)

    @pytest.mark.parametrize("member", [-1, 5])
    def test_member_outside_tag_set_rejected(self, member):
        # as uniform_model does; -1 used to wrap onto the last tag in the mask
        classes = [(0,), (1,), (2,), (member,)]
        message = f"^class 3 references tag id {member} outside the tag set$"
        with pytest.raises(ConfigError, match=message):
            counted_init([[(0, 0), (1, 1)]], tiny_tagset(3), classes)
        with pytest.raises(ConfigError, match=message):
            uniform_model(tiny_tagset(3), classes)

    def test_recovers_generator_within_tolerance(self):
        # sample a corpus from known parameters; counted frequencies converge
        from hmmtagger.synth import make_benchmark

        bench = make_benchmark(seed=101, n_tags=5, n_classes=12,
                               train_tokens=0, tagged_tokens=150_000,
                               heldout_tokens=0)
        m = counted_init(bench.train_tagged, bench.tagset, bench.class_members,
                         smoothing_floor=0.0)
        np.testing.assert_allclose(m.transition, bench.generator.transition, atol=0.02)
        np.testing.assert_allclose(m.emission, bench.generator.emission, atol=0.02)


class TestTrainRegime:
    def test_counted_only_equals_counted_init(self):
        ts = tiny_tagset(2)
        tagged = [[(0, 0), (1, 1), (0, 0)]]
        direct = counted_init(tagged, ts, [(0,), (1,)])
        via_regime, traj, skipped = train_regime(REGIME_COUNTED_ONLY, ts, [(0,), (1,)],
                                                 tagged=tagged)
        assert (traj, skipped) == ([], 0)
        np.testing.assert_array_equal(direct.transition, via_regime.transition)
        np.testing.assert_array_equal(direct.emission, via_regime.emission)

    def test_bias_regime_with_empty_biases_equals_unbiased(self):
        ts = tiny_tagset(2)
        classes = [(0,), (1,), (0, 1)]
        corpus = [[0, 2, 1], [2, 2], [1, 0]]
        cfg = TrainingConfig(iterations=3)
        a, _, _ = train_regime(REGIME_BIAS, ts, classes, corpus=corpus, config=cfg)
        b, _, _ = baum_welch(uniform_model(ts, classes), corpus, cfg)
        np.testing.assert_array_equal(a.transition, b.transition)
        np.testing.assert_array_equal(a.emission, b.emission)

    def test_counted_regime_defaults_to_one_iteration(self):
        ts = tiny_tagset(2)
        classes = [(0,), (1,), (0, 1)]
        tagged = [[(0, 0), (1, 1)], [(1, 2), (0, 0)]]
        corpus = [[0, 2, 1], [1, 0]]
        _, traj, _ = train_regime(REGIME_COUNTED, ts, classes, corpus=corpus, tagged=tagged)
        assert len(traj) == 1

    def test_missing_inputs_rejected(self):
        ts = tiny_tagset(1)
        with pytest.raises(ValueError):
            train_regime(REGIME_BIAS, ts, [(0,)])
        with pytest.raises(ValueError):
            train_regime(REGIME_COUNTED, ts, [(0,)], corpus=[[0]])
        with pytest.raises(ValueError):
            train_regime(REGIME_COUNTED_ONLY, ts, [(0,)])
        with pytest.raises(ValueError):
            train_regime("fancy", ts, [(0,)])

    def test_counted_only_takes_smoothing_floor_from_config(self):
        ts = tiny_tagset(2)
        tagged = [[(0, 0), (1, 1), (0, 0)]]
        direct = counted_init(tagged, ts, [(0,), (1,)], smoothing_floor=0.0)
        via_regime, _, _ = train_regime(
            REGIME_COUNTED_ONLY, ts, [(0,), (1,)], tagged=tagged,
            config=TrainingConfig(iterations=0, smoothing_floor=0.0))
        np.testing.assert_array_equal(direct.transition, via_regime.transition)
        np.testing.assert_array_equal(direct.emission, via_regime.emission)

    @pytest.mark.parametrize("regime", [REGIME_COUNTED, REGIME_COUNTED_ONLY])
    def test_biases_only_with_bias_regime(self, regime):
        with pytest.raises(ValueError, match="takes no biases"):
            train_regime(regime, tiny_tagset(1), [(0,)], tagged=[[(0, 0)]], corpus=[[0]],
                         biases=BiasSet())

    @pytest.mark.parametrize("regime, given, iterations, expected", [
        (REGIME_BIAS, {"corpus"}, None, 20),
        (REGIME_BIAS, {"corpus", "biases"}, 3, 3),
        (REGIME_COUNTED, {"tagged", "corpus"}, None, 1),
        (REGIME_COUNTED, {"tagged", "corpus"}, 0, 0),
        (REGIME_COUNTED_ONLY, {"tagged"}, None, 0),
        (REGIME_COUNTED_ONLY, {"tagged"}, 0, 0),
    ])
    def test_regime_iterations(self, regime, given, iterations, expected):
        assert regime_iterations(regime, given, iterations) == expected

    @pytest.mark.parametrize("regime, given, iterations, named", [
        (REGIME_BIAS, set(), None, "corpus"),
        (REGIME_COUNTED, {"corpus"}, None, "tagged"),
        (REGIME_COUNTED, {"tagged"}, None, "corpus"),
        (REGIME_COUNTED_ONLY, {"corpus"}, None, "tagged"),
        (REGIME_COUNTED, {"tagged", "corpus", "biases"}, None, "biases"),
        (REGIME_COUNTED_ONLY, {"tagged", "biases"}, None, "biases"),
        (REGIME_COUNTED_ONLY, {"tagged"}, 2, "iters"),
    ])
    def test_regime_rules_name_the_input(self, regime, given, iterations, named):
        with pytest.raises(ValueError, match=rf"(?<!-)\b{named}\b"):
            regime_iterations(regime, given, iterations)
        with pytest.raises(ValueError, match=rf"--{named}\b"):
            regime_iterations(regime, given, iterations, as_flags=True)

    def test_counted_only_rejects_config(self):
        ts = tiny_tagset(1)
        with pytest.raises(ValueError, match="re-estimation"):
            train_regime(REGIME_COUNTED_ONLY, ts, [(0,)], tagged=[[(0, 0)]],
                         config=TrainingConfig(iterations=5))


def test_training_config_validation():
    with pytest.raises(ValueError):
        TrainingConfig(iterations=-1)
    with pytest.raises(ValueError, match="iterations"):
        TrainingConfig(iterations=2.5)
    with pytest.raises(ValueError, match="iterations"):
        TrainingConfig(iterations=True)
    with pytest.raises(ValueError):
        TrainingConfig(smoothing_floor=-0.1)
    with pytest.raises(ValueError, match="smoothing_floor"):
        TrainingConfig(smoothing_floor=float("nan"))
    with pytest.raises(ValueError, match="smoothing_floor"):
        TrainingConfig(smoothing_floor=float("inf"))

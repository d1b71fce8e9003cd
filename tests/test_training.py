import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hmmtagger.errors import ConfigError, DataError, ImpossibleSequenceError
from hmmtagger import model as model_module
from hmmtagger.model import (BiasSet, TransitionBias, apply_biases, chunk_bounds, chunks,
                             membership_mask, uniform_model)
from hmmtagger.tagset import Tag, TagSet
from hmmtagger.training import (
    REGIME_BIAS,
    REGIME_COUNTED,
    REGIME_COUNTED_ONLY,
    TrainingConfig,
    baum_welch,
    counted_init,
    e_step_kernel,
    expected_counts,
    forward_backward,
    regime_iterations,
    train_regime,
)

from oracles import (assert_stochastic, brute_em_step, brute_posterior_stats, plain_counted_init,
                     random_instance)
from test_decoder import sample_sentence


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
            assert_stochastic(model)
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
    # at 2 tags (0, 1) is the class of every tag, and an inventory holds a class once
    classes = [(t,) for t in range(n_tags)] + sorted({(0, 1), tuple(range(n_tags))})
    initial = rng.random(n_tags) + 0.05
    transition = rng.random((n_tags, n_tags)) + 0.05
    emission = np.zeros((n_tags, len(classes)))
    for c, members in enumerate(classes):
        emission[list(members), c] = rng.random(len(members)) + 0.05
    model = HmmModel(tiny_tagset(n_tags).labels, classes, initial / initial.sum(),
                     transition / transition.sum(axis=1, keepdims=True),
                     emission / emission.sum(axis=1, keepdims=True))
    return apply_biases(model, BiasSet([TransitionBias(0, 1, 0.0)], ()))


def narrow_model(rng):
    """Random model over 5-8 tags whose classes hold at most two tags, so
    K * K < n_tags and forward-backward runs over class members.  Some
    initial and transition probabilities are 0, and about a fifth of the
    transitions are prohibited; each row keeps its most probable cell."""
    from hmmtagger.model import HmmModel

    n = int(rng.integers(5, 9))
    pairs = {tuple(sorted(rng.choice(n, size=2, replace=False).tolist())) for _ in range(n)}
    classes = [(t,) for t in range(n)] + sorted(pairs)
    initial = rng.random(n) * (rng.random(n) < 0.7) + 0.01 * np.eye(n)[0]
    transition = (rng.random((n, n)) + 0.05) * (rng.random((n, n)) < 0.8) + 0.01 * np.eye(n)
    emission = membership_mask(n, classes) * (rng.random((n, len(classes))) + 0.05)
    model = HmmModel(tiny_tagset(n).labels, classes, initial / initial.sum(),
                     transition / transition.sum(axis=1, keepdims=True),
                     emission / emission.sum(axis=1, keepdims=True))
    keep = transition.argmax(axis=1)
    banned = [TransitionBias(a, b, 0.0) for a in range(n) for b in range(n)
              if b != keep[a] and rng.random() < 0.2]
    return apply_biases(model, BiasSet(banned, ()))


class TestPackedEStep:
    @pytest.mark.parametrize("n_tags, max_len", [(2, 12), (4, 6)])
    def test_mixed_corpus_matches_oracle(self, monkeypatch, n_tags, max_len):
        # a chunk holds max_len tokens, so the corpus spans several chunks and
        # the one longer sentence is a chunk by itself
        model = prohibited_model(n_tags, seed=n_tags)
        width = e_step_kernel(model)[1]
        monkeypatch.setattr(model_module, "CHUNK_CELLS", width * max_len)
        rng = np.random.default_rng(7)
        lengths = [*range(1, max_len + 1)] * 3 + [max_len + 2]
        rng.shuffle(lengths)
        corpus = [sample_sentence(rng, model, length) for length in lengths]
        oracles = [brute_posterior_stats(model, seq) for seq in corpus]
        sizes = [len(c) for _, c in chunks(corpus, width)]
        assert len(sizes) >= 4 and 1 in sizes

        stats, skipped = expected_counts(model, corpus)
        assert skipped == []
        for part, got in enumerate((stats.initial_counts, stats.transition_counts,
                                    stats.emission_counts)):
            np.testing.assert_allclose(got, sum(o[part] for o in oracles), rtol=0, atol=1e-9)
        assert stats.log_likelihood == pytest.approx(sum(o[3] for o in oracles), abs=1e-9)
        assert stats.transition_counts[model.transition_zero_mask].tolist() == [0.0]

    def test_member_kernel_matches_oracle(self, monkeypatch):
        # a chunk holds at most 3 tokens at K = 2, so a 4-token sentence is a
        # chunk by itself and shorter ones share chunks
        monkeypatch.setattr(model_module, "CHUNK_CELLS", 2 * 3)
        rng = np.random.default_rng(12)
        n_live = n_dead = 0
        for _ in range(8):
            model = narrow_model(rng)
            assert e_step_kernel(model)[1] == model.max_class_size == 2
            corpus = [rng.integers(model.n_classes, size=int(rng.integers(1, 5))).tolist()
                      for _ in range(16)]
            oracles = [brute_posterior_stats(model, seq) for seq in corpus]
            stats, skipped = expected_counts(model, corpus, skip_impossible=True)
            assert skipped == [i for i, oracle in enumerate(oracles) if oracle is None]
            live = [oracle for oracle in oracles if oracle is not None]
            for part, got in enumerate((stats.initial_counts, stats.transition_counts,
                                        stats.emission_counts)):
                np.testing.assert_allclose(got, sum(o[part] for o in live), rtol=0, atol=1e-9)
            assert stats.log_likelihood == pytest.approx(sum(o[3] for o in live), abs=1e-9)
            # exactly 0: prohibited and zero-probability transitions, and
            # emissions of a class by a tag outside it
            assert model.transition_zero_mask.any()
            assert not stats.transition_counts[model.transition == 0.0].any()
            assert not stats.emission_counts[~model.allowed_emission_mask()].any()
            n_live, n_dead = n_live + len(live), n_dead + len(skipped)
        assert n_live >= 40 and n_dead >= 20

    def test_output_does_not_depend_on_the_chunk_size(self, monkeypatch):
        # 44 tags in classes of up to 4, as in ELWIS: the member kernel.  Each
        # tag's likeliest successor is prohibited, so some sentences die.
        from hmmtagger.synth import make_benchmark

        bench = make_benchmark(seed=3, n_tags=44, n_classes=300, train_tokens=4_000,
                               tagged_tokens=0, heldout_tokens=0)
        start = bench.generator
        model = apply_biases(start, BiasSet([TransitionBias(a, int(b), 0.0) for a, b in
                                             enumerate(start.transition.argmax(axis=1))], ()))
        assert e_step_kernel(model)[1] == model.max_class_size == 4
        corpus = bench.train_untagged
        want, want_skipped = expected_counts(model, corpus, skip_impossible=True)
        monkeypatch.setattr(model_module, "CHUNK_CELLS", 1)  # one sentence a chunk
        got, got_skipped = expected_counts(model, corpus, skip_impossible=True)
        assert got_skipped == want_skipped and 0 < len(want_skipped) < len(corpus)
        for part in ("initial_counts", "transition_counts", "emission_counts"):
            np.testing.assert_allclose(getattr(got, part), getattr(want, part), rtol=1e-12, atol=0)
        assert got.log_likelihood == pytest.approx(want.log_likelihood, rel=1e-12)

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


    @settings(deadline=None, derandomize=True, max_examples=200)
    @given(lengths=st.lists(st.integers(0, 9), max_size=30), width=st.integers(1, 4),
           cells=st.integers(1, 40))
    def test_chunk_bounds_are_those_of_chunks(self, lengths, width, cells):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model_module, "CHUNK_CELLS", cells)
            want = [first for first, _ in chunks([[0] * n for n in lengths], width)]
            assert chunk_bounds(np.array(lengths, dtype=np.intp), width) == want + [len(lengths)]

    def test_layouts_are_kept_only_for_a_later_pass(self, monkeypatch):
        from hmmtagger.training import Corpus, _Chunks

        model = prohibited_model(3, seed=1)
        monkeypatch.setattr(model_module, "CHUNK_CELLS", 3 * e_step_kernel(model)[1])
        chunked = _Chunks(model, Corpus.of(self.CORPUS), passes=2)
        first = [packed for _, _, packed in chunked]
        assert len(first) > 2 and len(chunked.kept) == len(first)
        second = []
        for _, _, packed in chunked:
            second.append(packed)
            assert len(chunked.kept) == len(first) - len(second)  # dropped once used
        assert all(a is b for a, b in zip(first, second))


class TestSegmentScan:
    """The E-step cut into segments (``model.SEGMENT``, L), here wherever
    a sentence has more than L + 1 tokens."""

    @pytest.fixture(params=[2, 3], ids=["L=2", "L=3"])
    def span(self, request, monkeypatch):
        monkeypatch.setattr(model_module, "SEGMENT", request.param)
        monkeypatch.setattr(model_module, "SCAN_FROM", request.param + 1)
        return request.param

    @pytest.mark.parametrize("rule", ["dense", "member"])
    def test_counts_match_oracle(self, span, rule):
        L, rng = span, np.random.default_rng(span)
        for _ in range(2):
            if rule == "dense":
                model = prohibited_model(3, seed=int(rng.integers(100)))
                lengths = [1, 2, L, L + 1, 2 * L + 1, 3 * L + 1]
            else:  # the oracle enumerates 5 ** length paths
                model = narrow_model(rng)
                while model.n_tags != 5:
                    model = narrow_model(rng)
                lengths = [1, 2, L, L + 1, 2 * L + 1, 7]
            assert e_step_kernel(model)[1] == (model.n_tags if rule == "dense" else 2)
            corpus = [sample_sentence(rng, model, n) for n in lengths]
            rng.shuffle(corpus)
            oracles = [brute_posterior_stats(model, seq) for seq in corpus]
            stats, skipped = expected_counts(model, corpus)
            assert skipped == []
            for part, got in enumerate((stats.initial_counts, stats.transition_counts,
                                        stats.emission_counts)):
                np.testing.assert_allclose(got, sum(o[part] for o in oracles), rtol=0, atol=1e-9)
            assert stats.log_likelihood == pytest.approx(sum(o[3] for o in oracles), abs=1e-9)
            assert not stats.transition_counts[model.transition == 0.0].any()
            assert not stats.emission_counts[~model.allowed_emission_mask()].any()

    def test_dead_sentences_are_skipped_cleanly(self, monkeypatch):
        monkeypatch.setattr(model_module, "SEGMENT", 2)
        monkeypatch.setattr(model_module, "SCAN_FROM", 3)
        model = prohibited_model(3, seed=1)  # classes 0-2 are tags 0-2, 4 is every tag
        # Segments hold positions 0-2, 2-4, 4-6 and 6-8.  The prohibited 0 -> 1
        # kills these at 3, inside a segment, and at 4 and 2, where a segment
        # starts and the one before it ends.
        dead = {3: [4, 4, 0, 1, 4, 4, 4, 4, 4], 4: [4, 4, 4, 0, 1, 4, 4, 4, 4],
                2: TestPackedEStep.DEAD}
        live = [[4] * 9, [3, 4, 2, 4, 3, 0, 4, 4, 4, 2]] + TestPackedEStep.CORPUS
        corpus = live[:1] + [dead[3]] + live[1:4] + [dead[4], dead[2]] + live[4:]
        got, skipped = expected_counts(model, corpus, skip_impossible=True)
        want, _ = expected_counts(model, live)
        assert skipped == [1, 5, 6]
        for part in ("initial_counts", "transition_counts", "emission_counts"):
            assert np.isfinite(getattr(got, part)).all()
            np.testing.assert_allclose(getattr(got, part), getattr(want, part),
                                       rtol=1e-12, atol=1e-12)
        assert got.log_likelihood == pytest.approx(want.log_likelihood, rel=1e-12)
        for position, sentence in dead.items():
            with pytest.raises(ImpossibleSequenceError) as err:
                forward_backward(model, sentence)
            assert err.value.position == position

    @pytest.mark.parametrize("n_tags, n_classes", [(10, 30), (44, 300)])
    def test_matches_the_sequential_recursions(self, monkeypatch, n_tags, n_classes):
        # the default L; chunks of sentences from 1 to 2,000 tokens, some cut
        from hmmtagger.synth import make_benchmark

        bench = make_benchmark(seed=4, n_tags=n_tags, n_classes=n_classes,
                               train_tokens=12_000, tagged_tokens=0, heldout_tokens=0)
        tokens = [c for sentence in bench.train_untagged for c in sentence]
        ends = np.cumsum([2_000, 1, 65, 66, 300, 2, 129, 130, 257, 700] * 3)
        corpus = [tokens[a:b] for a, b in zip([0, *ends[:-1]], ends)]
        got, _ = expected_counts(bench.generator, corpus)
        monkeypatch.setattr(model_module, "SCAN_FROM", len(tokens))
        want, _ = expected_counts(bench.generator, corpus)
        for part in ("initial_counts", "transition_counts", "emission_counts"):
            np.testing.assert_allclose(getattr(got, part), getattr(want, part),
                                       rtol=1e-10, atol=1e-10)
        assert got.log_likelihood == pytest.approx(want.log_likelihood, rel=1e-12)


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

    def test_smoothing_floor_fills_allowed_cells(self):
        ts = tiny_tagset(2)
        tagged = [[(0, 0), (1, 1)]]
        m = counted_init(tagged, ts, [(0,), (1,), (0, 1)], smoothing_floor=1e-6)
        assert m.transition[1, 0] > 0  # unseen but smoothed
        assert m.emission[0, 2] > 0  # ambiguous class is allowed for tag 0
        assert m.emission[0, 1] == 0.0  # tag 0 is not a member of class {1}

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

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            counted_init([], tiny_tagset(1), [(0,)])

    @pytest.mark.parametrize("pair, message", [
        ((2, 0), "bad tag id 2"),
        ((0, 3), "unknown class id 3"),
        ((1.0, 1), "tag and class ids must be integers, not 1.0 and 1"),
        ((0, 1.0), "tag and class ids must be integers, not 0 and 1.0"),
        ((np.float64(0), 0), "tag and class ids must be integers, not "),
        ((True, 1), "tag and class ids must be integers, not True and 1"),
        ((0, np.True_), "tag and class ids must be integers, not 0 and "),
        (("T0", 0), "tag and class ids must be integers, not 'T0' and 0"),
    ])
    def test_bad_token_named_by_position(self, pair, message):
        # the second token of the second sentence
        tagged = [[(0, 0), (1, 1)], [(0, 0), pair]]
        with pytest.raises(DataError) as error:
            counted_init(tagged, tiny_tagset(2), [(0,), (1,), (0, 1)])
        assert str(error.value).startswith(f"sentence 1 token 1: {message}")

    @pytest.mark.parametrize("pair", [(True, 0), (np.True_, 0), (0, True), (0, np.True_)])
    def test_bool_id_rejected(self, pair):
        # a bool passes the range checks; as a tag with one class of both
        # tags, the mask cells it selects are all allowed, so it was counted
        classes = [(0, 1)] if pair[1] == 0 else [(0, 1), (0,)]
        with pytest.raises(DataError, match="^sentence 0 token 0: tag and class ids must be "
                                            "integers, not "):
            counted_init([[pair]], tiny_tagset(2), classes, 0.0)

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

    # the kinds of bad id, each drawn for a tag or for a class id
    BAD_IDS = [True, np.True_, 1.0, np.float64(0), "T0", -1, 2 ** 70]

    @settings(deadline=None, derandomize=True, max_examples=300)
    @given(data=st.data())
    def test_equals_counting_one_token_at_a_time(self, data):
        # the model bit for bit, or the same error for the first bad token
        n = data.draw(st.integers(1, 4))
        extra = data.draw(st.lists(st.frozensets(st.integers(0, n - 1), min_size=2),
                                   max_size=3, unique=True) if n > 1 else st.just([]))
        classes = [(t,) for t in range(n)] + [tuple(sorted(c)) for c in extra]
        classes = data.draw(st.permutations(classes))
        m = len(classes)
        pair = st.integers(0, m - 1).flatmap(
            lambda c: st.tuples(st.sampled_from(classes[c]), st.just(c)))
        tagged = data.draw(st.lists(st.lists(pair, max_size=5), max_size=6))
        kind = data.draw(st.sampled_from(["none", "tag", "class", "member", "numpy"]))
        tokens = [(s, t) for s, sentence in enumerate(tagged) for t in range(len(sentence))]
        if kind != "none" and tokens:
            s, t = data.draw(st.sampled_from(tokens))
            tag, class_id = tagged[s][t]
            if kind == "tag":
                tag = data.draw(st.sampled_from(self.BAD_IDS + [n]))
            elif kind == "class":
                class_id = data.draw(st.sampled_from(self.BAD_IDS + [m]))
            elif kind == "member":
                outside = [c for c in range(m) if tag not in classes[c]]
                class_id = data.draw(st.sampled_from(outside)) if outside else class_id
            else:  # numpy integers are good ids
                tag, class_id = np.int64(tag), np.uint8(class_id)
            tagged[s][t] = (tag, class_id)
        floor = data.draw(st.sampled_from([0.0, 1e-6]))
        ts = tiny_tagset(n)
        try:
            want = plain_counted_init(tagged, ts, classes, floor)
        except DataError as exc:
            with pytest.raises(DataError) as error:
                counted_init(tagged, ts, classes, floor)
            assert (type(error.value), str(error.value)) == (type(exc), str(exc))
            return
        got = counted_init(tagged, ts, classes, floor)
        for table in ("initial", "transition", "emission"):
            assert getattr(got, table).tobytes() == getattr(want, table).tobytes(), table

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

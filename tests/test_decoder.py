import io
from collections import Counter

import numpy as np
import pytest

from hmmtagger import decoder, model as model_module
from hmmtagger.decoder import Decoding, decode, viterbi
from hmmtagger.errors import DataError, ImpossibleSequenceError
from hmmtagger.lexicon import ClassStore, classify, load_guesser_rules, load_lexicon
from hmmtagger.model import (BiasSet, HmmModel, TransitionBias, apply_biases, chunks,
                             uniform_model)
from hmmtagger.tagset import Tag, TagSet, load_tagset
from hmmtagger.training import e_step_kernel, expected_counts, forward_backward

from oracles import brute_viterbi, log_tables


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

    @pytest.mark.parametrize("sentence", [[0.7, 1.2], ["1", "2"], [True, False]],
                             ids=["float", "str", "bool"])
    def test_non_integer_class_ids_rejected_by_decoder_and_e_step(self, sentence):
        m = uniform_model(tiny_tagset(2), [(0,), (1,), (0, 1)])
        results = decode(m, [[0, 1], sentence, []])
        assert isinstance(results[0], Decoding)
        assert type(results[1]) is DataError and results[1].sentence_index == 1
        assert str(results[1]).startswith("class ids must be integers, not ")
        assert str(results[2]) == "sentence must be a non-empty sequence of class ids"
        with pytest.raises(DataError, match="class ids must be integers"):
            viterbi(m, sentence)
        with pytest.raises(DataError, match="sentence 1: class ids must be integers") as err:
            expected_counts(m, [[0, 1], sentence])
        assert err.value.sentence_index == 1

    def test_long_sentence_no_underflow(self):
        from oracles import random_instance

        rng = np.random.default_rng(41)
        model, _ = random_instance(rng, max_tags=3, max_len=1)
        seq = rng.integers(0, model.n_classes, size=100_000)
        decoding = viterbi(model, seq)
        assert np.isfinite(decoding.log_prob)


class TestDecodeChunk:
    def test_each_failure_is_reported_in_place(self):
        m = apply_biases(
            uniform_model(tiny_tagset(2), [(0,), (1,), (0, 1)]),
            BiasSet([TransitionBias(0, 1, 0.0)], ()))
        results = decode(m, [[2, 2], [0, 0, 1], [], [1, 0], [2, 7, 1], [0, 1]])
        assert [type(r).__name__ for r in results] == [
            "Decoding", "ImpossibleSequenceError", "DataError", "Decoding", "DataError",
            "ImpossibleSequenceError"]
        assert [r.sentence_index for r in results if isinstance(r, DataError)] == [1, 2, 4, 5]
        assert (str(results[1]), results[1].position) == ("all tag states die at position 2", 2)
        assert str(results[4]) == "unknown class id 7 at position 1"
        assert results[0].tags == (0, 0) and results[3].tags == (1, 0)

    def test_empty_chunk(self):
        assert decode(uniform_model(tiny_tagset(1), [(0,)]), []) == []

    def test_member_tables_are_read_only_and_cached(self):
        m = uniform_model(tiny_tagset(3), [(0,), (1, 2), (0, 1, 2)])
        members, log_initial, log_transition, log_emission = m.member_tables()
        assert members.tolist() == [[0, 3, 3], [1, 2, 3], [0, 1, 2]]
        assert log_initial[3] == log_transition[-1] == log_emission[0, 1] == -np.inf
        # the probability twin is padded with 0; the log tables are its logs
        members_too, *probabilities = m.member_tables(log=False)
        assert members_too is members
        assert probabilities[0][3] == probabilities[1][-1] == probabilities[2][0, 1] == 0.0
        with np.errstate(divide="ignore"):
            assert all(np.log(p).tobytes() == log_p.tobytes()
                       for p, log_p in zip(probabilities, m.member_tables()[1:]))
        for table in m.member_tables() + m.member_tables(log=False):
            with pytest.raises(ValueError):
                table[0] = 0
        for log in (True, False):
            assert all(a is b for a, b in zip(m.member_tables(log), m.member_tables(log)))


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
        assert all(len(store[c]) == 1 for c in classes)

    def test_unknown_capitalized_word_gets_upper_default(self, pipeline):
        model, store, lex, rules, ts = pipeline
        classes = classes_of(lex, rules, ["Xylophon", "schläft", "."])
        assert store[classes[0]] == (ts.tag_id("NN"), ts.tag_id("NE"))

    def test_returns_classes_used(self, pipeline):
        model, store, lex, rules, ts = pipeline
        classes = classes_of(lex, rules, ["die", "Katze"])
        assert len(store[classes[0]]) == 3
        assert len(store[classes[1]]) == 1

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


def dense_viterbi(model, sentence):
    """The dense decoder that the member-only one replaced, frozen as it was
    but for the validation of ``sentence``, which the caller does: an
    ``(n, n)`` add and argmax over all tags per token."""
    seq = np.asarray(sentence, dtype=np.intp)
    log_initial, log_transition, log_emission = log_tables(model)
    T, n = seq.size, model.n_tags

    score = log_initial + log_emission[:, seq[0]]
    if not np.isfinite(score.max()):
        raise ImpossibleSequenceError("no tag can start this sentence", position=0)
    back = np.empty((T, n), dtype=np.intp)
    for t in range(1, T):
        candidates = score[:, None] + log_transition  # (from, to)
        best_prev = np.argmax(candidates, axis=0)  # ties -> lowest tag id
        score = candidates[best_prev, np.arange(n)] + log_emission[:, seq[t]]
        if not np.isfinite(score.max()):
            raise ImpossibleSequenceError(f"all tag states die at position {t}", position=t)
        back[t] = best_prev

    state = int(np.argmax(score))  # ties -> lowest tag id
    path = np.empty(T, dtype=np.intp)
    path[T - 1] = state
    for t in range(T - 1, 0, -1):
        state = int(back[t, state])
        path[t - 1] = state
    return Decoding(tuple(int(t) for t in path), float(score[path[T - 1]]))


def tied_model(rng, tags=(1, 8), max_class_size=4):
    """A random model over ``tags[0]`` to ``tags[1]`` tags, with classes of
    up to ``max_class_size`` tags, whose probabilities are small multiples
    of a common unit (many exact ties), with zero initial and transition
    probabilities and prohibited transitions."""
    n = int(rng.integers(tags[0], tags[1] + 1))
    classes = [(t,) for t in range(n)]
    for _ in range(int(rng.integers(0, 3 * n))):
        size = int(rng.integers(2, min(max_class_size, n) + 1)) if n > 1 else 1
        members = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
        if members not in classes:
            classes.append(members)

    def coarse(k, zeros=0.0):
        w = rng.integers(1, 4, size=k) * (rng.random(k) >= zeros)
        w[int(rng.integers(k))] += 1  # never all zero
        return w / w.sum()

    mask = (rng.random((n, n)) < 0.2) & (n > 1)
    mask[np.arange(n), rng.integers(n, size=n)] = False  # every row keeps a cell
    transition = np.vstack([coarse(n, 0.1) for _ in range(n)])
    transition[mask] = 0.0
    transition[transition.sum(axis=1) == 0.0, 0] = 1.0
    mask &= transition == 0.0
    transition /= transition.sum(axis=1, keepdims=True)
    emission = np.zeros((n, len(classes)))
    for tag in range(n):
        own = [c for c, members in enumerate(classes) if tag in members]
        emission[tag, own] = coarse(len(own))
    return HmmModel([f"T{i}" for i in range(n)], classes, coarse(n, 0.3), transition,
                    emission, mask)


def sample_sentence(rng, model, length):
    """Class ids along a tag path drawn from ``model``, so some path lives."""
    tag = rng.choice(model.n_tags, p=model.initial)
    sentence = []
    for _ in range(length):
        sentence.append(int(rng.choice(model.n_classes, p=model.emission[tag])))
        tag = rng.choice(model.n_tags, p=model.transition[tag])
    return sentence


class TestAgainstDenseDecoder:
    """Bit-identity with the dense decoder: tags, log-probabilities and dead
    positions, over chunks of many sentences and solo chunks alike."""

    def check(self, model, corpus) -> Counter:
        """Compares every sentence; counts outcomes by (kind, chunk of one)."""
        seen = Counter()
        for first, chunk in chunks(corpus, model.n_tags):
            for i, got in enumerate(decode(model, chunk)):
                sentence = chunk[i]
                seen[type(got).__name__, len(chunk) == 1] += 1
                if not len(sentence) or max(sentence) >= model.n_classes:
                    assert type(got) is DataError and got.sentence_index == i
                    continue
                try:
                    want = dense_viterbi(model, sentence)
                except ImpossibleSequenceError as exc:
                    assert isinstance(got, ImpossibleSequenceError), (first + i, got)
                    assert (got.position, str(got)) == (exc.position, str(exc))
                    continue
                assert isinstance(got, Decoding), (first + i, got)
                assert got.tags == want.tags
                assert np.float64(got.log_prob).tobytes() == np.float64(want.log_prob).tobytes()
        return seen

    def test_random_tied_models_over_mixed_chunks(self, monkeypatch):
        # chunks of at most 40 tokens at 8 tags; a sentence of 400 tokens
        # is a chunk by itself whatever the model's tag count
        monkeypatch.setattr(model_module, "CHUNK_CELLS", 8 * 40)
        rng = np.random.default_rng(2024)
        seen = Counter()
        for _ in range(60):
            model = tied_model(rng)
            m = model.n_classes
            corpus = [rng.integers(m, size=int(rng.integers(1, 13))).tolist()
                      for _ in range(int(rng.integers(20, 80)))]
            corpus += [sample_sentence(rng, model, int(rng.integers(1, 13))) for _ in range(20)]
            corpus += [sample_sentence(rng, model, 400), [0, m], []]  # [0, m]: unknown id
            rng.shuffle(corpus)
            seen += self.check(model, corpus)
        # solo chunks and chunks of many sentences decoded, and sentences
        # died, many times
        assert seen["Decoding", True] >= 30 and seen["Decoding", False] >= 1000
        assert seen["ImpossibleSequenceError", False] >= 100

    def test_ties_between_whole_paths(self):
        # one class holds every tag, so every path scores the same and the
        # lowest tag id wins each decision, in a chunk and alone
        model = uniform_model(tiny_tagset(4), [(0, 1, 2, 3)])
        corpus = [[0] * length for length in range(1, 7)]
        self.check(model, corpus)
        assert [d.tags for d in decode(model, corpus)] == [(0,) * len(s) for s in corpus]
        assert decode(model, corpus[-1:])[0].tags == (0,) * 6


def heavily_prohibited(rng, **shape):
    """``tied_model`` with about half of every transition row prohibited by
    zero-weight biases; each row keeps its most probable cell."""
    model = tied_model(rng, **shape)
    n, keep = model.n_tags, model.transition.argmax(axis=1)
    banned = [TransitionBias(s, t, 0.0) for s in range(n) for t in range(n)
              if t != keep[s] and rng.random() < 0.5]
    return apply_biases(model, BiasSet(banned, ()))


def test_viterbi_and_forward_backward_name_the_same_impossible_sentences(monkeypatch):
    # chunks of at most 40 tokens at 8 tags, or 160 at K = 2; the 60-token
    # sentence is a chunk by itself from 6 tags up in the dense E-step
    monkeypatch.setattr(model_module, "CHUNK_CELLS", 8 * 40)
    rng = np.random.default_rng(1995)
    # tied_model's own shapes, then 5-8 tags in classes of at most two, where
    # K * K < n_tags puts forward-backward over class members
    for shape in ({}, {"tags": (5, 8), "max_class_size": 2}):
        n_dead = 0
        for _ in range(40):
            model = heavily_prohibited(rng, **shape)
            assert not shape or e_step_kernel(model)[1] == model.max_class_size
            m = model.n_classes
            corpus = [rng.integers(m, size=int(rng.integers(1, 13))).tolist()
                      for _ in range(int(rng.integers(20, 60)))]
            corpus += [sample_sentence(rng, model, 8), rng.integers(m, size=60).tolist()]
            rng.shuffle(corpus)
            dead = {first + i: got.position
                    for first, chunk in chunks(corpus, model.n_tags)
                    for i, got in enumerate(decode(model, chunk))
                    if isinstance(got, ImpossibleSequenceError)}

            _, skipped = expected_counts(model, corpus, skip_impossible=True)
            assert skipped == sorted(dead)
            if dead:
                with pytest.raises(ImpossibleSequenceError) as err:
                    expected_counts(model, corpus)
                assert (err.value.sentence_index, err.value.position) == min(dead.items())
            for i, sentence in enumerate(corpus):  # one-sentence chunks
                alone = decode(model, [sentence])[0]
                if i not in dead:
                    assert isinstance(alone, Decoding)
                    continue
                assert isinstance(alone, ImpossibleSequenceError) and alone.position == dead[i]
                with pytest.raises(ImpossibleSequenceError) as err:
                    forward_backward(model, sentence)
                assert err.value.position == dead[i]
            n_dead += len(dead)
        assert n_dead >= 500


def scanning(monkeypatch, span):
    """Make the E-step and the decoder cut every sentence longer than
    ``span + 1`` tokens into segments of ``span`` transitions."""
    monkeypatch.setattr(model_module, "SEGMENT", span)
    monkeypatch.setattr(model_module, "SCAN_FROM", span + 1)


def test_the_segment_scan_names_the_same_impossible_sentences(monkeypatch):
    for span in (2, 3):
        scanning(monkeypatch, span)
        test_viterbi_and_forward_backward_name_the_same_impossible_sentences(monkeypatch)


class TestScanAgainstDenseDecoder(TestAgainstDenseDecoder):
    """The same comparisons, with every sentence of more than L + 1 tokens
    decoded by the segment scan (``model.SEGMENT``, L)."""

    @pytest.fixture(autouse=True, params=[2, 3], ids=["L=2", "L=3"])
    def span(self, request, monkeypatch):
        scanning(monkeypatch, request.param)


@pytest.fixture()
def fallbacks(monkeypatch):
    """The number of sentences in each call of the sequential kernel; in a
    chunk that the scan decodes, the sentences it did not settle."""
    calls = []
    kernel = decoder._decode_packed

    def counted(tables, packed):
        calls.append(int(packed.live[0]))
        return kernel(tables, packed)

    monkeypatch.setattr(decoder, "_decode_packed", counted)
    return calls


def sequential(model, sentences):
    """``decode`` by the sequential kernel alone."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model_module, "SCAN_FROM", 10 ** 9)
        return decode(model, sentences)


def assert_same(got, want):
    """Equal tags, bit-equal log-probabilities, and the same errors."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is type(w)
        if isinstance(w, Decoding):
            assert g.tags == w.tags
            assert np.float64(g.log_prob).tobytes() == np.float64(w.log_prob).tobytes()
        else:
            assert (str(g), g.sentence_index) == (str(w), w.sentence_index)


@pytest.fixture(scope="module")
def wide():
    """A continuous generator, of 44 tags in 300 classes of up to 4, and
    30,000 tokens it emitted."""
    from hmmtagger.synth import make_benchmark

    bench = make_benchmark(seed=5, n_tags=44, n_classes=300, train_tokens=30_000,
                           tagged_tokens=0, heldout_tokens=0)
    return bench.generator, [c for sentence in bench.train_untagged for c in sentence]


class TestCertificate:
    """The scan's path stands only where the certificate settles it; every
    other sentence is decoded again by the sequential kernel."""

    def test_exact_ties_fail_and_decode_as_today(self, monkeypatch, fallbacks):
        scanning(monkeypatch, 2)
        # one class holds every tag, so every decision is a tie
        model = uniform_model(tiny_tagset(4), [(0, 1, 2, 3)])
        corpus = [[0] * length for length in range(1, 12)]
        want = sequential(model, corpus)
        fallbacks.clear()
        assert_same(decode(model, corpus), want)
        assert fallbacks == [8]  # the sentences of 4 to 11 tokens, the ones cut
        # coarse probabilities: some paths tie, others do not
        rng = np.random.default_rng(5)
        redone = cut = 0
        for _ in range(40):
            model = tied_model(rng)
            corpus = [sample_sentence(rng, model, int(rng.integers(1, 30))) for _ in range(20)]
            want = sequential(model, corpus)
            fallbacks.clear()
            assert_same(decode(model, corpus), want)
            redone += sum(fallbacks)
            cut += sum(len(sentence) > 3 for sentence in corpus)
        assert 0 < redone < cut

    def test_a_continuous_model_settles_every_path(self, monkeypatch, fallbacks, wide):
        model, tokens = wide
        ends = np.cumsum([300, 2_000, 66, 700, 5, 1_500, 257, 129, 65])
        corpus = [tokens[a:b] for a, b in zip([0, *ends[:-1]], ends)]
        want = sequential(model, corpus)
        assert all(isinstance(w, Decoding) for w in want)
        fallbacks.clear()
        for span in (2, 3, model_module.SEGMENT):
            scanning(monkeypatch, span)
            assert_same(decode(model, corpus), want)
        assert fallbacks == []

    def test_one_long_sentence_decodes_as_the_sequential_kernel(self, fallbacks, wide):
        model, tokens = wide
        sentence = tokens[:20_000]
        want = sequential(model, [sentence])
        fallbacks.clear()
        assert_same(decode(model, [sentence]), want)
        assert fallbacks == []

    def test_the_scanned_scores_are_within_the_bound(self, wide):
        model, tokens = wide
        sentence, tables = tokens[:20_000], model.member_tables()
        cut = model_module.pack(model, [sentence], model_module.SEGMENT)
        plain = model_module.pack(model, [sentence])
        # every slot score but the last token's, which holds the path's
        scanned = decoder._scan_packed(tables, cut)[1][cut.rows[:-1]]
        exact = decoder._decode_packed(tables, plain)[1][plain.rows[:-1]]
        n = 2 * len(sentence) + 1
        g = 2 * n * 2.0 ** -53 / (1 - n * 2.0 ** -53)
        live = exact > -np.inf
        assert (live == (scanned > -np.inf)).all()
        assert (np.abs(scanned[live] - exact[live]) <= g * np.abs(exact[live])).all()
        assert (scanned != exact).any()  # the scan sums in another order

    @pytest.mark.parametrize("length", [100, 20_000])
    def test_the_margin_must_exceed_twice_the_bound(self, length):
        n = 2 * length + 1
        g = 2 * n * 2.0 ** -53 / (1 - n * 2.0 ** -53)
        runner_up = np.array([-1.0, -1234.5, -8e4])
        margin = 2 * g * np.abs(runner_up)
        assert decoder._settled(runner_up + 1.05 * margin, runner_up, length).all()
        assert not decoder._settled(runner_up + 0.95 * margin, runner_up, length).any()
        assert not decoder._settled(runner_up, runner_up, length).any()  # an exact tie
        assert decoder._settled(np.array([-5.0]), np.array([-np.inf]), length).all()

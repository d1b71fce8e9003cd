"""Acceptance suite: one check per shipped guarantee, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
print.  Every check is seeded and deterministic.
"""

import io
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from hmmtagger.decoder import viterbi
from hmmtagger.errors import ImpossibleSequenceError
from hmmtagger.evaluation import (
    ambiguity_kind,
    ambiguity_rate,
    class_frequency_table,
    error_rate,
    error_type_table,
    profile_report,
)
from hmmtagger.lexicon import ClassStore
from hmmtagger.model import (
    BiasSet,
    SymbolBias,
    TransitionBias,
    apply_biases,
    load_model,
    save_model,
    uniform_model,
)
from hmmtagger.corpusio import read_pretokenized, read_tagged, write_tagged
from hmmtagger.synth import dominant_transition_biases, make_benchmark
from hmmtagger.tagset import Tag, TagSet, load_tagset
from hmmtagger.training import TrainingConfig, baum_welch, counted_init, forward_backward, train_regime

from corpus_fixtures import GERMAN_TOP10_KIND, class_frequency_corpus, error_type_corpus
from oracles import assert_stochastic, brute_posterior_stats, brute_viterbi, random_instance


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL  {description}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS  {description}")


def test_criterion_01_reference_figures_documented_as_out_of_reach():
    """The published reference figures are documented as not reproducible."""
    with criterion(1, "published figures documented as non-reproducible; "
                      "synthetic substitutes provided"):
        readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
        for figure in ("3.33", "14.11", "3.14", "1.51"):
            assert figure in readme
        assert "proprietary" in readme
        assert "cannot be reproduced" in readme


def test_criterion_02_viterbi_matches_enumeration():
    """500 random instances: exact path under the tie-break, log-prob to 1e-9,
    in under 5 seconds."""
    with criterion(2, "viterbi == brute-force argmax on 500 seeded instances, < 5 s"):
        rng = np.random.default_rng(1002)
        start = time.perf_counter()
        checked = 0
        while checked < 500:
            quantized = checked % 5 == 4  # every fifth instance manufactures ties
            model, seq = random_instance(rng, max_tags=5, max_len=8,
                                         quantized=quantized, allow_zeros=quantized)
            oracle = brute_viterbi(model, seq)
            if oracle is None:
                with pytest.raises(ImpossibleSequenceError):
                    viterbi(model, seq)
                checked += 1
                continue
            decoding = viterbi(model, seq)
            assert list(decoding.tags) == oracle[0]
            assert decoding.log_prob == pytest.approx(oracle[1], abs=1e-9)
            checked += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_03_forward_backward_matches_enumeration():
    """200 random instances: expected counts within 1e-9 of posterior sums."""
    with criterion(3, "forward-backward == brute-force posteriors on 200 seeded instances"):
        rng = np.random.default_rng(1003)
        checked = 0
        while checked < 200:
            model, seq = random_instance(rng, max_tags=4, max_len=6)
            oracle = brute_posterior_stats(model, seq)
            if oracle is None:
                checked += 1
                continue
            stats = forward_backward(model, seq)
            np.testing.assert_allclose(stats.initial_counts, oracle[0], atol=1e-9)
            np.testing.assert_allclose(stats.transition_counts, oracle[1], atol=1e-9)
            np.testing.assert_allclose(stats.emission_counts, oracle[2], atol=1e-9)
            assert stats.log_likelihood == pytest.approx(oracle[3], abs=1e-9)
            checked += 1


def test_criterion_04_em_monotonicity():
    """50 seeded (model, corpus) pairs, no smoothing, 10 iterations: the
    log-likelihood trajectory never decreases beyond 1e-8 relative."""
    with criterion(4, "EM log-likelihood non-decreasing over 10 iterations x 50 pairs"):
        rng = np.random.default_rng(1004)
        checked = 0
        while checked < 50:
            model, _ = random_instance(rng, max_tags=4, max_len=1)
            corpus = [
                [int(rng.integers(model.n_classes)) for _ in range(int(rng.integers(2, 12)))]
                for _ in range(int(rng.integers(3, 8)))
            ]
            try:
                _, trajectory, _ = baum_welch(
                    model, corpus, TrainingConfig(iterations=10, smoothing_floor=0.0))
            except ImpossibleSequenceError:
                continue
            assert len(trajectory) == 10
            for prev, cur in zip(trajectory, trajectory[1:]):
                assert cur >= prev - 1e-8 * abs(prev)
            checked += 1


def test_criterion_05_stochasticity_and_mask_preservation():
    """Rows sum to 1 within 1e-9 and masked cells are exactly 0 after every
    model-producing operation, including each training iteration."""
    with criterion(5, "row stochasticity and hard-zero mask preserved everywhere"):
        ts = TagSet([Tag(i, f"T{i:02d}") for i in range(4)])
        classes = [(0,), (1,), (2,), (3,), (0, 1), (1, 2, 3), (0, 3)]
        m = uniform_model(ts, classes)
        assert_stochastic(m)

        biased = apply_biases(m, BiasSet(
            [TransitionBias(0, 1, 4.0), TransitionBias(1, 0, 0.0),
             TransitionBias(3, 3, 0.0)],
            [SymbolBias((0, 1), 1, 2.0)]))
        assert_stochastic(biased)
        assert biased.transition[1, 0] == 0.0 and biased.transition[3, 3] == 0.0

        rng = np.random.default_rng(1005)
        corpus = [
            [int(c) for c in rng.integers(0, len(classes), size=int(rng.integers(3, 15)))]
            for _ in range(30)
        ]
        tagged = []
        for seq in corpus:
            sent = []
            for c in seq:
                members = classes[c]
                sent.append((int(members[int(rng.integers(len(members)))]), c))
            tagged.append(sent)

        counted = counted_init(tagged, ts, classes)
        assert_stochastic(counted)

        iterations = []

        def check(i, model, ll):
            assert_stochastic(model)
            assert model.transition[1, 0] == 0.0
            assert model.transition[3, 3] == 0.0
            iterations.append(i)

        baum_welch(biased, corpus, TrainingConfig(iterations=8),
                   on_iteration=check, skip_impossible=True)
        assert iterations == list(range(8))


def test_criterion_06_regime_ordering_on_synthetic_benchmark():
    """Counted-init error <= hand-bias error <= unbiased error on the seeded
    benchmark, and counted stays within 1.5x of the true-generator oracle."""
    with criterion(6, "regime ordering counted <= biased <= unbiased, "
                      "counted <= 1.5x oracle, < 2 min"):
        start = time.perf_counter()
        bench = make_benchmark(seed=2, n_tags=10, n_classes=30,
                               train_tokens=50_000, tagged_tokens=5_000,
                               heldout_tokens=5_000, ambiguity=1.6,
                               transition_concentration=0.25, twin_pairs=3)

        def heldout_error(model):
            pred = [list(viterbi(model, s).tags) for s in bench.heldout_classes]
            return error_rate(pred, bench.heldout_gold)

        ts, members = bench.tagset, bench.class_members
        cfg = TrainingConfig(iterations=20)
        oracle = heldout_error(bench.generator)

        unbiased_model, _, _ = train_regime(
            "bias", ts, members, corpus=bench.train_untagged, config=cfg)
        biases = dominant_transition_biases(bench.generator, top_n=1, weight=1.5)
        biased_model, _, _ = train_regime(
            "bias", ts, members, corpus=bench.train_untagged, biases=biases, config=cfg)
        counted_model, _, _ = train_regime(
            "counted", ts, members, corpus=bench.train_untagged, tagged=bench.train_tagged)

        e_unbiased = heldout_error(unbiased_model)
        e_biased = heldout_error(biased_model)
        e_counted = heldout_error(counted_model)
        elapsed = time.perf_counter() - start
        print(f"  oracle={oracle:.4f} counted={e_counted:.4f} "
              f"biased={e_biased:.4f} unbiased={e_unbiased:.4f} ({elapsed:.0f}s)")

        assert e_counted <= e_biased <= e_unbiased
        assert e_counted <= 1.5 * oracle
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_criterion_07_evaluation_fixtures(elwis, elwis_major):
    """Exact reference values: error rate 0.05 for 1-in-20, top error row
    0.0900 VINF/2 VFIN, top class row .0772, error frequencies sum to 1."""
    with criterion(7, "evaluation fixtures reproduce the reference profile values"):
        assert error_rate([[0] * 19 + [1]], [[0] * 20]) == 0.05

        pred, gold, classes, store = error_type_corpus(elwis)
        table = error_type_table(pred, gold, classes, store, elwis, top_k=None)
        assert sum(e.rel_freq for e in table) == pytest.approx(1.0, abs=1e-9)
        report = profile_report(pred, gold, classes, store, elwis, elwis_major)
        assert "0.0900 VINF/2 VFIN" in report.render_text()

        class_seqs, store2 = class_frequency_corpus(elwis)
        top = class_frequency_table(class_seqs, store2, elwis, top_k=1)[0]
        assert top.f_ec == pytest.approx(0.0772)
        gold2 = [[0] * len(s) for s in class_seqs]
        report2 = profile_report(gold2, gold2, class_seqs, store2, elwis, elwis_major)
        assert ".0772 ART PROS PRELS" in report2.render_text()
        assert report2.ambiguity_rate == pytest.approx(1.51)


def test_criterion_08_ambiguity_kind_fixture(elwis, elwis_major):
    """The ten reference German ambiguous classes split intra/cross exactly
    as expected under the bundled major-class map."""
    with criterion(8, "intra/cross split of the ten reference classes"):
        for labels, expected in GERMAN_TOP10_KIND.items():
            members = tuple(elwis.tag_id(lab) for lab in labels)
            assert ambiguity_kind(members, elwis_major) == expected, labels


def test_criterion_09_scaling_robustness():
    """A single 100,000-token sentence neither underflows nor overflows."""
    with criterion(9, "forward-backward and viterbi finite on a 100k-token sentence"):
        rng = np.random.default_rng(1009)
        model, _ = random_instance(rng, max_tags=4, max_len=1)
        seq = rng.integers(0, model.n_classes, size=100_000)
        stats = forward_backward(model, seq)
        assert np.isfinite(stats.log_likelihood)
        decoding = viterbi(model, seq)
        assert np.isfinite(decoding.log_prob)
        assert len(decoding.tags) == seq.size


def test_criterion_10_io_round_trips(tmp_path):
    """Tagged corpora and models round-trip exactly; CRLF == LF."""
    with criterion(10, "corpus and model round trips are exact, CRLF == LF"):
        ts = load_tagset(io.StringIO("A\ta\nB\tb\n$.\tstop\n"))
        sentences = [[("Der", 0), ("#", 1), (".", 2)], [("x", 1)]]
        buf = io.StringIO()
        write_tagged(buf, sentences, ts)
        back = list(read_tagged(io.StringIO(buf.getvalue()), ts))
        assert back == sentences

        m = apply_biases(
            uniform_model(ts, [(0,), (1,), (2,), (0, 1)]),
            BiasSet([TransitionBias(0, 1, 3.25), TransitionBias(2, 0, 0.0)],
                    [SymbolBias((0, 1), 0, 1.75)]))
        path = tmp_path / "round.model"
        save_model(m, path)
        loaded = load_model(path, ts)
        assert np.array_equal(m.initial, loaded.initial)
        assert np.array_equal(m.transition, loaded.transition)
        assert np.array_equal(m.emission, loaded.emission)
        assert np.array_equal(m.transition_zero_mask, loaded.transition_zero_mask)

        lf = list(read_pretokenized(io.BytesIO(b"a\nb\n\nc\n")))
        crlf = list(read_pretokenized(io.BytesIO(b"a\r\nb\r\n\r\nc\r\n")))
        assert lf == crlf == [["a", "b"], ["c"]]

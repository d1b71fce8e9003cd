import io
import re
from collections import Counter

import numpy as np
import pytest

from hmmtagger.errors import AlignmentError, ConfigError
from hmmtagger.evaluation import (
    CROSS_CLASS,
    INTRA_CLASS,
    ClassFrequencyEntry,
    ErrorTypeEntry,
    EvalReport,
    MajorClassMap,
    ambiguity_kind,
    ambiguity_rate,
    class_frequency_table,
    error_rate,
    error_type_table,
    load_major_classes,
    profile_report,
)
from hmmtagger.lexicon import ClassStore
from hmmtagger.tagset import load_tagset

from corpus_fixtures import (
    GERMAN_TOP10,
    GERMAN_TOP10_KIND,
    GERMAN_TOP20_ERRORS,
    class_frequency_corpus,
    error_type_corpus,
)


class TestErrorRate:
    def test_identical_sequences(self):
        assert error_rate([[1, 2, 3]], [[1, 2, 3]]) == 0.0

    def test_one_in_twenty(self):
        pred = [[0] * 10, [0] * 10]
        gold = [[0] * 10, [0] * 9 + [1]]
        assert error_rate(pred, gold) == pytest.approx(0.05)

    def test_disjoint_sequences(self):
        assert error_rate([[0, 0]], [[1, 1]]) == 1.0

    def test_sentence_count_mismatch(self):
        with pytest.raises(AlignmentError):
            error_rate([[0]], [[0], [0]])

    def test_sentence_length_mismatch_names_index(self):
        with pytest.raises(AlignmentError) as err:
            error_rate([[0], [0, 1]], [[0], [0]])
        assert err.value.sentence_index == 1

    def test_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            pred = [[int(x) for x in rng.integers(0, 3, 7)]]
            gold = [[int(x) for x in rng.integers(0, 3, 7)]]
            assert 0.0 <= error_rate(pred, gold) <= 1.0


class TestAmbiguityRate:
    def test_all_singletons(self):
        store = ClassStore()
        c = store.intern([0])
        assert ambiguity_rate([[c, c, c]], store) == 1.0

    def test_forced_arithmetic(self):
        store = ClassStore()
        c1 = store.intern([0])
        c2 = store.intern([0, 1])
        # 10 tokens, class sizes summing to 15
        seqs = [[c2] * 5 + [c1] * 5]
        assert ambiguity_rate(seqs, store) == pytest.approx(1.5)

    def test_empty_rejected(self):
        with pytest.raises(AlignmentError):
            ambiguity_rate([], ClassStore())

    def test_reference_profile_rate(self, elwis):
        class_seqs, store = class_frequency_corpus(elwis)
        rate = ambiguity_rate(class_seqs, store)
        assert rate == pytest.approx(1.51)
        assert 1.4 <= rate <= 1.6


class TestClassFrequencyTable:
    def test_no_ambiguous_classes(self, elwis):
        store = ClassStore()
        c = store.intern([0])
        assert class_frequency_table([[c, c]], store, elwis) == []

    def test_reference_profile(self, elwis):
        class_seqs, store = class_frequency_corpus(elwis)
        table = class_frequency_table(class_seqs, store, elwis, top_k=10)
        assert table[0].f_ec == pytest.approx(0.0772)
        assert table[0].members == ("ART", "PROS", "PRELS")
        got = [(e.count, tuple(sorted(e.members))) for e in table]
        want = [(count, tuple(sorted(labels))) for count, labels in GERMAN_TOP10]
        assert got == want

    def test_order_permutation_invariance(self, elwis):
        class_seqs, store = class_frequency_corpus(elwis)
        flat = [c for sent in class_seqs for c in sent]
        rng = np.random.default_rng(42)
        shuffled = [flat[i] for i in rng.permutation(len(flat))]
        a = class_frequency_table(class_seqs, store, elwis, top_k=10)
        b = class_frequency_table([shuffled], store, elwis, top_k=10)
        assert a == b

    def test_equal_counts_tie_break_by_class_id(self, elwis):
        store = ClassStore()
        c_late = store.intern([0, 1])
        c_early = store.intern([2, 3])
        # interning order decides: c_late has the smaller id
        table = class_frequency_table([[c_early, c_late]], store, elwis)
        assert table[0].members == tuple(elwis.label(t) for t in store.members(c_late))

    def test_top_k_truncates(self, elwis):
        class_seqs, store = class_frequency_corpus(elwis)
        assert len(class_frequency_table(class_seqs, store, elwis, top_k=3)) == 3


class TestErrorTypeTable:
    def test_no_mismatches(self, elwis):
        store = ClassStore()
        c = store.intern([0, 1])
        assert error_type_table([[0]], [[0]], [[c]], store, elwis) == []

    def test_reference_profile_top_row(self, elwis):
        pred, gold, classes, store = error_type_corpus(elwis)
        table = error_type_table(pred, gold, classes, store, elwis, top_k=20)
        top = table[0]
        assert top.rel_freq == pytest.approx(0.0900)
        assert (top.predicted_tag, top.class_size, top.gold_tag) == ("VINF", 2, "VFIN")
        got = {(e.count, e.predicted_tag, e.class_size, e.gold_tag) for e in table}
        want = {(count, p, s, g) for count, p, s, g in GERMAN_TOP20_ERRORS}
        assert got == want

    def test_rel_freqs_sum_to_one_over_full_table(self, elwis):
        pred, gold, classes, store = error_type_corpus(elwis)
        table = error_type_table(pred, gold, classes, store, elwis, top_k=None)
        assert sum(e.rel_freq for e in table) == pytest.approx(1.0, abs=1e-9)

    def test_single_mismatch_singleton_class(self, elwis):
        store = ClassStore()
        c = store.intern([elwis.tag_id("NN")])
        table = error_type_table(
            [[elwis.tag_id("NN")]], [[elwis.tag_id("NE")]], [[c]], store, elwis)
        assert len(table) == 1
        assert table[0].rel_freq == 1.0
        assert table[0].class_size is None

    def test_alignment_error(self, elwis):
        store = ClassStore()
        c = store.intern([0])
        with pytest.raises(AlignmentError):
            error_type_table([[0, 1]], [[0]], [[c, c]], store, elwis)


class TestAmbiguityKind:
    def test_verb_subclassification_is_intra(self, elwis, elwis_major):
        members = (elwis.tag_id("VINF"), elwis.tag_id("VFIN"))
        assert ambiguity_kind(members, elwis_major) == INTRA_CLASS

    def test_noun_verb_is_cross(self):
        ts = load_tagset(io.StringIO("NN\tnoun\nVB\tverb\n"))
        major = load_major_classes(io.StringIO("NN noun\nVB verb\n"), ts)
        assert ambiguity_kind((0, 1), major) == CROSS_CLASS

    def test_singleton_rejected(self, elwis_major):
        with pytest.raises(ValueError):
            ambiguity_kind((0,), elwis_major)

    def test_unmapped_tag_rejected(self):
        partial = MajorClassMap.__new__(MajorClassMap)
        partial._by_tag_id = ("noun",)
        with pytest.raises(ConfigError):
            ambiguity_kind((0, 5), partial)

    def test_reference_classes_split(self, elwis, elwis_major):
        for labels, expected in GERMAN_TOP10_KIND.items():
            members = tuple(elwis.tag_id(lab) for lab in labels)
            assert ambiguity_kind(members, elwis_major) == expected, labels


class TestMajorClassMap:
    def test_bundled_map_is_total(self, elwis, elwis_major):
        for tag in elwis:
            assert elwis_major.major(tag.id) in (
                "noun", "verb", "adjective", "adverb", "closed")

    def test_missing_tag_rejected(self, elwis):
        with pytest.raises(ConfigError, match="missing"):
            load_major_classes(io.StringIO("NN noun\n"), elwis)

    def test_unknown_major_rejected(self, elwis):
        with pytest.raises(ConfigError, match="strange"):
            load_major_classes(io.StringIO("NN strange\n"), elwis)

    def test_unknown_label_rejected(self, elwis):
        with pytest.raises(ConfigError, match="NOPE"):
            load_major_classes(io.StringIO("NOPE noun\n"), elwis)


class TestProfileReport:
    def test_perfect_predictions(self, elwis, elwis_major):
        store = ClassStore()
        c = store.intern([elwis.tag_id("NN")])
        report = profile_report([[0, 0]], [[0, 0]], [[c, c]], store, elwis, elwis_major)
        assert report.error_rate == 0.0
        assert report.error_types == []
        assert "error rate 0.0000" in report.render_text()

    def test_reference_profile_rendering(self, elwis, elwis_major):
        class_seqs, store = class_frequency_corpus(elwis)
        gold = [[0] * len(s) for s in class_seqs]
        report = profile_report(gold, gold, class_seqs, store, elwis, elwis_major)
        text = report.render_text()
        assert ".0772 ART PROS PRELS" in text
        assert report.ambiguity_rate == pytest.approx(1.51)

    def test_error_row_rendering(self, elwis, elwis_major):
        pred, gold, classes, store = error_type_corpus(elwis)
        report = profile_report(pred, gold, classes, store, elwis, elwis_major)
        assert "0.0900 VINF/2 VFIN" in report.render_text()

    def test_frequencies_bounded(self, elwis, elwis_major):
        class_seqs, store = class_frequency_corpus(elwis)
        gold = [[0] * len(s) for s in class_seqs]
        report = profile_report(gold, gold, class_seqs, store, elwis, elwis_major)
        assert sum(e.f_ec for e in report.class_frequencies) <= 1 + 1e-9
        split = report.intra_cross_split
        assert split["intra"] + split["cross"] == pytest.approx(1.0)

    def test_machine_readable_fields(self, elwis, elwis_major):
        pred, gold, classes, store = error_type_corpus(elwis)
        doc = profile_report(pred, gold, classes, store, elwis, elwis_major).to_dict()
        for key in ("error_rate", "ambiguity_rate", "class_frequencies",
                    "error_types", "intra_cross_split"):
            assert key in doc
        assert doc["error_types"][0]["predicted_tag"] == "VINF"
        assert doc["error_types"][0]["class_size"] == 2


def recount(pred, gold, classes, store, ts, major_map) -> EvalReport:
    """The full report from plain per-token loops, untruncated."""
    n = slots = ambiguous = intra = 0
    class_counts, error_counts = Counter(), Counter()
    for p_sent, g_sent, c_sent in zip(pred, gold, classes):
        for p, g, c in zip(p_sent, g_sent, c_sent):
            members = store.members(int(c))
            n += 1
            slots += len(members)
            if len(members) > 1:
                class_counts[int(c)] += 1
                ambiguous += 1
                intra += len({major_map.major(t) for t in members}) == 1
            if p != g:
                error_counts[(p, len(members), g)] += 1
    wrong = sum(error_counts.values())
    return EvalReport(
        error_rate=wrong / n,
        ambiguity_rate=slots / n,
        n_tokens=n,
        n_mismatches=wrong,
        class_frequencies=[
            ClassFrequencyEntry(f_ec=count / n, count=count,
                                members=tuple(ts.label(t) for t in store.members(c)))
            for c, count in sorted(class_counts.items(), key=lambda kv: (-kv[1], kv[0]))],
        error_types=[
            ErrorTypeEntry(rel_freq=count / wrong, predicted_tag=ts.label(p),
                           class_size=size if size > 1 else None, gold_tag=ts.label(g),
                           count=count)
            for (p, size, g), count in sorted(error_counts.items(),
                                              key=lambda kv: (-kv[1], kv[0]))],
        intra_cross_split={"intra": intra / ambiguous if ambiguous else 0.0,
                           "cross": (ambiguous - intra) / ambiguous if ambiguous else 0.0,
                           "ambiguous_tokens": ambiguous},
    )


class TestTallyMatchesPerTokenRecount:
    @pytest.mark.parametrize("seed", range(12))
    def test_every_field(self, seed, german_resources, elwis_major):
        ts, store, _, _ = german_resources
        rng = np.random.default_rng(seed)
        # some classes much more frequent than others, so counts tie and differ
        weights = rng.random(len(store)) ** 4
        pred, gold, classes = [], [], []
        for _ in range(int(rng.integers(1, 60))):
            c_sent = rng.choice(len(store), size=int(rng.integers(1, 25)),
                                p=weights / weights.sum())
            g_sent = [int(rng.choice(store.members(int(c)))) for c in c_sent]
            p_sent = tuple(g if rng.random() < 0.7 else int(rng.integers(len(ts)))
                           for g in g_sent)
            pred.append(p_sent)  # the shapes cmd_eval passes: tuples, lists, arrays
            gold.append(g_sent)
            classes.append(c_sent.astype(np.intp))
        at = int(rng.integers(len(pred) + 1))  # an empty sentence counts nothing
        pred.insert(at, ())
        gold.insert(at, [])
        classes.insert(at, np.empty(0, dtype=np.intp))
        want = recount(pred, gold, classes, store, ts, elwis_major)
        report = profile_report(pred, gold, classes, store, ts, elwis_major, top_k=None)
        assert report == want
        assert report.n_mismatches == sum(p != g for ps, gs in zip(pred, gold)
                                          for p, g in zip(ps, gs))
        assert error_rate(pred, gold) == want.error_rate
        assert ambiguity_rate(classes, store) == want.ambiguity_rate
        assert class_frequency_table(classes, store, ts) == want.class_frequencies
        assert error_type_table(pred, gold, classes, store, ts) == want.error_types
        top = profile_report(pred, gold, classes, store, ts, elwis_major, top_k=3)
        assert top.class_frequencies == want.class_frequencies[:3]
        assert top.error_types == want.error_types[:3]


class TestMisalignmentMessages:
    # (pred, gold, classes, message, sentence index); when several sequences
    # are misaligned, pred against gold is reported before pred against classes
    CASES = [
        ([[0]], [[0], [0]], [[0]], "prediction has 1 sentences, gold has 2", None),
        ([[0], [0, 1]], [[0], [0]], [[0], [0, 0]],
         "sentence 1: prediction has 2 tokens, gold has 1", 1),
        ([[0], [0]], [[0], [0]], [[0]], "prediction has 2 sentences, gold has 1", None),
        ([[0, 1]], [[0, 1]], [[0]], "sentence 0: prediction has 2 tokens, gold has 1", 0),
        ([[0], [0, 1]], [[0], [0]], [[0]], "sentence 1: prediction has 2 tokens, gold has 1", 1),
        ([[], []], [[], []], [[], []], "cannot compute an error rate over zero tokens", None),
    ]

    @pytest.mark.parametrize("pred, gold, classes, message, index", CASES)
    def test_profile_report(self, pred, gold, classes, message, index, elwis, elwis_major):
        store = ClassStore()
        store.intern([0])
        with pytest.raises(AlignmentError, match=f"^{re.escape(message)}$") as err:
            profile_report(pred, gold, classes, store, elwis, elwis_major)
        assert err.value.sentence_index == index

    @pytest.mark.parametrize("pred, gold, classes, message, index", CASES[:-1])
    def test_error_type_table(self, pred, gold, classes, message, index, elwis):
        store = ClassStore()
        store.intern([0])
        with pytest.raises(AlignmentError, match=f"^{re.escape(message)}$") as err:
            error_type_table(pred, gold, classes, store, elwis)
        assert err.value.sentence_index == index

    @pytest.mark.parametrize("pred, gold, message, index", [
        ([[0]], [[0], [0]], "prediction has 1 sentences, gold has 2", None),
        ([[0], [0, 1]], [[0], [0]], "sentence 1: prediction has 2 tokens, gold has 1", 1),
        ([[]], [[]], "cannot compute an error rate over zero tokens", None),
    ])
    def test_error_rate(self, pred, gold, message, index):
        with pytest.raises(AlignmentError, match=f"^{re.escape(message)}$") as err:
            error_rate(pred, gold)
        assert err.value.sentence_index == index

    def test_ambiguity_rate_over_zero_tokens(self):
        with pytest.raises(AlignmentError,
                           match="^cannot compute an ambiguity rate over zero tokens$"):
            ambiguity_rate([[]], ClassStore())

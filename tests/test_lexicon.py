import io

import numpy as np
import pytest

from hmmtagger.errors import ConfigError
from hmmtagger.lexicon import (
    ClassStore,
    classify,
    guess_class,
    load_guesser_rules,
    load_lexicon,
)
from hmmtagger.tagset import load_tagset


def labels_of(store, ts, class_id):
    return [ts.label(t) for t in store[class_id]]


def load_lex(text, ts, store):
    return load_lexicon(io.StringIO(text), ts, store)


def load_rules(text, ts, store):
    return load_guesser_rules(io.StringIO(text), ts, store)


class TestLexiconLoading:
    def test_three_member_entry(self, elwis):
        store = ClassStore()
        lex = load_lex("die\tART PROS PRELS\n", elwis, store)
        assert labels_of(store, elwis, lex["die"]) == ["ART", "PROS", "PRELS"]

    def test_singleton_entry(self, elwis):
        store = ClassStore()
        lex = load_lex("und\tKON\n", elwis, store)
        assert len(store[lex["und"]]) == 1

    def test_duplicate_word_merges_by_union(self, elwis):
        store = ClassStore()
        lex = load_lex("geladen\tVPP ADJD\ngeladen\tVFIN\n", elwis, store)
        members = set(labels_of(store, elwis, lex["geladen"]))
        assert members == {"VPP", "ADJD", "VFIN"}

    def test_unknown_tag_names_line(self, elwis):
        with pytest.raises(ConfigError, match="line 2"):
            load_lex("und\tKON\nfoo\tNOPE\n", elwis, ClassStore())

    def test_line_without_tags_rejected(self, elwis):
        with pytest.raises(ConfigError, match="no tags"):
            load_lex("foo\t\n", elwis, ClassStore())

    def test_line_without_tab_rejected(self, elwis):
        with pytest.raises(ConfigError):
            load_lex("foo KON\n", elwis, ClassStore())

    def test_interning_across_words(self, elwis):
        lex = load_lex("die\tART PROS PRELS\nder\tPRELS PROS ART\n", elwis, ClassStore())
        assert lex["die"] == lex["der"]


class TestLookup:
    def test_case_sensitive(self, elwis):
        lex = load_lex("die\tART\n", elwis, ClassStore())
        assert "die" in lex
        assert "Die" not in lex

    def test_empty_word_not_found(self, elwis):
        lex = load_lex("die\tART\n", elwis, ClassStore())
        assert "" not in lex


class TestClassStore:
    def test_same_members_same_id(self):
        store = ClassStore()
        assert store.intern([2, 1]) == store.intern((1, 2, 2))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ClassStore().intern([])

    def test_from_members_preserves_order(self):
        store = ClassStore.from_members([(0,), (1,), (0, 1)])
        assert store[2] == (0, 1)

    def test_ambiguity_flag(self):
        store = ClassStore()
        assert len(store[store.intern([3])]) == 1
        assert len(store[store.intern([3, 4])]) == 2


class TestGuesser:
    def test_numeric_pattern(self, german_resources):
        elwis, store, lex, rules = german_resources
        assert labels_of(store, elwis, guess_class(rules, "1997")) == ["CARD"]
        assert labels_of(store, elwis, guess_class(rules, "3,5")) == ["CARD"]

    def test_abbreviation_pattern(self, german_resources):
        elwis, store, lex, rules = german_resources
        assert labels_of(store, elwis, guess_class(rules, "Abk.")) == ["NN", "NE"]

    def test_symbol_pattern(self, german_resources):
        elwis, store, lex, rules = german_resources
        assert labels_of(store, elwis, guess_class(rules, "%")) == ["$("]

    def test_capitalized_default(self, german_resources):
        elwis, store, lex, rules = german_resources
        assert labels_of(store, elwis, guess_class(rules, "Safrane")) == ["NN", "NE"]

    def test_lowercase_default(self, german_resources):
        elwis, store, lex, rules = german_resources
        assert guess_class(rules, "xyzqq") == rules.default_lower

    def test_suffix_with_case_condition(self, german_resources):
        elwis, store, lex, rules = german_resources
        assert labels_of(store, elwis, guess_class(rules, "Bedeutung")) == ["NN"]
        # lowercase initial fails the U condition; falls through to default
        assert guess_class(rules, "bedeutung") == rules.default_lower

    def test_longest_suffix_wins(self, elwis):
        store = ClassStore()
        rules = load_rules(
            "SUFFIX g A KON\nSUFFIX ung A NN\nDEFAULT U NE\nDEFAULT L ADV\n",
            elwis, store)
        assert labels_of(store, elwis, guess_class(rules, "Zeitung")) == ["NN"]

    def test_equal_length_ties_follow_file_order(self, elwis):
        store = ClassStore()
        rules = load_rules(
            "SUFFIX ab A KON\nSUFFIX ab A NN\nDEFAULT U NE\nDEFAULT L ADV\n",
            elwis, store)
        assert labels_of(store, elwis, guess_class(rules, "xab")) == ["KON"]

    def test_pattern_beats_suffix(self, elwis):
        store = ClassStore()
        rules = load_rules(
            "PATTERN numeric CARD\nSUFFIX 7 A NN\nDEFAULT U NE\nDEFAULT L ADV\n",
            elwis, store)
        assert labels_of(store, elwis, guess_class(rules, "1997")) == ["CARD"]

    def test_empty_word_rejected(self, german_resources):
        _, _, _, rules = german_resources
        with pytest.raises(ValueError):
            guess_class(rules, "")

    def test_total_on_random_words(self, german_resources):
        elwis, store, lex, rules = german_resources
        rng = np.random.default_rng(7)
        alphabet = "aäbcdefghijklmnoöpqrstuüvwxyzAÄBCDEFGHIJKLMNOÖPQRSTUÜVWXYZ0123456789.-%"
        for _ in range(300):
            length = int(rng.integers(1, 12))
            word = "".join(alphabet[int(i)] for i in rng.integers(0, len(alphabet), length))
            cid = guess_class(rules, word)
            assert 0 <= cid < len(store)

    def test_missing_default_rejected(self, elwis):
        with pytest.raises(ConfigError, match="DEFAULT"):
            load_rules("DEFAULT U NN\n", elwis, ClassStore())

    def test_bad_rule_kind_rejected(self, elwis):
        with pytest.raises(ConfigError, match="line 1"):
            load_rules("FOO bar NN\nDEFAULT U NN\nDEFAULT L NN\n", elwis, ClassStore())

    def test_bad_pattern_kind_rejected(self, elwis):
        with pytest.raises(ConfigError):
            load_rules("PATTERN dates CARD\nDEFAULT U NN\nDEFAULT L NN\n", elwis, ClassStore())

    def test_unknown_tag_in_rule_rejected(self, elwis):
        with pytest.raises(ConfigError, match="NOPE"):
            load_rules("SUFFIX en A NOPE\nDEFAULT U NN\nDEFAULT L NN\n", elwis, ClassStore())


class TestClassify:
    def test_known_word_bypasses_guesser(self, elwis):
        store = ClassStore()
        lex = load_lex("Zeitung\tNN\n", elwis, store)
        # a guesser that would answer something else for this word
        rules = load_rules("SUFFIX ung A NE\nDEFAULT U NE\nDEFAULT L ADV\n", elwis, store)
        assert labels_of(store, elwis, classify(lex, rules, "Zeitung")) == ["NN"]

    def test_unknown_capitalized_word(self, german_resources):
        elwis, store, lex, rules = german_resources
        assert labels_of(store, elwis, classify(lex, rules, "Xylophon")) == ["NN", "NE"]

    def test_unknown_numeric_token(self, german_resources):
        elwis, store, lex, rules = german_resources
        assert labels_of(store, elwis, classify(lex, rules, "1997")) == ["CARD"]

    def test_deterministic_and_interned(self, german_resources):
        elwis, store, lex, rules = german_resources
        assert classify(lex, rules, "Grumpf") == classify(lex, rules, "Knarz")
        assert classify(lex, rules, "Grumpf") == classify(lex, rules, "Grumpf")

    def test_empty_word_rejected(self, german_resources):
        elwis, store, lex, rules = german_resources
        with pytest.raises(ValueError):
            classify(lex, rules, "")

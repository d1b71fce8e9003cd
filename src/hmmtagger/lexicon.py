"""Word form to equivalence class mapping, with guessing for unknown words.

An equivalence class is the set of tags a word form can bear; words sharing
the same tag set are indistinguishable to the model, so classes are interned:
equal member sets always receive the same dense class id.

Lexicon file format (a config file, see ``tagset.config_lines``):

    wordform<TAB>TAG1 TAG2 ...

Duplicate word lines merge by set union of their tags, and class ids follow
each word's first appearance.  Each distinct tag string is parsed once.  The
``hmmtagger`` commands classify each distinct surface form once per run.

Guesser rules file format (a config file too):

    SUFFIX <suffix> <U|L|A> <TAG...>     case of the initial letter: U requires
                                         uppercase, L lowercase, A matches any
    PATTERN <numeric|abbrev|symbol> <TAG...>
    DEFAULT <U|L> <TAG...>

Unknown words are classified by the first match in this order: pattern rules
(numeric, then abbreviation, then symbol), longest matching suffix whose case
condition holds (equal lengths tie-break by file order), then the
case-determined default class.  The guesser is total: every non-empty word
receives a class.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from typing import Iterable

from .errors import ConfigError
from .tagset import TagSet, config_lines


class ClassStore:
    """Interner assigning dense ids to member-tag tuples; as a sequence, a
    class inventory like ``HmmModel.class_members``: ``store[c]`` is the
    sorted member tuple of class ``c``."""

    def __init__(self):
        self._id_by_members: dict[tuple[int, ...], int] = {}
        self._members: list[tuple[int, ...]] = []

    def __len__(self) -> int:
        return len(self._members)

    def __getitem__(self, class_id: int) -> tuple[int, ...]:
        return self._members[class_id]

    def __iter__(self):
        return iter(self._members)

    def intern(self, members: Iterable[int]) -> int:
        key = tuple(sorted(set(members)))
        if not key:
            raise ValueError("an equivalence class must have at least one member")
        if any(t < 0 for t in key):
            raise ValueError(f"negative tag id in class members {key}")
        existing = self._id_by_members.get(key)
        if existing is not None:
            return existing
        class_id = len(self._members)
        self._members.append(key)
        self._id_by_members[key] = class_id
        return class_id

    @classmethod
    def from_members(cls, members_list: Iterable[Iterable[int]]) -> "ClassStore":
        """Rebuild a store with ids 0.. following ``members_list`` order."""
        store = cls()
        for i, members in enumerate(members_list):
            got = store.intern(members)
            if got != i:
                raise ValueError(f"member list {i} duplicates list {got}")
        return store


def _parse_tag_labels(labels: list[str], ts: TagSet, lineno: int) -> list[int]:
    ids = []
    for label in labels:
        t = ts.tag_id(label)
        if t is None:
            raise ConfigError(f"line {lineno}: unknown tag label {label!r}")
        ids.append(t)
    return ids


def load_lexicon(source, ts: TagSet, store: ClassStore) -> dict[str, int]:
    """Load a lexicon from a path or file object as a case-sensitive word
    form -> class id map, interning each class into ``store``, which guesser
    rules or a previously loaded model may share.

    Lines of one word merge by set union.  Class ids follow each word's
    first appearance: a class new to ``store`` is interned at the first
    word, in file order, whose merged tags it is.  A malformed line raises
    ConfigError naming it; a bad tag string names its first line.
    """
    # Most lines share a few hundred tag strings: each is parsed and checked
    # once, and words share its member set until they merge.
    members_by_tags: dict[str, frozenset[int]] = {}
    members_by_word: dict[str, frozenset[int]] = {}
    for lineno, line in config_lines(source):
        word, sep, rest = line.partition("\t")
        members = members_by_tags.get(rest)
        if members is None or not word:  # a new tag string, or a bad line
            if not sep or not word:
                raise ConfigError(f"line {lineno}: expected wordform<TAB>TAG...")
            labels = rest.split()
            if not labels:
                raise ConfigError(f"line {lineno}: no tags given for {word!r}")
            members = members_by_tags[rest] = frozenset(_parse_tag_labels(labels, ts, lineno))
        first = members_by_word.setdefault(word, members)
        if first is not members:
            members_by_word[word] = first | members
    class_ids = dict.fromkeys(members_by_word.values())
    for members in class_ids:
        class_ids[members] = store.intern(members)
    return {word: class_ids[members] for word, members in members_by_word.items()}


# Each PATTERN kind's test of a word, in the order the guesser tries them.
# Numeric material is an optional sign, a digit, then digits and number
# punctuation (1997, 3,5, 1997-98, 12:30).
_PATTERN_KINDS = {
    "numeric": re.compile(r"[+-]?[0-9][0-9.,:/\-]*").fullmatch,
    "abbrev": lambda word: word.endswith(".") and any(ch.isalpha() for ch in word),
    "symbol": lambda word: not any(ch.isalnum() for ch in word),
}
# Each SUFFIX case letter's test of a word's first character.
_CASES = {"U": str.isupper, "L": str.islower, "A": lambda first: True}


@dataclass(frozen=True)
class GuesserRules:
    """Ordered fallback rules assigning classes to out-of-lexicon words.

    ``patterns`` holds ``(test, class id)`` pairs, in the fixed order
    numeric, abbreviation, symbol, for the kinds the file defines;
    ``suffixes`` holds ``(suffix, case test, class id)`` triples, longest
    suffix first and equal lengths in file order, where the case test takes
    the word's first character; ``default_upper`` and ``default_lower`` are
    the classes of words with an uppercase and any other first character.
    """

    patterns: tuple
    suffixes: tuple
    default_upper: int
    default_lower: int


def load_guesser_rules(source, ts: TagSet, store: ClassStore) -> GuesserRules:
    """Load guesser rules; interns every referenced class into ``store``, in
    file order.  A malformed line raises ConfigError naming it."""
    suffixes = []
    tables: dict[str, dict[str, int]] = {"PATTERN": {}, "DEFAULT": {}}
    for lineno, line in config_lines(source):
        fields = line.split()
        kind = fields[0]
        if kind == "SUFFIX":
            if len(fields) < 4 or fields[2] not in _CASES:
                raise ConfigError(f"line {lineno}: expected SUFFIX <suffix> <U|L|A> <TAG...>")
            ids = _parse_tag_labels(fields[3:], ts, lineno)
            suffixes.append((fields[1], _CASES[fields[2]], store.intern(ids)))
        elif kind in tables:
            keys = _PATTERN_KINDS if kind == "PATTERN" else ("U", "L")
            if len(fields) < 3 or fields[1] not in keys:
                raise ConfigError(f"line {lineno}: expected {kind} <{'|'.join(keys)}> <TAG...>")
            if fields[1] in tables[kind]:
                raise ConfigError(f"line {lineno}: duplicate {kind} {fields[1]}")
            ids = _parse_tag_labels(fields[2:], ts, lineno)
            tables[kind][fields[1]] = store.intern(ids)
        else:
            raise ConfigError(f"line {lineno}: unknown rule kind {kind!r}")
    pattern_ids, defaults = tables["PATTERN"], tables["DEFAULT"]
    missing = {"U", "L"} - set(defaults)
    if missing:
        raise ConfigError(f"guesser rules must define DEFAULT {' and DEFAULT '.join(sorted(missing))}")
    suffixes.sort(key=lambda rule: -len(rule[0]))  # stable: equal lengths keep file order
    patterns = tuple((test, pattern_ids[kind]) for kind, test in _PATTERN_KINDS.items()
                     if kind in pattern_ids)
    return GuesserRules(patterns, tuple(suffixes), defaults["U"], defaults["L"])


def guess_class(rules: GuesserRules, word: str) -> int:
    """Assign a class to an out-of-lexicon word; total for non-empty words."""
    if not word:
        raise ValueError("cannot classify an empty word")
    for test, class_id in rules.patterns:
        if test(word):
            return class_id
    first = word[0]
    for suffix, case, class_id in rules.suffixes:
        if word.endswith(suffix) and case(first):
            return class_id
    return rules.default_upper if first.isupper() else rules.default_lower


def classify(lex: dict[str, int], rules: GuesserRules, word: str) -> int:
    """Lexicon lookup with guesser fallback; the guesser is never consulted
    for known words."""
    if not word:
        raise ValueError("cannot classify an empty word")
    class_id = lex.get(word)
    if class_id is not None:
        return class_id
    return guess_class(rules, word)


def default_lexicon_text() -> str:
    return resources.files("hmmtagger.data").joinpath("sample_de.lex").read_text("utf-8")


def default_rules_text() -> str:
    return resources.files("hmmtagger.data").joinpath("guesser.rules").read_text("utf-8")

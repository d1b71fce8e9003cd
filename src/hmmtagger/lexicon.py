"""Word form to equivalence class mapping, with guessing for unknown words.

An equivalence class is the set of tags a word form can bear; words sharing
the same tag set are indistinguishable to the model, so classes are interned:
equal member sets always receive the same dense class id.

Lexicon file format (a config file, see ``tagset.config_lines``):

    wordform<TAB>TAG1 TAG2 ...

Duplicate word lines merge by set union of their tags.

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
from typing import Iterable, Optional

from .errors import ConfigError
from .tagset import TagSet, config_lines


class ClassStore:
    """Interner assigning dense ids to member-tag tuples."""

    def __init__(self):
        self._id_by_members: dict[tuple[int, ...], int] = {}
        self._members: list[tuple[int, ...]] = []

    def __len__(self) -> int:
        return len(self._members)

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

    def members(self, class_id: int) -> tuple[int, ...]:
        return self._members[class_id]

    def size(self, class_id: int) -> int:
        return len(self._members[class_id])

    def all_members(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self._members)

    @classmethod
    def from_members(cls, members_list: Iterable[Iterable[int]]) -> "ClassStore":
        """Rebuild a store with ids 0.. following ``members_list`` order."""
        store = cls()
        for i, members in enumerate(members_list):
            got = store.intern(members)
            if got != i:
                raise ValueError(f"member list {i} duplicates list {got}")
        return store


class Lexicon:
    """Case-sensitive word form -> class id map over a shared ClassStore."""

    def __init__(self, entries: dict[str, int], store: ClassStore):
        self.entries = entries
        self.store = store

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, word: str) -> bool:
        return word in self.entries


def _parse_tag_labels(labels: list[str], ts: TagSet, lineno: int) -> list[int]:
    ids = []
    for label in labels:
        t = ts.tag_id(label)
        if t is None:
            raise ConfigError(f"line {lineno}: unknown tag label {label!r}")
        ids.append(t)
    return ids


def load_lexicon(source, ts: TagSet, store: Optional[ClassStore] = None) -> Lexicon:
    """Load a lexicon from a path or file object.

    Pass an existing ``store`` to share class ids with guesser rules or a
    previously loaded model.
    """
    store = store if store is not None else ClassStore()
    members_by_word: dict[str, set[int]] = {}
    for lineno, line in config_lines(source):
        word, sep, rest = line.partition("\t")
        if not sep or not word:
            raise ConfigError(f"line {lineno}: expected wordform<TAB>TAG...")
        labels = rest.split()
        if not labels:
            raise ConfigError(f"line {lineno}: no tags given for {word!r}")
        ids = _parse_tag_labels(labels, ts, lineno)
        members_by_word.setdefault(word, set()).update(ids)
    entries = {word: store.intern(members) for word, members in members_by_word.items()}
    return Lexicon(entries, store)


CASE_UPPER = "U"
CASE_LOWER = "L"
CASE_ANY = "A"

PATTERN_NUMERIC = "numeric"
PATTERN_ABBREV = "abbrev"
PATTERN_SYMBOL = "symbol"
_PATTERN_ORDER = (PATTERN_NUMERIC, PATTERN_ABBREV, PATTERN_SYMBOL)

# Numeric material: an optional sign, a digit, then digits and number
# punctuation (1997, 3,5, 1997-98, 12:30).
_NUMERIC_RE = re.compile(r"[+-]?[0-9][0-9.,:/\-]*")


def _is_numeric(word: str) -> bool:
    return _NUMERIC_RE.fullmatch(word) is not None


def _is_abbrev(word: str) -> bool:
    return word.endswith(".") and any(ch.isalpha() for ch in word)


def _is_symbol(word: str) -> bool:
    return not any(ch.isalnum() for ch in word)


_PATTERN_TESTS = {
    PATTERN_NUMERIC: _is_numeric,
    PATTERN_ABBREV: _is_abbrev,
    PATTERN_SYMBOL: _is_symbol,
}


@dataclass(frozen=True)
class SuffixRule:
    suffix: str
    case: str  # CASE_UPPER | CASE_LOWER | CASE_ANY
    class_id: int


class GuesserRules:
    """Ordered fallback rules assigning classes to out-of-lexicon words."""

    def __init__(self, suffix_rules, pattern_rules, default_upper, default_lower):
        # longest suffixes first; equal lengths keep file order
        self.suffix_rules: tuple[SuffixRule, ...] = tuple(
            sorted(suffix_rules, key=lambda r: -len(r.suffix))
        )
        self.pattern_rules: dict[str, int] = dict(pattern_rules)
        self.default_upper = default_upper
        self.default_lower = default_lower


def load_guesser_rules(source, ts: TagSet, store: ClassStore) -> GuesserRules:
    """Load guesser rules; interns every referenced class into ``store``."""
    suffix_rules: list[SuffixRule] = []
    pattern_rules: dict[str, int] = {}
    defaults: dict[str, int] = {}
    for lineno, line in config_lines(source):
        fields = line.split()
        kind = fields[0]
        if kind == "SUFFIX":
            if len(fields) < 4 or fields[2] not in (CASE_UPPER, CASE_LOWER, CASE_ANY):
                raise ConfigError(f"line {lineno}: expected SUFFIX <suffix> <U|L|A> <TAG...>")
            ids = _parse_tag_labels(fields[3:], ts, lineno)
            suffix_rules.append(SuffixRule(fields[1], fields[2], store.intern(ids)))
        elif kind == "PATTERN":
            if len(fields) < 3 or fields[1] not in _PATTERN_ORDER:
                raise ConfigError(f"line {lineno}: expected PATTERN <numeric|abbrev|symbol> <TAG...>")
            if fields[1] in pattern_rules:
                raise ConfigError(f"line {lineno}: duplicate PATTERN {fields[1]}")
            ids = _parse_tag_labels(fields[2:], ts, lineno)
            pattern_rules[fields[1]] = store.intern(ids)
        elif kind == "DEFAULT":
            if len(fields) < 3 or fields[1] not in (CASE_UPPER, CASE_LOWER):
                raise ConfigError(f"line {lineno}: expected DEFAULT <U|L> <TAG...>")
            if fields[1] in defaults:
                raise ConfigError(f"line {lineno}: duplicate DEFAULT {fields[1]}")
            ids = _parse_tag_labels(fields[2:], ts, lineno)
            defaults[fields[1]] = store.intern(ids)
        else:
            raise ConfigError(f"line {lineno}: unknown rule kind {kind!r}")
    missing = {CASE_UPPER, CASE_LOWER} - set(defaults)
    if missing:
        raise ConfigError(f"guesser rules must define DEFAULT {' and DEFAULT '.join(sorted(missing))}")
    return GuesserRules(suffix_rules, pattern_rules, defaults[CASE_UPPER], defaults[CASE_LOWER])


def guess_class(rules: GuesserRules, word: str) -> int:
    """Assign a class to an out-of-lexicon word; total for non-empty words."""
    if not word:
        raise ValueError("cannot classify an empty word")
    for kind in _PATTERN_ORDER:
        class_id = rules.pattern_rules.get(kind)
        if class_id is not None and _PATTERN_TESTS[kind](word):
            return class_id
    first_upper = word[0].isupper()
    first_lower = word[0].islower()
    for rule in rules.suffix_rules:
        if not word.endswith(rule.suffix):
            continue
        if rule.case == CASE_UPPER and not first_upper:
            continue
        if rule.case == CASE_LOWER and not first_lower:
            continue
        return rule.class_id
    return rules.default_upper if first_upper else rules.default_lower


def classify(lex: Lexicon, rules: GuesserRules, word: str) -> int:
    """Lexicon lookup with guesser fallback; the guesser is never consulted
    for known words."""
    if not word:
        raise ValueError("cannot classify an empty word")
    class_id = lex.entries.get(word)
    if class_id is not None:
        return class_id
    return guess_class(rules, word)


def default_lexicon_text() -> str:
    return resources.files("hmmtagger.data").joinpath("sample_de.lex").read_text("utf-8")


def default_rules_text() -> str:
    return resources.files("hmmtagger.data").joinpath("guesser.rules").read_text("utf-8")

"""Measurement battery: error rate, ambiguity rate, class-frequency and
error-type profiles, and the intra- vs cross-major-class ambiguity split.

The two profile tables mirror the layout conventions of published
class-based tagger analyses: class frequencies print like ``.0772 ART PROS
PRELS`` (relative to all tokens, leading zero dropped) and error types like
``0.0900 VINF/2 VFIN`` where the number after the slash is the size of the
equivalence class the model had to choose from, omitted when the lexicon
offered a single choice.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Optional, Sequence

from .errors import AlignmentError, ConfigError
from .lexicon import ClassStore
from .tagset import TagSet, config_lines

MAJOR_CLASSES = ("noun", "verb", "adjective", "adverb", "closed")
INTRA_CLASS = "intra-class"
CROSS_CLASS = "cross-class"


@dataclass(frozen=True)
class ClassFrequencyEntry:
    members: tuple[str, ...]  # tag labels, ascending tag id
    f_ec: float  # relative to all tokens
    count: int


@dataclass(frozen=True)
class ErrorTypeEntry:
    rel_freq: float  # relative to all mismatches
    predicted_tag: str
    class_size: Optional[int]  # None when the lexicon offered one choice
    gold_tag: str
    count: int


class MajorClassMap:
    """Total map from tag id to one of the five major word classes."""

    def __init__(self, by_tag_id: Sequence[str], ts: TagSet):
        self._by_tag_id = tuple(by_tag_id)
        self._ts = ts
        if len(self._by_tag_id) != len(ts):
            raise ConfigError("major-class map does not cover the whole tag set")
        for major in self._by_tag_id:
            if major not in MAJOR_CLASSES:
                raise ConfigError(f"unknown major class {major!r}")

    def major(self, tag_id: int) -> str:
        if not 0 <= tag_id < len(self._by_tag_id):
            raise ConfigError(f"tag id {tag_id} has no major class")
        return self._by_tag_id[tag_id]


def load_major_classes(source, ts: TagSet) -> MajorClassMap:
    """Load ``LABEL major_class`` lines; every tag in ``ts`` must appear."""
    by_label: dict[str, str] = {}
    for lineno, line in config_lines(source):
        fields = line.split()
        if len(fields) != 2:
            raise ConfigError(f"line {lineno}: expected LABEL MAJOR_CLASS")
        label, major = fields
        if ts.tag_id(label) is None:
            raise ConfigError(f"line {lineno}: unknown tag label {label!r}")
        if major not in MAJOR_CLASSES:
            raise ConfigError(f"line {lineno}: unknown major class {major!r}")
        if label in by_label:
            raise ConfigError(f"line {lineno}: duplicate entry for {label!r}")
        by_label[label] = major
    missing = [t.label for t in ts if t.label not in by_label]
    if missing:
        raise ConfigError(f"major-class map is missing tags: {', '.join(missing)}")
    return MajorClassMap([by_label[t.label] for t in ts], ts)


def default_major_classes(ts: TagSet) -> MajorClassMap:
    import io

    text = resources.files("hmmtagger.data").joinpath("elwis.major").read_text("utf-8")
    return load_major_classes(io.StringIO(text), ts)


def _check_aligned(pred, gold):
    if len(pred) != len(gold):
        raise AlignmentError(
            f"prediction has {len(pred)} sentences, gold has {len(gold)}"
        )
    for i, (p, g) in enumerate(zip(pred, gold)):
        if len(p) != len(g):
            raise AlignmentError(
                f"sentence {i}: prediction has {len(p)} tokens, gold has {len(g)}",
                sentence_index=i,
            )


def error_rate(pred: Sequence[Sequence[int]], gold: Sequence[Sequence[int]]) -> float:
    """Fraction of tokens whose predicted tag differs from the gold tag."""
    _check_aligned(pred, gold)
    total = mismatches = 0
    for p_sent, g_sent in zip(pred, gold):
        total += len(p_sent)
        mismatches += sum(1 for p, g in zip(p_sent, g_sent) if p != g)
    if total == 0:
        raise AlignmentError("cannot compute an error rate over zero tokens")
    return mismatches / total


def ambiguity_rate(class_seqs: Sequence[Sequence[int]], store: ClassStore) -> float:
    """Total possible tag assignments divided by the token count (>= 1)."""
    total = slots = 0
    for sentence in class_seqs:
        for c in sentence:
            total += 1
            slots += store.size(c)
    if total == 0:
        raise AlignmentError("cannot compute an ambiguity rate over zero tokens")
    return slots / total


def class_frequency_table(class_seqs: Sequence[Sequence[int]], store: ClassStore,
                          ts: TagSet, top_k: Optional[int] = None) -> list[ClassFrequencyEntry]:
    """Most frequent ambiguous classes, relative to all tokens.

    Singleton classes never appear, but their tokens stay in the
    denominator.  Ordered by descending frequency, then ascending class id.
    """
    counts: Counter[int] = Counter()
    total = 0
    for sentence in class_seqs:
        for c in sentence:
            total += 1
            if store.size(c) > 1:
                counts[c] += 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    if top_k is not None:
        ranked = ranked[:top_k]
    return [
        ClassFrequencyEntry(
            members=tuple(ts.label(t) for t in store.members(c)),
            f_ec=count / total,
            count=count,
        )
        for c, count in ranked
    ]


def error_type_table(pred, gold, class_seqs, store: ClassStore, ts: TagSet,
                     top_k: Optional[int] = None) -> list[ErrorTypeEntry]:
    """Mismatches grouped by (predicted tag, class size, gold tag).

    Frequencies are relative to the total number of mismatches and sum to 1
    over the full (untruncated) table.  Ordered by descending frequency,
    then ascending (predicted id, class size, gold id).
    """
    _check_aligned(pred, gold)
    _check_aligned(pred, class_seqs)
    groups: Counter[tuple[int, int, int]] = Counter()
    mismatches = 0
    for p_sent, g_sent, c_sent in zip(pred, gold, class_seqs):
        for p, g, c in zip(p_sent, g_sent, c_sent):
            if p != g:
                mismatches += 1
                groups[(p, store.size(c), g)] += 1
    if mismatches == 0:
        return []
    ranked = sorted(groups.items(), key=lambda kv: (-kv[1], kv[0]))
    if top_k is not None:
        ranked = ranked[:top_k]
    return [
        ErrorTypeEntry(
            rel_freq=count / mismatches,
            predicted_tag=ts.label(p),
            class_size=size if size > 1 else None,
            gold_tag=ts.label(g),
            count=count,
        )
        for (p, size, g), count in ranked
    ]


def ambiguity_kind(members: Iterable[int], major_map: MajorClassMap) -> str:
    """Whether an ambiguous class stays inside one major word class.

    Returns ``intra-class`` when all members share a major class, else
    ``cross-class``.  Singleton classes have no ambiguity to classify.
    """
    members = tuple(members)
    if len(members) < 2:
        raise ValueError("ambiguity kind is only defined for classes with >= 2 members")
    majors = {major_map.major(t) for t in members}
    return INTRA_CLASS if len(majors) == 1 else CROSS_CLASS


def _format_fec(f: float) -> str:
    return f"{f:.4f}".lstrip("0") or ".0000"


def _format_error_row(entry: ErrorTypeEntry) -> str:
    predicted = entry.predicted_tag
    if entry.class_size is not None:
        predicted = f"{predicted}/{entry.class_size}"
    return f"{entry.rel_freq:.4f} {predicted} {entry.gold_tag}"


@dataclass
class EvalReport:
    error_rate: float
    ambiguity_rate: float
    class_frequencies: list[ClassFrequencyEntry]
    error_types: list[ErrorTypeEntry]
    intra_cross_split: dict
    n_tokens: int
    n_mismatches: int

    def to_dict(self) -> dict:
        return {
            "error_rate": self.error_rate,
            "ambiguity_rate": self.ambiguity_rate,
            "n_tokens": self.n_tokens,
            "n_mismatches": self.n_mismatches,
            "class_frequencies": [
                {"f_ec": e.f_ec, "members": list(e.members), "count": e.count}
                for e in self.class_frequencies
            ],
            "error_types": [
                {
                    "rel_freq": e.rel_freq,
                    "predicted_tag": e.predicted_tag,
                    "class_size": e.class_size,
                    "gold_tag": e.gold_tag,
                    "count": e.count,
                }
                for e in self.error_types
            ],
            "intra_cross_split": self.intra_cross_split,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, ensure_ascii=False)

    def render_text(self) -> str:
        lines = [
            f"error rate {self.error_rate:.4f}",
            f"ambiguity rate {self.ambiguity_rate:.4f}",
            "ambiguous token mass: "
            f"intra-class {self.intra_cross_split['intra']:.4f} "
            f"cross-class {self.intra_cross_split['cross']:.4f} "
            f"({self.intra_cross_split['ambiguous_tokens']} ambiguous tokens)",
            "",
            "most frequent ambiguous equivalence classes",
            "f(ec) / elements of equivalence class",
        ]
        for e in self.class_frequencies:
            lines.append(f"{_format_fec(e.f_ec)} {' '.join(e.members)}")
        lines += ["", "most common error types", "rel.freq / model / human"]
        for e in self.error_types:
            lines.append(_format_error_row(e))
        return "\n".join(lines) + "\n"


def profile_report(pred, gold, class_seqs, store: ClassStore, ts: TagSet,
                   major_map: MajorClassMap, top_k: Optional[int] = 20) -> EvalReport:
    """Aggregate the full measurement battery into one report."""
    _check_aligned(pred, gold)
    _check_aligned(pred, class_seqs)
    rate = error_rate(pred, gold)
    n_tokens = sum(len(s) for s in pred)
    n_mismatches = round(rate * n_tokens)

    ambiguous = intra = 0
    for sentence in class_seqs:
        for c in sentence:
            if store.size(c) > 1:
                ambiguous += 1
                if ambiguity_kind(store.members(c), major_map) == INTRA_CLASS:
                    intra += 1
    split = {
        "intra": intra / ambiguous if ambiguous else 0.0,
        "cross": (ambiguous - intra) / ambiguous if ambiguous else 0.0,
        "ambiguous_tokens": ambiguous,
    }
    return EvalReport(
        error_rate=rate,
        ambiguity_rate=ambiguity_rate(class_seqs, store),
        class_frequencies=class_frequency_table(class_seqs, store, ts, top_k),
        error_types=error_type_table(pred, gold, class_seqs, store, ts, top_k),
        intra_cross_split=split,
        n_tokens=n_tokens,
        n_mismatches=n_mismatches,
    )

"""Measurement battery: error rate, ambiguity rate, class-frequency and
error-type profiles, and the intra- vs cross-major-class ambiguity split.

The two profile tables mirror the layout conventions of published
class-based tagger analyses: class frequencies print like ``.0772 ART PROS
PRELS`` (relative to all tokens, leading zero dropped) and error types like
``0.0900 VINF/2 VFIN`` where the number after the slash is the size of the
equivalence class the model had to choose from, omitted when the lexicon
offered a single choice.

Every figure is read from one tally of the corpus: alignment is checked
once, then a single pass counts the tokens per class id and the mismatches
per (predicted tag, class id, gold tag).  Class sizes, members and major
classes are then looked up once per distinct class, not once per token.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from importlib import resources
from itertools import repeat
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import AlignmentError, ConfigError
from .lexicon import ClassStore
from .tagset import TagSet, config_lines

MAJOR_CLASSES = ("noun", "verb", "adjective", "adverb", "closed")
INTRA_CLASS = "intra-class"
CROSS_CLASS = "cross-class"


@dataclass(frozen=True)
class ClassFrequencyEntry:
    f_ec: float  # relative to all tokens
    members: tuple[str, ...]  # tag labels, ascending tag id
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


class _Tally:
    """One pass over the token sequences; every figure is read from it.

    Counts the tokens per class id and the mismatches per (predicted tag,
    class id, gold tag), the class id being None when no class sequences
    are given.  ``pred`` and ``gold`` come together or not at all.  The
    sequences given are checked against the first, in order, for alignment.
    """

    def __init__(self, pred=None, gold=None, classes=None):
        first, *others = [s for s in (pred, gold, classes) if s is not None]
        for other in others:
            if len(first) != len(other):
                raise AlignmentError(
                    f"prediction has {len(first)} sentences, gold has {len(other)}")
            for i, (p, g) in enumerate(zip(first, other)):
                if len(p) != len(g):
                    raise AlignmentError(
                        f"sentence {i}: prediction has {len(p)} tokens, gold has {len(g)}",
                        sentence_index=i)
        self.n_tokens = sum(map(len, first))
        self.class_counts: Counter[int] = Counter()
        self.mismatches: Counter[tuple[int, Optional[int], int]] = Counter()
        absent = repeat(repeat(None))  # None at every token of every sentence
        for p_s, g_s, c_s in zip(*(absent if s is None else s for s in (pred, gold, classes))):
            if classes is not None:
                c_s = np.asarray(c_s).tolist()
                self.class_counts.update(c_s)
            self.mismatches.update((p, c, g) for p, g, c in zip(p_s, g_s, c_s) if p != g)
        self.n_mismatches = sum(self.mismatches.values())

    def error_rate(self) -> float:
        if self.n_tokens == 0:
            raise AlignmentError("cannot compute an error rate over zero tokens")
        return self.n_mismatches / self.n_tokens

    def ambiguity_rate(self, store: ClassStore) -> float:
        if self.n_tokens == 0:
            raise AlignmentError("cannot compute an ambiguity rate over zero tokens")
        return sum(count * store.size(c) for c, count in self.class_counts.items()) / self.n_tokens

    def ambiguous_classes(self, store: ClassStore) -> dict[int, int]:
        return {c: count for c, count in self.class_counts.items() if store.size(c) > 1}

    def class_frequencies(self, store: ClassStore, ts: TagSet,
                          top_k: Optional[int]) -> list[ClassFrequencyEntry]:
        ranked = sorted(self.ambiguous_classes(store).items(), key=lambda kv: (-kv[1], kv[0]))
        return [
            ClassFrequencyEntry(
                f_ec=count / self.n_tokens,
                members=tuple(ts.label(t) for t in store.members(c)),
                count=count,
            )
            for c, count in ranked[:top_k]
        ]

    def error_types(self, store: ClassStore, ts: TagSet,
                    top_k: Optional[int]) -> list[ErrorTypeEntry]:
        groups: Counter[tuple[int, int, int]] = Counter()
        for (p, c, g), count in self.mismatches.items():
            groups[(p, store.size(c), g)] += count
        ranked = sorted(groups.items(), key=lambda kv: (-kv[1], kv[0]))
        return [
            ErrorTypeEntry(
                rel_freq=count / self.n_mismatches,
                predicted_tag=ts.label(p),
                class_size=size if size > 1 else None,
                gold_tag=ts.label(g),
                count=count,
            )
            for (p, size, g), count in ranked[:top_k]
        ]

    def intra_cross_split(self, store: ClassStore, major_map: MajorClassMap) -> dict:
        ambiguous = intra = 0
        for c, count in self.ambiguous_classes(store).items():
            ambiguous += count
            if ambiguity_kind(store.members(c), major_map) == INTRA_CLASS:
                intra += count
        return {
            "intra": intra / ambiguous if ambiguous else 0.0,
            "cross": (ambiguous - intra) / ambiguous if ambiguous else 0.0,
            "ambiguous_tokens": ambiguous,
        }


def error_rate(pred: Sequence[Sequence[int]], gold: Sequence[Sequence[int]]) -> float:
    """Fraction of tokens whose predicted tag differs from the gold tag."""
    return _Tally(pred, gold).error_rate()


def ambiguity_rate(class_seqs: Sequence[Sequence[int]], store: ClassStore) -> float:
    """Total possible tag assignments divided by the token count (>= 1)."""
    return _Tally(classes=class_seqs).ambiguity_rate(store)


def class_frequency_table(class_seqs: Sequence[Sequence[int]], store: ClassStore,
                          ts: TagSet, top_k: Optional[int] = None) -> list[ClassFrequencyEntry]:
    """Most frequent ambiguous classes, relative to all tokens.

    Singleton classes never appear, but their tokens stay in the
    denominator.  Ordered by descending frequency, then ascending class id.
    """
    return _Tally(classes=class_seqs).class_frequencies(store, ts, top_k)


def error_type_table(pred, gold, class_seqs, store: ClassStore, ts: TagSet,
                     top_k: Optional[int] = None) -> list[ErrorTypeEntry]:
    """Mismatches grouped by (predicted tag, class size, gold tag).

    Frequencies are relative to the total number of mismatches and sum to 1
    over the full (untruncated) table.  Ordered by descending frequency,
    then ascending (predicted id, class size, gold id).
    """
    return _Tally(pred, gold, class_seqs).error_types(store, ts, top_k)


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
    # in the order of the ``--json`` report's keys
    error_rate: float
    ambiguity_rate: float
    n_tokens: int
    n_mismatches: int
    class_frequencies: list[ClassFrequencyEntry]
    error_types: list[ErrorTypeEntry]
    intra_cross_split: dict

    def to_dict(self) -> dict:
        return asdict(self)

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
    tally = _Tally(pred, gold, class_seqs)
    return EvalReport(
        error_rate=tally.error_rate(),
        ambiguity_rate=tally.ambiguity_rate(store),
        n_tokens=tally.n_tokens,
        n_mismatches=tally.n_mismatches,
        class_frequencies=tally.class_frequencies(store, ts, top_k),
        error_types=tally.error_types(store, ts, top_k),
        intra_cross_split=tally.intra_cross_split(store, major_map),
    )

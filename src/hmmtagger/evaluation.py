"""Measurement battery: error rate, ambiguity rate, class-frequency and
error-type profiles, and the intra- vs cross-major-class ambiguity split.

The two profile tables mirror the layout conventions of published
class-based tagger analyses: class frequencies print like ``.0772 ART PROS
PRELS`` (relative to all tokens, leading zero dropped) and error types like
``0.0900 VINF/2 VFIN`` where the number after the slash is the size of the
equivalence class the model had to choose from, omitted when the lexicon
offered a single choice.

Every figure is read from one tally of the corpus.  ``check_alignment``
is the one check of sentence counts, lengths and surfaces, for library
callers and ``hmmtagger eval`` alike.  The tally then counts the tokens per
class id and the mismatches per (predicted tag, class id, gold tag) over
flat int columns, a block of tokens at a time, so ``hmmtagger eval`` holds
no more than a block of the corpus.  Class sizes, members and major classes
are then looked up once per distinct class, not once per token.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from importlib import resources
from itertools import chain
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import AlignmentError, ConfigError
from .tagset import TagSet, config_lines

MAJOR_CLASSES = ("noun", "verb", "adjective", "adverb", "closed")
INTRA_CLASS = "intra-class"
CROSS_CLASS = "cross-class"

Inventory = Sequence[tuple[int, ...]]  # class id -> its sorted member tag ids


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


def check_alignment(pred_lengths, gold_lengths, pred_words=None, gold_words=None,
                    start: int = 0) -> None:
    """Raise AlignmentError where prediction and gold first disagree.

    The lengths are int arrays, one entry per sentence from sentence
    ``start`` on; the words, when given, are those sentences' words in one
    flat list per side.  The sentence counts are compared first.  Then the
    first sentence whose length differs, or before it the first token whose
    surface differs, is named, with its sentence index.
    """
    if len(pred_lengths) != len(gold_lengths):
        raise AlignmentError(f"prediction has {start + len(pred_lengths)} sentences, "
                             f"gold has {start + len(gold_lengths)}")
    differ = np.flatnonzero(pred_lengths != gold_lengths)
    bad = int(differ[0]) if differ.size else len(pred_lengths)
    if pred_words is not None:
        ends = np.cumsum(gold_lengths[:bad])
        n = int(ends[-1]) if bad else 0
        if pred_words[:n] != gold_words[:n]:
            j = next(j for j, (p, g) in enumerate(zip(pred_words, gold_words)) if p != g)
            i = int(np.searchsorted(ends, j, side="right"))
            raise AlignmentError(
                f"sentence {start + i} token {j - int(ends[i]) + int(gold_lengths[i])}: "
                f"surface {pred_words[j]!r} != {gold_words[j]!r}", sentence_index=start + i)
    if differ.size:
        raise AlignmentError(
            f"sentence {start + bad}: prediction has {pred_lengths[bad]} tokens, "
            f"gold has {gold_lengths[bad]}", sentence_index=start + bad)


def aligned_blocks(pred_blocks, gold_blocks) -> Iterator[tuple]:
    """Pair two streams of ``corpusio.TaggedBlock``s, read in lockstep, as
    blocks that hold the same sentences of the prediction and of gold.

    ``check_alignment`` checks each pair and, once a stream runs out, the
    number of sentences left in the other.
    """
    pred = gold = None  # what is left of the last block read from each stream
    start = 0  # index of the next sentence
    while True:
        if pred is None:
            pred = next(pred_blocks, None)
        if gold is None:
            gold = next(gold_blocks, None)
        if pred is None or gold is None:
            break
        k = min(len(pred.lengths), len(gold.lengths))
        (p, pred), (g, gold) = pred.cut(k), gold.cut(k)
        check_alignment(p.lengths, g.lengths, p.words, g.words, start)
        yield p, g
        start += k
        pred = pred if len(pred.lengths) else None
        gold = gold if len(gold.lengths) else None

    def left(block, blocks):  # the lengths of the sentences not yet paired
        first = [] if block is None else [block]
        return np.concatenate([np.empty(0, np.intp)] + [b.lengths for b in chain(first, blocks)])

    check_alignment(left(pred, pred_blocks), left(gold, gold_blocks), start=start)


class _Tally:
    """Token counts per class id and mismatch counts per (predicted tag,
    class id, gold tag); every figure is read from them.

    Tokens are added a block at a time as flat int columns, which ``add``
    counts with ``np.bincount`` and ``np.unique``.  ``pred`` and ``gold``
    come together or not at all; without ``classes`` only the number of
    mismatches is counted.
    """

    def __init__(self):
        self.n_tokens = self.n_mismatches = 0
        self.class_counts: Counter[int] = Counter()
        self.mismatches: Counter[tuple[int, int, int]] = Counter()

    @classmethod
    def of_sentences(cls, pred=None, gold=None, classes=None) -> _Tally:
        """The tally of sequences of sentences, after checking the sequences
        given against the first, in order, for alignment."""
        given = [s for s in (pred, gold, classes) if s is not None]
        first, *others = [np.fromiter(map(len, s), np.intp, len(s)) for s in given]
        for other in others:
            check_alignment(first, other)
        tally = cls()
        tally.add(*(None if s is None else np.fromiter(chain.from_iterable(s), np.intp)
                    for s in (pred, gold, classes)))
        return tally

    def add(self, pred=None, gold=None, classes=None) -> None:
        """Count a block of aligned tokens, given as flat int arrays."""
        self.n_tokens += len(gold if classes is None else classes)
        if classes is not None:
            counts = np.bincount(classes)
            present = np.flatnonzero(counts)
            self.class_counts.update(dict(zip(present.tolist(), counts[present].tolist())))
        if pred is None:
            return
        wrong = np.flatnonzero(pred != gold)
        self.n_mismatches += len(wrong)
        if classes is None or not len(wrong):
            return
        p, c, g = pred[wrong], classes[wrong], gold[wrong]
        n_classes, n_tags = int(c.max()) + 1, int(max(p.max(), g.max())) + 1
        keys, counts = np.unique((p * n_classes + c) * n_tags + g, return_counts=True)
        for key, count in zip(keys.tolist(), counts.tolist()):
            pc, g_tag = divmod(key, n_tags)
            self.mismatches[divmod(pc, n_classes) + (g_tag,)] += count

    def error_rate(self) -> float:
        if self.n_tokens == 0:
            raise AlignmentError("cannot compute an error rate over zero tokens")
        return self.n_mismatches / self.n_tokens

    def ambiguity_rate(self, store: Inventory) -> float:
        if self.n_tokens == 0:
            raise AlignmentError("cannot compute an ambiguity rate over zero tokens")
        return sum(count * len(store[c]) for c, count in self.class_counts.items()) / self.n_tokens

    def ambiguous_classes(self, store: Inventory) -> dict[int, int]:
        return {c: count for c, count in self.class_counts.items() if len(store[c]) > 1}

    def class_frequencies(self, store: Inventory, ts: TagSet,
                          top_k: Optional[int]) -> list[ClassFrequencyEntry]:
        ranked = sorted(self.ambiguous_classes(store).items(), key=lambda kv: (-kv[1], kv[0]))
        return [
            ClassFrequencyEntry(
                f_ec=count / self.n_tokens,
                members=tuple(ts.label(t) for t in store[c]),
                count=count,
            )
            for c, count in ranked[:top_k]
        ]

    def error_types(self, store: Inventory, ts: TagSet,
                    top_k: Optional[int]) -> list[ErrorTypeEntry]:
        groups: Counter[tuple[int, int, int]] = Counter()
        for (p, c, g), count in self.mismatches.items():
            groups[(p, len(store[c]), g)] += count
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

    def intra_cross_split(self, store: Inventory, major_map: MajorClassMap) -> dict:
        ambiguous = intra = 0
        for c, count in self.ambiguous_classes(store).items():
            ambiguous += count
            if ambiguity_kind(store[c], major_map) == INTRA_CLASS:
                intra += count
        return {
            "intra": intra / ambiguous if ambiguous else 0.0,
            "cross": (ambiguous - intra) / ambiguous if ambiguous else 0.0,
            "ambiguous_tokens": ambiguous,
        }


def error_rate(pred: Sequence[Sequence[int]], gold: Sequence[Sequence[int]]) -> float:
    """Fraction of tokens whose predicted tag differs from the gold tag."""
    return _Tally.of_sentences(pred, gold).error_rate()


def ambiguity_rate(class_seqs: Sequence[Sequence[int]], store: Inventory) -> float:
    """Total possible tag assignments divided by the token count (>= 1)."""
    return _Tally.of_sentences(classes=class_seqs).ambiguity_rate(store)


def class_frequency_table(class_seqs: Sequence[Sequence[int]], store: Inventory,
                          ts: TagSet, top_k: Optional[int] = None) -> list[ClassFrequencyEntry]:
    """Most frequent ambiguous classes, relative to all tokens.

    Singleton classes never appear, but their tokens stay in the
    denominator.  Ordered by descending frequency, then ascending class id.
    """
    return _Tally.of_sentences(classes=class_seqs).class_frequencies(store, ts, top_k)


def error_type_table(pred, gold, class_seqs, store: Inventory, ts: TagSet,
                     top_k: Optional[int] = None) -> list[ErrorTypeEntry]:
    """Mismatches grouped by (predicted tag, class size, gold tag).

    Frequencies are relative to the total number of mismatches and sum to 1
    over the full (untruncated) table.  Ordered by descending frequency,
    then ascending (predicted id, class size, gold id).
    """
    return _Tally.of_sentences(pred, gold, class_seqs).error_types(store, ts, top_k)


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


def profile_report(pred, gold, class_seqs, store: Inventory, ts: TagSet,
                   major_map: MajorClassMap, top_k: Optional[int] = 20) -> EvalReport:
    """Aggregate the full measurement battery into one report."""
    return _report(_Tally.of_sentences(pred, gold, class_seqs), store, ts, major_map, top_k)


def profile_columns(columns, store: Inventory, ts: TagSet, major_map: MajorClassMap,
                    top_k: Optional[int] = 20) -> EvalReport:
    """``profile_report`` of aligned blocks of tokens: ``columns`` yields
    (predicted tags, gold tags, class ids) as flat int arrays."""
    tally = _Tally()
    for pred, gold, classes in columns:
        tally.add(pred, gold, classes)
    return _report(tally, store, ts, major_map, top_k)


def _report(tally: _Tally, store, ts, major_map, top_k) -> EvalReport:
    return EvalReport(
        error_rate=tally.error_rate(),
        ambiguity_rate=tally.ambiguity_rate(store),
        n_tokens=tally.n_tokens,
        n_mismatches=tally.n_mismatches,
        class_frequencies=tally.class_frequencies(store, ts, top_k),
        error_types=tally.error_types(store, ts, top_k),
        intra_cross_split=tally.intra_cross_split(store, major_map),
    )

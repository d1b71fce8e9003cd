"""Corpus readers and writers, plus a minimal rule tokenizer.

The canonical corpus formats are line-oriented UTF-8:

* untagged: one token per line, a blank line ends a sentence;
* tagged:   ``token<TAB>TAG`` per line, same sentence convention; an
            optional third column holds the token's class signature.

A sentence is plain data: the untagged readers and the tokenizer yield it
as a list of words, ``read_tagged`` as a list of ``(word, tag id)`` pairs
(triples with a signature), and the writers take the same shapes back.
``read_pretokenized_blocks`` and ``read_tagged_blocks`` yield the same
corpora a block of whole sentences at a time, as columns.

Corpora are parsed a block at a time.  ``tagset.decoded_blocks`` decodes
about 32 KiB of whole lines in one call, as for config files: LF and CRLF
line endings are accepted, nothing else is normalized, and a bad byte is a
FormatError with its offset and line.  ``sentence_blocks`` cuts each block
after its last whole sentence and carries the open one into the next block,
and the readers check and split the lines of those sentences with
whole-list string operations.  So memory is bounded by a block plus the
longest sentence, never the corpus.  Only when a check fails is a block
searched line by line, so an error names the first bad line, as it would
if lines were read one at a time.  ``#`` is never a comment inside corpora
(a token may be ``#``).

The bundled tokenizer is deliberately minimal: whitespace splitting, trailing
punctuation detached as separate tokens, a sentence break after a detached
``.``, ``!`` or ``?``, and an abbreviation list that keeps the final period
attached.  Pretokenized input is the bit-exact, recommended route.
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from importlib import resources
from itertools import repeat
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import DataError, FormatError, TaggerError
from .tagset import TagSet, decoded_blocks, decoded_lines


def sentence_blocks(source, parse) -> Iterator:
    """Yield ``parse(lines, line_numbers, lengths)`` for the whole sentences
    of each decoded block of ``source``.

    ``lines`` holds the sentences' lines without the blank ones,
    ``line_numbers`` is an int array of their line numbers and ``lengths``
    one of each sentence's number of lines.  Blank lines end sentences; runs
    of them collapse into a single break, a sentence may cross block edges,
    and the last one is closed at end of input.  ``parse`` raises for the
    first bad line it is given.  Before a bad byte in a later block is
    reported, the open sentence's lines are parsed, so that errors come in
    line order.
    """
    lines, numbers = [], []  # the open sentence: its lines, and arrays of their numbers
    blocks = decoded_blocks(source)
    while True:
        try:
            block = next(blocks, None)
        except FormatError:
            if lines:
                parse(lines, np.concatenate(numbers), np.array([len(lines)]))
            raise
        if block is None:
            break
        first, new = block
        kept = np.flatnonzero(np.fromiter(map(len, new), np.intp, len(new))) + first
        # a sentence starts after a gap in the line numbers
        starts = len(lines) + np.flatnonzero(np.diff(kept, prepend=first - 1) != 1)
        starts = starts[starts > 0]
        lines += filter(None, new)
        numbers.append(kept)
        if new[-1]:  # the block ends inside a sentence, which stays open
            cut = int(starts[-1]) if starts.size else 0
            starts = starts[:-1]
        else:
            cut = len(lines)
        if cut:  # else the open sentence grows, and is not copied
            rows = np.concatenate(numbers)
            done, lines, numbers = lines[:cut], lines[cut:], [rows[cut:]]
            yield parse(done, rows[:cut], np.diff(starts, prepend=0, append=cut))
    if lines:
        yield parse(lines, np.concatenate(numbers), np.array([len(lines)]))


def _split(rows: list, lengths) -> Iterator[list]:
    """``rows`` cut into consecutive sentences of the given lengths."""
    end = 0
    for n in lengths.tolist():
        yield rows[end:end + n]
        end += n


def _untagged(lines, line_numbers, lengths):
    if "\t" in "".join(lines):
        i = next(i for i, line in enumerate(lines) if "\t" in line)
        raise FormatError(f"line {line_numbers[i]}: token {lines[i]!r} holds a TAB")
    return lines, lengths


def read_pretokenized(source) -> Iterator[list[str]]:
    """Stream sentences, as lists of words, from a one-token-per-line file.

    Blank lines end sentences; runs of blank lines collapse into a single
    break, and a trailing sentence is closed at end of input.  A token holds
    no TAB, which separates the columns of tagged output: a line with one
    raises FormatError naming it.  This is the per-sentence view of
    ``read_pretokenized_blocks``.
    """
    for words, lengths in read_pretokenized_blocks(source):
        yield from _split(words, lengths)


def read_pretokenized_blocks(source) -> Iterator[tuple[list[str], np.ndarray]]:
    """Read a one-token-per-line file (see ``read_pretokenized``) as the
    columns of its whole sentences, one ``(words, lengths)`` pair per
    decoded block: the words one sentence after the other, and each
    sentence's number of words."""
    return sentence_blocks(source, _untagged)


_DETACH = set(".,!?;:\"')]}»”‘’")
_SENTENCE_FINAL = {".", "!", "?"}


def default_abbreviations() -> frozenset[str]:
    text = resources.files("hmmtagger.data").joinpath("abbreviations_de.txt").read_text("utf-8")
    return frozenset(line.strip() for line in text.splitlines() if line.strip())


def tokenize_raw(source, abbreviations: Iterable[str] | None = None) -> Iterator[list[str]]:
    """Tokenize free text into sentences of words.

    Trailing punctuation is detached from each whitespace-delimited word,
    innermost token first; a word ending in ``.`` that is on the
    abbreviation list keeps its period and never ends a sentence.
    """
    abbrev = frozenset(abbreviations) if abbreviations is not None else default_abbreviations()
    sentence: list[str] = []
    for _lineno, line in decoded_lines(source):
        for word in line.split():
            detached: list[str] = []
            core = word
            while len(core) > 1 and core[-1] in _DETACH:
                if core[-1] == "." and core in abbrev:
                    break
                detached.append(core[-1])
                core = core[:-1]
            pieces = [core] + detached[::-1]
            sentence += pieces
            if any(p in _SENTENCE_FINAL for p in pieces):
                yield sentence
                sentence = []
    if sentence:
        yield sentence


class TaggedBlock(NamedTuple):
    """The columns of a run of whole tagged sentences."""

    words: list[str]
    tags: np.ndarray  # one tag id per token
    signatures: list | None  # third column; None at two-column lines, or for all
    lengths: np.ndarray  # tokens per sentence

    def cut(self, k: int) -> tuple[TaggedBlock, TaggedBlock]:
        """The first ``k`` sentences and the rest."""
        n = int(self.lengths[:k].sum())
        sig = self.signatures
        return (TaggedBlock(self.words[:n], self.tags[:n], sig and sig[:n], self.lengths[:k]),
                TaggedBlock(self.words[n:], self.tags[n:], sig and sig[n:], self.lengths[k:]))


def read_tagged_blocks(source, ts: TagSet) -> Iterator[TaggedBlock]:
    """Parse a ``token<TAB>TAG`` file (see ``read_tagged``) into the columns
    of its whole sentences, one ``TaggedBlock`` per decoded block.

    Lines are checked in bulk: one or two TABs per line and the same number
    within a sentence, no empty token, one dict lookup per tag label, and
    each distinct (signature, tag) pair once per run.  When a check fails,
    the first bad line raises the error that reading line by line would.
    """
    index, checked = ts.label_index, set()  # (signature, label) pairs found good

    def parse(lines, line_numbers, lengths) -> TaggedBlock:
        n = len(lines)
        tabs = np.fromiter(map(str.count, lines, repeat("\t")), np.intp, n)
        low, high = int(tabs.min()), int(tabs.max())
        if low < 1 or high > 2 or high > low and np.any(
                np.repeat(tabs[np.cumsum(lengths) - lengths], lengths) != tabs):
            raise _first_error(lines, line_numbers, lengths, ts)
        parts = "\t".join(lines).split("\t")
        if low == high:
            words, labels = parts[0::high + 1], parts[1::high + 1]
            signatures = parts[2::3] if high == 2 else None
        else:  # sentences of two and of three columns
            at = (np.cumsum(tabs + 1) - (tabs + 1)).tolist()
            words, labels = [parts[i] for i in at], [parts[i + 1] for i in at]
            signatures = [parts[i + 2] if t == 2 else None for i, t in zip(at, tabs.tolist())]
        if "" in words:
            raise _first_error(lines, line_numbers, lengths, ts)
        try:
            tags = np.fromiter(map(index.__getitem__, labels), np.intp, n)
        except KeyError:
            raise _first_error(lines, line_numbers, lengths, ts) from None
        if signatures is not None:
            for pair in set(zip(signatures, labels)) - checked:
                signature, label = pair
                if signature is not None:
                    members = signature.split("+")
                    if label not in members or not all(m in index for m in members):
                        raise _first_error(lines, line_numbers, lengths, ts)
                checked.add(pair)
        return TaggedBlock(words, tags, signatures, lengths)

    return sentence_blocks(source, parse)


def _first_error(lines, line_numbers, lengths, ts: TagSet) -> TaggerError:
    """The error of the first bad line of these whole sentences, which the
    bulk checks found to hold one."""
    starts = set((np.cumsum(lengths) - lengths).tolist())
    for i, (lineno, line) in enumerate(zip(line_numbers.tolist(), lines)):
        surface, sep, label = line.partition("\t")
        if not sep:
            return FormatError(f"line {lineno}: expected token<TAB>TAG, got {line!r}")
        if not surface:
            return FormatError(f"line {lineno}: empty token")
        label, sep, signature = label.partition("\t")
        tag = ts.tag_id(label)
        if tag is None:
            return DataError(f"line {lineno}: unknown tag {label!r}")
        if sep and (label not in signature.split("+")
                    or None in map(ts.tag_id, signature.split("+"))):
            return FormatError(f"line {lineno}: third column {signature!r} is not a class "
                               f"signature containing {label!r}")
        if i in starts:
            columns = sep  # the sentence's first line sets its column count
        elif sep != columns:
            return FormatError(f"line {lineno}: sentence mixes two- and three-column lines")
    raise AssertionError("the bulk checks failed on good lines")


def read_tagged(source, ts: TagSet) -> Iterator[list[tuple[str, int] | tuple[str, int, str]]]:
    """Stream tagged sentences, as lists of ``(word, tag id)`` pairs, from a
    ``token<TAB>TAG`` file.

    An optional third column, as ``hmmtagger tag --with-class`` writes it,
    is the token's class signature (see ``class_signatures``); it must
    include the line's tag, and the line then reads as a
    ``(word, tag id, signature)`` triple.  All lines of a sentence have the
    same number of columns.  This is the per-sentence view of
    ``read_tagged_blocks``.
    """
    for words, tags, signatures, lengths in read_tagged_blocks(source, ts):
        tags = tags.tolist()
        if signatures is None:
            rows = list(zip(words, tags))
        else:
            rows = [(w, t) if s is None else (w, t, s) for w, t, s in zip(words, tags, signatures)]
        yield from _split(rows, lengths)


def class_signatures(ts: TagSet, class_members) -> list[str]:
    """Each class's signature column: its members' labels joined by ``+``."""
    return ["+".join(map(ts.label, members)) for members in class_members]


def _text_sink(sink):
    """``sink`` itself if it has ``write``, else a new UTF-8 file at that path."""
    if hasattr(sink, "write"):
        return nullcontext(sink)
    return open(os.fspath(sink), "w", encoding="utf-8", newline="\n")


def write_tagged(sink, sentences, ts: TagSet) -> None:
    """The inverse of read_tagged, one ``write`` per sentence (whose rows
    are all pairs or all triples) through ``write_columns``."""
    with _text_sink(sink) as stream:
        for sentence in sentences:
            write_columns(stream, ts, [len(sentence)], *(list(zip(*sentence)) or [(), ()]))


def write_columns(stream, ts: TagSet, lengths, words, tags, signatures=None) -> None:
    """Write sentences of the given ``lengths`` in one ``write``, a blank
    line after each, from the columns of their tokens, one sentence after
    the other: ``words``, tag ids ``tags`` and, if given, ``signatures``."""
    k, end = (2, "\n") if signatures is None else (4, "\t")  # cells per token, after the tag
    labels = np.array([f"\t{label}{end}" for label in ts.labels], dtype=object)
    cells = np.full(len(words) * k + len(lengths), "\n", dtype=object)
    at = np.arange(0, cells.size - len(lengths), k) + np.repeat(np.arange(len(lengths)), lengths)
    cells[at] = words
    cells[at + 1] = labels[np.asarray(tags, dtype=np.intp)]
    if signatures is not None:
        cells[at + 2] = signatures
    stream.write("".join(cells.tolist()))


def write_pretokenized(sink, sentences) -> None:
    """Write sentences of words, one per line, with blank-line sentence breaks."""
    with _text_sink(sink) as stream:
        for sentence in sentences:
            for surface in sentence:
                stream.write(surface + "\n")
            stream.write("\n")

"""Corpus readers and writers, plus a minimal rule tokenizer.

The canonical corpus formats are line-oriented UTF-8:

* untagged: one token per line, a blank line ends a sentence;
* tagged:   ``token<TAB>TAG`` per line, same sentence convention; an
            optional third column holds the token's class signature.

A sentence is plain data: the untagged readers and the tokenizer yield it
as a list of words, ``read_tagged`` as a list of ``(word, tag id)`` pairs
(triples with a signature), and the writers take the same shapes back.
Lines are decoded by ``tagset.decoded_lines``, as in config files: LF and
CRLF line endings are accepted, nothing else is normalized, and a bad byte
is a FormatError with its offset and line.  ``#`` is never a comment inside
corpora (a token may be ``#``).  All readers stream sentence by sentence,
so corpora of millions of tokens never need to fit in memory.

The bundled tokenizer is deliberately minimal: whitespace splitting, trailing
punctuation detached as separate tokens, a sentence break after a detached
``.``, ``!`` or ``?``, and an abbreviation list that keeps the final period
attached.  Pretokenized input is the bit-exact, recommended route.
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from importlib import resources
from typing import Iterable, Iterator

from .errors import DataError, FormatError
from .tagset import TagSet, decoded_lines


def read_pretokenized(source) -> Iterator[list[str]]:
    """Stream sentences, as lists of words, from a one-token-per-line file.

    Blank lines end sentences; runs of blank lines collapse into a single
    break, and a trailing sentence is closed at end of input.
    """
    sentence: list[str] = []
    for _lineno, line in decoded_lines(source):
        if line:
            sentence.append(line)
        elif sentence:
            yield sentence
            sentence = []
    if sentence:
        yield sentence


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


def read_tagged(source, ts: TagSet) -> Iterator[list[tuple[str, int] | tuple[str, int, str]]]:
    """Stream tagged sentences, as lists of ``(word, tag id)`` pairs, from a
    ``token<TAB>TAG`` file.

    An optional third column, as ``hmmtagger tag --with-class`` writes it,
    is the token's class signature (see ``class_signatures``); it must
    include the line's tag, and the line then reads as a
    ``(word, tag id, signature)`` triple.  All lines of a sentence have the
    same number of columns.
    """
    sentence: list[tuple] = []
    for lineno, line in decoded_lines(source):
        if line == "":
            if sentence:
                yield sentence
                sentence = []
            continue
        surface, sep, label = line.partition("\t")
        if not sep:
            raise FormatError(f"line {lineno}: expected token<TAB>TAG, got {line!r}")
        if not surface:
            raise FormatError(f"line {lineno}: empty token")
        label, sep, signature = label.partition("\t")
        tag = ts.tag_id(label)
        if tag is None:
            raise DataError(f"line {lineno}: unknown tag {label!r}")
        if sep:
            members = [ts.tag_id(m) for m in signature.split("+")]
            if None in members or tag not in members:
                raise FormatError(f"line {lineno}: third column {signature!r} is not a class "
                                  f"signature containing {label!r}")
        if not sentence:
            columns = sep  # the sentence's first line sets its column count
        elif sep != columns:
            raise FormatError(f"line {lineno}: sentence mixes two- and three-column lines")
        sentence.append((surface, tag, signature) if sep else (surface, tag))
    if sentence:
        yield sentence


def class_signatures(ts: TagSet, class_members) -> list[str]:
    """Each class's signature column: its members' labels joined by ``+``."""
    return ["+".join(map(ts.label, members)) for members in class_members]


def _text_sink(sink):
    """``sink`` itself if it has ``write``, else a new UTF-8 file at that path."""
    if hasattr(sink, "write"):
        return nullcontext(sink)
    return open(os.fspath(sink), "w", encoding="utf-8", newline="\n")


def write_tagged(sink, sentences, ts: TagSet) -> None:
    """The inverse of read_tagged, one ``write`` per sentence.  A sentence's
    first row, a pair or a triple, decides its number of columns."""
    labels = ts.labels
    with _text_sink(sink) as stream:
        for sentence in sentences:
            if sentence and len(sentence[0]) == 3:
                lines = [f"{word}\t{labels[tag]}\t{sig}\n" for word, tag, sig in sentence]
            else:
                lines = [f"{word}\t{labels[tag]}\n" for word, tag in sentence]
            stream.write("".join(lines) + "\n")


def write_pretokenized(sink, sentences) -> None:
    """Write sentences of words, one per line, with blank-line sentence breaks."""
    with _text_sink(sink) as stream:
        for sentence in sentences:
            for surface in sentence:
                stream.write(surface + "\n")
            stream.write("\n")

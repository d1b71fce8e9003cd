"""Corpus readers and writers, plus a minimal rule tokenizer.

The canonical corpus formats are line-oriented UTF-8:

* untagged: one token per line, a blank line ends a sentence;
* tagged:   ``token<TAB>TAG`` per line, same sentence convention; an
            optional third column holds the token's class signature.

Both LF and CRLF line endings are accepted; nothing else is normalized, and
``#`` is never a comment inside corpora (a token may legitimately be ``#``).
All readers stream sentence by sentence, so corpora of millions of tokens
never need to fit in memory.

The bundled tokenizer is deliberately minimal: whitespace splitting, trailing
punctuation detached as separate tokens, a sentence break after a detached
``.``, ``!`` or ``?``, and an abbreviation list that keeps the final period
attached.  Pretokenized input is the bit-exact, recommended route.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Iterator

from .errors import DataError, FormatError
from .tagset import TagSet


@dataclass(frozen=True)
class Token:
    surface: str
    sentence_index: int
    token_index: int


@dataclass(frozen=True)
class TaggedToken:
    token: Token
    gold: int


def _iter_decoded_lines(source):
    """Yield (line_number, byte_offset, text) from a path or file object.

    Paths and binary streams are decoded here line by line so that a bad
    byte can be reported with its absolute offset; text-mode file objects
    are passed through as-is.
    """
    if hasattr(source, "read"):
        stream = source
        close = False
    else:
        stream = open(os.fspath(source), "rb")
        close = True
    try:
        offset = 0
        for lineno, raw in enumerate(stream, start=1):
            if isinstance(raw, str):
                line = raw
                start = offset
                offset += len(raw)
            else:
                start = offset
                offset += len(raw)
                try:
                    line = raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise FormatError(
                        f"invalid UTF-8 at byte offset {start + exc.start} (line {lineno})"
                    ) from None
            if line.endswith("\n"):
                line = line[:-1]
            if line.endswith("\r"):
                line = line[:-1]
            yield lineno, start, line
    finally:
        if close:
            stream.close()


def read_pretokenized(source) -> Iterator[list[Token]]:
    """Stream sentences from a one-token-per-line file.

    Blank lines end sentences; runs of blank lines collapse into a single
    break, and a trailing sentence is closed at end of input.
    """
    sentence: list[Token] = []
    sentence_index = 0
    for _lineno, _offset, line in _iter_decoded_lines(source):
        if line == "":
            if sentence:
                yield sentence
                sentence_index += 1
                sentence = []
        else:
            sentence.append(Token(line, sentence_index, len(sentence)))
    if sentence:
        yield sentence


_DETACH = set(".,!?;:\"')]}»”‘’")
_SENTENCE_FINAL = {".", "!", "?"}


def default_abbreviations() -> frozenset[str]:
    text = resources.files("hmmtagger.data").joinpath("abbreviations_de.txt").read_text("utf-8")
    return frozenset(line.strip() for line in text.splitlines() if line.strip())


def tokenize_raw(source, abbreviations: Iterable[str] | None = None) -> Iterator[list[Token]]:
    """Tokenize free text into sentences.

    Trailing punctuation is detached from each whitespace-delimited word,
    innermost token first; a word ending in ``.`` that is on the
    abbreviation list keeps its period and never ends a sentence.
    """
    abbrev = frozenset(abbreviations) if abbreviations is not None else default_abbreviations()
    sentence: list[Token] = []
    sentence_index = 0

    def flush():
        nonlocal sentence, sentence_index
        if sentence:
            yield sentence
            sentence_index += 1
            sentence = []

    for _lineno, _offset, line in _iter_decoded_lines(source):
        for word in line.split():
            detached: list[str] = []
            core = word
            while len(core) > 1 and core[-1] in _DETACH:
                if core[-1] == "." and core in abbrev:
                    break
                detached.append(core[-1])
                core = core[:-1]
            pieces = [core] + detached[::-1]
            for piece in pieces:
                sentence.append(Token(piece, sentence_index, len(sentence)))
            if any(p in _SENTENCE_FINAL for p in pieces):
                yield from flush()
    yield from flush()


def read_tagged(source, ts: TagSet) -> Iterator[list[TaggedToken]]:
    """Stream tagged sentences from a ``token<TAB>TAG`` file.

    An optional third column, as ``hmmtagger tag --with-class`` writes it,
    is the token's class signature: ``+``-joined tag labels that include the
    line's tag.  It is checked and dropped.
    """
    sentence: list[TaggedToken] = []
    sentence_index = 0
    for lineno, _offset, line in _iter_decoded_lines(source):
        if line == "":
            if sentence:
                yield sentence
                sentence_index += 1
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
        sentence.append(TaggedToken(Token(surface, sentence_index, len(sentence)), tag))
    if sentence:
        yield sentence


def write_tagged(sink, sentences, ts: TagSet) -> None:
    """Write tagged sentences; the inverse of read_tagged.

    Each sentence is an iterable of TaggedToken or (surface, tag_id) pairs.
    """
    own = not hasattr(sink, "write")
    stream = open(os.fspath(sink), "w", encoding="utf-8", newline="\n") if own else sink
    try:
        for sentence in sentences:
            for item in sentence:
                if isinstance(item, TaggedToken):
                    surface, tag = item.token.surface, item.gold
                else:
                    surface, tag = item
                stream.write(f"{surface}\t{ts.label(tag)}\n")
            stream.write("\n")
    finally:
        if own:
            stream.close()


def write_pretokenized(sink, sentences) -> None:
    """Write one token per line with blank-line sentence breaks.

    Sentences are iterables of Token or plain strings.
    """
    own = not hasattr(sink, "write")
    stream = open(os.fspath(sink), "w", encoding="utf-8", newline="\n") if own else sink
    try:
        for sentence in sentences:
            for item in sentence:
                surface = item.surface if isinstance(item, Token) else item
                stream.write(surface + "\n")
            stream.write("\n")
    finally:
        if own:
            stream.close()

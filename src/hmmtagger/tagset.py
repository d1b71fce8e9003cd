"""Closed part-of-speech tag inventories with label/id interning.

A tag-set file is a config file (see ``config_lines``) that defines one tag
per line as ``LABEL<TAB>description``.  A directive line
``!sentence_delim LABEL`` marks the tags that end a sentence; without the
directive the tag ``$.`` is the delimiter when present.  Tag ids are assigned
in file order so that saved models and bias files stay stable across loads.

This module also holds what every input reader shares: opening a path or a
stream (``open_input``) and the one decoder (``decoded_blocks``), which
yields a file's lines a block at a time.  The corpus readers parse those
blocks; the tag-set, lexicon, guesser-rule, bias and major-class loaders
read through ``config_lines``, which is the decoder line by line
(``decoded_lines``) minus blank and comment lines.
"""

from __future__ import annotations

import io
import os
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import resources
from typing import Iterator

from .errors import ConfigError, FormatError

DEFAULT_TAGSET_RESOURCE = "elwis.tags"


@dataclass(frozen=True)
class Tag:
    id: int
    label: str
    description: str = ""


class TagSet:
    """Immutable ordered tag inventory; ids are dense 0..N-1 in load order."""

    def __init__(self, tags, sentence_delimiters=()):
        self.tags: tuple[Tag, ...] = tuple(tags)
        self.label_index: dict[str, int] = {t.label: t.id for t in self.tags}
        self.sentence_delimiters: frozenset[int] = frozenset(sentence_delimiters)
        if len(self.label_index) != len(self.tags):
            raise ConfigError("tag labels are not unique")
        for i, t in enumerate(self.tags):
            if t.id != i:
                raise ConfigError(f"tag ids are not dense: {t.label!r} has id {t.id} at position {i}")
        bad = self.sentence_delimiters - set(range(len(self.tags)))
        if bad:
            raise ConfigError(f"sentence delimiter ids {sorted(bad)} are out of range")

    def __len__(self) -> int:
        return len(self.tags)

    def __iter__(self) -> Iterator[Tag]:
        return iter(self.tags)

    def __eq__(self, other):
        return (
            isinstance(other, TagSet)
            and self.tags == other.tags
            and self.sentence_delimiters == other.sentence_delimiters
        )

    def __repr__(self):
        return f"TagSet({len(self.tags)} tags)"

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(t.label for t in self.tags)

    def label(self, tag_id: int) -> str:
        return self.tags[tag_id].label

    def tag_id(self, label: str):
        """Return the id for ``label`` (case-sensitive), or None if unknown."""
        return self.label_index.get(label)


@contextmanager
def open_input(source):
    """A file object for ``source``: a path, opened in binary mode and closed
    on exit, or a file object, used as it is."""
    if hasattr(source, "read"):
        yield source
    else:
        with open(os.fspath(source), "rb") as f:
            yield f


# About this many bytes of whole lines are decoded at once.  A corpus block
# is parsed into a Python object per line and per field, some 20 times its
# size, so a larger block makes a reader's peak memory grow for no speed.
_BLOCK_SIZE = 1 << 15


def decoded_blocks(source) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(number of its first line, lines)`` for each block of whole
    lines of a UTF-8 file, from a path or a file object, each line without
    its ``\\n`` or ``\\r\\n`` ending.

    The input streams in blocks of ``_BLOCK_SIZE`` bytes completed to the
    end of a line, each decoded in one call; a bad byte raises FormatError with its
    offset and line.  Text-mode file objects are split as they are.
    """
    with open_input(source) as stream:
        lineno = offset = 0
        # bytes, or str from a text stream, completed to the end of a line
        while block := stream.read(_BLOCK_SIZE) + stream.readline():
            if not isinstance(block, str):
                try:
                    text = block.decode("utf-8")
                except UnicodeDecodeError as exc:
                    bad_line = lineno + block.count(b"\n", 0, exc.start) + 1
                    raise FormatError(f"invalid UTF-8 at byte offset {offset + exc.start} "
                                      f"(line {bad_line})") from None
                offset += len(block)
                block = text
            lines = block.split("\n")
            if not lines[-1]:  # what follows the last line break is not a line
                lines.pop()
            if "\r" in block:
                lines = [line[:-1] if line.endswith("\r") else line for line in lines]
            yield lineno + 1, lines
            lineno += len(lines)


def decoded_lines(source) -> Iterator[tuple[int, str]]:
    """Yield ``(line number, line)`` for every line of ``decoded_blocks``."""
    for first, lines in decoded_blocks(source):
        yield from enumerate(lines, first)


def config_lines(source) -> Iterator[tuple[int, str]]:
    """``decoded_lines`` of a config file, minus blank lines and comments:
    lines whose first non-blank character is ``#``."""
    for lineno, line in decoded_lines(source):
        content = line.lstrip()
        if content and content[0] != "#":
            yield lineno, line


def load_tagset(source) -> TagSet:
    """Load a TagSet from a path or file object.

    Raises ConfigError for duplicate labels, labels containing whitespace or
    ``+`` (which joins the labels of a class signature), unknown directives,
    a ``!sentence_delim`` naming an unknown label, or an empty file.
    """
    tags: list[Tag] = []
    seen: dict[str, int] = {}
    delim_requests: list[tuple[int, str]] = []
    for lineno, line in config_lines(source):
        if line.startswith("!"):
            fields = line.split()
            if fields[0] != "!sentence_delim" or len(fields) != 2:
                raise ConfigError(f"line {lineno}: unknown directive {line!r}")
            delim_requests.append((lineno, fields[1]))
            continue
        label, _, description = line.partition("\t")
        if not label or any(ch.isspace() for ch in label):
            raise ConfigError(f"line {lineno}: bad tag label {label!r} (expected LABEL<TAB>description)")
        if "+" in label:  # it joins the labels of a class signature
            raise ConfigError(f"line {lineno}: tag label {label!r} contains '+'")
        if label in seen:
            raise ConfigError(f"line {lineno}: duplicate tag label {label!r} (first defined on line {seen[label]})")
        seen[label] = lineno
        tags.append(Tag(id=len(tags), label=label, description=description.strip()))
    if not tags:
        raise ConfigError("tag-set file defines no tags")

    label_to_id = {t.label: t.id for t in tags}
    if delim_requests:
        delims = set()
        for lineno, label in delim_requests:
            if label not in label_to_id:
                raise ConfigError(f"line {lineno}: !sentence_delim names unknown tag {label!r}")
            delims.add(label_to_id[label])
    else:
        delims = {label_to_id["$."]} if "$." in label_to_id else set()
    return TagSet(tags, delims)


def default_tagset() -> TagSet:
    """The bundled ELWIS German tag set."""
    data = resources.files("hmmtagger.data").joinpath(DEFAULT_TAGSET_RESOURCE).read_text("utf-8")
    return load_tagset(io.StringIO(data))

"""HMM parameter tables, starting biases, and model persistence.

The model emits equivalence classes, not word forms: ``emission[t][c]`` is
the probability that tag ``t`` produces a token whose class is ``c``, and is
structurally zero whenever ``t`` is not a member of class ``c``.  Transition
prohibitions requested through a zero-weight bias are recorded in
``transition_zero_mask`` and stay exactly zero through every later operation,
including re-estimation; positive bias weights only shape the starting point
and remain trainable.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    ImpossibleSequenceError,
    ModelChecksumError,
    ModelIOError,
    ModelTagsetMismatchError,
    ModelVersionError,
)
from .tagset import TagSet, config_lines, open_input

ROW_SUM_TOL = 1e-9

_MAGIC = b"#class-hmm-tagger model v1\n"


class HmmModel:
    """Immutable container for HMM probability tables.

    The constructor copies the four tables and marks the copies read-only,
    so assigning into a table raises ValueError and nothing the caller
    still holds can change the model.  Operations in this package return
    new instances, so sharing a model across threads is safe.

    A model is valid once it is built.  The constructor raises ValueError
    for a class inventory that ``membership_mask`` rejects and, naming the
    table, for a table of the wrong shape, a value that is NaN or outside
    [0, 1], a row (or ``initial``) that does not sum to 1 within
    ``ROW_SUM_TOL``, a positive masked transition, and an emission of a
    class by a tag that is not one of its members.
    """

    def __init__(self, tag_labels, class_members, initial, transition, emission,
                 transition_zero_mask=None):
        self.tag_labels: tuple[str, ...] = tuple(tag_labels)
        self.class_members: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(m)) for m in class_members
        )
        n = len(self.tag_labels)
        if transition_zero_mask is None:
            transition_zero_mask = np.zeros((n, n), dtype=bool)
        self.initial = _read_only(np.array(initial, dtype=np.float64))
        self.transition = _read_only(np.array(transition, dtype=np.float64))
        self.emission = _read_only(np.array(emission, dtype=np.float64))
        self.transition_zero_mask = _read_only(np.array(transition_zero_mask, dtype=bool))
        try:
            self._allowed = _read_only(membership_mask(n, self.class_members))
        except ConfigError as exc:
            raise ValueError(str(exc)) from None
        for name, shape in (("initial", (n,)), ("transition", (n, n)),
                            ("emission", self._allowed.shape), ("transition_zero_mask", (n, n))):
            table = getattr(self, name)
            if table.shape != shape:
                raise ValueError(f"{name} has shape {table.shape}, not {shape}")
        for name, table in (("initial", self.initial), ("transition", self.transition),
                            ("emission", self.emission)):
            # NaN fails both comparisons, so it is caught here too
            if not np.all((table >= 0) & (table <= 1)):
                raise ValueError(f"{name} contains values that are NaN or outside [0, 1]")
        if abs(self.initial.sum() - 1.0) > ROW_SUM_TOL:
            raise ValueError(f"initial sums to {self.initial.sum()!r}, not 1")
        for name, table in (("transition", self.transition), ("emission", self.emission)):
            bad = np.nonzero(np.abs(table.sum(axis=1) - 1.0) > ROW_SUM_TOL)[0]
            if bad.size:
                raise ValueError(f"{name} row {bad[0]} does not sum to 1")
        if np.any(self.transition[self.transition_zero_mask] != 0.0):
            raise ValueError("transition is positive in a masked cell")
        if np.any(self.emission[~self._allowed] != 0.0):
            raise ValueError("emission is positive for a class that does not contain the tag")
        self._member_cache = None

    @property
    def n_tags(self) -> int:
        return len(self.tag_labels)

    @property
    def n_classes(self) -> int:
        return len(self.class_members)

    @property
    def max_class_size(self) -> int:
        """``K``, the size of the largest class: the width of the member
        tables, and of each per-token array of the member-only kernels."""
        return max(map(len, self.class_members), default=1)

    def allowed_emission_mask(self) -> np.ndarray:
        """Read-only boolean (n_tags, n_classes): True where the tag belongs
        to the class."""
        return self._allowed

    def member_tables(self, log: bool = True):
        """Cached read-only tables for working over class members only.

        Returns ``(members, initial, transition, emission)``.  ``members[c]``
        lists the tags of class ``c`` in ascending order, padded to the size
        ``K`` of the largest class with a dummy tag ``n_tags``, and
        ``emission[c, k]`` is the emission of class ``c`` by
        ``members[c, k]``.  ``initial`` and ``transition`` are the model's
        tables extended by the dummy tag, the transitions flattened as
        ``source * (n_tags + 1) + target``.  Every probability of the dummy
        tag is 0, so a padding slot is dead wherever it appears.  The tables
        are natural logs (zeros become -inf) for decoding, or with
        ``log=False`` probabilities for forward-backward.
        """
        if self._member_cache is None:
            n, m = self.n_tags, self.n_classes
            members = np.full((m, self.max_class_size), n, dtype=np.intp)
            for c, tags in enumerate(self.class_members):
                members[c, :len(tags)] = tags
            initial = np.zeros(n + 1)
            initial[:n] = self.initial
            transition = np.zeros((n + 1, n + 1))
            transition[:n, :n] = self.transition
            emission = np.zeros((n + 1, m))
            emission[:n] = self.emission
            tables = (initial, transition.ravel(), emission[members, np.arange(m)[:, None]])
            members = _read_only(members)
            self._member_cache = {
                False: (members, *map(_read_only, tables)),
                True: (members, *map(_safe_log, tables)),
            }
        return self._member_cache[log]


# Cells (tokens x width) of one packed chunk.  Each per-token array of a
# chunk holds at most this many numbers (256 KiB of float64):
# ``max_class_size`` (K) per token in the decoder and in the member-only
# E-step, ``n_tags`` in the dense E-step (``training.e_step_kernel``); the
# member E-step's transitions, K * K per token, hold K times as many.  A
# chunk the E-step cuts into segments (``pack`` with a span) runs over
# members even where it was sized by ``n_tags``, so its transitions hold
# K * K / n_tags times as many (at most K), and its per-token arrays gain one
# row per segment.  That bounds the memory of training and decoding
# whatever the corpus size; a sentence with more cells is a chunk by itself.
CHUNK_CELLS = 2 ** 15

# The E-step and the decoder cut each sentence longer than SEGMENT + 1 tokens
# into segments of SEGMENT transitions (L), in a chunk whose longest sentence
# has more than SCAN_FROM tokens (``pack_chunk``).  Their segment scans run
# about 3 L + 2 S (E-step) and 4 L + 2 S (decoder) steps of the Python loop
# for sentences of S segments, in place of two per position; the E-step's
# lost to them up to about 3 L tokens (one such sentence among 60 of 5-30).
SEGMENT = 64
SCAN_FROM = 4 * SEGMENT


def chunks(sentences: Iterable, width: int):
    """Yield ``(index of the first sentence, sentences)`` for runs of
    consecutive sentences of at most ``CHUNK_CELLS`` tokens x ``width``,
    where ``width`` is the number of cells the calling kernel keeps per
    token in each of its per-token arrays; a longer sentence is a chunk by
    itself."""
    chunk: list = []
    first = cells = 0
    for index, sentence in enumerate(sentences):
        size = len(sentence) * width
        if chunk and cells + size > CHUNK_CELLS:
            yield first, chunk
            chunk, first, cells = [], index, 0
        chunk.append(sentence)
        cells += size
    if chunk:
        yield first, chunk


class Packed(NamedTuple):
    """A chunk of sentences laid out for the packed kernels.

    The valid sentences are sorted by decreasing length (ties keep chunk
    order) and laid out time-major: the rows of position ``t`` run from
    ``offsets[t]`` to ``offsets[t + 1]``, one for each of the ``live[t]``
    sentences still running there, so the sentences running at ``t`` are a
    prefix of those running at ``t - 1``.  Row ``offsets[t] + r`` belongs to
    the ``r``-th longest sentence, chunk sentence ``order[r]`` of length
    ``lengths[r]``, at its position ``start[r] + t``.  ``ids[row]`` is a
    row's class id, ``prev[row - live[0]]`` the row at ``t - 1`` of a row at
    ``t >= 1``, and ``rows[j]`` the row of token ``j`` of the valid
    sentences in chunk order.  An invalid sentence has length 0 and no
    rows; ``errors`` holds its DataError by chunk index.

    Packed with a ``span`` (``pack``), each sentence longer than ``span + 1``
    tokens is laid out as segments, each one as a sentence of its own:
    segment ``j`` holds positions ``j * span`` to ``(j + 1) * span``, so
    consecutive segments share a position, whose token has a row in each.
    ``order`` and ``start`` then name each segment's sentence and first
    position, and ``rows`` gives a shared position the row that ends the
    earlier segment.  Without a ``span``, every sentence is one segment and
    ``start`` is 0.
    """

    order: np.ndarray
    lengths: np.ndarray
    start: np.ndarray
    live: np.ndarray
    offsets: np.ndarray
    rows: np.ndarray
    ids: np.ndarray
    prev: np.ndarray
    errors: dict

    def impossible(self, dead) -> dict:
        """``{chunk index: ImpossibleSequenceError}``, in increasing index, of
        the sentences with a ``dead`` row (one where a kernel found no live
        tag state), each named by the position of its first dead row."""
        rows = np.flatnonzero(dead)
        t = np.searchsorted(self.offsets, rows, side="right") - 1
        rank = rows - self.offsets[t]
        sentence, position = self.order[rank], self.start[rank] + t
        by = np.lexsort((position, sentence))  # each sentence's earliest row first
        found, first = np.unique(sentence[by], return_index=True)
        return {i: ImpossibleSequenceError.dying_at(p, i)
                for i, p in zip(found.tolist(), position[by][first].tolist())}

    def sentence_lengths(self) -> np.ndarray:
        """The tokens of each chunk sentence, 0 for an invalid one."""
        return np.bincount(self.order, self.lengths - (self.start > 0)).astype(np.intp)

    def segments(self):
        """The bookkeeping that the segment scans of both semirings share.

        Returns ``(cut, running, by, at)``: ``cut`` holds the ranks of the
        segments of the sentences cut into several, by decreasing length,
        and ``running[t]`` how many of them run at position ``t``, a prefix.
        ``cut[by]`` orders them by their index in their sentence, then by
        sentence, those with the most segments first, so that the sentences
        with a segment ``j + 1`` are a prefix of those with a segment ``j``;
        the segments ``j`` are ``cut[by][at[j]:at[j + 1]]``.  Every segment
        but a sentence's last has ``T - 1`` transitions.
        """
        T = self.live.size
        count = np.bincount(self.order)[self.order]  # segments of each segment's sentence
        cut = np.flatnonzero(count > 1)
        running = np.searchsorted(-self.lengths[cut], -np.arange(T), side="left").tolist()
        index = self.start[cut] // (T - 1)
        by = np.lexsort((self.order[cut], -count[cut], index))
        return cut, running, by, np.cumsum([0, *np.bincount(index)]).tolist()


def pack(model: HmmModel, sentences, span: Optional[int] = None) -> Packed:
    """Validate a chunk of sentences of class ids and lay it out (``Packed``),
    each sentence longer than ``span + 1`` tokens as segments.

    A sentence is invalid if it is empty or not one-dimensional, if its ids
    are not of an integer dtype, or if it holds a class id ``model`` does
    not have, of which the first is named."""
    seqs = [np.asarray(s) for s in sentences]
    lengths = np.array([s.size if s.ndim == 1 and s.dtype.kind in "iu" else 0 for s in seqs],
                       dtype=np.intp)
    # an empty list reads as float64, so emptiness is checked before the dtype
    errors = {i: DataError("sentence must be a non-empty sequence of class ids"
                           if seqs[i].ndim != 1 or not seqs[i].size
                           else f"class ids must be integers, not {seqs[i].dtype}", i)
              for i in np.flatnonzero(lengths == 0).tolist()}
    flat = np.concatenate([s for s, n in zip(seqs, lengths.tolist()) if n]
                          or [np.empty(0, dtype=np.intp)], dtype=np.intp)
    owner = np.repeat(np.arange(lengths.size), lengths)
    position = np.arange(flat.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    # viewed as unsigned, a negative id is larger than any valid one, and an
    # unsigned id of 2**63 or more, which the cast made negative, is itself
    bad = np.flatnonzero(flat.view(np.uintp) >= model.n_classes)
    if bad.size:
        invalid, first = np.unique(owner[bad], return_index=True)
        for i, cell in zip(invalid.tolist(), bad[first].tolist()):
            # named as given, not as cast
            errors[i] = DataError(f"unknown class id {int(seqs[i][position[cell]])} "
                                  f"at position {position[cell]}", i)
        keep = ~np.isin(owner, invalid)
        flat, owner, position = flat[keep], owner[keep], position[keep]
        lengths[invalid] = 0
    sentence = np.arange(lengths.size)  # of each segment
    start = np.zeros(lengths.size, dtype=np.intp)
    if span:
        count = np.maximum((lengths - 2) // span + 1, 1)  # segments of each sentence
        sentence = np.repeat(sentence, count)
        start = (np.arange(sentence.size) - np.repeat(np.cumsum(count) - count, count)) * span
        first = (np.cumsum(lengths) - lengths)[sentence] + start  # in flat
        lengths = np.minimum(lengths[sentence] - start, span + 1)
        owner = np.repeat(np.arange(lengths.size), lengths)
        position = np.arange(owner.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        flat = flat[first[owner] + position]
    order = np.argsort(-lengths, kind="stable")
    sorted_lengths = lengths[order]
    T = int(sorted_lengths[0]) if lengths.size else 0
    live = np.searchsorted(-sorted_lengths, -np.arange(T), side="left")
    offsets = np.zeros(T + 1, dtype=np.intp)
    np.cumsum(live, out=offsets[1:])
    rank = np.empty(lengths.size, dtype=np.intp)
    rank[order] = np.arange(lengths.size)
    rows = offsets[position] + rank[owner]
    ids = np.empty(flat.size, dtype=np.intp)
    ids[rows] = flat
    if span:  # a shared position keeps the row that ends its earlier segment
        rows = rows[(position > 0) | (start[owner] == 0)]
    prev = np.arange(offsets[min(T, 1)], flat.size) - np.repeat(live[:-1], live[1:])
    return Packed(sentence[order], sorted_lengths, start[order], live, offsets, rows, ids, prev,
                  errors)


def pack_chunk(model: HmmModel, sentences) -> Packed:
    """``pack`` for the kernels: in segments of ``SEGMENT`` transitions where
    the chunk's longest sentence has more than ``SCAN_FROM`` tokens."""
    try:
        longest = max(map(len, sentences), default=0)
    except TypeError:  # a sentence without a length, which ``pack`` reports
        longest = 0
    return pack(model, sentences, SEGMENT if longest > SCAN_FROM else None)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _safe_log(a: np.ndarray) -> np.ndarray:
    out = np.full(a.shape, -np.inf)
    np.log(a, out=out, where=a > 0)
    return _read_only(out)


def membership_mask(n_tags: int, class_members) -> np.ndarray:
    """Boolean (n_tags, n_classes): True where the tag belongs to the class.

    Raises ConfigError for a member that is not a tag id below ``n_tags``,
    and for a class that is empty, repeats a tag, or equals an earlier class.
    """
    mask = np.zeros((n_tags, len(class_members)), dtype=bool)
    first: dict[frozenset, int] = {}
    for c, members in enumerate(class_members):
        for t in members:
            if not 0 <= t < n_tags:
                raise ConfigError(f"class {c} references tag id {t} outside the tag set")
        key = frozenset(members)
        if not key or len(key) != len(members):
            raise ConfigError(f"class {c} is empty or repeats a tag: {tuple(members)}")
        if first.setdefault(key, c) != c:
            raise ConfigError(f"class {c} equals class {first[key]}")
        mask[list(members), c] = True
    return mask


def uniform_model(ts: TagSet, classes) -> HmmModel:
    """Bias-free starting point: uniform initial and transitions, and per tag
    a uniform emission over the classes that contain it.

    ``classes`` is the class inventory, a sequence of member-id tuples such
    as a ClassStore or ``HmmModel.class_members``.  Raises ConfigError for
    an empty inventory, a class ``membership_mask`` rejects, and a tag
    contained in no class, which could never emit anything.
    """
    members = tuple(tuple(sorted(m)) for m in classes)
    if not members:
        raise ConfigError("class inventory is empty")
    mask = membership_mask(len(ts), members)
    orphans = np.flatnonzero(~mask.any(axis=1))
    if orphans.size:
        labels = ", ".join(ts.label(int(t)) for t in orphans)
        raise ConfigError(f"tags belonging to no equivalence class: {labels}")
    n = len(ts)
    return HmmModel(ts.labels, members, np.full(n, 1.0 / n), np.full((n, n), 1.0 / n),
                    mask / mask.sum(axis=1, keepdims=True))


@dataclass(frozen=True)
class TransitionBias:
    source: int
    target: int
    weight: float  # 0 means prohibition

    def __post_init__(self):
        if not 0 <= self.weight < np.inf:  # NaN fails too
            raise ConfigError(f"transition bias weight must be finite and >= 0, not {self.weight}")


@dataclass(frozen=True)
class SymbolBias:
    members: tuple[int, ...]  # class signature, sorted tag ids
    preferred: int
    weight: float

    def __post_init__(self):
        if not 0 < self.weight < np.inf:  # NaN fails too
            raise ConfigError(f"symbol bias weight must be finite and > 0, not {self.weight}")
        if self.preferred not in self.members:
            raise ConfigError(f"preferred tag {self.preferred} is not in the class signature "
                              f"{self.members}")


class BiasSet:
    """Starting preferences: multiplicative weights on transition and
    emission cells, applied before renormalization.  Weight 1 is a no-op;
    transition weight 0 is a permanent prohibition."""

    def __init__(self, transition_biases=(), symbol_biases=()):
        self.transition_biases: tuple[TransitionBias, ...] = tuple(transition_biases)
        self.symbol_biases: tuple[SymbolBias, ...] = tuple(symbol_biases)


def load_biases(source, ts: TagSet) -> BiasSet:
    """Parse a bias file, a config file (see ``tagset.config_lines``).

    Lines are ``TRANS <FROM> <TO> <weight>`` or
    ``SYM <TAG1+TAG2+...> <PREFERRED> <weight>``.  Each error names its line.
    """
    trans: list[TransitionBias] = []
    syms: list[SymbolBias] = []
    for lineno, line in config_lines(source):
        fields = line.split()
        try:
            if fields[0] == "TRANS":
                if len(fields) != 4:
                    raise ConfigError("expected TRANS <FROM> <TO> <weight>")
                src, dst = ts.tag_id(fields[1]), ts.tag_id(fields[2])
                if src is None or dst is None:
                    raise ConfigError(f"unknown tag in bias {line!r}")
                trans.append(TransitionBias(src, dst, _parse_weight(fields[3])))
            elif fields[0] == "SYM":
                if len(fields) != 4:
                    raise ConfigError("expected SYM <TAG1+TAG2+...> <PREFERRED> <weight>")
                member_ids = []
                for label in fields[1].split("+"):
                    t = ts.tag_id(label)
                    if t is None:
                        raise ConfigError(f"unknown tag {label!r} in class signature")
                    member_ids.append(t)
                preferred = ts.tag_id(fields[2])
                if preferred is None:
                    raise ConfigError(f"unknown preferred tag {fields[2]!r}")
                syms.append(SymbolBias(tuple(sorted(set(member_ids))), preferred,
                                       _parse_weight(fields[3])))
            else:
                raise ConfigError(f"unknown bias kind {fields[0]!r}")
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    return BiasSet(trans, syms)


def _parse_weight(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"bad weight {text!r}") from None


def apply_biases(model: HmmModel, biases: BiasSet) -> HmmModel:
    """Return a new model with bias weights multiplied in and rows
    renormalized.

    Zero-weight transition biases set the cell to exactly 0 and extend the
    permanent zero mask; they win over any positive weight on the same cell.
    Symbol biases scale ``emission[preferred][class]`` for the class whose
    member signature matches exactly.
    """
    n = model.n_tags
    transition = model.transition.copy()
    emission = model.emission.copy()
    mask = model.transition_zero_mask.copy()

    for b in biases.transition_biases:
        if not (0 <= b.source < n and 0 <= b.target < n):
            raise ConfigError(f"transition bias {b} references an unknown tag id")
        if b.weight == 0:
            mask[b.source, b.target] = True
        else:
            transition[b.source, b.target] *= b.weight
    transition[mask] = 0.0

    class_index = {members: c for c, members in enumerate(model.class_members)}
    for b in biases.symbol_biases:
        c = class_index.get(b.members)
        if c is None:
            raise ConfigError(
                f"symbol bias class signature {b.members} is not in the model's class inventory"
            )
        emission[b.preferred, c] *= b.weight

    for name, table in (("transition", transition), ("emission", emission)):
        sums = table.sum(axis=1)
        dead = np.nonzero(sums <= 0)[0]
        if dead.size:
            label = model.tag_labels[int(dead[0])]
            raise ConfigError(f"{name} row for tag {label!r} has no probability mass left")
        table /= sums[:, None]
    total = model.initial.sum()
    if total <= 0:
        raise ConfigError("initial distribution has no probability mass")
    return HmmModel(model.tag_labels, model.class_members, model.initial / total,
                    transition, emission, mask)


def save_model(model: HmmModel, sink) -> None:
    """Serialize to a self-describing binary stream; bit-exact round trip.

    Layout: magic line, 4-byte big-endian header length, JSON header (tag
    labels and class signatures), raw little-endian float64 tables, the zero
    mask as bytes, then a SHA-256 digest of everything before it.
    """
    header = json.dumps({
        "tags": list(model.tag_labels),
        "classes": [list(m) for m in model.class_members],
    }).encode("utf-8")
    payload = b"".join([
        _MAGIC,
        struct.pack(">I", len(header)),
        header,
        model.initial.astype("<f8").tobytes(),
        model.transition.astype("<f8").tobytes(),
        model.emission.astype("<f8").tobytes(),
        model.transition_zero_mask.astype(np.uint8).tobytes(),
    ])
    blob = payload + hashlib.sha256(payload).digest()
    if hasattr(sink, "write"):
        sink.write(blob)
    else:
        with open(os.fspath(sink), "wb") as f:
            f.write(blob)


def load_model(source, ts: TagSet) -> HmmModel:
    """Read a model saved by save_model and bind it to ``ts``.

    Raises ModelVersionError on a bad magic line, ModelChecksumError on
    truncation or corruption, ModelTagsetMismatchError when the stored
    tag labels differ from ``ts``, and ModelIOError when a class member is
    not an integer tag id or, naming the class or table, when ``HmmModel``
    rejects the stored model.
    """
    with open_input(source) as stream:
        blob = stream.read()
    if not blob.startswith(_MAGIC):
        raise ModelVersionError("not a model file, or unsupported format version")
    digest_size = hashlib.sha256().digest_size
    if len(blob) <= len(_MAGIC) + 4 + digest_size:
        raise ModelChecksumError("model file is truncated")
    payload, digest = blob[:-digest_size], blob[-digest_size:]
    if hashlib.sha256(payload).digest() != digest:
        raise ModelChecksumError("model file checksum does not match")

    offset = len(_MAGIC)
    (header_len,) = struct.unpack(">I", payload[offset:offset + 4])
    offset += 4
    try:
        header = json.loads(payload[offset:offset + header_len].decode("utf-8"))
        labels = tuple(header["tags"])
        class_members = tuple(tuple(m) for m in header["classes"])
    except (ValueError, KeyError, TypeError) as exc:
        raise ModelChecksumError(f"model header is unreadable: {exc}") from None
    offset += header_len
    # the digest detects corruption, not a crafted header: bool is an int too
    if any(type(t) is not int for members in class_members for t in members):
        raise ModelIOError("model file holds class members that are not tag ids")

    if labels != ts.labels:
        raise ModelTagsetMismatchError(
            "model was saved under a different tag set "
            f"({len(labels)} tags vs {len(ts)} in the current set)"
        )
    n, m = len(labels), len(class_members)
    sizes = [n * 8, n * n * 8, n * m * 8, n * n]
    if len(payload) - offset != sum(sizes):
        raise ModelChecksumError("model file has the wrong table sizes")
    arrays = []
    for count, shape, dtype in (
        (sizes[0], (n,), "<f8"),
        (sizes[1], (n, n), "<f8"),
        (sizes[2], (n, m), "<f8"),
        (sizes[3], (n, n), np.uint8),
    ):
        arrays.append(np.frombuffer(payload[offset:offset + count], dtype=dtype).reshape(shape))
        offset += count
    try:
        return HmmModel(labels, class_members, *arrays)
    except ValueError as exc:
        raise ModelIOError(f"model file holds an invalid model: {exc}") from None


def default_biases(ts: TagSet) -> BiasSet:
    """The bundled illustrative German bias file."""
    import io

    text = resources.files("hmmtagger.data").joinpath("biases_de.txt").read_text("utf-8")
    return load_biases(io.StringIO(text), ts)

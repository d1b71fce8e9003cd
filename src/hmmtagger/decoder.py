"""Viterbi decoding of the most probable tag path for a class sequence.

Everything runs in natural-log space with -inf standing for hard zeros, so
sentences of any length decode without underflow.  Ties between bit-equal
scores break toward the lowest tag id at every backtrack decision, so one
model file decodes identically on one numpy build; last-bit differences
(BLAS sums, ``np.log``) can swap tags whose paths tie in exact arithmetic.

Decoding runs over class members only.  A tag outside a token's class has
emission probability 0, so its score there is -inf and it can never be on
a path; the recursion therefore keeps one score per member slot of the
padded member table (``HmmModel.member_tables``), at most
``K = HmmModel.max_class_size`` per token, instead of one per tag.  Every
score is the same sum of the same log terms as over all tags, so scores
are bit-identical to a dense decoder's.  The tie-breaking survives because
a class's members are stored in ascending tag order and the padding, whose
scores are -inf, sorts last: ``argmax`` over slots returns the first
maximal slot, which holds the lowest maximal tag id.

``decode`` takes a chunk of sentences (see ``model.chunks``), packed by
``model.pack``.  Each position gathers the ``(k, K, K)`` log-transitions
between the slots of the ``k`` sentences still running there and their
slots one position earlier, and runs one add and argmax over them; then
every sentence backtracks at once.  A row of only -inf scores marks a dead
sentence (``Packed.impossible``, as in the E-step).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError
from .model import HmmModel, Packed, pack


@dataclass(frozen=True)
class Decoding:
    tags: tuple[int, ...]
    log_prob: float


def viterbi(model: HmmModel, sentence: Sequence[int]) -> Decoding:
    """Most probable tag sequence consistent with the class constraints.

    The returned tag at every position is a member of that position's class
    (non-members have emission probability 0 and can never win).  Raises
    DataError for an invalid sentence, and ImpossibleSequenceError, naming
    the first position where every state is dead, when no path has
    positive probability.
    """
    result = decode(model, [sentence])[0]
    if isinstance(result, DataError):
        raise result
    return result


def decode(model: HmmModel, sentences: Sequence[Sequence[int]]) -> list:
    """Decode a chunk of sentences of class ids at once.

    Returns one entry per sentence, in order: its Decoding, or the
    DataError that ``viterbi`` would raise for it (``sentence_index`` is
    its index in the chunk).  Memory grows with the chunk; a corpus is
    streamed through ``model.chunks(corpus, model.max_class_size)``.
    """
    packed = pack(model, sentences)
    results: list = [packed.errors.get(i) for i in range(len(sentences))]
    if not packed.ids.size:
        return results
    path, score = _decode_packed(model.member_tables(), packed)
    best = score.max(axis=1)  # at a sentence's last row, its log-probability
    impossible = packed.impossible(best == -np.inf)

    # from sorted order back to chunk order; an invalid sentence has length 0
    lengths = np.empty_like(packed.lengths)
    lengths[packed.order] = packed.lengths
    tags, log_prob = path[packed.rows].tolist(), best[packed.rows].tolist()
    end = 0
    for i, length in enumerate(lengths.tolist()):
        end += length
        if length:
            results[i] = impossible.get(i) or Decoding(tuple(tags[end - length:end]),
                                                       log_prob[end - 1])
    return results


def _decode_packed(tables, packed: Packed):
    """Member-only Viterbi over every sentence of a packed chunk.

    Returns the tag at every row and the slot scores of every row, which
    are all -inf from a sentence's first dead position on.
    """
    members, log_initial, log_transition, log_emission = tables
    ids, live, offsets = packed.ids, packed.live, packed.offsets
    member = members[ids]
    score = log_emission[ids]
    (N, K), B, T = score.shape, int(live[0]), live.size
    score[:B] += log_initial[member[:B]]
    width = log_initial.size  # the transitions' row stride
    back = np.empty((N, K), dtype=np.intp)
    row_at, live_at = offsets.tolist(), live.tolist()
    for t in range(1, T):
        lo, k, up = row_at[t], live_at[t], row_at[t - 1]
        c = log_transition[member[up:up + k, :, None] * width + member[lo:lo + k, None, :]]
        c += score[up:up + k, :, None]
        c.argmax(1, back[lo:lo + k])  # ties -> lowest slot, lowest tag id
        score[lo:lo + k] += np.maximum.reduce(c, 1)

    # backtrack every sentence at once through flat (row * K + slot) cells
    back[B:] += (packed.prev * K)[:, None]
    last = offsets[packed.lengths[:B] - 1] + np.arange(B)
    final = score[last].argmax(axis=1)  # ties -> lowest tag id
    cell = np.empty(N, dtype=np.intp)
    cell[last] = last * K + final
    back = back.ravel()
    for t in range(T - 1, 0, -1):
        lo, k, up = row_at[t], live_at[t], row_at[t - 1]
        np.take(back, cell[lo:lo + k], out=cell[up:up + k])
    return member.ravel()[cell], score

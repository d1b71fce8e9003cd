"""Viterbi decoding of the most probable tag path for a class sequence.

Everything runs in natural-log space with -inf standing for hard zeros, so
sentences of any length decode without underflow.  Ties are broken toward
the lowest tag id at every backtrack decision, which makes decoding
reproducible across runs and platforms.

Decoding runs over class members only.  A tag outside a token's class has
emission probability 0, so its score there is -inf and it can never be on
a path; the recursion therefore keeps one score per member slot of the
padded member table (``HmmModel.member_tables``), at most ``K`` per token,
instead of one per tag.  Every score is the same sum of the same log terms
as over all tags, so scores are bit-identical to a dense decoder's.  The
tie-breaking survives because a class's members are stored in ascending
tag order and the padding, whose scores are -inf, sorts last: ``argmax``
over slots returns the first maximal slot, which holds the lowest maximal
tag id.

``decode`` takes a chunk of sentences (see ``model.chunks``), packed by
``model.pack``.  A chunk of several sentences runs one gathered
``(k, K, K)`` add and argmax per position for the ``k`` sentences still
running there, then backtracks all of them at once; a chunk of one
sentence runs a plain ``K x K`` loop, as the batched gathers cost more than
they save there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError, ImpossibleSequenceError
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
    streamed through ``model.chunks``.
    """
    packed = pack(model, sentences)
    results: list = [packed.errors.get(i) for i in range(len(sentences))]
    if not packed.ids.size:
        return results
    kernel = _decode_one if len(sentences) == 1 else _decode_packed
    path, log_probs, dead_at = kernel(model.member_tables(), packed)

    # from sorted order back to chunk order; an invalid sentence has length 0
    lengths = np.empty_like(packed.lengths)
    lengths[packed.order] = packed.lengths
    running = packed.order[:packed.live[0]]
    log_prob, dead = np.zeros(len(sentences)), np.full_like(lengths, -1)
    log_prob[running], dead[running] = log_probs, dead_at
    tags = path[packed.rows].tolist()
    end = 0
    for i, (length, score, position) in enumerate(zip(lengths.tolist(), log_prob.tolist(),
                                                      dead.tolist())):
        end += length
        if position >= 0:
            results[i] = ImpossibleSequenceError.dying_at(position, i)
        elif length:
            results[i] = Decoding(tuple(tags[end - length:end]), score)
    return results


def _first_dead(score: np.ndarray, offsets: np.ndarray, n_sentences: int) -> np.ndarray:
    """First position at which each sentence has no live slot, or -1.

    ``score`` holds one row of slot scores per packed row; a dead row stays
    dead to the end of its sentence, as -inf plus anything is -inf.
    """
    dead = np.full(n_sentences, -1, dtype=np.intp)
    rows = np.flatnonzero(score.max(axis=1) == -np.inf)
    if rows.size:
        t = np.searchsorted(offsets, rows, side="right") - 1
        sentence, first = np.unique(rows - offsets[t], return_index=True)
        dead[sentence] = t[first]
    return dead


def _gather(tables, packed: Packed):
    """The scores both kernels start from, for every row of a packed chunk.

    Returns ``member`` (the tag in each slot of each row), ``score`` (the
    slot's log-emission, plus the log-initial at position 0), ``prev`` (the
    row at ``t - 1`` of each row at ``t >= 1``) and ``cand`` (the
    ``(from, to)`` log-transitions between the slots of each such row and
    of its ``prev``).
    """
    members, log_initial, log_transition, log_emission = tables
    ids, B = packed.ids, int(packed.live[0])
    member = members[ids]
    score = log_emission[ids]
    score[:B] += log_initial[member[:B]]
    prev = np.arange(B, ids.size) - np.repeat(packed.live[:-1], packed.live[1:])
    cand = log_transition[(member[prev] * log_initial.size)[:, :, None] + member[B:, None, :]]
    return member, score, prev, cand


def _decode_packed(tables, packed: Packed):
    """Member-only Viterbi over every sentence of a packed chunk.

    Returns the tag at every row, the best path's log-probability of each
    sorted sentence, and the first dead position of each (-1 if none).
    """
    member, score, prev, cand = _gather(tables, packed)
    live, offsets = packed.live, packed.offsets
    (N, K), B, T = score.shape, int(live[0]), live.size
    back = np.empty((N, K), dtype=np.intp)
    row_at, live_at = offsets.tolist(), live.tolist()
    for t in range(1, T):
        lo, k, up = row_at[t], live_at[t], row_at[t - 1]
        c = cand[lo - B:lo - B + k]
        c += score[up:up + k, :, None]
        c.argmax(1, back[lo:lo + k])  # ties -> lowest slot, lowest tag id
        score[lo:lo + k] += np.maximum.reduce(c, 1)

    # backtrack every sentence at once through flat (row * K + slot) cells
    back[B:] += (prev * K)[:, None]
    last = offsets[packed.lengths[:B] - 1] + np.arange(B)
    final = score[last].argmax(axis=1)  # ties -> lowest tag id
    cell = np.empty(N, dtype=np.intp)
    cell[last] = last * K + final
    back = back.ravel()
    for t in range(T - 1, 0, -1):
        lo, k, up = row_at[t], live_at[t], row_at[t - 1]
        np.take(back, cell[lo:lo + k], out=cell[up:up + k])
    return (member.ravel()[cell], score.ravel()[cell[last]],
            _first_dead(score, offsets, B))


def _decode_one(tables, packed: Packed):
    """``_decode_packed`` for a chunk of one sentence: a plain ``K x K``
    loop, its rows being the sentence's positions."""
    member, score, _, cand = _gather(tables, packed)
    back = np.empty(score.shape, dtype=np.intp)
    for c, prev, here, best in zip(cand, score[:-1, :, None], score[1:], back[1:]):
        c += prev
        c.argmax(0, best)  # ties -> lowest slot, lowest tag id
        here += np.maximum.reduce(c, 0)

    slot = int(score[-1].argmax())  # ties -> lowest tag id
    log_prob = score[-1, slot]
    slots = [slot]
    for pointers in back[:0:-1].tolist():
        slot = pointers[slot]
        slots.append(slot)
    path = member[np.arange(len(slots)), slots[::-1]]
    return path, np.array([log_prob]), _first_dead(score, packed.offsets, 1)

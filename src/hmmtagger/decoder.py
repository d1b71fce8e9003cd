"""Viterbi decoding of the most probable tag path for a class sequence.

Everything runs in natural-log space with -inf standing for hard zeros, so
sentences of any length decode without underflow.  Ties are broken toward
the lowest tag id at every backtrack decision, which makes decoding
reproducible across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ImpossibleSequenceError
from .model import HmmModel, check_sentences


@dataclass(frozen=True)
class Decoding:
    tags: tuple[int, ...]
    log_prob: float


def viterbi(model: HmmModel, sentence: Sequence[int]) -> Decoding:
    """Most probable tag sequence consistent with the class constraints.

    The returned tag at every position is a member of that position's class
    (non-members have emission probability 0 and can never win).  Raises
    ImpossibleSequenceError, naming the first position where every state is
    dead, when no path has positive probability.
    """
    seq = check_sentences(model, [sentence])
    log_initial, log_transition, log_emission = model.log_tables()
    T, n = seq.size, model.n_tags

    score = log_initial + log_emission[:, seq[0]]
    if not np.isfinite(score.max()):
        raise ImpossibleSequenceError("no tag can start this sentence", position=0)
    back = np.empty((T, n), dtype=np.intp)
    for t in range(1, T):
        candidates = score[:, None] + log_transition  # (from, to)
        best_prev = np.argmax(candidates, axis=0)  # ties -> lowest tag id
        score = candidates[best_prev, np.arange(n)] + log_emission[:, seq[t]]
        if not np.isfinite(score.max()):
            raise ImpossibleSequenceError(f"all tag states die at position {t}", position=t)
        back[t] = best_prev

    state = int(np.argmax(score))  # ties -> lowest tag id
    path = np.empty(T, dtype=np.intp)
    path[T - 1] = state
    for t in range(T - 1, 0, -1):
        state = int(back[t, state])
        path[t - 1] = state
    return Decoding(tuple(int(t) for t in path), float(score[path[T - 1]]))


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

``decode_columns`` takes a chunk (see ``model.chunks``) as columns, its
tokens' class ids and its sentences' lengths, laid out by ``model.layout``;
``decode`` and ``viterbi`` are its per-sentence views.  Each position
gathers the ``(k, K, K)`` log-transitions between the slots of the ``k``
sentences still running there and their slots one position earlier, and
runs one add and argmax over them; then every sentence backtracks at once.
A row of only -inf scores marks a dead sentence (``Packed.impossible``, as
in the E-step).

A chunk whose longest sentence has more than ``model.SCAN_FROM`` tokens
decodes as a segment scan in the max-plus semiring (Hassan, Särkkä and
García-Fernández 2021), over the segments of ``L = model.SEGMENT``
transitions that the E-step scans too.  It takes every segment's ``K x K``
max-plus transfer product, one position at a time for all segments at
once; steps the scores across the segment boundaries through the products;
fills every segment at once with the recursion above, back-pointers
included; backtracks each segment from each of its ``K`` end slots to
its first row; chains the segments in one pass over the boundaries; and
backtracks every segment again along the chosen path.  A sentence of ``T``
tokens then takes about ``4 L + 2 T / L`` steps of the Python loop instead
of ``2 T``: about 330 instead of 5,000 at 2,500 tokens.

The scan adds the same log terms in another order, so its scores can
differ from the sequential recursion's in the last bits, and a decision
that those bits settle could pick another path.  A certificate rules that
out.  A computed score is the rounded sum of the terms of some path to its
cell, at most ``n = 2 T`` of them (the initial, then a transition and an
emission per position): each max returns one of its arguments, and each
add rounds a sum of two such sums.  Rounding is monotone, so the computed
score is at least the rounded sum, in the same order, of the best path's
terms.  Every term is <= 0, so any order of summing ``n`` of them is within
``gamma(n - 1)`` times the magnitude of their exact sum, where
``gamma(k) = k u / (1 - k u)`` and ``u = 2**-53`` (Higham 2002, *Accuracy
and Stability of Numerical Algorithms*, section 4.2).  The computed score
of a cell whose exact best score is ``s`` therefore lies in
``[s (1 + gamma(n - 1)), s (1 - gamma(n - 1))]`` in any order, and the
scan's and the sequential decoder's scores for one cell differ by at most
``g |score|`` with ``g = 2 gamma(2 T + 1)``, taking either computed score
(the two extra terms cover the step from ``|s|`` to it).  A decision takes
the best of its candidates; the sequential decoder takes the same one
wherever the scan's best exceeds its runner-up ``r`` by more than
``2 g |r|``, twice the bound, as the runner-up's magnitude is the larger.
The scan checks that margin for every decision on its chosen path whose
scores it changed: each best predecessor in a sentence's segments after
its first, and the final argmax, with ``T`` the chunk's longest sentence.
If each holds, the path is the sequential decoder's, decision by decision
from the last position back.  An exact tie never holds, and a sentence
with any decision that does not is decoded again by the sequential kernel.
The log-probability of a path that holds is summed again along the path
with ``np.add.accumulate`` in the sequential recursion's order (initial
plus emission, plus transition, plus emission, ...), so its bits are the
sequential decoder's.  Dead positions are exact in any order: a sum of
finite terms stays finite (no term is below about -745) and -inf
propagates alike, so the scan finds the same first dead position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError
from .model import HmmModel, Packed, columns, layout, scan_span

_U = 2.0 ** -53  # the unit roundoff of float64


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
    its index in the chunk).  This is the per-sentence view of
    ``decode_columns``.
    """
    ids, lengths, errors = columns(sentences)
    tags, log_prob, errors = decode_columns(model, ids, lengths, errors)
    lengths[list(errors)] = 0
    paths = np.split(tags, np.cumsum(lengths)[:-1])
    return [errors[i] if i in errors else Decoding(tuple(path.tolist()), p)
            for i, (path, p) in enumerate(zip(paths, log_prob.tolist()))]


def decode_columns(model: HmmModel, ids: np.ndarray, lengths: np.ndarray, errors=None):
    """Decode a chunk given as its tokens' class ids, one sentence after
    the other, and its sentences' ``lengths`` (see ``model.layout``, which
    also says what ``errors`` holds).

    Returns the tags of the tokens of the sentences that decode, each
    sentence's log-probability (meaningless for a failed one), and
    ``{index in the chunk: DataError}`` for those that ``viterbi`` fails.
    Memory grows with the chunk; a corpus is streamed through
    ``model.chunks(corpus, model.max_class_size)``.  A chunk that the
    segment scan decodes also keeps the ``(segments, K, K)`` max-plus
    products and one more row per segment, about 1/16 and 1/64 of a
    per-token array at ``K`` = 4 and ``L`` = 64.
    """
    packed = layout(model, ids, lengths, errors, scan_span(lengths))
    if not packed.ids.size:
        return np.empty(0, dtype=np.intp), np.zeros(lengths.size), packed.errors
    tables = model.member_tables()
    kernel = _scan_packed if packed.start.any() else _decode_packed
    tags, log_prob, errors = _paths(packed, *kernel(tables, packed))
    decoded, rows = np.ones(lengths.size, dtype=bool), packed.sentence_lengths()
    decoded[list(errors)] = False
    redo = decoded & np.isnan(log_prob)  # the paths the scan's certificate did not settle
    if redo.any():
        tokens = np.repeat(redo, rows)
        again = layout(model, packed.ids[packed.rows[tokens]], rows[redo])
        tags[tokens], log_prob[redo], _ = _paths(again, *_decode_packed(tables, again))
    return tags[np.repeat(decoded, rows)], log_prob, errors


def _paths(packed: Packed, path, score):
    """From a kernel's output: each row's tag, each sentence's best score at
    its last row (NaN where the certificate does not settle it) and errors."""
    best = score.max(axis=1)
    errors = {**packed.errors, **packed.impossible(best == -np.inf)}
    # the score at each sentence's last row (an invalid one's index is unused)
    return path[packed.rows], best[packed.rows[np.cumsum(packed.sentence_lengths()) - 1]], errors


def _first_scores(tables, packed: Packed):
    """The tag of each slot of every row, and the slot scores with each
    segment's first row at its initial plus emission and every other row at
    its emission."""
    members, log_initial, _, log_emission = tables
    member = members[packed.ids]
    score = log_emission[packed.ids]
    B = int(packed.live[0])
    score[:B] += log_initial[member[:B]]
    return member, score


def _recurse(tables, packed: Packed, member, score):
    """The recursion from each segment's first row on, in place in
    ``score``.  Returns, flat by ``row * K + slot``, the cell of the best
    predecessor of every cell of the rows at ``t >= 1``."""
    _, log_initial, log_transition, _ = tables
    live, offsets = packed.live, packed.offsets
    width = log_initial.size  # the transitions' row stride
    (N, K), B = score.shape, int(live[0])
    back = np.empty((N, K), dtype=np.intp)
    row_at, live_at = offsets.tolist(), live.tolist()
    for t in range(1, live.size):
        lo, k, up = row_at[t], live_at[t], row_at[t - 1]
        c = log_transition[member[up:up + k, :, None] * width + member[lo:lo + k, None, :]]
        c += score[up:up + k, :, None]
        c.argmax(1, back[lo:lo + k])  # ties -> lowest slot, lowest tag id
        score[lo:lo + k] += np.maximum.reduce(c, 1)
    back[B:] += (packed.prev * K)[:, None]
    return back.ravel()


def _backtrack(packed: Packed, back, last, end):
    """The flat cell of every row on the paths that end in the cells
    ``end`` at each segment's ``last`` row, through ``_recurse``'s ``back``."""
    offsets = packed.offsets.tolist()
    cell = np.empty(packed.ids.size, dtype=np.intp)
    cell[last] = end
    for t in range(packed.live.size - 1, 0, -1):
        lo, hi, up = offsets[t], offsets[t + 1], offsets[t - 1]
        np.take(back, cell[lo:hi], out=cell[up:up + hi - lo])
    return cell


def _decode_packed(tables, packed: Packed):
    """Member-only Viterbi over every sentence of a packed chunk, one
    position at a time: the sequential kernel.

    Returns the tag and the slot scores at every row; the scores are -inf
    from a sentence's first dead position on.
    """
    member, score = _first_scores(tables, packed)
    back = _recurse(tables, packed, member, score)
    B, K = int(packed.live[0]), score.shape[1]
    last = packed.offsets[packed.lengths[:B] - 1] + np.arange(B)
    final = score[last].argmax(axis=1)  # ties -> lowest tag id
    cell = _backtrack(packed, back, last, last * K + final)
    return member.ravel()[cell], score


def _scan_packed(tables, packed: Packed):
    """Member-only Viterbi over a packed chunk cut into segments, as a
    max-plus segment scan (see the module docstring).

    Returns the tag and the slot scores at every row, as ``_decode_packed``
    does, but every slot of the last row of each live sentence cut into
    segments holds its path's log-probability, summed again along the path,
    or NaN where the certificate does not settle the path.
    """
    _, log_initial, log_transition, _ = tables
    live, offsets, width = packed.live, packed.offsets, log_initial.size
    member, score = _first_scores(tables, packed)
    (N, K), B, T = score.shape, int(live[0]), live.size
    cut, running, by, at = packed.segments()  # segments j: rank[at[j]:at[j + 1]]

    def transfer(t, k):
        """The log-transitions into the rows at ``t`` of the first ``k`` cut
        segments plus those rows' emissions, by (source slot, target slot,
        segment)."""
        rows = offsets[t] + cut[:k]
        up = offsets[t - 1] + cut[:k]
        m = log_transition[member[up].T[:, None] * width + member[rows].T]
        m += score[rows].T
        return m

    # The products by (target slot, segment, source slot): each max then
    # runs over the outermost axis, where numpy is fastest.
    product = transfer(1, cut.size).transpose(1, 2, 0).copy()  # each has a row at t = 1
    for t in range(2, T):
        k = running[t]
        product[:, :k] = np.maximum.reduce(product[:, None, :k] + transfer(t, k)[..., None],
                                           axis=0)
    product, rank = product.transpose(1, 2, 0)[by], cut[by]
    v = score[rank[:at[1]]]  # a segment's row at t = 0 is its rank
    for j in range(len(at) - 2):
        lo, hi = at[j], at[j + 1]
        k = at[j + 2] - hi
        v = np.maximum.reduce(v[:k, :, None] + product[lo:lo + k], axis=1)
        score[rank[hi:hi + k]] = v
    del product

    back = _recurse(tables, packed, member, score)
    # each segment's paths from its K end slots, followed back to its first row
    last = offsets[packed.lengths[:B] - 1] + np.arange(B)
    start = (last * K)[:, None] + np.arange(K)
    for k in live[:0:-1].tolist():
        start[:k] = back[start[:k]]
    start -= (np.arange(B) * K)[:, None]  # a segment's row at t = 0 is its rank
    # The slot each segment's path ends in: a sentence's last segment's is
    # the final argmax, and each earlier one's the slot its successor's path
    # starts in.
    end = score[last].argmax(axis=1)  # ties -> lowest
    final = packed.start[:B] > 0  # the final argmaxes the scan decided
    for j in range(len(at) - 2, 0, -1):
        seg = rank[at[j]:at[j + 1]]
        before = rank[at[j - 1]:at[j - 1] + seg.size]
        end[before] = start[seg, end[seg]]
        final[before] = False
    cell = _backtrack(packed, back, last, last * K + end)
    del back
    path, slot = member.ravel()[cell], cell - np.arange(N) * K
    del cell
    fin = np.flatnonzero(final)
    unsettled = _unsettled(tables, packed, member, score, path, slot, last[fin], end[fin])
    del member
    # a cut sentence's segment 1 is its one segment at[1] to at[2]
    _rescore(tables, packed, path, slot, packed.order[rank[at[1]:at[2]]], unsettled, score)
    return path, score


def _unsettled(tables, packed: Packed, member, score, path, slot, last, end) -> set:
    """The chunk indices of the sentences with a decision that the
    certificate does not settle, among those whose scores the scan changed:
    the best predecessor of every row in a segment after its sentence's
    first, and the final argmax, in the slots ``end``, at the ``last`` rows
    of the segments that end such sentences."""
    _, log_initial, log_transition, _ = tables
    width, B, (N, K) = log_initial.size, int(packed.live[0]), score.shape
    rank = np.arange(N) - np.repeat(packed.offsets[:-1], packed.live)  # of each row
    rows = B + np.flatnonzero(packed.start[rank[B:]] > 0)
    up = packed.prev[rows - B]
    # each row's candidates, one predecessor slot at a time (a (rows, K)
    # array of them would add to the chunk's peak memory)
    target, pick = path[rows], slot[up]
    chosen, runner_up = np.empty(rows.size), np.full(rows.size, -np.inf)
    for i in range(K):
        c = log_transition[member[up, i] * width + target]
        c += score[up, i]  # as the recursion adds them
        picked = pick == i
        chosen[picked] = c[picked]
        c[picked] = -np.inf
        np.maximum(runner_up, c, out=runner_up)
    final = score[last]
    n = np.arange(end.size)
    chosen = np.concatenate([chosen, final[n, end]])
    final[n, end] = -np.inf
    runner_up = np.concatenate([runner_up, final.max(axis=1)])
    settled = _settled(chosen, runner_up, int((packed.start + packed.lengths).max()))
    owner = np.concatenate([rank[rows], rank[last]])[~settled]
    return set(packed.order[owner].tolist())


def _rescore(tables, packed: Packed, path, slot, sentences, unsettled, score) -> None:
    """Into every slot of the last row of each of the chunk's ``sentences``
    that lives, write its path's log-probability, summed in the order of the
    sequential recursion, or NaN where it is ``unsettled``."""
    _, log_initial, log_transition, log_emission = tables
    lengths = packed.sentence_lengths()
    ends = np.cumsum(lengths)
    tokens = packed.rows
    tag = path[tokens]
    terms = np.empty((tokens.size, 2))  # each token's step in and emission
    terms[1:, 0] = log_transition[tag[:-1] * log_initial.size + tag[1:]]
    first = (ends - lengths)[lengths > 0]
    terms[first, 0] = log_initial[tag[first]]
    terms[:, 1] = log_emission[packed.ids[tokens], slot[tokens]]
    terms = terms.ravel()
    for i in sentences.tolist():
        r = tokens[ends[i] - 1]
        if score[r].max() == -np.inf:  # a dead sentence keeps its -inf
            continue
        part = terms[2 * (ends[i] - lengths[i]):2 * ends[i]]
        score[r] = np.nan if i in unsettled else np.add.accumulate(part, out=part)[-1]


def _settled(best, runner_up, length):
    """Where a decision that the scan took for ``best`` over ``runner_up``
    is the sequential decoder's too, in a chunk whose longest sentence has
    ``length`` tokens: where the margin is more than ``2 g |runner_up|``,
    ``g = 2 gamma(2 length + 1)`` (see the module docstring).

    The slack in ``g`` over the bound's ``2 gamma(n - 1)`` covers the
    rounding of this test itself.
    """
    n = 2 * length + 1
    g = 2 * n * _U / (1 - n * _U)
    return best > runner_up * (1 - 2 * g)

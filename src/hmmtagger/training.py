"""Parameter estimation over untagged class sequences and tagged corpora.

Three regimes produce models:

* ``bias``          -- seed a uniform model with starting biases, then run
                       expectation-maximization over untagged text;
* ``counted``       -- initialize from relative frequencies counted in a
                       tagged corpus (one re-estimation of the uniform start
                       from observed counts), then smooth with (by default) a
                       single re-estimation iteration over untagged text;
* ``counted-only``  -- the counted initialization alone, no re-estimation.

The forward-backward recursions use per-position scaling (Rabiner 1989), so
arbitrarily long sentences neither underflow nor overflow; the corpus
log-likelihood is recovered from the scaling factors.

The E-step (``expected_counts``) is packed and chunked, as decoding is.
Training takes a corpus as columns (``Corpus``): its tokens' class ids,
one sentence after the other, and its sentences' lengths; ``hmmtagger
train`` reads and classifies them a block of sentences at a time, and a
list of sentences is read into them once.  The columns are cut into chunks
of consecutive sentences holding at most ``model.CHUNK_CELLS`` cells
(tokens x the kernel's width; ``model.chunk_bounds``), so a chunk's few
working arrays stay small whatever the corpus size; a longer sentence is a
chunk by itself.  Each chunk's sentences are validated, sorted by length and
laid out time-major (``model.layout``) once per training run, not once per
iteration: a run holds the class ids and, while iterations remain, one
layout per chunk, and drops each layout as the last iteration uses it.
Each position runs as one matrix product over every sentence still
running there.  A scaling factor of 0 marks a dead sentence
(``Packed.impossible``).  The counted start (``counted_init``) takes its
tagged corpus as columns too (``TaggedCorpus``), checks them whole and
counts each table with one ``np.bincount``.

Two kernels share that bookkeeping, the scaling and the likelihood, and
differ only in each position's product and in how they scatter the counts.
The member kernel keeps one cell per member slot of each token's class
(``K = HmmModel.max_class_size`` cells per token), as the decoder does; the
dense kernel keeps one per tag.  ``e_step_kernel`` states the rule that
picks one: the member kernel wherever ``K * K < n_tags``.

A chunk whose longest sentence has more than ``model.SCAN_FROM`` (256)
tokens runs as a two-level scan (Hassan, Särkkä and García-Fernández 2021,
in its sequential-segment form), over the member kernel whatever the rule.
Each of its sentences longer than ``L + 1`` tokens (``L = model.SEGMENT``,
64) is cut into segments of ``L`` transitions that share their end
positions, and ``model.layout`` lays the segments out as it lays out
sentences; the decoder scans the same segments in the max-plus semiring.
The scan multiplies each segment's ``K x K`` transfer matrices (the
transitions into a position times its emissions) for all segments at
once, one position at a time; steps alpha and beta across the segment
boundaries through those products, for all sentences at once; and then
fills alpha and beta inside every segment at once, with the sequential
recursions above.  A sentence of ``T`` tokens then costs about
``3 L + 2 T / L`` steps of the Python loop instead of ``2 T``.  Beyond the
sequential E-step's arrays the scan keeps the ``(segments, K, K)`` products
and one more row per segment, about 1/16 and 1/64 of a per-token array at
``K`` = 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DataError
from .model import (BiasSet, HmmModel, Packed, apply_biases, chunk_bounds, columns, layout,
                    scan_span, uniform_model)
from .tagset import TagSet

REGIME_BIAS = "bias"
REGIME_COUNTED = "counted"
REGIME_COUNTED_ONLY = "counted-only"
REGIMES = (REGIME_BIAS, REGIME_COUNTED, REGIME_COUNTED_ONLY)
# re-estimation iterations each regime runs unless told otherwise
DEFAULT_ITERATIONS = {REGIME_BIAS: 20, REGIME_COUNTED: 1, REGIME_COUNTED_ONLY: 0}
# the inputs each regime needs; only ``bias`` also takes biases
REGIME_NEEDS = {REGIME_BIAS: ("corpus",), REGIME_COUNTED: ("tagged", "corpus"),
                REGIME_COUNTED_ONLY: ("tagged",)}


@dataclass
class TrainingConfig:
    """Knobs for re-estimation.

    ``smoothing_floor`` is added to every structurally allowed cell of the
    expected-count tables before renormalization, so events unseen in the
    data do not become permanently impossible; deliberate prohibitions live
    in the transition zero mask and are unaffected.  Training runs exactly
    ``iterations`` iterations.
    """

    iterations: int = 20
    smoothing_floor: float = 1e-6

    def __post_init__(self):
        # bool is an int too, but True is no count of iterations
        if not isinstance(self.iterations, (int, np.integer)) or isinstance(self.iterations, bool):
            raise ValueError(f"iterations must be an int, not {self.iterations!r}")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        _check_floor(self.smoothing_floor)


def _check_floor(floor: float) -> None:
    """A smoothing floor is finite and >= 0; raises ValueError otherwise."""
    if not 0 <= floor < np.inf:  # NaN fails too
        raise ValueError(f"smoothing_floor must be finite and >= 0, not {floor}")


class SufficientStats:
    """Expected counts from forward-backward, or counts observed in a tagged
    corpus (``counted_init``), plus the log-likelihood.

    Stats from distinct sentences add, so a corpus can be reduced in any
    grouping.  ``expected_counts`` adds one packed chunk of at most
    ``model.CHUNK_CELLS`` tokens x the kernel's width (``e_step_kernel``) at
    a time into a single instance, so its working arrays are bounded by the
    chunk, not the corpus.
    """

    def __init__(self, initial_counts, transition_counts, emission_counts, log_likelihood=0.0):
        self.initial_counts = initial_counts
        self.transition_counts = transition_counts
        self.emission_counts = emission_counts
        self.log_likelihood = log_likelihood

    @classmethod
    def zeros(cls, n_tags: int, n_classes: int) -> "SufficientStats":
        return cls(np.zeros(n_tags), np.zeros((n_tags, n_tags)), np.zeros((n_tags, n_classes)))


def e_step_kernel(model: HmmModel):
    """The forward-backward kernel for ``model`` and the width it chunks
    by, the cells it keeps per token in each per-token array.

    With ``K = model.max_class_size``, the member kernel (``_Members``,
    width ``K``) runs where ``K * K < n_tags``, and the dense one
    (``_Dense``, width ``n_tags``) elsewhere: the member kernel gathers
    ``K * K`` transitions per token, which pays only where that is fewer
    than the tags.  At 10 tags and ``K`` = 4, on the seed-1 training corpus
    of ``perfbench``'s ``em-short`` (sentences of 2-7 tokens; medians of 7
    alternating runs, 2-core virtual machine), the member kernel ran at
    1.16M tok/s against 1.61M for the dense one, and its traced peak memory
    was 3.6 MB against 0.9 MB.  A chunk cut into segments runs the member
    kernel whatever this rule says: its scan multiplies ``K x K`` matrices
    where the dense kernel's would be ``n_tags x n_tags``.  On the seed-1
    ``viterbi-long`` training corpus (44 tags, ``K`` = 4, sentences of
    200-3,000 tokens) the scan ran the E-step at 789k tok/s against 250k
    for the sequential member kernel (medians of 9 alternating runs).
    """
    K = model.max_class_size
    return (_Members, K) if K * K < model.n_tags else (_Dense, model.n_tags)


class _Dense:
    """Forward-backward over every tag: ``n_tags`` cells per token, and one
    ``(k, n) @ (n, n)`` product per position for its ``k`` live rows."""

    def __init__(self, model: HmmModel, packed: Packed):
        self.model, self.ids, self.B = model, packed.ids, int(packed.live[0])
        self.initial = model.initial
        self.obs = model.emission.T.take(packed.ids, axis=0)  # emission of each tag

    def forward(self, alpha_prev, first, out):
        np.matmul(alpha_prev, self.model.transition, out=out)

    def backward(self, weights, first, out):
        np.matmul(weights, self.model.transition.T, out=out)

    def add_state_counts(self, gamma, into):
        into.initial_counts += gamma[:self.B].sum(axis=0)
        for tag in range(self.model.n_tags):
            into.emission_counts[tag] += np.bincount(self.ids, weights=gamma[:, tag],
                                                     minlength=self.model.n_classes)

    def add_transition_counts(self, alpha_prev, weights, into):
        into.transition_counts += self.model.transition * (alpha_prev.T @ weights)


class _Members:
    """Forward-backward over class members only: ``K`` cells per token, one
    per slot of the padded member table (``HmmModel.member_tables``), whose
    padding slots have probability 0.  The transitions between the slots of
    each row at ``t >= 1`` and of its row at ``t - 1`` are gathered once per
    chunk, so a position is one ``(k, 1, K) @ (k, K, K)`` product for its
    ``k`` live rows.  ``transfer`` multiplies them by the target slots'
    emissions for the boundary scan."""

    def __init__(self, model: HmmModel, packed: Packed):
        members, initial, transition, emission = model.member_tables(log=False)
        self.n, self.m, self.ids = model.n_tags, model.n_classes, packed.ids
        self.B = B = int(packed.live[0])
        self.member = member = members[packed.ids]  # the tag of each slot
        self.initial = initial[member[:B]]
        self.obs = emission[packed.ids]
        # the flat (source, target) cell of each pair of slots of a row at
        # t - 1 and its row at t; a row's pairs are at its index less B
        self.cells = member[packed.prev, :, None] * (self.n + 1) + member[B:, None, :]
        self.transition = transition[self.cells]

    def forward(self, alpha_prev, first, out):
        np.matmul(alpha_prev[:, None], self.transition[first:first + out.shape[0]],
                  out=out[:, None])

    def backward(self, weights, first, out):
        np.matmul(self.transition[first:first + out.shape[0]], weights[:, :, None],
                  out=out[:, :, None])

    def transfer(self, first):
        """The transitions into the rows ``first + B`` times their emissions."""
        return self.transition[first] * self.obs[first + self.B, None, :]

    # Each table's counts are one bincount over flat cells led by each slot's
    # tag; the dummy tag's cells, which gather only zeros, are cut off.
    def add_state_counts(self, gamma, into):
        n, m, B = self.n, self.m, self.B
        into.initial_counts += np.bincount(self.member[:B].ravel(), weights=gamma[:B].ravel(),
                                           minlength=n + 1)[:n]
        cells = self.member * m + self.ids[:, None]
        into.emission_counts += np.bincount(cells.ravel(), weights=gamma.ravel(),
                                            minlength=(n + 1) * m)[:n * m].reshape(n, m)

    def add_transition_counts(self, alpha_prev, weights, into):
        n, xi = self.n, self.transition  # xi takes the transitions' place
        xi *= alpha_prev[:, :, None]
        xi *= weights[:, None, :]
        into.transition_counts += np.bincount(self.cells.ravel(), weights=xi.ravel(),
                                              minlength=(n + 1) ** 2
                                              ).reshape(n + 1, n + 1)[:n, :n]


def _add_expected_counts(model: HmmModel, packed: Packed, into: SufficientStats) -> dict:
    """Scaled forward-backward over a packed chunk of sentences at once.

    Segments still running at position ``t`` are a contiguous prefix of
    the rows at ``t`` (see ``Packed``), so each position costs one product
    of the kernel (``e_step_kernel``) for all of them.  A sentence cut into
    several segments first gets alpha at each segment's first row and beta
    at its last from ``_scan_boundaries``; then its segments run as
    sentences of their own, and the row each shares with the segment
    before it adds no scaling factor and no counts.  Every sentence keeps
    its own per-position scaling.

    Adds the chunk's expected counts and log-likelihood into ``into`` and
    returns ``packed.impossible`` of the rows whose scaling factor is 0 (or
    NaN, which the scan can leave after a dead position): an
    ImpossibleSequenceError naming the first dead position of each sentence
    that no tag path can produce, which adds nothing.
    """
    N, live, offsets = packed.ids.size, packed.live, packed.offsets
    if not N:
        return {}
    B, T = int(live[0]), live.size
    entry = np.flatnonzero(packed.start)  # the first rows of later segments
    # the boundary scan multiplies K x K matrices, not n_tags x n_tags ones
    kernel = (_Members if entry.size else e_step_kernel(model)[0])(model, packed)
    obs = kernel.obs  # (N, width): the emission probability of each cell
    live_at, row_at = live.tolist(), offsets.tolist()

    alpha = np.empty_like(obs)
    beta = np.ones_like(obs)  # 1 at each sentence's last token
    scale = np.empty((N, 1))
    np.multiply(obs[:B], kernel.initial, out=alpha[:B])
    # A sentence that dies at t gets scale 0 there and NaN after, in its own
    # rows only: each row of a product depends on that row alone.
    with np.errstate(divide="ignore", invalid="ignore"):
        if entry.size:
            _scan_boundaries(kernel, packed, alpha, beta)
        for t in range(T):
            lo, k = row_at[t], live_at[t]
            a = alpha[lo:lo + k]
            if t:
                kernel.forward(alpha[row_at[t - 1]:row_at[t - 1] + k], lo - B, a)
                a *= obs[lo:lo + k]
            s = a.sum(axis=1, keepdims=True, out=scale[lo:lo + k])
            a /= s
    dead = packed.impossible(~(scale > 0.0))  # NaN too, which only a dead sentence has
    scale[entry] = 1.0
    # a dead sentence drops out of every count and of the likelihood
    for r in np.flatnonzero(np.isin(packed.order, list(dead))).tolist():
        cells = offsets[:packed.lengths[r]] + r
        alpha[cells] = 0.0
        scale[cells] = 1.0
        beta[cells] = 1.0

    # obs becomes obs / scale, and the backward pass multiplies it by beta in
    # place: at t >= 1 it then holds the weights that xi needs
    obs /= scale
    for t in range(T - 1, 0, -1):
        lo, k, prev = row_at[t], live_at[t], row_at[t - 1]
        w = obs[lo:lo + k]
        w *= beta[lo:lo + k]
        kernel.backward(w, lo - B, beta[prev:prev + k])

    gamma = np.multiply(alpha, beta, out=beta)
    gamma[entry] = 0.0
    kernel.add_state_counts(gamma, into)
    if N > B:  # xi; alpha at t - 1 is gathered into gamma's buffer, now free
        # mode="clip" (the rows are in range) writes straight into ``out``
        # instead of through a temporary as big as the chunk
        alpha_prev = np.take(alpha, packed.prev, axis=0, out=gamma[:N - B], mode="clip")
        kernel.add_transition_counts(alpha_prev, obs[B:], into)
    into.log_likelihood += float(np.log(scale).sum())
    return dead


def _scan_boundaries(kernel, packed: Packed, alpha, beta) -> None:
    """Alpha at the first row and beta at the last row of every segment of
    the sentences that ``layout`` cut into several, written into ``alpha``
    and ``beta``; ``alpha`` holds each sentence's unscaled first row.

    The transfer matrices of a segment's positions, the transitions into
    each times its emissions (``_Members.transfer``), are multiplied for all
    segments at once, one position at a time, and renormalised by the
    largest cell, so that they cannot underflow.  Then alpha steps from each
    segment's first row to the next segment's, and beta back from each
    segment's last row to the one before's, through the products, for all
    sentences at once: about ``T + 2 S`` steps of the Python loop for
    sentences of ``S`` segments of ``T - 1`` transitions, not ``2 (T - 1) S``.
    Beta is divided by the sum that scaled alpha at the same boundary, so
    both are scaled as the sequential recursions scale them.  A dead
    sentence can get NaN here, in its own rows only.
    """
    offsets, B = packed.offsets, int(packed.live[0])
    cut, running, by, at = packed.segments()  # segments j: rank[at[j]:at[j + 1]]
    product = kernel.transfer(offsets[1] - B + cut)  # each segment has a row at t = 1
    product /= product.max(axis=(1, 2), keepdims=True)
    for t in range(2, len(running)):
        p = product[:running[t]]
        np.matmul(p, kernel.transfer(offsets[t] - B + cut[:p.shape[0]]), out=p)
        p /= p.max(axis=(1, 2), keepdims=True)

    product, rank = product[by], cut[by]
    total = np.empty((rank.size, 1))  # the sum that scales alpha after each segment
    a = alpha[rank[:at[1]]]
    for j in range(len(at) - 1):
        lo, hi = at[j], at[j + 1]
        v = np.matmul(a[:, None], product[lo:hi])[:, 0]
        np.sum(v, axis=1, keepdims=True, out=total[lo:hi])
        if j + 2 < len(at):
            k = at[j + 2] - hi
            a = alpha[rank[hi:hi + k]] = v[:k] / total[lo:lo + k]
    b = np.ones((at[1], alpha.shape[1]))
    for j in range(len(at) - 2, 0, -1):
        lo, hi = at[j], at[j + 1]
        b[:hi - lo] = np.matmul(product[lo:hi], b[:hi - lo, :, None])[..., 0] / total[lo:hi]
        before = rank[at[j - 1]:at[j - 1] + hi - lo]
        beta[offsets[packed.lengths[before] - 1] + before] = b[:hi - lo]


def forward_backward(model: HmmModel, sentence: Sequence[int]) -> SufficientStats:
    """Expected initial/transition/emission counts for one sentence.

    Runs the packed kernel of ``expected_counts`` on a one-sentence corpus;
    ``log_likelihood`` is the exact (up to rounding) natural log of the
    sentence probability under ``model``.

    Raises DataError for an invalid sentence, and ImpossibleSequenceError,
    naming the first dead position, when no tag path has positive
    probability.
    """
    (_, _, packed), = _Chunks(model, Corpus.of([sentence]), passes=1)
    stats = SufficientStats.zeros(model.n_tags, model.n_classes)
    failures = packed.errors or _add_expected_counts(model, packed, stats)
    if failures:
        raise failures[0]
    return stats


def _normalize_rows(counts: np.ndarray, allowed: np.ndarray, floor: float,
                    fallback: np.ndarray) -> np.ndarray:
    """Counts -> row-stochastic matrix.  ``floor`` is added to allowed cells;
    rows with no mass fall back to the corresponding ``fallback`` rows."""
    work = np.where(allowed, counts + floor, 0.0)
    sums = work.sum(axis=1)
    dead = sums <= 0.0
    sums[dead] = 1.0
    work /= sums[:, None]
    if dead.any():
        work[dead] = fallback[dead]
    return work


def _reestimate(model: HmmModel, stats: SufficientStats, floor: float) -> HmmModel:
    allowed_trans = ~model.transition_zero_mask
    transition = _normalize_rows(stats.transition_counts, allowed_trans, floor, model.transition)
    emission = _normalize_rows(stats.emission_counts, model.allowed_emission_mask(),
                               floor, model.emission)
    initial = stats.initial_counts + floor
    total = initial.sum()
    initial = initial / total if total > 0 else model.initial
    return HmmModel(model.tag_labels, model.class_members, initial, transition, emission,
                    model.transition_zero_mask)


class Corpus(NamedTuple):
    """An untagged corpus as columns: the class ids of its tokens, one
    sentence after the other, and each sentence's length.  A sentence of
    length 0 is invalid, its DataError held in ``errors`` by its index (see
    ``model.columns``)."""

    ids: np.ndarray
    lengths: np.ndarray
    errors: Optional[dict] = None

    @classmethod
    def of(cls, corpus) -> "Corpus":
        """``corpus`` if it is a Corpus, else its sentences of class ids as
        columns (``model.columns``)."""
        return corpus if isinstance(corpus, cls) else cls(*columns(corpus))


class _Chunks:
    """A corpus cut into the E-step's chunks of ``model``
    (``model.chunk_bounds``) for ``passes`` passes over it.  Each chunk is
    laid out (``model.layout``) once, and its layout is kept only while a
    later pass will use it.  Iterating makes one pass and yields the first
    sentence, the number of sentences and the layout of each chunk."""

    def __init__(self, model: HmmModel, corpus: Corpus, passes: int):
        self.model, self.corpus, self.passes, self.kept = model, corpus, passes, {}
        self.bounds = chunk_bounds(corpus.lengths, e_step_kernel(model)[1])
        ends = np.concatenate(([0], np.cumsum(corpus.lengths, dtype=np.intp)))
        self.tokens = ends[self.bounds].tolist()  # the first token of each chunk

    def __iter__(self):
        self.passes -= 1
        ids, lengths, errors = self.corpus
        for c, (lo, hi) in enumerate(zip(self.bounds, self.bounds[1:])):
            packed = self.kept.pop(c, None)
            if packed is None:
                n = lengths[lo:hi]
                packed = layout(self.model, ids[self.tokens[c]:self.tokens[c + 1]], n,
                                {i - lo: e for i, e in (errors or {}).items() if lo <= i < hi},
                                scan_span(n))
            if self.passes:
                self.kept[c] = packed
            yield lo, hi - lo, packed


def _e_step(model: HmmModel, chunked: _Chunks, skip_impossible: bool):
    """``expected_counts`` over one pass of ``chunked``."""
    stats = SufficientStats.zeros(model.n_tags, model.n_classes)
    n_sentences = 0
    skipped: list[int] = []
    for first, n, packed in chunked:
        dead = _add_expected_counts(model, packed, stats)
        failures = packed.errors if skip_impossible else {**packed.errors, **dead}
        if failures:
            i = min(failures)
            raise failures[i].at_sentence(first + i)
        n_sentences += n
        skipped.extend(first + i for i in dead)
    if n_sentences == len(skipped):
        raise DataError("every training sentence was impossible"
                        if skipped else "training corpus is empty")
    return stats, skipped


def expected_counts(model: HmmModel, corpus, skip_impossible: bool = False
                    ) -> tuple[SufficientStats, list[int]]:
    """The E-step: expected counts and log-likelihood of a corpus under ``model``.

    ``corpus`` is a ``Corpus`` or its sentences of class ids.  It is cut
    into chunks of consecutive sentences of at most ``CHUNK_CELLS`` tokens x
    width (``model.chunk_bounds``), where the width is ``K``, the size of
    the largest class, for the member kernel and ``n_tags`` for the dense
    one (``e_step_kernel``), and forward-backward runs over a whole chunk at
    once, so its working arrays stay the size of a chunk.  Returns the stats
    and the indices of the impossible sentences skipped.

    The first failing sentence in corpus order raises, with its index
    attached: an invalid sentence (see ``model.columns`` and
    ``model.layout``), or an impossible one, reported by its first dead
    position.  With ``skip_impossible`` zero-probability sentences are
    dropped from the counts instead.
    """
    return _e_step(model, _Chunks(model, Corpus.of(corpus), passes=1), skip_impossible)


def baum_welch(model: HmmModel, corpus, config: TrainingConfig,
               on_iteration: Optional[Callable[[int, HmmModel, float], None]] = None,
               skip_impossible: bool = False) -> tuple[HmmModel, list[float], int]:
    """Expectation-maximization over a corpus of class sequences.

    ``corpus`` is a ``Corpus`` or its sentences of class ids, read once.
    Returns ``(final_model, trajectory, skipped)`` where ``trajectory[i]``
    is the corpus log-likelihood under the model entering iteration ``i``;
    with a smoothing floor of 0 the trajectory is non-decreasing.

    Each iteration's E-step is ``expected_counts``, which also describes the
    errors raised; with ``skip_impossible`` zero-probability sentences are
    dropped from the iteration's counts instead, and ``skipped`` is the
    number of distinct sentences dropped in any iteration.  Each chunk is
    laid out once per run, and its layout is held until the last iteration
    has used it, so a run holds the corpus's class ids and, while
    iterations remain, the layout of each chunk.
    """
    trajectory: list[float] = []
    skipped: set[int] = set()
    if not config.iterations:
        return model, trajectory, 0
    chunked = _Chunks(model, Corpus.of(corpus), config.iterations)
    for iteration in range(config.iterations):
        stats, dropped = _e_step(model, chunked, skip_impossible)
        skipped.update(dropped)
        trajectory.append(stats.log_likelihood)
        model = _reestimate(model, stats, config.smoothing_floor)
        if on_iteration is not None:
            on_iteration(iteration, model, stats.log_likelihood)
    return model, trajectory, len(skipped)


class TaggedCorpus(NamedTuple):
    """A tagged corpus as columns: the gold tag ids and the class ids of its
    tokens, one sentence after the other, and each sentence's length."""

    tags: np.ndarray
    ids: np.ndarray
    lengths: np.ndarray

    @classmethod
    def of(cls, tagged) -> "TaggedCorpus":
        """``tagged`` if it is a TaggedCorpus, else its sentences of
        ``(tag id, class id)`` pairs as columns."""
        if isinstance(tagged, cls):
            return tagged
        sentences = [list(sentence) for sentence in tagged]
        pairs = list(chain.from_iterable(sentences))
        return cls(*_id_columns([tag for tag, _ in pairs], [class_id for _, class_id in pairs]),
                   np.fromiter(map(len, sentences), np.intp, len(sentences)))


def _id_columns(*values: list) -> list[np.ndarray]:
    """The lists ``values`` as arrays of integers; as arrays of the objects
    themselves where one of them is no integer (such as a bool, a float or a
    str), or where numpy reads a list as no integer dtype."""
    kinds = set(chain.from_iterable(map(type, v) for v in values))
    if bool not in kinds and all(issubclass(kind, (int, np.integer)) for kind in kinds):
        columns = [np.array(v, dtype=None if v else np.intp) for v in values]
        if all(column.dtype.kind in "iu" for column in columns):
            return columns
    return [np.fromiter(v, object, len(v)) for v in values]


def counted_init(tagged, ts: TagSet, classes, smoothing_floor: float = 1e-6) -> HmmModel:
    """Relative-frequency model from a tagged corpus: one re-estimation of
    ``uniform_model(ts, classes)`` from observed instead of expected counts.

    ``tagged`` is a ``TaggedCorpus`` or its sentences of integer
    ``(tag_id, class_id)`` pairs.  Each token's gold tag must be a member of
    its class, otherwise the lexicon and the annotation disagree and a
    DataError names the first offending token, as it does a bad id; the ids
    are checked as whole columns, and only a bad token's are checked one by
    one, to name it.  The counts are one ``np.bincount`` per table.  The
    smoothing floor is added to every structurally allowed cell before
    normalization so later re-estimation can move off observed zeros; cells
    where the tag is not a class member stay exactly 0.  Tags never observed
    keep the uniform rows.  ``classes`` is checked as ``uniform_model``
    describes, and the floor as ``TrainingConfig``'s.
    """
    _check_floor(smoothing_floor)
    start = uniform_model(ts, classes)
    n, m = start.n_tags, start.n_classes
    tagged = TaggedCorpus.of(tagged)
    tags, ids, lengths = tagged
    if tags.dtype.kind not in "iu" or ids.dtype.kind not in "iu":
        _name_bad_token(tagged, range(tags.size), ts, start)
    # an id of 2**63 or more wraps to a negative one, and is named as given
    tags, ids = tags.astype(np.intp, copy=False), ids.astype(np.intp, copy=False)
    bad = (tags < 0) | (tags >= n) | (ids < 0) | (ids >= m)
    end = int(bad.argmax()) if bad.any() else tags.size  # the tokens before the first bad id
    bad[:end] = ~start.allowed_emission_mask()[tags[:end], ids[:end]]
    if bad.any():
        _name_bad_token(tagged, [int(bad.argmax())], ts, start)
    if not tags.size:
        raise DataError("tagged corpus is empty")
    first = (np.cumsum(lengths) - lengths)[lengths > 0]  # each sentence's first token
    pairs = tags[:-1] * n + tags[1:]  # of consecutive tokens, less those across sentences
    crossing = tags[first[1:] - 1] * n + tags[first[1:]]
    counts = SufficientStats(
        np.bincount(tags[first], minlength=n),
        (np.bincount(pairs, minlength=n * n) - np.bincount(crossing, minlength=n * n)
         ).reshape(n, n),
        np.bincount(tags * m + ids, minlength=n * m).reshape(n, m))
    return _reestimate(start, counts, smoothing_floor)


def _name_bad_token(tagged: TaggedCorpus, tokens, ts: TagSet, start: HmmModel) -> None:
    """Raise the DataError of the first bad one of the ``tokens`` of
    ``tagged``, named by its sentence and position: a tag id outside the
    tag set, a class id outside the inventory, a gold tag outside its class,
    or an id that is no integer.  Return if none of them is bad."""
    n, m, allowed_emis = start.n_tags, start.n_classes, start.allowed_emission_mask()
    ends = np.cumsum(tagged.lengths)
    for j in tokens:
        tag, class_id = tagged.tags[j], tagged.ids[j]
        s_index = int(np.searchsorted(ends, j, side="right"))
        t_index = j - int(ends[s_index] - tagged.lengths[s_index])
        try:
            if not 0 <= tag < n:
                raise DataError(f"sentence {s_index} token {t_index}: bad tag id {tag}")
            if not 0 <= class_id < m:
                raise DataError(
                    f"sentence {s_index} token {t_index}: unknown class id {class_id}")
            allowed = allowed_emis[tag, class_id]
            if allowed is not np.True_:
                if allowed is not np.False_:  # a bool id adds an axis, not a cell
                    raise TypeError
                labels = "+".join(ts.label(t) for t in start.class_members[class_id])
                raise DataError(
                    f"sentence {s_index} token {t_index}: gold tag {ts.label(tag)!r} "
                    f"is not a member of the token's class {{{labels}}}"
                )
        except (IndexError, TypeError, ValueError):  # a float, bool or str id
            raise DataError(f"sentence {s_index} token {t_index}: tag and class ids must be "
                            f"integers, not {tag!r} and {class_id!r}") from None


def regime_iterations(regime: str, given, iterations: Optional[int] = None,
                      as_flags: bool = False) -> int:
    """Check the inputs a training regime gets; return its iteration count.

    ``given`` holds the names of the inputs supplied (``corpus``,
    ``tagged``, ``biases``) and ``iterations`` the re-estimation iterations
    asked for, None for the regime's default (``DEFAULT_ITERATIONS``).
    ``bias`` needs a corpus and ``counted`` a tagged and an untagged corpus;
    ``counted-only`` needs a tagged corpus and does no re-estimation.  Only
    ``bias`` takes biases.  Raises ValueError naming the offending input,
    spelt as a command-line flag (``--corpus``) with ``as_flags``.
    """
    name = (lambda i: f"--{i}") if as_flags else str
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}; expected one of {REGIMES}")
    missing = [i for i in REGIME_NEEDS[regime] if i not in given]
    if missing:
        raise ValueError(f"regime {regime!r} needs {' and '.join(map(name, missing))}")
    if regime != REGIME_BIAS and "biases" in given:
        raise ValueError(f"regime {regime!r} takes no {name('biases')}; "
                         "only regime 'bias' starts from biases")
    if regime == REGIME_COUNTED_ONLY and iterations:
        raise ValueError(f"regime {regime!r} does no re-estimation; {name('iters')} must be 0")
    return DEFAULT_ITERATIONS[regime] if iterations is None else iterations


def train_regime(regime: str, ts: TagSet, classes, *, corpus=None, tagged=None,
                 biases=None, config: Optional[TrainingConfig] = None,
                 skip_impossible: bool = False, on_iteration=None):
    """Run one of the three training regimes; returns
    ``(model, trajectory, skipped)`` as ``baum_welch`` does.

    ``corpus`` is what ``baum_welch`` takes and ``tagged`` what
    ``counted_init`` takes: columns, or sentences.  A regime picks the
    starting model and the default number of re-estimation iterations (used
    when ``config`` is None); the inputs it
    needs and rejects are checked by ``regime_iterations``.
    ``config.smoothing_floor`` applies to counted initialization as well as
    to re-estimation, and ``biases`` defaults to none (an empty bias set
    reproduces fully unbiased training).
    """
    given = [name for name, value in (("corpus", corpus), ("tagged", tagged), ("biases", biases))
             if value is not None]
    iterations = regime_iterations(regime, given, config and config.iterations)
    cfg = config or TrainingConfig(iterations=iterations)
    if regime == REGIME_BIAS:
        start = apply_biases(uniform_model(ts, classes), biases or BiasSet())
    else:
        start = counted_init(tagged, ts, classes, cfg.smoothing_floor)
    return baum_welch(start, corpus, cfg, on_iteration=on_iteration,
                      skip_impossible=skip_impossible)

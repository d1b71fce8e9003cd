"""Parameter estimation over untagged class sequences and tagged corpora.

Three regimes produce models:

* ``bias``          -- seed a uniform model with starting biases, then run
                       expectation-maximization over untagged text;
* ``counted``       -- initialize from relative frequencies counted in a
                       tagged corpus, then smooth with (by default) a single
                       re-estimation iteration over untagged text;
* ``counted-only``  -- the counted initialization alone, no re-estimation.

The forward-backward recursions use per-position scaling (Rabiner 1989), so
arbitrarily long sentences neither underflow nor overflow; the corpus
log-likelihood is recovered from the scaling factors.

The E-step (``expected_counts``) is packed and chunked.  The corpus streams
in chunks of consecutive sentences holding at most ``CHUNK_CELLS`` cells
(tokens x tags), so a chunk's few working arrays stay small whatever the
corpus size; a longer sentence is a chunk by itself.  Within a chunk the
sentences are sorted by length and laid out time-major, and each position
runs as one matrix product over every sentence still running there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError, ImpossibleSequenceError
from .model import HmmModel, _class_members_arg, check_sentences
from .tagset import TagSet

REGIME_BIAS = "bias"
REGIME_COUNTED = "counted"
REGIME_COUNTED_ONLY = "counted-only"
REGIMES = (REGIME_BIAS, REGIME_COUNTED, REGIME_COUNTED_ONLY)


@dataclass
class TrainingConfig:
    """Knobs for re-estimation.

    ``smoothing_floor`` is added to every structurally allowed cell of the
    expected-count tables before renormalization, so events unseen in the
    data do not become permanently impossible; deliberate prohibitions live
    in the transition zero mask and are unaffected.  ``convergence_tol`` of 0
    runs exactly ``iterations`` iterations; a positive value stops early once
    the relative log-likelihood improvement falls below it.
    """

    iterations: int = 20
    smoothing_floor: float = 1e-6
    convergence_tol: float = 0.0

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.smoothing_floor < 0:
            raise ValueError("smoothing_floor must be >= 0")
        if self.convergence_tol < 0:
            raise ValueError("convergence_tol must be >= 0")


class SufficientStats:
    """Expected counts from forward-backward, plus the log-likelihood.

    Stats from distinct sentences add, so a corpus can be reduced in any
    grouping; ``merge`` is commutative and associative up to floating-point
    reassociation.  ``expected_counts`` adds one packed chunk of at most
    ``CHUNK_CELLS`` tokens x tags at a time into a single instance, so its
    memory is bounded by the chunk, not the corpus.
    """

    def __init__(self, initial_counts, transition_counts, emission_counts, log_likelihood=0.0):
        self.initial_counts = initial_counts
        self.transition_counts = transition_counts
        self.emission_counts = emission_counts
        self.log_likelihood = log_likelihood

    @classmethod
    def zeros(cls, n_tags: int, n_classes: int) -> "SufficientStats":
        return cls(np.zeros(n_tags), np.zeros((n_tags, n_tags)), np.zeros((n_tags, n_classes)))

    def merge(self, other: "SufficientStats") -> "SufficientStats":
        self.initial_counts += other.initial_counts
        self.transition_counts += other.transition_counts
        self.emission_counts += other.emission_counts
        self.log_likelihood += other.log_likelihood
        return self


# Cells (tokens x tags) of one packed chunk.  Each of the chunk's few working
# arrays holds this many floats (256 KiB), which bounds the E-step's memory
# whatever the corpus size; a sentence with more cells is a chunk by itself.
CHUNK_CELLS = 2 ** 15


def _add_expected_counts(model: HmmModel, flat: np.ndarray, lengths: np.ndarray,
                         into: SufficientStats) -> list[tuple[int, int]]:
    """Scaled forward-backward over a chunk of sentences at once.

    ``flat`` holds the chunk's validated class ids, sentence after sentence,
    and ``lengths`` their lengths.  The sentences are sorted by decreasing
    length and laid out time-major, so the sentences still running at
    position ``t`` are a contiguous prefix of the rows at ``t``; each
    position costs one ``(B, n) @ (n, n)`` product for all of them.  Every
    sentence keeps its own per-position scaling.

    Adds the chunk's expected counts and log-likelihood into ``into`` and
    returns ``(i, position)``, in increasing ``i``, for each sentence ``i`` of
    the chunk that no tag path can produce, with its first dead position;
    such a sentence adds nothing.
    """
    n, m, A = model.n_tags, model.n_classes, model.transition
    N, B = flat.size, lengths.size
    order = np.argsort(-lengths, kind="stable")
    sorted_lengths = lengths[order]
    T = int(sorted_lengths[0])
    # live[t]: sentences with a token at position t; offsets[t]: first row of t
    live = np.searchsorted(-sorted_lengths, -np.arange(T), side="left")
    offsets = np.zeros(T + 1, dtype=np.intp)
    np.cumsum(live, out=offsets[1:])
    rank = np.empty(B, dtype=np.intp)
    rank[order] = np.arange(B)
    position = np.arange(N) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    ids = np.empty(N, dtype=np.intp)
    ids[offsets[position] + np.repeat(rank, lengths)] = flat
    obs = model.emission.T.take(ids, axis=0)  # (N, n): emission prob of each tag at each cell
    live_at, row_at = live.tolist(), offsets.tolist()

    alpha = np.empty_like(obs)
    scale = np.empty((N, 1))
    np.multiply(obs[:B], model.initial, out=alpha[:B])
    # A sentence that dies at t gets scale 0 there and NaN after, in its own
    # rows only: each row of a matmul depends on that row alone.
    with np.errstate(divide="ignore", invalid="ignore"):
        for t in range(T):
            lo, k = row_at[t], live_at[t]
            a = alpha[lo:lo + k]
            if t:
                np.matmul(alpha[row_at[t - 1]:row_at[t - 1] + k], A, out=a)
                a *= obs[lo:lo + k]
            s = a.sum(axis=1, keepdims=True, out=scale[lo:lo + k])
            a /= s
    dead = []  # (sorted row, first dead position)
    for cell in np.flatnonzero(scale == 0.0).tolist():
        t = int(np.searchsorted(offsets, cell, side="right")) - 1
        dead.append((cell - row_at[t], t))
    for r, _ in dead:  # a dead sentence drops out of every count and of the likelihood
        cells = offsets[:sorted_lengths[r]] + r
        alpha[cells] = 0.0
        scale[cells] = 1.0

    # obs becomes obs / scale, and the backward pass multiplies it by beta in
    # place: at t >= 1 it then holds the weights that xi needs
    obs /= scale
    beta = np.ones_like(obs)  # 1 at each sentence's last token
    for t in range(T - 1, 0, -1):
        lo, k, prev = row_at[t], live_at[t], row_at[t - 1]
        w = obs[lo:lo + k]
        w *= beta[lo:lo + k]
        np.matmul(w, A.T, out=beta[prev:prev + k])

    gamma = np.multiply(alpha, beta, out=beta)
    into.initial_counts += gamma[:B].sum(axis=0)
    for tag in range(n):
        into.emission_counts[tag] += np.bincount(ids, weights=gamma[:, tag], minlength=m)
    if N > B:  # xi; alpha at t - 1 is gathered into gamma's buffer, now free
        prev_rows = np.arange(B, N) - np.repeat(live[:-1], live[1:])
        # mode="clip" (the rows are in range) writes straight into ``out``
        # instead of through a temporary as big as the chunk
        alpha_prev = np.take(alpha, prev_rows, axis=0, out=beta[:N - B], mode="clip")
        into.transition_counts += A * (alpha_prev.T @ obs[B:])
    into.log_likelihood += float(np.log(scale).sum())
    return sorted((int(order[r]), t) for r, t in dead)


def _dead_message(position: int) -> str:
    if position == 0:
        return "no tag can start this sentence"
    return f"all tag states die at position {position}"


def forward_backward(model: HmmModel, sentence: Sequence[int],
                     into: Optional[SufficientStats] = None) -> SufficientStats:
    """Expected initial/transition/emission counts for one sentence.

    Runs the packed kernel of ``expected_counts`` on a one-sentence chunk;
    ``log_likelihood`` is the exact (up to rounding) natural log of the
    sentence probability under ``model``.  Counts accumulate into ``into``
    when given, which lets callers reduce over a corpus without intermediate
    allocations.

    Raises ImpossibleSequenceError, naming the first dead position, when no
    tag path has positive probability.
    """
    flat = check_sentences(model, [sentence])
    if into is None:
        into = SufficientStats.zeros(model.n_tags, model.n_classes)
    dead = _add_expected_counts(model, flat, np.array([flat.size]), into)
    if dead:
        position = dead[0][1]
        raise ImpossibleSequenceError(_dead_message(position), position=position)
    return into


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
    transition[model.transition_zero_mask] = 0.0
    emission = _normalize_rows(stats.emission_counts, model.allowed_emission_mask(),
                               floor, model.emission)
    initial = stats.initial_counts + floor
    total = initial.sum()
    initial = initial / total if total > 0 else model.initial.copy()
    return HmmModel(model.tag_labels, model.class_members, initial, transition, emission,
                    model.transition_zero_mask.copy())


def _chunks(corpus: Iterable[Sequence[int]], n_tags: int):
    """Yield ``(index of the first sentence, sentences)`` for runs of
    consecutive sentences of at most ``CHUNK_CELLS`` tokens x tags; a longer
    sentence is a chunk by itself."""
    chunk: list = []
    first = cells = 0
    for index, sentence in enumerate(corpus):
        size = len(sentence) * n_tags
        if chunk and cells + size > CHUNK_CELLS:
            yield first, chunk
            chunk, first, cells = [], index, 0
        chunk.append(sentence)
        cells += size
    if chunk:
        yield first, chunk


def expected_counts(model: HmmModel, corpus: Iterable[Sequence[int]],
                    skip_impossible: bool = False) -> tuple[SufficientStats, int]:
    """The E-step: expected counts and log-likelihood of a corpus under ``model``.

    Streams ``corpus`` in chunks of consecutive sentences of at most
    ``CHUNK_CELLS`` tokens x tags and runs forward-backward over a whole
    chunk at once, so the corpus itself is never held in memory.  Returns
    the stats and the number of impossible sentences skipped.

    Sentence-level errors are re-raised with the sentence index attached;
    an impossible sentence is reported by its first dead position, the
    first such sentence in corpus order.  With ``skip_impossible``
    zero-probability sentences are dropped from the counts instead.
    """
    stats = SufficientStats.zeros(model.n_tags, model.n_classes)
    n_sentences = skipped = 0
    for first, chunk in _chunks(corpus, model.n_tags):
        try:
            flat = check_sentences(model, chunk)
        except DataError as exc:
            index = first + exc.sentence_index
            raise DataError(f"sentence {index}: {exc}", index) from None
        lengths = np.array([len(sentence) for sentence in chunk])
        dead = _add_expected_counts(model, flat, lengths, stats)
        if dead and not skip_impossible:
            index, position = first + dead[0][0], dead[0][1]
            raise ImpossibleSequenceError(f"sentence {index}: {_dead_message(position)}",
                                          position=position, sentence_index=index)
        n_sentences += len(chunk)
        skipped += len(dead)
    if n_sentences == skipped:
        raise DataError("training corpus is empty"
                        if skipped == 0 else "every training sentence was impossible")
    return stats, skipped


def baum_welch(model: HmmModel, corpus: Iterable[Sequence[int]], config: TrainingConfig,
               on_iteration: Optional[Callable[[int, HmmModel, float], None]] = None,
               skip_impossible: bool = False):
    """Expectation-maximization over a corpus of class sequences.

    ``corpus`` must be re-iterable (a list, or a reader that restarts per
    pass).  Returns ``(final_model, trajectory)`` where ``trajectory[i]`` is
    the corpus log-likelihood under the model entering iteration ``i``; with
    a smoothing floor of 0 the trajectory is non-decreasing.

    Each iteration's E-step is ``expected_counts``, which also describes the
    errors raised; with ``skip_impossible`` zero-probability sentences are
    dropped from the iteration's counts instead (the count of skips is
    reported on the final model as ``skipped_sentences``).
    """
    trajectory: list[float] = []
    skipped_total = 0
    for iteration in range(config.iterations):
        stats, skipped = expected_counts(model, corpus, skip_impossible)
        skipped_total += skipped
        trajectory.append(stats.log_likelihood)
        model = _reestimate(model, stats, config.smoothing_floor)
        if on_iteration is not None:
            on_iteration(iteration, model, stats.log_likelihood)
        if config.convergence_tol > 0 and len(trajectory) >= 2:
            prev, cur = trajectory[-2], trajectory[-1]
            if abs(cur - prev) <= config.convergence_tol * abs(prev):
                break
    model.skipped_sentences = skipped_total
    return model, trajectory


def counted_init(tagged: Iterable[Sequence[tuple[int, int]]], ts: TagSet, classes,
                 smoothing_floor: float = 1e-6) -> HmmModel:
    """Relative-frequency model from a tagged corpus.

    ``tagged`` yields sentences of ``(tag_id, class_id)`` pairs; each token's
    gold tag must be a member of its class, otherwise the lexicon and the
    annotation disagree and a DataError names the offending token.  The
    smoothing floor is added to every structurally allowed cell before
    normalization so later re-estimation can move off observed zeros; cells
    where the tag is not a class member stay exactly 0.  Tags never observed
    get uniform rows over their allowed cells.
    """
    members = _class_members_arg(classes)
    n, m = len(ts), len(members)
    member_sets = [frozenset(mem) for mem in members]
    initial_counts = np.zeros(n)
    transition_counts = np.zeros((n, n))
    emission_counts = np.zeros((n, m))
    n_sentences = 0
    for s_index, sentence in enumerate(tagged):
        prev = None
        for t_index, (tag, class_id) in enumerate(sentence):
            if not 0 <= tag < n:
                raise DataError(f"sentence {s_index} token {t_index}: bad tag id {tag}")
            if not 0 <= class_id < m:
                raise DataError(f"sentence {s_index} token {t_index}: unknown class id {class_id}")
            if tag not in member_sets[class_id]:
                labels = "+".join(ts.label(t) for t in members[class_id])
                raise DataError(
                    f"sentence {s_index} token {t_index}: gold tag {ts.label(tag)!r} "
                    f"is not a member of the token's class {{{labels}}}"
                )
            if prev is None:
                initial_counts[tag] += 1
            else:
                transition_counts[prev, tag] += 1
            emission_counts[tag, class_id] += 1
            prev = tag
        if prev is not None:
            n_sentences += 1
    if n_sentences == 0:
        raise DataError("tagged corpus is empty")

    allowed_trans = np.ones((n, n), dtype=bool)
    uniform_trans = np.full((n, n), 1.0 / n)
    transition = _normalize_rows(transition_counts, allowed_trans, smoothing_floor, uniform_trans)

    allowed_emis = np.zeros((n, m), dtype=bool)
    for c, mem in enumerate(members):
        allowed_emis[list(mem), c] = True
    if np.any(~allowed_emis.any(axis=1)):
        orphan = int(np.nonzero(~allowed_emis.any(axis=1))[0][0])
        raise ConfigError(f"tag {ts.label(orphan)!r} belongs to no equivalence class")
    uniform_emis = allowed_emis / allowed_emis.sum(axis=1, keepdims=True)
    emission = _normalize_rows(emission_counts, allowed_emis, smoothing_floor, uniform_emis)

    initial = initial_counts + smoothing_floor
    initial /= initial.sum()
    return HmmModel(ts.labels, members, initial, transition, emission)


def train_regime(regime: str, ts: TagSet, classes, *, corpus=None, tagged=None,
                 biases=None, config: Optional[TrainingConfig] = None,
                 skip_impossible: bool = False, on_iteration=None):
    """Run one of the three training regimes; returns (model, trajectory).

    * ``bias``: needs ``corpus``; ``biases`` defaults to none (an empty bias
      set reproduces fully unbiased training); 20 iterations by default.
    * ``counted``: needs ``tagged`` and ``corpus``; 1 iteration by default.
    * ``counted-only``: needs ``tagged``; passing a config is rejected since
      no re-estimation takes place.
    """
    from .model import BiasSet, apply_biases, uniform_model

    if regime == REGIME_BIAS:
        if corpus is None:
            raise ValueError("regime 'bias' needs an untagged corpus")
        cfg = config or TrainingConfig(iterations=20)
        start = apply_biases(uniform_model(ts, classes), biases or BiasSet.empty())
        return baum_welch(start, corpus, cfg, on_iteration=on_iteration,
                          skip_impossible=skip_impossible)
    if regime == REGIME_COUNTED:
        if tagged is None or corpus is None:
            raise ValueError("regime 'counted' needs a tagged corpus and an untagged corpus")
        cfg = config or TrainingConfig(iterations=1)
        start = counted_init(tagged, ts, classes, cfg.smoothing_floor)
        return baum_welch(start, corpus, cfg, on_iteration=on_iteration,
                          skip_impossible=skip_impossible)
    if regime == REGIME_COUNTED_ONLY:
        if tagged is None:
            raise ValueError("regime 'counted-only' needs a tagged corpus")
        if config is not None:
            raise ValueError("regime 'counted-only' does no re-estimation; drop the config")
        return counted_init(tagged, ts, classes), []
    raise ValueError(f"unknown regime {regime!r}; expected one of {REGIMES}")

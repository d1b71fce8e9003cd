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
The corpus streams in chunks of consecutive sentences holding at most
``model.CHUNK_CELLS`` cells (tokens x tags; ``model.chunks``), so a chunk's
few working arrays stay small whatever the corpus size; a longer sentence
is a chunk by itself.  Within a chunk the sentences are validated, sorted
by length and laid out time-major (``model.pack``), and each position runs
as one matrix product over every sentence still running there.  A scaling
factor of 0 marks a dead sentence (``Packed.impossible``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import DataError
from .model import BiasSet, HmmModel, Packed, apply_biases, chunks, pack, uniform_model
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
    ``model.CHUNK_CELLS`` tokens x tags at a time into a single instance, so
    its memory is bounded by the chunk, not the corpus.
    """

    def __init__(self, initial_counts, transition_counts, emission_counts, log_likelihood=0.0):
        self.initial_counts = initial_counts
        self.transition_counts = transition_counts
        self.emission_counts = emission_counts
        self.log_likelihood = log_likelihood

    @classmethod
    def zeros(cls, n_tags: int, n_classes: int) -> "SufficientStats":
        return cls(np.zeros(n_tags), np.zeros((n_tags, n_tags)), np.zeros((n_tags, n_classes)))


def _add_expected_counts(model: HmmModel, packed: Packed, into: SufficientStats) -> dict:
    """Scaled forward-backward over a packed chunk of sentences at once.

    Sentences still running at position ``t`` are a contiguous prefix of
    the rows at ``t`` (see ``Packed``), so each position costs one
    ``(B, n) @ (n, n)`` product for all of them.  Every sentence keeps its
    own per-position scaling.

    Adds the chunk's expected counts and log-likelihood into ``into`` and
    returns ``packed.impossible`` of the rows whose scaling factor is 0: an
    ImpossibleSequenceError naming the first dead position of each sentence
    that no tag path can produce, which adds nothing.
    """
    n, m, A = model.n_tags, model.n_classes, model.transition
    N, ids, live, offsets = packed.ids.size, packed.ids, packed.live, packed.offsets
    if not N:
        return {}
    B, T = int(live[0]), live.size
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
    dead = packed.impossible(scale == 0.0)
    # a dead sentence drops out of every count and of the likelihood
    for r in np.flatnonzero(np.isin(packed.order, list(dead))).tolist():
        cells = offsets[:packed.lengths[r]] + r
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
        # mode="clip" (the rows are in range) writes straight into ``out``
        # instead of through a temporary as big as the chunk
        alpha_prev = np.take(alpha, packed.prev, axis=0, out=beta[:N - B], mode="clip")
        into.transition_counts += A * (alpha_prev.T @ obs[B:])
    into.log_likelihood += float(np.log(scale).sum())
    return dead


def forward_backward(model: HmmModel, sentence: Sequence[int]) -> SufficientStats:
    """Expected initial/transition/emission counts for one sentence.

    Runs the packed kernel of ``expected_counts`` on a one-sentence chunk;
    ``log_likelihood`` is the exact (up to rounding) natural log of the
    sentence probability under ``model``.

    Raises DataError for an invalid sentence, and ImpossibleSequenceError,
    naming the first dead position, when no tag path has positive
    probability.
    """
    packed = pack(model, [sentence])
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
    transition[model.transition_zero_mask] = 0.0
    emission = _normalize_rows(stats.emission_counts, model.allowed_emission_mask(),
                               floor, model.emission)
    initial = stats.initial_counts + floor
    total = initial.sum()
    initial = initial / total if total > 0 else model.initial
    return HmmModel(model.tag_labels, model.class_members, initial, transition, emission,
                    model.transition_zero_mask)


def expected_counts(model: HmmModel, corpus: Iterable[Sequence[int]],
                    skip_impossible: bool = False) -> tuple[SufficientStats, list[int]]:
    """The E-step: expected counts and log-likelihood of a corpus under ``model``.

    Streams ``corpus`` in chunks of consecutive sentences of at most
    ``CHUNK_CELLS`` tokens x tags and runs forward-backward over a whole
    chunk at once, so the corpus itself is never held in memory.  Returns
    the stats and the indices of the impossible sentences skipped.

    The first failing sentence in corpus order raises, with its index
    attached: an invalid sentence (see ``model.pack``), or an
    impossible one, reported by its first dead position.  With
    ``skip_impossible`` zero-probability sentences are dropped from the
    counts instead.
    """
    stats = SufficientStats.zeros(model.n_tags, model.n_classes)
    n_sentences = 0
    skipped: list[int] = []
    for first, chunk in chunks(corpus, model.n_tags):
        packed = pack(model, chunk)
        dead = _add_expected_counts(model, packed, stats)
        failures = packed.errors if skip_impossible else {**packed.errors, **dead}
        if failures:
            i = min(failures)
            raise failures[i].at_sentence(first + i)
        n_sentences += len(chunk)
        skipped.extend(first + i for i in dead)
    if n_sentences == len(skipped):
        raise DataError("every training sentence was impossible"
                        if skipped else "training corpus is empty")
    return stats, skipped


def baum_welch(model: HmmModel, corpus: Iterable[Sequence[int]], config: TrainingConfig,
               on_iteration: Optional[Callable[[int, HmmModel, float], None]] = None,
               skip_impossible: bool = False) -> tuple[HmmModel, list[float], int]:
    """Expectation-maximization over a corpus of class sequences.

    ``corpus`` must be re-iterable (a list, or a reader that restarts per
    pass).  Returns ``(final_model, trajectory, skipped)`` where
    ``trajectory[i]`` is the corpus log-likelihood under the model entering
    iteration ``i``; with a smoothing floor of 0 the trajectory is
    non-decreasing.

    Each iteration's E-step is ``expected_counts``, which also describes the
    errors raised; with ``skip_impossible`` zero-probability sentences are
    dropped from the iteration's counts instead, and ``skipped`` is the
    number of distinct sentences dropped in any iteration.
    """
    trajectory: list[float] = []
    skipped: set[int] = set()
    for iteration in range(config.iterations):
        stats, dropped = expected_counts(model, corpus, skip_impossible)
        skipped.update(dropped)
        trajectory.append(stats.log_likelihood)
        model = _reestimate(model, stats, config.smoothing_floor)
        if on_iteration is not None:
            on_iteration(iteration, model, stats.log_likelihood)
    return model, trajectory, len(skipped)


def counted_init(tagged: Iterable[Sequence[tuple[int, int]]], ts: TagSet, classes,
                 smoothing_floor: float = 1e-6) -> HmmModel:
    """Relative-frequency model from a tagged corpus: one re-estimation of
    ``uniform_model(ts, classes)`` from observed instead of expected counts.

    ``tagged`` yields sentences of ``(tag_id, class_id)`` pairs; each token's
    gold tag must be a member of its class, otherwise the lexicon and the
    annotation disagree and a DataError names the offending token.  The
    smoothing floor is added to every structurally allowed cell before
    normalization so later re-estimation can move off observed zeros; cells
    where the tag is not a class member stay exactly 0.  Tags never observed
    keep the uniform rows.  ``classes`` is checked as ``uniform_model``
    describes, and the floor as ``TrainingConfig``'s.
    """
    _check_floor(smoothing_floor)
    start = uniform_model(ts, classes)
    n, m = start.n_tags, start.n_classes
    allowed_emis = start.allowed_emission_mask()
    counts = SufficientStats.zeros(n, m)
    n_sentences = 0
    for s_index, sentence in enumerate(tagged):
        prev = None
        for t_index, (tag, class_id) in enumerate(sentence):
            if not 0 <= tag < n:
                raise DataError(f"sentence {s_index} token {t_index}: bad tag id {tag}")
            if not 0 <= class_id < m:
                raise DataError(f"sentence {s_index} token {t_index}: unknown class id {class_id}")
            if not allowed_emis[tag, class_id]:
                labels = "+".join(ts.label(t) for t in start.class_members[class_id])
                raise DataError(
                    f"sentence {s_index} token {t_index}: gold tag {ts.label(tag)!r} "
                    f"is not a member of the token's class {{{labels}}}"
                )
            if prev is None:
                counts.initial_counts[tag] += 1
            else:
                counts.transition_counts[prev, tag] += 1
            counts.emission_counts[tag, class_id] += 1
            prev = tag
        if prev is not None:
            n_sentences += 1
    if n_sentences == 0:
        raise DataError("tagged corpus is empty")
    return _reestimate(start, counts, smoothing_floor)


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

    A regime picks the starting model and the default number of
    re-estimation iterations (used when ``config`` is None); the inputs it
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

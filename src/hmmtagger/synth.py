"""Seeded synthetic benchmarks: sampled generator HMMs and corpora.

Real newswire corpora and wide-coverage lexicons are licensed material, so
every quantitative check in this package runs instead on data sampled from a
known generator model.  The generator's parameters are kept, which makes
oracle comparisons (decode with the true model) possible, and everything is
a pure function of the seed.

``make_benchmark`` is the one composition of the samplers; it also gives
each class three word forms ``w{class:03d}{a,b,c}`` and draws one per token
of the tagged corpus.  ``hmmtagger synth`` writes that tagged corpus, from a
generator without twin tag pairs, so it is not the benchmark of acceptance
criterion 06 (ambiguity 1.6, transition concentration 0.25, three twin pairs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BiasSet, HmmModel, TransitionBias
from .tagset import Tag, TagSet


def synthetic_tagset(n_tags: int) -> TagSet:
    """Tags T00..Tnn with T00 doubling as the sentence delimiter."""
    return TagSet([Tag(i, f"T{i:02d}", "synthetic") for i in range(n_tags)], {0})


def sample_class_inventory(rng: np.random.Generator, n_tags: int, n_classes: int,
                           max_class_size: int = 4,
                           twin_pairs: int = 0) -> tuple[tuple[int, ...], ...]:
    """One singleton class per anchored tag, then distinct random ambiguous
    classes.  Requires ``n_classes >= n_tags`` so that every tag is covered.
    Ambiguous class sizes lean toward 2 and 3, echoing the size profile of
    natural ambiguity-class lexicons.

    With ``twin_pairs`` > 0 the last ``2 * twin_pairs`` tags form pairs that
    share every class they appear in: each pair gets a two-member class
    instead of singletons, and random classes touching one twin always
    include the other.  Twins are observationally symmetric, so training
    that starts from an exactly uniform model provably cannot tell them
    apart; only asymmetric starting information (biases, counted
    frequencies) can.  This reproduces, at desk scale, the failure mode of
    fully unbiased re-estimation.
    """
    if n_classes < n_tags:
        raise ValueError(f"need at least {n_tags} classes to cover {n_tags} tags")
    if max_class_size < 2:
        raise ValueError("max_class_size must be >= 2")
    if twin_pairs < 0 or 2 * twin_pairs > n_tags:
        raise ValueError("twin_pairs must satisfy 0 <= 2*twin_pairs <= n_tags")
    twin_start = n_tags - 2 * twin_pairs
    partner = {}
    for p in range(twin_pairs):
        a, b = twin_start + 2 * p, twin_start + 2 * p + 1
        partner[a], partner[b] = b, a

    classes: list[tuple[int, ...]] = [(t,) for t in range(twin_start)]
    classes += [(a, partner[a]) for a in range(twin_start, n_tags, 2)]
    seen = set(classes)
    if n_classes > len(classes) and n_tags < 2:
        raise ValueError("a single tag admits only its singleton class")
    sizes = list(range(2, min(max_class_size, n_tags) + 1))
    weights = np.array([2.0 ** -k for k in range(len(sizes))])
    weights /= weights.sum()
    attempts = 0
    while len(classes) < n_classes:
        attempts += 1
        if attempts > 1000 * n_classes:
            raise ValueError("cannot build that many distinct classes; lower n_classes")
        size = int(rng.choice(sizes, p=weights))
        members = set(rng.choice(n_tags, size=size, replace=False).tolist())
        members |= {partner[t] for t in members if t in partner}  # keep twins together
        key = tuple(sorted(members))
        if key in seen or len(key) > max_class_size + 1:
            continue
        seen.add(key)
        classes.append(key)
    return tuple(classes)


def sample_generator_model(rng: np.random.Generator, ts: TagSet,
                           class_members, ambiguity: float = 1.5,
                           transition_concentration: float = 0.15) -> HmmModel:
    """Sample a random generator HMM over the given class inventory.

    A small ``transition_concentration`` gives peaky transition rows, which
    is what makes transition knowledge worth injecting during training.  Per
    tag, emission mass is split between its singleton class and its
    ambiguous classes so that the expected per-token class size is about
    ``ambiguity``, which must be finite.
    """
    if not np.isfinite(ambiguity):
        raise ValueError(f"ambiguity must be finite, not {ambiguity}")
    n, m = len(ts), len(class_members)
    initial = rng.dirichlet(np.ones(n))
    transition = np.vstack([rng.dirichlet(np.full(n, transition_concentration)) for _ in range(n)])

    emission = np.zeros((n, m))
    containing: list[list[int]] = [[] for _ in range(n)]
    for c, members in enumerate(class_members):
        for t in members:
            containing[t].append(c)
    for t in range(n):
        singles = [c for c in containing[t] if len(class_members[c]) == 1]
        ambig = [c for c in containing[t] if len(class_members[c]) > 1]
        if not singles and not ambig:
            raise ValueError(f"tag {t} belongs to no class")
        split = rng.dirichlet(np.ones(len(ambig))) if ambig else None
        if not ambig or ambiguity <= 1.0:
            share_ambig = 0.0
        else:
            # expected class size under the drawn within-ambiguous allocation;
            # solving for the share makes E[class size | tag] hit the target
            mean_size = float(sum(w * len(class_members[c]) for w, c in zip(split, ambig)))
            share_ambig = min(0.95, (ambiguity - 1.0) / max(mean_size - 1.0, 1e-9))
        if not singles:
            share_ambig = 1.0
        if singles:
            emission[t, singles] = (1.0 - share_ambig) * rng.dirichlet(np.ones(len(singles)))
        if ambig:
            emission[t, ambig] = share_ambig * split
        emission[t] /= emission[t].sum()
    return HmmModel(ts.labels, class_members, initial, transition, emission)


def sample_corpus(rng: np.random.Generator, model: HmmModel, n_tokens: int,
                  min_len: int = 5, max_len: int = 20) -> list[list[tuple[int, int]]]:
    """Sample sentences of (tag_id, class_id) pairs, about ``n_tokens`` total."""
    n, m = model.n_tags, model.n_classes
    init_cdf = np.cumsum(model.initial)
    trans_cdf = np.cumsum(model.transition, axis=1)
    emis_cdf = np.cumsum(model.emission, axis=1)
    sentences: list[list[tuple[int, int]]] = []
    produced = 0
    while produced < n_tokens:
        length = int(rng.integers(min_len, max_len + 1))
        length = min(length, n_tokens - produced) or 1
        u = rng.random(size=(length, 2))
        sent = []
        tag = int(np.searchsorted(init_cdf, u[0, 0]))
        for i in range(length):
            if i > 0:
                tag = int(np.searchsorted(trans_cdf[tag], u[i, 0]))
            c = int(np.searchsorted(emis_cdf[tag], u[i, 1]))
            sent.append((min(tag, n - 1), min(c, m - 1)))
        sentences.append(sent)
        produced += length
    return sentences


def dominant_transition_biases(model: HmmModel, top_n: int = 1,
                               weight: float = 5.0) -> BiasSet:
    """Biases boosting each tag's most probable successors.

    Stands in for the hand-written transition preferences a grammarian would
    supply: per source tag, the ``top_n`` most likely targets under the
    generator get a multiplicative head start.
    """
    biases = []
    for src in range(model.n_tags):
        order = np.argsort(-model.transition[src], kind="stable")
        for rank in range(min(top_n, model.n_tags)):
            dst = int(order[rank])
            if model.transition[src, dst] <= 0:
                break
            biases.append(TransitionBias(src, dst, weight / (rank + 1)))
    return BiasSet(biases, ())


@dataclass
class SynthBenchmark:
    """A complete seeded benchmark: generator, tag set, corpora."""

    tagset: TagSet
    class_members: tuple[tuple[int, ...], ...]
    generator: HmmModel
    train_tagged: list[list[tuple[int, int]]]  # for counted initialization
    train_untagged: list[list[int]]  # class sequences for re-estimation
    heldout: list[list[tuple[int, int]]]  # evaluation set with gold tags
    forms: tuple[tuple[str, ...], ...]  # per class id, its lexicon's word forms
    tagged_text: list[list[tuple[str, int]]]  # train_tagged as (form, tag id)

    @property
    def heldout_classes(self) -> list[list[int]]:
        return [[c for _t, c in sent] for sent in self.heldout]

    @property
    def heldout_gold(self) -> list[list[int]]:
        return [[t for t, _c in sent] for sent in self.heldout]


def make_benchmark(seed: int, n_tags: int = 10, n_classes: int = 30,
                   train_tokens: int = 50_000, tagged_tokens: int = 5_000,
                   heldout_tokens: int = 5_000, ambiguity: float = 1.5,
                   transition_concentration: float = 0.15,
                   twin_pairs: int = 0, max_class_size: int = 4) -> SynthBenchmark:
    """Sample a full benchmark from one seed; word forms are drawn after every corpus."""
    rng = np.random.default_rng(seed)
    ts = synthetic_tagset(n_tags)
    members = sample_class_inventory(rng, n_tags, n_classes, max_class_size, twin_pairs)
    generator = sample_generator_model(rng, ts, members, ambiguity,
                                       transition_concentration)
    train = sample_corpus(rng, generator, train_tokens)
    tagged = sample_corpus(rng, generator, tagged_tokens)
    heldout = sample_corpus(rng, generator, heldout_tokens)
    forms = tuple(tuple(f"w{c:03d}{s}" for s in "abc") for c in range(len(members)))
    tagged_text = [[(forms[c][int(rng.integers(len(forms[c])))], tag) for tag, c in sent]
                   for sent in tagged]
    return SynthBenchmark(
        tagset=ts,
        class_members=members,
        generator=generator,
        train_tagged=tagged,
        train_untagged=[[c for _t, c in sent] for sent in train],
        heldout=heldout,
        forms=forms,
        tagged_text=tagged_text,
    )

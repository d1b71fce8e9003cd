"""Independent brute-force oracles for the dynamic-programming algorithms,
and the plain lexicon loader, unknown-word guesser, line-by-line corpus
readers and sentence-at-a-time tagger that the fast ones must agree with.

Everything here enumerates paths explicitly and never calls the code under
test; ``plain_tag`` decodes with the per-sentence decoder it is given.
Floating-point additions are accumulated left to right, position by
position, matching the association order of the implementations, so exact
tie comparisons are meaningful.
"""

import itertools
import math

import numpy as np

from hmmtagger.errors import ConfigError, DataError, FormatError
from hmmtagger.tagset import config_lines, decoded_lines


def log_or_neginf(x: float) -> float:
    return math.log(x) if x > 0 else -math.inf


def log_tables(model):
    """The initial, transition and emission tables as natural logs, -inf
    for zeros, taken by ``np.log`` as the decoder takes them, so that paths
    tied bit for bit there are tied here too."""
    logs = []
    for table in (model.initial, model.transition, model.emission):
        out = np.full(table.shape, -np.inf)
        np.log(table, out=out, where=table > 0)
        logs.append(out)
    return tuple(logs)


def path_log_score(tables, path, seq) -> float:
    """Log joint probability of a tag path under the ``log_tables`` of a
    model, accumulated left to right."""
    log_init, log_trans, log_emis = tables
    score = log_init[path[0]] + log_emis[path[0], seq[0]]
    for t in range(1, len(seq)):
        score = (score + log_trans[path[t - 1], path[t]]) + log_emis[path[t], seq[t]]
    return float(score)


def assert_stochastic(model, tol=1e-9):
    """Assert that ``initial`` and every row of ``transition`` and
    ``emission`` are distributions summing to 1 within ``tol``, that every
    masked transition is exactly 0, and that no tag emits a class it is not
    a member of, reading only the model's tables and class members."""
    for table in (model.initial[None], model.transition, model.emission):
        assert np.all(table >= 0)
        np.testing.assert_allclose(table.sum(axis=1), 1.0, rtol=0, atol=tol)
    assert np.all(model.transition[model.transition_zero_mask] == 0.0)
    for c, members in enumerate(model.class_members):
        assert np.all(np.delete(model.emission[:, c], members) == 0.0), f"class {c}"


def brute_viterbi(model, seq):
    """Exhaustive argmax over all member-consistent paths.

    Returns (path, log_score) or None when every path has zero probability.
    Among bit-equal maxima the winner is the path that is smallest when
    compared from its last element backwards, which is what lowest-tag-id
    tie-breaking at each backtrack decision produces.
    """
    candidates = [model.class_members[c] for c in seq]
    tables = log_tables(model)
    best_path = None
    best_score = -math.inf
    best_rev = None
    for path in itertools.product(*candidates):
        score = path_log_score(tables, path, seq)
        if score == -math.inf:
            continue
        rev = path[::-1]
        if score > best_score or (score == best_score and rev < best_rev):
            best_path, best_score, best_rev = path, score, rev
    if best_path is None:
        return None
    return list(best_path), best_score


def brute_posterior_stats(model, seq):
    """Posterior expected counts by full path enumeration.

    Returns (initial_counts, transition_counts, emission_counts,
    log_likelihood) or None for an impossible sentence.
    """
    n, m = model.n_tags, model.n_classes
    T = len(seq)
    init = np.zeros(n)
    trans = np.zeros((n, n))
    emis = np.zeros((n, m))
    total = 0.0
    for path in itertools.product(range(n), repeat=T):
        p = model.initial[path[0]] * model.emission[path[0], seq[0]]
        for t in range(1, T):
            p *= model.transition[path[t - 1], path[t]] * model.emission[path[t], seq[t]]
        if p == 0.0:
            continue
        total += p
        init[path[0]] += p
        for t in range(1, T):
            trans[path[t - 1], path[t]] += p
        for t in range(T):
            emis[path[t], seq[t]] += p
    if total == 0.0:
        return None
    return init / total, trans / total, emis / total, math.log(total)


def brute_em_step(model, corpus):
    """One expectation-maximization update computed from enumerated posteriors.

    No smoothing; rows with zero expected mass keep the previous model's
    row.  Returns (initial, transition, emission).
    """
    n, m = model.n_tags, model.n_classes
    init = np.zeros(n)
    trans = np.zeros((n, n))
    emis = np.zeros((n, m))
    for seq in corpus:
        stats = brute_posterior_stats(model, seq)
        assert stats is not None, "oracle EM step hit an impossible sentence"
        init += stats[0]
        trans += stats[1]
        emis += stats[2]

    new_init = init / init.sum()
    new_trans = np.empty_like(trans)
    for i in range(n):
        row = trans[i].copy()
        row[model.transition_zero_mask[i]] = 0.0
        s = row.sum()
        new_trans[i] = row / s if s > 0 else model.transition[i]
    allowed = model.allowed_emission_mask()
    new_emis = np.empty_like(emis)
    for i in range(n):
        row = np.where(allowed[i], emis[i], 0.0)
        s = row.sum()
        new_emis[i] = row / s if s > 0 else model.emission[i]
    return new_init, new_trans, new_emis


def random_instance(rng, max_tags=5, max_len=8, max_class_size=3,
                    quantized=False, allow_zeros=False):
    """A random small model plus one sentence, for oracle comparisons.

    ``quantized`` rounds probabilities to multiples of 1/8 (then
    renormalizes), which manufactures exact ties so the tie-break rule is
    actually exercised.  ``allow_zeros`` zeroes some transition cells so
    dead paths occur.
    """
    from hmmtagger.model import HmmModel
    from hmmtagger.tagset import Tag, TagSet

    n = int(rng.integers(1, max_tags + 1))
    ts = TagSet([Tag(i, f"T{i:02d}") for i in range(n)])

    classes = [(t,) for t in range(n)]
    seen = set(classes)
    for _ in range(int(rng.integers(1, 2 * n + 2))):
        size = int(rng.integers(2, min(max_class_size, n) + 1)) if n > 1 else 1
        members = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
        if members not in seen:
            seen.add(members)
            classes.append(members)

    def rand_dist(k):
        if quantized:
            w = rng.integers(0, 8, size=k).astype(float)
            if w.sum() == 0:
                w[int(rng.integers(k))] = 1.0
        else:
            w = rng.random(k) + 1e-3
        return w / w.sum()

    initial = rand_dist(n)
    transition = np.vstack([rand_dist(n) for _ in range(n)])
    if allow_zeros and n > 1:
        for i in range(n):
            if rng.random() < 0.3:
                j = int(rng.integers(n))
                transition[i, j] = 0.0
                s = transition[i].sum()
                if s > 0:
                    transition[i] /= s
                else:
                    transition[i] = rand_dist(n)
    emission = np.zeros((n, len(classes)))
    for t in range(n):
        containing = [c for c, mem in enumerate(classes) if t in mem]
        emission[t, containing] = rand_dist(len(containing))
    model = HmmModel(ts.labels, classes, initial, transition, emission)

    length = int(rng.integers(1, max_len + 1))
    seq = [int(rng.integers(len(classes))) for _ in range(length)]
    return model, seq


def plain_load_lexicon(source, ts, store):
    """``lexicon.load_lexicon`` line by line: each line's tags parsed and
    checked on their own, one set per word that later lines of the word
    join, and each word's set interned into ``store`` in the order of the
    words' first lines.  Raises the same ConfigError for the same line."""
    members_by_word = {}
    for lineno, line in config_lines(source):
        word, sep, rest = line.partition("\t")
        if not sep or not word:
            raise ConfigError(f"line {lineno}: expected wordform<TAB>TAG...")
        labels = rest.split()
        if not labels:
            raise ConfigError(f"line {lineno}: no tags given for {word!r}")
        for label in labels:
            tag = ts.tag_id(label)
            if tag is None:
                raise ConfigError(f"line {lineno}: unknown tag label {label!r}")
            members_by_word.setdefault(word, set()).add(tag)
    return {word: store.intern(members) for word, members in members_by_word.items()}


def _plain_numeric(word):
    """An optional sign, an ASCII digit, then ASCII digits and ``.,:/-``."""
    body = word[1:] if word[0] in "+-" else word
    return body != "" and body[0] in "0123456789" and set(body) <= set("0123456789.,:/-")


def plain_guess_class(source, ts, word):
    """The member tuple of the class that ``lexicon.guess_class`` gives the
    non-empty ``word`` under the valid rules file ``source``, found the way
    the ``lexicon`` module docstring states the rule.  Every rule that
    matches the word is collected; the answer is the first matching pattern
    in the order numeric, abbreviation, symbol; failing that, the longest
    matching suffix whose case condition holds on the word's first letter,
    the earliest in the file among equal lengths; failing that, the default
    for an uppercase or any other first letter."""
    first = word[0]
    holds = {"U": first.isupper(), "L": first.islower(), "A": True}
    matches = {
        "numeric": _plain_numeric(word),
        "abbrev": word.endswith(".") and any(ch.isalpha() for ch in word),
        "symbol": not any(ch.isalnum() for ch in word),
    }
    patterns, suffixes, defaults = {}, [], {}
    for _lineno, line in config_lines(source):
        kind, *fields = line.split()
        if kind == "SUFFIX":
            suffix, case, *labels = fields
            if word.endswith(suffix) and holds[case]:
                suffixes.append((suffix, labels))
        else:
            key, *labels = fields
            if kind == "DEFAULT":
                defaults[key] = labels
            elif matches[key]:
                patterns[key] = labels
    if patterns:
        labels = patterns[next(kind for kind in matches if kind in patterns)]
    elif suffixes:
        longest = max(len(suffix) for suffix, _ in suffixes)
        labels = next(labels for suffix, labels in suffixes if len(suffix) == longest)
    else:
        labels = defaults["U" if first.isupper() else "L"]
    return tuple(sorted({ts.tag_id(label) for label in labels}))


def plain_read_pretokenized(source):
    """``corpusio.read_pretokenized`` one line at a time: sentences of
    words, blank lines ending them; a token holding a TAB is an error that
    names its line."""
    sentence = []
    for lineno, line in decoded_lines(source):
        if line:
            if "\t" in line:
                raise FormatError(f"line {lineno}: token {line!r} holds a TAB")
            sentence.append(line)
        elif sentence:
            yield sentence
            sentence = []
    if sentence:
        yield sentence


def plain_read_tagged(source, ts):
    """``corpusio.read_tagged`` one line at a time: each line split at its
    first two TABs and checked on its own, in order, and against the column
    count of its sentence's first line."""
    sentence = []
    for lineno, line in decoded_lines(source):
        if line == "":
            if sentence:
                yield sentence
                sentence = []
            continue
        surface, sep, label = line.partition("\t")
        if not sep:
            raise FormatError(f"line {lineno}: expected token<TAB>TAG, got {line!r}")
        if not surface:
            raise FormatError(f"line {lineno}: empty token")
        label, sep, signature = label.partition("\t")
        tag = ts.tag_id(label)
        if tag is None:
            raise DataError(f"line {lineno}: unknown tag {label!r}")
        if sep:
            members = [ts.tag_id(m) for m in signature.split("+")]
            if None in members or tag not in members:
                raise FormatError(f"line {lineno}: third column {signature!r} is not a class "
                                  f"signature containing {label!r}")
        if not sentence:
            columns = sep  # the sentence's first line sets its column count
        elif sep != columns:
            raise FormatError(f"line {lineno}: sentence mixes two- and three-column lines")
        sentence.append((surface, tag, signature) if sep else (surface, tag))
    if sentence:
        yield sentence


def plain_tag(viterbi, model, ts, sentences, classes_of, signatures=None,
              skip_impossible=False):
    """What ``hmmtagger tag`` gives for ``sentences`` of words, each
    classified by ``classes_of``, decoded alone by ``viterbi`` and written
    a line per token, as the tagger did one sentence at a time.

    Returns ``(text, stderr lines, exit code)``; ``text`` is None where the
    run fails.  With ``signatures`` (by class id) each line gains its
    token's class signature.  A sentence that fails is skipped, with a
    warning, under ``skip_impossible``, and otherwise fails the run.
    """
    lines, warnings = [], []
    for i, words in enumerate(sentences):
        classes = classes_of(words)
        try:
            tags = viterbi(model, classes).tags
        except DataError as exc:
            if not skip_impossible:
                return None, [f"error: sentence {i}: {exc}"], 2
            warnings.append(f"warning: sentence {i} skipped: {exc}")
            continue
        for word, tag, c in zip(words, tags, classes):
            column = "" if signatures is None else f"\t{signatures[c]}"
            lines.append(f"{word}\t{ts.label(tag)}{column}\n")
        lines.append("\n")
    if warnings:
        warnings.append(f"warning: {len(warnings)} sentence(s) skipped")
    return "".join(lines), warnings, 0


def plain_counted_init(tagged, ts, classes, smoothing_floor=1e-6):
    """``counted_init`` as it counted one token at a time: each pair is
    checked, and then counted, in corpus order, so the first bad token
    raises.  The uniform start and the re-estimation are the package's."""
    from hmmtagger.model import uniform_model
    from hmmtagger.training import SufficientStats, _check_floor, _reestimate

    _check_floor(smoothing_floor)
    start = uniform_model(ts, classes)
    n, m = start.n_tags, start.n_classes
    allowed_emis = start.allowed_emission_mask()
    counts = SufficientStats.zeros(n, m)
    n_sentences = 0
    for s_index, sentence in enumerate(tagged):
        prev = None
        for t_index, (tag, class_id) in enumerate(sentence):
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

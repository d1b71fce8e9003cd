"""Output checks computed apart from the program.

Nothing here imports hmmtagger: the model file is parsed by its documented
layout, Viterbi and the forward pass are written out again in log and scaled
space, and the counted model is counted from the benchmark's own gold file.
Each check raises ``CheckError`` with the first disagreement it finds.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

ROW_TOL = 1e-9
SCORE_TOL = 1e-9
SMOOTHING = 1e-6  # the command line's default smoothing floor
_MAGIC = b"#class-hmm-tagger model v1\n"


class CheckError(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckError(message)


class Model:
    """A saved model read from its byte layout: magic line, big-endian
    header length, JSON header, float64 tables, zero mask, SHA-256."""

    def __init__(self, path: Path):
        blob = Path(path).read_bytes()
        _require(blob.startswith(_MAGIC), "model file lacks the format line")
        payload, digest = blob[:-32], blob[-32:]
        _require(hashlib.sha256(payload).digest() == digest, "model checksum mismatch")
        off = len(_MAGIC)
        (hlen,) = struct.unpack(">I", payload[off:off + 4])
        header = json.loads(payload[off + 4:off + 4 + hlen])
        off += 4 + hlen
        self.labels = header["tags"]
        self.classes = [tuple(c) for c in header["classes"]]
        n, m = len(self.labels), len(self.classes)
        tables = []
        for shape in ((n,), (n, n), (n, m)):
            size = int(np.prod(shape)) * 8
            tables.append(np.frombuffer(payload[off:off + size], dtype="<f8").reshape(shape))
            off += size
        self.initial, self.transition, self.emission = tables
        self.mask = np.frombuffer(payload[off:off + n * n], dtype=np.uint8).reshape(n, n) != 0
        _require(off + n * n == len(payload), "model file has trailing bytes")
        self.class_id = {c: i for i, c in enumerate(self.classes)}

    def log_tables(self):
        with np.errstate(divide="ignore"):
            return np.log(self.initial), np.log(self.transition), np.log(self.emission)


def read_tagged_output(path: Path):
    """Sentences of output lines split on tabs."""
    sentences, sent = [], []
    for line in Path(path).read_text("utf-8").split("\n"):
        if line:
            sent.append(line.split("\t"))
        elif sent:
            sentences.append(sent)
            sent = []
    if sent:
        sentences.append(sent)
    return sentences


def check_tokens(output, expected) -> None:
    """``tag`` returned exactly the input tokens, sentence by sentence."""
    _require(len(output) == len(expected),
             f"tag returned {len(output)} sentences, expected {len(expected)}")
    for i, (got, want) in enumerate(zip(output, expected)):
        surfaces = [f[0] for f in got]
        want_surfaces = [t.surface for t in want]
        if surfaces != want_surfaces:
            j = next((j for j, (a, b) in enumerate(zip(surfaces, want_surfaces)) if a != b),
                     min(len(surfaces), len(want_surfaces)))
            raise CheckError(f"sentence {i} token {j}: tag returned "
                             f"{surfaces[j:j + 1]} where the input has {want_surfaces[j:j + 1]}")


def check_classes(output, expected, wl) -> None:
    """Every output tag is in the token's generated class; a printed class
    signature is that class."""
    tag_id = {lab: i for i, lab in enumerate(wl.labels)}
    for i, (got, want) in enumerate(zip(output, expected)):
        for j, (fields, tok) in enumerate(zip(got, want)):
            _require(tag_id.get(fields[1]) in tok.cls,
                     f"sentence {i} token {j} {tok.surface!r}: tag {fields[1]} is not in "
                     f"its class {wl.signature(tok.cls)}")
            if wl.with_class:
                _require(len(fields) == 3 and fields[2] == wl.signature(tok.cls),
                         f"sentence {i} token {j}: printed class {fields[2:]} is not "
                         f"{wl.signature(tok.cls)}")


def check_model(model: Model, wl) -> None:
    """Stochastic rows, exact zeros on prohibited transitions and on tags
    outside a class, and the class inventory the inputs define."""
    _require(model.labels == wl.labels, "model tag labels differ from the tag set")
    _require(set(model.classes) == set(wl.classes),
             "model class inventory differs from the lexicon's and rules' classes")
    for name, table in (("initial", model.initial[None, :]), ("transition", model.transition),
                        ("emission", model.emission)):
        _require(np.all(np.isfinite(table)) and np.all(table >= 0), f"{name} has bad cells")
        worst = float(np.max(np.abs(table.sum(axis=1) - 1.0)))
        _require(worst <= ROW_TOL, f"{name} rows are off stochastic by {worst:.3g}")
    for s, d in wl.prohibited:
        _require(model.transition[s, d] == 0.0 and model.mask[s, d],
                 f"prohibited transition {wl.labels[s]} {wl.labels[d]} is not an exact zero")
    allowed = np.zeros(model.emission.shape, dtype=bool)
    for c, members in enumerate(model.classes):
        allowed[list(members), c] = True
    _require(np.all(model.emission[~allowed] == 0.0), "a tag emits a class it is not in")


def best_log_score(log_tables, seq) -> float:
    """Log probability of the best tag path: max-plus Viterbi."""
    li, lt, le = log_tables
    score = li + le[:, seq[0]]
    for c in seq[1:]:
        score = np.max(score[:, None] + lt, axis=0) + le[:, c]
    return float(np.max(score))


def path_log_score(log_tables, seq, path) -> float:
    li, lt, le = log_tables
    score = li[path[0]] + le[path[0], seq[0]]
    for t in range(1, len(seq)):
        score = score + lt[path[t - 1], path[t]] + le[path[t], seq[t]]
    return float(score)


def check_path_scores(model: Model, output, expected, wl, sample) -> None:
    """On the sampled sentences the program's path scores no lower than the
    best path found here."""
    tables = model.log_tables()
    tag_id = {lab: i for i, lab in enumerate(wl.labels)}
    for i in sample:
        seq = [model.class_id[tok.cls] for tok in expected[i]]
        path = [tag_id[f[1]] for f in output[i]]
        best = best_log_score(tables, seq)
        got = path_log_score(tables, seq, path)
        _require(np.isfinite(best), f"sentence {i} has no possible path")
        _require(got >= best - SCORE_TOL * max(1.0, abs(best)),
                 f"sentence {i}: program path scores {got!r}, best path {best!r}")


def counted_log_likelihood(wl) -> float:
    """Log-likelihood of the untagged corpus under the model counted here
    from the benchmark's own gold file: relative frequencies plus the
    smoothing floor on every allowed cell."""
    n, m = len(wl.labels), len(wl.classes)
    class_id = {c: i for i, c in enumerate(wl.classes)}
    tag_id = {lab: i for i, lab in enumerate(wl.labels)}
    init, trans, emis = np.zeros(n), np.zeros((n, n)), np.zeros((n, m))
    prev = None
    for line in Path(wl.files["tagged"]).read_text("utf-8").split("\n"):
        if not line:
            prev = None
            continue
        surface, label = line.split("\t")
        tag = tag_id[label]
        if prev is None:
            init[tag] += 1
        else:
            trans[prev, tag] += 1
        emis[tag, class_id[wl.lexicon_map[surface]]] += 1
        prev = tag
    allowed = np.zeros((n, m), dtype=bool)
    for c, members in enumerate(wl.classes):
        allowed[list(members), c] = True
    init = (init + SMOOTHING) / (init + SMOOTHING).sum()
    trans = (trans + SMOOTHING) / (trans + SMOOTHING).sum(axis=1, keepdims=True)
    emis = np.where(allowed, emis + SMOOTHING, 0.0)
    emis /= emis.sum(axis=1, keepdims=True)

    total = 0.0
    sentence: list = []
    lines = Path(wl.files["corpus"]).read_text("utf-8").split("\n")
    for line in lines + [""]:
        if line:
            sentence.append(class_id[wl.lexicon_map[line]])
            continue
        if not sentence:
            continue
        a = init * emis[:, sentence[0]]
        s = a.sum()
        total += np.log(s)
        a /= s
        for c in sentence[1:]:
            a = (a @ trans) * emis[:, c]
            s = a.sum()
            total += np.log(s)
            a /= s
        sentence = []
    return float(total)


def check_first_log_likelihood(log_path: Path, expected: float) -> None:
    rows = [line.split("\t") for line in Path(log_path).read_text("utf-8").splitlines()
            if line and not line.startswith("#")]
    _require(rows, "training log holds no iterations")
    got = float(rows[0][1])
    # the log prints six decimals
    _require(abs(got - expected) <= 1e-6 + 1e-9 * abs(expected),
             f"first logged log-likelihood {got!r}, forward pass here gives {expected!r}")


def check_eval(report_path: Path, pred, wl) -> None:
    """Error and ambiguity rates equal those counted from the pred and gold
    files and the generated classes."""
    report = json.loads(Path(report_path).read_text("utf-8"))
    gold = read_tagged_output(wl.files["gold"])
    n_tokens = sum(len(s) for s in gold)
    wrong = sum(p[1] != g[1] for ps, gs in zip(pred, gold) for p, g in zip(ps, gs))
    slots = sum(len(tok.cls) for sent in wl.heldout for tok in sent)
    _require(report["n_tokens"] == n_tokens, f"eval counted {report['n_tokens']} tokens, not {n_tokens}")
    for key, value in (("error_rate", wrong / n_tokens), ("ambiguity_rate", slots / n_tokens)):
        _require(abs(report[key] - value) <= 1e-12 * max(1.0, value),
                 f"eval reports {key} {report[key]!r}, counted {value!r}")

"""Command-line front end wiring the toolkit into four workflows.

Subcommands:

* ``train`` -- produce a model under one of the three regimes;
* ``tag``   -- annotate text with the most probable tags;
* ``eval``  -- score a prediction against gold and print the profile report;
* ``synth`` -- write a seeded synthetic benchmark (generator model, tagged
               and untagged corpora, matching tag set and lexicon).

Every subcommand echoes a run manifest for reproducibility.  Exit codes:
0 success, 1 usage problem, 2 data problem.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, field
from itertools import zip_longest

import numpy as np

from . import synth as synthmod
from .corpusio import (class_signatures, read_pretokenized, read_tagged, tokenize_raw,
                       write_pretokenized, write_tagged)
from .decoder import decode
from .errors import AlignmentError, DataError, TaggerError
from .evaluation import load_major_classes, profile_report
from .lexicon import ClassStore, classify, load_guesser_rules, load_lexicon
from .model import chunks, load_biases, load_model, save_model
from .tagset import load_tagset
from .training import REGIMES, TrainingConfig, regime_iterations, train_regime

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class UsageError(TaggerError):
    """Bad flags or unreadable inputs; maps to exit code 1."""


@dataclass
class RunManifest:
    """Everything needed to rerun a subcommand byte-for-byte."""

    subcommand: str
    inputs: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    options: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map usage to 1
        raise UsageError(message)


def _resolve_inputs(**paths) -> dict:
    """Resolve and existence-check input paths before any work starts."""
    resolved = {}
    for name, path in paths.items():
        if path is None:
            continue
        full = os.path.abspath(path)
        if not os.path.isfile(full):
            raise UsageError(f"--{name.replace('_', '-')}: no such file: {path}")
        resolved[name] = full
    return resolved


def _load_resources(inputs):
    ts = load_tagset(inputs["tagset"])
    store = ClassStore()
    lex = load_lexicon(inputs["lexicon"], ts, store)
    rules = load_guesser_rules(inputs["rules"], ts, store)
    return ts, store, lex, rules


def _classes(lex, rules, words) -> np.ndarray:
    """The class ids of a sentence's words."""
    return np.array([classify(lex, rules, w) for w in words], dtype=np.intp)


def cmd_train(args) -> int:
    if args.iters is not None and args.iters < 0:
        raise UsageError("--iters must be >= 0")
    if not 0 <= args.smoothing < np.inf:  # NaN fails too
        raise UsageError("--smoothing must be finite and >= 0")
    inputs = _resolve_inputs(tagset=args.tagset, lexicon=args.lexicon, rules=args.rules,
                             biases=args.biases, tagged=args.tagged, corpus=args.corpus)
    try:
        iters = regime_iterations(args.regime, inputs, args.iters, as_flags=True)
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    log_path = args.log or args.out + ".log"
    manifest = RunManifest(
        "train",
        inputs=inputs,
        outputs={"model": os.path.abspath(args.out), "log": os.path.abspath(log_path)},
        options={"regime": args.regime, "iters": iters, "smoothing": args.smoothing,
                 "skip_impossible": args.skip_impossible},
    )
    print(f"manifest {manifest.to_json()}")

    ts, store, lex, rules = _load_resources(inputs)
    tagged = corpus = None
    if "tagged" in inputs:
        # one (tag, class) iterator per sentence: counted_init reads each once
        tagged = []
        for sentence in read_tagged(inputs["tagged"], ts):
            words, tags, *_signature = zip(*sentence)
            tagged.append(zip(tags, _classes(lex, rules, words)))
    if "corpus" in inputs:
        corpus = [_classes(lex, rules, s) for s in read_pretokenized(inputs["corpus"])]

    biases = load_biases(inputs["biases"], ts) if "biases" in inputs else None
    model, trajectory, skipped = train_regime(
        args.regime, ts, store, corpus=corpus, tagged=tagged, biases=biases,
        config=TrainingConfig(iterations=iters, smoothing_floor=args.smoothing),
        skip_impossible=args.skip_impossible,
    )
    if skipped:
        print(f"warning: skipped {skipped} impossible sentence(s)", file=sys.stderr)

    save_model(model, args.out)
    with open(log_path, "w", encoding="utf-8") as log:
        log.write(f"# manifest {manifest.to_json()}\n")
        log.write("# iteration\tlog_likelihood\n")
        for i, ll in enumerate(trajectory):
            log.write(f"{i}\t{ll:.6f}\n")
    for i, ll in enumerate(trajectory):
        print(f"iteration {i}: log-likelihood {ll:.4f}")
    print(f"model written to {args.out}")
    return EXIT_OK


def cmd_tag(args) -> int:
    inputs = _resolve_inputs(model=args.model, tagset=args.tagset,
                             lexicon=args.lexicon, rules=args.rules, input=args.input)
    manifest = RunManifest(
        "tag",
        inputs=inputs,
        outputs={"tagged": os.path.abspath(args.output)},
        options={"pretokenized": args.pretokenized, "with_class": args.with_class,
                 "skip_impossible": args.skip_impossible},
    )
    print(f"manifest {manifest.to_json()}")

    ts = load_tagset(inputs["tagset"])
    model = load_model(inputs["model"], ts)
    store = ClassStore.from_members(model.class_members)
    lex = load_lexicon(inputs["lexicon"], ts, store)
    rules = load_guesser_rules(inputs["rules"], ts, store)

    reader = read_pretokenized if args.pretokenized else tokenize_raw
    signatures = class_signatures(ts, store) if args.with_class else None
    skipped = []

    def tagged():  # decoded sentences, as write_tagged rows, in input order
        for first, chunk in chunks(reader(inputs["input"]), model.max_class_size):
            classes = [_classes(lex, rules, words) for words in chunk]
            for i, result in enumerate(decode(model, classes)):
                if isinstance(result, DataError):
                    if not args.skip_impossible:
                        raise result.at_sentence(first + i)
                    skipped.append(first + i)
                    print(f"warning: sentence {first + i} skipped: {result}", file=sys.stderr)
                elif signatures is None:
                    yield list(zip(chunk[i], result.tags))
                else:
                    yield list(zip(chunk[i], result.tags,
                                   [signatures[c] for c in classes[i].tolist()]))

    write_tagged(args.output, tagged(), ts)
    if skipped:
        print(f"warning: {len(skipped)} sentence(s) skipped", file=sys.stderr)
    return EXIT_OK


def cmd_eval(args) -> int:
    if args.top_k < 1:
        raise UsageError("--top-k must be >= 1")
    inputs = _resolve_inputs(pred=args.pred, gold=args.gold, tagset=args.tagset,
                             lexicon=args.lexicon, rules=args.rules,
                             major_classes=args.major_classes)
    manifest = RunManifest(
        "eval",
        inputs=inputs,
        outputs={"json": os.path.abspath(args.json)} if args.json else {},
        options={"top_k": args.top_k},
    )
    print(f"manifest {manifest.to_json()}")

    ts, store, lex, rules = _load_resources(inputs)
    major = load_major_classes(inputs["major_classes"], ts)
    pred, gold, classes = [], [], []
    pred_sents, gold_sents = read_tagged(inputs["pred"], ts), read_tagged(inputs["gold"], ts)
    for i, (p, g) in enumerate(zip_longest(pred_sents, gold_sents)):
        if p is None or g is None:  # one file ran out; count the rest of the other
            n_pred = i + (p is not None) + sum(1 for _ in pred_sents)
            n_gold = i + (g is not None) + sum(1 for _ in gold_sents)
            raise AlignmentError(f"prediction has {n_pred} sentences, gold has {n_gold}")
        if len(p) != len(g):
            raise AlignmentError(
                f"sentence {i}: prediction has {len(p)} tokens, gold has {len(g)}",
                sentence_index=i,
            )
        (p_words, p_tags, *_), (g_words, g_tags, *_) = zip(*p), zip(*g)
        for j, (pw, gw) in enumerate(zip(p_words, g_words)):
            if pw != gw:
                raise AlignmentError(f"sentence {i} token {j}: surface {pw!r} != {gw!r}",
                                     sentence_index=i)
        pred.append(p_tags)
        gold.append(g_tags)
        classes.append(_classes(lex, rules, g_words))
    report = profile_report(pred, gold, classes, store, ts, major, top_k=args.top_k)
    sys.stdout.write(report.render_text())
    if args.json:
        doc = report.to_dict()
        doc["manifest"] = json.loads(manifest.to_json())
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2, ensure_ascii=False)
            f.write("\n")
    return EXIT_OK


def cmd_synth(args) -> int:
    if args.tags < 1:
        raise UsageError("--tags must be >= 1")
    if args.tokens < 1:
        raise UsageError("--tokens must be >= 1")
    prefix = args.out_prefix
    outputs = {name: os.path.abspath(f"{prefix}.{ext}") for name, ext in
               (("tagset", "tags"), ("lexicon", "lex"), ("rules", "rules"),
                ("model", "model"), ("gold", "gold"), ("untagged", "txt"))}
    manifest = RunManifest(
        "synth",
        outputs=outputs,
        options={"tags": args.tags, "classes": args.classes, "tokens": args.tokens,
                 "seed": args.seed, "ambiguity": args.ambiguity,
                 "max_class_size": args.max_class_size},
    )
    print(f"manifest {manifest.to_json()}")

    try:
        bench = synthmod.make_benchmark(
            args.seed, args.tags, args.classes, train_tokens=0, tagged_tokens=args.tokens,
            heldout_tokens=0, ambiguity=args.ambiguity, max_class_size=args.max_class_size)
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    ts = bench.tagset
    with open(outputs["tagset"], "w", encoding="utf-8", newline="\n") as f:
        f.writelines(f"{t.label}\t{t.description}\n" for t in ts)
        f.write("!sentence_delim T00\n")
    with open(outputs["lexicon"], "w", encoding="utf-8", newline="\n") as f:
        for members, forms in zip(bench.class_members, bench.forms):
            labels = " ".join(map(ts.label, members))
            f.writelines(f"{word}\t{labels}\n" for word in forms)
    with open(outputs["rules"], "w", encoding="utf-8", newline="\n") as f:
        f.write("DEFAULT U T00\nDEFAULT L T00\n")
    save_model(bench.generator, outputs["model"])
    write_tagged(outputs["gold"], bench.tagged_text, ts)
    write_pretokenized(outputs["untagged"], ([word for word, _ in s] for s in bench.tagged_text))
    print(f"benchmark written with prefix {prefix}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="hmmtagger",
                     description="Class-based HMM part-of-speech tagging toolkit")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("train", help="train a model under one of three regimes")
    p.add_argument("--regime", required=True, choices=REGIMES)
    p.add_argument("--tagset", required=True)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--rules", required=True)
    p.add_argument("--biases")
    p.add_argument("--tagged")
    p.add_argument("--corpus")
    p.add_argument("--iters", type=int, default=None)
    p.add_argument("--smoothing", type=float, default=1e-6)
    p.add_argument("--skip-impossible", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--log")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("tag", help="tag text with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--tagset", required=True)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--rules", required=True)
    p.add_argument("--pretokenized", action="store_true",
                   help="input is one token per line, blank line between sentences")
    p.add_argument("--with-class", action="store_true",
                   help="append each token's equivalence-class signature column")
    p.add_argument("--skip-impossible", action="store_true")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=cmd_tag)

    p = sub.add_parser("eval", help="score predictions against gold and print the profile")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--tagset", required=True)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--rules", required=True)
    p.add_argument("--major-classes", required=True)
    p.add_argument("--top-k", type=int, default=20)
    p.add_argument("--json", help="also write the structured report here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="write a seeded synthetic benchmark")
    p.add_argument("--tags", type=int, required=True)
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--tokens", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--ambiguity", type=float, default=1.5)
    p.add_argument("--max-class-size", type=int, default=4)
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TaggerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end wiring the toolkit into four workflows.

Subcommands:

* ``train`` -- produce a model under one of the three regimes;
* ``tag``   -- annotate text with the most probable tags;
* ``eval``  -- score a prediction against gold and print the profile report;
* ``synth`` -- write a seeded synthetic benchmark (generator model, tagged
               and untagged corpora, matching tag set and lexicon).

Every subcommand starts with ``_start``, which checks the run's input and
output files before any work and echoes the run manifest for
reproducibility.  Exit codes: 0 success, 1 usage problem, 2 data problem.
"""

from __future__ import annotations

import argparse
import json
import os
import secrets
import stat
import sys

import numpy as np

from . import synth as synthmod
from .corpusio import (class_signatures, read_pretokenized, read_tagged, read_tagged_blocks,
                       tokenize_raw, write_pretokenized, write_tagged)
from .decoder import decode
from .errors import DataError, TaggerError
from .evaluation import aligned_blocks, load_major_classes, profile_columns
from .lexicon import ClassStore, classify, load_guesser_rules, load_lexicon
from .model import chunks, load_biases, load_model, save_model
from .tagset import load_tagset
from .training import REGIMES, TrainingConfig, regime_iterations, train_regime

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class UsageError(TaggerError):
    """Bad flags or unreadable inputs; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map usage to 1
        raise UsageError(message)


def _start(subcommand: str, inputs: dict, outputs: dict, options: dict) -> dict:
    """Check a run's files before any work starts; print and return its manifest.

    ``inputs`` maps names to paths, None where not given; each given path
    must be a file.  ``outputs`` maps names to ``(flag, path)``; each path's
    directory must exist, and the path must be no directory and no file of
    the run named before it (hard links included).  A failed check is a
    UsageError naming the flag.  The manifest holds the absolute paths and
    ``options``, in sorted key order.
    """
    manifest = {"subcommand": subcommand, "inputs": {}, "outputs": {}, "options": options}
    files = []  # (flag, path) of each file checked so far
    for name, path in inputs.items():
        if path is not None:
            flag = f"--{name.replace('_', '-')}"
            if not os.path.isfile(path):
                raise UsageError(f"{flag}: no such file: {path}")
            files.append((flag, path))
            manifest["inputs"][name] = os.path.abspath(path)
    for name, (flag, path) in outputs.items():
        directory = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(directory):
            raise UsageError(f"{flag}: no such directory: {directory}")
        if os.path.isdir(path):
            raise UsageError(f"{flag}: is a directory: {path}")
        for other_flag, other in files:
            if _same_file(path, other):
                raise UsageError(f"{flag}: {path} is the same file as {other_flag}")
        files.append((flag, path))
        manifest["outputs"][name] = os.path.abspath(path)
    text = json.dumps(manifest, sort_keys=True)
    print(f"manifest {text}")
    return json.loads(text)  # in the printed key order


def _same_file(a: str, b: str) -> bool:
    try:
        return os.path.samefile(a, b)
    except OSError:  # one of them is yet to be written
        return os.path.realpath(a) == os.path.realpath(b)


def _load_resources(inputs, ts, store):
    """Load the run's lexicon and guesser rules into ``store``; return the
    function from a sentence's words to their class ids.

    A form the lexicon lacks goes through ``classify`` once per run and
    joins the run's lexicon with the class guessed for it, so its repeats
    are looked up as lexicon entries are.
    """
    lex = load_lexicon(inputs["lexicon"], ts, store)
    rules = load_guesser_rules(inputs["rules"], ts, store)

    def classes_of(words) -> np.ndarray:
        ids = list(map(lex.get, words))
        if None in ids:
            for i in [i for i, class_id in enumerate(ids) if class_id is None]:
                class_id = lex.get(words[i])  # guessed at an earlier repeat
                if class_id is None:
                    class_id = lex[words[i]] = classify(lex, rules, words[i])
                ids[i] = class_id
        return np.array(ids, dtype=np.intp)

    return classes_of


def cmd_train(args) -> int:
    if args.iters is not None and args.iters < 0:
        raise UsageError("--iters must be >= 0")
    if not 0 <= args.smoothing < np.inf:  # NaN fails too
        raise UsageError("--smoothing must be finite and >= 0")
    paths = {name: getattr(args, name)
             for name in ("tagset", "lexicon", "rules", "biases", "tagged", "corpus")}
    try:
        iters = regime_iterations(args.regime, [n for n, p in paths.items() if p is not None],
                                  args.iters, as_flags=True)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    log_path = args.log or args.out + ".log"
    manifest = _start(
        "train", paths,
        {"model": ("--out", args.out), "log": ("--log" if args.log else "--out", log_path)},
        {"regime": args.regime, "iters": iters, "smoothing": args.smoothing,
         "skip_impossible": args.skip_impossible})
    inputs = manifest["inputs"]

    ts, store = load_tagset(inputs["tagset"]), ClassStore()
    classes_of = _load_resources(inputs, ts, store)
    tagged = corpus = None
    if "tagged" in inputs:
        # one (tag, class) iterator per sentence: counted_init reads each once
        tagged = []
        for sentence in read_tagged(inputs["tagged"], ts):
            words, tags, *_signature = zip(*sentence)
            tagged.append(zip(tags, classes_of(words)))
    if "corpus" in inputs:
        corpus = [classes_of(s) for s in read_pretokenized(inputs["corpus"])]

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
        log.write(f"# manifest {json.dumps(manifest, sort_keys=True)}\n")
        log.write("# iteration\tlog_likelihood\n")
        for i, ll in enumerate(trajectory):
            log.write(f"{i}\t{ll:.6f}\n")
    for i, ll in enumerate(trajectory):
        print(f"iteration {i}: log-likelihood {ll:.4f}")
    print(f"model written to {args.out}")
    return EXIT_OK


def cmd_tag(args) -> int:
    inputs = _start(
        "tag", {name: getattr(args, name)
                for name in ("model", "tagset", "lexicon", "rules", "input")},
        {"tagged": ("output", args.output)},
        {"pretokenized": args.pretokenized, "with_class": args.with_class,
         "skip_impossible": args.skip_impossible})["inputs"]

    ts = load_tagset(inputs["tagset"])
    model = load_model(inputs["model"], ts)
    store = ClassStore.from_members(model.class_members)
    classes_of = _load_resources(inputs, ts, store)

    reader = read_pretokenized if args.pretokenized else tokenize_raw
    signatures = class_signatures(ts, store) if args.with_class else None
    skipped = []

    def tagged():  # decoded sentences, as write_tagged rows, in input order
        for first, chunk in chunks(reader(inputs["input"]), model.max_class_size):
            classes = [classes_of(words) for words in chunk]
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

    _write_whole(args.output, lambda stream: write_tagged(stream, tagged(), ts))
    if skipped:
        print(f"warning: {len(skipped)} sentence(s) skipped", file=sys.stderr)
    return EXIT_OK


def _write_whole(path: str, write) -> None:
    """Call ``write`` on a new text file beside ``path`` that replaces
    ``path`` once ``write`` returns, so a failed run leaves ``path`` as it
    was.  The file gets the permissions ``open(path, "w")`` would give: an
    existing output's, else a new file's.  An existing output that is no
    regular file, such as a FIFO, is written in place."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8", newline="\n") as stream:
            write(stream)
        return
    target = os.path.realpath(path)
    while True:
        temporary = f"{target}.{secrets.token_hex(4)}.tmp"
        try:
            fd = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        if os.path.exists(target):
            os.chmod(temporary, stat.S_IMODE(os.stat(target).st_mode))
        with open(fd, "w", encoding="utf-8", newline="\n") as stream:
            write(stream)
        os.replace(temporary, target)
    except BaseException:
        os.unlink(temporary)
        raise


def cmd_eval(args) -> int:
    if args.top_k < 1:
        raise UsageError("--top-k must be >= 1")
    manifest = _start(
        "eval", {name: getattr(args, name) for name in
                 ("pred", "gold", "tagset", "lexicon", "rules", "major_classes")},
        {"json": ("--json", args.json)} if args.json else {}, {"top_k": args.top_k})
    inputs = manifest["inputs"]

    ts, store = load_tagset(inputs["tagset"]), ClassStore()
    classes_of = _load_resources(inputs, ts, store)
    major = load_major_classes(inputs["major_classes"], ts)
    blocks = aligned_blocks(read_tagged_blocks(inputs["pred"], ts),
                            read_tagged_blocks(inputs["gold"], ts))
    columns = ((pred.tags, gold.tags, classes_of(gold.words)) for pred, gold in blocks)
    report = profile_columns(columns, store, ts, major, top_k=args.top_k)
    sys.stdout.write(report.render_text())
    if args.json:
        doc = report.to_dict()
        doc["manifest"] = manifest
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
    outputs = _start(
        "synth", {},
        {name: ("--out-prefix", f"{prefix}.{ext}") for name, ext in
         (("tagset", "tags"), ("lexicon", "lex"), ("rules", "rules"),
          ("model", "model"), ("gold", "gold"), ("untagged", "txt"))},
        {"tags": args.tags, "classes": args.classes, "tokens": args.tokens, "seed": args.seed,
         "ambiguity": args.ambiguity, "max_class_size": args.max_class_size})["outputs"]

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

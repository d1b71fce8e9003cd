"""End-to-end benchmark of the hmmtagger command line: train, tag and eval.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, then repeats whole rounds
for as long as the next one should end within S seconds (at least one).  A
round runs, each in its own process through ``hmmtagger.cli.main``:
``train``, two one-sentence ``tag`` runs (the set-up probe), ``tag`` on the
held-out text, ``eval``, and on guess-raw-de a ``tag`` of sentences with
classes the model never saw.  It then checks every output against the
generator's truth (see checks.py).  Interpreter start-up and imports are not
timed; peak memory is each command process's own.

With ``--trace 0`` the last line of standard output is the JSON result with
the end-to-end metrics, each the median over the run's rounds or probes.
With ``--trace 1`` rounds alternate between untraced and traced, and the
result holds the per-layer metrics (medians over traced rounds) and the
tracing overhead.  The result is also written to ``.perfbench_out/`` at the
root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

PROBES = 2  # set-up probes per round; setup_s is their median over the run
COMMAND_TIMEOUT_S = 150
SAMPLE_TOKENS = 3000  # tokens of held-out text re-decoded by the score check
# A shared virtual machine can change speed by nearly two times for minutes
# at a time, and CPU time changes with it, so the medians of a run are
# scaled by how fast the machine ran: every command's process times a fixed
# reference loop around the command, and the times are scaled to a machine
# on which that loop takes REFERENCE_S seconds.  The loop is the benchmark's
# own code, so only a change in the program moves the scaled times.
REFERENCE_S = 0.010
_SKIPPED = re.compile(r"warning: sentence (\d+) skipped: (.*)")


class Ops:
    """Operations attempted and failed.  A failure of one of the unseen-class
    sentences is expected today and leaves ``correct`` true."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.expected: list[str] = []

    def record(self, name: str, passed: bool, message: str = "", expected=False) -> bool:
        self.attempted += 1
        if not passed:
            self.failed += 1
            (self.expected if expected else self.unexpected).append(f"{name}: {message}")
        return passed

    def check(self, name: str, func, *args) -> bool:
        # Any exception is a failed check: the round must still attempt the
        # rest of its operations so every round counts the same ones.
        try:
            func(*args)
        except Exception as exc:  # noqa: BLE001
            return self.record(name, False, f"{type(exc).__name__}: {exc}")
        return self.record(name, True)


def run_command(work: Path, label: str, argv, traced: bool) -> dict:
    """One hmmtagger command in its own process; returns its exit code,
    timed seconds, peak resident MB, stderr and (traced) layer report, as
    far as the process got."""
    result = work / f"{label}.result.json"
    result.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"  # the same dict and set layouts in every run
    cmd = [sys.executable, str(HERE / "child.py"), str(result),
           "trace" if traced else "plain", *map(str, argv)]
    with open(work / f"{label}.stdout", "wb") as out, open(work / f"{label}.stderr", "wb") as err:
        try:
            code = subprocess.run(cmd, stdout=out, stderr=err, cwd=ROOT, env=env,
                                  timeout=COMMAND_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
    data = json.loads(result.read_text("utf-8")) if result.exists() else {}
    data["code"] = code
    data["stderr"] = (work / f"{label}.stderr").read_text("utf-8", errors="replace")
    return data


def _failed(r: dict) -> str:
    return "" if r["code"] == 0 and "seconds" in r else \
        f"exit {r['code']}: {r['stderr'].strip()[-300:]}"


class Runner:
    def __init__(self, wl, work: Path, seed: int):
        self.wl = wl
        self.work = work
        self.model = work / "model"
        self.log = work / "model.log"
        self.ops = Ops()
        self.expected_ll = None
        order = np.random.default_rng(seed).permutation(len(wl.heldout)).tolist()
        self.sample, tokens = [], 0
        for i in order:
            if tokens >= SAMPLE_TOKENS:
                break
            self.sample.append(i)
            tokens += len(wl.heldout[i])

    def _resources(self, lexicon="lexicon"):
        f = self.wl.files
        return ["--tagset", f["tagset"], "--lexicon", f[lexicon], "--rules", f["rules"]]

    def _tag_args(self, source, dest, lexicon="lexicon", extra=()):
        wl = self.wl
        args = ["tag", "--model", self.model, *self._resources(lexicon), *extra]
        if not wl.raw:
            args.append("--pretokenized")
        if wl.with_class:
            args.append("--with-class")
        return args + [source, dest]

    def _command(self, label, argv, traced=False) -> dict:
        r = run_command(self.work, label, argv, traced)
        self.ops.record(label, not _failed(r), _failed(r))
        return r

    def round(self, traced: bool) -> dict:
        wl, f, work = self.wl, self.wl.files, self.work
        for stale in (self.model, self.log, work / "pred", work / "report.json"):
            stale.unlink(missing_ok=True)
        train = ["train", "--regime", wl.regime, *self._resources(), "--corpus", f["corpus"],
                 "--iters", wl.iters, "--out", self.model, "--log", self.log]
        if "biases" in f:
            train += ["--biases", f["biases"]]
        if "tagged" in f:
            train += ["--tagged", f["tagged"]]
        res = {"train": self._command("train", train, traced)}

        probes = []
        for k in range(PROBES):
            out = work / f"probe{k}.out"
            out.unlink(missing_ok=True)
            r = self._command(f"probe{k}", self._tag_args(f["probe"], out))
            probes.append(r)
            self.ops.check(f"probe{k}-tokens", lambda o=out: checks.check_tokens(
                checks.read_tagged_output(o), [wl.probe]))
        res["tag"] = self._command("tag", self._tag_args(f["input"], work / "pred"), traced)
        pred_for_eval = work / "pred"
        if wl.with_class:
            # eval reads two-column files only, so the class column goes.
            pred_for_eval = work / "pred.2col"
            self.ops.check("strip-class-column", _strip_third_column, work / "pred", pred_for_eval)
        res["eval"] = self._command("eval", [
            "eval", "--pred", pred_for_eval, "--gold", f["gold"], *self._resources(),
            "--major-classes", f["major"], "--json", work / "report.json"], traced)
        if wl.unseen:
            self._unseen()

        pred = []
        self.ops.check("read-tag-output", lambda: pred.extend(
            checks.read_tagged_output(work / "pred")))
        self.ops.check("tokens", checks.check_tokens, pred, wl.heldout)
        self.ops.check("classes", checks.check_classes, pred, wl.heldout, wl)
        model = []
        self.ops.check("read-model", lambda: model.append(checks.Model(self.model)))
        self.ops.check("model-valid", lambda: checks.check_model(model[0], wl))
        self.ops.check("path-scores", lambda: checks.check_path_scores(
            model[0], pred, wl.heldout, wl, self.sample))
        if wl.regime == "counted":
            if self.expected_ll is None:
                self.expected_ll = checks.counted_log_likelihood(wl)
            self.ops.check("first-log-likelihood", checks.check_first_log_likelihood,
                           self.log, self.expected_ll)
        self.ops.check("eval-rates", checks.check_eval, work / "report.json", pred, wl)
        return {"traced": traced, "probes": probes, **res}

    def _unseen(self) -> None:
        """Each unseen-class sentence is one operation; a sentence that
        ``--skip-impossible`` dropped has failed."""
        out = self.work / "unseen.out"
        out.unlink(missing_ok=True)
        r = self._command("unseen-tag", self._tag_args(
            self.wl.files["unseen"], out, lexicon="extended", extra=["--skip-impossible"]))
        skipped = {int(m.group(1)): m.group(2) for m in _SKIPPED.finditer(r["stderr"])}
        tagged = iter(checks.read_tagged_output(out) if out.exists() else [])
        for i, sentence in enumerate(self.wl.unseen):
            name = f"unseen-sentence{i}"
            if i in skipped or r["code"] != 0:
                self.ops.record(name, False, skipped.get(i, "tag failed"), expected=True)
                continue
            got = next(tagged, [])
            ok = [g[0] for g in got] == [w for w, _ in sentence] and all(
                tags is None or g[1] in tags for g, (_w, tags) in zip(got, sentence))
            self.ops.record(name, ok, f"output {got!r}")


def _strip_third_column(src: Path, dst: Path) -> None:
    with open(src, encoding="utf-8") as fin, open(dst, "w", encoding="utf-8", newline="\n") as fout:
        for line in fin:
            fout.write("\t".join(line.rstrip("\n").split("\t")[:2]) + "\n")


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def end_to_end(wl, rounds) -> dict:
    """Medians over the run's rounds (probes for ``setup_s``), the times
    scaled to a machine on which the reference loop takes REFERENCE_S."""
    plain = [r for r in rounds if not r["traced"]]
    commands = [c for r in plain for c in (r["train"], r["tag"], r["eval"], *r["probes"])]
    reference = _median(c.get("reference_s") for c in commands)
    scale = REFERENCE_S / reference if reference else 1.0

    def rate(command, tokens):
        return _median(tokens / r[command]["seconds"] for r in plain
                       if r[command].get("seconds")) / scale

    m = {
        "setup_s": (_median(p.get("seconds") for r in plain for p in r["probes"]) * scale, "s"),
        "train_tok_per_s": (rate("train", wl.corpus_tokens * wl.iters), "tok/s"),
        "tag_tok_per_s": (rate("tag", wl.heldout_tokens), "tok/s"),
        "eval_tok_per_s": (rate("eval", wl.heldout_tokens), "tok/s"),
    }
    for command in ("train", "tag", "eval"):
        m[f"{command}_peak_mb"] = (_median(r[command].get("peak_mb") for r in plain), "MB")
    return m


def per_layer(rounds) -> dict:
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    per_round = [tracing.layer_metrics({c: r[c]["trace"] for c in ("train", "tag", "eval")})
                 for r in traced if all("trace" in r[c] for c in ("train", "tag", "eval"))]
    m = {}
    for name, (_value, unit) in (per_round[0].items() if per_round else ()):
        m[name] = (_median(pr[name][0] for pr in per_round), unit)
    overhead = 0.0
    for command in ("train", "tag", "eval"):
        extra = (_median(r[command].get("seconds") for r in traced)
                 - _median(r[command].get("seconds") for r in plain))
        m[f"trace.{command}_overhead_s"] = (extra, "s")
        overhead += extra
    m["trace.overhead_s"] = (overhead, "s")
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "hmmtagger" / "cli.py").is_file():
        print(f"no hmmtagger sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("--seconds must be at least 1", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl = workloads.generate(args.workload, args.seed, work)
        runner = Runner(wl, work, args.seed)
        rounds = []
        start = time.monotonic()
        # Start another whole round only while it should end within the run
        # length; a traced run needs one untraced and one traced round.
        while True:
            begun = time.monotonic()
            rounds.append(runner.round(traced=bool(args.trace) and len(rounds) % 2 == 1))
            now = time.monotonic()
            if now - start + (now - begun) > args.seconds and \
                    (not args.trace or len(rounds) >= 2):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    ops = runner.ops
    metrics = per_layer(rounds) if args.trace else end_to_end(wl, rounds)
    result = {
        "correct": not ops.unexpected,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    for line in ops.unexpected[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    outdir = ROOT / ".perfbench_out"
    outdir.mkdir(exist_ok=True)
    absent = {name for r in rounds if r["traced"] for c in ("train", "tag", "eval")
              for name in r[c].get("trace", {}).get("absent", ())}
    detail = dict(result, workload=args.workload, seed=args.seed,
                  absent_functions=sorted(absent),
                  rounds=[{c: r[c].get("seconds") for c in ("train", "tag", "eval")}
                          | {"reference_s": {c: r[c].get("reference_s")
                                             for c in ("train", "tag", "eval")},
                             "traced": r["traced"],
                             "probes": [p.get("seconds") for p in r["probes"]]}
                          for r in rounds],
                  expected_failures=sorted(set(ops.expected)), unexpected_failures=ops.unexpected)
    (outdir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n", "utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

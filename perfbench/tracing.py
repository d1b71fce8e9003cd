"""Per-layer timing of one command, from outside the program.

``Tracer.install`` wraps public functions of the hmmtagger modules and
rebinds every module-level name that refers to them, so calls through
``from .x import f`` imports are caught too.  Per-token and per-sentence
functions are aggregated as call counts and total times rather than one
span per call.  A wrapper records the time its nested wrapped calls took,
which gives self times, and the time covered by outermost wrapped calls,
which the command's own (self) time is measured against.

A target that a later version of the program removes or renames is
reported in ``absent`` and its metrics read 0; it is not an error.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

# (module, function, what a call or a yielded item counts as work)
TARGETS = (
    ("corpusio", "read_pretokenized", "items"),
    ("corpusio", "read_tagged", "items"),
    ("corpusio", "tokenize_raw", "items"),
    ("lexicon", "load_lexicon", None),
    ("lexicon", "load_guesser_rules", None),
    ("lexicon", "classify", "form"),
    ("lexicon", "guess_class", None),
    ("model", "load_model", None),
    ("model", "save_model", None),
    ("training", "counted_init", None),
    ("training", "forward_backward", "sentence"),
    ("training", "baum_welch", "iterations"),
    ("decoder", "viterbi", "sentence"),
    ("evaluation", "profile_report", None),
)


class _Stat:
    __slots__ = ("calls", "total", "self_time", "work")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.work = 0


class Tracer:
    def __init__(self):
        self.stats = {f"{m}.{f}": _Stat() for m, f, _ in TARGETS}
        self.absent: list[str] = []
        self.forms: set = set()
        # Stack of child-time accumulators; the bottom one collects the time
        # of outermost wrapped calls.
        self._stack = [0.0]

    def install(self) -> None:
        for module_name, func_name, work in TARGETS:
            name = f"{module_name}.{func_name}"
            try:
                module = importlib.import_module(f"hmmtagger.{module_name}")
            except ImportError:
                self.absent.append(name)
                continue
            original = getattr(module, func_name, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(original, self.stats[name], work)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").split(".")[0] != "hmmtagger":
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _enter(self) -> float:
        self._stack.append(0.0)
        return time.perf_counter()

    def _leave(self, stat: _Stat, start: float) -> None:
        elapsed = time.perf_counter() - start
        nested = self._stack.pop()
        self._stack[-1] += elapsed
        stat.calls += 1
        stat.total += elapsed
        stat.self_time += elapsed - nested

    def _wrap(self, func, stat: _Stat, work):
        tracer = self

        def wrapper(*args, **kwargs):
            start = tracer._enter()
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._leave(stat, start)
            if work == "sentence" and len(args) > 1:
                stat.work += len(args[1])
            elif work == "form" and args:
                tracer.forms.add(args[-1])
            elif work == "iterations" and isinstance(result, tuple) and len(result) == 2:
                stat.work += len(result[1])
            elif work == "items" and inspect.isgenerator(result):
                stat.calls -= 1  # count the items the generator yields instead
                return tracer._iterate(result, stat)
            return result

        return wrapper

    def _iterate(self, gen, stat: _Stat):
        while True:
            start = self._enter()
            try:
                item = next(gen)
            except StopIteration:
                self._leave(stat, start)
                stat.calls -= 1
                return
            except BaseException:
                self._leave(stat, start)
                raise
            self._leave(stat, start)
            stat.work += len(item)
            yield item

    def report(self, command_seconds: float) -> dict:
        stats = {name: {"calls": s.calls, "total": s.total, "self": s.self_time,
                        "work": s.work} for name, s in self.stats.items()}
        return {"stats": stats, "absent": self.absent, "distinct_forms": len(self.forms),
                "covered": self._stack[0], "seconds": command_seconds}


def layer_metrics(reports: dict) -> dict:
    """Per-layer metrics of one round from the trace reports of its commands
    (``{"train": report, "tag": report, "eval": report}``), summed over the
    commands."""

    def total(field, *names):
        return sum(r["stats"][n][field] for r in reports.values() for n in names)

    readers = ("corpusio.read_pretokenized", "corpusio.read_tagged")
    classify_calls = total("calls", "lexicon.classify")
    distinct = sum(r["distinct_forms"] for r in reports.values())
    m = {
        "corpusio.read_s": (total("total", *readers), "s"),
        "corpusio.tokenize_s": (total("total", "corpusio.tokenize_raw"), "s"),
        "corpusio.tokens": (total("work", *readers, "corpusio.tokenize_raw"), "count"),
        "corpusio.sentences": (total("calls", *readers, "corpusio.tokenize_raw"), "count"),
        "lexicon.load_s": (total("total", "lexicon.load_lexicon", "lexicon.load_guesser_rules"), "s"),
        "lexicon.classify_s": (total("total", "lexicon.classify"), "s"),
        "lexicon.classify_calls": (classify_calls, "count"),
        "lexicon.guess_calls": (total("calls", "lexicon.guess_class"), "count"),
        "lexicon.distinct_forms": (distinct, "count"),
        "lexicon.repeat_ratio": (classify_calls / distinct if distinct else 0.0, "ratio"),
        "model.load_s": (total("total", "model.load_model"), "s"),
        "model.save_s": (total("total", "model.save_model"), "s"),
        "training.counted_init_s": (total("total", "training.counted_init"), "s"),
        "training.fb_s": (total("total", "training.forward_backward"), "s"),
        "training.fb_calls": (total("calls", "training.forward_backward"), "count"),
        "training.fb_tokens": (total("work", "training.forward_backward"), "count"),
        "training.reestimate_s": (total("self", "training.baum_welch"), "s"),
        "training.iterations": (total("work", "training.baum_welch"), "count"),
        "decoder.viterbi_s": (total("total", "decoder.viterbi"), "s"),
        "decoder.viterbi_calls": (total("calls", "decoder.viterbi"), "count"),
        "decoder.viterbi_tokens": (total("work", "decoder.viterbi"), "count"),
        "evaluation.profile_s": (total("total", "evaluation.profile_report"), "s"),
    }
    for command, report in reports.items():
        m[f"cli.{command}_self_s"] = (report["seconds"] - report["covered"], "s")
    absent = set()
    for report in reports.values():
        absent.update(report["absent"])
    m["trace.absent_functions"] = (len(absent), "count")
    return m

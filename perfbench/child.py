"""Run one hmmtagger command in this process and time it.

    python3 child.py RESULT_JSON {plain|trace} HMMTAGGER_ARGS...

The interpreter start-up and the imports happen before the clock starts, so
the recorded time is that of ``hmmtagger.cli.main`` alone.  A fixed
reference loop is timed five times just before and five times just after
the command; the median of these ten times, ``reference_s``, tells how fast
the machine ran around the command (see ``run.py``).  With ``trace`` the
per-layer wrappers from ``tracing.py`` are installed first and their totals
are written into the result as well.
"""

import json
import statistics
import sys
import time
from pathlib import Path


def peak_mb() -> float:
    """Peak resident memory of this process since it was exec'd.  The
    rusage maximum is not used: on Linux it also covers the parent's memory
    that the child shared before exec."""
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def reference_sample() -> float:
    """Seconds of a fixed loop of dict, string and float work, the kind of
    interpreter work the program does most."""
    start = time.perf_counter()
    counts = {}
    for i in range(30_000):
        key = str(i % 5000)
        counts[key] = counts.get(key, 0.0) + i * 0.5
    return time.perf_counter() - start


def main() -> int:
    result_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    from hmmtagger import cli

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(cli.__file__).resolve().parent.parent != src:
        print(f"hmmtagger imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    tracer = None
    if mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    samples = [reference_sample() for _ in range(5)]
    start = time.perf_counter()
    code = cli.main(argv)
    seconds = time.perf_counter() - start
    sys.stdout.flush()
    samples += [reference_sample() for _ in range(5)]
    result = {"exit": code, "seconds": seconds, "reference_s": statistics.median(samples),
              "peak_mb": peak_mb()}
    if tracer is not None:
        result["trace"] = tracer.report(seconds)
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return code


if __name__ == "__main__":
    sys.exit(main())

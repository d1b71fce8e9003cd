"""Run two sets of benchmark runs of the same code and compare them.

    python3 perfbench/compare.py [--runs 10] [--workloads a,b]

Each of the two sets runs every workload ``--runs`` times, each run with its
own seed: 1 to N in the first set, N+1 to 2N in the second.  For every
end-to-end metric and workload it prints each set's median and quartiles,
the spread (the distance between the quartiles as a share of the median),
and whether the two sets agree: both spreads within the metric's bound, the
second median no worse than the first by more than the bound, and the same
share of failed operations in both sets.  Bounds and the run length come
from BENCHMARK.json.  The full table is also written to
``.perfbench_out/compare.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2 to have quartiles")
    workloads = args.workloads.split(",")

    results = {}  # (set, workload) -> list of run results
    for s in range(SETS):
        for w in workloads:
            for i in range(args.runs):
                seed = 1 + s * args.runs + i
                r = run_once(w, seed, spec["run_seconds"])
                results.setdefault((s, w), []).append(r)
                values = " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items())
                print(f"set {s + 1} {w} seed {seed}: correct={r['correct']} "
                      f"failed={r['failed']}/{r['attempted']} {values}", file=sys.stderr)

    table, agree_all = [], True
    for w in workloads:
        shares = [{Fraction(r["failed"], r["attempted"]) for r in results[(s, w)]}
                  for s in range(SETS)]
        same_share = len(set().union(*shares)) == 1
        correct = all(r["correct"] for s in range(SETS) for r in results[(s, w)])
        agree_all &= same_share and correct
        print(f"\n{w}: correct={correct} failed share "
              f"{' / '.join(str(sorted(sh)) for sh in shares)} same={same_share}")
        print(f"  {'metric':18} {'bound':>6} " + " ".join(
            f"{'median' + str(s + 1):>12} {'q1':>12} {'q3':>12} {'spread':>7}"
            for s in range(SETS)) + "  shift   agree")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sums = [summary([r["metrics"][name]["value"] for r in results[(s, w)]])
                    for s in range(SETS)]
            a, b = sums[0]["median"], sums[1]["median"]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            ok = all(x["spread"] <= bound for x in sums) and worse <= bound
            table.append({"workload": w, "metric": name, "bound": bound, "sets": sums,
                          "worse_share": worse, "agree": ok})
            print(f"  {name:18} {bound:6.3f} " + " ".join(
                f"{x['median']:12.6g} {x['q1']:12.6g} {x['q3']:12.6g} {x['spread']:7.4f}"
                for x in sums) + f"  {worse:+.4f} {'yes' if ok else 'NO'}")
            agree_all &= ok
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / "compare.json").write_text(json.dumps(table, indent=1) + "\n", "utf-8")
    print(f"\nall agree: {'yes' if agree_all else 'NO'}")
    return 0 if agree_all else 1


if __name__ == "__main__":
    sys.exit(main())

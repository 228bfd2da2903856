#!/usr/bin/env python3
"""Steadiness check for one workload of the hybridpt benchmark.

    python3 hpbench/steady.py --workload serve-mixed [--runs 10] [--seconds N]

Runs the workload --runs times untraced, each with its own seed, and labels
the runs alternately A and B, so the two sets are interleaved in time like
two runs of identical code.  For every end-to-end metric it prints the
median and quartiles of all runs, the spread (interquartile range over the
median, as statistics.quantiles(values, n=4) gives the quartiles) and the
gap between the medians of set B and set A in the metric's worse direction,
each against the metric's bound in BENCHMARK.json.  setup_s is exempt from
the spread check, as it is in the acceptance rule; its gap is checked.

It then runs the traced mode twice on one seed and checks that every exact
per-layer count repeats exactly.

Exit code 0 when every check holds, 1 otherwise.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("steady: %s exited %d" % (" ".join(cmd), proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        print("steady: seed %d: %d of %d units failed"
              % (seed, result["failed"], result["attempted"]))
    return result


def exact(name, unit):
    """Per-layer metrics that are counts of deterministic work.  With one
    request outstanding the stream alone decides which requests hit the
    daemon's cache, so serve.hit_ratio and serve.shed are exact too."""
    return (not name.startswith("trace.")
            and unit in ("count", "bytes", "KB", "ratio"))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    ok = True
    values = {name: {"A": [], "B": []} for name in metrics}
    for i in range(args.runs):
        label = "AB"[i % 2]
        result = run(args.workload, args.first_seed + i, seconds, 0)
        ok = ok and result["correct"]
        shown = []
        for name in metrics:
            v = result["metrics"][name]["value"]
            values[name][label].append(v)
            shown.append("%s=%.4g" % (name, v))
        print("run %2d set %s seed %d: %s" % (i + 1, label,
                                               args.first_seed + i,
                                               " ".join(shown)), flush=True)

    print("\n%-12s %10s %10s %10s %8s %8s %8s" % (
        "metric", "q1", "median", "q3", "spread", "gap", "bound"))
    for name, m in metrics.items():
        both = values[name]["A"] + values[name]["B"]
        q1, med, q3 = statistics.quantiles(both, n=4)
        spread = (q3 - q1) / med if med else 0.0
        ma = statistics.median(values[name]["A"])
        mb = statistics.median(values[name]["B"])
        worse = (mb - ma) if m["better"] == "lower" else (ma - mb)
        gap = worse / ma if ma else 0.0
        flags = []
        if name != "setup_s" and spread > m["bound"]:
            flags.append("SPREAD")
        if gap > m["bound"]:
            flags.append("GAP")
        ok = ok and not flags
        print("%-12s %10.4g %10.4g %10.4g %7.1f%% %7.1f%% %7.1f%% %s" % (
            name, q1, med, q3, 100 * spread, 100 * gap, 100 * m["bound"],
            " ".join(flags)))

    first = run(args.workload, args.first_seed, seconds, 1)["metrics"]
    second = run(args.workload, args.first_seed, seconds, 1)["metrics"]
    drift = [name for name, m in first.items()
             if exact(name, m["unit"]) and m["value"] != second[name]["value"]]
    counted = sum(1 for name, m in first.items() if exact(name, m["unit"]))
    print("\nexact per-layer counts: %d checked, %s" % (
        counted, "all repeat" if not drift else "DRIFT in " + ", ".join(drift)))
    ok = ok and not drift
    print("steady: %s" % ("ok" if ok else "NOT steady"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

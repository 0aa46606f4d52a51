#!/usr/bin/env python3
"""Steadiness report for the end-to-end benchmark.

Run one workload k times, each with another seed, and print for every
end-to-end metric the median, the quartiles and the spread (q3 - q1) /
median, against the bound BENCHMARK.json fixes for it:

    python3 e2ebench/steady.py run --workload cli-cold --runs 10 \
        --seconds 20 -o /tmp/a.json

Then compare two such sets (e.g. the parent commit and a change, or two
sets of the same code) by their medians:

    python3 e2ebench/steady.py compare /tmp/a.json /tmp/b.json

Quartiles are Python's statistics.quantiles(values, n=4). A spread above
the bound means the metric cannot resolve a change of that size; the
benchmark aims for spreads below a third of the bound. setup_s is exempt
from the spread rule (it is a median of set-ups inside every run) but not
from the comparison.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"steady: run failed (seed {seed}, exit {out.returncode})")
    return json.loads(lines[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def cmd_run(args):
    spec = bounds()
    runs = []
    for k in range(args.runs):
        r = one_run(args.workload, args.seed0 + k, args.seconds, args.trace)
        runs.append(r)
        m = r["metrics"]
        print(f"seed {args.seed0 + k}: correct={r['correct']} "
              f"attempted={r['attempted']} failed={r['failed']} "
              + " ".join(f"{n}={v['value']:.6g}" for n, v in m.items()),
              flush=True)
    print(f"\n{args.workload}: {args.runs} runs of {args.seconds} s")
    print(f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        med, q1, q3 = summary(vals)
        spread = (q3 - q1) / med if med else 0.0
        bound = spec.get(name, {}).get("bound")
        verdict = ""
        if bound is not None and name != "setup_s":
            verdict = ("steady" if spread < bound / 3 else
                       "within bound" if spread <= bound else "TOO NOISY")
        print(f"{name:28} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6}  {verdict}")
    if args.output:
        with open(args.output, "w") as f:
            json.dump({"workload": args.workload, "seconds": args.seconds,
                       "trace": args.trace, "runs": runs}, f, indent=1)


def cmd_compare(args):
    spec = bounds()
    sets = []
    for path in (args.first, args.second):
        with open(path) as f:
            sets.append(json.load(f))
    a, b = sets
    if a["workload"] != b["workload"]:
        sys.exit("steady: the two sets ran different workloads")
    print(f"{a['workload']}: {len(a['runs'])} vs {len(b['runs'])} runs")
    print(f"{'metric':28} {'first':>12} {'second':>12} {'worse by':>9} "
          f"{'bound':>6}  verdict")
    failed = False
    for name in a["runs"][0]["metrics"]:
        ma = statistics.median(r["metrics"][name]["value"] for r in a["runs"])
        mb = statistics.median(r["metrics"][name]["value"] for r in b["runs"])
        m = spec.get(name)
        if not m or not ma:
            continue
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        ok = worse <= m["bound"]
        failed |= not ok
        print(f"{name:28} {ma:12.6g} {mb:12.6g} {worse:9.4f} "
              f"{m['bound']:>6}  {'ok' if ok else 'WORSE THAN BOUND'}")
    sys.exit(1 if failed else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="k runs of one workload, then a report")
    r.add_argument("--workload", required=True)
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--seconds", type=float, required=True)
    r.add_argument("--seed0", type=int, default=1)
    r.add_argument("--trace", type=int, choices=[0, 1], default=0)
    r.add_argument("-o", "--output")
    c = sub.add_parser("compare", help="compare the medians of two sets")
    c.add_argument("first")
    c.add_argument("second")
    args = ap.parse_args()
    (cmd_run if args.cmd == "run" else cmd_compare)(args)


if __name__ == "__main__":
    main()

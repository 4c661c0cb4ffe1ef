"""Run the benchmark over several seeds and print, per end-to-end metric, the
median and the spread (distance between the first and third quartile as a
share of the median, as statistics.quantiles(values, n=4) gives them),
next to the metric's bound from BENCHMARK.json.

    python3 bench/spread.py --workload oos-place --seeds 1-10 [--trace 0]

Run from the root of a checkout. Runs one at a time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    p = argparse.ArgumentParser(prog="bench/spread.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in
              bench["end_to_end" if args.trace == 0 else "per_layer"]}
    values, shares = {}, set()
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, *bench["command"][1:], "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: exit {proc.returncode} correct {result['correct']} "
              f"failed {result['failed']}/{result['attempted']}", flush=True)
        shares.add(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"failed shares seen: {sorted(shares)}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / abs(med) if med else float("nan")
        print(f"{name:32s} median {med:12.6g}  spread {spread:6.3f}  "
              f"bound {bounds.get(name)}")


if __name__ == "__main__":
    sys.exit(main())

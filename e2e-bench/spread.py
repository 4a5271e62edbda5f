#!/usr/bin/env python3
"""Runs the benchmark once per seed on each workload and prints, for every
end-to-end metric, its median and its quartile spread (Q3 - Q1 over the
median, as statistics.quantiles(values, n=4) gives the quartiles) next to
the metric's bound. It also prints the spread of the raw medians in ms that
each run logs to stderr, for comparison with the relative timings.

    python3 e2e-bench/spread.py [--seeds 1,2,3,4,5] [--workloads a,b] [--seconds S]

Run from the repository root. Each run's result line is appended to
e2e-bench/out/spread.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1,2,3,4,5")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    os.makedirs(os.path.join(ROOT, "e2e-bench", "out"), exist_ok=True)
    log = open(os.path.join(ROOT, "e2e-bench", "out", "spread.jsonl"), "a")
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(args.seconds), "--trace", "0"]
            started = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True)
            wall_s = time.monotonic() - started
            lines = proc.stdout.strip().splitlines()
            raw = {}
            for line in proc.stderr.splitlines():
                if line.startswith("raw ms:"):
                    words = line.split()[2:]
                    raw = {"raw." + k: float(v) for k, v in zip(words[::2], words[1::2])}
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                print("\n".join(proc.stderr.splitlines()[-20:]), file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            log.write(json.dumps({"workload": workload, "seed": seed, **result, "raw_ms": raw,
                                  "wall_s": wall_s}) + "\n")
            log.flush()
            ok &= result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for name, v in raw.items():
                values.setdefault(name, []).append(v)
        print(f"== {workload} ({len(seeds)} seeds)")
        raw_rows = [{"name": n, "bound": 0.25} for n in values if n.startswith("raw.")]
        for metric in spec["end_to_end"] + raw_rows:
            v = values.get(metric["name"], [])
            if len(v) < 2:
                continue
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread <= metric["bound"] / 3 else "  <-- above bound/3"
            print(f"  {metric['name']:>18} median {med:12.6g}  spread {spread:7.4f}"
                  f"  bound {metric['bound']}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

"""Run benchmark workloads over several seeds and summarise them.

    python3 perfbench/sweep.py                       # every workload, seed 1
    python3 perfbench/sweep.py --seeds 1-10 --workloads mc-tail
    python3 perfbench/sweep.py --trace               # per-layer metrics
    python3 perfbench/sweep.py --seeds 1-10 --record perfbench/trajectory/x.json

Each (workload, seed) runs `run.py` in a fresh process.  For every
end-to-end metric the summary gives the median over seeds, the quartiles
(statistics.quantiles, n=4) and their distance as a share of the median.
--record also makes one traced run per workload and writes everything,
with sample counts, to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from workloads import NAMES, WHY  # noqa: E402

# Kept in every record: the box the records are made on, and why the
# exact counters sit beside the timings.
BOX_NOTE = ("2 vCPUs shared with other tenants; timings are noisy, and "
            "the box's speed drifts by 20-50% over minutes.  The exact "
            "per-layer counters of the traced run repeat for a seed, so a "
            "change in work shows in them even where the timings cannot "
            "resolve it.")


def seeds_arg(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace))]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    elapsed = time.perf_counter() - t0
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    rows = json.loads(lines[-2])["rows"]
    return result, rows, lines[:-2], elapsed


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else float("nan"),
            "n": len(values)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(NAMES))
    ap.add_argument("--seeds", type=seeds_arg, default=[1])
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--record", default=None)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads.split(",")

    record = {"box": f"{platform.machine()}, {os.cpu_count()} cpus, "
                     f"Python {platform.python_version()}",
              "note": BOX_NOTE, "seconds": seconds, "seeds": args.seeds,
              "workloads": {}}
    for w in workloads:
        print(f"== {w}: {WHY[w]}", flush=True)
        runs = []
        for seed in args.seeds:
            result, rows, human, elapsed = run_one(w, seed, seconds,
                                                   args.trace)
            runs.append(rows)
            print(f"-- seed {seed} ({elapsed:.1f} s, "
                  f"{result['failed']}/{result['attempted']} failed)")
            print("\n".join(human), flush=True)
        entry = {}
        for name, row in runs[0].items():
            values = [r[name]["value"] for r in runs]
            entry[name] = {"unit": row["unit"], "values": values,
                           "samples_per_run": [r[name]["n"] for r in runs]}
            if len(values) > 1:
                s = spread(values)
                entry[name].update(s)
                flag = ""
                if name in bounds:
                    flag = (f"(bound {bounds[name]}) "
                            + ("ok" if name == "setup_s"
                               or s["iqr_share"] < bounds[name] / 3
                               else "WIDE"))
                print(f"{name:>24}: median {s['median']:.6g} {row['unit']}, "
                      f"IQR/median {s['iqr_share']:.3f} {flag}", flush=True)
        record["workloads"][w] = {"why": WHY[w], "metrics": entry}
        if args.record:
            _, rows, human, _ = run_one(w, args.seeds[0], seconds, True)
            print("\n".join(human), flush=True)
            record["workloads"][w]["traced"] = {
                "seed": args.seeds[0], "metrics": rows}
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {args.record}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

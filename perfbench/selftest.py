"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. The output checks bite: an operation scored against a deliberately
   wrong expected verdict counts as failed, and the same operation with
   the right one passes.
2. The deterministic per-layer counters (tracer.DETERMINISTIC) repeat
   exactly across two traced runs of one seed, each in a fresh process.

Exits 1 if either fails.  Takes a few minutes: each traced run makes one
untraced and one traced pass of its workload.
"""

from __future__ import annotations

import shutil
import sys

from run import OUT, SRC, Runner
from sweep import run_one
from workloads import NAMES

# any fixed seed: the counters must repeat for every seed
SEED = 3


def checks_bite(seed):
    import workloads
    work = OUT / f"selftest-{seed}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        op = workloads.build("feller", seed, work)[0]
        right = op.expect["classification"]
        wrong = "StrictLocal" if right != "StrictLocal" else "TrueMartingale"
        runner = Runner(work)
        runner.run_op(op, {})
        op.expect["classification"] = wrong
        runner.run_op(op, {})
    finally:
        shutil.rmtree(work)
    ok = (runner.attempted == 2 and len(runner.failures) == 1
          and runner.failures[0][1][0].startswith("classification"))
    return ok, (f"'{op.label}' expecting {right}: passed; expecting "
                f"{wrong}: {'failed' if len(runner.failures) else 'passed'}")


def counters_repeat(workload, seed):
    from tracer import DETERMINISTIC
    first, second = (run_one(workload, seed, 1, True)[1] for _ in range(2))
    differ = [k for k in DETERMINISTIC
              if first[k]["value"] != second[k]["value"]]
    shown = ", ".join(f"{k}={first[k]['value']:g}" for k in DETERMINISTIC
                      if first[k]["value"])
    return not differ, (f"differ: {', '.join(differ)}" if differ
                        else f"identical ({shown})")


def main():
    sys.path.insert(0, str(SRC))
    results = [("checker scores a wrong expected verdict as failed",
                *checks_bite(SEED))]
    for w in NAMES:
        results.append((f"{w}: deterministic counters repeat",
                        *counters_repeat(w, SEED)))
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}", flush=True)
    return 0 if all(ok for _, ok, _ in results) else 1


if __name__ == "__main__":
    sys.exit(main())

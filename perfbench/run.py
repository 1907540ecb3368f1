"""Run one martprop benchmark workload and print its metrics.

    python3 perfbench/run.py --workload feller --seed 1 --seconds 30 --trace 0

Run from the root of a martprop checkout; the program is imported from
its `src/` directory.  Closed loop: one client runs the workload's
operations one at a time, each a full CLI command (`martprop.cli.main`
in this process, with a generated config file), the next starting only
after the previous report is written.  The operation list is generated
once from --seed and repeated as passes for about --seconds (at least
one pass).  Every report is checked.

Between operations the runner times a fixed pure-Python loop, the
reference: the gated `wall_ref` is a pass's wall time divided by the
median reference time during that pass, so that it reads the same
whether the shared box runs fast or slow at the moment (README
"Steadiness").

--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced
pass, then traced passes, and prints the per-layer metrics (see
tracer.py) and the tracing overhead.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  The
line before it is {"rows": {name: {"value", "unit", "n"}}}: every metric
printed, gated or not, with its sample count.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# setup_s samples, taken half before and half after the timed passes so
# that their median spans the run, not one moment of a noisy box
SETUP_SAMPLES = (5, 6)
# child process for setup_s: a fresh interpreter importing the CLI and
# resolving the workload's first config
_SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import martprop.cli
from martprop import config
config.resolve(config.load_file(sys.argv[1]))
print(time.perf_counter() - t0)
"""

# the metrics of the result line with --trace 0
E2E = ("setup_s", "wall_ref", "peak_rss_mb")
# The reference loop mixes integer arithmetic with calls on floats
# gathered from a list in a scattered order.  In trials on a shared
# 2-vCPU box its time followed the slowdowns of the call-heavy (feller,
# jump) operations, which drift over 1.4-1.9x within a sweep; the
# numpy-heavy ones (mc-bulk, mc-tail) drift less and follow it less
# (README "Steadiness").  It takes 30-60 ms there, and is timed about
# once per REF_EVERY_S of operation time, so that a long operation's
# share of the reference comes from several samples.
REF_EVERY_S = 0.5
_REF_VALUES = [(k * 2654435761 % 1000) / 1000.0 for k in range(1 << 15)]
_REF_STEPS = 1 << 17


def _ref_step(x, y):
    return 0.5 * x + y


def reference_s():
    """Wall time of the fixed, CPU-bound pure-Python reference loop."""
    t0 = time.perf_counter()
    acc, total = 0, 0.0
    for i in range(_REF_STEPS):
        acc += i * i % 7
        j = (i * 40503) & 0x7FFF
        total = _ref_step(_REF_VALUES[j], total) * 0.999
    return time.perf_counter() - t0


def setup_samples(config_path, n):
    """n setup times, each from a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = []
    for _ in range(n):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, config_path], env=env,
            cwd=ROOT, capture_output=True, text=True, timeout=60,
            check=True)
        out.append(float(done.stdout.strip()))
    return out


class Runner:
    """Runs operations through the CLI and scores their reports."""

    def __init__(self, workdir):
        from martprop import cli
        self.cli = cli
        self.workdir = workdir
        self.tracer = None
        self.attempted = 0
        self.failures = []
        self.rss_mb = None

    def run_op(self, op, earlier):
        from workloads import check
        out = self.workdir / "report.out"
        if out.exists():
            out.unlink()
        err = io.StringIO()

        def invoke():
            with contextlib.redirect_stderr(err):
                self.cli.main.main(args=op.argv(str(out)),
                                   standalone_mode=False)

        problems = []
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                invoke()
            else:
                self.tracer.run_op(f"cli.{op.command}", invoke)
        except SystemExit as exc:
            problems.append(f"exit code {exc.code}")
        except Exception as exc:  # an operation that raises counts as failed
            problems.append(f"raised {exc!r}")
        elapsed = time.perf_counter() - t0
        raw = out.read_bytes() if out.exists() else b""
        if not problems:
            try:
                problems = check(op, json.loads(raw), raw, earlier)
            except (ValueError, KeyError, TypeError) as exc:
                problems = [f"unreadable report: {exc!r}"]
        earlier[op.label] = raw
        self.attempted += 1
        if problems:
            self.failures.append((op.label, problems,
                                  err.getvalue()[-500:]))
        return elapsed

    def run_pass(self, ops):
        """Runs `ops` in order, timing the reference loop after each, once
        more per REF_EVERY_S the operation took: (pass wall time without
        the references, [op times], median reference time).

        Keeps in `rss_mb` the peak RSS of the first pass up to its first
        operation at --threads > 1.  Later passes repeat the same
        operations, and how much the allocator keeps from them depends
        on how many fit; pool threads that grow their buffers at the
        same moment or not make the threaded peak vary by 10-20% from
        run to run."""
        earlier = {}
        times = []
        refs = []
        t0 = time.perf_counter()
        for op in ops:
            if op.threads > 1 and self.rss_mb is None:
                self.rss_mb = peak_rss_mb()
            times.append(self.run_op(op, earlier))
            refs.extend(reference_s()
                        for _ in range(1 + int(times[-1] / REF_EVERY_S)))
        wall = time.perf_counter() - t0 - sum(refs)
        if self.rss_mb is None:
            self.rss_mb = peak_rss_mb()
        return wall, times, statistics.median(refs)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def another_pass(started, seconds, walls):
    """Whether to start another pass: yes while the run would end nearer
    `seconds` after `started` with it than without it.  Runs last about
    `seconds`, and workloads of a few long passes (feller, mc-tail) get
    two or three instead of one or two."""
    typical = statistics.median(walls)
    return time.perf_counter() - started + typical / 2 <= seconds


def run_passes(runner, ops, seconds, started):
    """Whole passes for about `seconds` since `started`:
    [(pass_wall_s, [op_s, ...], ref_s), ...]."""
    passes = []
    while True:
        passes.append(runner.run_pass(ops))
        if not another_pass(started, seconds, [p[0] for p in passes]):
            return passes


def end_to_end(ops, passes, setup, rss_mb):
    """{metric: (value, unit, samples)} of the untraced run."""
    op_times = [t for p in passes for t in p[1]]
    rows = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "wall_ref": (statistics.median(w / ref for w, _, ref in passes),
                     "ref", len(passes)),
        # not gated: these drift with the box's speed (README "Steadiness")
        "wall_s": (statistics.median(p[0] for p in passes), "s",
                   len(passes)),
        "ref_s": (statistics.median(p[2] for p in passes), "s",
                  len(passes)),
        "peak_rss_mb": (rss_mb, "MB", 1),
        # not gated: with a few long, unlike operations per pass (feller)
        # its median moves too much from run to run
        "op_p50_s": (statistics.median(op_times), "s", len(op_times)),
    }
    threaded = [i for i, op in enumerate(ops) if op.threads > 1]
    if threaded:
        # same input at --threads 1 and at --threads N, every pass
        j = threaded[0]
        i = next(k for k, op in enumerate(ops)
                 if op.threads == 1 and op.config == ops[j].config)
        one = statistics.median(p[1][i] for p in passes)
        two = statistics.median(p[1][j] for p in passes)
        rows["threads2_speedup"] = (one / two, "x", len(passes))
    return rows


def traced(runner, ops, seconds, started, spans_path):
    from tracer import DETERMINISTIC, Tracer, layer_metrics
    plain_wall = runner.run_pass(ops)[0]
    tracer = Tracer()
    runner.tracer = tracer
    tracer.install()
    per_pass = []
    try:
        while True:
            before = tracer.snapshot()
            wall = runner.run_pass(ops)[0]
            per_pass.append((wall, layer_metrics(before, tracer.snapshot())))
            if not another_pass(started, seconds,
                                [w for w, _ in per_pass]):
                break
    finally:
        tracer.uninstall()
        runner.tracer = None
    with open(spans_path, "w") as fh:
        for rec in tracer.spans:
            fh.write(json.dumps(dict(zip(
                ("id", "parent", "name", "layer", "thread", "start",
                 "end"), rec))) + "\n")
    first = per_pass[0][1]
    repeat = all(m[k] == first[k] for _, m in per_pass for k in DETERMINISTIC)
    metrics = {k: (first[k] if k in DETERMINISTIC
                   else statistics.median(m[k] for _, m in per_pass))
               for k in first}
    traced_wall = statistics.median(w for w, _ in per_pass)
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    metrics["trace.overhead_ratio"] = traced_wall / plain_wall - 1.0
    info = {"traced_passes": len(per_pass), "counters_repeat": repeat,
            "untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
            "missing_patch_points": tracer.missing,
            "spans": len(tracer.spans)}
    return metrics, info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "martprop" / "__init__.py").is_file():
        print(f"error: no martprop sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads
    from tracer import unit_of
    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2

    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ops = workloads.build(args.workload, args.seed, workdir)
    if not args.trace:
        # the first start writes the bytecode cache and is not counted
        setup = setup_samples(ops[0].config_path, 1 + SETUP_SAMPLES[0])[1:]

    print(f"workload {args.workload}, seed {args.seed}: "
          f"{workloads.WHY[args.workload]}")
    runner = Runner(workdir)
    started = time.perf_counter()
    if args.trace:
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        metrics, info = traced(runner, ops, args.seconds, started,
                               spans_path)
        rows = {k: (v, unit_of(k), info["traced_passes"])
                for k, v in metrics.items()}
        print(f"untraced pass {info['untraced_wall_s']:.3f} s, traced "
              f"passes {info['traced_passes']} (median "
              f"{info['traced_wall_s']:.3f} s); counters repeat across "
              f"passes: {info['counters_repeat']}; {info['spans']} spans "
              f"in {spans_path.relative_to(ROOT)}")
        if info["missing_patch_points"]:
            print("patch points not found: "
                  + ", ".join(info["missing_patch_points"]))
    else:
        passes = run_passes(runner, ops, args.seconds, started)
        setup += setup_samples(ops[0].config_path, SETUP_SAMPLES[1])
        rows = end_to_end(ops, passes, setup, runner.rss_mb)
        metrics = {k: rows[k][0] for k in E2E}
    rows["fail_ratio"] = (len(runner.failures) / runner.attempted, "1",
                          runner.attempted)
    for name, (value, unit, count) in rows.items():
        print(f"{name:>24} {value:14.6g} {unit:<5} (n={count})")
    for label, problems, stderr_tail in runner.failures:
        print(f"FAILED {label}: {'; '.join(problems)}")
        if stderr_tail:
            print(stderr_tail, file=sys.stderr)
    for f in workdir.iterdir():
        f.unlink()
    workdir.rmdir()
    print(json.dumps({"rows": {
        k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in rows.items()}}))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": rows[k][1]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

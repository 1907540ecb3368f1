"""Outside-in tracing of martprop's layers.

`Tracer.install()` replaces public functions of each module with timing
wrappers, at the name the caller looks up: a module global such as
`martprop.feller.log_quad_adaptive` or a class attribute such as
`CoefficientExpr.eval_raw`.  Nothing inside `src/` is changed; `uninstall()`
puts the originals back.

Two kinds of wrapper:

* span: pushes a frame on a per-thread stack.  On exit its self time is
  its duration minus the time of child frames on the same thread and
  minus the union of child spans that ran on other threads (ensemble
  chunks under --threads).  Spans of the coarse layers are also kept in
  memory as (id, parent, name, layer, thread, start, end) records and
  written out when the run ends.  Hot spans (per-node quadrature) only
  count, to keep memory flat.
* leaf: the hottest calls (scalar and array expression evaluation, RNG
  setup).  Counted and timed, and their time is subtracted from the
  enclosing frame; no frame of their own.

Span counters and layer times are shared between threads and updated
under one lock.  Leaf counters live in per-thread state that only its own
thread writes, and are summed at each snapshot.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
import threading
from time import perf_counter

import numpy as np

# per-layer counters that must repeat exactly for one seed
DETERMINISTIC = (
    "feller.v_calls", "feller.probes",
    "quad.log_quad_calls", "quad.quad_calls", "quad.cumint_queries",
    "expr.scalar_evals", "expr.array_calls", "expr.array_elems",
    "rng.generators", "mc.ensembles", "mc.lockstep_iters",
    "mc.path_steps", "hilbert.path_steps", "jumpkit.sims",
    "jumpkit.path_steps", "report.bytes",
)

# layers timed by spans; expr and rng are leaves (see _LEAF_KEYS)
_SPAN_LAYERS = ("cli", "config", "model", "report", "feller", "quad", "mc",
                "hilbert", "jumpkit")
_LEAF_KEYS = ("expr.scalar_evals", "expr.scalar_s", "expr.array_calls",
              "expr.array_elems", "expr.array_s", "rng.generators", "rng.s",
              "mc.lockstep_iters", "mc.path_steps", "mc.lane_slots")


class _ThreadState:
    """Per-thread frame stack and leaf counters; a thread only writes its
    own, so the hottest wrappers take no lock.  Snapshots sum them."""

    __slots__ = ("stack", "in_scalar", "chunk_rows", "leaf")

    def __init__(self):
        self.stack = []
        self.in_scalar = False
        self.chunk_rows = 0
        self.leaf = dict.fromkeys(_LEAF_KEYS, 0)


class _Frame:
    __slots__ = ("sid", "parent", "name", "layer", "thread", "start",
                 "child", "foreign")

    def __init__(self, sid, parent, name, layer, thread, start):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.layer = layer
        self.thread = thread
        self.start = start
        self.child = 0.0        # time of same-thread children
        self.foreign = []       # (start, end) of children on other threads


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _grid_steps(horizon, dt_max):
    return max(1, int(math.ceil(horizon / dt_max)))


class Tracer:
    def __init__(self):
        self.lock = threading.Lock()
        self.local = threading.local()
        # counters and layer self times updated by spans, under the lock
        self.counts = dict.fromkeys(
            (k for k in DETERMINISTIC if k not in _LEAF_KEYS), 0)
        self.self_s = dict.fromkeys(_SPAN_LAYERS, 0.0)
        # inclusive time of the outermost span of a layer (throughputs)
        self.inclusive_s = {"mc": 0.0, "hilbert": 0.0, "jumpkit": 0.0}
        self._states = []
        self.spans = []
        self.missing = []
        self._ids = itertools.count(1)
        self._patched = []
        # drift expression of the ensemble being simulated, and its frame
        # (the parent of chunk spans that run on pool threads)
        self._drift = None
        self._ensemble = None

    # -- frames -----------------------------------------------------------

    def _state(self):
        try:
            return self.local.st
        except AttributeError:
            st = self.local.st = _ThreadState()
            with self.lock:
                self._states.append(st)
            return st

    def _stack(self):
        return self._state().stack

    def _enter(self, name, layer):
        stack = self._stack()
        parent = stack[-1] if stack else self._ensemble
        frame = _Frame(next(self._ids), parent, name, layer,
                       threading.get_ident(), perf_counter())
        stack.append(frame)
        return frame

    def _exit(self, frame, record):
        end = perf_counter()
        self._stack().pop()
        dur = end - frame.start
        parent = frame.parent
        with self.lock:
            own = dur - frame.child
            if frame.foreign:
                own -= _covered(frame.foreign, frame.start, end)
            self.self_s[frame.layer] += own
            if frame.layer in self.inclusive_s and (
                    parent is None or parent.layer != frame.layer):
                self.inclusive_s[frame.layer] += dur
            if parent is not None:
                if parent.thread == frame.thread:
                    parent.child += dur
                else:
                    parent.foreign.append((frame.start, end))
            if record:
                self.spans.append((frame.sid,
                                   parent.sid if parent else 0,
                                   frame.name, frame.layer, frame.thread,
                                   frame.start, end))

    def span(self, name, layer, fn, record=True, before=None, after=None):
        """Wrap fn as a span.  before(args, kwargs) runs first inside the
        span and returns a token; after(result, token) runs last, also
        when fn raised (result is then None)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(name, layer)
            token = before(args, kwargs) if before else None
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                if after:
                    after(result, token)
                tracer._exit(frame, record)
        return wrapper

    def run_op(self, label, fn):
        """Run one operation as the root span of layer cli."""
        return self.span(label, "cli", fn)()

    # -- patching ---------------------------------------------------------

    def _patch(self, owner, attr, make):
        target = owner
        if isinstance(owner, str):
            try:
                target = importlib.import_module(owner)
            except ImportError:
                self.missing.append(f"{owner}.{attr}")
                return
        original = getattr(target, attr, None)
        if original is None:
            where = owner if isinstance(owner, str) else owner.__name__
            self.missing.append(f"{where}.{attr}")
            return
        self._patched.append((target, attr, original))
        setattr(target, attr, make(original))

    def uninstall(self):
        while self._patched:
            target, attr, original = self._patched.pop()
            setattr(target, attr, original)

    def install(self):
        from martprop.expr import CoefficientExpr
        from martprop.quad import CumulativeIntegral

        S = self.span
        p = self._patch

        def add(key, n=1):
            with self.lock:
                self.counts[key] += n

        def counting(key):
            return lambda args, kwargs: add(key)

        # cli -> config / model / report
        for name in ("resolve", "load_file"):
            p("martprop.config", name,
              lambda f, n=name: S(f"config.{n}", "config", f))
        for mod, name in (("martprop.feller", "modified_drift"),
                          ("martprop.feller", "require_scalar_homogeneous"),
                          ("martprop.mc", "modified_drift"),
                          ("martprop.mc", "quadratic_exponent")):
            p(mod, name, lambda f, n=name: S(f"model.{n}", "model", f))

        def count_bytes(result, token):
            if result is not None:
                add("report.bytes", len(result.encode()))
        p("martprop.report", "render_json",
          lambda f: S("report.render_json", "report", f, after=count_bytes))
        for name in ("build_report", "mc_estimate_dict",
                     "deficit_curve_dict", "curve_csv"):
            p("martprop.report", name,
              lambda f, n=name: S(f"report.{n}", "report", f))

        # feller and quad
        p("martprop.cli", "martingale_verdict",
          lambda f: S("feller.martingale_verdict", "feller", f))
        p("martprop.feller", "classify_explosion",
          lambda f: S("feller.classify_explosion", "feller", f))

        def count_probes(result, token):
            if result is not None:
                with self.lock:
                    self.counts["feller.v_calls"] += 1
                    self.counts["feller.probes"] += result.probes_used
        p("martprop.feller", "feller_v",
          lambda f: S("feller.feller_v", "feller", f, after=count_probes))
        p("martprop.feller", "log_quad_adaptive",
          lambda f: S("quad.log_quad_adaptive", "quad", f,
                      before=counting("quad.log_quad_calls")))
        p("martprop.quad", "quad_adaptive",
          lambda f: S("quad.quad_adaptive", "quad", f, record=False,
                      before=counting("quad.quad_calls")))
        p(CumulativeIntegral, "at",
          lambda f: S("quad.cumulative_at", "quad", f, record=False,
                      before=counting("quad.cumint_queries")))

        # mc
        for name in ("deficit_for", "estimate_mean_direct",
                     "novikov_estimate", "localized_bound_check"):
            p("martprop.cli", name,
              lambda f, n=name: S(f"mc.{n}", "mc", f))

        def ensemble_in(args, kwargs):
            spec = args[0] if args else kwargs["spec"]
            with self.lock:
                token = (self._drift, self._ensemble)
                self._drift = spec.b[0]
                self._ensemble = self._stack()[-1]
                self.counts["mc.ensembles"] += 1
            return token

        def ensemble_out(result, token):
            with self.lock:
                self._drift, self._ensemble = token
        p("martprop.mc", "run_ensemble",
          lambda f: S("mc.run_ensemble", "mc", f, before=ensemble_in,
                      after=ensemble_out))
        # private, but the only place a pool thread enters the engine;
        # without it chunk time on pool threads counts as run_ensemble's
        p("martprop.mc", "_run_chunk", lambda f: S("mc.chunk", "mc", f))

        # hilbert and jumpkit: path-steps from the inputs, paths x steps
        def sampled_paths(args, kwargs):
            cov, cfg, n = args
            add("hilbert.path_steps", n * _grid_steps(cfg.horizon,
                                                      cfg.dt_max))

        def hilbert_ensembles(args, kwargs):
            # direct mean and localized curve: two ensembles of n_paths
            t, cfg = args[2], args[4]
            add("hilbert.path_steps",
                2 * cfg.n_paths * _grid_steps(t, min(cfg.dt_max, t)))
        p("martprop.cli", "sample_path_array",
          lambda f: S("hilbert.sample_path_array", "hilbert", f,
                      before=sampled_paths))
        p("martprop.cli", "check_conditions",
          lambda f: S("hilbert.check_conditions", "hilbert", f))
        p("martprop.cli", "estimate_hilbert_expectation",
          lambda f: S("hilbert.estimate_hilbert_expectation", "hilbert", f,
                      before=hilbert_ensembles))

        for name in ("validate_jump", "verdict_jump",
                     "verify_compensator_identity"):
            p("martprop.cli", name,
              lambda f, n=name: S(f"jumpkit.{n}", "jumpkit", f))

        def jump_paths(args, kwargs):
            cfg = args[2] if len(args) > 2 else kwargs["config"]
            with self.lock:
                self.counts["jumpkit.sims"] += 1
                self.counts["jumpkit.path_steps"] += (
                    cfg.n_paths * _grid_steps(cfg.horizon, cfg.dt_max))
        p("martprop.jumpkit", "simulate_jump_exponential",
          lambda f: S("jumpkit.simulate_jump_exponential", "jumpkit", f,
                      before=jump_paths))

        # leaves: rng setup and expression evaluation
        for mod in ("martprop.mc", "martprop.jumpkit", "martprop.hilbert"):
            p(mod, "path_generator", self._rng_leaf)
        p(CoefficientExpr, "eval_raw", self._scalar_leaf)
        p(CoefficientExpr, "__call__", self._scalar_leaf)
        p(CoefficientExpr, "eval_array", self._array_leaf)

    def _rng_leaf(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            dur = perf_counter() - t0
            st.leaf["rng.generators"] += 1
            st.leaf["rng.s"] += dur
            if st.stack:
                st.stack[-1].child += dur
            return result
        return wrapper

    def _scalar_leaf(self, fn):
        # __call__ evaluates through eval_raw: count the outer call only
        tracer = self

        @functools.wraps(fn)
        def wrapper(expr, t, x):
            st = tracer._state()
            if st.in_scalar:
                return fn(expr, t, x)
            st.in_scalar = True
            t0 = perf_counter()
            try:
                return fn(expr, t, x)
            finally:
                dur = perf_counter() - t0
                st.in_scalar = False
                leaf = st.leaf
                leaf["expr.scalar_evals"] += 1
                leaf["expr.scalar_s"] += dur
                if st.stack:
                    st.stack[-1].child += dur
        return wrapper

    def _array_leaf(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(expr, t, x):
            st = tracer._state()
            t0 = perf_counter()
            result = fn(expr, t, x)
            dur = perf_counter() - t0
            n = int(np.size(x))
            leaf = st.leaf
            leaf["expr.array_calls"] += 1
            leaf["expr.array_elems"] += n
            leaf["expr.array_s"] += dur
            if expr is tracer._drift:
                # one lockstep iteration of the chunk on this thread; all
                # live paths are at t = 0 only in a chunk's first one
                if np.ndim(t) and np.size(t) and float(t[0]) == 0.0:
                    st.chunk_rows = n
                leaf["mc.lockstep_iters"] += 1
                leaf["mc.path_steps"] += n
                leaf["mc.lane_slots"] += st.chunk_rows or n
            if st.stack:
                st.stack[-1].child += dur
            return result
        return wrapper

    # -- results ------------------------------------------------------------

    def snapshot(self):
        with self.lock:
            snap = dict(self.counts)
            snap.update({f"{k}.self_s": v for k, v in self.self_s.items()})
            snap.update({f"{k}.incl_s": v
                         for k, v in self.inclusive_s.items()})
            snap.update(dict.fromkeys(_LEAF_KEYS, 0))
            for st in self._states:
                for k, v in st.leaf.items():
                    snap[k] += v
            snap["expr.self_s"] = snap["expr.scalar_s"] + snap["expr.array_s"]
            return snap


def _rate(n, s):
    return n / s if s > 0 else 0.0


def layer_metrics(before, after):
    """Per-layer metrics of the work done between two snapshots."""
    d = {k: after[k] - before[k] for k in after}
    m = {k: d[k] for k in DETERMINISTIC}
    m.update({
        "feller.self_s": d["feller.self_s"],
        "quad.self_s": d["quad.self_s"],
        "expr.scalar_s": d["expr.scalar_s"],
        "expr.array_s": d["expr.array_s"],
        "expr.array_elems_per_s": _rate(d["expr.array_elems"],
                                        d["expr.array_s"]),
        "rng.s": d["rng.s"],
        "mc.self_s": d["mc.self_s"],
        "mc.path_steps_per_s": _rate(d["mc.path_steps"], d["mc.incl_s"]),
        "mc.lane_util": _rate(d["mc.path_steps"], d["mc.lane_slots"]),
        "hilbert.self_s": d["hilbert.self_s"],
        "hilbert.path_steps_per_s": _rate(d["hilbert.path_steps"],
                                          d["hilbert.incl_s"]),
        "jumpkit.self_s": d["jumpkit.self_s"],
        "jumpkit.path_steps_per_s": _rate(d["jumpkit.path_steps"],
                                          d["jumpkit.incl_s"]),
        "model.self_s": d["model.self_s"],
        "config.resolve_s": d["config.self_s"],
        "report.render_s": d["report.self_s"],
        "cli.self_s": d["cli.self_s"],
    })
    return m


def unit_of(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or name == "rng.s":
        return "s"
    if name == "report.bytes":
        return "B"
    if name in ("mc.lane_util", "trace.overhead_ratio"):
        return "ratio"
    return "count"

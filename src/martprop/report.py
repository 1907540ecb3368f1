"""Deterministic machine-readable reports.

A report is a plain dict rendered as sorted, indented JSON.  Everything
that influenced the numbers is included (command, fully resolved config,
seed); anything that does not (thread count, wall-clock time) is left
out, so two runs of the same config produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json

from . import __version__


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if hasattr(obj, "to_dict"):
        return _jsonable(obj.to_dict())
    if isinstance(obj, float):
        if obj != obj:
            return "nan"
        if obj == float("inf"):
            return "inf"
        if obj == float("-inf"):
            return "-inf"
        return obj
    if hasattr(obj, "item"):  # numpy scalar
        return _jsonable(obj.item())
    return obj


def build_report(command: str, run_config, *, verdict=None, estimates=None,
                 curves=None, diagnostics=()) -> dict:
    report = {
        "command": command,
        "version": __version__,
        "resolved_config": _jsonable(run_config.to_dict()),
        "diagnostics": [str(d) for d in diagnostics],
    }
    if verdict is not None:
        report["verdict"] = _jsonable(verdict)
    if estimates is not None:
        report["estimates"] = _jsonable(estimates)
    if curves is not None:
        report["curves"] = _jsonable(curves)
    return report


def render_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def mc_estimate_dict(est):
    return {"mean": est.mean, "std_error": est.std_error,
            "n_effective": est.n_effective,
            "heavy_tail_flag": est.heavy_tail_flag,
            "max_sample_share": est.max_sample_share,
            "notes": list(est.notes)}


def deficit_curve_dict(curve):
    return {"entries": [{"level": lv, "time_cap": cap,
                         "survival": q, "std_error": se}
                        for (lv, cap, q, se) in curve.entries],
            "deficit": curve.deficit,
            "converged": curve.converged,
            "notes": list(curve.notes)}


def curve_csv(curve) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["level", "time_cap", "survival", "std_error"])
    for (lv, cap, q, se) in curve.entries:
        writer.writerow([repr(float(lv)), repr(float(cap)),
                         repr(float(q)), repr(float(se))])
    return buf.getvalue()

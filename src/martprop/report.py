"""Deterministic machine-readable reports.

A report is a plain dict rendered as sorted, indented JSON.  Everything
that influenced the numbers is included (command, fully resolved config,
seed); anything that does not (thread count, wall-clock time) is left
out, so two runs of the same config produce byte-identical files.

`jsonable` is the one walker that writes the JSON form of every report
and config value: a dataclass by its fields, an expression by its text,
a non-finite float as "inf", "-inf" or "nan", and an object with a
`to_dict` by what that returns.  Only a class whose report form differs
from its fields defines `to_dict`.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math

from . import __version__
from .expr import CoefficientExpr


def jsonable(obj):
    """The plain JSON document of `obj`.  Leaves are tested first: they
    are most of what a report holds."""
    if isinstance(obj, float):
        # "inf", "-inf" or "nan": JSON has no literal for them
        return obj if math.isfinite(obj) else str(obj)
    if obj is None or isinstance(obj, (str, int)):
        return obj
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, CoefficientExpr):
        return obj.render()
    if hasattr(obj, "to_dict"):
        return jsonable(obj.to_dict())
    if dataclasses.is_dataclass(obj):
        # __dataclass_fields__ would also name a ClassVar; none has one
        return {name: jsonable(getattr(obj, name))
                for name in obj.__dataclass_fields__}
    if hasattr(obj, "item"):  # numpy scalar
        return jsonable(obj.item())
    return obj


def build_report(command: str, run_config, *, verdict=None, estimates=None,
                 curves=None, diagnostics=()) -> dict:
    """The report of `command`: the resolved config's document
    (`RunConfig.to_dict`) and the JSON form of the verdict, estimates
    and curves given, which may be report objects or dicts of them."""
    report = {
        "command": command,
        "version": __version__,
        "resolved_config": run_config.to_dict(),
        "diagnostics": [str(d) for d in diagnostics],
    }
    if verdict is not None:
        report["verdict"] = jsonable(verdict)
    if estimates is not None:
        report["estimates"] = jsonable(estimates)
    if curves is not None:
        report["curves"] = jsonable(curves)
    return report


def render_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def curve_csv(curve) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["level", "time_cap", "survival", "std_error"])
    for (lv, cap, q, se) in curve.entries:
        writer.writerow([repr(float(lv)), repr(float(cap)),
                         repr(float(q)), repr(float(se))])
    return buf.getvalue()

"""The benchmark's tracer (perfbench/tracer.py) must still install against
src/: it imports some names without a guard, and a src change that drops
one should fail here, not only in the benchmark step."""

import importlib.util
import pathlib

from martprop.quad import CumulativeIntegral

TRACER = (pathlib.Path(__file__).resolve().parent.parent
          / "perfbench" / "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer",
                                                  TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores():
    original = CumulativeIntegral.at
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        assert CumulativeIntegral.at is not original
        assert "CumulativeIntegral.at" not in tracer.missing
    finally:
        tracer.uninstall()
    assert CumulativeIntegral.at is original

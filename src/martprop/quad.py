"""A memoized antiderivative on the Feller sweep's panel integral.

martprop has one quadrature rule, `feller.integrate`.  This module keeps
`CumulativeIntegral` because the benchmark's tracer
(`perfbench/tracer.py`) imports it from `martprop.quad`.
"""

from __future__ import annotations

import bisect

import numpy as np

from .feller import integrate


class CumulativeIntegral:
    """Memoized antiderivative F(x) = int_origin^x f(z) dz of a scalar f.

    Each new query integrates from the nearest previously evaluated point
    with `feller.integrate`, evaluating f once per node, so repeated
    nearby queries stay cheap.
    """

    def __init__(self, f, origin):
        self.f = f
        self._xs = [origin]
        self._vals = [0.0]

    def at(self, x):
        i = bisect.bisect_left(self._xs, x)
        if i < len(self._xs) and self._xs[i] == x:
            return self._vals[i]
        j = min((k for k in (i - 1, i) if 0 <= k < len(self._xs)),
                key=lambda k: abs(self._xs[k] - x))
        value = self._vals[j] + integrate(
            lambda zs: np.array([self.f(z) for z in zs], dtype=np.float64),
            self._xs[j], x)
        self._xs.insert(i, x)
        self._vals.insert(i, value)
        return value

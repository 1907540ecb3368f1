"""Adaptive Gauss-Kronrod quadrature and a memoized antiderivative.

`quad_adaptive` subdivides the interval with the largest Kronrod-Gauss
error estimate until the combined absolute/relative target is met;
`CumulativeIntegral` answers F(x) = int_origin^x f by integrating from
the nearest point it has already evaluated.
"""

from __future__ import annotations

import bisect
import heapq
import math

import numpy as np

from .errors import QuadratureFailure

# 15-point Kronrod nodes on [-1, 1] with embedded 7-point Gauss rule.
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277,
    0.381830050505119, 0.417959183673469,
])

# full symmetric node/weight tables
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_WEIGHTS_K = np.concatenate([_WGK[:-1], _WGK[::-1]])
_wg_full = np.zeros_like(_WEIGHTS_K)
_wg_full[1:-1:2] = np.concatenate([_WG[:-1], _WG[::-1]])
_wg_full[7] = _WG[3]
_WEIGHTS_G = _wg_full

DEFAULT_ABS_TOL = 1e-9
DEFAULT_REL_TOL = 1e-7


def _gk15(f, a, b):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    xs = mid + half * _NODES
    fs = np.array([f(x) for x in xs], dtype=np.float64)
    if not np.all(np.isfinite(fs)):
        raise QuadratureFailure(
            f"non-finite integrand value on [{a}, {b}]")
    ik = half * float(_WEIGHTS_K @ fs)
    ig = half * float(_WEIGHTS_G @ fs)
    err = (200.0 * abs(ik - ig)) ** 1.5 if ik != ig else 0.0
    return ik, min(err, abs(ik - ig) * 200.0 + 1e-300)


def quad_adaptive(f, a, b, abs_tol=DEFAULT_ABS_TOL, rel_tol=DEFAULT_REL_TOL,
                  max_subdivisions=512):
    """Integrate f over [a, b]; returns (value, error_estimate).

    Raises QuadratureFailure if the tolerance target cannot be met or the
    integrand evaluates to a non-finite value.
    """
    if a == b:
        return 0.0, 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    value, err = _gk15(f, a, b)
    heap = [(-err, a, b, value, err)]
    total, total_err = value, err
    count = 1
    while total_err > max(abs_tol, rel_tol * abs(total)):
        if count >= max_subdivisions:
            raise QuadratureFailure(
                f"tolerance not met after {count} subdivisions "
                f"(value={total!r}, err={total_err!r})")
        _, lo, hi, v, e = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # interval at floating-point resolution; accept its estimate
            heapq.heappush(heap, (0.0, lo, hi, v, 0.0))
            total_err -= e
            continue
        v1, e1 = _gk15(f, lo, mid)
        v2, e2 = _gk15(f, mid, hi)
        total += v1 + v2 - v
        total_err += e1 + e2 - e
        heapq.heappush(heap, (-e1, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, hi, v2, e2))
        count += 1
    return sign * total, total_err


def _logaddexp(a, b):
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    return np.logaddexp(a, b)


class CumulativeIntegral:
    """Memoized antiderivative F(x) = int_origin^x f(z) dz.

    Each new query integrates from the nearest previously evaluated point,
    so repeated nearby queries (quadrature nodes, probe sequences) stay
    cheap.  Suitable for smooth integrands.
    """

    def __init__(self, f, origin, abs_tol=DEFAULT_ABS_TOL,
                 rel_tol=DEFAULT_REL_TOL):
        self.f = f
        self.abs_tol = abs_tol
        self.rel_tol = rel_tol
        self._xs = [origin]
        self._vals = [0.0]

    def at(self, x):
        i = bisect.bisect_left(self._xs, x)
        if i < len(self._xs) and self._xs[i] == x:
            return self._vals[i]
        # nearest known point
        candidates = []
        if i > 0:
            candidates.append(i - 1)
        if i < len(self._xs):
            candidates.append(i)
        j = min(candidates, key=lambda k: abs(self._xs[k] - x))
        base_x, base_v = self._xs[j], self._vals[j]
        delta, _ = quad_adaptive(self.f, base_x, x,
                                 abs_tol=self.abs_tol, rel_tol=self.rel_tol)
        value = base_v + delta
        self._xs.insert(i, x)
        self._vals.insert(i, value)
        return value

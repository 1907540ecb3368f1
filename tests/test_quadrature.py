import math

import numpy as np
import pytest
from scipy import integrate

from martprop.errors import QuadratureFailure
from martprop.quad import CumulativeIntegral, quad_adaptive


@pytest.mark.parametrize("f,a,b", [
    (lambda z: math.exp(-z * z), -6.0, 6.0),
    (lambda z: math.sin(z) ** 2, 0.0, 10.0),
    (lambda z: 1.0 / (1.0 + z * z), -50.0, 50.0),
    (lambda z: z ** 3 - 2 * z + 1, -2.0, 3.0),
    (lambda z: math.exp(z) * math.cos(5 * z), 0.0, 4.0),
])
def test_matches_scipy(f, a, b):
    ours, err = quad_adaptive(f, a, b)
    ref, _ = integrate.quad(f, a, b, limit=200)
    assert ours == pytest.approx(ref, rel=1e-9, abs=1e-12)
    assert abs(ours - ref) <= max(err, 1e-9)


def test_near_singular_peak():
    # sharply peaked integrand needs subdivision; closed form
    # 4 (sqrt(1 + eps) - sqrt(eps)) with eps = 1e-8
    f = lambda z: 1.0 / math.sqrt(abs(z) + 1e-8)
    ours, _ = quad_adaptive(f, -1.0, 1.0, max_subdivisions=2000)
    ref = 4.0 * (math.sqrt(1.0 + 1e-8) - math.sqrt(1e-8))
    assert ours == pytest.approx(ref, rel=1e-9)


def test_nonfinite_integrand_raises():
    with pytest.raises(QuadratureFailure), np.errstate(divide="ignore"):
        quad_adaptive(lambda z: 1.0 / z, -1.0, 1.0)


def test_budget_exhaustion_raises():
    rapidly = lambda z: math.sin(1.0 / (abs(z) + 1e-14))
    with pytest.raises(QuadratureFailure):
        quad_adaptive(rapidly, 0.0, 1.0, abs_tol=1e-14, rel_tol=1e-14,
                      max_subdivisions=4)


def test_cumulative_integral_antiderivative():
    ci = CumulativeIntegral(lambda z: z * z, 0.0)
    for x in [0.5, 1.0, -2.0, 3.0, 1.0, -2.0]:
        assert ci.at(x) == pytest.approx(x ** 3 / 3.0, rel=1e-10,
                                         abs=1e-12)


def test_cumulative_integral_is_memoized_and_consistent():
    calls = []

    def f(z):
        calls.append(z)
        return math.exp(-z)

    ci = CumulativeIntegral(f, 0.0)
    v1 = ci.at(5.0)
    n_calls = len(calls)
    v2 = ci.at(5.0)  # second query must not re-integrate
    assert v2 == v1
    assert len(calls) == n_calls
    # extending past a known point reuses the prefix
    v_further = ci.at(6.0)
    ref = 1.0 - math.exp(-6.0)
    assert v_further == pytest.approx(ref, rel=1e-10)

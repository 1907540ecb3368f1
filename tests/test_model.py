import math

import numpy as np
import pytest

from martprop.errors import (
    DimensionMismatch,
    PreconditionViolated,
    ValidationError,
)
from martprop.model import (
    DiffusionSpec,
    ExponentSpec,
    LocalizationPlan,
    modified_drift,
    require_scalar_homogeneous,
)

BM = DiffusionSpec.scalar("0", "1")


# --- construction and validation -------------------------------------------

def test_scalar_constructor_and_coercion():
    spec = DiffusionSpec.scalar("-x", 2)
    assert spec.dim == 1
    assert spec.b[0](0.0, 3.0) == -3.0
    assert spec.sigma[0][0](0.0, 0.0) == 2.0
    assert spec.homogeneous


def test_time_dependence_detection():
    assert not DiffusionSpec.scalar("t*x", "1").homogeneous


def test_dimension_mismatches():
    with pytest.raises(DimensionMismatch):
        DiffusionSpec(intervals=((-1, 1),), b=("0", "0"),
                      sigma=(("1", "0"), ("0", "1")), x0=(0, 0))
    with pytest.raises(DimensionMismatch):
        DiffusionSpec(intervals=((-1, 1), (-1, 1)), b=("0",),
                      sigma=(("1", "0"), ("0", "1")), x0=(0, 0))


def test_x0_must_be_interior():
    with pytest.raises(ValidationError):
        DiffusionSpec.scalar("0", "1", x0=1.0, interval=(0.0, 1.0))
    with pytest.raises(ValidationError):
        DiffusionSpec.scalar("0", "1", x0=0.0, interval=(1.0, 0.0))


def test_c_expr_is_sigma_sigma_transpose():
    spec = DiffusionSpec(intervals=((-math.inf, math.inf),) * 2,
                         b=("0", "0"), sigma=(("x", "1"), ("0", "2")),
                         x0=(0.5, 0.5))
    # c[0][0] = x^2 + 1 evaluated with x = coordinate 0
    assert spec.c_expr(0, 0)(0.0, 2.0) == 5.0
    assert spec.c_expr(0, 1)(0.0, 2.0) == 2.0
    assert spec.c_expr(1, 1)(0.0, 7.0) == 4.0


# --- Girsanov modification --------------------------------------------------

def test_modified_drift_scalar():
    spec = DiffusionSpec.scalar("-x", "1")
    mod = modified_drift(spec, ExponentSpec.scalar("x"))
    # b~ = -x + 1*x = 0 pointwise
    for xv in np.linspace(-5, 5, 21):
        assert mod.b[0](0.0, float(xv)) == pytest.approx(0.0, abs=1e-15)


def test_modified_drift_additive_in_beta():
    spec = DiffusionSpec.scalar("1", "2")
    m1 = modified_drift(spec, ExponentSpec.scalar("x"))
    m2 = modified_drift(spec, ExponentSpec.scalar("x^2"))
    m12 = modified_drift(spec, ExponentSpec.scalar("x + x^2"))
    for xv in np.linspace(-3, 3, 13):
        lhs = m12.b[0](0.0, float(xv))
        rhs = (m1.b[0](0.0, float(xv)) + m2.b[0](0.0, float(xv))
               - spec.b[0](0.0, float(xv)))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_modified_drift_refuses_a_cross_term_that_reads_x():
    # b~_0 = c_00 beta_0 + c_01 beta_1 = x0 + 0.5 x1, but x in drift
    # entry 0 is coordinate 0: the entry would read x + 0.5 x
    spec = DiffusionSpec(intervals=((-math.inf, math.inf),) * 2,
                         b=("0", "0"), sigma=(("1", "0"), ("0.5", "1")),
                         x0=(0.0, 0.0))
    with pytest.raises(ValidationError, match=r"c\[0\]\[1\] \* beta\[1\]"):
        modified_drift(spec, ExponentSpec(beta=("x", "x")))
    # an x-dependent c_01 is refused with an x-free beta too
    spec = DiffusionSpec(intervals=((-math.inf, math.inf),) * 2,
                         b=("0", "0"), sigma=(("1", "0"), ("x", "1")),
                         x0=(0.0, 0.0))
    with pytest.raises(ValidationError):
        modified_drift(spec, ExponentSpec(beta=("1", "1")))


def test_modified_drift_in_two_dimensions():
    # diagonal sigma: entry i needs only coordinate i
    spec = DiffusionSpec(intervals=((-math.inf, math.inf),) * 2,
                         b=("-x", "1"), sigma=(("2", "0"), ("0", "x")),
                         x0=(0.5, 0.5))
    mod = modified_drift(spec, ExponentSpec(beta=("x", "x^2")))
    assert mod.b[0](0.0, 1.5) == -1.5 + 4.0 * 1.5
    assert mod.b[1](0.0, 2.0) == 1.0 + 2.0 ** 4
    # constant correlated sigma and x-free beta: b~ = c beta with
    # c = [[1, 0.5], [0.5, 1.25]] and beta = (1, 2)
    spec = DiffusionSpec(intervals=((-math.inf, math.inf),) * 2,
                         b=("0", "0"), sigma=(("1", "0"), ("0.5", "1")),
                         x0=(0.0, 0.0))
    mod = modified_drift(spec, ExponentSpec(beta=("1", "2")))
    assert (mod.b[0](0.0, 7.0), mod.b[1](0.0, 7.0)) == (2.0, 3.0)


def test_dim_mismatch_between_spec_and_exponent():
    with pytest.raises(DimensionMismatch):
        modified_drift(BM, ExponentSpec(beta=("x", "x")))


# --- localization plans -----------------------------------------------------

def test_plan_validation():
    with pytest.raises(ValidationError):
        LocalizationPlan(levels=(4.0,), time_caps=(1.0,))
    with pytest.raises(ValidationError):
        LocalizationPlan(levels=(4.0, 2.0), time_caps=(1.0, 1.0))
    with pytest.raises(ValidationError):
        LocalizationPlan(levels=(2.0, 4.0), time_caps=(2.0, 1.0))
    with pytest.raises(ValidationError):
        LocalizationPlan(levels=(-1.0, 4.0), time_caps=(1.0, 1.0))


def test_geometric_plan_and_rho_level():
    plan = LocalizationPlan.geometric(first=8.0, count=4, horizon=1.0)
    assert plan.levels == (8.0, 16.0, 32.0, 64.0)
    # every cap exceeds the horizon, or that level's survival is 0
    assert plan.time_caps == (2.0, 3.0, 4.0, 5.0)
    assert LocalizationPlan.geometric(horizon=5.0).time_caps == (
        6.0, 7.0, 8.0, 9.0)


# --- gates -----------------------------------------------------------------

def test_require_scalar_homogeneous():
    require_scalar_homogeneous(BM, "test")
    with pytest.raises(PreconditionViolated):
        require_scalar_homogeneous(
            DiffusionSpec(intervals=((-1, 1), (-1, 1)),
                          b=("0", "0"), sigma=(("1", "0"), ("0", "1")),
                          x0=(0, 0)), "test")
    with pytest.raises(PreconditionViolated):
        require_scalar_homogeneous(DiffusionSpec.scalar("t", "1"), "test")

import math

import numpy as np
import pytest
from scipy import integrate

from martprop import catalog
from martprop.acceptance import _scaled
from martprop.errors import DegenerateDiffusion, PreconditionViolated
from martprop.feller import (
    classify_explosion,
    feller_v,
    log_scale_density,
    martingale_verdict,
    scale_density,
)
from martprop.model import (
    Classification,
    DiffusionSpec,
    ExponentSpec,
    modified_drift,
)

BM = DiffusionSpec.scalar("0", "1")
CUBIC_MOD = DiffusionSpec.scalar("x^3", "1")  # modified dynamics of beta=x^3
LINEAR_MOD = DiffusionSpec.scalar("x", "1")   # modified dynamics of beta=x


# --- scale density against closed forms -------------------------------------

def test_scale_density_closed_forms():
    # b=-x, c=1: s'(x) = exp(x^2)
    ou = DiffusionSpec.scalar("-x", "1")
    for xv in np.linspace(-2, 2, 9):
        assert scale_density(ou, float(xv), 0.0) == pytest.approx(
            math.exp(xv ** 2), rel=1e-8)
    # b=1, c=1: s'(x) = exp(-2x)
    drift = DiffusionSpec.scalar("1", "1")
    for xv in np.linspace(-3, 3, 7):
        assert scale_density(drift, float(xv), 0.0) == pytest.approx(
            math.exp(-2.0 * xv), rel=1e-8)


def test_log_scale_density_survives_huge_exponents():
    # s'(x) = exp(x^4/2) overflows in the linear domain well before x=40
    spec = DiffusionSpec.scalar("-x^3", "1")
    assert log_scale_density(spec, 40.0, 0.0) == pytest.approx(
        40.0 ** 4 / 2.0, rel=1e-8)


# --- v-integral against an independent scipy oracle -------------------------

def test_cubic_v_right_matches_high_precision_oracle():
    side = feller_v(CUBIC_MOD, "right", 0.0)
    assert side.status == "finite"
    # v(+inf) = int_0^inf 2 exp(z^4/2) int_z^inf exp(-y^4/2) dy dz
    # (Fubini of the nested form); evaluated at 30 decimal digits with
    # the inner integral windowed to its O(z^-3) boundary layer
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30

    def f(z):
        z = mp.mpf(z)
        inner = mp.quad(lambda y: mp.e ** ((z ** 4 - y ** 4) / 2),
                        [z, z + 20 / (1 + z ** 3)])
        return 2 * inner

    ref = float(mp.quad(f, [0, 1, 2, 4, 8, 16, 64, 256, 1024, mp.inf]))
    # the probe sequence stops once increments drop below 1e-3 * v, so
    # the returned value may undershoot by up to that relative amount
    assert side.value == pytest.approx(ref, rel=2e-3)


def test_brownian_motion_non_explosive():
    rep = classify_explosion(BM)
    assert rep.conclusion == "NonExplosive"
    assert rep.v_left.status == "infinite"
    assert rep.v_right.status == "infinite"


def test_linear_modified_non_explosive():
    # log-divergent case: v grows without decaying increments
    rep = classify_explosion(LINEAR_MOD)
    assert rep.conclusion == "NonExplosive"


def test_cubic_modified_explosive():
    rep = classify_explosion(CUBIC_MOD)
    assert rep.conclusion == "Explosive"


# --- internal consistency: xi and scaling invariance -------------------------

@pytest.mark.parametrize("spec,expected", [
    (BM, "NonExplosive"),
    (LINEAR_MOD, "NonExplosive"),
    (CUBIC_MOD, "Explosive"),
])
def test_xi_invariance(spec, expected):
    for xi in (-1.7, 0.0, 0.9):
        assert classify_explosion(spec, xi=xi).conclusion == expected


@pytest.mark.parametrize("spec,expected", [
    (LINEAR_MOD, "NonExplosive"),
    (CUBIC_MOD, "Explosive"),
])
@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_scaling_invariance(spec, expected, lam):
    scaled = DiffusionSpec.scalar(
        spec.b[0] * lam, spec.sigma[0][0] * math.sqrt(lam))
    assert classify_explosion(scaled).conclusion == expected


# --- closed forms and slowly decaying tails ------------------------------------

@pytest.mark.parametrize("xi", [0.5, 0.2])
def test_bounded_brownian_v_closed_forms(xi):
    # BM on (0, 1): s' = 1, so v_right = (1 - xi)^2 and v_left = xi^2.
    # The probes halve the distance to the endpoint, so the increments
    # shrink by a ratio just above 1/2 and only the geometric-remainder
    # rule decides; it stops once the remainder is below 1e-3 * v.
    spec = DiffusionSpec.scalar("0", "1", x0=xi, interval=(0.0, 1.0))
    for endpoint, exact in (("right", (1.0 - xi) ** 2), ("left", xi ** 2)):
        side = feller_v(spec, endpoint, xi)
        assert side.status == "finite"
        assert exact * (1.0 - 1e-3) <= side.value <= exact


def test_superlinear_kinked_drift_explodes():
    # b = |x|^1.5 explodes to +inf although the increments of v shrink
    # only by 2^-1/2 per probe; the kink of b at 0 must still resolve
    spec = DiffusionSpec.scalar("abs(x)^1.5", "1")
    rep = classify_explosion(spec)
    assert rep.conclusion == "Explosive"
    assert rep.v_left.status == "infinite"
    assert rep.v_right.status == "finite"
    # v(+inf) = int_0^inf J, J(z) = 2 int_z^inf exp(G(z) - G(y)) dy with
    # G = 0.8 x^2.5; beyond Z = 4096, J = z^-1.5 (1 + O(z^-2.5))
    def big_g(x):
        return 0.8 * x ** 2.5

    def inner(z):
        w = 30.0 / (1.0 + 2.0 * z ** 1.5)
        return 2.0 * integrate.quad(
            lambda y: math.exp(big_g(z) - big_g(y)), z, z + 10.0 * w,
            points=[z + w / 10.0, z + w], limit=200)[0]

    cuts = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0, 256.0, 1024.0, 4096.0]
    ref = sum(integrate.quad(inner, a, b, limit=200, epsrel=1e-12)[0]
              for a, b in zip(cuts, cuts[1:])) + 2.0 / math.sqrt(cuts[-1])
    # the probes stop once the remainder bound falls below 1e-3 * v
    assert ref * (1.0 - 1e-3) <= rep.v_right.value <= ref


# --- pinned decisions ------------------------------------------------------------

# (preset, dynamics, xi, lam, endpoint) -> (status, probes_used, v) over the
# criterion-9 variants (xi None is the preset's x0 = 0).  Captured with
# the nested adaptive quadrature that the collocation sweep replaced; v to
# 1e-9.  The identity-zero original rows also stand for identity-zero's
# modified dynamics and the brownian-* originals: all are b = 0, sigma = 1.
_PINNED = [
    ("identity-zero", "original", None, 1.0, "left", "infinite", 4, None),
    ("identity-zero", "original", None, 1.0, "right", "infinite", 4, None),
    ("identity-zero", "original", 0.6, 1.0, "left", "infinite", 4, None),
    ("identity-zero", "original", 0.6, 1.0, "right", "infinite", 4, None),
    ("identity-zero", "original", -1.3, 1.0, "left", "infinite", 4, None),
    ("identity-zero", "original", -1.3, 1.0, "right", "infinite", 4, None),
    ("identity-zero", "original", None, 0.5, "left", "infinite", 4, None),
    ("identity-zero", "original", None, 0.5, "right", "infinite", 4, None),
    ("identity-zero", "original", None, 2.0, "left", "infinite", 4, None),
    ("identity-zero", "original", None, 2.0, "right", "infinite", 4, None),
    ("brownian-linear", "modified", None, 1.0, "left", "infinite", 9, None),
    ("brownian-linear", "modified", None, 1.0, "right", "infinite", 9, None),
    ("brownian-linear", "modified", 0.6, 1.0, "left", "infinite", 13, None),
    ("brownian-linear", "modified", 0.6, 1.0, "right", "infinite", 4, None),
    ("brownian-linear", "modified", -1.3, 1.0, "left", "infinite", 5, None),
    ("brownian-linear", "modified", -1.3, 1.0, "right", "infinite", 14, None),
    ("brownian-linear", "modified", None, 0.5, "left", "infinite", 9, None),
    ("brownian-linear", "modified", None, 0.5, "right", "infinite", 9, None),
    ("brownian-linear", "modified", None, 2.0, "left", "infinite", 9, None),
    ("brownian-linear", "modified", None, 2.0, "right", "infinite", 9, None),
    ("brownian-cubic", "modified", None, 1.0, "left", "finite", 6, 1.6426426193417587),
    ("brownian-cubic", "modified", None, 1.0, "right", "finite", 6, 1.6426426193417585),
    ("brownian-cubic", "modified", 0.6, 1.0, "left", "finite", 6, 3.319503771886345),
    ("brownian-cubic", "modified", 0.6, 1.0, "right", "finite", 7, 0.698790785626838),
    ("brownian-cubic", "modified", -1.3, 1.0, "left", "finite", 7, 0.26235766519672477),
    ("brownian-cubic", "modified", -1.3, 1.0, "right", "finite", 5, 8.384903659853888),
    ("brownian-cubic", "modified", None, 0.5, "left", "finite", 6, 3.285285238683529),
    ("brownian-cubic", "modified", None, 0.5, "right", "finite", 6, 3.285285238683529),
    ("brownian-cubic", "modified", None, 2.0, "left", "finite", 6, 0.821321309670881),
    ("brownian-cubic", "modified", None, 2.0, "right", "finite", 6, 0.8213213096708809),
    ("ou-linear", "original", None, 1.0, "left", "infinite", 4, None),
    ("ou-linear", "original", None, 1.0, "right", "infinite", 4, None),
    ("ou-linear", "original", 0.6, 1.0, "left", "infinite", 4, None),
    ("ou-linear", "original", 0.6, 1.0, "right", "infinite", 4, None),
    ("ou-linear", "original", -1.3, 1.0, "left", "infinite", 3, None),
    ("ou-linear", "original", -1.3, 1.0, "right", "infinite", 4, None),
    ("ou-linear", "original", None, 0.5, "left", "infinite", 4, None),
    ("ou-linear", "original", None, 0.5, "right", "infinite", 4, None),
    ("ou-linear", "original", None, 2.0, "left", "infinite", 4, None),
    ("ou-linear", "original", None, 2.0, "right", "infinite", 4, None),
    ("ou-linear", "modified", None, 1.0, "left", "infinite", 4, None),
    ("ou-linear", "modified", None, 1.0, "right", "infinite", 4, None),
    ("ou-linear", "modified", 0.6, 1.0, "left", "infinite", 4, None),
    ("ou-linear", "modified", 0.6, 1.0, "right", "infinite", 4, None),
    ("ou-linear", "modified", -1.3, 1.0, "left", "infinite", 4, None),
    ("ou-linear", "modified", -1.3, 1.0, "right", "infinite", 4, None),
    ("ou-linear", "modified", None, 0.5, "left", "infinite", 4, None),
    ("ou-linear", "modified", None, 0.5, "right", "infinite", 4, None),
    ("ou-linear", "modified", None, 2.0, "left", "infinite", 4, None),
    ("ou-linear", "modified", None, 2.0, "right", "infinite", 4, None),
]


@pytest.mark.parametrize(
    "preset,dynamics,xi,lam,endpoint,status,probes,value", _PINNED)
def test_pinned_decisions(preset, dynamics, xi, lam, endpoint, status,
                          probes, value):
    p = catalog.get(preset)
    spec = p.spec if lam == 1.0 else _scaled(p.spec, lam)
    if dynamics == "modified":
        spec = modified_drift(spec, p.exponent)
    side = feller_v(spec, endpoint, spec.x0[0] if xi is None else xi)
    assert (side.status, side.probes_used) == (status, probes)
    if value is not None:
        assert side.value == pytest.approx(value, rel=1e-9)


def test_pinned_kinked_coefficient():
    side = feller_v(DiffusionSpec.scalar("abs(x)^1.5", "1"), "left", 0.0)
    assert (side.status, side.probes_used) == ("infinite", 4)


def test_xi_outside_interval_rejected():
    spec = DiffusionSpec.scalar("0", "1", x0=0.5, interval=(0.0, 1.0))
    with pytest.raises(PreconditionViolated):
        feller_v(spec, "right", 2.0)


# --- failure handling ---------------------------------------------------------

def test_degenerate_diffusion_yields_unknown():
    rep = classify_explosion(DiffusionSpec.scalar("0", "x"))
    assert rep.conclusion == "Unknown"
    assert rep.diagnostics


def test_multidimensional_rejected():
    spec2 = DiffusionSpec(dim=2, intervals=((-1, 1), (-1, 1)),
                          b=("0", "0"), sigma=(("1", "0"), ("0", "1")),
                          x0=(0, 0))
    with pytest.raises(PreconditionViolated):
        classify_explosion(spec2)


# --- full verdicts -------------------------------------------------------------

def test_verdicts():
    assert martingale_verdict(
        BM, ExponentSpec.scalar("0")).classification \
        is Classification.TRUE_MARTINGALE
    assert martingale_verdict(
        BM, ExponentSpec.scalar("x")).classification \
        is Classification.TRUE_MARTINGALE
    assert martingale_verdict(
        BM, ExponentSpec.scalar("x^3")).classification \
        is Classification.STRICT_LOCAL


def test_verdict_reports_both_tests():
    v = martingale_verdict(BM, ExponentSpec.scalar("x^3"))
    assert v.feller_original.conclusion == "NonExplosive"
    assert v.feller_modified.conclusion == "Explosive"
    assert any("uniqueness" in n for n in v.notes)


def test_grid_gate_on_degenerate_c():
    bad = DiffusionSpec.scalar("0", "x")  # c = x^2 vanishes at 0
    with pytest.raises(PreconditionViolated):
        martingale_verdict(bad, ExponentSpec.scalar("x"))
    v = martingale_verdict(bad, ExponentSpec.scalar("x"),
                           grid_checks="warn")
    assert v.notes  # recorded, not raised


def _first_bad_c(spec, zs):
    # scalar reference for the vectorized c > 0 checks
    c = spec.c_expr(0, 0)
    for z in zs:
        value = c.eval_raw(0.0, z)
        if not value > 0.0:
            return f"c({z}) = {value} is not positive"
        if not math.isfinite(value):
            return f"c({z}) is not finite"
    return None


@pytest.mark.parametrize("sigma", ["x", "x-2", "log(x)", "exp(x^2)",
                                   "0*x", "1/x", "sqrt(x-40)"])
def test_degenerate_c_messages_match_scalar_scan(sigma):
    spec = DiffusionSpec.scalar("0", sigma)
    grid = [-50.0 + 100.0 * (i + 0.5) / 201 for i in range(201)]
    expected = _first_bad_c(spec, grid)
    if expected is not None:
        with pytest.raises(PreconditionViolated) as gate:
            martingale_verdict(spec, ExponentSpec.scalar("x"))
        assert str(gate.value) == expected
    for endpoint, d in (("right", 1.0), ("left", -1.0)):
        path = [0.0] + [d * frac * 2.0 ** k for k in range(8)
                        for frac in (0.25, 0.5, 0.75, 1.0)]
        expected = _first_bad_c(spec, path)
        if expected is None:
            continue
        with pytest.raises(DegenerateDiffusion) as fail_fast:
            feller_v(spec, endpoint, 0.0)
        assert str(fail_fast.value) == expected


def test_soft_check_downgrades_to_inconclusive():
    # 1/x blows up inside the interval: boundedness check fails softly
    v = martingale_verdict(BM, ExponentSpec.scalar("1/x"))
    assert v.classification is Classification.INCONCLUSIVE


def test_modified_drift_feeds_feller():
    mod = modified_drift(BM, ExponentSpec.scalar("x^3"))
    assert mod.b[0](0.0, 2.0) == 8.0

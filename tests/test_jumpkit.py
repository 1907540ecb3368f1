import math
import re

import numpy as np
import pytest

from martprop import jumpkit
from martprop.errors import EvalDomain, JumpBoundViolation, ValidationError
from martprop.jumpkit import (
    Atom,
    DiscreteDist,
    GirsanovData,
    JumpTriplet,
    analyze_jump,
    atom_delta_R,
    atom_delta_R_closed_form,
    compute_R,
    compute_Uhat,
    simulate_jump_exponential,
    validate_jump,
)
from martprop.mc import SimConfig, fixed_grid
from martprop.model import Classification, DiffusionSpec, LocalizationPlan
from martprop.rng import JUMP_STREAM, path_generator

BM = DiffusionSpec.scalar("0", "1")
UNIT = DiscreteDist((1.0,), (1.0,))
POISSON_U4 = (JumpTriplet(base=BM, cp_rate=1.0, cp_dist=UNIT),
              GirsanovData(K="0", U="4"))
ATOM_HALF = (JumpTriplet(base=BM, atoms=(
    Atom(time=0.5, mass=0.5, dist=UNIT),)),
    GirsanovData(K="0", U="1.5"))


# --- discrete laws ------------------------------------------------------------

def test_discrete_dist_validation():
    with pytest.raises(ValidationError):
        DiscreteDist((1.0, 2.0), (0.5,))
    with pytest.raises(ValidationError):
        DiscreteDist((1.0, 2.0), (0.6, 0.6))
    with pytest.raises(ValidationError):
        DiscreteDist((1.0, 1.0), (0.5, 0.5))
    with pytest.raises(ValidationError):
        DiscreteDist((0.0,), (1.0,))  # zero is not a jump


def test_discrete_dist_expect_sample_reweight():
    d = DiscreteDist((1.0, -2.0), (0.25, 0.75))
    assert d.expect(lambda v: v) == pytest.approx(-1.25)
    assert d.sample(0.1) == 1.0
    assert d.sample(0.9) == -2.0
    rw = d.reweighted(lambda v: abs(v))
    assert rw.probs == pytest.approx((0.25 / 1.75, 1.5 / 1.75))


# --- atom bookkeeping -----------------------------------------------------------

def test_uhat_and_uprime():
    trip, gd = ATOM_HALF
    assert compute_Uhat(trip.atoms[0], gd) == pytest.approx(0.75)


def test_atom_delta_R_sum_equals_closed_form():
    trip, gd = ATOM_HALF
    atom = trip.atoms[0]
    dr = atom_delta_R(atom, gd)
    cf = atom_delta_R_closed_form(atom, gd)
    assert abs(dr - cf) / abs(cf) < 1e-12
    # hand value: 0.5(1-sqrt(1.5))^2 + (sqrt(0.5)-sqrt(0.25))^2
    ref = (0.5 * (1 - math.sqrt(1.5)) ** 2
           + (math.sqrt(0.5) - 0.5) ** 2)
    assert dr == pytest.approx(ref, rel=1e-14)


# --- admissibility validation ----------------------------------------------------

def test_validate_accepts_catalog_pairs():
    validate_jump(*POISSON_U4)
    validate_jump(*ATOM_HALF)


def test_validate_rejects_nonpositive_U():
    with pytest.raises(ValidationError):
        validate_jump(JumpTriplet(base=BM, cp_rate=1.0, cp_dist=UNIT),
                      GirsanovData(K="0", U="x - 1"))  # U(1) = 0


def test_validate_rejects_uhat_above_one():
    trip = JumpTriplet(base=BM, atoms=(
        Atom(time=0.5, mass=0.5, dist=UNIT),))
    with pytest.raises(ValidationError):
        validate_jump(trip, GirsanovData(K="0", U="3"))  # Uhat = 1.5


def test_validate_rejects_uhat_one_with_partial_mass():
    trip = JumpTriplet(base=BM, atoms=(
        Atom(time=0.5, mass=0.5, dist=UNIT),))
    with pytest.raises(ValidationError):
        validate_jump(trip, GirsanovData(K="0", U="2"))  # Uhat = 1, a = 0.5


def test_validate_full_mass_needs_uhat_one():
    trip = JumpTriplet(base=BM, atoms=(
        Atom(time=0.5, mass=1.0, dist=UNIT),))
    with pytest.raises(ValidationError):
        validate_jump(trip, GirsanovData(K="0", U="1.5"))
    validate_jump(trip, GirsanovData(K="0", U="1"))


# --- Hellinger-type process R -----------------------------------------------------

def test_R_pure_poisson_closed_form():
    trip, gd = POISSON_U4
    grid = np.linspace(0.0, 1.0, 101)
    r = compute_R(trip, gd, grid)
    # R_t = lambda t (1 - sqrt(4))^2 = t
    assert r.R[-1] == pytest.approx(1.0, rel=1e-12)
    assert np.all(np.diff(r.R) >= 0.0)


def test_R_constant_K_exact():
    trip = JumpTriplet(base=BM)
    r = compute_R(trip, GirsanovData(K="3", U="1"),
                  np.linspace(0.0, 2.0, 41))
    assert r.R[-1] == pytest.approx(18.0, rel=1e-12)  # K^2 c t


def test_R_state_dependent_K_needs_path():
    trip = JumpTriplet(base=BM)
    gd = GirsanovData(K="x", U="1")
    with pytest.raises(ValidationError):
        compute_R(trip, gd, np.linspace(0.0, 1.0, 11))
    grid = np.linspace(0.0, 1.0, 11)
    r = compute_R(trip, gd, grid, path_states=np.full(11, 2.0))
    assert r.R[-1] == pytest.approx(4.0, rel=1e-12)


def test_R_state_dependent_c_needs_path_unless_K_is_zero():
    trip = JumpTriplet(base=DiffusionSpec.scalar("0", "1 + x"))
    grid = np.linspace(0.0, 1.0, 11)
    gd = GirsanovData(K="1", U="1")
    with pytest.raises(ValidationError, match="needs path_states"):
        compute_R(trip, gd, grid)
    r = compute_R(trip, gd, grid, path_states=np.full(11, 2.0))
    assert r.R[-1] == pytest.approx(9.0, rel=1e-12)  # (1 + 2)^2 t
    assert compute_R(trip, GirsanovData(K="0", U="1"), grid).R[-1] == 0.0


def test_R_atom_jump_at_atom_time():
    trip, gd = ATOM_HALF
    grid = np.linspace(0.0, 1.0, 101)
    r = compute_R(trip, gd, grid)
    before = r.R[grid < 0.5][-1]
    at = r.R[grid >= 0.5][0]
    assert at - before == pytest.approx(
        atom_delta_R(trip.atoms[0], gd), rel=1e-12)


def test_R_counts_an_atom_once_on_a_grid_with_near_duplicate_times():
    # linspace gives 0.30000000000000004 next to the atom time 0.3
    trip = JumpTriplet(base=BM, atoms=(Atom(time=0.3, mass=0.5, dist=UNIT),))
    gd = GirsanovData(K="0", U="1.5")
    grid = fixed_grid(1.0, 0.1, (0.3,))
    assert 0.3 in grid and 0.30000000000000004 in grid
    dr = atom_delta_R(trip.atoms[0], gd)
    assert dr == pytest.approx(0.06815, abs=1e-5)
    assert compute_R(trip, gd, grid).R[-1] == dr


def test_R_counts_an_atom_between_grid_points_in_its_step():
    trip, gd = ATOM_HALF
    grid = np.array([0.0, 0.25, 0.75, 1.0])
    r = compute_R(trip, gd, grid)
    dr = atom_delta_R(trip.atoms[0], gd)
    np.testing.assert_array_equal(r.atom_part, [0.0, 0.0, dr, dr])


# --- simulation ---------------------------------------------------------------------

CFG = SimConfig(n_paths=2000, dt_max=0.01, horizon=1.0, seed=13)
PLAN = LocalizationPlan(levels=(8.0, 16.0, 24.0, 32.0),
                        time_caps=(2.0, 2.0, 2.0, 2.0))


def test_simulation_deterministic():
    trip, gd = POISSON_U4
    r1 = simulate_jump_exponential(trip, gd, CFG)
    r2 = simulate_jump_exponential(trip, gd, CFG)
    for a, b in zip(r1, r2):
        np.testing.assert_array_equal(a.z, b.z)


def test_delta_N_stays_above_minus_one():
    for trip, gd in (POISSON_U4, ATOM_HALF):
        for res in simulate_jump_exponential(trip, gd, CFG):
            assert float(np.min(res.min_delta_N)) > -1.0
            assert np.all(res.z > 0.0)


def test_compensator_identity():
    trip, gd = POISSON_U4
    _, rep = analyze_jump(trip, gd, 1.0, PLAN,
                          SimConfig(n_paths=4000, dt_max=0.005, horizon=1.0,
                                    seed=17))
    assert rep.passed


def test_verdict_true_martingale_for_bounded_K():
    trip = JumpTriplet(base=BM, cp_rate=1.0, cp_dist=UNIT)
    gd = GirsanovData(K="tanh(x)", U="1")
    v, _ = analyze_jump(trip, gd, 1.0, PLAN,
                        SimConfig(n_paths=2000, dt_max=0.01, horizon=1.0,
                                  seed=19))
    assert v.classification is Classification.TRUE_MARTINGALE


def test_verdict_strict_local_for_cubic_K():
    trip = JumpTriplet(base=BM)
    gd = GirsanovData(K="x^3", U="1")
    v, _ = analyze_jump(trip, gd, 1.0, PLAN,
                        SimConfig(n_paths=2000, dt_max=0.005, horizon=1.0,
                                  seed=19))
    assert v.classification is Classification.STRICT_LOCAL
    assert v.deficit_curve.deficit > 0.1


def test_curve_notes_each_level_capped_at_or_below_t_once():
    trip, gd = POISSON_U4
    plan = LocalizationPlan(levels=(4.0, 8.0, 16.0),
                            time_caps=(0.5, 1.0, 2.0))
    v, _ = analyze_jump(trip, gd, 1.0, plan,
                        SimConfig(n_paths=50, dt_max=0.05, horizon=1.0,
                                  seed=3))
    assert v.deficit_curve.notes[:2] == [
        "level 4.0: time cap 0.5 <= t, survival is 0 by construction",
        "level 8.0: time cap 1.0 <= t, survival is 0 by construction"]
    assert not any("time cap" in note for note in v.notes)


def test_jump_checks_refuse_t_beyond_the_horizon(monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated past the horizon")
    monkeypatch.setattr(jumpkit, "simulate_jump_exponential", no_simulation)
    trip, gd = POISSON_U4
    plan = LocalizationPlan(levels=(8.0, 16.0), time_caps=(3.0, 3.0))
    with pytest.raises(ValidationError, match="must not exceed the horizon"):
        analyze_jump(trip, gd, 2.0, plan, CFG)


# --- lockstep sampler ---------------------------------------------------------

def _within(samples, mean, var, z=5.0):
    samples = np.asarray(samples, dtype=np.float64)
    return abs(float(np.mean(samples)) - mean) <= z * math.sqrt(
        var / samples.size)


def test_cp_count_is_poisson_under_both_triplets():
    trip, gd = POISSON_U4
    cfg = SimConfig(n_paths=4000, dt_max=0.01, horizon=1.0, seed=5)
    # lambda t = 1; the modified rate is lambda E_F[U] = 4
    for res, mean in zip(simulate_jump_exponential(trip, gd, cfg),
                         (1.0, 4.0)):
        # K = 0 and U = 4: each jump adds (1 - sqrt(4))^2 = 1 to C(Z)
        counts = res.c_over_z_final
        np.testing.assert_array_equal(counts, np.round(counts))
        assert _within(counts, mean, mean)
        p0 = math.exp(-mean)
        assert _within(counts == 0, p0, p0 * (1.0 - p0))


def test_an_entrys_jump_sums_do_not_depend_on_the_entries_beside_it():
    # small counts on non-dyadic sizes: a matrix product rounds row k
    # differently inside a block than alone, for about one row in twenty
    rng = np.random.default_rng(0)
    sizes = np.array([0.3, -0.7, 0.1, 1.3, -0.45])
    for _ in range(50):
        counts = rng.poisson(0.7, size=(int(rng.integers(2, 200)), 5))
        c_terms = rng.uniform(0.0, 2.0, size=counts.shape)
        block = (jumpkit._count_weighted(counts, sizes),
                 jumpkit._count_weighted(counts, c_terms))
        for k in range(counts.shape[0]):
            alone = (jumpkit._count_weighted(counts[k:k + 1], sizes),
                     jumpkit._count_weighted(counts[k:k + 1],
                                             c_terms[k:k + 1]))
            assert (block[0][k], block[1][k]) == (alone[0][0], alone[1][0])


def test_paths_do_not_depend_on_the_paths_that_jump_beside_them(
        monkeypatch):
    # several jumps per step on a three-point law of non-dyadic sizes, and
    # modified rows that jump less often than the original ones: the same
    # paths, one or forty to a chunk, give the same bits
    trip = JumpTriplet(base=DiffusionSpec.scalar("-x", "1"), cp_rate=120.0,
                       cp_dist=DiscreteDist((0.3, -0.7, 0.1),
                                            (1 / 3, 1 / 3, 1 / 3)))
    gd = GirsanovData(K="0.5*sin(x)", U="0.1 + 0.05*x")
    cfg = SimConfig(n_paths=40, dt_max=0.05, horizon=1.0, seed=7,
                    explosion_guard=1e6)
    runs = []
    for chunk in (1, 40):
        monkeypatch.setattr(jumpkit, "CHUNK_SIZE", chunk)
        runs.append(simulate_jump_exponential(trip, gd, cfg))
    for a, b in zip(*runs):
        for field in a._fields:
            np.testing.assert_array_equal(getattr(a, field),
                                          getattr(b, field))


def test_paths_do_not_depend_on_the_paths_that_stop_beside_them(
        monkeypatch):
    # a low guard stops rows at different steps: a chunk of forty finds
    # its jumps' rows by search once a row has left, where a chunk of one
    # mostly indexes them directly
    trip = JumpTriplet(base=DiffusionSpec.scalar("0.5*x", "1"), cp_rate=8.0,
                       cp_dist=DiscreteDist((0.3, -0.7, 0.1),
                                            (0.2, 0.5, 0.3)),
                       atoms=(Atom(time=0.4, mass=0.5, dist=UNIT),))
    gd = GirsanovData(K="0.5*sin(x)", U="1.5 + 0.1*x")
    cfg = SimConfig(n_paths=40, dt_max=0.01, horizon=1.0, seed=11,
                    explosion_guard=3.0)
    runs = []
    for chunk in (1, 40):
        monkeypatch.setattr(jumpkit, "CHUNK_SIZE", chunk)
        runs.append(simulate_jump_exponential(
            trip, gd, cfg, levels=(1.0, 2.0, 3.0)))
    for a, b in zip(*runs):
        # some rows stop at the guard, the others reach the horizon
        assert 0 < np.isnan(a.z).sum() < cfg.n_paths
        for field in a._fields:
            np.testing.assert_array_equal(getattr(a, field),
                                          getattr(b, field))


def test_two_point_law_counts_per_support_point():
    # sizes 1 and 2 with U = (x + 1)^2 = 4 and 9: a jump adds 1 or 4 to
    # C(Z) and multiplies Z by 4 or 9, so (C, Z) give both counts
    lam, probs = 2.0, (0.25, 0.75)
    trip = JumpTriplet(base=BM, cp_rate=lam,
                       cp_dist=DiscreteDist((1.0, 2.0), probs))
    gd = GirsanovData(K="0", U="(x + 1)^2")
    compensator = lam * (probs[0] * 3.0 + probs[1] * 8.0)
    cfg = SimConfig(n_paths=4000, dt_max=0.01, horizon=1.0, seed=8)
    for res, weights in zip(simulate_jump_exponential(trip, gd, cfg),
                            ((1.0, 1.0), (4.0, 9.0))):
        c = res.c_over_z_final
        half_log = 0.5 * (np.log(res.z) + compensator)
        raw = (half_log - c * math.log(2.0)) / (
            math.log(3.0) - 4.0 * math.log(2.0))
        n2 = np.round(raw)
        assert np.max(np.abs(raw - n2)) < 1e-6
        n1 = c - 4.0 * n2
        for counts, p, w in zip((n1, n2), probs, weights):
            assert np.all(counts >= 0.0)
            assert _within(counts, lam * p * w, lam * p * w)


def test_atom_fires_with_its_mass_and_with_uhat_when_modified():
    trip, gd = ATOM_HALF
    cfg = SimConfig(n_paths=4000, dt_max=0.01, horizon=1.0, seed=9)
    for res, mass in zip(simulate_jump_exponential(trip, gd, cfg),
                         (0.5, 0.75)):
        # Delta N = U - 1 = 0.5 when the atom fires and
        # -(Uhat - a)/(1 - a) = -0.5 when it does not
        fired = res.min_delta_N == 0.5
        assert np.all(fired | (res.min_delta_N == -0.5))
        assert _within(fired, mass, mass * (1.0 - mass))


def test_non_finite_coefficient_names_path_time_and_state():
    trip = JumpTriplet(base=BM)
    # "1/t" is free of x, so the step reads it from its per-grid-time table
    for k in ("1/x", "1/t"):
        with pytest.raises(EvalDomain, match=r"on path 0 at t=0, x=0\.0"):
            simulate_jump_exponential(trip, GirsanovData(K=k, U="1"), CFG)


def test_jump_of_minus_one_after_rounding_is_rejected():
    # U = 1e-20 passes validation (U > 0), but Delta N = U - 1 rounds to -1
    trip = JumpTriplet(base=BM, cp_rate=1.0, cp_dist=UNIT)
    gd = GirsanovData(K="0", U="1e-20")
    with pytest.raises(JumpBoundViolation, match=r"Delta N = -1\.0 <= -1"):
        simulate_jump_exponential(trip, gd, CFG)


@pytest.mark.parametrize("k, error, message", [
    pytest.param("0", JumpBoundViolation,
                 "Delta N = -1.0 <= -1 at t=0.65 on path 3", id="bound"),
    pytest.param("log(0.5 - t)", EvalDomain,
                 "non-finite coefficient on path 0 at t=0.5, "
                 "x=0.8683018476881939", id="domain-first"),
])
def test_jump_bound_is_checked_at_the_step_where_the_jump_lands(k, error,
                                                                message):
    # U = exp(-60 t) is positive, but Delta N = U - 1 rounds to -1 once
    # U <= 2^-54, from the grid time 0.65 on: the bound fails at the
    # first step from there in which a path jumps, not before, and a
    # K that leaves its domain at t = 0.5 raises first
    trip = JumpTriplet(base=BM, cp_rate=2.0, cp_dist=UNIT)
    cfg = SimConfig(n_paths=50, dt_max=0.05, horizon=1.0, seed=4)
    with pytest.raises(error) as exc:
        simulate_jump_exponential(
            trip, GirsanovData(K=k, U="exp(-60*t)"), cfg)
    assert str(exc.value) == message


def test_time_dependent_U_is_checked_at_every_grid_time():
    trip = JumpTriplet(base=BM, cp_rate=1.0, cp_dist=UNIT)
    gd = GirsanovData(K="0", U="1 - t")  # admissible at t = 0, 0 at t = 1
    with pytest.raises(ValidationError,
                       match=r"U\(t=1\.0, x=1\.0\) = 0\.0 must be positive"):
        simulate_jump_exponential(
            trip, gd, SimConfig(n_paths=10, dt_max=0.25, horizon=1.5, seed=1))


@pytest.mark.parametrize("trip, gd, levels", [
    pytest.param(*POISSON_U4, (6.0,), id="poisson-U4"),
    pytest.param(*ATOM_HALF, (1.5, 2.5), id="atom-half"),
    pytest.param(JumpTriplet(base=BM, cp_rate=1.0,
                             cp_dist=DiscreteDist((0.5, 1.0), (0.5, 0.5))),
                 GirsanovData(K="0.5*tanh(x)", U="(1 + t)*(1 + x)"),
                 (3.0, 6.0), id="U-of-t-and-y"),
])
def test_modified_rows_follow_girsanov(trip, gd, levels):
    # Girsanov: Q(sup |X| < m on [0, t]) = E_P[Z_t 1{sup |X| < m on
    # [0, t]}].  The grid's likelihood ratio of the modified to the
    # original rows is Z itself (Gaussian steps with drift b against
    # b + K c, Poisson counts at rate lambda p_j against lambda p_j U_j,
    # atom fire and size laws), so the two sides agree up to MC noise on
    # any grid.  A drift the modified rows get twice moves them apart.
    cfg = SimConfig(n_paths=20000, dt_max=0.01, horizon=1.0, seed=7)
    original, modified = simulate_jump_exponential(
        trip, gd, cfg, levels=levels)
    for j, m in enumerate(levels):
        p_side = np.where(original.passage_times[:, j] > 1.0,
                          original.z, 0.0)
        q_side = modified.passage_times[:, j] > 1.0
        se = math.hypot(np.std(p_side, ddof=1), np.std(q_side, ddof=1))
        gap = float(np.mean(p_side) - np.mean(q_side))
        assert abs(gap) <= 4.0 * se / math.sqrt(cfg.n_paths), (m, gap)


def _poisson_inverse(u, mu):
    k, term = 0, math.exp(-mu)
    acc = term
    while u >= acc:
        k += 1
        term *= mu / k
        acc += term
    return k


def _reference_path(trip, gd, grid, seed, path, levels, guard, modified):
    """One path by a scalar loop over the documented streams; Z is nan
    where the path stops at the guard."""
    sizes, probs = trip.cp_dist.support, trip.cp_dist.probs
    lam, atom = trip.cp_rate, trip.atoms[0]
    steps = len(grid) - 1
    normals = path_generator(seed, path).standard_normal(steps)
    uniforms = path_generator(seed, path, JUMP_STREAM).random(
        steps * len(sizes) + 2)
    x, log_zc, prod, r, coz, dn_min = trip.base.x0[0], 0.0, 1.0, 0.0, 0.0, \
        math.inf
    multi = set()  # support points with a count of 2 or more in a step
    passage = [math.inf] * len(levels)
    for i in range(steps):
        t0, t1 = grid[i], grid[i + 1]
        dt = t1 - t0
        u = [gd.u(t0, y) for y in sizes]
        b = trip.base.b[0](t0, x)
        s = trip.base.sigma[0][0](t0, x)
        c = s * s
        k = gd.K(t0, x)
        if modified:
            b += k * c
        dw = normals[i] * math.sqrt(dt)
        log_zc += k * s * dw - 0.5 * k * k * c * dt - lam * sum(
            p * (v - 1) for p, v in zip(probs, u)) * dt
        r += k * k * c * dt + lam * sum(
            p * (1 - math.sqrt(v)) ** 2 for p, v in zip(probs, u)) * dt
        coz += k * k * c * dt
        x += b * dt + s * dw
        for j, (y, p, v) in enumerate(zip(sizes, probs, u)):
            mu = lam * dt * p * (v if modified else 1.0)
            count = _poisson_inverse(uniforms[i * len(sizes) + j], mu)
            if count > 1:
                multi.add(j)
            if count:
                x += count * y
                prod *= v ** count
                dn_min = min(dn_min, v - 1)
                coz += count * (1 - math.sqrt(v)) ** 2
        if t1 == atom.time:
            uhat = atom.mass * atom.dist.expect(lambda y: gd.u(t1, y))
            law = (atom.dist.reweighted(lambda y: gd.u(t1, y)) if modified
                   else atom.dist)
            if uniforms[-2] < (uhat if modified else atom.mass):
                y = law.sample(uniforms[-1])
                x += y
                dn = gd.u(t1, y) - 1
            else:
                dn = -(uhat - atom.mass) / (1 - atom.mass)
            prod *= 1 + dn
            dn_min = min(dn_min, dn)
            r += atom_delta_R(atom, gd)
            coz += (1 - math.sqrt(1 + dn)) ** 2
        for j, m in enumerate(levels):
            if passage[j] == math.inf and abs(x) >= m:
                passage[j] = t1
        if abs(x) >= guard:
            return (math.nan, passage, dn_min, r, coz, multi)
    return (math.exp(log_zc) * prod, passage, dn_min, r, coz, multi)


_STATE_COEFS = ("-x", "1 + 0.1*x^2", "tanh(x)")
_TIME_COEFS = ("0.5*t", "1 + t", "0.3*t")  # read from per-grid-time tables
_FEW_JUMPS = (3.0, DiscreteDist((0.5, -1.5), (0.4, 0.6)))
# at rate 40 and dt 0.05 a step's count is 2 or more with probability
# about 0.2 to 0.5 on each support point; small sizes keep some paths
# below the guard
_MANY_JUMPS = (40.0, DiscreteDist((0.25, -0.2), (0.4, 0.6)))


@pytest.mark.parametrize("modified, b, sigma, k, cp", [
    pytest.param(False, *_STATE_COEFS, _FEW_JUMPS, id="False"),
    pytest.param(True, *_STATE_COEFS, _FEW_JUMPS, id="True"),
    pytest.param(False, *_TIME_COEFS, _FEW_JUMPS, id="False-x-free"),
    pytest.param(True, *_TIME_COEFS, _FEW_JUMPS, id="True-x-free"),
    pytest.param(False, *_STATE_COEFS, _MANY_JUMPS, id="False-many-jumps"),
    pytest.param(True, *_STATE_COEFS, _MANY_JUMPS, id="True-many-jumps"),
])
def test_lockstep_chunks_match_a_scalar_loop_per_path(monkeypatch, modified,
                                                      b, sigma, k, cp):
    # state- or time-dependent coefficients, a time-dependent U on a
    # two-point law, an atom off the regular grid, and a guard that stops
    # some paths; the original or the modified triplet of the one pass
    # that steps both, against its own loop
    base = DiffusionSpec.scalar(b, sigma, x0=0.2)
    rate, law = cp
    trip = JumpTriplet(
        base=base, cp_rate=rate, cp_dist=law,
        atoms=(Atom(time=0.375, mass=0.4,
                    dist=DiscreteDist((1.0, 2.0), (0.7, 0.3))),))
    gd = GirsanovData(K=k, U="1 + 0.5*t + 0.1*x")
    levels = (0.5, 1.5)
    cfg = SimConfig(n_paths=40, dt_max=0.05, horizon=1.0, seed=3,
                    explosion_guard=2.5)
    monkeypatch.setattr(jumpkit, "CHUNK_SIZE", 7)
    # 2 * 7 rows and 2 support points: jumps are found 3 steps at a time
    monkeypatch.setattr(jumpkit, "JUMP_BLOCK_CELLS", 100)
    res = simulate_jump_exponential(trip, gd, cfg, levels=levels)[modified]
    grid = fixed_grid(1.0, 0.05, (0.375,))
    stopped, multi = 0, set()
    for p in range(cfg.n_paths):
        z, pas, dn_min, r, coz, path_multi = _reference_path(
            trip, gd, grid, 3, p, levels, 2.5, modified)
        stopped += math.isnan(z)
        multi |= path_multi
        np.testing.assert_allclose(res.z[p], z, rtol=1e-11)
        np.testing.assert_array_equal(res.passage_times[p], pas)
        np.testing.assert_allclose(res.min_delta_N[p], dn_min, rtol=1e-13)
        np.testing.assert_allclose(res.r_final[p], r, rtol=1e-11)
        np.testing.assert_allclose(res.c_over_z_final[p], coz, rtol=1e-11)
    assert 0 < stopped < cfg.n_paths
    if cp is _MANY_JUMPS:
        assert multi == {0, 1}


def _first_error(b, k):
    """The EvalDomain of one pass on Brownian noise with drift b and
    exponent K, as (t, x)."""
    trip = JumpTriplet(base=DiffusionSpec.scalar(b, "1"))
    cfg = SimConfig(n_paths=20, dt_max=0.01, horizon=1.0, seed=1)
    with pytest.raises(EvalDomain) as exc:
        simulate_jump_exponential(trip, GirsanovData(K=k, U="1"), cfg)
    t, x = re.search(r"at t=(\S+), x=(\S+)$", str(exc.value)).groups()
    return float(t), float(x)


def test_shared_pass_raises_the_first_error_it_meets():
    # b + K c = b + 100 carries the modified paths up at about 100 while
    # the original ones stay near 0.  log(0.5 - t) leaves its domain at
    # t = 0.5 on every path of both triplets: at one step, the original
    # triplet's error comes first
    t, x = _first_error("log(0.5 - t)", "100")
    assert t == 0.5 and abs(x) < 10.0
    # log(40 - x) leaves it only on the modified paths, before t = 0.5:
    # an earlier step comes first, whichever triplet meets it
    t, x = _first_error("log(40 - x) + log(0.5 - t)", "100")
    assert t < 0.5 and x >= 40.0

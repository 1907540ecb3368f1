"""Generalized stochastic exponentials over jump-diffusion triplets.

A :class:`JumpTriplet` is a 1-d diffusion plus a compound-Poisson stream
(rate lambda, finite discrete size law F) plus scheduled atoms: at time
t_k a jump fires with probability a_k and size law G_k.  The exponent is
N = K . X^c + U' * (mu - nu) with U' = U - 1 + (Uhat - a)/(1 - a)
(0/0 = 0), Uhat_t = int U(t, x) nu({t} x dx), and the exponential is
Z = E(N) via the Doleans-Dade product formula.

All size laws are finite and discrete, so Uhat, E_F[(1 - sqrt(U))^2] and
the modified-measure reweightings are exact sums.  The Hellinger-type
process R = int K^2 c ds + lambda int E_F[(1-sqrt(U))^2] ds + atom terms
governs integrability; its finiteness along modified paths is the
jump-case martingale criterion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import (EvalDomain, JumpBoundViolation, ValidationError)
from .expr import CoefficientExpr
from .mc import CHUNK_SIZE, SimConfig, map_chunks, survival_curve
from .model import (Classification, DiffusionSpec, LocalizationPlan,
                    MartingaleVerdict)
from .rng import normal_block, uniform_block

_TOL = 1e-12


def _as_expr(e, what):
    if isinstance(e, CoefficientExpr):
        return e
    if isinstance(e, str):
        return CoefficientExpr.parse(e)
    if isinstance(e, (int, float)):
        return CoefficientExpr.constant(float(e))
    raise ValidationError(f"{what}: cannot interpret {e!r} as an expression")


@dataclass(frozen=True)
class DiscreteDist:
    """Finite discrete law on jump sizes."""

    support: tuple
    probs: tuple

    def __post_init__(self):
        object.__setattr__(self, "support",
                           tuple(float(v) for v in self.support))
        object.__setattr__(self, "probs",
                           tuple(float(p) for p in self.probs))
        if len(self.support) != len(self.probs) or not self.support:
            raise ValidationError("support and probs must match, non-empty")
        if len(set(self.support)) != len(self.support):
            raise ValidationError("support points must be distinct")
        if any(p <= 0 for p in self.probs):
            raise ValidationError("probabilities must be positive")
        if abs(sum(self.probs) - 1.0) > _TOL:
            raise ValidationError(
                f"probabilities sum to {sum(self.probs)}, expected 1")
        if any(v == 0.0 for v in self.support):
            raise ValidationError("jump size 0 is not a jump")

    def expect(self, fn):
        return sum(p * fn(v) for v, p in zip(self.support, self.probs))

    def sample(self, u):
        """Inverse-CDF draw from a uniform in [0, 1)."""
        acc = 0.0
        for v, p in zip(self.support, self.probs):
            acc += p
            if u < acc:
                return v
        return self.support[-1]

    def reweighted(self, weight_fn):
        """New law with density proportional to weight_fn; exact sum."""
        w = [p * weight_fn(v) for v, p in zip(self.support, self.probs)]
        total = sum(w)
        if total <= 0:
            raise ValidationError("reweighting weights must be positive")
        return DiscreteDist(self.support, tuple(v / total for v in w))


@dataclass(frozen=True)
class Atom:
    time: float
    mass: float          # a_k in (0, 1]
    dist: DiscreteDist   # G_k

    def __post_init__(self):
        if not 0.0 < self.mass <= 1.0:
            raise ValidationError(f"atom mass {self.mass} outside (0, 1]")
        if self.time <= 0:
            raise ValidationError("atom times must be positive")


@dataclass(frozen=True)
class JumpTriplet:
    base: DiffusionSpec
    cp_rate: float = 0.0
    cp_dist: DiscreteDist = None
    atoms: tuple = ()

    def __post_init__(self):
        if self.base.dim != 1:
            raise ValidationError("jump kit requires a 1-d base diffusion")
        if self.cp_rate < 0:
            raise ValidationError("cp_rate must be nonnegative")
        if self.cp_rate > 0 and self.cp_dist is None:
            raise ValidationError("cp_rate > 0 needs a jump size law")
        times = [a.time for a in self.atoms]
        if sorted(set(times)) != times:
            raise ValidationError("atom times must be strictly increasing")

    def atom_at(self, t):
        for a in self.atoms:
            if abs(a.time - t) <= _TOL:
                return a
        return None


@dataclass(frozen=True)
class GirsanovData:
    K: CoefficientExpr       # exponent of the continuous part, in (t, x)
    U: CoefficientExpr       # jump reweighting, in (t, x = jump size)

    def __post_init__(self):
        object.__setattr__(self, "K", _as_expr(self.K, "K"))
        object.__setattr__(self, "U", _as_expr(self.U, "U"))

    def u(self, t, x):
        return float(_u_table(self, [t], [x])[0, 0])


@dataclass
class HellingerPath:
    times: np.ndarray
    R: np.ndarray
    continuous_part: np.ndarray
    cp_part: np.ndarray
    atom_part: np.ndarray


def compute_Uhat(trip: JumpTriplet, gd: GirsanovData, t: float) -> float:
    """Uhat_t = a_k sum_x G_k(x) U(t_k, x) at atoms, 0 elsewhere."""
    atom = trip.atom_at(t)
    if atom is None:
        return 0.0
    value = atom.mass * atom.dist.expect(lambda x: gd.u(t, x))
    if value > 1.0 + _TOL:
        raise ValidationError(
            f"Uhat({t}) = {value} exceeds 1; U is inadmissible")
    return min(value, 1.0)


def validate(trip: JumpTriplet, gd: GirsanovData):
    """Admissibility of (triplet, Girsanov data); raises ValidationError.

    Checks U > 0 on every size law's support (at t = 0 and atom times),
    Uhat <= 1 with {a = 1} implying {Uhat = 1}, and rejects the boundary
    configuration Uhat = 1 with a < 1 (there the no-fire branch gives
    Delta N = -1 exactly, i.e. Z hits zero).
    """
    check_times = [0.0] + [a.time for a in trip.atoms]
    if trip.cp_dist is not None:
        for t in check_times:
            for x in trip.cp_dist.support:
                gd.u(t, x)
    for atom in trip.atoms:
        for x in atom.dist.support:
            gd.u(atom.time, x)
        uhat = compute_Uhat(trip, gd, atom.time)
        if atom.mass >= 1.0 - _TOL and abs(uhat - 1.0) > 1e-9:
            raise ValidationError(
                f"atom at t={atom.time}: mass 1 requires Uhat = 1, "
                f"got {uhat}")
        if atom.mass < 1.0 - _TOL and abs(uhat - 1.0) <= 1e-9:
            raise ValidationError(
                f"atom at t={atom.time}: Uhat = 1 with mass {atom.mass} < 1 "
                "makes Delta N = -1 on the no-fire branch (Z would hit 0); "
                "rejected")


# unambiguous name for the package namespace
validate_jump = validate


def atom_delta_R(atom: Atom, gd: GirsanovData, trip: JumpTriplet) -> float:
    """Atom increment of R, sum form:
    a sum_G (1 - sqrt(U))^2 + (sqrt(1-a) - sqrt(1-Uhat))^2."""
    t = atom.time
    uhat = compute_Uhat(trip, gd, t)
    jump_term = atom.mass * atom.dist.expect(
        lambda x: (1.0 - math.sqrt(gd.u(t, x))) ** 2)
    still_term = (math.sqrt(1.0 - atom.mass)
                  - math.sqrt(max(0.0, 1.0 - uhat))) ** 2
    return jump_term + still_term


def atom_delta_R_closed_form(atom: Atom, gd: GirsanovData,
                             trip: JumpTriplet) -> float:
    """Equivalent closed form 2(1 - a sum_G sqrt(U) - sqrt((1-a)(1-Uhat)));
    always <= 2."""
    t = atom.time
    uhat = compute_Uhat(trip, gd, t)
    weighted_root = atom.mass * atom.dist.expect(
        lambda x: math.sqrt(gd.u(t, x)))
    return 2.0 * (1.0 - weighted_root
                  - math.sqrt(max(0.0, (1.0 - atom.mass) * (1.0 - uhat))))


def _grid(trip, horizon, dt_max, extra=()):
    steps = max(1, int(math.ceil(horizon / dt_max)))
    times = set(np.linspace(0.0, horizon, steps + 1).tolist())
    times.update(a.time for a in trip.atoms if a.time <= horizon)
    times.update(float(t) for t in extra if 0.0 < t <= horizon)
    return np.array(sorted(times))


def compute_R(trip: JumpTriplet, gd: GirsanovData, grid,
              path_states=None) -> HellingerPath:
    """Hellinger-type process R on a time grid.

    When K depends on the state, `path_states` (one value per grid time)
    supplies the path along which the predictable process is evaluated;
    deterministic K needs no path.  Each step adds K^2 c dt at its start
    point, the compound-Poisson term from the simulation's per-step
    tables, and the Delta R of each atom in (t0, t1].
    """
    grid = np.asarray(grid, dtype=np.float64)
    k_state_dep = "x" in gd.K.free_variables()
    if k_state_dep and path_states is None:
        raise ValidationError(
            "K depends on the state; compute_R needs path_states")
    if path_states is None:
        path_states = np.full(len(grid), trip.base.x0[0])
    path_states = np.asarray(path_states, dtype=np.float64)
    if len(path_states) != len(grid):
        raise ValidationError("path_states must match the grid length")
    t0, dt, x0 = grid[:-1], np.diff(grid), path_states[:-1]
    c_expr = trip.base.c_expr(0, 0)
    kv = gd.K.eval_array(t0, x0)
    cv = c_expr.eval_array(t0, x0)
    finite = np.isfinite(kv) & np.isfinite(cv)
    if not np.all(finite):
        i = int(np.argmin(finite))
        expr = gd.K if not np.isfinite(kv[i]) else c_expr
        raise EvalDomain(f"{expr.render()} is not finite at "
                         f"(t={float(t0[i])}, x={float(x0[i])})")
    n = len(grid)
    cont = np.zeros(n)
    cont[1:] = np.cumsum(kv * kv * cv * dt)
    cp = np.zeros(n)
    if trip.cp_rate > 0:
        cp[1:] = np.cumsum(_cp_steps(trip, gd, grid, False).hellinger * dt)
    atom_part = np.zeros(n)
    for atom in _atom_steps(trip, gd, grid, False, 0):
        atom_part[atom.step + 1:] += atom.delta_r
    R = cont + cp + atom_part
    return HellingerPath(times=grid, R=R, continuous_part=cont,
                         cp_part=cp, atom_part=atom_part)


class JumpSimResult(NamedTuple):
    """Per-path outputs, in path-index order."""

    z_evals: np.ndarray        # (n_paths, E)
    z_final: np.ndarray
    passage_times: np.ndarray  # (n_paths, L)
    z_at_passage: np.ndarray
    min_delta_N: np.ndarray    # most negative Delta N per path (inf if none)
    r_final: np.ndarray
    c_over_z_final: np.ndarray  # int (1/Z_-^2) dC(Z) at the horizon


@dataclass(frozen=True)
class _CompoundPoissonSteps:
    """Compound-Poisson tables: one row per grid step, one column per
    support point y_j of the size law."""

    sizes: np.ndarray        # (J,)
    cdf: np.ndarray          # (steps, J, k_max + 1): CDF of each count
    delta_n: np.ndarray      # Delta N of one jump, U' = U(t0, y_j) - 1
    c_term: np.ndarray       # its term of C(Z), (1 - sqrt(1 + Delta N))^2
    compensator: np.ndarray  # (steps,) lambda E_F[U - 1], drift of log Z
    hellinger: np.ndarray    # (steps,) lambda E_F[(1 - sqrt(U))^2], dR/dt
    drift_shift: np.ndarray  # (steps,) lambda E_F[h (U - 1)] when modified


@dataclass(frozen=True)
class _AtomStep:
    """One scheduled atom; it fires at the end of grid step `step`."""

    step: int
    column: int              # its two uniforms: fire, then size
    fire_mass: float
    size_cdf: np.ndarray
    sizes: np.ndarray
    delta_n_fired: np.ndarray  # per support point
    delta_n_still: float
    delta_r: float


def _u_table(gd, times, sizes):
    """U on times x sizes through eval_array.  Raises ValidationError at
    the first entry, in (time, size) order, that is not positive and
    finite."""
    tt, yy = np.meshgrid(times, sizes, indexing="ij")
    u = gd.U.eval_array(tt, yy)
    bad = ~(np.isfinite(u) & (u > 0.0))
    if bad.any():
        i, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise ValidationError(
            f"U(t={float(times[i])}, x={float(sizes[j])}) = "
            f"{float(u[i, j])} must be positive and finite")
    return u


def _poisson_cdf(mu):
    """CDF of Poisson(mu) at 0..k_max along a new last axis.  The tail past
    k_max = mu + 12 sqrt(mu) + 12 (for the largest mu) is far below the
    2^-53 resolution of a uniform."""
    top = float(np.max(mu))
    k = np.arange(int(math.ceil(top + 12.0 * math.sqrt(top) + 12.0)) + 1)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(k[1:]))))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_mu = np.log(mu)[..., None]
        log_pmf = (np.where(k == 0, 0.0, k * log_mu) - mu[..., None]
                   - log_fact)
    return np.cumsum(np.exp(log_pmf), axis=-1)


def _cp_steps(trip, gd, grid, modified):
    """Per-grid-time compound-Poisson tables.  Jumps to y_j in a step are
    Poisson(lambda dt p_j) under the original triplet and Poisson(lambda
    dt p_j U(t0, y_j)) under the modified one: rate lambda E_F[U] and law
    U.F / E_F[U], split by support point."""
    sizes = np.array(trip.cp_dist.support)
    probs = np.array(trip.cp_dist.probs)
    t0, dt = grid[:-1], np.diff(grid)
    u = _u_table(gd, t0, sizes)
    lam = trip.cp_rate
    weight = probs * u if modified else np.broadcast_to(probs, u.shape)
    delta_n = u - 1.0
    h = np.where(np.abs(sizes) <= 1.0, sizes, 0.0)
    return _CompoundPoissonSteps(
        sizes=sizes,
        cdf=_poisson_cdf(lam * dt[:, None] * weight),
        delta_n=delta_n,
        c_term=(1.0 - np.sqrt(1.0 + delta_n)) ** 2,
        compensator=lam * (delta_n @ probs),
        hellinger=lam * ((1.0 - np.sqrt(u)) ** 2 @ probs),
        drift_shift=(lam * ((h * delta_n) @ probs) if modified
                     else np.zeros(len(t0))))


def _atom_steps(trip, gd, grid, modified, first_column):
    """One _AtomStep per atom on the grid, in time order."""
    out = []
    for atom in trip.atoms:
        if not grid[0] < atom.time <= grid[-1]:
            continue
        t = atom.time
        uhat = compute_Uhat(trip, gd, t)
        if modified:
            # mass Uhat; law proportional to a G U, normalized
            fire_mass = uhat
            law = atom.dist.reweighted(lambda y: gd.u(t, y))
        else:
            fire_mass, law = atom.mass, atom.dist
        if atom.mass >= 1.0 - _TOL:
            still = 0.0
        else:
            still = -(uhat - atom.mass) / (1.0 - atom.mass)
        out.append(_AtomStep(
            step=int(np.searchsorted(grid, t)) - 1,
            column=first_column + 2 * len(out),
            fire_mass=fire_mass,
            size_cdf=np.cumsum(law.probs),
            sizes=np.array(law.support),
            delta_n_fired=_u_table(gd, [t], law.support)[0] - 1.0,
            delta_n_still=still,
            delta_r=atom_delta_R(atom, gd, trip)))
    return out


def _check_jump_bound(delta_n, t, paths):
    bad = delta_n <= -1.0
    if np.any(bad):
        r = int(np.argmax(bad))
        raise JumpBoundViolation(
            f"Delta N = {float(delta_n[r])} <= -1 at t={t} on path "
            f"{int(paths[r])}")


def simulate_jump_exponential(trip: JumpTriplet, gd: GirsanovData,
                              config: SimConfig, *, levels=(),
                              eval_times=None,
                              modified=False) -> JumpSimResult:
    """Simulate (X, N, Z) pathwise on a fixed grid; Z via the Doleans-Dade
    product.

    With modified=True the paths follow the Girsanov-modified triplet
    (used by verdict_jump) while R is still evaluated with the original
    (trip, gd) data along those paths.

    The paths of a chunk (CHUNK_SIZE paths, through `map_chunks`, on one
    thread) advance together, and everything that depends only on
    (t, jump size) is tabulated once per grid time.  Path p reads only
    its own streams of (seed, p): one main-stream normal per step, and
    on the jump stream one uniform per step and compound-Poisson support
    point (that point's jump count, by inversion of its Poisson CDF),
    then two per atom (fire, size).  So results do not depend on
    chunking or ordering.
    """
    validate(trip, gd)
    if eval_times is None:
        eval_times = (config.horizon,)
    eval_times = tuple(sorted(set(float(t) for t in eval_times)))
    levels = np.array([float(m) for m in levels])
    grid = _grid(trip, config.horizon, config.dt_max, extra=eval_times)
    steps = len(grid) - 1
    eval_column = {int(np.searchsorted(grid, t)) - 1: j
                   for j, t in enumerate(eval_times)}
    cp = _cp_steps(trip, gd, grid, modified) if trip.cp_rate > 0 else None
    n_sizes = 0 if cp is None else len(cp.sizes)
    atoms = {a.step: a for a in _atom_steps(trip, gd, grid, modified,
                                            steps * n_sizes)}
    n_uniforms = steps * n_sizes + 2 * len(atoms)
    b_expr = trip.base.b[0]
    sig_expr = trip.base.sigma[0][0]
    c_expr = trip.base.c_expr(0, 0)
    guard = config.explosion_guard

    E, L = len(eval_times), len(levels)

    def work(paths):
        normals = normal_block(config.seed, paths, steps)
        uniforms = (uniform_block(config.seed, paths, n_uniforms)
                    if n_uniforms else None)
        m = paths.size
        x = np.full(m, trip.base.x0[0])
        log_zc = np.zeros(m)       # continuous part: N^c - 0.5 <N^c>
        jump_prod = np.ones(m)     # product of (1 + Delta N)
        r_acc = np.zeros(m)
        coz = np.zeros(m)          # int (1/Z_-^2) dC(Z)
        dn_min = np.full(m, math.inf)
        z_evals = np.full((m, E), math.nan)
        passage = np.full((m, L), math.inf)
        z_at_passage = np.full((m, L), math.nan)
        live = np.arange(m)        # rows not stopped at the guard
        for i in range(steps):
            if not live.size:
                break
            t0, t1 = grid[i], grid[i + 1]
            dt = t1 - t0
            xa = x[live]
            bv = b_expr.eval_array(t0, xa)
            sv = sig_expr.eval_array(t0, xa)
            cv = c_expr.eval_array(t0, xa)
            kv = gd.K.eval_array(t0, xa)
            finite = (np.isfinite(bv) & np.isfinite(sv) & np.isfinite(cv)
                      & np.isfinite(kv))
            if not np.all(finite):
                r = int(np.argmin(finite))
                raise EvalDomain(
                    f"non-finite coefficient on path {int(paths[live[r]])} "
                    f"at t={t0:.6g}, x={float(xa[r])}")
            if modified:
                bv = bv + kv * cv
            dW = normals[live, i] * math.sqrt(dt)
            # exponent N: continuous part and CP compensator drift
            quad_var = kv * kv * cv * dt
            dlog = kv * sv * dW - 0.5 * quad_var
            dr = quad_var
            if cp is not None:
                dlog = dlog - cp.compensator[i] * dt
                dr = dr + cp.hellinger[i] * dt
                if modified:
                    bv = bv + cp.drift_shift[i]
            log_zc[live] += dlog
            r_acc[live] += dr
            coz[live] += quad_var
            x[live] = xa + (bv * dt + sv * dW)

            if cp is not None:
                u = uniforms[live, i * n_sizes:(i + 1) * n_sizes]
                rows = np.nonzero(np.any(u >= cp.cdf[i, :, 0], axis=1))[0]
                if rows.size:
                    cdf = cp.cdf[i]
                    counts = np.minimum(
                        np.sum(u[rows, :, None] >= cdf, axis=2),
                        cdf.shape[1] - 1)
                    dn = np.min(np.where(counts > 0, cp.delta_n[i],
                                         math.inf), axis=1)
                    rows = live[rows]
                    _check_jump_bound(dn, t0, paths[rows])
                    x[rows] += counts @ cp.sizes
                    jump_prod[rows] *= np.prod(
                        (1.0 + cp.delta_n[i]) ** counts, axis=1)
                    dn_min[rows] = np.minimum(dn_min[rows], dn)
                    coz[rows] += counts @ cp.c_term[i]

            atom = atoms.get(i)
            if atom is not None:
                fired = uniforms[live, atom.column] < atom.fire_mass
                k = np.minimum(
                    np.searchsorted(atom.size_cdf,
                                    uniforms[live, atom.column + 1],
                                    side="right"), atom.sizes.size - 1)
                dn = np.where(fired, atom.delta_n_fired[k],
                              atom.delta_n_still)
                _check_jump_bound(dn, t1, paths[live])
                x[live] += np.where(fired, atom.sizes[k], 0.0)
                jump_prod[live] *= 1.0 + dn
                dn_min[live] = np.minimum(dn_min[live], dn)
                r_acc[live] += atom.delta_r
                coz[live] += (1.0 - np.sqrt(1.0 + dn)) ** 2

            # levels before the guard; a stopped path records no eval time
            ax = np.abs(x[live])
            z = np.exp(log_zc[live]) * jump_prod[live]
            if L:
                newly = (passage[live] == math.inf) & (ax[:, None] >= levels)
                if np.any(newly):
                    rows, cols = np.nonzero(newly)
                    passage[live[rows], cols] = t1
                    z_at_passage[live[rows], cols] = z[rows]
            going = ax < guard
            if not np.all(going):
                live, z = live[going], z[going]
            j = eval_column.get(i)
            if j is not None:
                z_evals[live, j] = z
        return (z_evals, np.exp(log_zc) * jump_prod, passage, z_at_passage,
                dn_min, r_acc, coz)

    return JumpSimResult(*map_chunks(work, config.n_paths, CHUNK_SIZE))


@dataclass
class CompensatorReport:
    passed: bool
    mean_gap: float
    std_error: float
    r_mean: float
    n_paths: int

    def to_dict(self):
        return {"passed": self.passed, "mean_gap": self.mean_gap,
                "std_error": self.std_error, "r_mean": self.r_mean,
                "n_paths": self.n_paths}


def verify_compensator_identity(trip: JumpTriplet, gd: GirsanovData,
                                config: SimConfig,
                                t: float) -> CompensatorReport:
    """Test E[int (1/Z_-^2) dC(Z) - R_t] = 0 within 3 standard errors.

    C(Z) = <Z^c> + sum (Z_{s-} - sqrt(Z_s Z_{s-}))^2; its compensator is
    Z_-^2 . dR, so the normalized gap is a mean-zero statistic.
    """
    cfg = replace(config, horizon=t)
    result = simulate_jump_exponential(trip, gd, cfg, eval_times=(t,))
    gaps = result.c_over_z_final - result.r_final
    mean = float(np.mean(gaps))
    se = (float(np.std(gaps, ddof=1) / math.sqrt(len(gaps)))
          if len(gaps) > 1 else 0.0)
    return CompensatorReport(passed=abs(mean) <= max(3.0 * se, 1e-12),
                             mean_gap=mean, std_error=se,
                             r_mean=float(np.mean(result.r_final)),
                             n_paths=config.n_paths)


def verdict_jump(trip: JumpTriplet, gd: GirsanovData, t: float,
                 plan: LocalizationPlan, config: SimConfig,
                 deficit_tolerance: float = 0.01) -> MartingaleVerdict:
    """Martingale check: survival of the MODIFIED triplet's paths.

    Simulates the modified dynamics and, per plan level, the fraction of
    paths whose norm stays below m_n up to t (with R evaluated along the
    way as the finiteness witness).  TrueMartingale when the survival
    column converges to 1 (deficit within max(tolerance, 3 SE)),
    StrictLocal when it converges elsewhere, Inconclusive otherwise.
    """
    validate(trip, gd)
    config.check_plan(plan)
    cfg = replace(config, horizon=t)
    result = simulate_jump_exponential(trip, gd, cfg, levels=plan.levels,
                                       eval_times=(t,), modified=True)
    curve = survival_curve(result.passage_times, plan, t,
                           notes=["modified-triplet survival surrogate for "
                                  "Q(R_{t and rho} < infinity) = 1"])
    deficit = curve.deficit
    se_last = curve.entries[-1][3]
    notes = list(curve.notes)
    if curve.converged and deficit <= max(deficit_tolerance, 3.0 * se_last):
        classification = Classification.TRUE_MARTINGALE
    elif curve.converged:
        classification = Classification.STRICT_LOCAL
        notes.append(f"modified-measure deficit {deficit:.4g}")
    else:
        classification = Classification.INCONCLUSIVE
        notes.append("survival column did not converge across levels")
    return MartingaleVerdict(classification, deficit_curve=curve,
                             notes=notes)


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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (EvalDomain, JumpBoundViolation, ValidationError)
from .expr import CoefficientExpr, as_expr
from .mc import (CHUNK_SIZE, MCEstimate, Passages, SimConfig, _total,
                 fixed_grid, map_chunks, survival_curve)
from .model import (Classification, DiffusionSpec, LocalizationPlan,
                    MartingaleVerdict)
from .rng import normal_block, uniform_block

_TOL = 1e-12


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
        if not all(p > 0 for p in self.probs):
            raise ValidationError("probabilities must be positive")
        if not abs(sum(self.probs) - 1.0) <= _TOL:
            raise ValidationError(
                f"probabilities sum to {sum(self.probs)}, expected 1")
        if any(v == 0.0 for v in self.support):
            raise ValidationError("jump size 0 is not a jump")
        if not all(math.isfinite(v) for v in self.support):
            raise ValidationError("jump sizes must be finite")

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
        if not self.time > 0:
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
        if not 0 <= self.cp_rate < math.inf:
            raise ValidationError("cp_rate must be nonnegative and finite")
        if self.cp_rate > 0 and self.cp_dist is None:
            raise ValidationError("cp_rate > 0 needs a jump size law")
        times = [a.time for a in self.atoms]
        if sorted(set(times)) != times:
            raise ValidationError("atom times must be strictly increasing")


@dataclass(frozen=True)
class GirsanovData:
    K: CoefficientExpr       # exponent of the continuous part, in (t, x)
    U: CoefficientExpr       # jump reweighting, in (t, x = jump size)

    def __post_init__(self):
        object.__setattr__(self, "K", as_expr(self.K, "K"))
        object.__setattr__(self, "U", as_expr(self.U, "U"))

    def u(self, t, x):
        return float(_u_table(self, [t], [x])[0, 0])


@dataclass
class HellingerPath:
    times: np.ndarray
    R: np.ndarray
    continuous_part: np.ndarray
    cp_part: np.ndarray
    atom_part: np.ndarray


def compute_Uhat(atom: Atom, gd: GirsanovData) -> float:
    """Uhat at the atom's time t_k: a_k sum_x G_k(x) U(t_k, x)."""
    t = atom.time
    value = atom.mass * atom.dist.expect(lambda x: gd.u(t, x))
    if value > 1.0 + _TOL:
        raise ValidationError(
            f"Uhat({t}) = {value} exceeds 1; U is inadmissible")
    return min(value, 1.0)


def validate_jump(trip: JumpTriplet, gd: GirsanovData):
    """Admissibility of (triplet, Girsanov data); raises ValidationError.

    Checks U > 0 on every size law's support (at t = 0 and atom times),
    Uhat <= 1 with {a = 1} implying {Uhat = 1}, and rejects the boundary
    configuration Uhat = 1 with a < 1 (there the no-fire branch gives
    Delta N = -1 exactly, i.e. Z hits zero).
    """
    if trip.cp_dist is not None:
        _u_table(gd, [0.0] + [a.time for a in trip.atoms],
                 trip.cp_dist.support)
    for atom in trip.atoms:
        _u_table(gd, [atom.time], atom.dist.support)
        uhat = compute_Uhat(atom, gd)
        if atom.mass >= 1.0 - _TOL and abs(uhat - 1.0) > 1e-9:
            raise ValidationError(
                f"atom at t={atom.time}: mass 1 requires Uhat = 1, "
                f"got {uhat}")
        if atom.mass < 1.0 - _TOL and abs(uhat - 1.0) <= 1e-9:
            raise ValidationError(
                f"atom at t={atom.time}: Uhat = 1 with mass {atom.mass} < 1 "
                "makes Delta N = -1 on the no-fire branch (Z would hit 0); "
                "rejected")


def atom_delta_R(atom: Atom, gd: GirsanovData) -> float:
    """Atom increment of R, sum form:
    a sum_G (1 - sqrt(U))^2 + (sqrt(1-a) - sqrt(1-Uhat))^2."""
    t = atom.time
    uhat = compute_Uhat(atom, gd)
    jump_term = atom.mass * atom.dist.expect(
        lambda x: (1.0 - math.sqrt(gd.u(t, x))) ** 2)
    still_term = (math.sqrt(1.0 - atom.mass)
                  - math.sqrt(max(0.0, 1.0 - uhat))) ** 2
    return jump_term + still_term


def atom_delta_R_closed_form(atom: Atom, gd: GirsanovData) -> float:
    """Equivalent closed form 2(1 - a sum_G sqrt(U) - sqrt((1-a)(1-Uhat)));
    always <= 2."""
    t = atom.time
    uhat = compute_Uhat(atom, gd)
    weighted_root = atom.mass * atom.dist.expect(
        lambda x: math.sqrt(gd.u(t, x)))
    return 2.0 * (1.0 - weighted_root
                  - math.sqrt(max(0.0, (1.0 - atom.mass) * (1.0 - uhat))))


def compute_R(trip: JumpTriplet, gd: GirsanovData, grid,
              path_states=None) -> HellingerPath:
    """Hellinger-type process R on a time grid.

    When K^2 c depends on the state (K does, or c does and K is not 0),
    `path_states` (one value per grid time) supplies the path along which
    the predictable process is evaluated; otherwise no path is needed.
    Each step adds K^2 c dt at its start point, the compound-Poisson term
    from the simulation's per-step tables, and the Delta R of each atom in
    (t0, t1].
    """
    grid = np.asarray(grid, dtype=np.float64)
    c_expr = trip.base.c_expr(0, 0)
    if path_states is None and ("x" in gd.K.free_variables() or (
            "x" in c_expr.free_variables() and not gd.K.is_zero())):
        raise ValidationError(
            "K^2 c depends on the state; compute_R needs path_states")
    if path_states is None:
        path_states = np.full(len(grid), trip.base.x0[0])
    path_states = np.asarray(path_states, dtype=np.float64)
    if len(path_states) != len(grid):
        raise ValidationError("path_states must match the grid length")
    t0, dt, x0 = grid[:-1], np.diff(grid), path_states[:-1]
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
        cp[1:] = np.cumsum(_cp_steps(trip, gd, grid).hellinger * dt)
    atom_part = np.zeros(n)
    for atom in _atom_steps(trip, gd, grid, 0):
        atom_part[atom.step + 1:] += atom.delta_r
    R = cont + cp + atom_part
    return HellingerPath(times=grid, R=R, continuous_part=cont,
                         cp_part=cp, atom_part=atom_part)


class JumpSimResult(NamedTuple):
    """Per-path outputs at the horizon, in path-index order; a row that
    stops at the guard reports its values there, and Z as nan."""

    z: np.ndarray              # Z at the horizon, nan if stopped at the guard
    passage_times: np.ndarray  # (n_paths, L)
    min_delta_N: np.ndarray    # most negative Delta N per path (inf if none)
    r_final: np.ndarray
    c_over_z_final: np.ndarray  # int (1/Z_-^2) dC(Z) at the horizon


@dataclass(frozen=True)
class _CompoundPoissonSteps:
    """Compound-Poisson tables: one row per grid step, one column per
    support point y_j of the size law, and for the CDFs one per triplet
    (original, then modified)."""

    sizes: np.ndarray        # (J,)
    cdf: np.ndarray          # (2, steps, J, k_max): CDF of each count
    delta_n: np.ndarray      # Delta N of one jump, U' = U(t0, y_j) - 1
    c_term: np.ndarray       # its term of C(Z), (1 - sqrt(1 + Delta N))^2
    compensator: np.ndarray  # (steps,) lambda E_F[U - 1], drift of log Z
    hellinger: np.ndarray    # (steps,) lambda E_F[(1 - sqrt(U))^2], dR/dt


@dataclass(frozen=True)
class _AtomStep:
    """One scheduled atom; it fires at the end of grid step `step`."""

    step: int
    column: int              # its two uniforms: fire, then size
    fire_mass: np.ndarray    # (2,): a, then Uhat (modified)
    size_cdf: np.ndarray     # (2, J - 1): CDF at all sizes but the last
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
    """CDF of Poisson(mu) at 0..k_max - 1 along a new last axis: the number
    of entries at or below a uniform is a count, capped at k_max.  The tail
    past k_max = mu + 12 sqrt(mu) + 12 (for the largest mu) is far below
    the 2^-53 resolution of a uniform."""
    top = float(np.max(mu))
    k = np.arange(int(math.ceil(top + 12.0 * math.sqrt(top) + 12.0)))
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(k[1:]))))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_mu = np.log(mu)[..., None]
        log_pmf = (np.where(k == 0, 0.0, k * log_mu) - mu[..., None]
                   - log_fact)
    return np.cumsum(np.exp(log_pmf), axis=-1)


def _cp_steps(trip, gd, grid):
    """Per-grid-time compound-Poisson tables.  Jumps to y_j in a step are
    Poisson(lambda dt p_j) under the original triplet and Poisson(lambda
    dt p_j U(t0, y_j)) under the modified one: rate lambda E_F[U] and law
    U.F / E_F[U], split by support point."""
    sizes = np.array(trip.cp_dist.support)
    probs = np.array(trip.cp_dist.probs)
    t0, dt = grid[:-1], np.diff(grid)
    u = _u_table(gd, t0, sizes)
    lam = trip.cp_rate
    cdfs = [_poisson_cdf(lam * dt[:, None] * p) for p in (probs, probs * u)]
    k_max = max(c.shape[-1] for c in cdfs)
    delta_n = u - 1.0
    return _CompoundPoissonSteps(
        sizes=sizes,
        # a CDF padded with inf counts the same
        cdf=np.stack([np.pad(c, ((0, 0), (0, 0), (0, k_max - c.shape[-1])),
                             constant_values=math.inf) for c in cdfs]),
        delta_n=delta_n,
        c_term=(1.0 - np.sqrt(1.0 + delta_n)) ** 2,
        compensator=lam * (delta_n @ probs),
        hellinger=lam * ((1.0 - np.sqrt(u)) ** 2 @ probs))


def _atom_steps(trip, gd, grid, first_column):
    """One _AtomStep per atom on the grid, in time order; under the
    modified triplet an atom fires with mass Uhat and its law is G U,
    normalized."""
    out = []
    for atom in trip.atoms:
        if not grid[0] < atom.time <= grid[-1]:
            continue
        t = atom.time
        uhat = compute_Uhat(atom, gd)
        laws = (atom.dist, atom.dist.reweighted(lambda y: gd.u(t, y)))
        if atom.mass >= 1.0 - _TOL:
            still = 0.0
        else:
            still = -(uhat - atom.mass) / (1.0 - atom.mass)
        out.append(_AtomStep(
            step=int(np.searchsorted(grid, t)) - 1,
            column=first_column + 2 * len(out),
            fire_mass=np.array([atom.mass, uhat]),
            size_cdf=np.array([np.cumsum(law.probs[:-1]) for law in laws]),
            sizes=np.array(atom.dist.support),
            delta_n_fired=_u_table(gd, [t], atom.dist.support)[0] - 1.0,
            delta_n_still=still,
            delta_r=atom_delta_R(atom, gd)))
    return out


# cells (grid step, row, support point) whose compound-Poisson jumps a
# chunk finds at once: a peak of about 13 MB when every cell jumps
JUMP_BLOCK_CELLS = 2 ** 17


class _Jumps(NamedTuple):
    """The compound-Poisson jumps of a block of grid steps, one entry per
    (step, row) with a jump, ordered by step, then by row (original rows,
    then modified rows): the block's step s has entries [bounds[s],
    bounds[s + 1])."""

    bounds: np.ndarray   # (block steps + 1,)
    rows: np.ndarray     # row of each entry: path p, or m + p (modified)
    size: np.ndarray     # sum of the entry's jump sizes
    c_term: np.ndarray   # sum of its terms of C(Z)
    factor: np.ndarray   # product of (1 + Delta N) over the jumps
    delta_n: np.ndarray  # smallest Delta N of the entry's jumps


def _count_weighted(counts, values):
    """sum_j counts[:, j] values[..., j] per entry, term by term in j, so
    that an entry's sum does not depend on the entries beside it, as a
    matrix product's rounding does."""
    return _total(counts[:, j] * values[..., j]
                  for j in range(counts.shape[1]))


def _cp_jumps(cp, u, start, stop):
    """The jumps in grid steps [start, stop) of a chunk's paths under both
    triplets, from their (m, steps, J) compound-Poisson uniforms: a support
    point jumps in a step when its uniform reaches the count CDF's first
    entry, and its count is the number of entries at or below the
    uniform."""
    m = u.shape[0]
    k_max = cp.cdf.shape[-1]
    u, cdf, delta_n = u[:, start:stop], cp.cdf[:, start:stop], \
        cp.delta_n[start:stop]
    # a (step, run, path, size) mask: its entries come by step, then row
    step, run, path, size = np.nonzero(
        u.transpose(1, 0, 2)[:, None]
        >= cdf[..., 0].transpose(1, 0, 2)[:, :, None])
    # one CDF column at a time, on the counts still growing
    uj = u[path, step, size]
    counts = np.ones(step.size, dtype=np.intp)
    growing = np.arange(step.size)
    for k in range(1, k_max):
        growing = growing[uj[growing] >= cdf[
            run[growing], step[growing], size[growing], k]]
        if not growing.size:
            break
        counts[growing] += 1
    rows = run * m + path
    del run, path, uj, growing
    first = np.ones(step.size, dtype=bool)
    first[1:] = (step[1:] != step[:-1]) | (rows[1:] != rows[:-1])
    table = np.zeros((int(first.sum()), delta_n.shape[1]), dtype=np.intp)
    table[np.cumsum(first) - 1, size] = counts
    step = step[first]
    delta_n = delta_n[step]
    return _Jumps(
        bounds=np.searchsorted(step, np.arange(cdf.shape[1] + 1)),
        rows=rows[first],
        size=_count_weighted(table, cp.sizes),
        c_term=_count_weighted(table, cp.c_term[start + step]),
        factor=np.prod((1.0 + delta_n) ** table, axis=1),
        delta_n=np.min(np.where(table > 0, delta_n, math.inf), axis=1))


def _check_jump_bound(delta_n, t, paths):
    bad = delta_n <= -1.0
    if np.any(bad):
        r = int(np.argmax(bad))
        raise JumpBoundViolation(
            f"Delta N = {float(delta_n[r])} <= -1 at t={t} on path "
            f"{int(paths[r])}")


def simulate_jump_exponential(trip: JumpTriplet, gd: GirsanovData,
                              config: SimConfig, *, levels=(), threads=1):
    """Simulate (X, N, Z) pathwise on a fixed grid to the horizon under the
    original and the Girsanov-modified triplet, Z via the Doleans-Dade
    product; returns (original, modified) JumpSimResults.  R is evaluated
    with the original (trip, gd) data along both triplets' paths.

    The paths of a chunk (CHUNK_SIZE paths, through `map_chunks` on up to
    `threads` threads) advance together, both triplets' rows stacked on
    the same draws; only the rows below the guard are held.  Everything
    that depends only on (t, jump size) is tabulated once per grid time,
    and so is each of b, sigma, c and K free of x, checked for finiteness
    once.  Ahead of the steps, a
    block of them at a time (JUMP_BLOCK_CELLS cells of step, row and
    support point), a chunk finds from its uniforms every (step, row) with
    a compound-Poisson jump, the sums of its sizes and of its terms of
    C(Z), its factor of Z and its smallest Delta N (`_cp_jumps`).  The
    chunk's normals are scaled by sqrt(dt) once, after the draw.  Each
    step evaluates the other coefficients on the live rows, advances x,
    log Z, R and C(Z), adds the step's jumps on the rows still live (by
    their row numbers directly until some row leaves), then the atoms.
    Z = exp(log Z^c) prod(1 + Delta N) is formed once, at the horizon.
    Path p reads only its own streams of
    (seed, p): one main-stream normal per step, and on the jump stream one
    uniform per step and compound-Poisson support point (that point's jump
    count, by inversion of its Poisson CDF), then two per atom (fire,
    size).  So results do not depend on chunking or ordering.  The pass
    raises the first error it meets: earliest chunk, then grid step, then
    the original triplet's paths.
    """
    validate_jump(trip, gd)
    levels = np.array([float(m) for m in levels])
    grid = fixed_grid(config.horizon, config.dt_max,
                      [a.time for a in trip.atoms])
    steps = len(grid) - 1
    cp = _cp_steps(trip, gd, grid) if trip.cp_rate > 0 else None
    n_sizes = 0 if cp is None else len(cp.sizes)
    atoms = {a.step: a for a in _atom_steps(trip, gd, grid, steps * n_sizes)}
    n_uniforms = steps * n_sizes + 2 * len(atoms)
    coefs = (trip.base.b[0], trip.base.sigma[0][0], trip.base.c_expr(0, 0),
             gd.K)
    # x-free coefficients: one value per grid time (x only sets the shape)
    tables = [None if "x" in e.free_variables()
              else e.eval_array(grid[:-1], grid[:-1]) for e in coefs]
    state_coefs = [k for k, tab in enumerate(tables) if tab is None]
    # the tables are checked once; a step checks the others on its rows
    tables_finite = np.ones(steps, dtype=bool)
    for tab in tables:
        if tab is not None:
            tables_finite &= np.isfinite(tab)
    tables_finite = tables_finite.tolist()
    check_bound = cp is not None and bool(np.any(cp.delta_n <= -1.0))
    root_dt = np.sqrt(np.diff(grid))

    def work(paths):
        # normals[p, i] sqrt(dt) is path p's Brownian increment in step i
        normals = normal_block(config.seed, paths, steps)
        normals *= root_dt
        uniforms = (uniform_block(config.seed, paths, n_uniforms)
                    if n_uniforms else None)
        m = paths.size
        if cp is not None:
            cp_u = uniforms[:, :steps * n_sizes].reshape(m, steps, n_sizes)
            block = max(1, JUMP_BLOCK_CELLS // (2 * m * n_sizes))
        finals = np.full((4, 2 * m), math.nan)  # Z, min Delta N, R, C/Z
        passages = Passages(2 * m, levels)
        # the state of the live rows only: the original triplet's paths,
        # then the modified one's.  `row` is a row's place in the outputs,
        # `run` its triplet (1 modified) and `draw` its path in the draws
        row = np.arange(2 * m)
        run, draw = np.divmod(row, m)
        x = np.full(row.size, trip.base.x0[0])
        log_zc = np.zeros(row.size)   # continuous part: N^c - 0.5 <N^c>
        jump_prod = np.ones(row.size)  # product of (1 + Delta N)
        r_acc = np.zeros(row.size)
        coz = np.zeros(row.size)      # int (1/Z_-^2) dC(Z)
        dn_min = np.full(row.size, math.inf)
        count = np.zeros(row.size, dtype=np.intp)   # levels crossed

        for i in range(steps):
            if not row.size:
                break
            t0, t1 = grid[i], grid[i + 1]
            dt = t1 - t0
            bv, sv, cv, kv = values = [
                e.eval_array(t0, x) if tab is None else tab[i]
                for e, tab in zip(coefs, tables)]
            finite = tables_finite[i]
            if finite and state_coefs:
                each = np.isfinite(values[state_coefs[0]])
                for k in state_coefs[1:]:
                    each &= np.isfinite(values[k])
                finite = each.all()
            if not finite:
                # the first row with a non-finite value, row 0 for a table
                r = int(np.argmin(each)) if tables_finite[i] else 0
                raise EvalDomain(
                    f"non-finite coefficient on path {int(paths[draw[r]])} "
                    f"at t={t0:.6g}, x={float(x[r])}")
            # the modified rows' drift b + K c.  No jump term: the modified
            # jumps come at rate lambda p_j U_j and are added
            # uncompensated, so they already carry the h-terms of the
            # Girsanov drift
            bv = np.where(run, bv + kv * cv, bv)
            dW = normals[draw, i]
            # exponent N: continuous part and CP compensator drift
            quad_var = kv * kv * cv * dt
            dlog = kv * sv * dW - 0.5 * quad_var
            dr = quad_var
            if cp is not None:
                dlog = dlog - cp.compensator[i] * dt
                dr = dr + cp.hellinger[i] * dt
            log_zc += dlog
            r_acc += dr
            coz += quad_var
            x += bv * dt + sv * dW

            lo = hi = 0
            if cp is not None:
                if i % block == 0:
                    jumps = _cp_jumps(cp, cp_u, i, i + block)
                lo, hi = jumps.bounds[i % block:i % block + 2]
            if lo < hi:
                if row.size == 2 * m:
                    # no row has left: positions are row numbers
                    hit, sel = jumps.rows[lo:hi], slice(lo, hi)
                else:
                    # the step's jumps on rows still below the guard
                    ids = jumps.rows[lo:hi]
                    hit = np.searchsorted(row, ids)
                    live = row[np.minimum(hit, row.size - 1)] == ids
                    hit, sel = hit[live], lo + np.flatnonzero(live)
                if check_bound:
                    _check_jump_bound(jumps.delta_n[sel], t0,
                                      paths[draw[hit]])
                x[hit] += jumps.size[sel]
                jump_prod[hit] *= jumps.factor[sel]
                dn_min[hit] = np.minimum(dn_min[hit], jumps.delta_n[sel])
                coz[hit] += jumps.c_term[sel]

            atom = atoms.get(i)
            if atom is not None:
                u = uniforms[draw, atom.column:atom.column + 2]
                fired = u[:, 0] < atom.fire_mass[run]
                # inverse CDF: the number of CDF entries at or below u
                k = np.sum(atom.size_cdf[run] <= u[:, 1:], axis=1)
                dn = np.where(fired, atom.delta_n_fired[k],
                              atom.delta_n_still)
                _check_jump_bound(dn, t1, paths[draw])
                x += np.where(fired, atom.sizes[k], 0.0)
                jump_prod *= 1.0 + dn
                dn_min = np.minimum(dn_min, dn)
                r_acc += atom.delta_r
                coz += (1.0 - np.sqrt(1.0 + dn)) ** 2

            # levels before the guard; a stopped row keeps Z nan
            ax = np.abs(x)
            if len(levels):
                passages.cross(count, row, ax, t1)
            going = ax < config.explosion_guard
            if not going.all():
                out = ~going
                finals[1:, row[out]] = dn_min[out], r_acc[out], coz[out]
                row, run, draw, x, log_zc, jump_prod, r_acc, coz, dn_min, \
                    count = (v[going] for v in (
                        row, run, draw, x, log_zc, jump_prod, r_acc, coz,
                        dn_min, count))
        finals[:, row] = np.exp(log_zc) * jump_prod, dn_min, r_acc, coz
        return [v for k in (slice(None, m), slice(m, None)) for v in (
            finals[0, k], passages.times[k], *finals[1:, k])]

    out = map_chunks(work, config.n_paths, CHUNK_SIZE, threads)
    w = len(JumpSimResult._fields)
    return JumpSimResult(*out[:w]), JumpSimResult(*out[w:])


@dataclass
class CompensatorReport:
    passed: bool
    mean_gap: float
    std_error: float
    r_mean: float
    n_paths: int


def analyze_jump(trip: JumpTriplet, gd: GirsanovData, t: float,
                 plan: LocalizationPlan, config: SimConfig, threads=1):
    """(verdict, deficit curve, compensator report) at t, from one pass
    of both triplets.

    The verdict reads the curve, the survival of the MODIFIED triplet's
    paths: per plan level, the fraction whose norm stays below m_n up to
    t.  TrueMartingale when the survival column converges to 1 (deficit
    within max(0.01, 3 SE)), StrictLocal when it converges elsewhere,
    Inconclusive otherwise.

    The report tests E[int (1/Z_-^2) dC(Z) - R_t] = 0 within 3 standard
    errors on the ORIGINAL triplet's paths: C(Z) = <Z^c> + sum (Z_{s-} -
    sqrt(Z_s Z_{s-}))^2 has compensator Z_-^2 . dR, so the normalized gap
    is a mean-zero statistic.
    """
    config.check_plan(plan)
    original, modified = simulate_jump_exponential(
        trip, gd, config.until(t), levels=plan.levels, threads=threads)
    return (*_verdict(modified, plan, t), _compensator_report(original))


def _compensator_report(result):
    gap = MCEstimate.from_samples(result.c_over_z_final - result.r_final)
    return CompensatorReport(
        passed=abs(gap.mean) <= max(3.0 * gap.std_error, 1e-12),
        mean_gap=gap.mean, std_error=gap.std_error,
        r_mean=float(np.mean(result.r_final)), n_paths=gap.n_effective)


def _verdict(result, plan, t):
    """The verdict and the survival curve it reads."""
    curve = survival_curve(result.passage_times, plan, t,
                           notes=["modified-triplet survival surrogate for "
                                  "Q(R_{t and rho} < infinity) = 1"])
    deficit = curve.deficit
    se_last = curve.entries[-1][3]
    notes = []
    if curve.converged and deficit <= max(0.01, 3.0 * se_last):
        classification = Classification.TRUE_MARTINGALE
    elif curve.converged:
        classification = Classification.STRICT_LOCAL
        notes.append(f"modified-measure deficit {deficit:.4g}")
    else:
        classification = Classification.INCONCLUSIVE
        notes.append("survival column did not converge across levels")
    return MartingaleVerdict(classification, notes=notes), curve

"""Heteroclinic connections between critical points and the transition graph.

Gradient connections are shot from saddle unstable manifolds, each shot on
its own with an adaptive Dormand-Prince 5(4) integrator on Python floats;
saddle-saddle connections are found by minimizing the unit-temperature action
on a truncated interval.  Connection costs assemble into a weighted graph
whose shortest-path distances give the transition energy between any two
critical points.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .critical import EIG_TOL, CriticalPoint, CriticalPointSet
from .flow import TAU_MAX, FlowConfig, NonFiniteObjectiveError, minimize
from .functionals import eval_I, eval_objective, row_sumsq
from .paths import DiscretePath, interpolate
from .potentials import DomainError, PotentialModel


class EscapeError(RuntimeError):
    """A shot trajectory left the search region without reaching a critical point."""


class ChainError(RuntimeError):
    """A saddle-saddle orbit passed by a third critical point: it is a chain of
    connections through that point, not a direct one.  A flowed path that also
    failed its residual checks keeps their diagnostics."""

    def __init__(self, msg, diagnostics=None):
        super().__init__(msg)
        self.diagnostics = diagnostics or {}


class NotConvergedError(RuntimeError):
    """A connection failed its residual checks; diagnostics attached, and the
    flowed path of a saddle connection."""

    def __init__(self, msg, diagnostics=None, path=None):
        super().__init__(msg)
        self.diagnostics = diagnostics or {}
        self.path = path


@dataclass
class HeteroclinicOrbit:
    """A converged connection between two critical points.

    ``kind`` is one of gradient-forward (xdot = -grad V), gradient-backward
    (xdot = +grad V) or hamiltonian.  Residuals are sup norms over interior
    nodes with centered differences.  ``stabilised`` says whether the last
    interval doubling of ``hamiltonian_connection_adaptive`` moved J by less
    than 1e-4; it is None for a gradient shot or a lone connection.
    """

    source: CriticalPoint
    target: CriticalPoint
    path: DiscretePath
    kind: str
    j_value: float
    energy_residual: float
    zero_energy_residual: float
    gradient_residual: float
    el_residual: float
    endpoint_distances: tuple[float, float]
    endpoint_warning: bool = False
    stabilised: bool | None = None


def _orbit_record(p: PotentialModel, path: DiscretePath) -> tuple[dict, str]:
    """The fields of an orbit record that follow from its path, from one
    evaluation of grad V at the nodes, and the gradient kind the path follows
    better, forward (-grad V) or backward.

    The fields are the unit-temperature action ``j_value``, the energy,
    zero-energy, gradient-flow and Euler-Lagrange sup residuals, and the
    ``endpoint_warning``.  The residual maxima are over interior nodes with
    centered differences; one-sided differences at the ends are excluded as
    discretization artifacts.
    """
    j_value, g_nodes = eval_objective(p, path, 1.0, "J")
    x = path.nodes
    h = path.h
    v = (x[2:] - x[:-2]) / (2.0 * h)  # centered velocities at interior nodes
    xi = x[1:-1]
    g = g_nodes[1:-1]
    sp2 = row_sumsq(v)
    gn2 = row_sumsq(g)
    fwd = float(np.max(np.linalg.norm(v + g, axis=-1)))
    bwd = float(np.max(np.linalg.norm(v - g, axis=-1)))
    acc = (x[2:] - 2.0 * xi + x[:-2]) / h**2
    # |grad V| ~ |eig| * dist near a nondegenerate critical point; 1e-3 on the
    # gradient at either end corresponds to the 1e-4 endpoint-distance
    # contract for O(1) spectra, beyond which the truncated action is suspect
    ends = np.linalg.norm(g_nodes[[0, -1]], axis=-1)
    fields = {
        "j_value": j_value,
        "energy_residual": float(np.max(np.abs(0.5 * sp2 - 0.5 * gn2))),
        "zero_energy_residual": float(np.max(np.abs(np.sqrt(sp2) - np.sqrt(gn2)))),
        "gradient_residual": min(fwd, bwd),
        "el_residual": float(np.max(np.linalg.norm(acc - p.hessian_vector(xi, g), axis=-1))),
        "endpoint_warning": bool(np.max(ends) > 1e-3),
    }
    return fields, "gradient-forward" if fwd <= bwd else "gradient-backward"


# The Dormand-Prince 5(4) pair (Dormand & Prince, J. Comput. Appl. Math. 6,
# 1980): the stage coefficients, the fifth-order weights and the error
# weights (fifth minus fourth order, the last stage being the next step's
# first).  Each of _DP_Q's rows weighs the stages into the coefficient of
# x, x^2, x^3, x^4 in Shampine's quartic dense output (Math. Comp. 46, 1986).
_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_DP_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_DP_E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
_DP_Q = (
    (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    (
        -8048581381 / 2820520608, 0.0, 131558114200 / 32700410799,
        -1754552775 / 470086768, 127303824393 / 49829197408,
        -282668133 / 205662961, 40617522 / 29380423,
    ),
    (
        8663915743 / 2820520608, 0.0, -68118460800 / 10900136933,
        14199869525 / 1410260304, -318862633887 / 49829197408,
        2019193451 / 616988883, -110615467 / 29380423,
    ),
    (
        -12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
        -10690763975 / 1880347072, 701980252875 / 199316789632,
        -1453857185 / 822651844, 69997945 / 29380423,
    ),
)
# tolerances, time limit and accepted-step budget of every shot, and the
# step-size controller of Hairer, Norsett & Wanner (Solving ODEs I, Sec. II.4)
RTOL, ATOL, T_MAX, MAX_STEPS = 1e-10, 1e-13, 2000.0, 10_000
# the tolerances of a graph shot's first flight, which only has to reach a basin
LAND_RTOL, LAND_ATOL = 1e-6, 1e-9
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0
# a shot ends within CAPTURE (a graph shot: a landing radius) of another
# critical point, or fails beyond ESCAPE of the critical points' centre
CAPTURE, ESCAPE = 1e-6, 10.0
# a landing radius samples LAND_RADII radii, in LAND_DIRECTIONS[dim] directions
LAND_RADII, LAND_DIRECTIONS = 16, {1: 2, 2: 16}
# intervals of a saddle-saddle connection, and of the paths the CLI minimises
DEFAULT_NODES = 4000
# intervals of a gradient shot's resampled path
SHOT_NODES = 2000
_ROOT_TOL = 4.0 * np.finfo(float).eps


def _weigh(coefs, stages):
    """sum_s coefs[s] * stages[s] over the nonzero coefficients, added left to
    right, on floats or elementwise on arrays."""
    out = None
    for c, k in zip(coefs, stages):
        if c:
            out = c * k if out is None else out + c * k
    return out


def _rms(x: np.ndarray) -> np.ndarray:
    return np.sqrt(row_sumsq(x)) / np.sqrt(x.shape[-1])


# the coefficients by name, for the stages of _dp_step
((_A21,), (_A31, _A32), (_A41, _A42, _A43),
 (_A51, _A52, _A53, _A54), (_A61, _A62, _A63, _A64, _A65)) = _DP_A
_B1, _, _B3, _B4, _B5, _B6 = _DP_B
_E1, _, _E3, _E4, _E5, _E6, _E7 = _DP_E


def _dp_step(p: PotentialModel, y0: list, k1: list, dt: float, rtol: float = RTOL, atol: float = ATOL) -> tuple:
    """One Dormand-Prince step of length dt from the point y0 (first stage
    k1): the seven stages (grad V), the new point and the RMS error norm at
    rtol, atol, on floats through ``p.point_gradient``.  A stage point x - (a g) dt is the
    array formulas' x + (a (-g)) dt to the bit (IEEE negation is exact), but a
    coordinate at -0.0 keeps -0.0 where they add zeros of both signs to +0.0."""
    grad = p.point_gradient
    k2 = grad([x - (_A21 * s1) * dt for x, s1 in zip(y0, k1)])
    k3 = grad([x - (_A31 * s1 + _A32 * s2) * dt for x, s1, s2 in zip(y0, k1, k2)])
    k4 = grad([x - (_A41 * s1 + _A42 * s2 + _A43 * s3) * dt for x, s1, s2, s3 in zip(y0, k1, k2, k3)])
    k5 = grad([x - (_A51 * s1 + _A52 * s2 + _A53 * s3 + _A54 * s4) * dt
               for x, s1, s2, s3, s4 in zip(y0, k1, k2, k3, k4)])
    k6 = grad([x - (_A61 * s1 + _A62 * s2 + _A63 * s3 + _A64 * s4 + _A65 * s5) * dt
               for x, s1, s2, s3, s4, s5 in zip(y0, k1, k2, k3, k4, k5)])
    end = [x - dt * (_B1 * s1 + _B3 * s3 + _B4 * s4 + _B5 * s5 + _B6 * s6)
           for x, s1, s3, s4, s5, s6 in zip(y0, k1, k3, k4, k5, k6)]
    k7 = grad(end)
    sq = 0.0
    for x, xe, s1, s3, s4, s5, s6, s7 in zip(y0, end, k1, k3, k4, k5, k6, k7):
        e = (_E1 * s1 + _E3 * s3 + _E4 * s4 + _E5 * s5 + _E6 * s6 + _E7 * s7) * dt
        e = e / (atol + max(abs(x), abs(xe)) * rtol)
        sq += e * e
    return (k1, k2, k3, k4, k5, k6, k7), end, math.sqrt(sq) / math.sqrt(len(y0))


def _col(k: int, point: list, radius: float | None) -> tuple:
    """The event column k of _shoot: capture within radius of point, or if radius is None escape beyond
    ESCAPE of the centre point; _levels takes square roots only within twice the radius, beyond 0.9 ESCAPE."""
    return (k, point, radius, (0.9 * ESCAPE) ** 2 if radius is None else 4.0 * radius * radius)


def _levels(y: list, cols: list) -> list:
    """Event levels of the point y at the watched columns ``cols`` (as _col
    makes them), each >= 0 once its event is reached: the radius minus the
    distance to the point, or the distance to the centre minus ESCAPE.  Beyond
    its screen a level is surely negative and reads -1.0: the signs are exact."""
    out = []
    for _, c, radius, screen in cols:
        sq = 0.0
        for x, xc in zip(y, c):
            sq += (x - xc) * (x - xc)
        if radius is None:
            out.append(math.sqrt(sq) - ESCAPE if sq >= screen else -1.0)
        else:
            out.append(radius - math.sqrt(sq) if sq <= screen else -1.0)
    return out


def _dense(y_old, q, h, x):
    """Shampine's quartic at fraction x of a step of length h from y_old:
    y_old + h (q1 x + q2 x^2 + q3 x^3 + q4 x^4), on floats or on arrays."""
    power = x
    acc = q[0] * power
    for qj in q[1:]:
        power = power * x
        acc = acc + qj * power
    return y_old + h * acc


@dataclass
class _Shot:
    """Where one shot ended: ``event`` is the column it reached (-1 for none:
    at T_MAX, after MAX_STEPS accepted steps or on a step-size underflow) at
    time ``t``, at ``y`` if no event, after ``n`` accepted steps; ``steps``
    holds them, if recorded: start time, length, start point, stages (grad V)."""

    event: int = -1
    t: float = 0.0
    y: np.ndarray | None = None
    n: int = 0
    steps: list = field(default_factory=list)


def _shoot(p: PotentialModel, y0: np.ndarray, cols: list, record: bool = True, rtol=RTOL, atol=ATOL) -> _Shot:
    """Integrate xdot = -grad V from the point y0 with an adaptive
    Dormand-Prince 5(4) step at tolerances rtol, atol until it reaches one
    of the events ``cols`` (as _col makes them), time T_MAX or MAX_STEPS
    accepted steps; raises DomainError at a non-finite stage point.  It keeps
    its steps if ``record``, else ends at the end of a step that crosses one
    event (one that crosses more is bisected).  The initial step is
    computed on y0 as a one-row array, with two ``p.gradient`` calls, and the
    steps on Python floats.  Each operation is the array formulas', in their
    order, so the bits are theirs; the controller's power goes through
    np.power on a one-element buffer, as Python's ** and a NumPy scalar differ
    from it in the last bit."""
    y0 = y0[None, :]
    g = p.gradient(y0)
    # initial step of Hairer, Norsett & Wanner (Sec. II.4)
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(g / scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        h0 = np.minimum(np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1), T_MAX)
        d2 = _rms((p.gradient(y0 - h0[:, None] * g) - g) / scale) / h0
        h1 = np.where(
            (d1 <= 1e-15) & (d2 <= 1e-15),
            np.maximum(1e-6, h0 * 1e-3),
            (0.01 / np.maximum(d1, d2)) ** 0.2,
        )
    h_abs = np.minimum(np.minimum(100.0 * h0, h1), T_MAX).item()
    y, g = y0[0].tolist(), g[0].tolist()
    shot, t, rejected, level, buf = _Shot(), 0.0, False, _levels(y, cols), np.empty(1)
    while True:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        if rejected and h_abs < min_step:
            break
        # min and max pass a NaN first argument on, as np.minimum and np.maximum do
        t_new = min(t + max(h_abs, min_step), T_MAX)
        h = t_new - t
        k, y_new, err = _dp_step(p, y, g, h, rtol, atol)
        # the floor only keeps 0**-0.2 finite: every error below 6e-6 grows the
        # step by MAX_FACTOR, and a NaN error still shrinks it (np.fmax's NaN rule)
        buf[0] = max(err, 1e-10)
        factor = SAFETY * np.power(buf, -0.2).item()
        ok = err < 1.0
        h_abs = h * (min(1.0 if rejected else MAX_FACTOR, factor) if ok else max(MIN_FACTOR, factor))
        rejected = not ok
        if rejected:
            continue
        shot.n += 1
        if record:
            shot.steps.append((t, h, y, k))
        t_old, y_old, t, y, g = t, y, t_new, y_new, k[-1]
        new_level = _levels(y, cols)
        crossed = [col for col, a, b in zip(cols, level, new_level) if a <= 0.0 <= b]
        level = new_level
        if len(crossed) == 1 and not record:
            shot.t, shot.event = t, crossed[0][0]
            break
        if crossed:
            # the earliest of the events this step crossed: each column's level
            # on the dense output of the force, bisected to a bracket of 4 ulp
            qs = [[_weigh(c, [-s for s in ks]) for c in _DP_Q] for ks in zip(*k)]
            events = []
            for col in crossed:
                lo, hi = t_old, t
                while hi - lo > _ROOT_TOL * (1.0 + abs(hi)):
                    mid = 0.5 * (lo + hi)
                    x = (mid - t_old) / h
                    if _levels([_dense(yn, qn, h, x) for yn, qn in zip(y_old, qs)], [col])[0] >= 0.0:
                        hi = mid
                    else:
                        lo = mid
                events.append((hi, col[0]))
            shot.t, shot.event = min(events)
            break
        if t >= T_MAX or shot.n >= MAX_STEPS:
            break
    if shot.event < 0:
        shot.t, shot.y = t, np.array(y)
    return shot


def _resample(shot: _Shot, n_nodes: int) -> np.ndarray:
    """The shot's dense output at n_nodes + 1 uniform times on [0, shot.t]; a
    time on a step boundary takes the earlier step."""
    t_old, h, y_old, k = (np.array(a) for a in zip(*shot.steps))
    stages = -k.transpose(1, 0, 2)
    q = [_weigh(c, stages) for c in _DP_Q]
    ts = np.linspace(0.0, shot.t, n_nodes + 1)
    seg = np.searchsorted(t_old[1:], ts, side="left")
    x = (ts - t_old[seg]) / h[seg]
    return _dense(y_old[seg], [qj[seg] for qj in q], h[seg, None], x[:, None])


def _shot_end(p: PotentialModel, cps: CriticalPointSet, shot: _Shot) -> int:
    """The index of the point a finished shot reached, or the EscapeError/NotConvergedError it ended in."""
    if shot.event == len(cps):
        raise EscapeError("trajectory left the search region")
    if shot.event < 0:
        # the same 1e-3 on |grad V| as the orbits' endpoint warning
        g = float(np.linalg.norm(p.gradient(shot.y)))
        hint = ""
        i, d = cps.nearest(shot.y)
        if g <= 1e-3 and d > CAPTURE:
            hint = ": a critical point outside the set, so search a wider box (--box)"
            if cps[i].index == 0 and cps[i].eigenvalues[0] < EIG_TOL:
                lam = cps[i].eigenvalues[0]
                hint = f": still creeping into the degenerate minimum {i} of the set (least eigenvalue {lam:.3g})"
        why = f"the time limit {T_MAX:g}" if shot.t >= T_MAX else f"a step below 10 ulp of t = {shot.t:.12g}"
        if shot.t < T_MAX and shot.n >= MAX_STEPS:
            why = f"the step budget {MAX_STEPS} (t = {shot.t:.12g})"
        raise NotConvergedError(
            f"gradient shot stopped at {why}, at x = {shot.y.tolist()}, where |grad V| = {g:.3g}{hint}",
            {"t_final": shot.t, "x_final": shot.y.tolist()},
        )
    return shot.event


def _shot_orbit(
    p: PotentialModel, cps: CriticalPointSet, n_nodes: int, source: CriticalPoint, start: np.ndarray, cols: list
) -> HeteroclinicOrbit:
    """The orbit of the shot from start to the events cols, or the EscapeError/NotConvergedError it ended in."""
    shot = _shoot(p, start, cols)
    target = cps[_shot_end(p, cps, shot)]
    nodes = _resample(shot, n_nodes)
    arclength = float(np.sum(np.linalg.norm(np.diff(nodes, axis=0), axis=-1)))
    if arclength > 100.0:
        raise NotConvergedError("trajectory exceeded the arclength budget")
    T = shot.t / 2.0
    path = DiscretePath(nodes, a=-T, b=T)

    fields, _ = _orbit_record(p, path)
    return HeteroclinicOrbit(
        source=source,
        target=target,
        path=path,
        kind="gradient-forward",
        endpoint_distances=(
            float(np.linalg.norm(nodes[0] - source.location)),
            float(np.linalg.norm(nodes[-1] - target.location)),
        ),
        **fields,
    )


def _run_shots(p: PotentialModel, cps: CriticalPointSet, shots, radii: list, fly) -> list:
    """Run each shot alone with capture radius radii[k] at point k of cps: ``fly(source, start, cols)``
    of its start point and event columns, or the error that dropped it."""
    if not shots:
        return []
    centre = np.mean([c.location for c in cps], axis=0).tolist()
    out = []
    for source, eig_dir, sign in shots:
        eig_dir = np.asarray(eig_dir, dtype=float)
        eig_dir = eig_dir / np.linalg.norm(eig_dir)
        start = source.location + 1e-6 * float(sign) * eig_dir
        cols = [_col(k, c.location.tolist(), radii[k]) for k, c in enumerate(cps) if c is not source]
        try:
            out.append(fly(source, start, cols + [_col(len(cps), centre, None)]))
        except (DomainError, EscapeError, NotConvergedError) as err:
            out.append(err)
    return out


def gradient_shots(p: PotentialModel, cps: CriticalPointSet, shots, n_nodes: int = SHOT_NODES) -> list:
    """Shoot the descending gradient flow off saddle unstable manifolds.

    Each shot ``(source, eig_dir, sign)`` integrates xdot = -grad V from
    source + 1e-6*sign*eig_dir (eig_dir normalised) until the trajectory
    comes within 1e-6 of another critical point of the set, then resamples it
    to a uniform-step path centered on [-T, T].  It fails with EscapeError
    beyond distance 10 from the centre of the critical points, and with
    NotConvergedError beyond time 2000 or 10,000 accepted steps, on a step
    below 10 ulp of its time (the message names the end point and |grad V|
    there), or when the resampled path is longer than 100, and with
    DomainError at a non-finite stage point, its initial step's included.
    Each shot integrates alone, so it gives the same numbers in any batch.
    Returns one entry per shot: its orbit, or the error that dropped it.  A source that is not a saddle, an eig_dir that is not a
    finite nonzero vector of p.dim numbers and a sign other than +1 or -1
    raise ValueError before any shot runs."""
    for source, eig_dir, sign in shots:
        if source.index < 1:
            raise ValueError("source must be a saddle (index >= 1)")
        if np.shape(eig_dir) != (p.dim,) or not 0.0 < np.linalg.norm(eig_dir) < np.inf:
            raise ValueError(f"eig_dir must be a finite nonzero vector of {p.dim} numbers, not {eig_dir!r}")
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, not {sign!r}")
    return _run_shots(p, cps, shots, [CAPTURE] * len(cps), functools.partial(_shot_orbit, p, cps, n_nodes))


def _graph_end(p: PotentialModel, cps: CriticalPointSet, source: CriticalPoint, start: np.ndarray, cols: list) -> int:
    """The point a graph shot reaches: a flight's at LAND_RTOL, LAND_ATOL if it ends at a landing radius
    above CAPTURE, else a flight's at RTOL, ATOL, or the error it ends in; neither keeps its steps."""
    landed = {k for k, _, radius, _ in cols if (radius or 0.0) > CAPTURE}
    if landed:
        try:
            shot = _shoot(p, start, cols, False, LAND_RTOL, LAND_ATOL)
            if shot.event in landed:
                return shot.event
        except DomainError:
            pass
    return _shot_end(p, cps, _shoot(p, start, cols, False))


def _reach(r: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """Per row, the largest radius of r up to which ok holds at every radius; 0 if it fails at the first."""
    return np.max(np.where(np.logical_and.accumulate(ok, axis=1), r, 0.0), axis=1)


def landing_radii(p: PotentialModel, cps: CriticalPointSet) -> list:
    """The capture radius of each point of cps for the graph's shots: the
    landing radius r_m of a minimum m whose least Hessian eigenvalue is at
    least critical.EIG_TOL, in one or two dimensions; else CAPTURE.

    A sampled region-of-attraction estimate with V as the Lyapunov function
    (Khalil, Nonlinear Systems, 3rd ed., Sec. 8.2), on a polar grid up to half
    the distance to the nearest other critical point: R_m is 0.95 of the
    largest radius up to which every sampled least eigenvalue is positive,
    c_m the least V sampled at R_m, and r_m 0.95 of the largest radius up to
    R_m up to which every sampled V is below c_m (README, "Fixed settings")."""
    out = [CAPTURE] * len(cps)
    locs = np.array([c.location for c in cps])
    dist = np.linalg.norm(locs[:, None] - locs, axis=-1)
    np.fill_diagonal(dist, np.inf)
    cap = 0.5 * np.min(dist, axis=1)
    mins = [k for k, c in enumerate(cps) if c.index == 0 and c.eigenvalues[0] >= EIG_TOL and cap[k] < np.inf]
    if not mins or p.dim not in LAND_DIRECTIONS:
        return out
    # equal angles, both ways in 1-D
    th = 2.0 * np.pi * np.arange(LAND_DIRECTIONS[p.dim]) / LAND_DIRECTIONS[p.dim]
    u = np.stack([np.cos(th), np.sin(th)], axis=-1)[:, : p.dim]
    r = cap[mins, None] * (np.arange(1, LAND_RADII + 1) / LAND_RADII)
    grid = locs[mins, None, None] + r[:, :, None, None] * u
    lam = np.linalg.eigvalsh(p.hessian(grid.reshape(-1, p.dim)))[:, 0].reshape(grid.shape[:3])
    R = 0.95 * _reach(r, np.all(lam > 0.0, axis=2))
    pts = np.concatenate([grid, locs[mins, None, None] + R[:, None, None, None] * u], axis=1)
    v = p.value(pts.reshape(-1, p.dim)).reshape(pts.shape[:3])
    below = np.all(v[:, :-1] < np.min(v[:, -1], axis=1)[:, None, None], axis=2) & (r <= R[:, None])
    for m, r_m in zip(mins, 0.95 * _reach(r, below)):
        out[m] = max(CAPTURE, float(r_m))
    return out


def saddle_shots(p: PotentialModel, c: CriticalPoint) -> list:
    """The ``gradient_shots`` entries ``(c, eig_dir, sign)`` of every unstable
    mode of the saddle c, in signs +1 and -1: entry 2m + k is the m-th lowest
    Hessian eigenvector in sign (+1, -1)[k].  Each eigenvector is signed so
    that its entry of largest magnitude (the first of equals) is negative, so
    the +1 branch does not hang on the sign the eigensolver happens to pick."""
    if c.index < 1:
        raise ValueError("source must be a saddle (index >= 1)")
    eigval, eigvec = np.linalg.eigh(p.hessian(c.location))
    modes = eigvec[:, eigval < 0.0]
    largest = modes[np.argmax(np.abs(modes), axis=0), np.arange(modes.shape[1])]
    modes = np.where(largest > 0.0, -modes, modes)
    return [(c, modes[:, m], sign) for m in range(modes.shape[1]) for sign in (+1, -1)]


def gradient_connection(
    p: PotentialModel,
    source: CriticalPoint,
    eig_dir: np.ndarray,
    sign: int,
    cps: CriticalPointSet,
    n_nodes: int = SHOT_NODES,
) -> HeteroclinicOrbit:
    """One shot of ``gradient_shots``; raises the error that drops it."""
    (orbit,) = gradient_shots(p, cps, [(source, eig_dir, sign)], n_nodes)
    if isinstance(orbit, Exception):
        raise orbit
    return orbit


def hamiltonian_connection(
    p: PotentialModel, a: CriticalPoint, b: CriticalPoint, start: DiscretePath
) -> HeteroclinicOrbit:
    """Connect two critical points by minimizing the truncated action.

    The unit-temperature action over the interval and mesh of ``start`` is
    descended over interior nodes from the step cap ``TAU_MAX``, which the
    flow halves until a step decreases J, to ``grad_tol`` 1e-7 within 60,000
    iterations.  The result must satisfy the second-order stationarity
    system to 1e-2 and conserve energy at level zero to 1e-3, and is
    downgraded to a gradient kind when the first-order residual is also at
    most 1e-3.
    """
    if a is b or np.allclose(a.location, b.location):
        raise ValueError("endpoints must be distinct critical points")
    if not (
        np.allclose(start.left, a.location, atol=1e-8)
        and np.allclose(start.right, b.location, atol=1e-8)
    ):
        raise ValueError("start endpoints must sit on the given critical points")

    cfg = FlowConfig(objective="J", eps=1.0, tau0=TAU_MAX, grad_tol=1e-7, max_iter=60_000)
    path, trace = minimize(p, start, cfg)

    fields, grad_kind = _orbit_record(p, path)
    el, energy = fields["el_residual"], fields["energy_residual"]
    if el > 1e-2 or energy > 1e-3:
        raise NotConvergedError(
            "saddle connection failed residual checks",
            {
                "el_residual": el,
                "energy_residual": energy,
                "flow_converged": trace.converged,
                "stop_reason": trace.stop_reason,
                "final_objective": trace.final_objective,
            },
            path,
        )
    kind = grad_kind if fields["gradient_residual"] <= 1e-3 else "hamiltonian"
    return HeteroclinicOrbit(
        source=a, target=b, path=path, kind=kind, endpoint_distances=(0.0, 0.0), **fields
    )


def hamiltonian_connection_adaptive(
    p: PotentialModel,
    a: CriticalPoint,
    b: CriticalPoint,
    M: int = DEFAULT_NODES,
    waypoints=None,
) -> HeteroclinicOrbit:
    """Double the truncation interval, from [-6, 6] and at most five times,
    until the connection cost changes by less than 1e-4, and mark the orbit
    ``stabilised`` if it did.  Each doubling starts from the last orbit,
    extended by constant dwell at its ends."""
    wp = (
        [a.location] + [np.asarray(w, float) for w in (waypoints or [])] + [b.location]
    )
    T = 6.0
    start = DiscretePath.from_waypoints(wp, M, a=-T, b=T)
    orbit = hamiltonian_connection(p, a, b, start)
    for _ in range(5):
        T *= 2.0
        nodes = interpolate(np.linspace(-T, T, M + 1), orbit.path.times, orbit.path.nodes)
        new = hamiltonian_connection(p, a, b, DiscretePath(nodes, a=-T, b=T))
        new.stabilised = bool(abs(new.j_value - orbit.j_value) < 1e-4)
        orbit = new
        if orbit.stabilised:
            break
    return orbit


def shortest_paths(w: np.ndarray) -> np.ndarray:
    """All-pairs shortest-path distances over the undirected graph with edge
    weights ``w[u, v]``; unreachable pairs stay infinite.

    A zero, infinite or NaN weight is no edge, any other weight joins u and v
    both ways, and of ``w[u, v]`` and ``w[v, u]`` the smaller counts.  Each
    round relaxes every source at once, ``d[s, v] = min(d[s, v], min_u d[s, u]
    + w[u, v])``, and holds an (n, n, n) array (n is 5 on the triple well);
    the rounds stop when one changes nothing, after at most n.  A distance
    sums ``d[u] + w[u, v]`` from its source, as Dijkstra does, and rounding
    is monotone, so each distance is the least such sum over all paths and
    its bits are those of ``scipy.sparse.csgraph.shortest_path(w,
    method="D", directed=False)`` on a dense ``w``.  Those sums can differ
    in the last bit each way, so the lesser of ``d[s, v]`` and ``d[v, s]``
    is returned both ways: still the least sum over every path, and
    symmetric to the bit.  csgraph also drops a weight within 1e-8 of zero;
    here it is an edge.  A sum beyond the largest float reads inf.
    """
    w = np.asarray(w, dtype=float)
    edge = np.where(np.isfinite(w) & (w != 0.0), w, np.inf)
    edge = np.minimum(edge, edge.T)
    np.fill_diagonal(edge, np.inf)
    d = np.full(w.shape, np.inf)
    np.fill_diagonal(d, 0.0)
    with np.errstate(over="ignore"):
        for _ in range(len(w)):
            new = np.minimum(d, np.min(d[:, :, None] + edge, axis=1))
            if np.array_equal(new, d):
                break
            d = new
    return np.minimum(d, d.T)


@dataclass
class GraphEdge:
    i: int
    j: int
    j_value: float
    kind: str
    stabilised: bool | None = None  # saddle-saddle edges only

    def to_dict(self):
        out = {"from": self.i, "to": self.j, "J": self.j_value, "kind": self.kind}
        return out if self.stabilised is None else {**out, "stabilised": self.stabilised}


@dataclass
class TransitionGraph:
    """Connection costs between critical points and the induced transition energy.

    ``phi[i, j]`` is the shortest-path distance over direct-connection weights;
    missing connections stay infinite.  ``failures`` records each connection
    that was attempted and dropped: ``from`` and ``mode``/``sign`` for a
    gradient shot, ``from``/``to`` and ``side`` (+1 or -1, the homotopy class
    tried) for a saddle-saddle pair, then the ``error`` class name, its
    ``message`` and, if it has any, its ``diagnostics``.  No orbit is kept.
    ``build_transition_graph`` sets ``phi``; a graph built or changed by hand
    calls ``recompute_phi``.
    """

    cps: CriticalPointSet
    edges: list[GraphEdge] = field(default_factory=list)
    phi: np.ndarray | None = None
    failures: list[dict] = field(default_factory=list)

    def recompute_phi(self) -> np.ndarray:
        n = len(self.cps)
        w = np.full((n, n), np.inf)
        for e in self.edges:
            w[e.i, e.j] = min(w[e.i, e.j], e.j_value)
        self.phi = shortest_paths(w)
        return self.phi

    def to_dict(self) -> dict:
        return {
            "nodes": [c.to_dict() for c in self.cps],
            "edges": [e.to_dict() for e in self.edges],
            "phi": [[None if not np.isfinite(v) else v for v in row] for row in self.phi],
            "failures": self.failures,
        }


def _failure(err: Exception) -> dict:
    diagnostics = getattr(err, "diagnostics", None)
    out = {"error": type(err).__name__, "message": str(err)}
    return {**out, "diagnostics": diagnostics} if diagnostics else out


def _check_chain(path: DiscretePath, locs: np.ndarray, ends, reach: float, diagnostics=None) -> None:
    """Raise ChainError, with ``diagnostics``, if the path comes within
    ``reach`` of a critical point, of locations ``locs``, other than its ends."""
    d = np.min(np.linalg.norm(locs[:, None] - path.nodes, axis=-1), axis=1)
    for k in np.flatnonzero(d <= reach):
        if k not in ends:
            where = f"critical point {k} at {locs[k].tolist()}"
            raise ChainError(f"the orbit passes within {d[k]:.3g} of {where}", diagnostics)


def build_transition_graph(
    p: PotentialModel,
    cps: CriticalPointSet,
    ham_M: int = DEFAULT_NODES,
) -> TransitionGraph:
    """Assemble connection costs from all saddle gradient shots and from a
    direct connection of every pair of index-1 saddles of cps.

    Every unstable mode of every saddle is shot in both signs.  Each pair of
    index-1 saddles is flowed from the later index to the earlier, started
    bent through mid + 0.4 perp (side +1, perp the chord's unit normal).
    Side -1, through mid - 0.4 perp, is tried too only when another point of
    cps lies in the rhombus a, mid + 0.4 perp, b, mid - 0.4 perp (boundary
    included), which puts the two starts in different homotopy classes; the
    triple well's S1-S2 pair is tried once.  Outside two dimensions the
    straight start is tried once.  A shot flies first at LAND_RTOL,
    LAND_ATOL and stops at its target's landing radius (``landing_radii``);
    ending anywhere else, it is flown again at RTOL, ATOL, and fails as in
    ``gradient_shots`` but for the drawn orbits' arclength budget.  Its edge
    costs V(source) - V(target).  No orbit is kept.  A shot or pair that fails is recorded in
    ``graph.failures`` and leaves no edge; so is a saddle-saddle orbit, or a
    flowed path that failed its residual checks, that passes within a tenth
    of the least distance between two critical points of a third one
    (ChainError, with the failed checks' diagnostics): it is a chain through
    that point, whose own edges the graph already holds.  A ``ham_M`` below
    3 intervals raises ValueError before any shot runs.
    """
    if ham_M < 3:
        raise ValueError(f"a saddle-saddle connection needs at least 3 intervals, not {ham_M}")
    pairs = []
    saddles = [k for k, c in enumerate(cps) if c.index == 1]
    for i, j in itertools.combinations(saddles[::-1], 2):
        starts = [(+1, None)]
        if p.dim == 2:
            mid = 0.5 * (cps[i].location + cps[j].location)
            chord = cps[j].location - cps[i].location
            perp = np.array([-chord[1], chord[0]])
            perp /= np.linalg.norm(perp)
            # the two bends are homotopic unless another point lies between them
            d = np.delete(np.array([c.location for c in cps]), [i, j], axis=0) - mid
            between = np.any(2 * np.abs(d @ chord) / (chord @ chord) + np.abs(d @ perp) / 0.4 <= 1)
            starts = [(side, [mid + 0.4 * side * perp]) for side in ((+1, -1) if between else (+1,))]
        pairs.append((i, j, starts))

    graph = TransitionGraph(cps=cps)
    keys, shots = [], []
    for i, c in enumerate(cps):
        if c.index < 1:
            continue
        for n, shot in enumerate(saddle_shots(p, c)):
            keys.append({"from": i, "mode": n // 2, "sign": shot[2]})
            shots.append(shot)
    # a gradient orbit costs exactly the potential drop along it
    radii = landing_radii(p, cps) if shots else []
    for key, end in zip(keys, _run_shots(p, cps, shots, radii, functools.partial(_graph_end, p, cps))):
        if isinstance(end, Exception):
            graph.failures.append({**key, **_failure(end)})
            continue
        graph.edges.append(GraphEdge(key["from"], end, cps[key["from"]].value - cps[end].value, "gradient-forward"))

    if pairs:
        locs = np.array([c.location for c in cps])
        dist = np.linalg.norm(locs[:, None] - locs, axis=-1)
        reach = 0.1 * np.min(dist[np.triu_indices(len(cps), 1)])
    for i, j, starts in pairs:
        a, b = cps[i], cps[j]
        for side, wp in starts:
            try:
                try:
                    orbit = hamiltonian_connection_adaptive(p, a, b, M=ham_M, waypoints=wp)
                except NotConvergedError as err:
                    # a chain can fail the residual checks before it is seen to be one
                    if err.path is not None:
                        _check_chain(err.path, locs, (i, j), reach, err.diagnostics)
                    raise
                _check_chain(orbit.path, locs, (i, j), reach)
            except (NotConvergedError, NonFiniteObjectiveError, ChainError, ValueError) as err:
                graph.failures.append({"from": i, "to": j, "side": side, **_failure(err)})
                continue
            graph.edges.append(GraphEdge(i, j, orbit.j_value, orbit.kind, orbit.stabilised))

    graph.recompute_phi()
    return graph


@dataclass
class OrbitVerification:
    """Consistency report for a converged orbit."""

    energy_residual: float
    zero_energy_residual: float
    gradient_residual: float
    action_identity_gap: float  # relative gap of J vs the grad-squared integral
    sum_rule_gap: float | None  # |J - |V(b)-V(a)||, gradient kinds only

    @property
    def passed(self) -> bool:
        ok = self.energy_residual <= 1e-3 and self.action_identity_gap <= 1e-2
        if self.sum_rule_gap is not None:
            ok = ok and self.sum_rule_gap <= 1e-3
        return ok


def verify_orbit(p: PotentialModel, orbit: HeteroclinicOrbit) -> OrbitVerification:
    """Check the conserved-energy level, the action identity and, for gradient
    kinds, the endpoint sum rule."""
    # the unit-temperature force term is half the grad-squared integral
    grad_sq_integral = 2.0 * eval_I(p, orbit.path, 1.0).force
    scale = max(abs(orbit.j_value), 1e-12)
    identity_gap = abs(orbit.j_value - grad_sq_integral) / scale
    sum_rule = None
    if orbit.kind.startswith("gradient"):
        dv = abs(orbit.target.value - orbit.source.value)
        sum_rule = abs(orbit.j_value - dv)
    return OrbitVerification(
        energy_residual=orbit.energy_residual,
        zero_energy_residual=orbit.zero_energy_residual,
        gradient_residual=orbit.gradient_residual,
        action_identity_gap=identity_gap,
        sum_rule_gap=sum_rule,
    )

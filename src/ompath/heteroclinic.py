"""Heteroclinic connections between critical points and the transition graph.

Gradient connections are shot from saddle unstable manifolds, all shots of a
graph at once, with a batched adaptive Dormand-Prince 5(4) integrator;
saddle-saddle connections are found by minimizing the unit-temperature action
on a truncated interval.  Connection costs assemble into a weighted graph
whose shortest-path distances give the transition energy between any two
critical points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .critical import CriticalPoint, CriticalPointSet
from .flow import FlowConfig, minimize
from .functionals import _terms, eval_objective, row_sumsq
from .paths import DiscretePath, interpolate
from .potentials import PotentialModel


class EscapeError(RuntimeError):
    """A shot trajectory left the search region without reaching a critical point."""


class NotConvergedError(RuntimeError):
    """A connection failed its residual checks; diagnostics attached."""

    def __init__(self, msg, diagnostics=None):
        super().__init__(msg)
        self.diagnostics = diagnostics or {}


@dataclass
class HeteroclinicOrbit:
    """A converged connection between two critical points.

    ``kind`` is one of gradient-forward (xdot = -grad V), gradient-backward
    (xdot = +grad V) or hamiltonian.  Residuals are sup norms over interior
    nodes with centered differences.
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
    j_value, g_nodes = eval_objective(p, path, 1.0, "J", with_grad_v=True)
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
# tolerances and time limit of every shot, and the step-size controller of
# Hairer, Norsett & Wanner (Solving ODEs I, Sec. II.4)
RTOL, ATOL, T_MAX = 1e-10, 1e-13, 2000.0
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0
# a shot ends within CAPTURE of another critical point, or fails beyond
# ESCAPE of the critical points' centre
CAPTURE, ESCAPE = 1e-6, 10.0
# intervals of a saddle-saddle connection, and of the paths the CLI minimises
DEFAULT_NODES = 4000
# intervals of a gradient shot's resampled path
SHOT_NODES = 2000
_ROOT_TOL = 4.0 * np.finfo(float).eps


def _weigh(coefs, stages):
    """sum_s coefs[s] * stages[s] over the nonzero coefficients, added left to
    right.  Everything is elementwise, so a row's result does not depend on
    the other rows of the batch."""
    out = None
    for c, k in zip(coefs, stages):
        if c:
            out = c * k if out is None else out + c * k
    return out


def _rms(x: np.ndarray) -> np.ndarray:
    return np.sqrt(row_sumsq(x)) / np.sqrt(x.shape[-1])


def _levels(y: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Event levels of the rows of y, (K, C+1), each >= 0 once its event is
    reached: CAPTURE minus the distance to each of the C critical points,
    then the distance to the centre (the last row of pts) minus ESCAPE."""
    dist = np.sqrt(row_sumsq(y[:, None, :] - pts))
    dist[:, :-1] = CAPTURE - dist[:, :-1]
    dist[:, -1] -= ESCAPE
    return dist


def _dense(y_old, q, h, x):
    """Shampine's quartic at fractions x of the steps of length h from y_old:
    y_old + h (q1 x + q2 x^2 + q3 x^3 + q4 x^4), one step per row."""
    x = x[:, None]
    power = x
    acc = q[0] * power
    for qj in q[1:]:
        power = power * x
        acc = acc + qj * power
    return y_old + h[:, None] * acc


def _event_time(level, lo: float, hi: float) -> float:
    """A time in [lo, hi] at which ``level`` turns >= 0, given that it is at
    hi, bisected to a bracket of 4 ulp."""
    while hi - lo > _ROOT_TOL * (1.0 + abs(hi)):
        mid = 0.5 * (lo + hi)
        if level(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


@dataclass
class _Shot:
    """Where one shot ended: ``event`` is the column of _levels it reached
    (-1 for none, at T_MAX or on a step-size underflow) at time ``t``, at
    ``y`` if no event; ``steps`` holds its accepted steps' start times,
    lengths, start points and dense-output coefficients."""

    event: int = -1
    t: float = 0.0
    y: np.ndarray | None = None
    steps: tuple = ()


def _integrate(p: PotentialModel, y0: np.ndarray, pts: np.ndarray, watch: np.ndarray) -> list:
    """Integrate xdot = -grad V from every row of y0 at once, each row with its
    own adaptive Dormand-Prince 5(4) step, until it reaches one of the events
    ``watch`` marks for it (columns of _levels) or time T_MAX.

    Each stage makes one gradient call for all rows still running.  A row's
    numbers do not depend on the others: every operation is elementwise.
    """
    K = y0.shape[0]
    rows = np.arange(K)
    t = np.zeros(K)
    y = y0.copy()
    f = -p.gradient(y0)
    # initial step of Hairer, Norsett & Wanner (Sec. II.4)
    scale = ATOL + np.abs(y0) * RTOL
    d0, d1 = _rms(y0 / scale), _rms(f / scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        h0 = np.minimum(np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1), T_MAX)
        d2 = _rms((-p.gradient(y0 + h0[:, None] * f) - f) / scale) / h0
        h1 = np.where(
            (d1 <= 1e-15) & (d2 <= 1e-15),
            np.maximum(1e-6, h0 * 1e-3),
            (0.01 / np.maximum(d1, d2)) ** 0.2,
        )
    h_abs = np.minimum(np.minimum(100.0 * h0, h1), T_MAX)
    rejected = np.zeros(K, dtype=bool)
    running = np.ones(K, dtype=bool)
    level = _levels(y0, pts)
    shots = [_Shot() for _ in range(K)]
    log = []  # (rows, t_old, h, y_old, *stages) of the steps each round accepted

    while running.any():
        idx = rows[running]
        ti = t[idx]
        min_step = 10.0 * (np.nextafter(ti, np.inf) - ti)
        stuck = rejected[idx] & (h_abs[idx] < min_step)
        if stuck.any():
            running[idx[stuck]] = False
            continue
        t_new = np.minimum(ti + np.maximum(h_abs[idx], min_step), T_MAX)
        h = t_new - ti
        hc = h[:, None]
        yi = y[idx]
        k = [f[idx]]
        for a in _DP_A:
            k.append(-p.gradient(yi + _weigh(a, k) * hc))
        y_new = yi + hc * _weigh(_DP_B, k)
        k.append(-p.gradient(y_new))
        scale = ATOL + np.maximum(np.abs(yi), np.abs(y_new)) * RTOL
        err = _rms(_weigh(_DP_E, k) * hc / scale)

        ok = err < 1.0
        # the floor only keeps 0**-0.2 finite: every error below 6e-6 grows
        # the step by MAX_FACTOR, and a NaN error still shrinks it
        factor = SAFETY * np.maximum(err, 1e-10) ** -0.2
        grow = np.where(rejected[idx], np.minimum(1.0, factor), np.minimum(MAX_FACTOR, factor))
        h_abs[idx] = h * np.where(ok, grow, np.fmax(MIN_FACTOR, factor))
        rejected[idx] = ~ok
        if not ok.all():
            if not ok.any():
                continue
            idx, ti, t_new, h, yi, y_new = idx[ok], ti[ok], t_new[ok], h[ok], yi[ok], y_new[ok]
            k = [s[ok] for s in k]

        log.append((idx, ti, h, yi, *k))
        t[idx], y[idx], f[idx] = t_new, y_new, k[-1]
        new_level = _levels(y_new, pts)
        crossed = (level[idx] <= 0.0) & (new_level >= 0.0) & watch[idx]
        level[idx] = new_level
        running[idx[t_new >= T_MAX]] = False
        for r in np.flatnonzero(crossed.any(axis=1)):
            # the earliest of the events this step crossed, on its dense output
            q = [_weigh(c, [s[r : r + 1] for s in k]) for c in _DP_Q]
            y_old, t_old, step = yi[r : r + 1], ti[r], h[r : r + 1]

            def at(col, te):
                x = np.array([(te - t_old) / step[0]])
                return _levels(_dense(y_old, q, step, x), pts)[0, col]

            shot = shots[idx[r]]
            shot.t, shot.event = min(
                (_event_time(lambda te: at(col, te), t_old, t_new[r]), col)
                for col in np.flatnonzero(crossed[r])
            )
            running[idx[r]] = False

    for r, shot in enumerate(shots):
        if shot.event < 0:
            shot.t, shot.y = float(t[r]), y[r]
    if log:
        # each shot's accepted steps in order, with their dense-output coefficients
        owner, *cols = (np.concatenate(c) for c in zip(*log))
        order = np.argsort(owner, kind="stable")
        t_old, h, y_old, *stages = (c[order] for c in cols)
        q = [_weigh(c, stages) for c in _DP_Q]
        bounds = np.searchsorted(owner[order], np.arange(K + 1))
        for r, shot in enumerate(shots):
            sl = slice(bounds[r], bounds[r + 1])
            shot.steps = (t_old[sl], h[sl], y_old[sl], [qj[sl] for qj in q])
    return shots


def _resample(shot: _Shot, n_nodes: int) -> np.ndarray:
    """The shot's dense output at n_nodes + 1 uniform times on [0, shot.t]; a
    time on a step boundary takes the earlier step."""
    t_old, h, y_old, q = shot.steps
    ts = np.linspace(0.0, shot.t, n_nodes + 1)
    seg = np.searchsorted(t_old[1:], ts, side="left")
    return _dense(y_old[seg], [qj[seg] for qj in q], h[seg], (ts - t_old[seg]) / h[seg])


def _shot_orbit(
    p: PotentialModel, source: CriticalPoint, cps: CriticalPointSet, shot: _Shot, n_nodes: int
) -> HeteroclinicOrbit:
    """The orbit of a finished shot, or the EscapeError/NotConvergedError it ended in."""
    if shot.event == len(cps):
        raise EscapeError("trajectory left the search region")
    if shot.event < 0:
        raise NotConvergedError(
            "gradient shot reached neither a critical point nor the escape radius",
            {"t_final": shot.t, "x_final": shot.y.tolist()},
        )
    target = cps[shot.event]
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


def gradient_shots(p: PotentialModel, cps: CriticalPointSet, shots, n_nodes: int = SHOT_NODES) -> list:
    """Shoot the descending gradient flow off saddle unstable manifolds.

    Each shot ``(source, eig_dir, sign)`` integrates xdot = -grad V from
    source + 1e-6*sign*eig_dir (eig_dir normalised) until the trajectory
    comes within 1e-6 of another critical point of the set, then resamples it
    to a uniform-step path centered on [-T, T].  It fails with EscapeError
    beyond distance 10 from the centre of the critical points, and with
    NotConvergedError beyond time 2000 or when the resampled path is longer
    than 100.  All shots are integrated together, and each gives the same
    numbers as it would alone.  Returns one entry per shot: its orbit, or the
    error that dropped it.
    """
    for source, _, _ in shots:
        if source.index < 1:
            raise ValueError("source must be a saddle (index >= 1)")
    if not shots:
        return []
    locs = [c.location for c in cps]
    pts = np.vstack(locs + [np.mean(locs, axis=0)])
    starts, watch = [], []
    for source, eig_dir, sign in shots:
        eig_dir = np.asarray(eig_dir, dtype=float)
        eig_dir = eig_dir / np.linalg.norm(eig_dir)
        starts.append(source.location + 1e-6 * float(sign) * eig_dir)
        watch.append([c is not source for c in cps] + [True])
    out = []
    for (source, _, _), shot in zip(shots, _integrate(p, np.array(starts), pts, np.array(watch))):
        try:
            out.append(_shot_orbit(p, source, cps, shot, n_nodes))
        except (EscapeError, NotConvergedError) as err:
            out.append(err)
    return out


def saddle_shots(p: PotentialModel, c: CriticalPoint) -> list:
    """The ``gradient_shots`` entries ``(c, eig_dir, sign)`` of every unstable
    mode of the saddle c, in signs +1 and -1: entry 2m + k is the m-th lowest
    Hessian eigenvector in sign (+1, -1)[k]."""
    if c.index < 1:
        raise ValueError("source must be a saddle (index >= 1)")
    eigval, eigvec = np.linalg.eigh(p.hessian(c.location))
    return [(c, eigvec[:, m], sign) for m in np.flatnonzero(eigval < 0.0) for sign in (+1, -1)]


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
    descended over interior nodes to ``grad_tol`` 1e-7 within 60,000
    iterations.  The result must satisfy the second-order stationarity system
    to 1e-2 and conserve energy at level zero to 1e-3, and is downgraded to a
    gradient kind when the first-order residual is also at most 1e-3.
    """
    if a is b or np.allclose(a.location, b.location):
        raise ValueError("endpoints must be distinct critical points")
    if not (
        np.allclose(start.left, a.location, atol=1e-8)
        and np.allclose(start.right, b.location, atol=1e-8)
    ):
        raise ValueError("start endpoints must sit on the given critical points")

    cfg = FlowConfig(objective="J", eps=1.0, tau0=1e-2, grad_tol=1e-7, max_iter=60_000)
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
    until the connection cost changes by less than 1e-4.  Each doubling starts
    from the last orbit, extended by constant dwell at its ends."""
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
        if abs(new.j_value - orbit.j_value) < 1e-4:
            return new
        orbit = new
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
    method="D", directed=False)`` on a dense ``w``.  csgraph also drops a
    weight within 1e-8 of zero; here it is an edge.  A sum beyond the
    largest float reads inf.
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
    return d


@dataclass
class GraphEdge:
    i: int
    j: int
    j_value: float
    kind: str

    def to_dict(self):
        return {"from": self.i, "to": self.j, "J": self.j_value, "kind": self.kind}


@dataclass
class TransitionGraph:
    """Connection costs between critical points and the induced transition energy.

    ``phi[i, j]`` is the shortest-path distance over direct-connection weights;
    missing connections stay infinite.  ``failures`` records each connection
    that was attempted and dropped: ``from`` and ``mode``/``sign`` for a
    gradient shot, ``from``/``to`` and ``side`` for a saddle-saddle pair, then
    the ``error`` class name and its ``message``.  ``build_transition_graph``
    sets ``phi``; a graph built or changed by hand calls ``recompute_phi``.
    """

    cps: CriticalPointSet
    edges: list[GraphEdge] = field(default_factory=list)
    orbits: list[HeteroclinicOrbit] = field(default_factory=list)
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
    return {"error": type(err).__name__, "message": str(err)}


def build_transition_graph(
    p: PotentialModel,
    cps: CriticalPointSet,
    hamiltonian_pairs=(),
    ham_M: int = DEFAULT_NODES,
) -> TransitionGraph:
    """Assemble connection costs from all saddle gradient shots.

    Every unstable mode of every saddle is shot in both signs.  Pairs listed
    in ``hamiltonian_pairs`` (as index pairs into cps) additionally get a
    direct saddle-saddle connection attempted in both homotopy classes (arcs
    on either side of the segment midpoint); outside two dimensions there is
    no one perpendicular to bend the start along, and the straight start is
    tried once.  All shots run as one batch (``gradient_shots``).  A shot or
    pair that fails is recorded in ``graph.failures`` and leaves no edge.  A
    ``ham_M`` below 3 intervals, with or without pairs, and a pair that names
    one point twice, raise ValueError before any shot runs.
    """
    if ham_M < 3:
        raise ValueError(f"a saddle-saddle connection needs at least 3 intervals, not {ham_M}")
    pairs = []
    for i, j in hamiltonian_pairs:
        if i == j:
            raise ValueError(f"saddle pair ({i}, {j}) names one point twice")
        perp = None
        if p.dim == 2:
            chord = cps[j].location - cps[i].location
            perp = np.array([-chord[1], chord[0]])
            perp /= np.linalg.norm(perp)
        pairs.append((i, j, perp))

    graph = TransitionGraph(cps=cps)
    keys, shots = [], []
    for i, c in enumerate(cps):
        if c.index < 1:
            continue
        for n, shot in enumerate(saddle_shots(p, c)):
            keys.append({"from": i, "mode": n // 2, "sign": shot[2]})
            shots.append(shot)
    for key, orbit in zip(keys, gradient_shots(p, cps, shots)):
        if isinstance(orbit, Exception):
            graph.failures.append({**key, **_failure(orbit)})
            continue
        j_idx, _ = cps.nearest(orbit.target.location)
        graph.edges.append(GraphEdge(key["from"], j_idx, orbit.j_value, orbit.kind))
        graph.orbits.append(orbit)

    for i, j, perp in pairs:
        a, b = cps[i], cps[j]
        mid = 0.5 * (a.location + b.location)
        for side in (+1,) if perp is None else (+1, -1):
            wp = None if perp is None else [mid + 0.4 * side * perp]
            try:
                orbit = hamiltonian_connection_adaptive(p, a, b, M=ham_M, waypoints=wp)
            except (NotConvergedError, ValueError) as err:
                graph.failures.append({"from": i, "to": j, "side": side, **_failure(err)})
                continue
            graph.edges.append(GraphEdge(i, j, orbit.j_value, orbit.kind))
            graph.orbits.append(orbit)

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
    grad_sq_integral = 2.0 * _terms(p, orbit.path, 1.0, laplacian=False)[1]
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

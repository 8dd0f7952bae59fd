"""Heteroclinic connections between critical points and the transition graph.

Gradient connections are shot from saddle unstable manifolds with an adaptive
Runge-Kutta integrator; saddle-saddle connections are found by minimizing the
unit-temperature action on a truncated interval.  Connection costs assemble
into a weighted graph whose shortest-path distances give the transition
energy between any two critical points.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .critical import CriticalPoint, CriticalPointSet
from .flow import FlowConfig, minimize
from .functionals import _terms, eval_objective
from .paths import DiscretePath
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

    def reversed(self) -> "HeteroclinicOrbit":
        return replace(
            self,
            source=self.target,
            target=self.source,
            path=self.path.reversed(),
            endpoint_distances=self.endpoint_distances[::-1],
        )


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
    sp2 = np.sum(v * v, axis=-1)
    gn2 = np.sum(g * g, axis=-1)
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


def gradient_connection(
    p: PotentialModel,
    source: CriticalPoint,
    eig_dir: np.ndarray,
    sign: int,
    cps: CriticalPointSet,
    n_nodes: int = 2000,
) -> HeteroclinicOrbit:
    """Shoot the descending gradient flow off a saddle's unstable manifold.

    Integrates xdot = -grad V from source + 1e-6*sign*eig_dir until the
    trajectory comes within 1e-6 of another critical point of the set, then
    resamples to a uniform-step path centered on [-T, T].  The shot fails
    beyond distance 10 from the centre of the critical points, beyond time
    2000, or when the resampled path is longer than 100.
    """
    from scipy.integrate import solve_ivp  # here, so that the flow alone never loads it

    if source.index < 1:
        raise ValueError("source must be a saddle (index >= 1)")
    eig_dir = np.asarray(eig_dir, dtype=float)
    eig_dir = eig_dir / np.linalg.norm(eig_dir)
    x0 = source.location + 1e-6 * float(sign) * eig_dir
    center = np.mean([c.location for c in cps], axis=0)

    def rhs(t, y):
        return -p.gradient(y)

    events = []
    others = [c for c in cps if c is not source]
    for c in others:
        loc = c.location

        def hit(t, y, loc=loc):
            return np.linalg.norm(y - loc) - 1e-6

        hit.terminal = True
        hit.direction = -1
        events.append(hit)

    def escaped(t, y):
        return np.linalg.norm(y - center) - 10.0

    escaped.terminal = True
    escaped.direction = 1
    events.append(escaped)

    sol = solve_ivp(
        rhs,
        (0.0, 2000.0),
        x0,
        method="RK45",
        rtol=1e-10,
        atol=1e-13,
        events=events,
        dense_output=True,
    )
    if len(sol.t_events[-1]) > 0:
        raise EscapeError("trajectory left the search region")
    hits = [i for i, te in enumerate(sol.t_events[:-1]) if len(te) > 0]
    if not hits:
        raise NotConvergedError(
            "gradient shot reached neither a critical point nor the escape radius",
            {"t_final": sol.t[-1], "x_final": sol.y[:, -1].tolist()},
        )
    target = others[hits[0]]
    t_end = float(sol.t_events[hits[0]][0])

    ts = np.linspace(0.0, t_end, n_nodes + 1)
    nodes = sol.sol(ts).T
    arclength = float(np.sum(np.linalg.norm(np.diff(nodes, axis=0), axis=-1)))
    if arclength > 100.0:
        raise NotConvergedError("trajectory exceeded the arclength budget")
    T = t_end / 2.0
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


def hamiltonian_connection(
    p: PotentialModel,
    a: CriticalPoint,
    b: CriticalPoint,
    T: float,
    M: int,
    start: DiscretePath,
) -> HeteroclinicOrbit:
    """Connect two critical points by minimizing the truncated action.

    The unit-temperature action over [-T, T] is descended over interior
    nodes to ``grad_tol`` 1e-7 within 60,000 iterations.  The result must
    satisfy the second-order stationarity system to 1e-2 and conserve energy
    at level zero to 1e-3, and is downgraded to a gradient kind when the
    first-order residual is also at most 1e-3.
    """
    if a is b or np.allclose(a.location, b.location):
        raise ValueError("endpoints must be distinct critical points")
    if start.M != M or not np.isclose(start.a, -T) or not np.isclose(start.b, T):
        raise ValueError("start must span [-T, T] with M intervals")
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


def _pad_and_resample(path: DiscretePath, T_new: float, M: int) -> DiscretePath:
    """Extend a path to [-T_new, T_new] by constant endpoint dwell, resampled."""
    t_old = path.times
    ts = np.linspace(-T_new, T_new, M + 1)
    nodes = np.empty((M + 1, path.dim))
    for j in range(path.dim):
        nodes[:, j] = np.interp(ts, t_old, path.nodes[:, j])
    nodes[0] = path.left
    nodes[-1] = path.right
    return DiscretePath(nodes, a=-T_new, b=T_new)


def hamiltonian_connection_adaptive(
    p: PotentialModel,
    a: CriticalPoint,
    b: CriticalPoint,
    M: int = 4000,
    waypoints=None,
) -> HeteroclinicOrbit:
    """Double the truncation interval, from [-6, 6] and at most five times,
    until the connection cost changes by less than 1e-4."""
    wp = (
        [a.location] + [np.asarray(w, float) for w in (waypoints or [])] + [b.location]
    )
    T = 6.0
    start = DiscretePath.from_waypoints(wp, M, a=-T, b=T)
    orbit = hamiltonian_connection(p, a, b, T, M, start)
    for _ in range(5):
        T *= 2.0
        start = _pad_and_resample(orbit.path, T, M)
        new = hamiltonian_connection(p, a, b, T, M, start)
        if abs(new.j_value - orbit.j_value) < 1e-4:
            return new
        orbit = new
    return orbit


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
    the ``error`` class name and its ``message``.
    """

    cps: CriticalPointSet
    edges: list[GraphEdge] = field(default_factory=list)
    orbits: list[HeteroclinicOrbit] = field(default_factory=list)
    phi: np.ndarray | None = None
    failures: list[dict] = field(default_factory=list)

    def recompute_phi(self) -> np.ndarray:
        from scipy.sparse.csgraph import shortest_path  # here, as solve_ivp above

        n = len(self.cps)
        w = np.full((n, n), np.inf)
        np.fill_diagonal(w, 0.0)
        for e in self.edges:
            w[e.i, e.j] = min(w[e.i, e.j], e.j_value)
            w[e.j, e.i] = min(w[e.j, e.i], e.j_value)
        self.phi = shortest_path(w, method="D", directed=False)
        return self.phi

    def phi_between(self, i: int, j: int) -> float:
        if self.phi is None:
            self.recompute_phi()
        return float(self.phi[i, j])

    def to_dict(self) -> dict:
        if self.phi is None:
            self.recompute_phi()
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
    ham_M: int = 4000,
) -> TransitionGraph:
    """Assemble connection costs from all saddle gradient shots.

    Every unstable mode of every saddle is shot in both signs.  Pairs listed
    in ``hamiltonian_pairs`` (as index pairs into cps) additionally get a
    direct saddle-saddle connection attempted in both homotopy classes (arcs
    on either side of the segment midpoint).  A shot or pair that fails is
    recorded in ``graph.failures`` and leaves no edge.
    """
    graph = TransitionGraph(cps=cps)
    for i, c in enumerate(cps):
        if c.index < 1:
            continue
        H = p.hessian(c.location)
        eigval, eigvec = np.linalg.eigh(H)
        for mode in np.flatnonzero(eigval < 0.0):
            for sign in (+1, -1):
                try:
                    orbit = gradient_connection(p, c, eigvec[:, mode], sign, cps)
                except (EscapeError, NotConvergedError) as err:
                    graph.failures.append(
                        {"from": i, "mode": int(mode), "sign": sign, **_failure(err)}
                    )
                    continue
                j_idx, _ = cps.nearest(orbit.target.location)
                graph.edges.append(GraphEdge(i, j_idx, orbit.j_value, orbit.kind))
                graph.orbits.append(orbit)

    for i, j in hamiltonian_pairs:
        a, b = cps[i], cps[j]
        mid = 0.5 * (a.location + b.location)
        chord = b.location - a.location
        perp = np.zeros_like(chord)
        if p.dim == 2:
            perp = np.array([-chord[1], chord[0]])
            perp /= np.linalg.norm(perp)
        for side in (+1, -1):
            wp = [mid + 0.4 * side * perp] if np.any(perp) else None
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

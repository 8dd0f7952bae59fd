"""Named configurations for the triple-well figure experiments.

Each figure runner writes CSV traces/paths and a JSON summary into an output
directory and returns the summary dict.  Plotting is left to whatever
consumes the CSV files.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .critical import CriticalPointSet, find_critical_points
from .flow import FlowConfig, FlowTrace, continuation_minimize, minimize
from .functionals import FunctionalReport, eval_I
from .gamma import compare_with_eps, eval_I0, optimize_support, support_score
from .heteroclinic import (
    DEFAULT_NODES,
    TransitionGraph,
    build_transition_graph,
    gradient_connection,
    hamiltonian_connection_adaptive,
)
from .paths import DiscretePath
from .potentials import PotentialModel, TripleWell

_SQ2 = np.sqrt(2.0)

TRIPLE_WELL_NAMED = {
    "M0": (0.0, 0.0),
    "M1": (1.0, 0.0),
    "M2": (0.0, 1.0),
    "S1": ((2.0 + _SQ2) / 6.0, (2.0 - _SQ2) / 6.0),
    "S2": ((2.0 - _SQ2) / 6.0, (2.0 + _SQ2) / 6.0),
}

# the triple well's search box and seed grid per axis
DEFAULT_BOX = ((-0.5, 1.5),) * 2
DEFAULT_GRID = 40
# Annealing schedule for the full-action experiments whose direct flow at the
# target temperature stalls in a wide-interface transient: each stage warm
# starts the next, sharpening the transition layers progressively.
DEFAULT_CONTINUATION = (0.1, 0.03, 0.01, 3e-3)


def named_points(p: PotentialModel) -> dict[str, np.ndarray]:
    """Coordinates of the named critical points of the built-in potentials."""
    if isinstance(p, TripleWell):
        return {k: np.array(v) for k, v in TRIPLE_WELL_NAMED.items()}
    if p.dim == 1:
        return {"Mminus": np.array([-1.0]), "S": np.array([0.0]), "Mplus": np.array([1.0])}
    return {}


def resolve_point(token: str, p: PotentialModel) -> np.ndarray:
    """A named critical point or a comma-separated coordinate tuple."""
    names = named_points(p)
    if token in names:
        return names[token]
    try:
        x = np.array([float(v) for v in token.split(",")], dtype=float)
    except ValueError:
        raise ValueError(f"cannot resolve point {token!r}") from None
    if x.shape != (p.dim,):
        raise ValueError(f"point {token!r} has wrong dimension for this potential")
    return x


def critical_index(cps: CriticalPointSet, token: str, p: PotentialModel) -> int:
    """Index of the critical point of ``cps`` that ``token`` names, by name or
    coordinates (see resolve_point); it must lie within 1e-6 of them."""
    i, d = cps.nearest(resolve_point(token, p))
    if d > 1e-6:
        raise ValueError(f"{token!r} is not a critical point (nearest is {d:.2g} away)")
    return i


def run_minimization(
    p: PotentialModel,
    waypoints,
    M: int,
    eps: float,
    objective: str,
    grad_tol: float = FlowConfig.grad_tol,
    max_iter: int = FlowConfig.max_iter,
    eps_schedule=None,
    jitter: float = 0.0,
    seed: int = 0,
) -> tuple[DiscretePath, FlowTrace, FunctionalReport]:
    """Minimize one objective from a piecewise-linear waypoint start."""
    start = DiscretePath.from_waypoints(waypoints, M)
    if jitter > 0.0:
        rng = np.random.default_rng(seed)
        interior = start.interior + jitter * rng.standard_normal(start.interior.shape)
        start = start.with_interior(interior)
    cfg = FlowConfig(objective=objective, eps=eps, grad_tol=grad_tol, max_iter=max_iter)
    if eps_schedule:
        path, trace = continuation_minimize(p, start, cfg, eps_schedule)
    else:
        path, trace = minimize(p, start, cfg)
    return path, trace, eval_I(p, path, eps)


@dataclass
class ExperimentConfig:
    """Resolved settings for one figure run."""

    eps: float = FlowConfig.eps
    nodes: int = DEFAULT_NODES
    out: str = "."
    max_iter: int = FlowConfig.max_iter


def write_json(outdir, name, payload) -> str:
    """Write payload as indented JSON with a trailing newline; returns the file path."""
    os.makedirs(outdir, exist_ok=True)
    target = os.path.join(outdir, name)
    with open(target, "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")
    return target


def triple_well_graph(p, cps: CriticalPointSet | None = None, ham_M: int = DEFAULT_NODES) -> TransitionGraph:
    """Transition graph of the triple well with the direct saddle-saddle edge."""
    if cps is None:
        cps = find_critical_points(p, DEFAULT_BOX, DEFAULT_GRID)
    pair = (critical_index(cps, "S1", p), critical_index(cps, "S2", p))
    return build_transition_graph(p, cps, hamiltonian_pairs=[pair], ham_M=ham_M)


def continuation_schedule(eps: float) -> list[float]:
    """The default annealing schedule ending at the target temperature."""
    return [e for e in DEFAULT_CONTINUATION if e > eps] + [eps]


def _minimize_to_files(p, tag, waypoints, cfg: ExperimentConfig, objective, eps_schedule=None):
    """Run one figure minimization, write its path and trace CSVs, and return
    the path, its report and the summary record of the minimizer."""
    path, trace, report = run_minimization(
        p,
        waypoints,
        cfg.nodes,
        cfg.eps,
        objective,
        max_iter=cfg.max_iter,
        eps_schedule=eps_schedule,
    )
    os.makedirs(cfg.out, exist_ok=True)
    path.write_csv(os.path.join(cfg.out, f"{tag}_path.csv"))
    trace.write_csv(os.path.join(cfg.out, f"{tag}_trace.csv"))
    record = {"J_eps": report.j_eps, "I_eps": report.i_eps, "converged": trace.converged}
    return path, report, record


# Waypoint routes used by the figure experiments.  The "via" routes thread
# the middle well; the "avoid" routes stay away from the origin.
def figure_routes(p) -> dict:
    n = named_points(p)
    return {
        "M1_M2_via_M0": [n["M1"], n["S1"], n["M0"], n["S2"], n["M2"]],
        "M1_M2_avoid": [n["M1"], n["S1"], n["S2"], n["M2"]],
        "S1_S2_via_M0": [n["S1"], n["M0"], n["S2"]],
        "S1_S2_avoid_a": [n["S1"], (0.5, 0.5), n["S2"]],
        "S1_S2_avoid_b": [n["S1"], (0.7, 0.7), n["S2"]],
        "S1_S2_avoid_c": [n["S1"], (0.45, 0.65), n["S2"]],
    }


def run_figure(n: int, cfg: ExperimentConfig) -> dict:
    """Reproduce the data behind figure n (1..9) of the triple-well study."""
    if n not in range(1, 10):
        raise ValueError("figure number must be in 1..9")
    p = TripleWell()
    routes = figure_routes(p)
    names = named_points(p)
    summary: dict = {"figure": n, "potential": "triple-well", "eps": cfg.eps, "nodes": cfg.nodes}

    if n == 1:
        xs = np.linspace(*DEFAULT_BOX[0], 201)
        grid = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
        vals = p.value(grid)
        os.makedirs(cfg.out, exist_ok=True)
        with open(os.path.join(cfg.out, "potential_grid.csv"), "w") as f:
            f.write("x1,x2,V\n")
            for (x1, x2), v in zip(grid, vals):
                f.write(f"{x1:.12g},{x2:.12g},{v:.17g}\n")
        cps = find_critical_points(p, DEFAULT_BOX, DEFAULT_GRID)
        summary["critical_points"] = [c.to_dict() for c in cps]
        write_json(cfg.out, "critical_points.json", summary["critical_points"])
        summary["saddle_contour_level"] = float(2.0 / 27.0)

    elif n == 2:
        cps = find_critical_points(p, DEFAULT_BOX, DEFAULT_GRID)
        os.makedirs(cfg.out, exist_ok=True)
        orbits = {}
        for sname in ("S1", "S2"):
            saddle = cps[critical_index(cps, sname, p)]
            eigval, eigvec = np.linalg.eigh(p.hessian(saddle.location))
            mode = int(np.argmin(eigval))
            for sign in (+1, -1):
                orbit = gradient_connection(p, saddle, eigvec[:, mode], sign, cps)
                target = orbit.target.location
                tname = next(k for k, v in names.items() if np.allclose(v, target, atol=1e-6))
                tag = f"gradient_{sname}_{tname}"
                orbit.path.write_csv(os.path.join(cfg.out, f"{tag}.csv"))
                orbits[tag] = {"J": orbit.j_value, "kind": orbit.kind}
        i1, i2 = critical_index(cps, "S1", p), critical_index(cps, "S2", p)
        mid = 0.5 * (cps[i1].location + cps[i2].location)
        ham = hamiltonian_connection_adaptive(
            p, cps[i1], cps[i2], M=cfg.nodes, waypoints=[mid + np.array([0.28, 0.28])]
        )
        ham.path.write_csv(os.path.join(cfg.out, "hamiltonian_S1_S2.csv"))
        orbits["hamiltonian_S1_S2"] = {
            "J": ham.j_value,
            "kind": ham.kind,
            "energy_residual": ham.energy_residual,
            "gradient_residual": ham.gradient_residual,
        }
        summary["orbits"] = orbits

    elif n == 3:
        res = {}
        for tag, route in (("green_via_M0", "M1_M2_via_M0"), ("blue_avoid_M0", "M1_M2_avoid")):
            _, _, res[tag] = _minimize_to_files(p, tag, routes[route], cfg, "J")
        summary["minimizers"] = res

    elif n in (4, 5):
        objective = "J" if n == 4 else "I"
        res = {}
        for tag in ("S1_S2_avoid_a", "S1_S2_avoid_b", "S1_S2_avoid_c"):
            _, _, res[tag] = _minimize_to_files(p, f"{objective}_{tag}", routes[tag], cfg, objective)
        summary["minimizers"] = res

    elif n in (6, 7):
        objective = "J" if n == 6 else "I"
        tag = f"{objective}_S1_S2_via_M0"
        path, report, record = _minimize_to_files(p, tag, routes["S1_S2_via_M0"], cfg, objective)
        record["fraction_near_M0"] = support_score(path, [names["M0"]])
        summary["minimizers"] = {tag: record}
        if n == 7:
            cps = find_critical_points(p, DEFAULT_BOX, DEFAULT_GRID)
            graph = build_transition_graph(p, cps)
            seq = [cps[critical_index(cps, k, p)] for k in ("S1", "M0", "S2")]
            bv = optimize_support(graph, seq[0], seq[-1], seq)
            predicted = eval_I0(graph, bv)
            cmp = compare_with_eps((path, report), predicted, cfg.eps, support=bv)
            summary["gamma"] = {"predicted": predicted.to_dict(), "comparison": cmp.to_dict()}

    elif n == 8:
        tag = "J_M1_M2_via_all"
        path, report, record = _minimize_to_files(p, tag, routes["M1_M2_via_M0"], cfg, "J")
        record["fraction_near_support"] = support_score(path, list(names.values()))
        summary["minimizers"] = {tag: record}

    elif n == 9:
        # The full-action run starts away from the middle well (its minimizer
        # also stays away) and is annealed down to the target temperature; a
        # direct flow at eps = 1e-3 stalls in a wide-interface transient.
        tag = "I_M1_M2_avoid"
        path, report, record = _minimize_to_files(
            p, tag, routes["M1_M2_avoid"], cfg, "I", eps_schedule=continuation_schedule(cfg.eps)
        )
        dwell = [names["M1"], names["M2"]]
        record["fraction_near_M1_M2"] = support_score(path, dwell)
        record["transition_fraction"] = 1.0 - record["fraction_near_M1_M2"]
        summary["minimizers"] = {tag: record}
        graph = triple_well_graph(p, ham_M=cfg.nodes)
        best = None
        for seq_names in (("M1", "S1", "M0", "S2", "M2"), ("M1", "S1", "S2", "M2")):
            seq = [graph.cps[critical_index(graph.cps, k, p)] for k in seq_names]
            bv = optimize_support(graph, seq[0], seq[-1], seq)
            rep0 = eval_I0(graph, bv)
            if best is None or rep0.i0 < best[1].i0:
                best = (bv, rep0, list(seq_names))
        bv, predicted, seq_names = best
        cmp = compare_with_eps((path, report), predicted, cfg.eps, support=bv)
        summary["gamma"] = {
            "predicted_sequence": seq_names,
            "predicted": predicted.to_dict(),
            "comparison": cmp.to_dict(),
        }

    write_json(cfg.out, f"figure{n}_summary.json", summary)
    return summary

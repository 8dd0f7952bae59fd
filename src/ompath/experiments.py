"""Named configurations for the triple-well figure experiments, the
experiment steps the figures and the CLI share, and the one file writer.

Each figure runner writes CSV traces/paths and a JSON summary into an output
directory and returns the summary dict.  Plotting is left to whatever
consumes the CSV files.  Every file a run writes goes through ``write_text``.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .critical import CriticalPointSet, find_critical_points
from .flow import FlowConfig, FlowTrace, continuation_minimize, minimize
from .functionals import FunctionalReport, eval_I
from .gamma import compare_with_eps, eval_I0, optimize_support, support_score
from .heteroclinic import (
    DEFAULT_NODES,
    TransitionGraph,
    build_transition_graph,
    gradient_shots,
    hamiltonian_connection_adaptive,
    saddle_shots,
)
from .paths import DiscretePath
from .potentials import PotentialModel, TripleWell

# the triple well's names, as perfbench imports them
TRIPLE_WELL_NAMED = TripleWell.NAMED_POINTS

# the triple well's search box and seed grid per axis
DEFAULT_BOX = ((-0.5, 1.5),) * 2
DEFAULT_GRID = 40
# Annealing schedule for the full-action experiments whose direct flow at the
# target temperature stalls in a wide-interface transient: each stage warm
# starts the next, sharpening the transition layers progressively.
DEFAULT_CONTINUATION = (0.1, 0.03, 0.01, 3e-3)


def named_points(p: PotentialModel) -> dict[str, np.ndarray]:
    """Coordinates of the critical points that p's class names."""
    return {k: np.array(v) for k, v in p.NAMED_POINTS.items()}


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
    # "not <=" so that a NaN distance is no match either
    if not d <= 1e-6:
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
    """Minimize one objective from a piecewise-linear waypoint start, whose
    interior nodes move by ``jitter`` times standard normal noise from ``seed``."""
    if not 0.0 <= jitter < np.inf:
        raise ValueError(f"jitter must be >= 0 and finite, not {jitter!r}")
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


def write_text(outdir, name, text: str) -> str:
    """Write text to ``outdir/name``, creating outdir, with its line endings
    as given, so csv rows keep their CRLF; returns the file path.  Every file
    a run writes goes through here."""
    os.makedirs(outdir, exist_ok=True)
    target = os.path.join(outdir, name)
    with open(target, "w", newline="") as f:
        f.write(text)
    return target


def write_json(outdir, name, payload) -> str:
    """Write payload as indented JSON with a trailing newline; returns the file path."""
    return write_text(outdir, name, json.dumps(payload, indent=2) + "\n")


def minimize_to_files(outdir, prefix: str, *args, **kwargs):
    """run_minimization(*args, **kwargs), then write the path and the trace to
    ``{prefix}path.csv`` and ``{prefix}trace.csv`` in outdir."""
    path, trace, report = run_minimization(*args, **kwargs)
    write_text(outdir, f"{prefix}path.csv", path.to_csv())
    write_text(outdir, f"{prefix}trace.csv", trace.to_csv())
    return path, trace, report


def triple_well_graph(p, cps: CriticalPointSet | None = None, ham_M: int = DEFAULT_NODES) -> TransitionGraph:
    """Transition graph of the triple well, its direct S1-S2 edge included;
    cps defaults to the critical points of the default box and grid."""
    if cps is None:
        cps = find_critical_points(p, DEFAULT_BOX, DEFAULT_GRID)
    return build_transition_graph(p, cps, ham_M=ham_M)


def route_limit(graph: TransitionGraph, route, p: PotentialModel) -> tuple:
    """The best step path (a BVStepPath) through a route of the graph's
    critical points, each named or given by coordinates (see critical_index),
    and its limit value (a GammaReport)."""
    seq = [graph.cps[critical_index(graph.cps, tok, p)] for tok in route]
    bv = optimize_support(graph, seq[0], seq[-1], seq)
    return bv, eval_I0(graph, bv)


def continuation_schedule(eps: float) -> list[float]:
    """The default annealing schedule ending at the target temperature."""
    return [e for e in DEFAULT_CONTINUATION if e > eps] + [eps]


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


def run_figure(
    n: int,
    out=".",
    eps: float = FlowConfig.eps,
    nodes: int = DEFAULT_NODES,
    max_iter: int = FlowConfig.max_iter,
) -> dict:
    """Reproduce the data behind figure n (1..9) of the triple-well study in out."""
    if n not in range(1, 10):
        raise ValueError("figure number must be in 1..9")
    # the settings of the figure's flows are checked before any file is written
    FlowConfig(eps=eps, max_iter=max_iter)
    if nodes < 3:
        raise ValueError(f"a figure path needs at least 3 intervals, not {nodes}")
    p = TripleWell()
    routes = figure_routes(p)
    names = named_points(p)
    summary: dict = {"figure": n, "potential": "triple-well", "eps": eps, "nodes": nodes}

    def flow(tag, route, objective, key=None, **kwargs):
        # one figure minimization, its files named by tag and its summary
        # record by key (tag if unset)
        path, trace, report = minimize_to_files(
            out, f"{tag}_", p, routes[route], nodes, eps, objective, max_iter=max_iter, **kwargs
        )
        record = {"J_eps": report.j_eps, "I_eps": report.i_eps, "converged": trace.converged}
        summary.setdefault("minimizers", {})[key or tag] = record
        return path, report, record

    if n == 1:
        xs = np.linspace(*DEFAULT_BOX[0], 201)
        grid = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
        rows = (f"{x1:.12g},{x2:.12g},{v:.17g}\n" for (x1, x2), v in zip(grid, p.value(grid)))
        write_text(out, "potential_grid.csv", "x1,x2,V\n" + "".join(rows))
        cps = find_critical_points(p, DEFAULT_BOX, DEFAULT_GRID)
        summary["critical_points"] = [c.to_dict() for c in cps]
        write_json(out, "critical_points.json", summary["critical_points"])
        summary["saddle_contour_level"] = float(2.0 / 27.0)

    elif n == 2:
        cps = find_critical_points(p, DEFAULT_BOX, DEFAULT_GRID)
        i1, i2 = critical_index(cps, "S1", p), critical_index(cps, "S2", p)

        def name(x):
            return next(k for k, v in names.items() if np.allclose(v, x, atol=1e-6))

        shots = saddle_shots(p, cps[i1]) + saddle_shots(p, cps[i2])
        orbits = {}
        for (saddle, _, _), orbit in zip(shots, gradient_shots(p, cps, shots)):
            if isinstance(orbit, Exception):
                raise orbit
            tag = f"gradient_{name(saddle.location)}_{name(orbit.target.location)}"
            write_text(out, f"{tag}.csv", orbit.path.to_csv())
            orbits[tag] = {"J": orbit.j_value, "kind": orbit.kind}
        mid = 0.5 * (cps[i1].location + cps[i2].location)
        ham = hamiltonian_connection_adaptive(
            p, cps[i1], cps[i2], M=nodes, waypoints=[mid + np.array([0.28, 0.28])]
        )
        write_text(out, "hamiltonian_S1_S2.csv", ham.path.to_csv())
        orbits["hamiltonian_S1_S2"] = {
            "J": ham.j_value,
            "kind": ham.kind,
            "energy_residual": ham.energy_residual,
            "gradient_residual": ham.gradient_residual,
        }
        summary["orbits"] = orbits

    elif n == 3:
        for tag, route in (("green_via_M0", "M1_M2_via_M0"), ("blue_avoid_M0", "M1_M2_avoid")):
            flow(tag, route, "J")

    elif n in (4, 5):
        objective = "J" if n == 4 else "I"
        for tag in ("S1_S2_avoid_a", "S1_S2_avoid_b", "S1_S2_avoid_c"):
            flow(f"{objective}_{tag}", tag, objective, key=tag)

    elif n in (6, 7):
        objective = "J" if n == 6 else "I"
        path, report, record = flow(f"{objective}_S1_S2_via_M0", "S1_S2_via_M0", objective)
        record["fraction_near_M0"] = support_score(path, [names["M0"]])
        if n == 7:
            bv, predicted = route_limit(triple_well_graph(p, ham_M=nodes), ("S1", "M0", "S2"), p)
            cmp = compare_with_eps((path, report), predicted, support=bv)
            summary["gamma"] = {"predicted": predicted.to_dict(), "comparison": cmp.to_dict()}

    elif n == 8:
        path, report, record = flow("J_M1_M2_via_all", "M1_M2_via_M0", "J")
        record["fraction_near_support"] = support_score(path, list(names.values()))

    elif n == 9:
        # The full-action run starts away from the middle well (its minimizer
        # also stays away) and is annealed down to the target temperature; a
        # direct flow at eps = 1e-3 stalls in a wide-interface transient.
        schedule = continuation_schedule(eps)
        path, report, record = flow("I_M1_M2_avoid", "M1_M2_avoid", "I", eps_schedule=schedule)
        dwell = [names["M1"], names["M2"]]
        record["fraction_near_M1_M2"] = support_score(path, dwell)
        record["transition_fraction"] = 1.0 - record["fraction_near_M1_M2"]
        graph = triple_well_graph(p, ham_M=nodes)
        # the candidate route of least I0, the first one on a tie
        routes9 = (("M1", "S1", "M0", "S2", "M2"), ("M1", "S1", "S2", "M2"))
        candidates = [(list(r), *route_limit(graph, r, p)) for r in routes9]
        seq_names, bv, predicted = min(candidates, key=lambda c: c[2].i0)
        cmp = compare_with_eps((path, report), predicted, support=bv)
        summary["gamma"] = {
            "predicted_sequence": seq_names,
            "predicted": predicted.to_dict(),
            "comparison": cmp.to_dict(),
        }

    write_json(out, f"figure{n}_summary.json", summary)
    return summary

"""Inputs, operations and answer checks of the ompath benchmark workloads.

Each workload turns the benchmark seed into inputs and runs one operation
through the public functions ``ompath figure N`` calls.  ``answer`` reduces
a result to a JSON-ready record with no wall-clock data, so the same seed
gives byte-identical answers; ``check`` lists every way a result is wrong.
A flow that stops at its iteration budget is recorded, not wrong.
"""

from __future__ import annotations

import itertools
import json
import os

import numpy as np

from ompath import critical, experiments, gamma
from ompath.experiments import DEFAULT_BOX, TRIPLE_WELL_NAMED

EPS = 1e-3
NODES = 4000
GRAD_TOL = 1e-6
JITTER = 1e-3

# Both flows start from a figure route jittered with the benchmark seed.
FLOWS = {
    "fig7_flow_I": {"route": "S1_S2_via_M0", "objective": "I", "max_iter": 30_000},
    "fig3_blue_J": {"route": "M1_M2_avoid", "objective": "J", "max_iter": 3_000},
}
GRAPH = "limit_graph"
WORKLOADS = (*FLOWS, GRAPH)

GRID = 40
HAM_M = 4000
# The box edges move by up to this much: under half the seed-grid spacing, so
# the Newton seeds move while every critical point stays deep inside the box.
BOX_SHIFT = 0.02
# The figure-7 visit sequence and the two figure-9 candidates.
SEQUENCES = {
    "fig7": ("S1", "M0", "S2"),
    "fig9_via_M0": ("M1", "S1", "M0", "S2", "M2"),
    "fig9_avoid_M0": ("M1", "S1", "S2", "M2"),
}
WELL_SADDLE = (("S1", "M1"), ("S1", "M0"), ("S2", "M0"), ("S2", "M2"))
SUM_RULE_TOL = 1e-3  # as in the repository's sum-rule acceptance criterion
PHI_TOL = 1e-12  # Dijkstra sums the same edges in another order each way

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")) as _f:
    REFERENCE = json.load(_f)


def make_inputs(name: str, seed: int, p) -> dict:
    """The operation's arguments; the seed reaches the program only through them."""
    if name in FLOWS:
        spec = FLOWS[name]
        return {
            "waypoints": experiments.figure_routes(p)[spec["route"]],
            "M": NODES,
            "eps": EPS,
            "objective": spec["objective"],
            "grad_tol": GRAD_TOL,
            "max_iter": spec["max_iter"],
            "jitter": JITTER,
            "seed": seed,
        }
    if name == GRAPH:
        rng = np.random.default_rng(seed)
        return {"box": np.asarray(DEFAULT_BOX) + rng.uniform(-BOX_SHIFT, BOX_SHIFT, size=(2, 2))}
    raise ValueError(f"unknown workload {name!r}")


def run_flow(p, inputs: dict):
    return experiments.run_minimization(p, **inputs)


def run_graph(p, inputs: dict):
    cps = critical.find_critical_points(p, inputs["box"], GRID)
    graph = experiments.triple_well_graph(p, cps, ham_M=HAM_M)
    idx = _named(cps)
    i0 = {}
    for tag, seq in SEQUENCES.items():
        pts = [cps[idx[k]] for k in seq]
        support = gamma.optimize_support(graph, pts[0], pts[-1], pts)
        i0[tag] = gamma.eval_I0(graph, support).i0
    return cps, graph, i0


def operation(name: str):
    """The public-function call that one timed operation of a workload makes."""
    return run_flow if name in FLOWS else run_graph


def _named(cps) -> dict:
    return {k: cps.nearest(v)[0] for k, v in TRIPLE_WELL_NAMED.items()}


def answer(name: str, result, flow: dict) -> dict:
    """The answer record of one operation; ``flow`` holds its flow counts."""
    if name in FLOWS:
        path, trace, report = result
        return {
            "objective": report.i_eps if FLOWS[name]["objective"] == "I" else report.j_eps,
            "I_eps": report.i_eps,
            "J_eps": report.j_eps,
            "laplacian_term": report.laplacian_term,
            "stop_reason": trace.stop_reason,
            "converged": trace.converged,
            "gnorm_ratio": flow["gnorm_ratio"],
            "trials": flow["trials"],
            "accepted": flow["accepted"],
        }
    cps, graph, i0 = result
    # every unstable mode of every saddle is shot both ways, and the one
    # saddle-saddle pair of triple_well_graph is tried on both sides
    attempted = 2 * sum(int(np.sum(c.eigenvalues < 0.0)) for c in cps) + 2
    return {
        "indices": [c.index for c in cps],
        "locations": [c.location.tolist() for c in cps],
        "phi": graph.phi.tolist(),
        "edges": [[e.i, e.j, e.kind, e.j_value] for e in graph.edges],
        "dropped_edges": attempted - len(graph.edges),
        "I0": i0,
        "gnorm_ratio": flow["gnorm_ratio"],
        "trials": flow["trials"],
        "accepted": flow["accepted"],
    }


def _rel_gap(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def check(name: str, inputs: dict, result) -> list[str]:
    """Every failed answer check of one operation, as readable strings."""
    ref = REFERENCE[name]
    if name in FLOWS:
        path, trace, report = result
        fails = []
        for row, wp in ((0, inputs["waypoints"][0]), (-1, inputs["waypoints"][-1])):
            if path.nodes[row].tobytes() != np.asarray(wp, dtype=float).tobytes():
                fails.append(f"endpoint {row} moved: {path.nodes[row].tolist()} != {list(wp)}")
        acc = trace.accepted_objectives
        ups = [i for i in range(1, len(acc)) if acc[i] > acc[i - 1]]
        if ups:
            fails.append(f"accepted objective increased at {len(ups)} steps, first at {ups[0]}")
        if report.i_eps != report.j_eps - report.laplacian_term:
            fails.append("I_eps != J_eps - laplacian_term")
        value = report.i_eps if FLOWS[name]["objective"] == "I" else report.j_eps
        if not _rel_gap(value, ref["objective"]) <= ref["rel_tol"]:
            fails.append(f"objective {value!r} is off the reference {ref['objective']!r}")
        return fails

    cps, graph, i0 = result
    fails = []
    if [c.index for c in cps] != [0, 0, 0, 1, 1]:
        fails.append(f"critical-point indices {[c.index for c in cps]} != [0, 0, 0, 1, 1]")
        return fails
    phi = np.asarray(graph.phi)
    scale = PHI_TOL * max(1.0, float(np.max(np.abs(phi[np.isfinite(phi)]))))
    if not np.all(np.isfinite(phi)):
        fails.append("Phi has infinite entries")
    elif np.max(np.abs(phi - phi.T)) > scale:
        fails.append("Phi is not symmetric")
    elif any(
        phi[a, b] > phi[a, c] + phi[c, b] + scale
        for a, b, c in itertools.permutations(range(len(phi)), 3)
    ):
        fails.append("Phi breaks the triangle inequality")
    idx = _named(cps)
    for s, m in WELL_SADDLE:
        gap = abs(phi[idx[s], idx[m]] - 2.0 / 27.0)
        if not gap <= SUM_RULE_TOL:
            fails.append(f"Phi({s}, {m}) is {gap:.3g} away from 2/27")
    for tag, ref_i0 in ref["I0"].items():
        if not _rel_gap(i0[tag], ref_i0) <= ref["rel_tol"]:
            fails.append(f"I0 {tag} {i0[tag]!r} is off the reference {ref_i0!r}")
    return fails

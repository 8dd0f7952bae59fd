"""Importing the package loads no SciPy module: the first flow solve loads
scipy.linalg, and building a transition graph adds no other SciPy module."""

import json
import os
import subprocess
import sys

import ompath

SCRIPT = """
import json, sys
import numpy as np
import ompath, ompath.experiments, ompath.cli

HEAVY = ("scipy.integrate", "scipy.optimize", "scipy.linalg", "scipy.sparse")
heavy = sorted(m for m in HEAVY if m in sys.modules)
p = ompath.DoubleWell1D()
start = ompath.DiscretePath.from_waypoints([[-1.0], [1.0]], 10)
ompath.minimize(p, start, ompath.FlowConfig(objective="J", eps=0.1, max_iter=3))
loaded_after_flow = [m for m in HEAVY if m in sys.modules]
cps = ompath.CriticalPointSet([ompath.classify_point(p, np.array([x])) for x in (0.0, 1.0, -1.0)])
# two gradient shots off the barrier, then Phi over their edges
graph = ompath.build_transition_graph(p, cps)
# four shots and a saddle-saddle pair on the triple well
tw_graph = ompath.experiments.triple_well_graph(ompath.TripleWell(), ham_M=400)
print(json.dumps({
    "heavy_after_import": heavy,
    "loaded_after_flow": loaded_after_flow,
    "edges": len(graph.edges),
    "phi_wells": float(graph.phi[1, 2]),
    "tw_edges": len(tw_graph.edges),
    "loaded_after_graphs": [m for m in HEAVY if m in sys.modules],
}))
"""


def test_import_leaves_ode_and_graph_modules_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(ompath.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout.strip().splitlines()[-1])
    assert out["heavy_after_import"] == []
    # the banded solve imports scipy.linalg when it is first called
    assert out["loaded_after_flow"] == ["scipy.linalg"]
    assert out["edges"] == 2
    assert abs(out["phi_wells"] - 0.5) < 1e-5
    assert out["tw_edges"] == 6
    # the shots need no scipy.integrate, the flows no scipy.optimize, and
    # recompute_phi runs its own Dijkstra, without scipy.sparse
    assert out["loaded_after_graphs"] == ["scipy.linalg"]

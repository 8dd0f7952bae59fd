"""Importing the package loads neither the ODE solver nor the graph routines."""

import json
import os
import subprocess
import sys

import ompath

SCRIPT = """
import json, sys
import numpy as np
import ompath, ompath.experiments, ompath.cli

heavy = sorted(m for m in ("scipy.integrate", "scipy.sparse", "scipy.optimize") if m in sys.modules)
p = ompath.DoubleWell1D()
cps = ompath.CriticalPointSet([ompath.classify_point(p, np.array([x])) for x in (0.0, 1.0, -1.0)])
# two gradient shots off the barrier, then Phi over their edges
graph = ompath.build_transition_graph(p, cps)
print(json.dumps({
    "heavy_after_import": heavy,
    "edges": len(graph.edges),
    "phi_wells": float(graph.phi[1, 2]),
    "loaded_on_use": [m for m in ("scipy.integrate", "scipy.sparse") if m in sys.modules],
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
    # gradient_connection and recompute_phi import what they need when called
    assert out["edges"] == 2
    assert abs(out["phi_wells"] - 0.5) < 1e-5
    assert out["loaded_on_use"] == ["scipy.integrate", "scipy.sparse"]

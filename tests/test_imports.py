"""Importing the package loads no SciPy module.  Where NumPy ships its own
LAPACK, neither a flow solve nor a transition graph loads one either; where
it does not, the first solve loads scipy.linalg, and the solves give the same
bytes."""

import json
import os
import subprocess
import sys

import pytest

import ompath

SCRIPT = """
import hashlib, json, sys
import numpy as np
import ompath, ompath.experiments, ompath.cli

if sys.argv[1:] == ["fallback"]:
    ompath.flow._NUMPY_OPENBLAS = ()  # the lookup finds no library

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

HEAVY = ("scipy.integrate", "scipy.optimize", "scipy.linalg", "scipy.sparse")
after_import = scipy_modules()
p = ompath.DoubleWell1D()
start = ompath.DiscretePath.from_waypoints([[-1.0], [1.0]], 10)
path, trace = ompath.minimize(p, start, ompath.FlowConfig(objective="J", eps=0.1, max_iter=3))
after_flow = scipy_modules()
cps = ompath.CriticalPointSet([ompath.classify_point(p, np.array([x])) for x in (0.0, 1.0, -1.0)])
# two gradient shots off the barrier, then Phi over their edges
graph = ompath.build_transition_graph(p, cps)
# four shots and a saddle-saddle pair on the triple well
tw_graph = ompath.experiments.triple_well_graph(ompath.TripleWell(), ham_M=400)
after_graphs = scipy_modules()
print(json.dumps({
    "fallback": ompath.flow._dptsv() is ompath.flow._scipy_dptsv,
    "after_import": after_import,
    "after_flow": after_flow,
    "heavy_after_flow": [m for m in HEAVY if m in after_flow],
    "after_graphs": after_graphs,
    "heavy_after_graphs": [m for m in HEAVY if m in after_graphs],
    "edges": len(graph.edges),
    "phi_wells": float(graph.phi[1, 2]),
    "tw_edges": len(tw_graph.edges),
    "bytes": hashlib.sha1(
        path.nodes.tobytes() + trace.to_csv().encode() + tw_graph.phi.tobytes()
        + json.dumps(tw_graph.to_dict()).encode()
    ).hexdigest(),
}))
"""


def _run(*args) -> dict:
    src = os.path.dirname(os.path.dirname(os.path.abspath(ompath.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", SCRIPT, *args], env=env, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def found():
    return _run()


def test_import_leaves_ode_and_graph_modules_unloaded(found):
    out = found
    assert out["after_import"] == []
    # the shots need no scipy.integrate, the flows no scipy.optimize, and
    # recompute_phi runs its own array relaxation, without scipy.sparse
    if not out["fallback"]:
        # the banded solve calls the LAPACK NumPy has loaded: no scipy at all
        assert out["after_flow"] == out["after_graphs"] == []
    else:
        assert out["heavy_after_flow"] == out["heavy_after_graphs"] == ["scipy.linalg"]
    assert out["edges"] == 2
    assert abs(out["phi_wells"] - 0.5) < 1e-5
    assert out["tw_edges"] == 6


def test_fallback_solves_give_the_same_bytes(found):
    out = _run("fallback")
    assert out["fallback"]
    assert out["after_import"] == []
    # SciPy's dptsv loads at the first solve
    assert out["heavy_after_flow"] == out["heavy_after_graphs"] == ["scipy.linalg"]
    assert (out["edges"], out["tw_edges"]) == (found["edges"], found["tw_edges"])
    assert out["bytes"] == found["bytes"]

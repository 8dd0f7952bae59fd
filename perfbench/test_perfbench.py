"""Tests of the benchmark's answer checks, inputs, tracer and calibration."""

import copy

import numpy as np
import pytest

import calibration
import ompath.flow
import tracer as tr
import workloads as wl
from ompath import DiscretePath, FlowTrace, FunctionalReport, TripleWell
from ompath.experiments import run_minimization

P = TripleWell()


def _fake_flow(name):
    """A flow result that passes every check of workload ``name``."""
    inputs = wl.make_inputs(name, 1, P)
    ref = wl.REFERENCE[name]["objective"]
    trace = FlowTrace()
    for it, obj in enumerate((ref + 1.0, ref + 0.5, ref), start=1):
        trace.record(it, obj, 1e-3, 1.0, True)
    report = FunctionalReport(
        i_eps=ref, j_eps=ref, kinetic=0.0, force=ref, laplacian_term=0.0, eps=wl.EPS
    )
    return inputs, (DiscretePath.from_waypoints(inputs["waypoints"], 8), trace, report)


@pytest.fixture(scope="module")
def graph_result():
    inputs = wl.make_inputs(wl.GRAPH, 1, P)
    return inputs, wl.run_graph(P, inputs)


@pytest.mark.parametrize("name", list(wl.FLOWS))
def test_flow_check_accepts_a_valid_answer(name):
    inputs, result = _fake_flow(name)
    assert wl.check(name, inputs, result) == []


def test_flow_check_rejects_moved_endpoint():
    inputs, (path, trace, report) = _fake_flow("fig7_flow_I")
    nodes = path.nodes.copy()
    nodes[-1, 0] = np.nextafter(nodes[-1, 0], np.inf)
    fails = wl.check("fig7_flow_I", inputs, (DiscretePath(nodes), trace, report))
    assert len(fails) == 1 and fails[0].startswith("endpoint -1 moved")


def test_flow_check_rejects_increasing_accepted_objective():
    inputs, (path, trace, report) = _fake_flow("fig3_blue_J")
    trace.objectives[1] = trace.objectives[0] + 1e-12
    fails = wl.check("fig3_blue_J", inputs, (path, trace, report))
    assert len(fails) == 1 and fails[0].startswith("accepted objective increased")


def test_flow_check_ignores_rejected_trials():
    inputs, (path, trace, report) = _fake_flow("fig3_blue_J")
    trace.record(4, trace.objectives[-1] + 1.0, 1e-3, 1.0, False)
    assert wl.check("fig3_blue_J", inputs, (path, trace, report)) == []


def test_flow_check_rejects_broken_decomposition_and_other_minimizer():
    inputs, (path, trace, report) = _fake_flow("fig7_flow_I")
    broken = copy.copy(report)
    broken.laplacian_term = 1e-3
    fails = wl.check("fig7_flow_I", inputs, (path, trace, broken))
    assert fails == ["I_eps != J_eps - laplacian_term"]
    other = copy.copy(report)
    other.i_eps = other.j_eps = 0.9 * report.i_eps
    fails = wl.check("fig7_flow_I", inputs, (path, trace, other))
    assert len(fails) == 1 and "off the reference" in fails[0]


def test_graph_check_accepts_the_graph(graph_result):
    inputs, result = graph_result
    assert wl.check(wl.GRAPH, inputs, result) == []


def _with_phi(result, phi):
    cps, graph, i0 = result
    graph = copy.copy(graph)
    graph.phi = phi
    return cps, graph, i0


def test_graph_check_rejects_perturbed_phi(graph_result):
    inputs, result = graph_result
    phi = result[1].phi
    idx = wl._named(result[0])
    s1, m1 = idx["S1"], idx["M1"]

    asym = phi.copy()
    asym[s1, m1] += 1e-9
    assert wl.check(wl.GRAPH, inputs, _with_phi(result, asym)) == ["Phi is not symmetric"]

    # a shorter S1-M1 distance, both ways: M0-S1-M1 now beats Phi(M0, M1),
    # and the well-to-saddle sum rule breaks
    short = phi.copy()
    short[s1, m1] = short[m1, s1] = phi[s1, m1] - 0.01
    fails = wl.check(wl.GRAPH, inputs, _with_phi(result, short))
    assert fails[0] == "Phi breaks the triangle inequality"
    assert any(f.startswith("Phi(S1, M1)") for f in fails)

    missing = phi.copy()
    missing[s1, m1] = missing[m1, s1] = np.inf
    assert "Phi has infinite entries" in wl.check(wl.GRAPH, inputs, _with_phi(result, missing))


def test_seed_changes_graph_inputs_not_outcome(graph_result):
    inputs1, result1 = graph_result
    inputs2 = wl.make_inputs(wl.GRAPH, 2, P)
    assert not np.array_equal(inputs1["box"], inputs2["box"])
    assert np.array_equal(wl.make_inputs(wl.GRAPH, 1, P)["box"], inputs1["box"])
    result2 = wl.run_graph(P, inputs2)
    assert wl.check(wl.GRAPH, inputs2, result2) == []
    assert [c.index for c in result2[0]] == [c.index for c in result1[0]]


@pytest.mark.parametrize("name", list(wl.FLOWS))
def test_seed_changes_flow_start_not_outcome(name):
    """The seed moves the jittered start; a short flow from either start keeps
    every invariant (only the converged-value check needs the full budget)."""
    starts = []
    for seed in (1, 2):
        inputs = wl.make_inputs(name, seed, P)
        start, _, _ = run_minimization(P, **{**inputs, "max_iter": 0})
        starts.append(start)
        short = wl.run_flow(P, {**inputs, "max_iter": 20})
        fails = wl.check(name, inputs, short)
        assert all("off the reference" in f for f in fails), fails
        assert len(short[1].accepted) >= 20
    assert not np.array_equal(starts[0].interior, starts[1].interior)
    assert starts[0].left.tobytes() == starts[1].left.tobytes()
    assert starts[0].right.tobytes() == starts[1].right.tobytes()


def test_traced_self_times_add_up_to_the_root():
    tracer = tr.Tracer()
    inputs = {**wl.make_inputs("fig7_flow_I", 1, P), "max_iter": 5}
    original = ompath.flow.grad_objective
    with tr.Instruments(tracer) as inst:
        assert ompath.flow.grad_objective is not original
        path, trace, _ = inst.run(wl.run_flow, tr.TracedPotential(P, tracer), inputs)
    assert ompath.flow.grad_objective is original
    metrics, rows = tr.layer_metrics(tracer, inst)
    assert rows[0]["trace.self_sum_s"] == pytest.approx(rows[0]["trace.solve_s"], rel=1e-9)
    assert metrics["flow.trials"] == len(trace.accepted)
    assert metrics["flow.solveh_banded.calls"] == len(trace.accepted)
    assert metrics["functionals.grad_objective.calls"] == 5
    assert metrics["potentials.grad_laplacian.points"] == 5 * (wl.NODES - 1)
    untraced = run_minimization(P, **inputs)[0]
    assert untraced.nodes.tobytes() == path.nodes.tobytes()


def test_normalised_time_cancels_a_uniform_host_slowdown():
    wall, rounds = [2.0, 4.0, 3.0], [0.02, 0.04, 0.03]
    at_reference = 3.0 * calibration.REFERENCE_ROUND_S / 0.03
    assert calibration.normalised(wall, rounds) == pytest.approx(at_reference)
    slow = calibration.normalised([1.7 * w for w in wall], [1.7 * r for r in rounds])
    assert slow == pytest.approx(at_reference)
    assert calibration.normalised([2 * w for w in wall], rounds) == pytest.approx(2 * at_reference)

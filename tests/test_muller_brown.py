"""Muller-Brown, a user potential on batches, through the zero-temperature
pipeline: critical points and the transition graph, its saddle pair included."""

import numpy as np
import pytest

import ompath.heteroclinic
from ompath import build_transition_graph
from ompath.critical import CriticalPointSet
from ompath.heteroclinic import MAX_STEPS, T_MAX

# (index, V) of the five critical points in the box, as find_critical_points
# sorts them: by index, then by coordinates (E, Ren & Vanden-Eijnden,
# J. Chem. Phys. 126 (2007), list the same values)
EXPECTED = [(0, -146.70), (0, -80.77), (0, -108.17), (1, -40.66), (1, -72.25)]


def test_critical_points(mb, cps_mb):
    assert [c.index for c in cps_mb] == [i for i, _ in EXPECTED]
    assert [c.value for c in cps_mb] == pytest.approx([v for _, v in EXPECTED], abs=1e-2)
    for c in cps_mb:
        assert np.linalg.norm(mb.gradient(c.location)) <= 1e-8
        assert np.sum(np.linalg.eigvalsh(mb.hessian(c.location)) < 0) == c.index


@pytest.fixture(scope="module")
def graph_mb(mb, cps_mb):
    return build_transition_graph(mb, cps_mb)


def test_gradient_graph_edges_are_the_v_drops(graph_mb, cps_mb):
    # every shot reaches a minimum; the only failures are the saddle pair's
    assert [f for f in graph_mb.failures if "to" not in f] == []
    edges = {(e.i, e.j): e.j_value for e in graph_mb.edges}
    assert sorted(edges) == [(3, 0), (3, 1), (4, 1), (4, 2)]
    for (i, j), cost in edges.items():
        assert cost == cps_mb[i].value - cps_mb[j].value


def test_non_finite_saddle_pair_is_a_failure(graph_mb):
    # the pair's flow, from saddle 4 to saddle 3, overflows V on its first
    # trial step; minimum 1 lies between the two bends, so both sides are
    # tried, and both fail alike
    assert [(f["from"], f["to"], f["side"], f["error"]) for f in graph_mb.failures] == [
        (4, 3, 1, "NonFiniteObjectiveError"),
        (4, 3, -1, "NonFiniteObjectiveError"),
    ]
    assert "objective non-finite" in graph_mb.failures[0]["message"]
    assert np.isfinite(graph_mb.phi[3, 4])


def test_shot_into_a_missing_minimum_stops_at_the_step_budget(mb, cps_mb, monkeypatch):
    # without minimum 0, the shot that flows into its stiff well creeps in at
    # the integrator's stability limit (steps near 8.5e-4) and would run on
    # to T_MAX; it stops after MAX_STEPS accepted steps, and the failure says
    # where and why, with the --box hint. Steps are counted, not timed
    steps = []
    shoot = ompath.heteroclinic._shoot

    def counted(p, y0, cols):
        shot = shoot(p, y0, cols)
        steps.append(len(shot.steps))
        return shot

    monkeypatch.setattr(ompath.heteroclinic, "_shoot", counted)
    graph = build_transition_graph(mb, CriticalPointSet(cps_mb.points[1:]))
    assert max(steps) == MAX_STEPS and steps.count(MAX_STEPS) == 1
    (failure,) = [f for f in graph.failures if "to" not in f]
    assert failure["error"] == "NotConvergedError"
    assert failure["message"].startswith(f"gradient shot stopped at the step budget {MAX_STEPS} (t = ")
    assert failure["message"].endswith("a critical point outside the set, so search a wider box (--box)")
    assert failure["diagnostics"]["t_final"] < T_MAX
    assert cps_mb.nearest(failure["diagnostics"]["x_final"])[0] == 0

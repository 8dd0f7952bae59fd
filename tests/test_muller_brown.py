"""Muller-Brown, a user potential on batches, through the zero-temperature
pipeline: critical points and the transition graph, its saddle pair included."""

import numpy as np
import pytest

from ompath import build_transition_graph

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

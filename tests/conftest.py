"""Shared fixtures; the expensive landscape objects are built once per session."""

import numpy as np
import pytest

from ompath import TripleWell, build_transition_graph, find_critical_points
from ompath.experiments import DEFAULT_BOX, DEFAULT_GRID, named_points


@pytest.fixture(scope="session")
def tw():
    return TripleWell()


@pytest.fixture(scope="session")
def cps_tw(tw):
    return find_critical_points(tw, DEFAULT_BOX, DEFAULT_GRID)


@pytest.fixture(scope="session")
def names_tw(tw):
    return named_points(tw)


@pytest.fixture(scope="session")
def graph_tw(tw, cps_tw):
    """Gradient-edge-only transition graph of the triple well."""
    return build_transition_graph(tw, cps_tw)


@pytest.fixture(scope="session")
def graph_full(tw, cps_tw, names_tw):
    """Transition graph including the direct saddle-saddle connection."""
    i1, _ = cps_tw.nearest(names_tw["S1"])
    i2, _ = cps_tw.nearest(names_tw["S2"])
    return build_transition_graph(tw, cps_tw, hamiltonian_pairs=[(i1, i2)], ham_M=2000)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)

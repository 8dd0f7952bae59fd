"""Shared fixtures; the expensive landscape objects are built once per session."""

import numpy as np
import pytest

from ompath import CustomPotential, TripleWell, build_transition_graph, find_critical_points
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
def graph_full(tw, cps_tw):
    """Transition graph of the triple well, the direct S1-S2 connection included."""
    return build_transition_graph(tw, cps_tw, ham_M=2000)


# Muller-Brown: V = sum_i A_i exp(a_i dx^2 + b_i dx dy + c_i dy^2), with
# dx = x - x0_i and dy = y - y0_i (Muller & Brown, Theor. Chim. Acta 53 (1979))
_MB_A = np.array([-200.0, -100.0, -170.0, 15.0])
_MB_a = np.array([-1.0, -1.0, -6.5, 0.7])
_MB_b = np.array([0.0, 0.0, 11.0, 0.6])
_MB_c = np.array([-10.0, -10.0, -6.5, 0.7])
_MB_x0 = np.array([1.0, 0.0, -0.5, -1.0])
_MB_y0 = np.array([0.0, 0.5, 1.5, 1.0])
MB_BOX = [(-1.5, 1.2), (-0.5, 2.0)]


def _mb_terms(x):
    # (K, 4) columns, one per Gaussian
    dx, dy = x[:, 0, None] - _MB_x0, x[:, 1, None] - _MB_y0
    return dx, dy, _MB_A * np.exp(_MB_a * dx * dx + _MB_b * dx * dy + _MB_c * dy * dy)


def _mb_value(x):
    return _mb_terms(x)[2].sum(axis=1)


def _mb_gradient(x):
    dx, dy, t = _mb_terms(x)
    gx = (t * (2.0 * _MB_a * dx + _MB_b * dy)).sum(axis=1)
    gy = (t * (_MB_b * dx + 2.0 * _MB_c * dy)).sum(axis=1)
    return np.stack([gx, gy], axis=1)


@pytest.fixture(scope="session")
def mb():
    """The Muller-Brown surface, a CustomPotential on (K, 2) batches: the second
    test landscape, with barriers about a thousand times the triple well's."""
    return CustomPotential(2, _mb_value, _mb_gradient)


@pytest.fixture(scope="session")
def cps_mb(mb):
    return find_critical_points(mb, MB_BOX, 30)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)

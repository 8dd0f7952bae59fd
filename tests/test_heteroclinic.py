"""Heteroclinic connections and the transition-energy graph."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import shortest_path

import ompath
from ompath import (
    CustomPotential,
    DiscretePath,
    DoubleWell1D,
    EscapeError,
    NotConvergedError,
    TripleWell,
    build_transition_graph,
    classify_point,
    CriticalPointSet,
    eval_I,
    gradient_connection,
    hamiltonian_connection,
    hamiltonian_connection_adaptive,
    verify_orbit,
)
from ompath.heteroclinic import _orbit_record, shortest_paths

TWO27 = 2.0 / 27.0


def _gradient_orbits(graph):
    return [o for o in graph.orbits if o.kind.startswith("gradient")]


class TestGradientOrbits:
    def test_four_saddle_shots(self, graph_tw):
        orbits = _gradient_orbits(graph_tw)
        assert len(orbits) == 4
        targets = sorted(tuple(np.round(o.target.location, 6)) for o in orbits)
        assert targets == [(0.0, 0.0), (0.0, 0.0), (0.0, 1.0), (1.0, 0.0)]

    def test_sum_rule_two_over_27(self, graph_tw):
        for o in _gradient_orbits(graph_tw):
            assert abs(o.j_value - TWO27) <= 1e-3

    def test_action_identity(self, tw, graph_tw):
        # J equals the integral of |grad V|^2 along a zero-energy orbit
        for o in _gradient_orbits(graph_tw):
            rep = verify_orbit(tw, o)
            assert rep.action_identity_gap <= 1e-2
            assert rep.passed

    def test_residuals(self, graph_tw):
        for o in _gradient_orbits(graph_tw):
            assert o.energy_residual <= 1e-3
            assert o.gradient_residual <= 1e-3
            assert not o.endpoint_warning

    def test_endpoints_on_critical_points(self, graph_tw):
        for o in _gradient_orbits(graph_tw):
            assert max(o.endpoint_distances) <= 1e-5

    def test_time_reversal_keeps_action(self, tw, graph_tw):
        o = _gradient_orbits(graph_tw)[0]
        rev = DiscretePath(o.path.nodes[::-1], o.path.a, o.path.b)
        assert eval_I(tw, rev, 1.0).j_eps == pytest.approx(o.j_value, abs=1e-12)

    def test_source_must_be_saddle(self, tw, cps_tw, names_tw):
        m0 = classify_point(tw, names_tw["M0"])
        with pytest.raises(ValueError):
            gradient_connection(tw, m0, np.array([1.0, 0.0]), 1, cps_tw)

    def test_escape_detected(self):
        hill = CustomPotential(2, lambda x: -0.5 * x @ x, lambda x: -x)
        top = classify_point(hill, np.array([0.0, 0.0]))
        cps = CriticalPointSet([top])
        with pytest.raises(EscapeError):
            gradient_connection(hill, top, np.array([1.0, 0.0]), 1, cps)


def _dw_graph():
    dw = DoubleWell1D()
    cps = CriticalPointSet([classify_point(dw, np.array([x])) for x in (0.0, 1.0, -1.0)])
    return dw, cps, build_transition_graph(dw, cps)


def _shot_args(p, orbit):
    """(eig_dir, sign) that reproduce a graph shot: its first step leaves the
    saddle along sign * eig_dir."""
    eigval, eigvec = np.linalg.eigh(p.hessian(orbit.source.location))
    eig_dir = eigvec[:, int(np.argmin(eigval))]
    step = orbit.path.nodes[1] - orbit.path.nodes[0]
    return eig_dir, 1 if step @ eig_dir > 0 else -1


def _solve_ivp_shot(p, source, eig_dir, sign, cps, n_nodes=2000):
    """Reference shot with scipy's RK45: the capture target, the capture time
    and the resampled nodes."""
    from scipy.integrate import solve_ivp

    x0 = source.location + 1e-6 * float(sign) * eig_dir / np.linalg.norm(eig_dir)
    others = [c for c in cps if c is not source]
    events = []
    for c in others:
        def hit(t, y, loc=c.location):
            return np.linalg.norm(y - loc) - 1e-6

        hit.terminal, hit.direction = True, -1
        events.append(hit)
    sol = solve_ivp(lambda t, y: -p.gradient(y), (0.0, 2000.0), x0, method="RK45",
                    rtol=1e-10, atol=1e-13, events=events, dense_output=True)
    (k,) = [i for i, te in enumerate(sol.t_events) if len(te)]
    t_end = float(sol.t_events[k][0])
    return others[k], t_end, sol.sol(np.linspace(0.0, t_end, n_nodes + 1)).T


class TestBatchedShots:
    @pytest.mark.parametrize("landscape", ["triple-well", "double-well-1d"])
    def test_shot_alone_equals_shot_in_batch(self, landscape, tw, cps_tw, graph_tw):
        p, cps, graph = (tw, cps_tw, graph_tw) if landscape == "triple-well" else _dw_graph()
        orbits = _gradient_orbits(graph)
        assert len(orbits) == (4 if landscape == "triple-well" else 2)
        for o in orbits:
            alone = gradient_connection(p, o.source, *_shot_args(p, o), cps)
            assert alone.target is o.target
            assert alone.path.nodes.tobytes() == o.path.nodes.tobytes()
            assert (alone.path.a, alone.path.b) == (o.path.a, o.path.b)
            assert alone.j_value == o.j_value
            assert alone.el_residual == o.el_residual

    @pytest.mark.parametrize("landscape", ["triple-well", "double-well-1d"])
    def test_matches_solve_ivp(self, landscape, tw, cps_tw, graph_tw):
        # the same RK45 pair, controller and events; the stage sums and the
        # event roots differ from scipy's in the last bits
        p, cps, graph = (tw, cps_tw, graph_tw) if landscape == "triple-well" else _dw_graph()
        for o in _gradient_orbits(graph):
            target, t_end, nodes = _solve_ivp_shot(p, o.source, *_shot_args(p, o), cps)
            assert target is o.target
            assert abs(2.0 * o.path.b - t_end) <= 1e-6 * t_end
            assert np.max(np.abs(o.path.nodes - nodes)) <= 1e-8
            ref = DiscretePath(nodes, a=-t_end / 2.0, b=t_end / 2.0)
            ref_j = _orbit_record(p, ref)[0]["j_value"]
            assert abs(o.j_value - ref_j) <= 1e-12 * ref_j


class LoggingTripleWell(TripleWell):
    """Delegates every kernel to a TripleWell and logs (kernel, points) per call."""

    def __init__(self):
        self.inner = TripleWell()
        self.log = []

    def value(self, x):
        return self.inner.value(x)

    def _logged(self, name, x, *rest):
        self.log.append((name, len(x)))
        return getattr(self.inner, name)(x, *rest)

    def gradient(self, x):
        return self._logged("gradient", x)

    def hessian(self, x):
        return self._logged("hessian", x)

    def hessian_vector(self, x, v):
        return self._logged("hessian_vector", x, v)

    def laplacian(self, x):
        return self._logged("laplacian", x)

    def grad_laplacian(self, x):
        return self._logged("grad_laplacian", x)


class TestOrbitRecord:
    def test_one_pass_same_numbers(self, tw, names_tw):
        # one grad V over all nodes serves the action, the residuals and the
        # endpoint warning; no Laplacian; numbers as the separate formulas give
        s1, s2 = names_tw["S1"], names_tw["S2"]
        path = DiscretePath.from_waypoints([s1, [0.6, 0.6], s2], 200, a=-6.0, b=6.0)
        p = LoggingTripleWell()
        fields, _ = _orbit_record(p, path)
        assert p.log == [("gradient", 201), ("hessian_vector", 199)]

        x, h = path.nodes, path.h
        v = (x[2:] - x[:-2]) / (2.0 * h)
        xi = x[1:-1]
        g = tw.gradient(xi)
        sp2 = np.sum(v * v, axis=-1)
        gn2 = np.sum(g * g, axis=-1)
        acc = (x[2:] - 2.0 * xi + x[:-2]) / h**2
        ends = np.linalg.norm(tw.gradient(x[[0, -1]]), axis=-1)
        assert fields == {
            "j_value": eval_I(tw, path, 1.0).j_eps,
            "energy_residual": float(np.max(np.abs(0.5 * sp2 - 0.5 * gn2))),
            "zero_energy_residual": float(np.max(np.abs(np.sqrt(sp2) - np.sqrt(gn2)))),
            "gradient_residual": min(
                float(np.max(np.linalg.norm(v + g, axis=-1))),
                float(np.max(np.linalg.norm(v - g, axis=-1))),
            ),
            "el_residual": float(
                np.max(np.linalg.norm(acc - tw.hessian_vector(xi, g), axis=-1))
            ),
            "endpoint_warning": bool(np.max(ends) > 1e-3),
        }


@pytest.fixture(scope="module")
def saddle_orbit(graph_full):
    orbits = [o for o in graph_full.orbits if o.kind == "hamiltonian"]
    assert orbits, "expected a direct saddle-saddle connection"
    return orbits[0]


class TestHamiltonianConnection:
    def test_demonstrably_not_gradient(self, saddle_orbit):
        assert saddle_orbit.energy_residual <= 1e-3
        assert saddle_orbit.gradient_residual > 0.1

    def test_cost_below_the_two_step_route(self, saddle_orbit):
        # cheaper than passing through the middle well (2/27 + 2/27)
        assert 0.0 < saddle_orbit.j_value < 2 * TWO27

    def test_mesh_stability(self, tw, names_tw, saddle_orbit):
        s1 = classify_point(tw, names_tw["S1"])
        s2 = classify_point(tw, names_tw["S2"])
        mid = 0.5 * (s1.location + s2.location)
        coarse = hamiltonian_connection_adaptive(
            tw, s1, s2, M=1000, waypoints=[mid + np.array([0.28, 0.28])]
        )
        assert abs(coarse.j_value - saddle_orbit.j_value) <= 1e-3

    def test_input_validation(self, tw, names_tw):
        s1 = classify_point(tw, names_tw["S1"])
        with pytest.raises(ValueError):
            hamiltonian_connection(tw, s1, s1, DiscretePath(np.zeros((101, 2)), a=-6, b=6))


class TestTransitionGraph:
    def test_phi_symmetric(self, graph_full):
        phi = graph_full.phi
        np.testing.assert_allclose(phi, phi.T, atol=1e-12)

    def test_phi_positive_off_diagonal(self, graph_full):
        phi = graph_full.phi
        n = phi.shape[0]
        off = phi[~np.eye(n, dtype=bool)]
        assert np.all(off > 1e-3)
        assert np.allclose(np.diag(phi), 0.0)

    def test_triangle_inequality(self, graph_full):
        phi = graph_full.phi
        n = phi.shape[0]
        for i, j, k in itertools.product(range(n), repeat=3):
            assert phi[i, j] <= phi[i, k] + phi[k, j] + 1e-12

    def test_phi_against_brute_force_enumeration(self, graph_full):
        # independent oracle: minimize the summed direct-connection costs over
        # every visit sequence of length <= 5
        n = len(graph_full.cps)
        w = np.full((n, n), np.inf)
        for e in graph_full.edges:
            w[e.i, e.j] = min(w[e.i, e.j], e.j_value)
            w[e.j, e.i] = min(w[e.j, e.i], e.j_value)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                best = w[i, j]
                for length in (1, 2, 3):
                    for mids in itertools.permutations(
                        [k for k in range(n) if k not in (i, j)], length
                    ):
                        seq = (i, *mids, j)
                        best = min(best, sum(w[a, b] for a, b in zip(seq, seq[1:])))
                assert graph_full.phi[i, j] == pytest.approx(best, abs=1e-12)

    def test_expected_transition_energies(self, graph_full, names_tw):
        cps = graph_full.cps
        idx = {k: cps.nearest(v)[0] for k, v in names_tw.items()}
        phi = graph_full.phi
        assert phi[idx["S1"], idx["M0"]] == pytest.approx(TWO27, abs=1e-3)
        assert phi[idx["M1"], idx["M0"]] == pytest.approx(2 * TWO27, abs=2e-3)
        j_ss = min(
            e.j_value
            for e in graph_full.edges
            if {e.i, e.j} == {idx["S1"], idx["S2"]} and e.kind == "hamiltonian"
        )
        expected = min(4 * TWO27, 2 * TWO27 + j_ss)
        assert phi[idx["M1"], idx["M2"]] == pytest.approx(expected, abs=2e-3)
        # the saddle-saddle channel is strictly the cheaper route
        assert expected < 4 * TWO27

    def test_json_export(self, graph_full):
        doc = json.loads(json.dumps(graph_full.to_dict()))
        assert len(doc["nodes"]) == len(graph_full.cps)
        assert len(doc["edges"]) == len(graph_full.edges)
        assert doc["phi"][0][0] == 0.0
        assert doc["failures"] == graph_full.failures

    def test_dropped_connections_are_recorded(self):
        # the set omits the well at -1, so the shot that descends to it reaches
        # no critical point of the set
        dw = DoubleWell1D()
        cps = CriticalPointSet([classify_point(dw, np.array([x])) for x in (0.0, 1.0)])
        graph = build_transition_graph(dw, cps)
        assert [(e.i, e.j) for e in graph.edges] == [(0, 1)]
        assert graph.failures == [{
            "from": 0,
            "mode": 0,
            "sign": -1,
            "error": "NotConvergedError",
            "message": "gradient shot reached neither a critical point nor the escape radius",
        }]
        doc = json.loads(json.dumps(graph.to_dict()))
        assert doc["failures"] == graph.failures

    @pytest.mark.parametrize("landscape, sides", [("double-well-1d", 1), ("triple-well", 2)])
    def test_pair_tried_once_per_side(self, landscape, sides, tw, cps_tw, names_tw, monkeypatch):
        # in 2-D the start bends to either side of the chord; in 1-D there is
        # no side to bend to, and the one straight start is tried once
        calls = []

        def no_connection(p, a, b, M, waypoints):
            calls.append(waypoints)
            raise NotConvergedError("no connection")

        monkeypatch.setattr(ompath.heteroclinic, "hamiltonian_connection_adaptive", no_connection)
        if landscape == "triple-well":
            p, cps = tw, cps_tw
            (i, _), (j, _) = cps.nearest(names_tw["S1"]), cps.nearest(names_tw["S2"])
        else:
            (p, cps, _), i, j = _dw_graph(), 1, 2
        graph = build_transition_graph(p, cps, hamiltonian_pairs=[(i, j)], ham_M=50)
        assert len(calls) == sides
        if sides == 1:
            assert calls == [None]
        else:
            mid = 0.5 * (cps[i].location + cps[j].location)
            (up,), (down,) = calls
            np.testing.assert_allclose(up + down, 2.0 * mid, atol=1e-15)
        assert [f for f in graph.failures if "to" in f] == [
            {"from": i, "to": j, "side": side, "error": "NotConvergedError", "message": "no connection"}
            for side in (1, -1)[:sides]
        ]

    def test_one_dimensional_pair_of_one_point_raises_before_any_shot(self, monkeypatch):
        def no_shots(*args, **kwargs):
            raise AssertionError("a shot ran")

        dw, cps, _ = _dw_graph()
        for name in ("saddle_shots", "gradient_shots", "hamiltonian_connection_adaptive"):
            monkeypatch.setattr(ompath.heteroclinic, name, no_shots)
        with pytest.raises(ValueError, match=r"saddle pair \(0, 0\) names one point twice"):
            build_transition_graph(dw, cps, hamiltonian_pairs=[(0, 0)])

    def test_pair_of_one_point_raises_before_any_shot(self, cps_tw, names_tw):
        # rejected by index before any kernel call
        i, _ = cps_tw.nearest(names_tw["S1"])
        p = LoggingTripleWell()
        with pytest.raises(ValueError, match="names one point twice"):
            build_transition_graph(p, cps_tw, hamiltonian_pairs=[(i, i)])
        assert p.log == []

    def test_phi_bytes_equal_csgraph(self, graph_full):
        n = len(graph_full.cps)
        w = np.full((n, n), np.inf)
        np.fill_diagonal(w, 0.0)
        for e in graph_full.edges:
            w[e.i, e.j] = min(w[e.i, e.j], e.j_value)
            w[e.j, e.i] = min(w[e.j, e.i], e.j_value)
        want = shortest_path(w, method="D", directed=False)
        assert graph_full.recompute_phi().tobytes() == want.tobytes()


# off-diagonal weights: no edge (inf, 0, NaN), a few values whose sums tie or
# round, and any float above the 1e-8 that csgraph takes for zero
_WEIGHTS = st.one_of(
    st.sampled_from([np.inf, 0.0, np.nan, 0.1, 0.2, 0.3, TWO27, 2.0 * TWO27]),
    st.floats(min_value=1e-8, max_value=1e3, exclude_min=True),
)


@st.composite
def _weight_arrays(draw):
    # w[i, j] and w[j, i] are drawn apart, so a pair may hold two weights,
    # one weight and no edge, or the same weight twice
    n = draw(st.integers(min_value=1, max_value=9))
    w = np.zeros((n, n))
    for i, j in itertools.combinations(range(n), 2):
        w[i, j] = draw(_WEIGHTS)
        w[j, i] = draw(st.one_of(st.just(w[i, j]), _WEIGHTS))
    return w


class TestShortestPaths:
    @settings(max_examples=300, deadline=None)
    @given(w=_weight_arrays())
    def test_bytes_equal_csgraph_dijkstra(self, w):
        want = shortest_path(w, method="D", directed=False)
        assert shortest_paths(w).tobytes() == want.tobytes()

    def test_no_edge_weights_leave_points_apart(self):
        w = np.array([[0.0, np.nan, 1.0], [np.nan, 0.0, 0.0], [1.0, 0.0, 0.0]])
        d = shortest_paths(w)
        assert d[0, 2] == d[2, 0] == 1.0
        assert np.isinf(d[0, 1]) and np.isinf(d[1, 2])

    def test_tiny_weight_is_an_edge(self):
        # where csgraph takes a dense weight within 1e-8 of zero for no edge
        w = np.array([[0.0, 1e-9], [1e-9, 0.0]])
        assert shortest_paths(w)[0, 1] == 1e-9

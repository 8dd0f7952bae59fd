"""End-to-end acceptance suite.

One test per acceptance criterion, each asserting the stated tolerance and
printing a single PASS line with the measured numbers (visible with -s or on
failure).  Expensive minimizations are shared through module-scoped fixtures.
"""

import itertools
import time

import numpy as np
import pytest

from ompath import (
    DiscretePath,
    DoubleWell1D,
    FlowConfig,
    TransitionGraph,
    GraphEdge,
    classify_point,
    eval_I,
    eval_I0,
    eval_objective,
    find_critical_points,
    grad_objective,
    gradient_connection,
    hamiltonian_connection_adaptive,
    minimize,
    optimize_support,
)
from ompath.experiments import (
    DEFAULT_BOX,
    DEFAULT_GRID,
    continuation_schedule,
    figure_routes,
    run_minimization,
)
from ompath.gamma import support_score
from ompath.paths import interpolate

TWO27 = 2.0 / 27.0
EPS = 1e-3
M = 4000

SADDLES = np.array(
    [
        [(2.0 - np.sqrt(2.0)) / 6.0, (2.0 + np.sqrt(2.0)) / 6.0],
        [(2.0 + np.sqrt(2.0)) / 6.0, (2.0 - np.sqrt(2.0)) / 6.0],
    ]
)


def _report(n, text):
    print(f"PASS criterion {n}: {text}")


@pytest.fixture(scope="module")
def saddle_pair(tw, names_tw):
    s1 = classify_point(tw, names_tw["S1"])
    s2 = classify_point(tw, names_tw["S2"])
    mid = 0.5 * (s1.location + s2.location)
    wp = [mid + np.array([0.28, 0.28])]
    coarse = hamiltonian_connection_adaptive(tw, s1, s2, M=1000, waypoints=wp)
    fine = hamiltonian_connection_adaptive(tw, s1, s2, M=2000, waypoints=wp)
    return coarse, fine


@pytest.fixture(scope="module")
def fig3_runs(tw, names_tw):
    routes = figure_routes(tw)
    out = {}
    for tag, route in (("green", "M1_M2_via_M0"), ("blue", "M1_M2_avoid")):
        t0 = time.perf_counter()
        _, _, rep = run_minimization(tw, routes[route], M, EPS, "J")
        out[tag] = (rep.j_eps, time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def fig45_runs(tw, names_tw):
    route = [names_tw["S1"], np.array([0.5, 0.5]), names_tw["S2"]]
    out = {}
    for objective in ("J", "I"):
        _, trace, rep = run_minimization(tw, route, M, EPS, objective)
        assert trace.converged
        out[objective] = rep
    return out


@pytest.fixture(scope="module")
def fig7_run(tw, names_tw):
    path, trace, rep = run_minimization(
        tw, [names_tw["S1"], names_tw["M0"], names_tw["S2"]], M, EPS, "I"
    )
    return path, trace, rep


@pytest.fixture(scope="module")
def fig9_run(tw, names_tw):
    path, trace, rep = run_minimization(
        tw,
        [names_tw["M1"], names_tw["S1"], names_tw["S2"], names_tw["M2"]],
        M,
        EPS,
        "I",
        max_iter=8000,
        eps_schedule=continuation_schedule(EPS),
    )
    return path, trace, rep


def test_criterion_1_critical_point_recovery(tw):
    t0 = time.perf_counter()
    cps = find_critical_points(tw, DEFAULT_BOX, DEFAULT_GRID)
    elapsed = time.perf_counter() - t0
    assert len(cps) == 5
    for s in SADDLES:
        i, _ = cps.nearest(s)
        assert np.all(np.abs(cps[i].location - s) < 1e-8)
        assert abs(cps[i].value - TWO27) < 1e-10
        assert abs(cps[i].laplacian - 0.0) < 1e-8
    for loc, lap in (((0, 0), 4.0), ((1, 0), 8.0), ((0, 1), 8.0)):
        i, d = cps.nearest(np.array(loc, dtype=float))
        assert d < 1e-8
        assert abs(cps[i].laplacian - lap) < 1e-8
    assert elapsed < 1.0
    _report(1, f"5 critical points recovered exactly in {elapsed:.3f}s")


def test_criterion_2_sum_rule(tw, cps_tw):
    t0 = time.perf_counter()
    gaps, id_gaps = [], []
    for s in SADDLES:
        i, _ = cps_tw.nearest(s)
        saddle = cps_tw[i]
        eigval, eigvec = np.linalg.eigh(tw.hessian(saddle.location))
        mode = int(np.argmin(eigval))
        for sign in (+1, -1):
            orbit = gradient_connection(tw, saddle, eigvec[:, mode], sign, cps_tw)
            gaps.append(abs(orbit.j_value - TWO27))
            g = tw.gradient(orbit.path.nodes)
            w = np.ones(len(g))
            w[0] = w[-1] = 0.5
            grad_sq = orbit.path.h * float(np.sum(w * np.sum(g * g, axis=-1)))
            id_gaps.append(abs(orbit.j_value - grad_sq) / abs(orbit.j_value))
    elapsed = time.perf_counter() - t0
    assert len(gaps) == 4
    assert max(gaps) <= 1e-3
    assert max(id_gaps) <= 1e-2
    assert elapsed < 10.0
    _report(
        2,
        f"four gradient orbits |J - 2/27| <= {max(gaps):.2e}, "
        f"action identity gap <= {max(id_gaps):.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_nongradient_saddle_orbit(saddle_pair):
    coarse, fine = saddle_pair
    assert fine.energy_residual <= 1e-3
    assert fine.gradient_residual > 0.1
    assert fine.kind == "hamiltonian"
    mesh_gap = abs(fine.j_value - coarse.j_value)
    assert mesh_gap <= 1e-3
    _report(
        3,
        f"saddle-saddle J = {fine.j_value:.6f}, energy residual "
        f"{fine.energy_residual:.1e}, gradient residual {fine.gradient_residual:.3f}, "
        f"mesh-doubling change {mesh_gap:.1e}",
    )


def test_criterion_4_figure3_values(fig3_runs, saddle_pair):
    _, fine = saddle_pair
    green, t_green = fig3_runs["green"]
    blue, t_blue = fig3_runs["blue"]
    target_blue = 2 * TWO27 + fine.j_value
    assert abs(green - 4 * TWO27) <= 2e-2
    assert abs(blue - target_blue) <= 2e-2
    assert t_green < 300.0 and t_blue < 300.0
    _report(
        4,
        f"J_eps through the middle well {green:.5f} (target 8/27, gap "
        f"{abs(green - 4 * TWO27):.1e}); avoiding route {blue:.5f} (target "
        f"{target_blue:.5f}, gap {abs(blue - target_blue):.1e}); "
        f"{t_green:.0f}s/{t_blue:.0f}s",
    )


def test_criterion_5_figures45_equivalence(fig45_runs):
    # the two minimizers are the same path to high accuracy, so each
    # functional takes the same value on both of them
    repJ, repI = fig45_runs["J"], fig45_runs["I"]
    gap_j = abs(repJ.j_eps - repI.j_eps)
    gap_i = abs(repJ.i_eps - repI.i_eps)
    assert gap_j <= 1e-3
    assert gap_i <= 1e-3
    _report(
        5,
        f"minimizers indistinguishable: J_eps values differ by {gap_j:.1e}, "
        f"full-action values by {gap_i:.1e} (cross gap = dwell Laplacian "
        f"correction {abs(repJ.j_eps - repI.i_eps):.2e})",
    )


def test_criterion_6_figure7_concentration(tw, names_tw, fig7_run):
    path, _, _ = fig7_run
    frac = support_score(path, [names_tw["M0"]])
    assert frac >= 0.80
    # the eps-free objective is indifferent to the dwell split: two different
    # allocations of dwell time land on the same value
    vals = []
    for wps in (
        [names_tw["S1"], names_tw["M0"], names_tw["S2"]],
        [names_tw["S1"], names_tw["M0"], names_tw["M0"], names_tw["M0"], names_tw["S2"]],
    ):
        _, trace, rep = run_minimization(tw, wps, M, EPS, "J")
        assert trace.converged
        vals.append(rep.j_eps)
    dwell_gap = abs(vals[0] - vals[1])
    assert dwell_gap <= 1e-3
    _report(
        6,
        f"{100 * frac:.1f}% of full-action nodes within 0.05 of the middle well; "
        f"two dwell allocations of the eps-free flow differ by {dwell_gap:.1e}",
    )


def test_criterion_7_figure9_concentration(names_tw, fig9_run):
    path, _, _ = fig9_run
    dwell = [names_tw["M1"], names_tw["M2"]]
    frac = support_score(path, dwell)
    trans = 1.0 - frac
    assert frac >= 0.80
    assert trans <= 0.05
    _report(
        7,
        f"{100 * frac:.1f}% of nodes within 0.05 of the two deep wells; "
        f"transitions occupy {100 * trans:.2f}% of the time interval",
    )


def test_criterion_8_gamma_consistency(graph_full, names_tw, fig7_run, fig9_run):
    cps = graph_full.cps
    idx = {k: cps.nearest(v)[0] for k, v in names_tw.items()}

    seq7 = [cps[idx[k]] for k in ("S1", "M0", "S2")]
    i0_7 = eval_I0(graph_full, optimize_support(graph_full, seq7[0], seq7[-1], seq7)).i0
    gap7 = abs(fig7_run[2].i_eps - i0_7)

    candidates = [("M1", "S1", "M0", "S2", "M2"), ("M1", "S1", "S2", "M2")]
    i0_9 = min(
        eval_I0(
            graph_full,
            optimize_support(
                graph_full, cps[idx[ks[0]]], cps[idx[ks[-1]]], [cps[idx[k]] for k in ks]
            ),
        ).i0
        for ks in candidates
    )
    gap9 = abs(fig9_run[2].i_eps - i0_9)

    assert gap7 <= 0.05
    assert gap9 <= 0.05
    # liminf consistency: the finite-temperature minimum does not drop more
    # than the tolerance below the limit value
    assert fig7_run[2].i_eps >= i0_7 - 0.05
    assert fig9_run[2].i_eps >= i0_9 - 0.05
    _report(
        8,
        f"|I_eps - I0| = {gap7:.4f} (saddle-to-saddle run, I0 = {i0_7:.4f}) and "
        f"{gap9:.4f} (well-to-well run, I0 = {i0_9:.4f}), both <= 0.05",
    )


def test_criterion_10_double_well_ladder():
    # On the double well the limit is closed form: the jump -1 -> 0 costs
    # 2 (V(0) - V(-1)) = 1/2, all dwell goes to the wells' Lap V = 2, so
    # I0 = 1/2 - 2 = -3/2.  Each stage warm starts from the last path.
    p = DoubleWell1D()
    path = DiscretePath.from_waypoints([[-1.0], [0.0], [1.0]], 1000)
    gaps = []
    for eps, m in ((0.1, 1000), (0.03, 1000), (0.01, 2000), (3e-3, 4000), (1e-3, 4000)):
        start = DiscretePath(interpolate(np.linspace(0.0, 1.0, m + 1), path.times, path.nodes))
        path, trace = minimize(p, start, FlowConfig(objective="I", eps=eps))
        assert trace.converged, (eps, trace.stop_reason)
        gaps.append(abs(eval_I(p, path, eps).i_eps + 1.5))
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    _report(10, "double-well |I_eps + 3/2| = " + ", ".join(f"{g:.4g}" for g in gaps))


@pytest.fixture(scope="module")
def clock():
    return {"start": time.perf_counter()}


class TestCriterion9PropertySuites:
    """Each sub-suite draws at least 100 randomized cases; the whole class
    runs in well under a minute."""

    def test_gradient_matches_finite_differences(self, tw, clock):
        rng = np.random.default_rng(0)
        cases = 0
        for _ in range(100):
            m = int(rng.integers(5, 10))
            eps = float(rng.uniform(0.02, 1.0))
            objective = rng.choice(["I", "J"])
            path = DiscretePath(rng.uniform(-0.4, 1.3, size=(m + 1, 2)))
            g = grad_objective(tw, path, eps, objective)
            k, j = int(rng.integers(0, m - 1)), int(rng.integers(0, 2))
            d = 1e-6
            up, dn = path.interior.copy(), path.interior.copy()
            up[k, j] += d
            dn[k, j] -= d
            fd = (
                eval_objective(tw, path.with_interior(up), eps, objective)[0]
                - eval_objective(tw, path.with_interior(dn), eps, objective)[0]
            ) / (2 * d)
            assert abs(g[k, j] - fd) <= 1e-6 * (1.0 + abs(fd))
            cases += 1
        assert cases >= 100

    def test_monotone_objective_decrease(self, tw):
        rng = np.random.default_rng(1)
        for case in range(100):
            path = DiscretePath(rng.uniform(-0.4, 1.3, size=(9, 2)))
            cfg = FlowConfig(
                objective="I" if case % 2 else "J",
                eps=float(rng.uniform(0.05, 1.0)),
                max_iter=8,
            )
            _, trace = minimize(tw, path, cfg)
            acc = trace.accepted_objectives
            assert all(b <= a + 1e-14 for a, b in zip(acc, acc[1:]))

    def test_action_lower_bound(self, tw, cps_tw):
        rng = np.random.default_rng(2)
        locs = [c.location for c in cps_tw]
        vals = [c.value for c in cps_tw]
        for _ in range(100):
            i, j = rng.integers(0, len(locs), size=2)
            wps = [locs[i]] + list(rng.uniform(-0.5, 1.5, size=(3, 2))) + [locs[j]]
            path = DiscretePath.from_waypoints(wps, 64, a=-8.0, b=8.0)
            value = eval_I(tw, path, 1.0).j_eps
            assert value >= abs(vals[i] - vals[j]) - 1e-3

    def test_phi_symmetry_and_triangle(self, cps_tw):
        rng = np.random.default_rng(3)
        n = len(cps_tw)
        for _ in range(100):
            graph = TransitionGraph(cps=cps_tw)
            k = int(rng.integers(n - 1, 2 * n))
            for _ in range(k):
                i, j = rng.choice(n, size=2, replace=False)
                graph.edges.append(GraphEdge(int(i), int(j), float(rng.uniform(0.05, 2.0)), "x"))
            phi = graph.recompute_phi()
            assert np.allclose(phi, phi.T)
            finite = np.nan_to_num(phi, posinf=1e12)
            for a, b, c in itertools.permutations(range(n), 3):
                assert finite[a, b] <= finite[a, c] + finite[c, b] + 1e-9

    def test_decomposition_identity(self, tw):
        rng = np.random.default_rng(4)
        for _ in range(100):
            m = int(rng.integers(3, 50))
            eps = float(rng.uniform(1e-4, 10.0))
            path = DiscretePath(rng.uniform(-1.0, 1.5, size=(m + 1, 2)))
            rep = eval_I(tw, path, eps)
            assert abs(rep.i_eps - (rep.j_eps - rep.laplacian_term)) <= 1e-12 * max(
                1.0, abs(rep.j_eps)
            )

    def test_suite_runtime_budget(self, clock):
        elapsed = time.perf_counter() - clock["start"]
        assert elapsed < 60.0
        _report(
            9,
            f"property suites: 5 x 100 randomized cases within tolerance "
            f"in {elapsed:.1f}s",
        )

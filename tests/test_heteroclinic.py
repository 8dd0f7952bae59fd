"""Heteroclinic connections and the transition-energy graph."""

import functools
import hashlib
import itertools
import json
from dataclasses import replace

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
    Quadratic,
    TripleWell,
    build_transition_graph,
    classify_point,
    CriticalPointSet,
    DomainError,
    eval_I,
    find_critical_points,
    gradient_connection,
    hamiltonian_connection,
    hamiltonian_connection_adaptive,
    verify_orbit,
)
from ompath.experiments import DEFAULT_BOX, DEFAULT_GRID, triple_well_graph
from ompath.flow import TAU_MAX
from ompath.experiments import run_figure
from ompath.heteroclinic import (
    _DP_A,
    _DP_B,
    _DP_E,
    _DP_Q,
    ATOL,
    CAPTURE,
    ESCAPE,
    LAND_RTOL,
    MAX_FACTOR,
    MIN_FACTOR,
    RTOL,
    SAFETY,
    SHOT_NODES,
    T_MAX,
    _col,
    _dp_step,
    _levels,
    _resample,
    _run_shots,
    _Shot,
    _shoot,
    _shot_end,
    _orbit_record,
    gradient_shots,
    landing_radii,
    saddle_shots,
    shortest_paths,
)
from ompath.paths import interpolate

TWO27 = 2.0 / 27.0


def _gradient_orbits(p, cps):
    """The orbits of every saddle shot, drawn to the 1e-6 capture by
    gradient_shots: the graph keeps no gradient orbit."""
    return [o for o in gradient_shots(p, cps, _saddle_shots_of(p, cps)) if not isinstance(o, Exception)]


@pytest.fixture(scope="module")
def orbits_tw(tw, cps_tw):
    return _gradient_orbits(tw, cps_tw)


class TestGradientOrbits:
    def test_four_saddle_shots(self, orbits_tw):
        assert len(orbits_tw) == 4
        targets = sorted(tuple(np.round(o.target.location, 6)) for o in orbits_tw)
        assert targets == [(0.0, 0.0), (0.0, 0.0), (0.0, 1.0), (1.0, 0.0)]

    def test_sum_rule_two_over_27(self, orbits_tw):
        for o in orbits_tw:
            assert abs(o.j_value - TWO27) <= 1e-3

    def test_action_identity(self, tw, orbits_tw):
        # J equals the integral of |grad V|^2 along a zero-energy orbit
        for o in orbits_tw:
            rep = verify_orbit(tw, o)
            assert rep.action_identity_gap <= 1e-2
            assert rep.passed

    def test_residuals(self, orbits_tw):
        for o in orbits_tw:
            assert o.energy_residual <= 1e-3
            assert o.gradient_residual <= 1e-3
            assert not o.endpoint_warning

    def test_endpoints_on_critical_points(self, orbits_tw):
        for o in orbits_tw:
            assert max(o.endpoint_distances) <= 1e-5

    def test_time_reversal_keeps_action(self, tw, orbits_tw):
        o = orbits_tw[0]
        rev = DiscretePath(o.path.nodes[::-1], o.path.a, o.path.b)
        assert eval_I(tw, rev, 1.0).j_eps == pytest.approx(o.j_value, abs=1e-12)

    def test_source_must_be_saddle(self, tw, cps_tw, names_tw):
        m0 = classify_point(tw, names_tw["M0"])
        with pytest.raises(ValueError):
            gradient_connection(tw, m0, np.array([1.0, 0.0]), 1, cps_tw)

    def test_escape_detected(self):
        hill = CustomPotential(2, lambda x: -0.5 * np.sum(x * x, axis=1), lambda x: -x)
        top = classify_point(hill, np.array([0.0, 0.0]))
        cps = CriticalPointSet([top])
        with pytest.raises(EscapeError):
            gradient_connection(hill, top, np.array([1.0, 0.0]), 1, cps)


def _dw_points():
    dw = DoubleWell1D()
    return dw, CriticalPointSet([classify_point(dw, np.array([x])) for x in (0.0, 1.0, -1.0)])


def _dw_graph():
    dw, cps = _dw_points()
    return dw, cps, build_transition_graph(dw, cps)


@pytest.fixture(scope="module")
def quartic():
    """V = (x1^2 - 1)^2 + (x2^2 - 1)^2 on (K, 2) batches and its critical points
    in the box +-1.5: the minima (+-1, +-1), the index-1 saddles (0, +-1) and
    (+-1, 0), and the maximum at 0."""
    q = CustomPotential(2, lambda x: np.sum((x * x - 1.0) ** 2, axis=1), lambda x: 4.0 * x * (x * x - 1.0))
    return q, find_critical_points(q, [(-1.5, 1.5)] * 2, 20)


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
    def test_shot_alone_equals_shot_in_batch(self, landscape, tw, cps_tw):
        p, cps = (tw, cps_tw) if landscape == "triple-well" else _dw_points()
        orbits = _gradient_orbits(p, cps)
        assert len(orbits) == (4 if landscape == "triple-well" else 2)
        for o in orbits:
            alone = gradient_connection(p, o.source, *_shot_args(p, o), cps)
            assert alone.target is o.target
            assert alone.path.nodes.tobytes() == o.path.nodes.tobytes()
            assert (alone.path.a, alone.path.b) == (o.path.a, o.path.b)
            assert alone.j_value == o.j_value
            assert alone.el_residual == o.el_residual

    @pytest.mark.parametrize("landscape", ["triple-well", "double-well-1d"])
    def test_matches_solve_ivp(self, landscape, tw, cps_tw):
        # the same RK45 pair, controller and events; the stage sums and the
        # event roots differ from scipy's in the last bits
        p, cps = (tw, cps_tw) if landscape == "triple-well" else _dw_points()
        for o in _gradient_orbits(p, cps):
            target, t_end, nodes = _solve_ivp_shot(p, o.source, *_shot_args(p, o), cps)
            assert target is o.target
            assert abs(2.0 * o.path.b - t_end) <= 1e-6 * t_end
            assert np.max(np.abs(o.path.nodes - nodes)) <= 1e-8
            ref = DiscretePath(nodes, a=-t_end / 2.0, b=t_end / 2.0)
            ref_j = _orbit_record(p, ref)[0]["j_value"]
            assert abs(o.j_value - ref_j) <= 1e-12 * ref_j


def _weigh_frozen(coefs, stages):
    out = None
    for c, k in zip(coefs, stages):
        if c:
            out = c * k if out is None else out + c * k
    return out


def _numpy_dp_step(p, yi, f, h):
    """The Dormand-Prince stage loop of the shots as it was on arrays, kept
    as the oracle of _dp_step: one gradient call per stage for every row,
    and the RMS error norm summed column by column."""
    hc = h[:, None]
    k = [f]
    for a in _DP_A:
        k.append(-p.gradient(yi + _weigh_frozen(a, k) * hc))
    y_new = yi + hc * _weigh_frozen(_DP_B, k)
    k.append(-p.gradient(y_new))
    scale = ATOL + np.maximum(np.abs(yi), np.abs(y_new)) * RTOL
    e = _weigh_frozen(_DP_E, k) * hc / scale
    sq = e[:, 0] * e[:, 0]
    for j in range(1, e.shape[1]):
        sq = sq + e[:, j] * e[:, j]
    return np.array(k), y_new, np.sqrt(sq) / np.sqrt(e.shape[1])


def _row_sumsq_frozen(x):
    s = x[..., 0] * x[..., 0]
    for j in range(1, x.shape[-1]):
        s = s + x[..., j] * x[..., j]
    return s


def _numpy_levels(y, pts):
    dist = np.sqrt(_row_sumsq_frozen(y[:, None, :] - pts))
    dist[:, :-1] = CAPTURE - dist[:, :-1]
    dist[:, -1] -= ESCAPE
    return dist


def _numpy_dense(y_old, q, h, x):
    x = x[:, None]
    power = x
    acc = q[0] * power
    for qj in q[1:]:
        power = power * x
        acc = acc + qj * power
    return y_old + h[:, None] * acc


def _numpy_event_time(level, lo, hi):
    while hi - lo > 4.0 * np.finfo(float).eps * (1.0 + abs(hi)):
        mid = 0.5 * (lo + hi)
        if level(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def _numpy_integrate(p, y0, pts, watch, dp_step=_numpy_dp_step):
    """The shots' integrator as it was on arrays, kept as the oracle of
    _shoot: all rows step together, with the step-size control, the
    events and the step log on arrays, and the stages of ``dp_step``."""
    K = y0.shape[0]
    rows = np.arange(K)
    t = np.zeros(K)
    y = y0.copy()
    f = -p.gradient(y0)
    scale = ATOL + np.abs(y0) * RTOL
    d0 = np.sqrt(_row_sumsq_frozen(y0 / scale)) / np.sqrt(y0.shape[-1])
    d1 = np.sqrt(_row_sumsq_frozen(f / scale)) / np.sqrt(y0.shape[-1])
    with np.errstate(divide="ignore", invalid="ignore"):
        h0 = np.minimum(np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1), T_MAX)
        d2 = np.sqrt(_row_sumsq_frozen((-p.gradient(y0 + h0[:, None] * f) - f) / scale))
        d2 = d2 / np.sqrt(y0.shape[-1]) / h0
        h1 = np.where(
            (d1 <= 1e-15) & (d2 <= 1e-15),
            np.maximum(1e-6, h0 * 1e-3),
            (0.01 / np.maximum(d1, d2)) ** 0.2,
        )
    h_abs = np.minimum(np.minimum(100.0 * h0, h1), T_MAX)
    rejected = np.zeros(K, dtype=bool)
    running = np.ones(K, dtype=bool)
    level = _numpy_levels(y0, pts)
    shots = [_Shot() for _ in range(K)]
    log = []
    while running.any():
        idx = rows[running]
        ti = t[idx]
        min_step = 10.0 * (np.nextafter(ti, np.inf) - ti)
        stuck = rejected[idx] & (h_abs[idx] < min_step)
        if stuck.any():
            running[idx[stuck]] = False
            continue
        t_new = np.minimum(ti + np.maximum(h_abs[idx], min_step), T_MAX)
        h = t_new - ti
        yi = y[idx]
        k, y_new, err = dp_step(p, yi, f[idx], h)
        ok = err < 1.0
        factor = SAFETY * np.maximum(err, 1e-10) ** -0.2
        grow = np.where(rejected[idx], np.minimum(1.0, factor), np.minimum(MAX_FACTOR, factor))
        h_abs[idx] = h * np.where(ok, grow, np.fmax(MIN_FACTOR, factor))
        rejected[idx] = ~ok
        if not ok.all():
            if not ok.any():
                continue
            idx, ti, t_new, h, yi, y_new = idx[ok], ti[ok], t_new[ok], h[ok], yi[ok], y_new[ok]
            k = k[:, ok]
        log.append((idx, ti, h, yi, *k))
        t[idx], y[idx], f[idx] = t_new, y_new, k[-1]
        new_level = _numpy_levels(y_new, pts)
        crossed = (level[idx] <= 0.0) & (new_level >= 0.0) & watch[idx]
        level[idx] = new_level
        running[idx[t_new >= T_MAX]] = False
        for r in np.flatnonzero(crossed.any(axis=1)):
            q = [_weigh_frozen(c, [s[r : r + 1] for s in k]) for c in _DP_Q]
            y_old, t_old, step = yi[r : r + 1], ti[r], h[r : r + 1]

            def at(col, te):
                x = np.array([(te - t_old) / step[0]])
                return _numpy_levels(_numpy_dense(y_old, q, step, x), pts)[0, col]

            shot = shots[idx[r]]
            shot.t, shot.event = min(
                (_numpy_event_time(lambda te: at(col, te), t_old, t_new[r]), col)
                for col in np.flatnonzero(crossed[r])
            )
            running[idx[r]] = False
    for r, shot in enumerate(shots):
        if shot.event < 0:
            shot.t, shot.y = float(t[r]), y[r]
    if log:
        owner, *cols = (np.concatenate(c) for c in zip(*log))
        order = np.argsort(owner, kind="stable")
        t_old, h, y_old, *stages = (c[order] for c in cols)
        bounds = np.searchsorted(owner[order], np.arange(K + 1))
        for r, shot in enumerate(shots):
            # _Shot.steps as _shoot logs them: the stages as grad V
            sl = slice(bounds[r], bounds[r + 1])
            shot.steps = list(zip(t_old[sl], h[sl], y_old[sl], zip(*(-s[sl] for s in stages))))
    return shots


def _oracle_shoot(p, y0, cols, dp_step=_numpy_dp_step):
    """_shoot through the array oracle, on a batch of the one row y0: pts hold
    the points of ``cols`` at their columns, the centre last, and a row of
    zeros at each column the shot does not watch."""
    pts = np.zeros((cols[-1][0] + 1, len(y0)))
    watch = np.zeros((1, len(pts)), dtype=bool)
    for c, pt, *_ in cols:
        pts[c], watch[0, c] = pt, True
    (shot,) = _numpy_integrate(p, np.array([y0]), pts, watch, dp_step)
    return shot


def _orbit_bits(out):
    """Everything a gradient_shots entry holds, in bytes where it is an array."""
    if isinstance(out, Exception):
        return type(out).__name__, str(out)
    return (
        out.source.location.tobytes(), out.target.location.tobytes(), out.path.nodes.tobytes(),
        out.path.a, out.path.b, out.kind, out.j_value, out.energy_residual, out.zero_energy_residual,
        out.gradient_residual, out.el_residual, out.endpoint_distances, out.endpoint_warning,
    )


def _shots_both_ways(p, cps, shots, n_nodes=SHOT_NODES):
    """gradient_shots with the per-shot float integrator, then with the array oracle."""
    got = [_orbit_bits(o) for o in gradient_shots(p, cps, shots, n_nodes)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ompath.heteroclinic, "_shoot", _oracle_shoot)
        want = [_orbit_bits(o) for o in gradient_shots(p, cps, shots, n_nodes)]
    return got, want


def _saddle_shots_of(p, cps):
    return [s for c in cps if c.index >= 1 for s in saddle_shots(p, c)]


def _integrator_inputs(cps, shots):
    """The oracle's (y0, pts, watch) for the starts of a batch of shots: pts
    are the critical points, then their centre, and watch marks all but the
    shot's source."""
    locs = [c.location for c in cps]
    starts = [s.location + 1e-6 * sign * np.asarray(d, float) / np.linalg.norm(d) for s, d, sign in shots]
    watch = [[c is not s for c in cps] + [True] for s, _, _ in shots]
    return np.array(starts), np.vstack(locs + [np.mean(locs, axis=0)]), np.array(watch)


def _numpy_resample(shot, n_nodes):
    """_resample as the oracle's arrays gave it: the dense-output coefficients
    of the force by _weigh_frozen, evaluated by _numpy_dense."""
    t_old, h, y_old, k = (np.array(a) for a in zip(*shot.steps))
    q = [_weigh_frozen(c, list(-k.transpose(1, 0, 2))) for c in _DP_Q]
    ts = np.linspace(0.0, shot.t, n_nodes + 1)
    seg = np.searchsorted(t_old[1:], ts, side="left")
    return _numpy_dense(y_old[seg], [qj[seg] for qj in q], h[seg], (ts - t_old[seg]) / h[seg])


def _shot_bits(shot, resample=_resample):
    """Everything a _Shot holds: the event, the time, the end point and its
    accepted steps' start times, lengths, start points and stages as arrays,
    then, if it reached an event, its path resampled by ``resample``, in bytes."""
    steps = [np.array(a).tobytes() for a in zip(*shot.steps)]
    if shot.event >= 0:
        steps.append(resample(shot, SHOT_NODES).tobytes())
    return int(shot.event), shot.t, None if shot.y is None else shot.y.tobytes(), steps


def _cols(pts, watch):
    """The event columns of _shoot for the oracle's pts and one row of watch."""
    return [_col(c, pt.tolist(), None if c == len(pts) - 1 else CAPTURE) for c, pt in enumerate(pts) if watch[c]]


def _shots_against_the_oracle(p, cps, shots):
    """The _Shot bits of _shoot, one call per shot, and of the array oracle
    on the whole batch."""
    y0, pts, watch = _integrator_inputs(cps, shots)
    got = [_shoot(p, y, _cols(pts, w)) for y, w in zip(y0, watch)]
    return [_shot_bits(s) for s in got], [_shot_bits(s, _numpy_resample) for s in _numpy_integrate(p, y0, pts, watch)]


def _walled_hill():
    """A hill whose gradient jumps from -x to 1e8 sign(x) beyond |x| = 0.5:
    a shot off its top steps up to the wall and stops on a step below 10 ulp."""
    wall = lambda x: np.where(np.abs(x) > 0.5, 1e8 * np.sign(x), -x)  # noqa: E731
    hill = CustomPotential(1, lambda x: -0.5 * np.sum(x * x, axis=-1), wall)
    top = classify_point(hill, np.array([0.0]))
    return hill, CriticalPointSet([top]), [(top, np.array([1.0]), 1)]


def _three_d_saddle():
    """A saddle at 0 between wells at (+-1, 0, 0) in 3-D, and its unstable-mode
    shots followed by two oblique ones."""
    p = CustomPotential(
        3,
        lambda x: (x[:, 0] ** 2 - 1.0) ** 2 / 4.0 + x[:, 1] ** 2 / 2.0 + x[:, 2] ** 2,
        lambda x: np.stack([x[:, 0] ** 3 - x[:, 0], x[:, 1], 2.0 * x[:, 2]], axis=1),
    )
    cps = CriticalPointSet([classify_point(p, np.array([x, 0.0, 0.0])) for x in (0.0, 1.0, -1.0)])
    saddle = cps[0]
    oblique = [(saddle, np.array([1.0, 0.3, -0.2]), 1), (saddle, np.array([0.5, -1.0, 2.0]), -1)]
    return p, cps, saddle_shots(p, saddle) + oblique


def _seeded_shots(cps):
    """12 shots off the saddles of cps in random directions, from seed 2026."""
    rng = np.random.default_rng(2026)
    saddles = [c for c in cps if c.index >= 1]
    return [
        (saddles[rng.integers(len(saddles))], rng.normal(size=2), int(rng.choice([-1, 1])))
        for _ in range(12)
    ]


def _assert_domain_error_drops_only_its_shot(gradient):
    """Off the top of the hill -x^2 / 2 with this gradient, NaN somewhere
    right of 0, the shot to the left escapes and the one to the right ends in
    DomainError, in one batch, alone and in the graph."""
    hill = CustomPotential(1, lambda x: -0.5 * np.sum(x * x, axis=-1), gradient)
    top = classify_point(hill, np.array([0.0]))
    cps = CriticalPointSet([top])
    escape, domain = gradient_shots(hill, cps, [(top, [1.0], -1), (top, [1.0], 1)])
    assert isinstance(escape, EscapeError) and isinstance(domain, DomainError)
    with pytest.raises(EscapeError):
        gradient_connection(hill, top, [1.0], -1, cps)
    with pytest.raises(DomainError):
        gradient_connection(hill, top, [1.0], 1, cps)
    graph = build_transition_graph(hill, cps)
    assert sorted(f["error"] for f in graph.failures) == ["DomainError", "EscapeError"]
    assert not graph.edges


class TestFloatStages:
    """Each shot integrates alone on floats and gives the array integrator's
    numbers to the bit."""

    def test_triple_well_graph_shots(self, tw, cps_tw):
        got, want = _shots_both_ways(tw, cps_tw, _saddle_shots_of(tw, cps_tw))
        assert len(got) == 4 and not any(isinstance(o[0], str) for o in got)
        assert got == want
        got, want = _shots_against_the_oracle(tw, cps_tw, _saddle_shots_of(tw, cps_tw))
        assert [s[0] for s in got] == [0, 1, 0, 2] and got == want

    def test_figure_2_files(self, tmp_path):
        run_figure(2, tmp_path / "floats")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ompath.heteroclinic, "_shoot", _oracle_shoot)
            run_figure(2, tmp_path / "arrays")
        names = sorted(f.name for f in (tmp_path / "arrays").iterdir())
        assert sum(name.startswith("gradient_") for name in names) == 4
        for name in names:
            assert (tmp_path / "floats" / name).read_bytes() == (tmp_path / "arrays" / name).read_bytes()

    def test_double_well_shots(self):
        dw, cps, _ = _dw_graph()
        got, want = _shots_both_ways(dw, cps, _saddle_shots_of(dw, cps))
        assert len(got) == 2 and got == want

    def test_double_well_shots_in_the_default_box(self):
        # the box holds 0 and 1 only: the +1 branch flows to -1, outside the
        # set, and stops at T_MAX with no event; the -1 branch reaches 1
        dw = DoubleWell1D()
        cps = find_critical_points(dw, DEFAULT_BOX[:1], DEFAULT_GRID)
        shots = _saddle_shots_of(dw, cps)
        got, want = _shots_against_the_oracle(dw, cps, shots)
        assert got == want
        assert got[0][:2] == (-1, T_MAX)
        assert got[1][0] == cps.nearest(np.array([1.0]))[0] and got[1][1] < T_MAX
        got, want = _shots_both_ways(dw, cps, shots)
        assert got == want and got[0][0] == "NotConvergedError"

    def test_step_size_underflow_stop(self):
        hill, cps, shots = _walled_hill()
        got, want = _shots_against_the_oracle(hill, cps, shots)
        assert got == want
        ((event, t, y, steps),) = got
        assert event == -1 and t < T_MAX and len(steps) == 4 and all(steps)
        assert np.frombuffer(y)[0] == pytest.approx(0.5, abs=1e-12)
        got, want = _shots_both_ways(hill, cps, shots)
        assert got == want and got[0][0] == "NotConvergedError" and "a step below 10 ulp" in got[0][1]

    @pytest.mark.parametrize("hook", ["float formula", "array of one point"])
    def test_seeded_random_starts(self, hook, tw, cps_tw):
        # a batch of 12, started off the saddles in random directions
        p = tw if hook == "float formula" else CustomPotential(2, tw.value, tw.gradient)
        shots = _seeded_shots(cps_tw)
        got, want = _shots_both_ways(p, cps_tw, shots, 500)
        assert got == want
        got, want = _shots_against_the_oracle(p, cps_tw, shots)
        assert got == want

    @pytest.mark.parametrize("hook", ["float formula", "array of one point"])
    def test_non_finite_stage_point_raises_domain_error(self, hook, tw):
        # the second stage point is 0.5 - 2e308 (the stage is grad V; the
        # oracle's force gives 0.5 + 2e308), which overflows
        p = tw if hook == "float formula" else CustomPotential(2, tw.value, tw.gradient)
        with pytest.raises(DomainError):
            _dp_step(p, [0.5, 0.5], [1e308, 0.0], 10.0)
        y, f, h = np.array([[0.5, 0.5]]), np.array([[1e308, 0.0]]), np.array([10.0])
        with np.errstate(over="ignore"), pytest.raises(DomainError):
            _numpy_dp_step(p, y, f, h)

    def test_nan_error_norm_shrinks_the_step(self, tw, cps_tw, names_tw, monkeypatch):
        # the gradient turns NaN once, at the new point of the first step
        # (its 8th evaluation: two for the initial step, then six stages):
        # the error norm reads NaN, and the step is retried MIN_FACTOR as long
        s1 = cps_tw[cps_tw.nearest(names_tw["S1"])[0]]
        shot = saddle_shots(tw, s1)[0]
        calls, steps = [0], []

        def gradient(x):
            calls[0] += 1
            return np.full_like(x, np.nan) if calls[0] == 8 else tw.gradient(x)

        def recorded(stepper):
            def step(p, y, f, h, *tol):
                k, y_new, err = stepper(p, y, f, h, *tol)
                steps.append((np.ravel(h)[0], np.ravel(err)[0]))
                return k, y_new, err

            return step

        p = CustomPotential(2, tw.value, gradient)
        runs = []
        for integrator in ("per-shot floats", "array oracle"):
            calls[0], steps[:] = 0, []
            if integrator == "per-shot floats":
                monkeypatch.setattr(ompath.heteroclinic, "_dp_step", recorded(_dp_step))
            else:
                oracle = functools.partial(_oracle_shoot, dp_step=recorded(_numpy_dp_step))
                monkeypatch.setattr(ompath.heteroclinic, "_shoot", oracle)
            runs.append(_orbit_bits(gradient_shots(p, cps_tw, [shot])[0]))
            assert np.isnan(steps[0][1]) and not np.isnan(steps[1][1])
            assert steps[1][0] == steps[0][0] * MIN_FACTOR
        assert runs[0] == runs[1]
        assert not isinstance(runs[0][0], str)

    @pytest.mark.parametrize("n_shots", [1, 4, 12])
    def test_two_one_point_gradient_calls_per_shot(self, n_shots, cps_tw):
        # each shot's initial step makes two array calls on one point, in a
        # batch of any size; every stage goes through the float hook, which
        # LoggingTripleWell does not log
        p = LoggingTripleWell()
        shots = (_saddle_shots_of(p, cps_tw) * 3)[:n_shots]
        y0, pts, watch = _integrator_inputs(cps_tw, shots)
        p.log.clear()
        out = [_shoot(p, y, _cols(pts, w)) for y, w in zip(y0, watch)]
        assert all(len(s.steps) > 100 for s in out)
        assert p.log == [("gradient", 1)] * (2 * n_shots)

    def test_three_dimensional_shots(self):
        # a saddle at 0 between wells at (+-1, 0, 0): the unstable-mode shots
        # keep y = z = 0, the oblique ones start off the axis
        p, cps, shots = _three_d_saddle()
        got, want = _shots_against_the_oracle(p, cps, shots)
        assert got == want
        assert sorted(s[0] for s in got) == [1, 1, 2, 2] and all(len(s[3]) == 5 for s in got)
        got, want = _shots_both_ways(p, cps, shots, 500)
        assert got == want and not any(isinstance(o[0], str) for o in got)

    def test_domain_error_drops_only_its_shot(self):
        # the gradient is NaN beyond x = 0.5: the shot to the right meets a
        # non-finite stage point, the one to the left escapes
        _assert_domain_error_drops_only_its_shot(lambda x: np.where(x > 0.5, np.nan, -x))

    def test_non_finite_start_gradient_drops_only_its_shot(self):
        # the gradient is NaN for 5e-7 < x < 2e-6: the shot to the right
        # starts at x = 1e-6, where its own initial step meets a non-finite
        # point, the one to the left escapes
        _assert_domain_error_drops_only_its_shot(lambda x: np.where((x > 5e-7) & (x < 2e-6), np.nan, -x))

    @pytest.mark.parametrize("eig_dir, sign, what", [
        ([1.0], 1, "eig_dir"), ([1.0, 0.0, 0.0], 1, "eig_dir"), ([0.0, 0.0], 1, "eig_dir"),
        ([np.nan, 1.0], 1, "eig_dir"), ([np.inf, 1.0], -1, "eig_dir"),
        ([1.0, 0.0], 0, "sign"), ([1.0, 0.0], 2, "sign"), ([1.0, 0.0], -0.5, "sign"),
    ], ids=["short", "long", "zero", "nan", "inf", "sign-0", "sign-2", "sign-half"])
    def test_malformed_shot_raises_before_any_shot(self, eig_dir, sign, what, tw, cps_tw, names_tw, monkeypatch):
        # a one-number eig_dir would broadcast over both axes, sign 0 would
        # start on the saddle, and a zero eig_dir would start at NaN
        def no_shots(*args, **kwargs):
            raise AssertionError("a shot ran")

        monkeypatch.setattr(ompath.heteroclinic, "_shoot", no_shots)
        good = saddle_shots(tw, cps_tw[cps_tw.nearest(names_tw["S1"])[0]])[0]
        with pytest.raises(ValueError, match=f"^{what} must be"):
            gradient_shots(tw, cps_tw, [good, (good[0], eig_dir, sign)])


def _on_sphere(centre, radius, direction):
    """Points at the float neighbours of ``radius`` from ``centre`` along
    ``direction``, 3 ulp inside to 3 ulp outside."""
    r = [radius]
    for _ in range(3):
        r = [np.nextafter(r[0], 0.0)] + r + [np.nextafter(r[-1], np.inf)]
    return [(np.asarray(centre) + ri * np.asarray(direction)).tolist() for ri in r]


class TestEventLevels:
    """The levels of _levels, screened on squared distances, have the signs
    of the exact ones, ``CAPTURE - sqrt(sq)`` and ``sqrt(sq) - ESCAPE``."""

    PTS = [[0.0, 0.0], [1.0, 0.0], [0.3, -0.7], [0.4, -0.2]]  # the last is the centre

    @pytest.mark.parametrize("col", [0, 1, 2, 3])
    @pytest.mark.parametrize(
        "factor, direction", [(1.0, [1.0, 0.0]), (1.0, [0.6, -0.8]), (2.0, [0.6, -0.8]), (0.9, [0.6, -0.8])]
    )
    def test_signs_at_the_event_radii(self, col, factor, direction):
        # the event radius (factor 1), and where the square roots start: 2
        # CAPTURE from a critical point, 0.9 ESCAPE from the centre
        escape = col == len(self.PTS) - 1
        radius = (ESCAPE if escape else CAPTURE) * factor
        cols = [_col(c, self.PTS[c], None if c == len(self.PTS) - 1 else CAPTURE) for c in range(len(self.PTS))]
        for y in _on_sphere(self.PTS[col], radius, direction):
            got = _levels(y, cols)[col]
            sq = _row_sumsq_frozen(np.subtract(y, self.PTS[col]))
            want = np.sqrt(sq) - ESCAPE if escape else CAPTURE - np.sqrt(sq)
            assert (got >= 0.0, got <= 0.0) == (want >= 0.0, want <= 0.0)
            # exact near the event, else -1.0 where the level is surely negative
            assert got == want or (got == -1.0 and want < 0.0 and factor != 1.0)

    def test_exact_radius_reads_zero(self):
        # sqrt(d * d) == d, so these points lie exactly on the event spheres
        cols = [_col(0, [0.0, 0.0], CAPTURE), _col(1, [0.0, 0.0], None)]
        assert _levels([CAPTURE, 0.0], cols)[0] == 0.0
        assert _levels([0.0, -ESCAPE], cols)[1] == 0.0
        below = _levels([np.nextafter(CAPTURE, 0.0), 0.0], cols)[0]
        above = _levels([np.nextafter(CAPTURE, 1.0), 0.0], cols)[0]
        assert below > 0.0 > above

    @pytest.mark.parametrize("radius", [0.12, 0.0918291778057771])
    def test_signs_at_a_landing_radius(self, radius):
        # the triple well's landing radii at M0 and M1: exact within twice
        # the radius, else -1.0 where the level is surely negative
        cols = [_col(0, self.PTS[0], radius)]
        for factor in (1.0, 2.0, 3.0):
            for y in _on_sphere(self.PTS[0], radius * factor, [0.6, -0.8]):
                got = _levels(y, cols)[0]
                want = radius - np.sqrt(_row_sumsq_frozen(np.subtract(y, self.PTS[0])))
                assert (got >= 0.0, got <= 0.0) == (want >= 0.0, want <= 0.0)
                assert got == want or (got == -1.0 and want < 0.0 and factor != 1.0)

    def test_old_level_of_exactly_zero_counts(self):
        # a shot started exactly CAPTURE from the minimum of |x|^2 / 2: its
        # first step crosses from a level of exactly 0, so the event comes then
        y0, pts, watch = np.array([[CAPTURE]]), np.array([[0.0], [0.0]]), np.array([[True, True]])
        assert _numpy_levels(y0, pts)[0, 0] == 0.0
        got = _shot_bits(_shoot(Quadratic(1), y0[0], _cols(pts, watch[0])))
        (want,) = [_shot_bits(s, _numpy_resample) for s in _numpy_integrate(Quadratic(1), y0, pts, watch)]
        assert got == want
        assert got[0] == 0 and len(np.frombuffer(got[3][0])) == 1


def _capture_cols(cps, radii):
    """_shoot's event columns for a start at no critical point: every point of
    cps at its capture radius, then the escape column."""
    centre = np.mean([c.location for c in cps], axis=0).tolist()
    return [_col(k, c.location.tolist(), radii[k]) for k, c in enumerate(cps)] + [_col(len(cps), centre, None)]


def _landings(p, cps, shots):
    """The landing radii, and per shot: its landing target, its landing point
    continued to the 1e-6 capture (the event reached), the target of the
    shot run to the 1e-6 capture from its start, and the landing point; or,
    where a shot failed, the (class, message) of both runs' errors.  A shot
    that ends at the 1e-6 capture is its own continuation."""
    radii = landing_radii(p, cps)

    def end(source, start, cols):
        shot = _shoot(p, start, cols)
        return _shot_end(p, cps, shot), shot

    out = []
    landed = _run_shots(p, cps, shots, radii, end)
    for got, want in zip(landed, _run_shots(p, cps, shots, [CAPTURE] * len(cps), end)):
        if isinstance(got, Exception) or isinstance(want, Exception):
            out.append(((type(got).__name__, str(got)), (type(want).__name__, str(want))))
            continue
        y = _resample(got[1], 1)[-1]
        continued = _shoot(p, y, _capture_cols(cps, [CAPTURE] * len(cps))).event if radii[got[0]] > CAPTURE else got[0]
        out.append((got[0], continued, want[0], y))
    return radii, out


def _graph_bytes_both_ways(build):
    """json.dumps of build()'s graph with the landing radii, then with every
    point at the 1e-6 capture."""
    on = json.dumps(build().to_dict())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ompath.heteroclinic, "landing_radii", lambda p, cps: [CAPTURE] * len(cps))
        off = json.dumps(build().to_dict())
    return on, off


def _graph_bytes_at_both_tolerances(build):
    """json.dumps of build()'s graph, then with its landing flights at RTOL, ATOL."""
    on = json.dumps(build().to_dict())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ompath.heteroclinic, "LAND_RTOL", RTOL)
        mp.setattr(ompath.heteroclinic, "LAND_ATOL", ATOL)
        off = json.dumps(build().to_dict())
    return on, off


GRAPH_CASES = [
    "triple-well-S1-S2", "double-well", "double-well-without--1", "muller-brown", "muller-brown-3-4",
    "three-dimensional-saddle",
]


def _graph_case(case, tw, cps_tw, mb, cps_mb, quartic=None):
    """A build of the transition graph of one of GRAPH_CASES, or of the quartic."""
    if case == "triple-well-S1-S2":
        return functools.partial(triple_well_graph, tw, cps_tw, ham_M=1000)
    if case.startswith("double-well"):
        dw, cps = _dw_points()
        if case.endswith("-1"):
            cps = CriticalPointSet(cps.points[:2])
        return functools.partial(build_transition_graph, dw, cps)
    if case.startswith("muller-brown"):
        # -3-4: saddles 3 and 4 trade places, so the pair is tried from the other end
        order = [0, 1, 2, 4, 3] if case.endswith("3-4") else range(len(cps_mb))
        return functools.partial(build_transition_graph, mb, CriticalPointSet([cps_mb[k] for k in order]))
    if case == "quartic":
        return functools.partial(build_transition_graph, *quartic, ham_M=400)
    p, cps, _ = _three_d_saddle()
    return functools.partial(build_transition_graph, p, cps)


class TestLanding:
    """A graph shot stops at its target's landing radius.  Every landing,
    continued to the 1e-6 capture, reaches the target that the shot run to
    the 1e-6 capture reaches, and a failed shot fails alike both ways."""

    @staticmethod
    def _check(p, cps, shots, certified):
        radii, out = _landings(p, cps, shots)
        landed = 0
        for entry in out:
            if isinstance(entry[0], tuple):
                assert entry[0] == entry[1]
                continue
            target, continued, want, y = entry
            assert target == continued == want
            if radii[target] > CAPTURE:
                landed += 1
                dist = np.linalg.norm(y - cps[target].location)
                assert dist == pytest.approx(radii[target], rel=1e-9, abs=0.0)
        assert landed == certified

    def test_triple_well(self, tw, cps_tw):
        self._check(tw, cps_tw, _saddle_shots_of(tw, cps_tw), 4)

    def test_double_well(self):
        dw, cps = _dw_points()
        self._check(dw, cps, _saddle_shots_of(dw, cps), 2)

    def test_three_dimensional_saddle(self):
        # no radius in 3-D: every shot keeps the 1e-6 capture
        self._check(*_three_d_saddle(), 0)

    def test_walled_hill(self):
        hill, cps, shots = _walled_hill()
        self._check(hill, cps, shots, 0)

    def test_seeded_random_starts(self, tw, cps_tw):
        self._check(tw, cps_tw, _seeded_shots(cps_tw), 12)

    def test_muller_brown(self, mb, cps_mb):
        self._check(mb, cps_mb, _saddle_shots_of(mb, cps_mb), 4)

    def test_shot_past_a_saddle_lands_after_it(self, tw, cps_tw, names_tw):
        # started 0.02 along S1's stable eigenvector, 1e-7 either side of its
        # stable manifold: each shot passes within 1e-4 of S1, and lands at
        # the minimum its 1e-6 capture reaches, on its own side, after the pass
        s1 = cps_tw[cps_tw.nearest(names_tw["S1"])[0]]
        vec = np.linalg.eigh(tw.hessian(s1.location))[1]
        vec = vec * -np.sign(vec[np.argmax(np.abs(vec), axis=0), [0, 1]])
        radii = landing_radii(tw, cps_tw)
        targets = []
        for b in (-1.5675e-4, -1.5655e-4):
            y0 = s1.location + 0.02 * vec[:, 1] + b * vec[:, 0]
            full = _shoot(tw, y0, _capture_cols(cps_tw, [CAPTURE] * len(cps_tw)))
            d = np.linalg.norm(_resample(full, 20000) - s1.location, axis=-1)
            assert CAPTURE < np.min(d) <= 1e-4
            landed = _shoot(tw, y0, _capture_cols(cps_tw, radii))
            assert landed.event == full.event and radii[landed.event] > CAPTURE
            assert landed.t > full.t * np.argmin(d) / 20000
            y = _resample(landed, 1)[-1]
            assert np.linalg.norm(y - cps_tw[landed.event].location) == pytest.approx(radii[landed.event])
            targets.append(landed.event)
        assert targets[0] != targets[1]

    def test_degenerate_minimum_keeps_the_1e6_capture(self):
        # V = x^4 / 4 - x^5 / 5: a well like x^4 at 0, whose finite-difference
        # Hessian reads 1e-10 < EIG_TOL, and a saddle at 1.  The shot into
        # the well is still algebraically slow at T_MAX; the other escapes
        p = CustomPotential(1, lambda x: x[:, 0] ** 4 / 4.0 - x[:, 0] ** 5 / 5.0, lambda x: x**3 - x**4)
        cps = CriticalPointSet([classify_point(p, np.array([x])) for x in (0.0, 1.0)])
        assert [c.index for c in cps] == [0, 1] and 0.0 < cps[0].eigenvalues[0] < 1e-8
        assert landing_radii(p, cps) == [CAPTURE, CAPTURE]
        on, off = _graph_bytes_both_ways(lambda: build_transition_graph(p, cps))
        assert on == off
        assert sorted(f["error"] for f in json.loads(on)["failures"]) == ["EscapeError", "NotConvergedError"]
        # the slow shot is named as such, not as one that needs a wider box
        (slow,) = [f["message"] for f in json.loads(on)["failures"] if f["error"] == "NotConvergedError"]
        assert slow.endswith(
            "where |grad V| = 4.13e-06: still creeping into the degenerate minimum 0 of the set (least eigenvalue 1e-10)"
        )
        assert "--box" not in slow

    def test_no_radius_above_two_dimensions(self):
        # the double well along the first axis, in 3-D and 4-D; the same in 2-D gets radii
        for dim, certified in ((2, 2), (3, 0), (4, 0)):
            p = CustomPotential(
                dim,
                lambda x: (x[:, 0] ** 2 - 1.0) ** 2 / 4.0 + np.sum(x[:, 1:] ** 2, axis=1) / 2.0,
                lambda x: np.concatenate([x[:, :1] ** 3 - x[:, :1], x[:, 1:]], axis=1),
            )
            cps = CriticalPointSet([classify_point(p, np.eye(dim)[0] * x) for x in (0.0, 1.0, -1.0)])
            assert sum(r > CAPTURE for r in landing_radii(p, cps)) == certified

    def test_one_hessian_call_for_all_minima(self, cps_tw):
        p = LoggingTripleWell()
        radii = landing_radii(p, cps_tw)
        assert [name for name, _ in p.log] == ["hessian"]
        assert [r > CAPTURE for r in radii] == [c.index == 0 for c in cps_tw]
        # each within 0.95 of half the distance to the nearest other point
        for c, r in zip(cps_tw, radii):
            others = [np.linalg.norm(c.location - o.location) for o in cps_tw if o is not c]
            assert r <= 0.95 * 0.5 * min(others)

    def test_accepted_step_budget(self, tw, cps_tw, monkeypatch):
        # the triple-well graph's four shots land in 74 accepted steps at
        # LAND_RTOL, LAND_ATOL (482 at RTOL, ATOL); at the 1e-6 capture no
        # point can be landed on, so no landing flight runs and the shots
        # take 1,232 steps at RTOL, ATOL.  A step regression fails here
        # without any clock
        accepted = {RTOL: 0, LAND_RTOL: 0}
        step = ompath.heteroclinic._dp_step

        def counted(p, y, f, h, rtol, atol):
            out = step(p, y, f, h, rtol, atol)
            accepted[rtol] += out[2] < 1.0
            return out

        monkeypatch.setattr(ompath.heteroclinic, "_dp_step", counted)
        build_transition_graph(tw, cps_tw)
        assert accepted == {RTOL: 0, LAND_RTOL: 74}
        accepted.update({RTOL: 0, LAND_RTOL: 0})
        monkeypatch.setattr(ompath.heteroclinic, "landing_radii", lambda p, cps: [CAPTURE] * len(cps))
        build_transition_graph(tw, cps_tw)
        assert accepted == {RTOL: 1232, LAND_RTOL: 0}

    @pytest.mark.parametrize("case", GRAPH_CASES)
    def test_graph_bytes_with_and_without_landing(self, case, tw, cps_tw, mb, cps_mb):
        on, off = _graph_bytes_both_ways(_graph_case(case, tw, cps_tw, mb, cps_mb))
        assert on == off


class TestLandingTolerance:
    """A graph shot flies first at LAND_RTOL, LAND_ATOL, and its answer
    stands only where it lands at a landing radius; every other outcome is
    flown again at RTOL, ATOL.  Either way the graph writes the bytes it
    writes with every flight at RTOL, ATOL."""

    @pytest.mark.parametrize("case", GRAPH_CASES + ["quartic"])
    def test_graph_bytes_at_both_tolerances(self, case, tw, cps_tw, mb, cps_mb, quartic):
        on, off = _graph_bytes_at_both_tolerances(_graph_case(case, tw, cps_tw, mb, cps_mb, quartic))
        assert on == off

    def test_benchmark_boxes_at_both_tolerances(self, tw):
        # the boxes of the limit_graph benchmark's seeds 0-29, shifted as it
        # shifts them (up to 0.02 per edge), at its grid of 40
        for seed in range(30):
            box = np.asarray(DEFAULT_BOX) + np.random.default_rng(seed).uniform(-0.02, 0.02, size=(2, 2))
            cps = find_critical_points(tw, box, 40)
            on, off = _graph_bytes_at_both_tolerances(functools.partial(triple_well_graph, tw, cps, ham_M=100))
            assert on == off

    @pytest.mark.parametrize("case, outcome", [
        ("quartic-on-its-grid", "capture"), ("cubic", "escape"), ("cubic-with-a-nan-wall", "DomainError"),
        ("muller-brown-without-0", "budget"),
    ])
    def test_untrusted_landing_is_flown_again(self, case, outcome, mb, cps_mb, quartic, monkeypatch):
        # the quartic's critical points set at their exact places on the grid
        # -1, 0, 1: the maximum shoots along the axes into the saddles, which
        # keep the 1e-6 capture; off the cubic x^3 / 3 - x, whose saddle is -1, the branch
        # to the left escapes, or meets a NaN gradient left of -1.5; without
        # minimum 0, Muller-Brown's shot into its well stops at the step
        # budget, cut to 2,000 steps here.  The other shots land, and the graph's record of every
        # shot is that of the same shot flown once at RTOL, ATOL, steps kept
        if case.startswith("quartic"):
            p = quartic[0]
            grid = itertools.product((-1.0, 0.0, 1.0), repeat=2)
            cps = CriticalPointSet([classify_point(p, np.array(x)) for x in grid])
        elif case.startswith("cubic"):
            wall = case.endswith("wall")
            p = CustomPotential(
                1, lambda x: x[:, 0] ** 3 / 3.0 - x[:, 0], lambda x: np.where(wall & (x < -1.5), np.nan, x * x - 1.0)
            )
            cps = CriticalPointSet([classify_point(p, np.array([x])) for x in (1.0, -1.0)])
        else:
            p, cps = mb, CriticalPointSet(cps_mb.points[1:])
            monkeypatch.setattr(ompath.heteroclinic, "MAX_STEPS", 2000)
        outcomes, shoot = [], ompath.heteroclinic._shoot
        radii = landing_radii(p, cps)

        def logged(p, y0, cols, record=True, rtol=RTOL, atol=ATOL):
            land = rtol == LAND_RTOL
            try:
                shot = shoot(p, y0, cols, record, rtol, atol)
            except DomainError:
                outcomes.append(("DomainError", land))
                raise
            if 0 <= shot.event < len(cps):
                outcomes.append(("landed" if radii[shot.event] > CAPTURE else "capture", land))
            else:
                budget = shot.n >= ompath.heteroclinic.MAX_STEPS
                outcomes.append(("escape" if shot.event >= 0 else "budget" if budget else "stop", land))
            return shot

        def todays(p, cps, source, start, cols):
            return _shot_end(p, cps, shoot(p, start, cols))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ompath.heteroclinic, "_shoot", logged)
            got = json.dumps(build_transition_graph(p, cps, ham_M=400).to_dict())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ompath.heteroclinic, "_graph_end", todays)
            want = json.dumps(build_transition_graph(p, cps, ham_M=400).to_dict())
        assert got == want
        # each landing flight that did not land was flown again, and no other
        landings = [o for o, land in outcomes if land]
        assert (outcome, True) in outcomes and "landed" in landings
        assert len(outcomes) == 2 * len(landings) - landings.count("landed")


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
def saddle_orbit(tw, cps_tw, names_tw, graph_full):
    """The direct S1-S2 orbit behind graph_full's saddle-saddle edge: the graph
    keeps no orbit, so it is flowed again from the graph's side +1 start."""
    a, b, wp = _bent_pair(cps_tw, names_tw, +1)
    orbit = hamiltonian_connection_adaptive(tw, a, b, M=2000, waypoints=wp)
    (edge,) = [e for e in graph_full.edges if e.kind == "hamiltonian"]
    assert (orbit.j_value, orbit.kind, orbit.stabilised) == (edge.j_value, edge.kind, edge.stabilised)
    return orbit


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


@pytest.fixture
def flows(monkeypatch):
    """(cfg, trace) of every flow a connection runs, taken by wrapping the
    module attribute through which hamiltonian_connection calls minimize."""
    log = []
    original = ompath.heteroclinic.minimize

    def minimize(p, start, cfg):
        path, trace = original(p, start, cfg)
        log.append((cfg, trace))
        return path, trace

    monkeypatch.setattr(ompath.heteroclinic, "minimize", minimize)
    return log


def _bent_pair(cps, names, side):
    """S1, S2 and the waypoint build_transition_graph bends their start
    through on the given side of the chord."""
    a, b = cps[cps.nearest(names["S1"])[0]], cps[cps.nearest(names["S2"])[0]]
    chord = b.location - a.location
    perp = np.array([-chord[1], chord[0]]) / np.linalg.norm(chord)
    return a, b, [0.5 * (a.location + b.location) + 0.4 * side * perp]


def _restarting_adaptive(p, a, b, M, waypoints):
    """hamiltonian_connection_adaptive as it was when every stage started its
    flow at the step 1e-2: the orbit and the number of stages."""
    wp = [a.location] + [np.asarray(w, float) for w in waypoints] + [b.location]
    with pytest.MonkeyPatch.context() as mp:
        flow = ompath.heteroclinic.minimize
        mp.setattr(ompath.heteroclinic, "minimize", lambda p, x, cfg: flow(p, x, replace(cfg, tau0=1e-2)))
        T = 6.0
        orbit = hamiltonian_connection(p, a, b, DiscretePath.from_waypoints(wp, M, a=-T, b=T))
        for stages in range(2, 7):
            T *= 2.0
            nodes = interpolate(np.linspace(-T, T, M + 1), orbit.path.times, orbit.path.nodes)
            new = hamiltonian_connection(p, a, b, DiscretePath(nodes, a=-T, b=T))
            if abs(new.j_value - orbit.j_value) < 1e-4:
                return new, stages
            orbit = new
    return orbit, stages


class TestStepHandoff:
    @pytest.mark.parametrize("side", [1, -1])
    def test_every_stage_starts_at_the_step_cap(self, side, tw, cps_tw, names_tw, flows):
        a, b, wp = _bent_pair(cps_tw, names_tw, side)
        hamiltonian_connection_adaptive(tw, a, b, M=1000, waypoints=wp)
        assert len(flows) >= 2
        assert all(cfg.tau0 == TAU_MAX for cfg, _ in flows)

    @pytest.mark.parametrize("M", [1000, 4000])
    @pytest.mark.parametrize("side", [1, -1])
    def test_matches_the_restarting_loop(self, M, side, tw, cps_tw, names_tw, flows):
        a, b, wp = _bent_pair(cps_tw, names_tw, side)
        want, want_stages = _restarting_adaptive(tw, a, b, M, wp)
        del flows[:]
        got = hamiltonian_connection_adaptive(tw, a, b, M=M, waypoints=wp)
        assert len(flows) == want_stages
        assert got.kind == want.kind
        assert abs(got.j_value - want.j_value) <= 1e-12 * want.j_value
        assert np.max(np.abs(got.path.nodes - want.path.nodes)) <= 1e-6
        assert (got.path.a, got.path.b) == (want.path.a, want.path.b)

    def test_trials_per_stage_on_the_benchmark_pair(self, tw, cps_tw, names_tw, flows, monkeypatch):
        # the S1-S2 pair of triple_well_graph at 4000 nodes, tried on side +1
        # only; started at 1e-2, with the second stage at the first's last
        # accepted step, the trials were [89, 20] (accepted [84, 15])
        calls = []
        connect = ompath.heteroclinic.hamiltonian_connection

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return connect(*args, **kwargs)

        monkeypatch.setattr(ompath.heteroclinic, "hamiltonian_connection", counted)
        triple_well_graph(tw, cps_tw, ham_M=4000)
        assert [len(trace.accepted) for _, trace in flows] == [36, 15]
        assert [sum(trace.accepted) for _, trace in flows] == [29, 10]
        # each stage goes through the module attribute, with no keyword
        assert calls == [{}, {}]
        # side -1, which the graph does not try (so started: [71, 18], [70, 13])
        del flows[:], calls[:]
        a, b, wp = _bent_pair(cps_tw, names_tw, -1)
        hamiltonian_connection_adaptive(tw, a, b, M=4000, waypoints=wp)
        assert [len(trace.accepted) for _, trace in flows] == [30, 15]
        assert [sum(trace.accepted) for _, trace in flows] == [24, 10]
        assert calls == [{}, {}]

    def test_lone_connection_bytes_unchanged(self, tw, cps_tw, names_tw, flows):
        # recorded when the flow first started at the step cap
        a, b, _ = _bent_pair(cps_tw, names_tw, 1)
        mid = 0.5 * (a.location + b.location)
        start = DiscretePath.from_waypoints([a.location, mid + 0.28, b.location], 200, a=-6.0, b=6.0)
        orbit = hamiltonian_connection(tw, a, b, start)
        assert [cfg.tau0 for cfg, _ in flows] == [TAU_MAX]
        assert hashlib.sha1(orbit.path.nodes.tobytes()).hexdigest() == (
            "7c786888e2b5a0ec95ebcc5f566191976293dbb4"
        )
        assert orbit.j_value == 0.0775974550661649
        assert orbit.stabilised is None


class TestStabilised:
    def test_j_that_keeps_moving_is_not_stabilised(self, tw, cps_tw, names_tw, monkeypatch):
        # every stage's J is one above the last, so no doubling settles it
        a, b, wp = _bent_pair(cps_tw, names_tw, 1)
        start = DiscretePath.from_waypoints([a.location, *wp, b.location], 200, a=-6.0, b=6.0)
        template = hamiltonian_connection(tw, a, b, start)
        calls = []

        def moving(p, a, b, start):
            calls.append(start.b)
            return replace(template, path=start, j_value=float(len(calls)))

        monkeypatch.setattr(ompath.heteroclinic, "hamiltonian_connection", moving)
        orbit = hamiltonian_connection_adaptive(tw, a, b, M=200, waypoints=wp)
        assert calls == [6.0, 12.0, 24.0, 48.0, 96.0, 192.0]
        assert orbit.j_value == 6.0 and orbit.stabilised is False

    def test_triple_well_saddle_pair_is_stabilised(self, tw, saddle_orbit, graph_full):
        assert saddle_orbit.stabilised is True
        doc = json.loads(json.dumps(graph_full.to_dict()))
        for edge in doc["edges"]:
            if edge["kind"] == "hamiltonian":
                assert edge["stabilised"] is True
            else:
                assert "stabilised" not in edge
        assert all(o.stabilised is None for o in _gradient_orbits(tw, graph_full.cps))


def _shot_key(shots):
    return [(c.location.tobytes(), sign) for c, _, sign in shots]


class TestSaddleShotSigns:
    def test_largest_entry_is_negative(self, tw, cps_tw):
        for c in cps_tw:
            if c.index < 1:
                continue
            for _, eig_dir, _ in saddle_shots(tw, c):
                assert eig_dir[np.argmax(np.abs(eig_dir))] < 0.0

    def test_negated_eigenvectors_give_the_same_shots(self, tw, cps_tw, monkeypatch):
        saddles = [c for c in cps_tw if c.index >= 1]
        want = [saddle_shots(tw, c) for c in saddles]
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda h: (eigh(h)[0], -eigh(h)[1]))
        for c, shots in zip(saddles, want):
            got = saddle_shots(tw, c)
            assert _shot_key(got) == _shot_key(shots)
            for (_, d_got, _), (_, d_want, _) in zip(got, shots):
                assert d_got.tobytes() == d_want.tobytes()

    def test_saddle_moved_by_an_ulp_keeps_its_branches(self, tw, cps_tw, names_tw):
        # eigh's own sign for S2 flips under this one-ulp move
        s2 = cps_tw[cps_tw.nearest(names_tw["S2"])[0]]
        moved = classify_point(tw, s2.location + [0.0, np.spacing(s2.location[1])])
        for (_, d, sign), (_, d_moved, sign_moved) in zip(saddle_shots(tw, s2), saddle_shots(tw, moved)):
            assert sign == sign_moved
            np.testing.assert_allclose(d_moved, d, rtol=0.0, atol=1e-12)

    def test_plus_branches_of_both_saddles_reach_m0(self, tw, cps_tw, names_tw):
        for name in ("S1", "S2"):
            plus = saddle_shots(tw, cps_tw[cps_tw.nearest(names_tw[name])[0]])[0]
            (orbit,) = ompath.heteroclinic.gradient_shots(tw, cps_tw, [plus])
            assert np.linalg.norm(orbit.target.location) <= 1e-6


class TestExactGradientEdges:
    @pytest.mark.parametrize("landscape", ["triple-well", "double-well-1d"])
    def test_phi_is_the_potential_drop(self, landscape, tw, cps_tw, graph_full):
        p, cps, graph = (tw, cps_tw, graph_full) if landscape == "triple-well" else _dw_graph()
        pairs = [(e.i, e.j) for e in graph.edges if e.kind.startswith("gradient")]
        assert len(pairs) == (4 if landscape == "triple-well" else 2)
        for s, m in pairs:
            drop = cps[s].value - cps[m].value
            assert graph.phi[s, m] == graph.phi[m, s] == drop
        # each orbit keeps its own integrated action, which verify_orbit checks
        for o in _gradient_orbits(p, cps):
            assert o.j_value != o.source.value - o.target.value
            assert verify_orbit(p, o).passed


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
        # the set omits the well at -1, so the shot that descends to it (sign
        # +1: the saddle's eigenvector is signed (-1,)) reaches no critical
        # point of the set; it stops at T_MAX, and the message and the
        # diagnostics say where
        dw = DoubleWell1D()
        cps = CriticalPointSet([classify_point(dw, np.array([x])) for x in (0.0, 1.0)])
        graph = build_transition_graph(dw, cps)
        assert [(e.i, e.j) for e in graph.edges] == [(0, 1)]
        assert graph.failures == [{
            "from": 0,
            "mode": 0,
            "sign": 1,
            "error": "NotConvergedError",
            "message": (
                "gradient shot stopped at the time limit 2000, at x = [-0.9999999999641787], where"
                " |grad V| = 7.16e-11: a critical point outside the set, so search a wider box (--box)"
            ),
            "diagnostics": {"t_final": 2000.0, "x_final": [-0.9999999999641787]},
        }]
        doc = json.loads(json.dumps(graph.to_dict()))
        assert doc["failures"] == graph.failures

    @pytest.mark.parametrize("landscape, pair, sides", [
        ("inverted-1d", ([1.0], [-1.0]), 1),
        ("triple-well", ("S1", "S2"), 1),
        ("quartic", ([0.0, 1.0], [0.0, -1.0]), 2),
    ], ids=["inverted-1d-1", "triple-well-1", "quartic-2"])
    def test_pair_tried_once_per_side(self, landscape, pair, sides, tw, cps_tw, names_tw, quartic, monkeypatch):
        # in 2-D the start bends through mid + 0.4 perp, and through
        # mid - 0.4 perp too only when another point lies between the bends:
        # none does for S1-S2, the maximum at 0 does for the quartic's
        # (0, 1)-(0, -1).  In 1-D there is no side to bend to, and the one
        # straight start is tried once.  A pair runs from its later index to
        # its earlier one
        calls = []

        def no_connection(p, a, b, M, waypoints):
            calls.append((a, b, waypoints))
            raise NotConvergedError("no connection")

        monkeypatch.setattr(ompath.heteroclinic, "hamiltonian_connection_adaptive", no_connection)
        if landscape == "triple-well":
            p, cps = tw, cps_tw
            pair = [names_tw[name] for name in pair]
        elif landscape == "quartic":
            p, cps = quartic
        else:
            # V = -(x^2 - 1)^2 / 4: a saddle (a maximum) at each of +-1, a minimum at 0
            p = CustomPotential(1, lambda x: -((x[:, 0] ** 2 - 1.0) ** 2) / 4.0, lambda x: x * (1.0 - x * x))
            cps = CriticalPointSet([classify_point(p, np.array([x])) for x in (0.0, 1.0, -1.0)])
            assert [c.index for c in cps] == [0, 1, 1]
        j, i = sorted(cps.nearest(np.array(x))[0] for x in pair)
        graph = build_transition_graph(p, cps, ham_M=50)
        calls = [wp for a, b, wp in calls if a is cps[i] and b is cps[j]]
        if landscape.endswith("1d"):
            assert calls == [None]
        else:
            chord = cps[j].location - cps[i].location
            perp = np.array([-chord[1], chord[0]]) / np.linalg.norm(chord)
            mid = 0.5 * (cps[i].location + cps[j].location)
            assert len(calls) == sides
            for (wp,), side in zip(calls, (1, -1)):
                np.testing.assert_allclose(wp, mid + 0.4 * side * perp, atol=1e-15)
        assert [f for f in graph.failures if (f.get("from"), f.get("to")) == (i, j)] == [
            {"from": i, "to": j, "side": side, "error": "NotConvergedError", "message": "no connection"}
            for side in (1, -1)[:sides]
        ]

    def test_every_saddle_pair_is_an_edge_or_a_failure(self, quartic):
        # four index-1 saddles make six pairs; the maximum at 0 lies between
        # the bends of the two opposite pairs, which are tried on both sides.
        # No pair with a minimum or the maximum is tried
        q, cps = quartic
        assert [c.index for c in cps] == [0] * 4 + [1] * 4 + [2]
        saddles = [k for k, c in enumerate(cps) if c.index == 1]
        want = []
        for j, i in itertools.combinations(saddles, 2):
            want += [(i, j)] * (2 if np.allclose(cps[i].location, -cps[j].location) else 1)
        assert len(want) == 8
        graph = build_transition_graph(q, cps, ham_M=1000)
        tried = [(e.i, e.j) for e in graph.edges if e.kind == "hamiltonian"]
        tried += [(f["from"], f["to"]) for f in graph.failures if "to" in f]
        assert sorted(tried) == sorted(want)
        # at these settings each of the eight converges to a chain through a
        # minimum or the maximum (J 1.99962, EL residual 4e-8), whose energy
        # residual (2.49e-3) fails the residual checks: a chain, not a
        # non-convergence
        assert len(graph.failures) == 8
        assert {f["error"] for f in graph.failures} == {"ChainError"}
        assert all(f["message"].startswith("the orbit passes within ") for f in graph.failures)
        # each record keeps the failed flow's diagnostics
        for f in graph.failures:
            diag = f["diagnostics"]
            assert diag["flow_converged"] is True and diag["stop_reason"] == "gradient tolerance reached"
            assert diag["el_residual"] <= 1e-7 and 2.48e-3 <= diag["energy_residual"] <= 2.5e-3
            assert diag["final_objective"] == pytest.approx(1.99962, abs=1e-5)

    def test_chain_through_a_third_point_is_a_failure(self, tw, cps_tw, names_tw, monkeypatch):
        # a lone connection started at T = 24 passes every residual check, but
        # it is the chain S1 -> M0 -> S2 (J 4/27), 5e-8 from M0
        def lone_at_24(p, a, b, M, waypoints):
            start = DiscretePath.from_waypoints([a.location, *waypoints, b.location], M, a=-24.0, b=24.0)
            return hamiltonian_connection(p, a, b, start)

        i, j, m0 = (cps_tw.nearest(names_tw[k])[0] for k in ("S1", "S2", "M0"))
        a, b, wp = _bent_pair(cps_tw, names_tw, 1)
        chain = lone_at_24(tw, a, b, 1000, wp)
        assert chain.kind == "hamiltonian" and abs(chain.j_value - 2 * TWO27) <= 1e-5
        assert np.min(np.linalg.norm(chain.path.nodes - names_tw["M0"], axis=-1)) <= 1e-7

        monkeypatch.setattr(ompath.heteroclinic, "hamiltonian_connection_adaptive", lone_at_24)
        graph = build_transition_graph(tw, cps_tw, ham_M=1000)
        (failure,) = graph.failures
        assert (failure["from"], failure["to"], failure["side"], failure["error"]) == (i, j, 1, "ChainError")
        assert failure["message"].startswith("the orbit passes within 4.98e-08 of critical point ")
        assert f"critical point {m0} at" in failure["message"]
        assert [e.kind for e in graph.edges] == ["gradient-forward"] * 4
        assert len(_gradient_orbits(tw, cps_tw)) == 4
        # S1 to S2 then costs the chain's own edges, through M0
        assert graph.phi[i, j] == graph.phi[i, m0] + graph.phi[m0, j]

    def test_direct_saddle_orbit_is_no_chain(self, graph_full, names_tw, saddle_orbit):
        # it stays 0.439 from M0; the check's reach is a tenth of the least
        # distance between two critical points, 0.0577 on the triple well
        assert graph_full.failures == []
        assert np.min(np.linalg.norm(saddle_orbit.path.nodes - names_tw["M0"], axis=-1)) > 0.4

    def test_skipped_side_reaches_the_graph_orbit(self, tw, cps_tw, names_tw, saddle_orbit):
        # side -1 of S1-S2 lands on the orbit side +1 found: nothing is lost
        # by not trying it (measured: nodes 2.3e-12 apart, J bitwise equal)
        orbit = saddle_orbit
        a, b, wp = _bent_pair(cps_tw, names_tw, -1)
        other = hamiltonian_connection_adaptive(tw, a, b, M=2000, waypoints=wp)
        assert other.path.nodes.shape == orbit.path.nodes.shape
        assert np.max(np.abs(other.path.nodes - orbit.path.nodes)) <= 1e-6
        assert other.j_value >= orbit.j_value * (1.0 - 1e-12)

    def test_phi_bytes_equal_csgraph(self, graph_full):
        n = len(graph_full.cps)
        w = np.full((n, n), np.inf)
        np.fill_diagonal(w, 0.0)
        for e in graph_full.edges:
            w[e.i, e.j] = min(w[e.i, e.j], e.j_value)
            w[e.j, e.i] = min(w[e.j, e.i], e.j_value)
        cs = shortest_path(w, method="D", directed=False)
        assert graph_full.recompute_phi().tobytes() == np.minimum(cs, cs.T).tobytes()


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
        # csgraph's distances, the lesser of the two directions both ways
        cs = shortest_path(w, method="D", directed=False)
        assert shortest_paths(w).tobytes() == np.minimum(cs, cs.T).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(w=_weight_arrays())
    def test_symmetric_to_the_bit(self, w):
        d = shortest_paths(w)
        assert d.tobytes() == d.T.tobytes()

    def test_triple_well_phi_symmetric_to_the_bit(self, tw, cps_tw):
        # each distance summed from its source alone, Phi(M1, M2) read
        # 0.22574520185951485 and Phi(M2, M1) ...483 at 1,000 nodes
        phi = triple_well_graph(tw, cps_tw, ham_M=1000).phi
        assert phi.tobytes() == phi.T.tobytes()

    def test_no_edge_weights_leave_points_apart(self):
        w = np.array([[0.0, np.nan, 1.0], [np.nan, 0.0, 0.0], [1.0, 0.0, 0.0]])
        d = shortest_paths(w)
        assert d[0, 2] == d[2, 0] == 1.0
        assert np.isinf(d[0, 1]) and np.isinf(d[1, 2])

    def test_tiny_weight_is_an_edge(self):
        # where csgraph takes a dense weight within 1e-8 of zero for no edge
        w = np.array([[0.0, 1e-9], [1e-9, 0.0]])
        assert shortest_paths(w)[0, 1] == 1e-9

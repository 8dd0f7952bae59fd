"""Critical-point search, classification and admissibility checks."""

import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ompath import (
    CriticalPointSet,
    CustomPotential,
    DoubleWell1D,
    NoCriticalPointsError,
    Quadratic,
    TripleWell,
    check_admissibility,
    classify_point,
    find_critical_points,
)
from ompath import critical
from ompath.critical import (
    BAND,
    COND_TOL,
    MERGE_TOL,
    NEWTON_ITER,
    RESIDUAL_TOL,
    _distinct_in_box,
    _newton_batch,
    _newton_step,
)
from ompath.experiments import (
    DEFAULT_BOX,
    DEFAULT_GRID,
    TRIPLE_WELL_NAMED,
    critical_index,
    named_points,
    write_json,
)
from ompath.functionals import row_sumsq
from conftest import MB_BOX
from test_flow import CountingTripleWell
from test_heteroclinic import LoggingTripleWell

SQ2 = np.sqrt(2.0)
SADDLES = np.array(
    [
        [(2.0 - SQ2) / 6.0, (2.0 + SQ2) / 6.0],
        [(2.0 + SQ2) / 6.0, (2.0 - SQ2) / 6.0],
    ]
)
WELLS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


class TestTripleWellRecovery:
    def test_exactly_five_points(self, cps_tw):
        assert len(cps_tw) == 5
        assert sum(c.index == 0 for c in cps_tw) == 3
        assert sum(c.index == 1 for c in cps_tw) == 2

    def test_well_locations(self, cps_tw):
        for w in WELLS:
            _, d = cps_tw.nearest(w)
            assert d < 1e-8

    def test_saddle_locations_to_1e8(self, cps_tw):
        for s in SADDLES:
            i, d = cps_tw.nearest(s)
            assert np.all(np.abs(cps_tw[i].location - s) < 1e-8)

    def test_saddle_value(self, cps_tw):
        for s in SADDLES:
            i, _ = cps_tw.nearest(s)
            assert abs(cps_tw[i].value - 2.0 / 27.0) < 1e-10

    def test_laplacian_values(self, cps_tw):
        expected = {(0.0, 0.0): 4.0, (1.0, 0.0): 8.0, (0.0, 1.0): 8.0}
        for loc, lap in expected.items():
            i, _ = cps_tw.nearest(np.array(loc))
            assert abs(cps_tw[i].laplacian - lap) < 1e-8
        for s in SADDLES:
            i, _ = cps_tw.nearest(s)
            assert abs(cps_tw[i].laplacian) < 1e-8

    def test_residuals_tiny(self, cps_tw):
        assert all(c.residual <= 1e-10 for c in cps_tw)

    @pytest.mark.parametrize("seed", [100, 101, 4242])
    def test_shifted_box_numbers_points_as_the_default_box(self, tw, cps_tw, seed):
        # the box shift of the benchmark's limit_graph workload; from the boxes
        # of seeds 100 and 4242 M2's x1 lands at -8.0e-12 and -7.7e-13
        shift = np.random.default_rng(seed).uniform(-0.02, 0.02, size=(2, 2))
        cps = find_critical_points(tw, np.asarray(DEFAULT_BOX) + shift, DEFAULT_GRID)
        assert [c.index for c in cps] == [c.index for c in cps_tw]
        for c, ref in zip(cps, cps_tw):
            assert np.allclose(c.location, ref.location, rtol=0.0, atol=MERGE_TOL)


class TestOtherPotentials:
    def test_double_well_1d(self):
        cps = find_critical_points(DoubleWell1D(), [(-2.0, 2.0)], 20)
        locs = sorted(float(c.location[0]) for c in cps)
        np.testing.assert_allclose(locs, [-1.0, 0.0, 1.0], atol=1e-10)
        idx = {round(float(c.location[0])): c.index for c in cps}
        assert idx[-1] == 0 and idx[0] == 1 and idx[1] == 0

    def test_quadratic_single_minimum(self):
        cps = find_critical_points(Quadratic(2), ((-1, 1), (-1, 1)), 8)
        assert len(cps) == 1
        assert cps[0].index == 0
        np.testing.assert_allclose(cps[0].location, 0.0, atol=1e-12)

    def test_empty_box_raises(self, tw):
        with pytest.raises(NoCriticalPointsError):
            find_critical_points(tw, ((5.0, 6.0), (5.0, 6.0)), 5)

    def test_bad_box_rejected(self, tw):
        with pytest.raises(ValueError):
            find_critical_points(tw, ((1.0, -1.0), (0.0, 1.0)), 5)
        with pytest.raises(ValueError):
            find_critical_points(tw, ((0.0, 1.0),), 5)
        with pytest.raises(ValueError):
            find_critical_points(tw, ((-1.0, 1.0), (-1.0, 1.0)), 1)


def _distinct_in_box_per_seed(xs, converged, box):
    """The per-seed merge loop of find_critical_points before it became an
    array greedy, frozen as the oracle."""
    found = []
    for x, ok in zip(xs, converged):
        if not ok:
            continue
        if np.any(x < box[:, 0]) or np.any(x > box[:, 1]):
            continue
        if any(np.linalg.norm(x - y) <= MERGE_TOL for y in found):
            continue
        found.append(x)
    return found


def _seed_grid(box, grid):
    axes = [np.linspace(lo, hi, grid) for lo, hi in box]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(box))


_ORACLE_CASES = pytest.mark.parametrize(
    "p, box, grid",
    [
        (TripleWell(), ((-0.5, 1.5), (-0.5, 1.5)), 40),
        (DoubleWell1D(), ((-2.0, 2.0),), 20),
        (Quadratic(3), ((-1.0, 1.0),) * 3, 6),
    ],
    ids=["triple-well", "double-well-1d", "quadratic-3"],
)


def _awkward_seeds(p, box, grid, rng):
    """Newton's end points from a seed grid, plus exact and near duplicates
    (inside and outside MERGE_TOL, and a chain whose third link is further
    than MERGE_TOL from the first), points on and beyond the box, and
    converged flags turned off, in shuffled order."""
    xs, converged = _newton_batch(p, _seed_grid(box, grid))
    base = xs[converged][:: max(1, int(converged.sum()) // 20)]
    unit = rng.standard_normal(base.shape)
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
    extra = [base.copy()]
    for r in (1e-9, 0.5 * MERGE_TOL, 0.8 * MERGE_TOL, 1.6 * MERGE_TOL, 3.0 * MERGE_TOL):
        extra.append(base + r * unit)
    edge = base.copy()
    edge[:, 0] = box[0, 1]
    beyond = base.copy()
    beyond[::2, -1] = box[-1, 0] - 0.1
    beyond[1::2, -1] = box[-1, 1] + 0.1
    xs = np.concatenate([xs, *extra, edge, beyond])
    converged = np.concatenate([converged, np.ones(len(xs) - len(converged), dtype=bool)])
    converged[rng.random(len(xs)) < 0.1] = False
    order = rng.permutation(len(xs))
    return xs[order], converged[order]


class TestMergeOracle:
    @_ORACLE_CASES
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_array_greedy_matches_per_seed_loop(self, p, box, grid, seed):
        box = np.asarray(box, dtype=float)
        xs, converged = _awkward_seeds(p, box, grid, np.random.default_rng(seed))
        want = _distinct_in_box_per_seed(xs, converged, box)
        got = _distinct_in_box(xs, converged, box)
        assert len(want) > 1
        assert np.array(got).tobytes() == np.array(want).tobytes()


def _pinv_step(H, g):
    """The Newton step of _newton_batch before it solved well-conditioned rows
    by LU: the pseudo-inverse on every row."""
    return -np.einsum("kij,kj->ki", np.linalg.pinv(H), g)


def _newton_batch_loop(p, seeds, step_rule=_pinv_step):
    """_newton_batch before its two batched backtracking rounds: one gradient
    call per halving of t, at most 40, on every active seed; frozen as the
    oracle, with the pseudo-inverse step unless told otherwise."""
    x = np.array(seeds, dtype=float)
    g = p.gradient(x)
    phi = row_sumsq(g)
    alive = np.ones(len(x), dtype=bool)
    for _ in range(NEWTON_ITER):
        active = alive & (np.sqrt(phi) > RESIDUAL_TOL)
        if not np.any(active):
            break
        H = p.hessian(x[active])
        step = step_rule(H, g[active])
        bad = ~np.all(np.isfinite(step), axis=-1)
        t = np.ones(step.shape[0])
        done = bad.copy()
        xa, ga, pa = x[active].copy(), g[active].copy(), phi[active].copy()
        for _ in range(40):
            if np.all(done):
                break
            trial = xa + t[:, None] * step
            gt = p.gradient(trial)
            pt = row_sumsq(gt)
            ok = ~done & np.isfinite(pt) & (pt <= pa * (1.0 - 1e-4 * t))
            xa[ok], ga[ok], pa[ok] = trial[ok], gt[ok], pt[ok]
            done |= ok
            t[~done] *= 0.5
        idx = np.flatnonzero(active)
        alive[idx[~done]] = False
        moved = idx[done]
        x[moved], g[moved], phi[moved] = xa[done], ga[done], pa[done]
    converged = alive & (np.sqrt(phi) <= RESIDUAL_TOL)
    return x, converged


def _shifted(box, seed):
    """The box with each edge moved by up to 0.02, so each seed gives new grid seeds."""
    box = np.asarray(box, dtype=float)
    return box + np.random.default_rng(seed).uniform(-0.02, 0.02, size=box.shape)


class TestNewtonOracle:
    @_ORACLE_CASES
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_pseudo_inverse_loop(self, p, box, grid, seed, monkeypatch):
        box = _shifted(box, seed)
        seeds = _seed_grid(box, grid)
        want_x, want_ok = _newton_batch_loop(p, seeds)
        got_x, got_ok = _newton_batch(p, seeds)
        assert np.array_equal(got_ok, want_ok) and np.any(got_ok)
        gap = np.abs(got_x - want_x)[got_ok]
        assert np.all(gap <= 1e-13 * (1.0 + np.abs(want_x[got_ok])))

        got = find_critical_points(p, box, grid)
        monkeypatch.setattr(critical, "_newton_batch", _newton_batch_loop)
        want = find_critical_points(p, box, grid)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.all(np.abs(a.location - b.location) <= 1e-15 * (1.0 + np.abs(b.location)))

    @_ORACLE_CASES
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_two_rounds_equal_the_halving_loop(self, p, box, grid, seed):
        seeds = _seed_grid(_shifted(box, seed), grid)
        want_x, want_ok = _newton_batch_loop(p, seeds, _newton_step)
        got_x, got_ok = _newton_batch(p, seeds)
        assert got_x.tobytes() == want_x.tobytes()
        assert got_ok.tobytes() == want_ok.tobytes()

    def test_near_singular_rows_take_the_pseudo_inverse(self):
        H = np.array([[[1.0, 2.0], [2.0, 4.0]], [[1.0, 0.0], [0.0, 1e-20]], [[2.0, 1.0], [1.0, 3.0]]])
        g = np.array([[0.3, -0.7], [0.5, 0.25], [-1.5, 0.75]])
        got, want = _newton_step(H, g), _pinv_step(H, g)
        assert got[:2].tobytes() == want[:2].tobytes()
        np.testing.assert_allclose(got[2], want[2], rtol=1e-12, atol=0.0)

    def test_huge_box_is_searched_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cps = find_critical_points(TripleWell(), ((-1e60, 1e60),) * 2, 5)
        assert len(cps) == 1 and cps[0].location.tolist() == [0.0, 0.0]

    def test_box_near_the_largest_float_is_searched_without_warnings(self):
        # Hessians near 1e308 have a determinant of inf - inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cps = find_critical_points(TripleWell(), ((0.0, 1e308),) * 2, 3)
        assert len(cps) == 1 and cps[0].location.tolist() == [0.0, 0.0]

    @pytest.mark.parametrize(
        "box",
        [((np.nan, 1.0),) * 2, ((-np.inf, 1.0),) * 2, ((0.0, 1.0), (0.0, np.inf)), ((-1e308, 1e308),) * 2],
        ids=["nan", "minus-inf", "inf", "width-overflows"],
    )
    def test_non_finite_box_rejected_before_any_evaluation(self, box):
        p = CountingTripleWell()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="box edges and widths must be finite"):
                find_critical_points(p, box, 3)
        assert not any(p.calls.values())


def _det_lu(H):
    """The LU rows by the determinant and the Frobenius norm."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.abs(np.linalg.det(H)) > COND_TOL * np.linalg.norm(H, axis=(1, 2)) ** H.shape[-1]


def _det_step(H, g):
    """_newton_step before it decided 2 x 2 rows from their entries: the
    determinant and the Frobenius norm of every row, and masked copies even
    when every row is solved by LU; frozen as the oracle."""
    lu = _det_lu(H)
    step = np.empty_like(g)
    step[lu] = -np.linalg.solve(H[lu], g[lu, :, None])[..., 0]
    if not np.all(lu):
        step[~lu] = -np.einsum("kij,kj->ki", np.linalg.pinv(H[~lu]), g[~lu])
    return step


def _at_threshold(rng, ratio, symmetric):
    """A 2 x 2 matrix with random h00, h01, h10 (h10 = h01 if symmetric) and
    h11 the root of h00 h11 - h01 h10 = ratio |H|_F^2 nearest 0."""
    h00, h01, h10 = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]), rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
    if symmetric:
        h10 = h01
    c = ratio * (h00 * h00 + h01 * h01 + h10 * h10) + h01 * h10
    h11 = 2.0 * c / (h00 + np.copysign(np.sqrt(h00 * h00 - 4.0 * ratio * c), h00))
    return np.array([[h00, h01], [h10, h11]])


def _assert_steps_equal(H, g):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _newton_step(H, g)
    with np.errstate(over="ignore", invalid="ignore"):
        want = _det_step(H, g)
    assert got.tobytes() == want.tobytes()


# the box shift of the benchmark's limit_graph workload (perfbench/workloads.py)
BOX_SHIFT = 0.02


class TestNewtonStepFromEntries:
    """The 2 x 2 branch decided from the entries is the determinant's, bit for bit."""

    @pytest.mark.parametrize("scale", [1.0, 1e-155, 1e150, 1e160], ids=["unit", "tiny", "large", "squares-overflow"])
    def test_rows_straddling_the_threshold(self, scale):
        # |det| / |H|_F^2 = 1e-8 (1 +- 2^-k) for k = 20 ... 52, both signs of
        # det, general and symmetric; the rounding of h11 blurs k > 26
        rng = np.random.default_rng(7)
        H = np.array([
            _at_threshold(rng, sign * COND_TOL * (1.0 + side * 2.0**-k), symmetric)
            for k in range(20, 53)
            for sign in (1.0, -1.0)
            for side in (1.0, -1.0)
            for symmetric in (False, True)
        ]) * scale
        g = rng.standard_normal((len(H), 2)) * scale
        lu = _det_lu(H)
        if scale < 1e154:
            assert np.any(lu) and not np.all(lu)
        else:  # |H|_F^2 overflows, and the threshold with it
            assert not np.any(lu)
        if scale == 1.0:
            # both ways of deciding are exercised: from the entries, and by the determinant
            h00, h01, h10, h11 = H.reshape(-1, 4).T
            fro2 = h00**2 + h01**2 + h10**2 + h11**2
            near = np.abs(np.abs(h00 * h11 - h01 * h10) - COND_TOL * fro2) <= BAND * fro2
            assert np.any(near) and not np.all(near)
        _assert_steps_equal(H, g)

    def test_singular_zero_infinite_and_huge_rows(self):
        H = np.array([
            [[1.0, 2.0], [2.0, 4.0]],
            [[1.0, 0.0], [0.0, 0.0]],
            [[1.0, 0.0], [0.0, 1e-20]],
            [[0.0, 0.0], [0.0, 0.0]],
            [[-0.0, 0.0], [0.0, -0.0]],
            [[5e-324, 0.0], [0.0, 5e-324]],
            [[np.inf, 1.0], [1.0, 1.0]],
            [[-np.inf, 1.0], [1.0, 2.0]],
            [[1.0, np.inf], [np.inf, 1.0]],
            [[1e200, 3e199], [3e199, 2e200]],
            [[1e200, 1e200], [1e200, 1e200]],
            [[-1e200, 2e199], [2e199, 1e200]],
            [[1e308, 1e308], [1e308, -1e308]],
            [[2.0, 1.0], [1.0, 3.0]],
        ])
        g = np.array([[0.3, -0.7], [0.5, 0.25], [1e200, -1e200], [np.nan, 1.0], [np.inf, -np.inf]] * 3)[: len(H)]
        _assert_steps_equal(H, g)
        # every row alone, and the LU rows as a batch of their own
        for k in range(len(H)):
            _assert_steps_equal(H[k : k + 1], g[k : k + 1])
        lu = _det_lu(H)
        _assert_steps_equal(H[lu], g[lu])

    def test_nan_rows(self):
        # a NaN Hessian takes the pseudo-inverse, whose SVD fails either way;
        # a NaN gradient goes through the solve
        H = np.array([[[np.nan, 1.0], [1.0, 2.0]], [[2.0, 1.0], [1.0, 3.0]]])
        g = np.array([[1.0, 2.0], [np.nan, 1.0]])
        for rule in (_newton_step, _det_step):
            with pytest.raises(np.linalg.LinAlgError):
                rule(H, g)
        _assert_steps_equal(H[1:], g[1:])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_symmetric_rows(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((2000, 2, 2)) * 10.0 ** rng.uniform(-100, 100, size=(2000, 1, 1))
        H = a + a.swapaxes(1, 2)
        _assert_steps_equal(H, rng.standard_normal((2000, 2)))

    def test_three_dimensions_keep_the_determinant(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((500, 3, 3))
        H = a + a.swapaxes(1, 2)
        H[::5, 2] = H[::5, 0] + H[::5, 1]  # singular rows
        H[::5, :, 2] = H[::5, :, 0] + H[::5, :, 1]
        _assert_steps_equal(H, rng.standard_normal((500, 3)))


def _shifted_tw(seed):
    rng = np.random.default_rng(seed)
    return TripleWell(), np.asarray(DEFAULT_BOX) + rng.uniform(-BOX_SHIFT, BOX_SHIFT, size=(2, 2)), DEFAULT_GRID


class TestNewtonBatchOracle:
    """_newton_batch equals the one-halving-per-round loop with the determinant step."""

    @staticmethod
    def _assert_equal_to_the_loop(p, box, grid):
        seeds = _seed_grid(np.asarray(box, dtype=float), grid)
        with np.errstate(over="ignore", invalid="ignore"):
            want_x, want_ok = _newton_batch_loop(p, seeds, _det_step)
        got_x, got_ok = _newton_batch(p, seeds)
        assert got_x.tobytes() == want_x.tobytes()
        assert got_ok.tobytes() == want_ok.tobytes()
        return got_ok

    @_ORACLE_CASES
    def test_oracle_cases(self, p, box, grid):
        assert np.any(self._assert_equal_to_the_loop(p, box, grid))

    def test_muller_brown(self, mb):
        assert np.any(self._assert_equal_to_the_loop(mb, MB_BOX, 30))

    @pytest.mark.parametrize("seed", range(100, 110))
    def test_shifted_benchmark_boxes(self, seed):
        assert np.any(self._assert_equal_to_the_loop(*_shifted_tw(seed)))

    @pytest.mark.parametrize(
        "box, grid, converged",
        [(((-50.0, 50.0),) * 2, 30, 900), (((-1e20, 1e20),) * 2, 17, 1), (((0.0, 1e308),) * 2, 3, 1)],
        ids=["50", "1e20", "1e308"],
    )
    def test_far_and_divergent_seeds(self, box, grid, converged):
        # far seeds backtrack often; beyond about 1e20 every seed but the
        # origin overflows and is abandoned
        assert np.sum(self._assert_equal_to_the_loop(TripleWell(), box, grid)) == converged


class TestNewtonWork:
    def test_three_backtracking_rounds(self, monkeypatch):
        # one Newton iteration on the benchmark's grid: t = 1 on every active
        # seed, t = 1/2 on those it rejects, and the other 38 t on the rest
        tw, box, grid = _shifted_tw(100)
        seeds = _seed_grid(box, grid)
        g = tw.gradient(seeds)
        phi = row_sumsq(g)
        active = np.sqrt(phi) > RESIDUAL_TOL
        x, g, phi = seeds[active], g[active], phi[active]
        step = _det_step(tw.hessian(x), g)
        assert np.all(np.isfinite(step))

        def rejects(t):
            pt = row_sumsq(tw.gradient(x + t * step))
            return ~(np.isfinite(pt) & (pt <= phi * (1.0 - 1e-4 * t)))

        n_active, n_rej1 = len(x), int(np.sum(rejects(1.0)))
        n_rej2 = int(np.sum(rejects(1.0) & rejects(0.5)))
        assert 0 < n_rej2 < n_rej1 < n_active

        p = LoggingTripleWell()
        monkeypatch.setattr(critical, "NEWTON_ITER", 1)
        _newton_batch(p, seeds)
        assert p.log == [
            ("gradient", len(seeds)),
            ("hessian", n_active),
            ("gradient", n_active),
            ("gradient", n_rej1),
            ("gradient", 38 * n_rej2),
        ]
        # the two-round search tried all 39 other t on every seed t = 1 rejects
        assert sum(k for _, k in p.log[2:]) == n_active + n_rej1 + 38 * n_rej2 < n_active + 39 * n_rej1


class TestClassification:
    def test_classify_saddle(self, tw):
        c = classify_point(tw, SADDLES[1])
        assert c.index == 1
        assert c.eigenvalues[0] < 0 < c.eigenvalues[1]

    def test_classify_minimum(self, tw):
        c = classify_point(tw, np.array([0.0, 0.0]))
        assert c.index == 0 and np.all(c.eigenvalues > 0)


class TestAdmissibility:
    def test_triple_well_admissible(self, tw, cps_tw):
        rep = check_admissibility(tw, cps_tw, 3.0)
        assert rep.admissible
        assert rep.min_abs_eigenvalue > 1.0  # nondegenerate spectrum
        assert rep.coercivity_inf > 1.0  # |grad V| grows like |x|^5

    def test_needs_points(self, tw):
        with pytest.raises(ValueError):
            check_admissibility(tw, CriticalPointSet([]), 3.0)

    @pytest.mark.parametrize("radius", [np.nan, np.inf, 0.0, -3.0])
    def test_radius_must_be_positive_and_finite(self, cps_tw, radius):
        p = CountingTripleWell()
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            check_admissibility(p, cps_tw, radius)
        assert p.calls["gradient"] == 0

    def test_sample_point_beyond_the_floats_is_refused(self):
        # |grad V| = |tanh x| <= 1 is finite on the sphere of radius 1e308,
        # but the sphere of radius 2e308 is no float: nothing is evaluated there
        p = CustomPotential(1, lambda x: np.log(np.cosh(x[:, 0])), np.tanh)
        cps = CriticalPointSet([classify_point(p, np.array([0.0]))])
        want = "radius 1e+308 cannot be checked: a point or |grad V| sampled at radius inf is not finite"
        with pytest.raises(ValueError, match=re.escape(want)):
            check_admissibility(p, cps, 1e308)


class TestNamedPoints:
    def test_coordinates_without_kernel_calls(self):
        p = CountingTripleWell()
        names = named_points(p)
        assert all(n == 0 for n in p.calls.values())
        assert list(names) == list(TRIPLE_WELL_NAMED)
        for k, v in TRIPLE_WELL_NAMED.items():
            assert names[k].tobytes() == np.array(v).tobytes()

    @pytest.mark.parametrize(
        "p, names",
        [
            (DoubleWell1D(), ["Mminus", "S", "Mplus"]),
            (CustomPotential(1, lambda x: 0.5 * np.sum(x * x, axis=1), lambda x: x), []),
            (Quadratic(1), []),
        ],
        ids=["double-well-1d", "custom-1d", "quadratic-1d"],
    )
    def test_names_come_from_the_class(self, p, names):
        assert list(named_points(p)) == names

    def test_lookup_is_checked(self, tw, cps_tw):
        m0 = critical_index(cps_tw, "M0", tw)
        assert np.linalg.norm(cps_tw[m0].location) <= 1e-6
        without_m0 = CriticalPointSet([c for i, c in enumerate(cps_tw) if i != m0])
        with pytest.raises(ValueError, match="not a critical point"):
            critical_index(without_m0, "M0", tw)


# coordinates of any kind, the non-finite ones drawn often
_COORDS = st.one_of(st.sampled_from([np.nan, np.inf, -np.inf]), st.floats())


class TestCriticalIndex:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_token_names_a_critical_point_or_raises(self, tw, cps_tw, data):
        kind = data.draw(st.sampled_from(["name", "near", "coordinates", "word"]))
        if kind == "name":
            token = data.draw(st.sampled_from(sorted(TRIPLE_WELL_NAMED)))
            x = np.array(TRIPLE_WELL_NAMED[token])
        elif kind == "near":
            # within 1e-6 of a critical point: |offset| < sqrt(2) * 7e-7
            k = data.draw(st.integers(0, len(cps_tw) - 1))
            offset = data.draw(st.lists(st.floats(-7e-7, 7e-7), min_size=2, max_size=2))
            x = cps_tw[k].location + np.array(offset)
            token = ",".join(repr(float(v)) for v in x)
        elif kind == "coordinates":
            x = np.array(data.draw(st.lists(_COORDS, min_size=2, max_size=2)))
            token = ",".join(repr(float(v)) for v in x)
        else:
            # no name, and without a comma no point of the plane: "M3", "nan", "1e0"
            words = st.text("MSabnfi0123e.", min_size=1, max_size=4)
            token = data.draw(words.filter(lambda t: t not in TRIPLE_WELL_NAMED))
            x = np.full(2, np.nan)
        # a distance to a point near the largest floats overflows to inf
        with np.errstate(over="ignore"):
            close = [i for i, c in enumerate(cps_tw) if np.linalg.norm(c.location - x) <= 1e-6]
            assert len(close) <= 1 and (kind != "near" or close == [k])
            if close:
                assert critical_index(cps_tw, token, tw) == close[0]
            else:
                with pytest.raises(ValueError):
                    critical_index(cps_tw, token, tw)


class TestSerialization:
    def test_json_roundtrip(self, cps_tw, tmp_path):
        target = write_json(tmp_path, "critical_points.json", [c.to_dict() for c in cps_tw])
        with open(target) as f:
            back = json.load(f)
        # every field comes back, floats bitwise
        assert back == [c.to_dict() for c in cps_tw]

    def test_nearest(self, cps_tw):
        i, d = cps_tw.nearest(np.array([0.05, 0.0]))
        np.testing.assert_allclose(cps_tw[i].location, [0.0, 0.0], atol=1e-10)
        assert abs(d - 0.05) < 1e-12

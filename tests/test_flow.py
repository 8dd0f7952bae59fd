"""Descent flow: monotonicity, pinning, convergence and the annealing driver."""

import dataclasses
import hashlib
import warnings
from array import array
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ompath import (
    DiscretePath,
    FlowConfig,
    FlowTrace,
    NonFiniteObjectiveError,
    Quadratic,
    TripleWell,
    continuation_minimize,
    eval_objective,
    grad_objective,
    minimize,
)
from ompath import flow
from ompath.experiments import figure_routes, run_minimization
from ompath.flow import GROW, SHRINK, TAU_MAX, solveh_banded


def _diffs_nonincreasing(values):
    return all(b <= a + 1e-14 for a, b in zip(values, values[1:]))


class TestMonotonicity:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=1000),
        objective=st.sampled_from(["I", "J"]),
    )
    def test_accepted_objectives_never_increase(self, seed, objective):
        tw = TripleWell()
        rng = np.random.default_rng(seed)
        path = DiscretePath(rng.uniform(-0.3, 1.2, size=(13, 2)))
        cfg = FlowConfig(objective=objective, eps=0.05, grad_tol=1e-8, max_iter=60)
        _, trace = minimize(tw, path, cfg)
        assert _diffs_nonincreasing(trace.accepted_objectives)

    def test_final_below_start(self, tw):
        path = DiscretePath.from_waypoints([[0.0, 0.0], [0.6, 0.6], [1.0, 0.0]], 40)
        cfg = FlowConfig(objective="J", eps=0.05, max_iter=200)
        out, trace = minimize(tw, path, cfg)
        assert trace.final_objective <= eval_objective(tw, path, 0.05, "J")[0]


class TestPinnedEndpoints:
    def test_endpoints_bitwise_unchanged(self, tw):
        a = np.array([0.123456789012345, -0.3])
        b = np.array([1.0, 0.987654321098765])
        path = DiscretePath.from_waypoints([a, b], 30)
        out, _ = minimize(tw, path, FlowConfig(objective="I", eps=0.05, max_iter=50))
        assert out.nodes[0].tobytes() == a.tobytes()
        assert out.nodes[-1].tobytes() == b.tobytes()


class TestConvergence:
    def test_quadratic_settles_to_sagging_chain(self):
        # in V = |x|^2/2 the stationarity system is linear; the flow must hit
        # the gradient tolerance and the result solves it to that tolerance
        q = Quadratic(2)
        path = DiscretePath.from_waypoints([[1.0, 0.0], [0.0, 1.0]], 20)
        cfg = FlowConfig(objective="J", eps=1.0, grad_tol=1e-10, max_iter=5000)
        out, trace = minimize(q, path, cfg)
        assert trace.converged
        assert trace.stop_reason == "gradient tolerance reached"
        from ompath import grad_objective

        g = grad_objective(q, out, 1.0, "J")
        assert np.linalg.norm(g) / np.sqrt(out.h) <= 1e-10

    def test_swap_symmetry_preserved(self, tw, names_tw):
        # start symmetric under (x1,x2)-swap + time reversal; the flow is
        # equivariant, so the minimizer keeps the symmetry
        s1, s2 = names_tw["S1"], names_tw["S2"]
        path = DiscretePath.from_waypoints([s1, [0.5, 0.5], s2], 100)
        cfg = FlowConfig(objective="J", eps=1e-2, grad_tol=1e-8, max_iter=500)
        out, _ = minimize(tw, path, cfg)
        mirrored = out.nodes[::-1, ::-1]
        np.testing.assert_allclose(out.nodes, mirrored, atol=1e-9)

    def test_stepsize_capped(self):
        # steps grow from tau0 = 500 until they reach the cap, never past it
        path = DiscretePath.from_waypoints([[1.0, 0.0], [0.0, 1.0]], 10)
        cfg = FlowConfig(objective="J", eps=1.0, tau0=500.0, grad_tol=1e-30, max_iter=100)
        _, trace = minimize(Quadratic(2), path, cfg)
        assert max(trace.steps) == TAU_MAX


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ValueError):
            FlowConfig(objective="X")
        with pytest.raises(ValueError):
            FlowConfig(eps=0.0)
        with pytest.raises(ValueError):
            FlowConfig(tau0=-1.0)

    @pytest.mark.parametrize("field", ["eps", "tau0"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_nonfinite_temperature_or_step(self, field, value):
        # a NaN passes "<= 0" and would run a flow of NaN objectives
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            FlowConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value", [("max_iter", -5), ("grad_tol", -1e-6), ("grad_tol", float("nan"))]
    )
    def test_negative_budget_or_tolerance(self, field, value):
        # a negative budget would stop at once as "max iterations reached"
        with pytest.raises(ValueError, match=f"{field} must be >= 0"):
            FlowConfig(**{field: value})

    @pytest.mark.parametrize("jitter", [-0.5, float("nan")])
    def test_negative_jitter(self, tw, names_tw, jitter):
        # rejected, not run without jitter
        with pytest.raises(ValueError, match="jitter must be >= 0"):
            run_minimization(tw, [names_tw["M1"], names_tw["M2"]], 10, 0.1, "J", jitter=jitter)

    def test_too_few_intervals(self, tw):
        path = DiscretePath(np.zeros((3, 2)))  # M = 2
        with pytest.raises(ValueError):
            minimize(tw, path, FlowConfig())


class NaNHessianTripleWell(TripleWell):
    """TripleWell whose H·v holds a NaN from its 4th call on."""

    def __init__(self):
        self.calls = 0

    def hessian_vector(self, x, v):
        self.calls += 1
        out = super().hessian_vector(x, v)
        if self.calls >= 4:
            out[len(out) // 2, 0] = np.nan
        return out


class TestNonFinite:
    def test_overflowing_start_raises(self, tw):
        nodes = np.full((9, 2), 1e80)
        nodes[0] = nodes[-1] = 0.0
        with np.errstate(over="ignore"), pytest.raises(NonFiniteObjectiveError):
            minimize(tw, DiscretePath(nodes), FlowConfig(max_iter=5))

    def test_overflow_through_a_path_raises_its_own_class(self, tw):
        # |grad V|^2 overflows at (1e40, 1e40); under warnings as errors the
        # overflow warning would otherwise be raised in place of the error
        path = DiscretePath.from_waypoints([[1.0, 0.0], [1e40, 1e40], [0.0, 1.0]], 50)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonFiniteObjectiveError, match="at the starting path"):
                minimize(tw, path, FlowConfig())

    def test_nonfinite_gradient_raises(self):
        # a NaN in the action gradient is a numerical failure, not a bad input
        # to the banded solve
        p = NaNHessianTripleWell()
        path = DiscretePath.from_waypoints([[0.0, 0.0], [0.6, 0.6], [1.0, 0.0]], 40)
        with pytest.raises(NonFiniteObjectiveError, match="gradient non-finite at iteration 4"):
            minimize(p, path, FlowConfig(objective="J", eps=0.05, max_iter=50))
        assert p.calls == 4


class TestTrace:
    def test_csv_schema(self, tw):
        path = DiscretePath.from_waypoints([[0.0, 0.0], [1.0, 0.0]], 10)
        _, trace = minimize(tw, path, FlowConfig(objective="J", eps=0.1, max_iter=20))
        lines = trace.to_csv().splitlines()
        assert lines[0] == "iteration,objective,step,gradnorm,accepted"
        assert len(lines) >= 2
        assert all(len(line.split(",")) == 5 for line in lines[1:])

    def test_numpy_float_interval_ends(self, tw):
        # ends of type np.float64 make the objective one too, and each trial's
        # obj_new <= obj a numpy.bool: the trace stores it as 0 or 1 all the same
        runs = []
        for a, b in ((-1.0, 1.0), (np.float64(-1.0), np.float64(1.0))):
            path = DiscretePath.from_waypoints([[0.0, 0.0], [0.6, 0.6], [1.0, 0.0]], 20, a=a, b=b)
            runs.append(minimize(tw, path, FlowConfig(objective="J", eps=1.0, max_iter=5)))
        (out_f, trace_f), (out_np, trace_np) = runs
        assert type(out_np.a) is np.float64 and type(out_f.a) is float
        assert out_np.nodes.tobytes() == out_f.nodes.tobytes()
        for field in ("iterations", "objectives", "steps", "grad_norms", "accepted"):
            assert getattr(trace_np, field) == getattr(trace_f, field)
        assert len(trace_f.accepted) >= 5
        assert (trace_np.converged, trace_np.stop_reason) == (trace_f.converged, trace_f.stop_reason)


    def test_storage_and_csv(self):
        trace = FlowTrace()
        trace.record(1, 0.1, 1e-3, 2.0, True)
        trace.record(2, 0.2, 1.2e-3, 1.5, False)
        trace.record(2, 0.0625, 6e-4, 1.5, True)
        assert trace.to_csv() == (
            "iteration,objective,step,gradnorm,accepted\r\n"
            "1,0.10000000000000001,0.001,2,1\r\n"
            "2,0.20000000000000001,0.0012,1.5,0\r\n"
            "2,0.0625,0.0006,1.5,1\r\n"
        )
        assert trace.accepted_objectives == [0.1, 0.0625]
        assert trace.final_objective == 0.0625
        n_accepted = sum(trace.accepted)
        assert type(n_accepted) is int and n_accepted == 2
        trace.objectives[1] = 0.05
        assert trace.to_csv().splitlines()[2] == "2,0.050000000000000003,0.0012,1.5,0"


class CountingTripleWell(TripleWell):
    """Delegates every kernel to a TripleWell and counts the calls."""

    def __init__(self):
        self.inner = TripleWell()
        self.calls = dict.fromkeys(("gradient", "hessian", "laplacian", "grad_laplacian"), 0)

    def value(self, x):
        return self.inner.value(x)

    def _count(self, name, x):
        self.calls[name] += 1
        return getattr(self.inner, name)(x)

    def gradient(self, x):
        return self._count("gradient", x)

    def hessian(self, x):
        return self._count("hessian", x)

    def laplacian(self, x):
        return self._count("laplacian", x)

    def grad_laplacian(self, x):
        return self._count("grad_laplacian", x)


class TestWorkPerStep:
    def test_j_flow_kernel_calls(self):
        # one gradient per trial plus one at the start; H·g never builds the
        # Hessian and J never needs the Laplacian
        p = CountingTripleWell()
        path = DiscretePath.from_waypoints([[0.0, 0.0], [0.6, 0.6], [1.0, 0.0]], 40)
        cfg = FlowConfig(objective="J", eps=0.05, tau0=1.0, max_iter=30)
        out, trace = minimize(p, path, cfg)
        trials = len(trace.accepted)
        assert trials > 30  # some trials were rejected
        assert p.calls == {"gradient": trials + 1, "hessian": 0, "laplacian": 0, "grad_laplacian": 0}
        plain, _ = minimize(TripleWell(), path, cfg)
        assert out.nodes.tobytes() == plain.nodes.tobytes()


class RowMajorTripleWell(TripleWell):
    """TripleWell whose H·v comes back row-major, as it did before every (K, 2)
    kernel result went column-major: same values, other layout."""

    def hessian_vector(self, x, v):
        return np.ascontiguousarray(super().hessian_vector(x, v))


class TestGradNormLayout:
    def test_column_major_kernel_gives_the_same_norms(self, names_tw):
        # the recorded gradient norm sums in one order whatever the memory
        # layout the potential hands back
        s1, s2 = names_tw["S1"], names_tw["S2"]
        path = DiscretePath.from_waypoints([s1, [0.5, 0.5], s2], 4000)
        cfg = FlowConfig(objective="J", eps=1e-3, grad_tol=1e-8, max_iter=200)
        out, trace = minimize(RowMajorTripleWell(), path, cfg)
        out_f, trace_f = minimize(TripleWell(), path, cfg)
        assert trace_f.grad_norms.tobytes() == trace.grad_norms.tobytes()
        assert trace_f.objectives.tobytes() == trace.objectives.tobytes()
        assert out_f.nodes.tobytes() == out.nodes.tobytes()


class TestContinuation:
    def test_schedule_validation(self, tw):
        path = DiscretePath.from_waypoints([[0.0, 0.0], [1.0, 0.0]], 10)
        with pytest.raises(ValueError):
            continuation_minimize(tw, path, FlowConfig(), [])
        with pytest.raises(ValueError):
            continuation_minimize(tw, path, FlowConfig(), [1e-3, 1e-2])
        with pytest.raises(ValueError):  # ends above the target temperature
            continuation_minimize(tw, path, FlowConfig(eps=1e-3), [0.1, 0.03])

    def test_every_stage_checked_before_the_first_runs(self):
        p = CountingTripleWell()
        path = DiscretePath.from_waypoints([[0.0, 0.0], [1.0, 0.0]], 10)
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            continuation_minimize(p, path, FlowConfig(eps=1e-3), [0.1, float("nan"), 1e-3])
        assert p.calls["gradient"] == 0

    def test_matches_direct_flow_on_easy_problem(self):
        q = Quadratic(2)
        path = DiscretePath.from_waypoints([[1.0, 0.0], [0.0, 1.0]], 20)
        cfg = FlowConfig(objective="J", eps=0.5, grad_tol=1e-10, max_iter=5000)
        direct, _ = minimize(q, path, cfg)
        annealed, trace = continuation_minimize(q, path, cfg, [2.0, 1.0, 0.5])
        assert trace.converged
        np.testing.assert_allclose(annealed.nodes, direct.nodes, atol=1e-8)


# SHA-1 of path.nodes.tobytes() and of trace.to_csv() after 200 iterations at
# M = 400, eps 1e-3, grad_tol 1e-6, recorded with the stacked-factor kernels
# (TripleWell._factors) that the four-column kernels replaced
FLOW_GOLDEN = {
    ("M1_M2_avoid", "J"): (
        "8e378ad23c5fa2488c09a576841af4b0fe643ece",
        "35fdc7fa5c877c00e4f162e5ee5fbfb3b82bae6e",
    ),
    ("S1_S2_via_M0", "I"): (
        "5e443fa12865417236b6573b51640210006ac5ab",
        "c3565e698fd87a91116eda7a6e58a0492a2c4142",
    ),
}


class TestGolden:
    @pytest.mark.parametrize("route, objective", sorted(FLOW_GOLDEN))
    def test_short_flow_bytes_unchanged(self, tw, route, objective):
        start = DiscretePath.from_waypoints(figure_routes(tw)[route], 400)
        cfg = FlowConfig(objective=objective, eps=1e-3, grad_tol=1e-6, max_iter=200)
        path, trace = minimize(tw, start, cfg)
        got = (
            hashlib.sha1(path.nodes.tobytes()).hexdigest(),
            hashlib.sha1(trace.to_csv().encode()).hexdigest(),
        )
        assert got == FLOW_GOLDEN[route, objective]


def frozen_minimize(p, start, cfg):
    """Frozen copy of the flow loop as it was before it handed its kinetic
    array to grad_objective and called LAPACK's dptsv itself: the kinetic part
    computed twice, scipy's solveh_banded, the norm over a row-major ravel.
    The oracle of ``minimize``, path and trace alike (run it on a row-major
    H·v, as then)."""
    from scipy.linalg import solveh_banded as scipy_solveh_banded

    h = start.h
    kappa = cfg.eps / h
    x0, x1 = start.left, start.right
    path = start
    obj, grad_v = eval_objective(p, path, cfg.eps, cfg.objective)
    ab = np.zeros((2, start.M - 1))
    trace = FlowTrace()
    tau = cfg.tau0
    it = 0
    while it < cfg.max_iter:
        it += 1
        g = grad_objective(p, path, cfg.eps, cfg.objective, grad_v=grad_v[1:-1])
        gnorm = float(np.linalg.norm(g.ravel()) / np.sqrt(h))
        if gnorm <= cfg.grad_tol:
            trace.converged = True
            trace.stop_reason = "gradient tolerance reached"
            break
        x = path.nodes
        x_int = x[1:-1]
        nonstiff = g - kappa * (2.0 * x_int - x[:-2] - x[2:])
        while True:
            rhs = x_int - tau * nonstiff
            rhs[0] += tau * kappa * x0
            rhs[-1] += tau * kappa * x1
            ab[0, 1:] = -tau * kappa
            ab[1, :] = 1.0 + 2.0 * tau * kappa
            cand = path.with_interior(
                scipy_solveh_banded(ab, rhs, overwrite_ab=True, overwrite_b=True)
            )
            obj_new, grad_v_new = eval_objective(p, cand, cfg.eps, cfg.objective)
            ok = obj_new <= obj
            trace.record(it, obj_new, tau, gnorm, ok)
            if ok:
                break
            tau *= SHRINK
            if tau < 1e-15:
                trace.stop_reason = "stepsize underflow: no decreasing step found"
                return path, trace
        path, obj, grad_v = cand, obj_new, grad_v_new
        tau = min(tau * GROW, TAU_MAX)
    else:
        trace.stop_reason = "max iterations reached"
    return path, trace


class TestFrozenFlowLoop:
    @pytest.mark.parametrize(
        "route, objective, max_iter",
        [("M1_M2_avoid", "J", 400), ("S1_S2_via_M0", "I", 400), ("S1_S2_avoid_a", "I", 40)],
    )
    def test_same_bytes_as_the_frozen_loop(self, tw, route, objective, max_iter):
        start = DiscretePath.from_waypoints(figure_routes(tw)[route], 400)
        cfg = FlowConfig(objective=objective, eps=1e-3, max_iter=max_iter)
        path, trace = minimize(tw, start, cfg)
        want_path, want = frozen_minimize(RowMajorTripleWell(), start, cfg)
        assert 0 < sum(trace.accepted) < len(trace.accepted)  # some trials were rejected
        assert path.nodes.tobytes() == want_path.nodes.tobytes()
        for f in dataclasses.fields(FlowTrace):
            got, exp = getattr(trace, f.name), getattr(want, f.name)
            if isinstance(exp, array):
                assert (got.typecode, got.tobytes()) == (exp.typecode, exp.tobytes()), f.name
            else:
                assert got == exp, f.name


def _tridiagonal(ab):
    """The dense symmetric matrix of the upper banded form ab (2, n)."""
    return np.diag(ab[1]) + np.diag(ab[0, 1:], 1) + np.diag(ab[0, 1:], -1)


class TestBandedSolve:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_same_bytes_as_scipy(self, order):
        from scipy.linalg import solveh_banded as scipy_solveh_banded

        rng = np.random.default_rng(8)
        ab = np.zeros((2, 50))
        ab[0, 1:] = -rng.uniform(0.0, 1.0, 49)
        ab[1] = 2.0 + rng.uniform(0.0, 1.0, 50)
        b = np.asarray(rng.normal(size=(50, 2)), order=order)
        want = scipy_solveh_banded(ab, b)
        got = solveh_banded(ab.copy(), b.copy(order="K"))
        assert got.tobytes() == want.tobytes()
        np.testing.assert_allclose(_tridiagonal(ab) @ got, b, atol=1e-12)

    def test_not_positive_definite_is_a_numerical_failure(self):
        # leading minor 2 is 1 - 2^2 < 0: not the usage error (exit 2) that
        # scipy's LinAlgError, a ValueError, would be
        ab = np.array([[0.0, 2.0, 0.5], [1.0, 1.0, 3.0]])
        with pytest.raises(NonFiniteObjectiveError, match="info 2"):
            solveh_banded(ab, np.ones((3, 2)))


def _scipy_dptsv(ab, b):
    """SciPy's LAPACK dptsv on the bands of ab, as (x, info); f2py wants an e
    of length 1 or more, and LAPACK reads none of it when n = 1."""
    from scipy.linalg.lapack import dptsv

    e = ab[0, 1:] if ab.shape[1] > 1 else np.zeros(1)
    _, _, x, info = dptsv(ab[1], e, b)
    return x, info


def _banded_case(seed, n, k, b_order, b_int, ab_layout, spd):
    """A random (ab, b): ab (2, n) row-major, column-major or a strided view;
    b (n,) when k is 0, else (n, k), integer-valued or float."""
    rng = np.random.default_rng(seed)
    band = np.zeros((2, n))
    if spd:  # diagonally dominant
        band[0, 1:] = -rng.uniform(0.0, 1.0, n - 1)
        band[1] = 2.0 + rng.uniform(0.0, 1.0, n)
    else:
        band[0, 1:] = rng.uniform(-2.0, 2.0, n - 1)
        band[1] = rng.uniform(-1.0, 1.0, n)
    if ab_layout == "F":
        ab = np.asfortranarray(band)
    elif ab_layout == "strided":
        ab = np.zeros((2, 2 * n))[:, ::2]
        ab[...] = band
    else:
        ab = band
    shape = (n,) if k == 0 else (n, k)
    b = rng.integers(-5, 6, size=shape) if b_int else rng.normal(size=shape)
    return ab, np.asarray(b, order=b_order)


# the routine the lookup finds, and the fallback it takes where NumPy ships no LAPACK
BANDED_ROUTINES = {"found": lambda: flow._dptsv(), "fallback": lambda: flow._scipy_dptsv}


class TestBandedSolveProperties:
    """solveh_banded against SciPy, for the routine found and for the fallback."""

    @pytest.mark.parametrize("routine", sorted(BANDED_ROUTINES))
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        k=st.integers(0, 3),
        b_order=st.sampled_from("CF"),
        b_int=st.booleans(),
        ab_layout=st.sampled_from(["C", "F", "strided"]),
        spd=st.booleans(),
        read_only=st.booleans(),
    )
    def test_same_bytes_and_info_as_scipy(
        self, routine, seed, n, k, b_order, b_int, ab_layout, spd, read_only
    ):
        from scipy.linalg import solveh_banded as scipy_solveh_banded

        ab, b = _banded_case(seed, n, k, b_order, b_int, ab_layout, spd)
        want, info = _scipy_dptsv(ab.copy(), b.copy(order="K"))
        in_place = b.dtype == np.float64 and b.flags.f_contiguous and not read_only
        ab_in, b_in = ab.copy(order="K"), b.copy(order="K")
        # LAPACK writes to both: a read-only input is copied, never written
        ab_in.flags.writeable = b_in.flags.writeable = not read_only
        dptsv = BANDED_ROUTINES[routine]()
        with mock.patch.object(flow, "_dptsv", lambda: dptsv):
            if info != 0:
                with pytest.raises(NonFiniteObjectiveError, match=f"info {info}$"):
                    solveh_banded(ab_in, b_in)
                return
            got = solveh_banded(ab_in, b_in)
        if read_only:
            assert (ab_in.tobytes(), b_in.tobytes()) == (ab.tobytes(), b.tobytes())
        assert (got.shape, got.dtype) == (b.shape, np.float64)
        assert got.tobytes() == want.tobytes()
        # scipy.linalg.solveh_banded takes no n = 1 system (f2py's e check)
        if n > 1:
            assert got.tobytes() == scipy_solveh_banded(ab, b).tobytes()
        assert np.shares_memory(got, b_in) == in_place

    @pytest.mark.parametrize("routine", sorted(BANDED_ROUTINES))
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(0, 6),
        ab_rows=st.integers(1, 3),
        b_shape=st.lists(st.integers(0, 7), min_size=0, max_size=3).map(tuple),
    )
    def test_mismatched_shapes_raise_value_error(self, routine, n, ab_rows, b_shape):
        ok = ab_rows == 2 and n >= 1 and len(b_shape) in (1, 2) and b_shape[0] == n
        ok = ok and all(b_shape)
        ab = np.zeros((ab_rows, n))
        ab[-1] = 1.0
        dptsv = BANDED_ROUTINES[routine]()
        with mock.patch.object(flow, "_dptsv", lambda: dptsv):
            if ok:
                assert solveh_banded(ab, np.ones(b_shape)).shape == b_shape
            else:
                with pytest.raises(ValueError, match="need ab of shape"):
                    solveh_banded(ab, np.ones(b_shape))

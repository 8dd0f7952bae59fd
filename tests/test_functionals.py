"""Discrete action values and gradients against independent oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ompath import (
    DiscretePath,
    DoubleWell1D,
    Quadratic,
    TripleWell,
    eval_I,
    eval_objective,
    grad_objective,
)
from ompath.functionals import row_sumsq
from ompath.heteroclinic import _orbit_record


def _endpoint_warning(p, path):
    return _orbit_record(p, path)[0]["endpoint_warning"]


def _rest_at(x):
    """The path that rests at x for unit time."""
    return DiscretePath(np.tile(x, (3, 1)))


class TestPathPotential:
    """On a path resting at x for unit time, eps * I_eps is the path
    potential G = 0.5 |grad V|^2 - eps * Lap V at x."""

    def test_at_critical_points_minus_eps_laplacian(self, tw):
        # grad V = 0 there, so G reduces to -eps * Lap V
        eps = 1e-3
        assert eps * eval_I(tw, _rest_at([0.0, 0.0]), eps).i_eps == pytest.approx(-4.0 * eps)
        assert eps * eval_I(tw, _rest_at([1.0, 0.0]), eps).i_eps == pytest.approx(-8.0 * eps)

    def test_generic_point(self, tw):
        x = np.array([0.3, 0.2])
        eps = 0.01
        g = tw.gradient(x)
        assert eps * eval_I(tw, _rest_at(x), eps).i_eps == pytest.approx(
            0.5 * g @ g - eps * tw.laplacian(x)
        )

    def test_requires_positive_eps(self, tw):
        with pytest.raises(ValueError):
            eval_I(tw, _rest_at([0.0, 0.0]), 0.0)


class TestQuadratureOracle:
    """Trapezoid values converge at second order to an adaptive-quadrature
    reference of the continuum action on a straight segment."""

    def _continuum(self, p, a, b, eps):
        d = b - a

        def gterm(s):
            x = a + s * d
            g = p.gradient(x)
            return 0.5 * g @ g - eps * p.laplacian(x)

        pot, err = quad(gterm, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=200)
        assert err < 1e-10
        return 0.5 * eps * d @ d + pot / eps

    def test_linear_path_second_order(self, tw):
        a, b = np.array([0.2, 0.1]), np.array([0.9, 0.4])
        eps = 0.05
        ref = self._continuum(tw, a, b, eps)
        errs = []
        for M in (100, 200, 400):
            path = DiscretePath.from_waypoints([a, b], M)
            errs.append(abs(eval_I(tw, path, eps).i_eps - ref))
        assert errs[0] < 1e-3
        assert errs[0] / errs[1] > 3.5  # O(h^2)
        assert errs[1] / errs[2] > 3.5

    def test_constant_path_exact(self, tw):
        # no quadrature error at all for a constant path
        eps = 1e-3
        x0 = np.array([0.0, 0.0])
        path = DiscretePath(np.tile(x0, (21, 1)))
        rep = eval_I(tw, path, eps)
        assert rep.kinetic == 0.0
        assert rep.force == 0.0
        assert rep.laplacian_term == pytest.approx(4.0, abs=1e-14)
        assert rep.i_eps == pytest.approx(-4.0, abs=1e-14)


class TestDecompositionIdentity:
    @settings(max_examples=100, deadline=None)
    @given(
        eps=st.floats(min_value=1e-4, max_value=10.0),
        seed=st.integers(min_value=0, max_value=10_000),
        m=st.integers(min_value=3, max_value=40),
    )
    def test_identity_to_1e12(self, eps, seed, m):
        tw = TripleWell()
        rng = np.random.default_rng(seed)
        path = DiscretePath(rng.uniform(-1.0, 1.5, size=(m + 1, 2)))
        rep = eval_I(tw, path, eps)
        assert abs(rep.i_eps - (rep.j_eps - rep.laplacian_term)) <= 1e-12 * max(
            1.0, abs(rep.j_eps)
        )
        assert rep.j_eps == rep.kinetic + rep.force
        assert rep.kinetic >= 0.0 and rep.force >= 0.0


class TestRowSumOfSquares:
    @settings(max_examples=100, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 6), st.integers(1, 4), st.integers(1, 5)),
        order=st.sampled_from("CF"),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bytes_of_the_column_order_sums(self, shape, order, seed):
        # the two loops it replaced: the force term's and the gradient shots' norm
        x = np.asarray(np.random.default_rng(seed).standard_normal(shape), order=order)
        n = shape[-1]
        force = sum((x[..., j] * x[..., j] for j in range(1, n)), x[..., 0] * x[..., 0])
        shots = x[..., 0] * x[..., 0]
        for j in range(1, n):
            shots = shots + x[..., j] * x[..., j]
        assert row_sumsq(x).tobytes() == force.tobytes() == shots.tobytes()
        if n <= 2:
            assert row_sumsq(x).tobytes() == np.sum(x * x, axis=-1).tobytes()


class TestTimeReversal:
    def test_action_reversal_invariant(self, tw, rng):
        path = DiscretePath(rng.uniform(-0.5, 1.2, size=(33, 2)))
        f, b = eval_I(tw, path, 0.01), eval_I(tw, DiscretePath(path.nodes[::-1], path.a, path.b), 0.01)
        assert f.i_eps == pytest.approx(b.i_eps, abs=1e-13)
        assert f.kinetic == pytest.approx(b.kinetic, abs=1e-13)


class TestTruncatedAction:
    def test_tanh_path_analytic_value(self):
        # x(t) = tanh(t) between the wells of (x^2-1)^2/4:
        # J = int 1/2 (sech^4 + tanh^2 (1 - tanh^2)^2) dt = 2/3 + 2/15 = 4/5
        dw = DoubleWell1D()
        T = 20.0
        ts = np.linspace(-T, T, 8001)
        path = DiscretePath(np.tanh(ts)[:, None], a=-T, b=T)
        value = eval_I(dw, path, 1.0).j_eps
        assert value == pytest.approx(0.8, abs=1e-5)
        assert not _endpoint_warning(dw, path)
        assert isinstance(value, float)

    def test_endpoint_warning_off_critical_points(self, tw):
        path = DiscretePath.from_waypoints([[0.4, 0.4], [0.6, 0.6]], 50, a=-1, b=1)
        assert _endpoint_warning(tw, path)
        assert min(np.linalg.norm(tw.gradient(path.nodes[[0, -1]]), axis=-1)) > 1e-3
        # one endpoint off a critical point is enough
        half = DiscretePath.from_waypoints([[0.0, 0.0], [0.6, 0.6]], 50, a=-1, b=1)
        assert _endpoint_warning(tw, half)
        assert _endpoint_warning(tw, DiscretePath(half.nodes[::-1], half.a, half.b))


class TestGradientOracle:
    @pytest.mark.parametrize("objective", ["I", "J"])
    def test_matches_finite_differences(self, tw, objective):
        rng = np.random.default_rng(7)
        path = DiscretePath(rng.uniform(-0.3, 1.2, size=(9, 2)))
        eps = 0.05
        g = grad_objective(tw, path, eps, objective)
        fd = np.zeros_like(g)
        delta = 1e-6
        for k in range(g.shape[0]):
            for j in range(2):
                up = path.interior.copy()
                dn = path.interior.copy()
                up[k, j] += delta
                dn[k, j] -= delta
                fd[k, j] = (
                    eval_objective(tw, path.with_interior(up), eps, objective)[0]
                    - eval_objective(tw, path.with_interior(dn), eps, objective)[0]
                ) / (2 * delta)
        np.testing.assert_allclose(g, fd, atol=1e-6 * (1 + np.max(np.abs(fd))))

    @pytest.mark.parametrize("objective", ["I", "J"])
    def test_handed_in_gradient_changes_nothing(self, tw, rng, objective):
        path = DiscretePath(rng.uniform(-0.3, 1.2, size=(40, 2)))
        _, grad_v = eval_objective(tw, path, 0.05, objective)
        np.testing.assert_array_equal(grad_v, tw.gradient(path.nodes))
        np.testing.assert_array_equal(
            grad_objective(tw, path, 0.05, objective, grad_v=grad_v[1:-1]),
            grad_objective(tw, path, 0.05, objective),
        )

    @pytest.mark.parametrize("objective", ["I", "J"])
    def test_handed_in_kinetic_part_changes_no_bit(self, tw, rng, objective):
        # on column-major nodes, as the flow's banded solve leaves them; the
        # result is row-major unless the kinetic part is handed in
        path = DiscretePath(np.asfortranarray(rng.uniform(-0.3, 1.2, size=(40, 2))))
        x, kappa = path.nodes, 0.05 / path.h
        kin = kappa * (2.0 * x[1:-1] - x[:-2] - x[2:])
        plain = grad_objective(tw, path, 0.05, objective)
        handed = grad_objective(tw, path, 0.05, objective, kin=kin)
        assert plain.tobytes() == handed.tobytes()
        assert plain.flags["C_CONTIGUOUS"] and handed.flags["F_CONTIGUOUS"]

    def test_default_objective_is_I(self, tw):
        path = DiscretePath.from_waypoints([[0.0, 0.0], [1.0, 0.0]], 6)
        np.testing.assert_array_equal(
            grad_objective(tw, path, 0.1), grad_objective(tw, path, 0.1, "I")
        )

    def test_objective_validation(self, tw):
        path = DiscretePath.from_waypoints([[0.0, 0.0], [1.0, 0.0]], 6)
        for fn in (eval_objective, grad_objective):
            with pytest.raises(ValueError, match="objective must be 'I' or 'J'"):
                fn(tw, path, 0.1, "K")
        with pytest.raises(ValueError):
            grad_objective(tw, path, -0.1, "I")
        with pytest.raises(ValueError):
            eval_I(tw, path, 0.0)

    def test_gradient_vanishes_on_constant_critical_path(self, tw):
        # a path resting at a critical point is stationary for J; for I the
        # third-derivative term contributes -h * grad(Lap V) per interior node
        path = DiscretePath(np.zeros((11, 2)))
        eps = 0.01
        gJ = grad_objective(tw, path, eps, "J")
        np.testing.assert_allclose(gJ, 0.0, atol=1e-14)
        gI = grad_objective(tw, path, eps, "I")
        expected = np.tile(-path.h * tw.grad_laplacian(np.zeros(2)), (gI.shape[0], 1))
        np.testing.assert_allclose(gI, expected, atol=1e-14)


class TestObjectiveValue:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        m=st.integers(min_value=2, max_value=300),
        eps=st.sampled_from([1e-3, 0.05, 1.0]),
    )
    def test_matches_eval_I_bitwise(self, seed, m, eps):
        # J skips the Laplacian, yet must equal the j_eps of the full report
        tw = TripleWell()
        path = DiscretePath(np.random.default_rng(seed).uniform(-0.5, 1.5, size=(m + 1, 2)))
        rep = eval_I(tw, path, eps)
        assert eval_objective(tw, path, eps, "J")[0] == rep.j_eps
        assert eval_objective(tw, path, eps, "I")[0] == rep.i_eps


class TestQuadraticClosedForm:
    def test_straight_path_in_quadratic_well(self):
        # V = |x|^2/2 on the segment x(s) = s*e1: every term is elementary
        q = Quadratic(2)
        eps = 0.5
        M = 4000
        path = DiscretePath.from_waypoints([[0.0, 0.0], [1.0, 0.0]], M)
        rep = eval_I(q, path, eps)
        assert rep.kinetic == pytest.approx(eps / 2.0, abs=1e-12)
        # int |grad V|^2/2 = int s^2/2 = 1/6 (trapezoid error O(h^2))
        assert rep.force == pytest.approx(1.0 / (6.0 * eps), abs=1e-6)
        assert rep.laplacian_term == pytest.approx(2.0, abs=1e-12)

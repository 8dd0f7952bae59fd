"""Exact landscape values and derivative consistency of the test potentials."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ompath import (
    CustomPotential,
    DomainError,
    DoubleWell1D,
    Quadratic,
    TripleWell,
    check_derivatives,
    get_potential,
)
from ompath.potentials import _check_finite

SQ2 = np.sqrt(2.0)
S1 = np.array([(2.0 + SQ2) / 6.0, (2.0 - SQ2) / 6.0])
S2 = S1[::-1].copy()
WELLS = [np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])]

coords = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


class TestTripleWellExactValues:
    def test_wells_are_zeros(self, tw):
        for m in WELLS:
            assert tw.value(m) == 0.0
            np.testing.assert_allclose(tw.gradient(m), 0.0, atol=1e-14)

    def test_saddle_value_is_2_over_27(self, tw):
        assert abs(tw.value(S1) - 2.0 / 27.0) < 1e-14
        assert abs(tw.value(S2) - 2.0 / 27.0) < 1e-14

    def test_saddle_gradient_vanishes(self, tw):
        assert np.linalg.norm(tw.gradient(S1)) < 1e-13
        assert np.linalg.norm(tw.gradient(S2)) < 1e-13

    def test_laplacian_values_at_critical_points(self, tw):
        assert abs(tw.laplacian(WELLS[0]) - 4.0) < 1e-12
        assert abs(tw.laplacian(WELLS[1]) - 8.0) < 1e-12
        assert abs(tw.laplacian(WELLS[2]) - 8.0) < 1e-12
        assert abs(tw.laplacian(S1)) < 1e-12
        assert abs(tw.laplacian(S2)) < 1e-12


class TestDerivativeConsistency:
    @pytest.mark.parametrize("p", [TripleWell(), Quadratic(2), Quadratic(3)])
    def test_against_finite_differences(self, p, rng):
        probes = rng.uniform(-1.5, 1.5, size=(25, p.dim))
        rep = check_derivatives(p, probes)
        assert rep.max_error < 1e-6

    def test_double_well_1d(self, rng):
        rep = check_derivatives(DoubleWell1D(), rng.uniform(-2, 2, size=(25, 1)))
        assert rep.max_error < 1e-6

    def test_grad_laplacian_matches_fd(self, tw, rng):
        for x in rng.uniform(-1.5, 1.5, size=(20, 2)):
            h = 1e-5
            fd = np.array(
                [
                    (tw.laplacian(x + h * e) - tw.laplacian(x - h * e)) / (2 * h)
                    for e in np.eye(2)
                ]
            )
            np.testing.assert_allclose(tw.grad_laplacian(x), fd, atol=1e-5)

    def test_laplacian_is_hessian_trace(self, tw, rng):
        x = rng.uniform(-1.5, 1.5, size=(30, 2))
        np.testing.assert_allclose(
            tw.laplacian(x), np.trace(tw.hessian(x), axis1=-2, axis2=-1), atol=1e-12
        )


class TestBatchBroadcasting:
    @pytest.mark.parametrize("p", [TripleWell(), DoubleWell1D(), Quadratic(2)])
    def test_batch_matches_single(self, p, rng):
        pts = rng.uniform(-1.5, 1.5, size=(7, p.dim))
        # a point whose x1 - 1 squares to another double under libm pow than under x * x
        pts = np.concatenate([pts, [[-0.36321022429113303, 0.7092031098112563][: p.dim]]])
        vals = p.value(pts)
        grads = p.gradient(pts)
        laps = p.laplacian(pts)
        hesses = p.hessian(pts)
        for k, x in enumerate(pts):
            assert vals[k] == p.value(x)
            np.testing.assert_array_equal(grads[k], p.gradient(x))
            assert laps[k] == p.laplacian(x)
            np.testing.assert_array_equal(hesses[k], p.hessian(x))

    @pytest.mark.parametrize(
        "p", [DoubleWell1D(), Quadratic(3), CustomPotential(2, TripleWell().value, TripleWell().gradient)]
    )
    def test_point_gradient_is_the_gradient_of_one_point(self, p, rng):
        # the default hook; TripleWell's own is in TestStackFreeKernels
        pts = np.concatenate([rng.uniform(-1.5, 1.5, size=(7, p.dim)), np.full((1, p.dim), -0.0)])
        grads = p.gradient(pts)
        for k, x in enumerate(pts.tolist()):
            assert np.array(p.point_gradient(x)).tobytes() == grads[k].tobytes()
        with pytest.raises(DomainError):
            p.point_gradient([np.nan] * p.dim)


class TestSwapSymmetry:
    @settings(max_examples=100, deadline=None)
    @given(x1=coords, x2=coords)
    def test_value_and_gradient_swap(self, x1, x2):
        tw = TripleWell()
        x = np.array([x1, x2])
        xs = np.array([x2, x1])
        assert np.isclose(tw.value(x), tw.value(xs), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(tw.gradient(x)[::-1], tw.gradient(xs), atol=1e-12)
        assert np.isclose(tw.laplacian(x), tw.laplacian(xs), rtol=1e-12, atol=1e-12)


class TestEdgesAndPlumbing:
    def test_domain_error_on_nonfinite(self, tw):
        with pytest.raises(DomainError):
            tw.value(np.array([np.nan, 0.0]))
        with pytest.raises(DomainError):
            tw.gradient(np.array([np.inf, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_domain_error_anywhere_in_a_batch(self, bad, order):
        # in either layout and in a strided view, without a warning
        x = np.zeros((5, 2))
        x[0] = 1e300
        x[3, 1] = bad
        x = np.array(x, order=order)
        for batch in (x, x[1:], x[::3]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError):
                    _check_finite(batch)
        big = np.array([[1e300, -1e300], [0.0, 5e-324]], order=order)
        assert _check_finite(big) is big

    def test_point_derivatives_consistent(self, tw):
        x = np.array([0.3, 0.4])
        assert tw.value(x) == tw.value(x[None])[0]
        np.testing.assert_array_equal(tw.gradient(x), tw.gradient(x[None])[0])
        assert np.isclose(tw.laplacian(x), np.trace(tw.hessian(x)))

    def test_custom_potential_fd_fallbacks(self, tw, rng):
        cp = CustomPotential(2, lambda x: tw.value(x), lambda x: tw.gradient(x))
        for x in rng.uniform(-1.0, 1.0, size=(5, 2)):
            np.testing.assert_allclose(cp.hessian(x), tw.hessian(x), atol=1e-4)
            assert abs(cp.laplacian(x) - tw.laplacian(x)) < 1e-4
            np.testing.assert_allclose(cp.grad_laplacian(x), tw.grad_laplacian(x), atol=1e-2)

    def test_get_potential(self):
        assert isinstance(get_potential("triple-well"), TripleWell)
        assert isinstance(get_potential("double-well-1d"), DoubleWell1D)
        with pytest.raises(ValueError):
            get_potential("no-such-potential")

    def test_check_derivatives_needs_probes(self, tw):
        with pytest.raises(ValueError):
            check_derivatives(tw, np.empty((0, 2)))


def _frozen_central_differences(f, x):
    """The one-point central differences the batched fallback replaced."""
    h = 1e-5 * (1.0 + np.linalg.norm(x))
    return np.array([(f(x + e) - f(x - e)) / (2 * h) for e in h * np.eye(x.shape[0])])


class FrozenFallbacks:
    """Frozen copy of PotentialModel's finite-difference fallbacks as they
    looped over points: the oracle of the batched ones, to the bit."""

    def __init__(self, p):
        self.p = p

    def hessian(self, x):
        pts = np.atleast_2d(x)
        out = np.empty((pts.shape[0], self.p.dim, self.p.dim))
        for k, q in enumerate(pts):
            d = _frozen_central_differences(self.p.gradient, q)
            out[k] = 0.5 * (d + d.T)
        return out[0] if x.ndim == 1 else out

    def hessian_vector(self, x, v):
        return np.einsum("...ij,...j->...i", self.hessian(x), v)

    def laplacian(self, x):
        return np.trace(self.hessian(x), axis1=-2, axis2=-1)

    def grad_laplacian(self, x):
        pts = np.atleast_2d(x)
        out = np.empty_like(pts)
        for k, q in enumerate(pts):
            out[k] = _frozen_central_differences(self.laplacian, q)
        return out[0] if x.ndim == 1 else out


def _cubic_3d_value(x):
    x0, x1, x2 = x[:, 0], x[:, 1], x[:, 2]
    return (x0 * x0 - 1.0) ** 2 / 4.0 + x1 * x1 / 2.0 + x2 * x2 + 0.3 * x0 * x1 * x2


def _cubic_3d_gradient(x):
    # every entry of the Hessian is nonzero somewhere
    x0, x1, x2 = x[:, 0], x[:, 1], x[:, 2]
    return np.stack([x0 * x0 * x0 - x0 + 0.3 * x1 * x2, x1 + 0.3 * x0 * x2, 2.0 * x2 + 0.3 * x0 * x1], axis=1)


def _chain_5d_value(x):
    return np.sum(x * x * x * x, axis=1) / 4.0 + 0.1 * np.sum(x[:, 1:] * x[:, :-1], axis=1)


def _chain_5d_gradient(x):
    # five coordinates: a strided row of five sums |x| in another order
    g = x * x * x
    g[:, 1:] += 0.1 * x[:, :-1]
    g[:, :-1] += 0.1 * x[:, 1:]
    return g


@pytest.fixture(params=["double-well-1d", "triple-well", "muller-brown", "cubic-3d", "chain-5d"])
def custom(request):
    """A CustomPotential on batch callables, in one, two, three and five dimensions."""
    if request.param == "muller-brown":
        return request.getfixturevalue("mb")
    if request.param == "cubic-3d":
        return CustomPotential(3, _cubic_3d_value, _cubic_3d_gradient)
    if request.param == "chain-5d":
        return CustomPotential(5, _chain_5d_value, _chain_5d_gradient)
    p = DoubleWell1D() if request.param == "double-well-1d" else TripleWell()
    return CustomPotential(p.dim, p.value, p.gradient)


class TestBatchedFallbacks:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_same_bits_as_the_frozen_loop(self, custom, seed, order):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1.5, 1.5, size=(9, custom.dim)) * rng.uniform(0.01, 3.0, size=(9, 1))
        x[0], x[1] = 0.0, -0.0
        x = np.array(x, order=order)
        v = rng.normal(size=x.shape)
        oracle = FrozenFallbacks(custom)
        for pts, vec in ((x, v), (x[3], v[3]), (x[1], v[1])):
            for name in ("hessian", "laplacian", "grad_laplacian"):
                got, want = getattr(custom, name)(pts), getattr(oracle, name)(pts)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
            got, want = custom.hessian_vector(pts, vec), oracle.hessian_vector(pts, vec)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_one_gradient_call_whatever_the_batch(self):
        # the frozen loop called gradient_fn 2N times a point for a Hessian and
        # 4N^2 times a point for grad Lap V; the batched fallbacks call it once
        calls = []
        tw = TripleWell()

        def gradient(x):
            calls.append(x.shape)
            return tw.gradient(x)

        p = CustomPotential(2, tw.value, gradient)
        rng = np.random.default_rng(7)
        counts = {}
        for k in (1, 50):
            x = rng.uniform(-1.0, 1.0, size=(k, 2))
            for name in ("hessian", "grad_laplacian"):
                calls.clear()
                getattr(p, name)(x)
                counts[k, name] = list(calls)
        assert counts[1, "hessian"] == [(4, 2)] and counts[50, "hessian"] == [(200, 2)]
        assert counts[1, "grad_laplacian"] == [(16, 2)] and counts[50, "grad_laplacian"] == [(800, 2)]

    @pytest.mark.parametrize(
        "value_fn, gradient_fn, method, k",
        [
            # one-point callables: x @ x of a batch of two points is a 2 x 2 matrix
            (lambda x: 0.5 * x @ x, lambda x: x, "value", 2),
            (lambda x: np.sum(x * x, axis=-1, keepdims=True), lambda x: x, "value", 2),
            (lambda x: np.sum(x * x, axis=-1), lambda x: np.array([x[0], x[1]]), "gradient", 3),
            (lambda x: np.sum(x * x, axis=-1), lambda x: x.ravel(), "gradient", 2),
            (lambda x: np.sum(x * x, axis=-1), lambda x: x.ravel(), "hessian", 1),
        ],
        ids=["value-matrix", "value-column", "gradient-rows", "gradient-flat", "hessian"],
    )
    def test_callables_off_the_batch_contract_raise(self, value_fn, gradient_fn, method, k):
        p = CustomPotential(2, value_fn, gradient_fn)
        x = np.arange(1.0, 2 * k + 1).reshape(k, 2) / 10
        with pytest.raises(ValueError, match=r"take a \(K, N\) batch and return shapes"):
            getattr(p, method)(x)


def _stacked_factors(x):
    """The triple well's factors with their gradients stacked column by column,
    the formulation the kernels used before they built them by arithmetic."""
    x1, x2 = x[..., 0], x[..., 1]
    # np.square, not **2: on a single point's NumPy scalars **2 calls libm pow,
    # which is not correctly rounded; on arrays the two give the same bits
    u = np.square(x1) + np.square(x2)
    v = np.square(x1 - 1.0) + np.square(x2)
    w = np.square(x1) + np.square(x2 - 1.0)
    gu = 2.0 * np.stack([x1, x2], axis=-1)
    gv = 2.0 * np.stack([x1 - 1.0, x2], axis=-1)
    gw = 2.0 * np.stack([x1, x2 - 1.0], axis=-1)
    return u, v, w, gu, gv, gw


def _product_rule_hessian(x):
    """The triple well's Hessian 2sI + sym(gu,gv) w + sym(gu,gw) v + sym(gv,gw) u,
    s = uv + uw + vw, summed as a whole (K, 2, 2) tensor."""
    u, v, w, gu, gv, gw = _stacked_factors(x)
    s = u * v + u * w + v * w

    def sym(a, b):
        return a[..., :, None] * b[..., None, :] + b[..., :, None] * a[..., None, :]

    return (
        2.0 * s[..., None, None] * np.eye(2)
        + sym(gu, gv) * w[..., None, None]
        + sym(gu, gw) * v[..., None, None]
        + sym(gv, gw) * u[..., None, None]
    )


def _stacked_kernels(x, vec):
    """Every TripleWell kernel written out on the stacked factors, summed in
    the kernels' order; ``hessian_vector`` is taken along ``vec``."""
    u, v, w, gu, gv, gw = _stacked_factors(x)
    s = u * v + u * w + v * w

    def terms(i, j):
        return [
            (a[..., i] * b[..., j] + b[..., i] * a[..., j]) * c
            for a, b, c in ((gu, gv, w), (gu, gw, v), (gv, gw, u))
        ]

    t00, t01, t11 = terms(0, 0), terms(0, 1), terms(1, 1)
    h00 = 2.0 * s + t00[0] + t00[1] + t00[2]
    h01 = t01[0] + t01[1] + t01[2]
    h11 = 2.0 * s + t11[0] + t11[1] + t11[2]
    v0, v1 = vec[..., 0], vec[..., 1]
    dot = lambda a, b: np.sum(a * b, axis=-1)
    dotc = lambda a, b: dot(a, b)[..., None]
    uu, vv, ww = u[..., None], v[..., None], w[..., None]
    return {
        "value": u * v * w,
        "gradient": gu * (v * w)[..., None] + gv * (u * w)[..., None] + gw * (u * v)[..., None],
        "hessian": _product_rule_hessian(x),
        "hessian_vector": np.stack([h00 * v0 + h01 * v1, h01 * v0 + h11 * v1], axis=-1),
        "laplacian": 4.0 * s + 2.0 * (dot(gu, gv) * w + dot(gu, gw) * v + dot(gv, gw) * u),
        "grad_laplacian": 4.0 * (gu * vv + uu * gv + gu * ww + uu * gw + gv * ww + vv * gw)
        + 2.0 * (
            2.0 * (gu + gv) * ww + dotc(gu, gv) * gw
            + 2.0 * (gu + gw) * vv + dotc(gu, gw) * gv
            + 2.0 * (gv + gw) * uu + dotc(gv, gw) * gu
        ),
    }


# every signed-zero variant of the three wells
SIGNED_ZERO_WELLS = np.array(
    [[a, b] for a in (0.0, -0.0) for b in (0.0, -0.0)]
    + [[1.0, 0.0], [1.0, -0.0], [0.0, 1.0], [-0.0, 1.0]]
)


class TestStackFreeKernels:
    """Every TripleWell kernel equals its formula on the stacked factors byte
    for byte, signed zeros included."""

    @staticmethod
    def _assert_bitwise(tw, x, vec):
        ref = _stacked_kernels(x, vec)
        for name, want in ref.items():
            args = (x, vec) if name == "hessian_vector" else (x,)
            got = np.asarray(getattr(tw, name)(*args))
            assert got.shape == np.shape(want), name
            assert got.tobytes() == np.asarray(want).tobytes(), name

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        scale=st.sampled_from([1e-3, 1.0, 3.0]),
    )
    def test_batches_and_single_points(self, k, seed, scale):
        tw = TripleWell()
        rng = np.random.default_rng(seed)
        x = rng.uniform(-scale, scale, size=(k, 2)) + 0.5
        vec = tw.gradient(x) if seed % 2 else rng.normal(size=(k, 2))
        self._assert_bitwise(tw, x, vec)
        # the flow hands in column-major nodes (the banded solve returns them)
        self._assert_bitwise(tw, np.asfortranarray(x), np.asfortranarray(vec))
        self._assert_bitwise(tw, x[0], vec[0])

    def test_point_gradient_matches_the_array_path(self, tw):
        # a gradient shot evaluates each stage at one point, on floats
        x = np.concatenate([SIGNED_ZERO_WELLS, np.random.default_rng(7).uniform(-1.0, 2.0, (40, 2))])
        got = np.array([tw.point_gradient(pt) for pt in x.tolist()])
        assert got.tobytes() == tw.gradient(x).tobytes()
        for pt in x:
            assert np.array(tw.point_gradient(pt.tolist())).tobytes() == tw.gradient(pt).tobytes()

    @pytest.mark.parametrize("bad", [[np.nan, 0.5], [0.5, np.inf], [-np.inf, np.nan]])
    def test_point_gradient_refuses_non_finite_points(self, tw, bad):
        with pytest.raises(DomainError):
            tw.point_gradient(bad)

    def test_signed_zero_coordinates(self, tw):
        pts = SIGNED_ZERO_WELLS
        vecs = np.array([[1.0, -0.0], [-0.0, 1.0]] * 4)
        self._assert_bitwise(tw, pts, vecs)
        for x, vec in zip(pts, vecs):
            self._assert_bitwise(tw, x, vec)


class TestHessianFormula:
    """The Hessian, filled from its three entries, equals the product-rule
    tensor byte for byte, signed zeros included."""

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        scale=st.sampled_from([1e-3, 1.0, 3.0]),
    )
    def test_matches_product_rule_bytes(self, k, seed, scale):
        tw = TripleWell()
        x = np.random.default_rng(seed).uniform(-scale, scale, size=(k, 2)) + 0.5
        assert tw.hessian(x).tobytes() == _product_rule_hessian(x).tobytes()
        assert tw.hessian(x[0]).tobytes() == _product_rule_hessian(x[0]).tobytes()

    def test_signed_zero_coordinates(self, tw):
        pts = SIGNED_ZERO_WELLS
        assert tw.hessian(pts).tobytes() == _product_rule_hessian(pts).tobytes()
        for x in pts:
            assert tw.hessian(x).tobytes() == _product_rule_hessian(x).tobytes()


class TestHessianVector:
    """H·v equals contracting the full Hessian, bitwise."""

    @staticmethod
    def _contracted(p, x, v):
        return np.einsum("...ij,...j->...i", p.hessian(x), v)

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        scale=st.sampled_from([1e-3, 1.0, 3.0]),
    )
    def test_triple_well_fused_kernel_is_bitwise_exact(self, k, seed, scale):
        tw = TripleWell()
        rng = np.random.default_rng(seed)
        x = rng.uniform(-scale, scale, size=(k, 2)) + 0.5
        v = tw.gradient(x) if seed % 2 else rng.normal(size=(k, 2))
        np.testing.assert_array_equal(tw.hessian_vector(x, v), self._contracted(tw, x, v))
        np.testing.assert_array_equal(tw.hessian_vector(x[0], v[0]), self._contracted(tw, x[0], v[0]))

    @pytest.mark.parametrize(
        "p",
        [
            DoubleWell1D(),
            Quadratic(3),
            CustomPotential(2, TripleWell().value, TripleWell().gradient),
        ],
        ids=["double-well-1d", "quadratic", "custom"],
    )
    def test_default_contracts_the_hessian(self, p, rng):
        x = rng.uniform(-1.0, 1.0, size=(6, p.dim))
        v = rng.normal(size=(6, p.dim))
        np.testing.assert_array_equal(p.hessian_vector(x, v), self._contracted(p, x, v))
        np.testing.assert_array_equal(p.hessian_vector(x[0], v[0]), self._contracted(p, x[0], v[0]))


class StackedTripleWell:
    """Frozen copy of the TripleWell kernels as they were written on the
    stacked factor gradients 2x, 2(x - e1), 2(x - e2) (``_factors``): the
    oracle of the four-column kernels, bits and memory layout alike."""

    E1 = np.array([1.0, 0.0])
    E2 = np.array([0.0, 1.0])

    @staticmethod
    def _factors(x):
        x = np.asfortranarray(x)
        x1, x2 = x[..., 0], x[..., 1]
        u = x1**2 + x2**2
        v = (x1 - 1.0) ** 2 + x2**2
        w = x1**2 + (x2 - 1.0) ** 2
        return u, v, w, 2.0 * x, 2.0 * (x - StackedTripleWell.E1), 2.0 * (x - StackedTripleWell.E2)

    def value(self, x):
        u, v, w, *_ = self._factors(np.asarray(x, dtype=float))
        return u * v * w

    def gradient(self, x):
        u, v, w, gu, gv, gw = self._factors(np.asarray(x, dtype=float))
        return gu * (v * w)[..., None] + gv * (u * w)[..., None] + gw * (u * v)[..., None]

    def _hessian_entries(self, x):
        fu, fv, fw, gu, gv, gw = self._factors(x)
        s = fu * fv + fu * fw + fv * fw

        def terms(i, j):
            return [
                (a[..., i] * b[..., j] + b[..., i] * a[..., j]) * c
                for a, b, c in ((gu, gv, fw), (gu, gw, fv), (gv, gw, fu))
            ]

        t00, t01, t11 = terms(0, 0), terms(0, 1), terms(1, 1)
        h00 = 2.0 * s + t00[0] + t00[1] + t00[2]
        h01 = t01[0] + t01[1] + t01[2]
        h11 = 2.0 * s + t11[0] + t11[1] + t11[2]
        return h00, h01, h11

    def hessian(self, x):
        x = np.asarray(x, dtype=float)
        h00, h01, h11 = self._hessian_entries(x)
        h01 = h01 + 0.0
        out = np.empty(x.shape[:-1] + (2, 2))
        out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = h00, h01, h01, h11
        return out

    def hessian_vector(self, x, v):
        x = np.asarray(x, dtype=float)
        h00, h01, h11 = self._hessian_entries(x)
        v0, v1 = v[..., 0], v[..., 1]
        out = np.empty(x.shape, order="F")
        out[..., 0] = h00 * v0 + h01 * v1
        out[..., 1] = h01 * v0 + h11 * v1
        return out

    def laplacian(self, x):
        u, v, w, gu, gv, gw = self._factors(np.asarray(x, dtype=float))
        dot = lambda a, b: np.sum(a * b, axis=-1)
        return 4.0 * (u * v + u * w + v * w) + 2.0 * (
            dot(gu, gv) * w + dot(gu, gw) * v + dot(gv, gw) * u
        )

    def grad_laplacian(self, x):
        u, v, w, gu, gv, gw = self._factors(np.asarray(x, dtype=float))
        dot = lambda a, b: np.sum(a * b, axis=-1)[..., None]
        uu, vv, ww = u[..., None], v[..., None], w[..., None]
        out = 4.0 * (gu * vv + uu * gv + gu * ww + uu * gw + gv * ww + vv * gw)
        out += 2.0 * (
            2.0 * (gu + gv) * ww + dot(gu, gv) * gw
            + 2.0 * (gu + gw) * vv + dot(gu, gw) * gv
            + 2.0 * (gv + gw) * uu + dot(gv, gw) * gu
        )
        return out


# the wells, with every sign of zero, and the saddles
WELLS_AND_SADDLES = np.concatenate([SIGNED_ZERO_WELLS, [S1, S2, [-0.0, 0.5], [0.5, -0.0]]])
# points whose x1 - 1, resp. x2 - 1, squares to another double under the
# scalar power (libm pow) than under x * x, which moves every kernel's value
POW_ROUNDING = np.array(
    [[-0.36321022429113303, 0.7092031098112563], [-0.04261583242106903, 0.46563358261557153]]
)


def _layouts(x):
    """x as C order, F order, and three non-contiguous views of it."""
    c = np.ascontiguousarray(x)
    f = np.asfortranarray(x)
    wide = np.zeros((x.shape[0], 3))
    wide[:, :2] = x
    return {"C": c, "F": f, "C[1:-1]": c[1:-1], "F[1:-1]": f[1:-1], "wide[:, :2]": wide[:, :2]}


class TestFourColumnKernels:
    """Every TripleWell kernel equals the frozen stacked-factor kernels byte for
    byte, in the same memory layout, whatever the layout of its input."""

    KERNELS = ("value", "gradient", "hessian", "laplacian", "grad_laplacian")

    @classmethod
    def _assert_same(cls, x, vec):
        tw, ref = TripleWell(), StackedTripleWell()
        calls = [(name, (x,)) for name in cls.KERNELS] + [("hessian_vector", (x, vec))]
        for name, args in calls:
            got, want = getattr(tw, name)(*args), getattr(ref, name)(*args)
            assert np.shape(got) == np.shape(want), name
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name
            if np.ndim(want) > 0:
                for flag in ("C_CONTIGUOUS", "F_CONTIGUOUS"):
                    assert got.flags[flag] == want.flags[flag], (name, flag)

    @pytest.mark.parametrize("seed", range(4))
    def test_batches_in_every_layout(self, seed):
        rng = np.random.default_rng(seed)
        x = np.concatenate([rng.uniform(-1.5, 2.5, size=(9, 2)), WELLS_AND_SADDLES, POW_ROUNDING])
        rng.shuffle(x)
        grad = TripleWell().gradient(x)
        for label, xs in _layouts(x).items():
            rows = slice(1, -1) if "[1:-1]" in label else slice(None)
            for vec in (grad[rows], rng.normal(size=xs.shape), np.asfortranarray(grad[rows])):
                self._assert_same(xs, vec)

    def test_single_points(self):
        # a point equals its row of a one-point batch, whose bits the batch
        # tests tie to the stacked kernels
        rng = np.random.default_rng(5)
        tw = TripleWell()
        for x in np.concatenate([WELLS_AND_SADDLES, POW_ROUNDING, rng.uniform(-1.0, 2.0, size=(6, 2))]):
            for vec in (rng.normal(size=2), np.array([-0.0, 1.0])):
                calls = [(name, (x,)) for name in self.KERNELS] + [("hessian_vector", (x, vec))]
                for name, args in calls:
                    got = getattr(tw, name)(*args)
                    want = getattr(tw, name)(*(a[None] for a in args))[0]
                    assert np.shape(got) == np.shape(want), name
                    assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name

    def test_output_layouts(self):
        x = np.random.default_rng(6).uniform(-1.0, 2.0, size=(7, 2))
        tw = TripleWell()
        for xs in _layouts(x).values():
            assert tw.gradient(xs).flags["F_CONTIGUOUS"]
            assert tw.grad_laplacian(xs).flags["F_CONTIGUOUS"]
            assert tw.hessian_vector(xs, xs).flags["F_CONTIGUOUS"]
            assert tw.hessian(xs).flags["C_CONTIGUOUS"]

"""Analytic test potentials with exact derivatives.

Every potential exposes value, gradient, Hessian, Laplacian and the gradient
of the Laplacian (third derivatives, needed by the full action gradient).
Evaluators accept a single point of shape (N,) or a batch of shape (K, N)
and broadcast accordingly.  All evaluators are pure and re-entrant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DomainError(ValueError):
    """Raised when an evaluator is handed a non-finite point."""


def _check_finite(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise DomainError("non-finite input point")
    return x


def _central_differences(f, x: np.ndarray) -> np.ndarray:
    """Central differences of f at the single point x with step
    1e-5*(1+|x|); row j is the derivative along axis j."""
    h = 1e-5 * (1.0 + np.linalg.norm(x))
    return np.array([(f(x + e) - f(x - e)) / (2 * h) for e in h * np.eye(x.shape[0])])


class PotentialModel:
    """Base class: a smooth potential on R^N.

    Subclasses must provide ``value`` and ``gradient``.  ``hessian``,
    ``laplacian`` and ``grad_laplacian`` fall back to central finite
    differences with step 1e-5*(1+|x|), which suffices when the Laplacian
    is only needed at critical points.  ``hessian_vector`` contracts
    ``hessian``; the path flow calls it once per step, so a subclass with
    a cheaper closed form should override it.
    """

    dim: int = 0

    def value(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def gradient(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def hessian(self, x: np.ndarray) -> np.ndarray:
        x = _check_finite(x)
        pts = np.atleast_2d(x)
        out = np.empty((pts.shape[0], self.dim, self.dim))
        for k, p in enumerate(pts):
            d = _central_differences(self.gradient, p)
            out[k] = 0.5 * (d + d.T)
        return out[0] if x.ndim == 1 else out

    def hessian_vector(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Hessian times v at each point; override to skip the full Hessian."""
        return np.einsum("...ij,...j->...i", self.hessian(x), v)

    def laplacian(self, x: np.ndarray) -> np.ndarray:
        h = self.hessian(x)
        return np.trace(h) if h.ndim == 2 else np.trace(h, axis1=-2, axis2=-1)

    def grad_laplacian(self, x: np.ndarray) -> np.ndarray:
        x = _check_finite(x)
        pts = np.atleast_2d(x)
        out = np.empty_like(pts)
        for k, p in enumerate(pts):
            out[k] = _central_differences(self.laplacian, p)
        return out[0] if x.ndim == 1 else out


_E1 = np.array([1.0, 0.0])
_E2 = np.array([0.0, 1.0])


class TripleWell(PotentialModel):
    """Product-of-three-quadratics potential on R^2.

    V(x1, x2) = (x1^2 + x2^2) ((x1-1)^2 + x2^2) (x1^2 + (x2-1)^2)

    Three wells of equal depth at (0,0), (1,0), (0,1); two saddles on the
    symmetry line of the swap (x1, x2) -> (x2, x1).  All derivatives are
    hand-coded by the product rule on the three quadratic factors.
    """

    dim = 2

    @staticmethod
    def _factors(x):
        # column-major, so that each coordinate is contiguous and a per-point
        # factor broadcasts along it (on row-major (K, 2) arrays NumPy loops two
        # elements at a time); x2 - 0.0 keeps a -0.0, so each factor gradient
        # is bitwise the stacked 2(x1 - c1, x2 - c2)
        x = np.asfortranarray(x)
        x1, x2 = x[..., 0], x[..., 1]
        u = x1**2 + x2**2
        v = (x1 - 1.0) ** 2 + x2**2
        w = x1**2 + (x2 - 1.0) ** 2
        return u, v, w, 2.0 * x, 2.0 * (x - _E1), 2.0 * (x - _E2)

    def value(self, x):
        x = _check_finite(x)
        u, v, w, *_ = self._factors(x)
        return u * v * w

    def gradient(self, x):
        x = _check_finite(x)
        u, v, w, gu, gv, gw = self._factors(x)
        return (
            gu * (v * w)[..., None]
            + gv * (u * w)[..., None]
            + gw * (u * v)[..., None]
        )

    @staticmethod
    def _hessian_entries(x):
        # H = 2(uv+uw+vw) I + sym(gu,gv) w + sym(gu,gw) v + sym(gv,gw) u, with
        # sym(a,b) = a b^T + b a^T (each factor's Hessian is 2I); returns the
        # entries h00, h01, h11, each summed in that order
        fu, fv, fw, gu, gv, gw = TripleWell._factors(x)
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
        x = _check_finite(x)
        h00, h01, h11 = self._hessian_entries(x)
        # + 0.0 turns a -0.0 off the diagonal into the +0.0 that the 2sI term
        # of the formula leaves there
        h01 = h01 + 0.0
        out = np.empty(x.shape[:-1] + (2, 2))
        out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = h00, h01, h01, h11
        return out

    def hessian_vector(self, x, v):
        x = _check_finite(x)
        h00, h01, h11 = self._hessian_entries(x)
        v0, v1 = v[..., 0], v[..., 1]
        # row-major like the stacked result it replaces, so that the flow's
        # gradient and its norm keep their summation order
        out = np.empty(x.shape)
        out[..., 0] = h00 * v0 + h01 * v1
        out[..., 1] = h01 * v0 + h11 * v1
        return out

    def laplacian(self, x):
        # its own formula: h00 + h11 from _hessian_entries sums in another
        # order and would move I_eps in the last bit
        x = _check_finite(x)
        u, v, w, gu, gv, gw = self._factors(x)
        dot = lambda a, b: np.sum(a * b, axis=-1)
        return 4.0 * (u * v + u * w + v * w) + 2.0 * (
            dot(gu, gv) * w + dot(gu, gw) * v + dot(gv, gw) * u
        )

    def grad_laplacian(self, x):
        x = _check_finite(x)
        u, v, w, gu, gv, gw = self._factors(x)
        dot = lambda a, b: np.sum(a * b, axis=-1)[..., None]
        uu, vv, ww = u[..., None], v[..., None], w[..., None]
        # grad of 4(uv+uw+vw):
        out = 4.0 * (gu * vv + uu * gv + gu * ww + uu * gw + gv * ww + vv * gw)
        # grad of 2[(gu.gv)w + (gu.gw)v + (gv.gw)u]; each factor Hessian is 2*I
        out += 2.0 * (
            2.0 * (gu + gv) * ww + dot(gu, gv) * gw
            + 2.0 * (gu + gw) * vv + dot(gu, gw) * gv
            + 2.0 * (gv + gw) * uu + dot(gv, gw) * gu
        )
        return out


class DoubleWell1D(PotentialModel):
    """V(x) = (x^2 - 1)^2 / 4 on R, wells at +-1, barrier 1/4 at 0."""

    dim = 1

    def value(self, x):
        x = _check_finite(x)
        return (x[..., 0] ** 2 - 1.0) ** 2 / 4.0

    def gradient(self, x):
        x = _check_finite(x)
        return x**3 - x

    def hessian(self, x):
        x = _check_finite(x)
        return (3.0 * x**2 - 1.0)[..., None]

    def laplacian(self, x):
        x = _check_finite(x)
        return 3.0 * x[..., 0] ** 2 - 1.0

    def grad_laplacian(self, x):
        x = _check_finite(x)
        return 6.0 * x


class Quadratic(PotentialModel):
    """V(x) = |x|^2 / 2 on R^N; single minimum at the origin."""

    def __init__(self, dim: int = 2):
        self.dim = dim

    def value(self, x):
        x = _check_finite(x)
        return 0.5 * np.sum(x**2, axis=-1)

    def gradient(self, x):
        return _check_finite(x).copy()

    def hessian(self, x):
        x = _check_finite(x)
        eye = np.eye(self.dim)
        if x.ndim == 1:
            return eye.copy()
        return np.broadcast_to(eye, (x.shape[0], self.dim, self.dim)).copy()

    def laplacian(self, x):
        x = _check_finite(x)
        return np.full(x.shape[:-1], float(self.dim))

    def grad_laplacian(self, x):
        return np.zeros_like(_check_finite(x))


class CustomPotential(PotentialModel):
    """User-supplied potential from value and gradient callables.

    Hessian/Laplacian/third derivatives come from the finite-difference
    fallbacks of the base class.
    """

    def __init__(self, dim, value_fn, gradient_fn):
        self.dim = dim
        self._value_fn = value_fn
        self._gradient_fn = gradient_fn

    def value(self, x):
        x = _check_finite(x)
        if x.ndim == 1:
            return np.asarray(self._value_fn(x), dtype=float)
        return np.array([self._value_fn(p) for p in x], dtype=float)

    def gradient(self, x):
        x = _check_finite(x)
        if x.ndim == 1:
            return np.asarray(self._gradient_fn(x), dtype=float)
        return np.array([self._gradient_fn(p) for p in x], dtype=float)


@dataclass
class DerivativeReport:
    """Max relative errors of analytic derivatives vs central finite differences."""

    grad_error: float
    hess_error: float
    lap_error: float

    @property
    def max_error(self) -> float:
        return max(self.grad_error, self.hess_error, self.lap_error)


def check_derivatives(p: PotentialModel, probes) -> DerivativeReport:
    """Compare analytic gradient/Hessian/Laplacian against central differences.

    Relative error is measured against 1 + |exact| so that zeros of the exact
    derivative do not blow up the report.
    """
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    if probes.shape[0] < 1:
        raise ValueError("need at least one probe point")
    ge, he, le = 0.0, 0.0, 0.0
    for x in probes:
        g_fd = _central_differences(p.value, x)
        h_fd = _central_differences(p.gradient, x)
        h_fd = 0.5 * (h_fd + h_fd.T)
        g, hs, lp = p.gradient(x), p.hessian(x), p.laplacian(x)
        ge = max(ge, np.max(np.abs(g - g_fd)) / (1.0 + np.max(np.abs(g))))
        he = max(he, np.max(np.abs(hs - h_fd)) / (1.0 + np.max(np.abs(hs))))
        le = max(le, abs(lp - np.trace(h_fd)) / (1.0 + abs(lp)))
    return DerivativeReport(ge, he, le)


_BUILTINS = {
    "triple-well": TripleWell,
    "double-well-1d": DoubleWell1D,
    "quadratic": Quadratic,
}


def get_potential(name: str) -> PotentialModel:
    """Look up a built-in potential by CLI name."""
    try:
        return _BUILTINS[name]()
    except KeyError:
        raise ValueError(f"unknown potential {name!r}; choices: {sorted(_BUILTINS)}")

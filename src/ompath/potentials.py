"""Analytic test potentials with exact derivatives.

Every potential exposes value, gradient, Hessian, Laplacian and the gradient
of the Laplacian (third derivatives, needed by the full action gradient).
Evaluators accept a single point of shape (N,) or a batch of shape (K, N)
and broadcast accordingly.  All evaluators are pure and re-entrant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class DomainError(ValueError):
    """Raised when an evaluator is handed a non-finite point."""


def _check_finite(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    # count_nonzero goes straight to C; np.all's Python-level dispatch costs a
    # small batch several times the test itself
    if np.count_nonzero(np.isfinite(x)) != x.size:
        raise DomainError("non-finite input point")
    return x


def _central_differences(f, x: np.ndarray) -> np.ndarray:
    """Central differences of f at each row x_k of the (K, N) batch x, step 1e-5*(1+|x_k|),
    from one call of f on all 2KN displaced points: out[k, j] is along axis j at x_k."""
    # |x_k| by one dot per contiguous row, as np.linalg.norm takes it, to the
    # bit: a strided row of five or more sums in another order
    x = np.ascontiguousarray(x)
    k, n = x.shape
    h = 1e-5 * (1.0 + np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0]))
    e = h[:, None, None] * np.eye(n)
    d = np.asarray(f(np.concatenate([x[:, None] + e, x[:, None] - e]).reshape(-1, n)))
    d = d.reshape((2, k, n) + d.shape[1:])
    return (d[0] - d[1]) / (2 * h).reshape((k,) + (1,) * (d.ndim - 2))


class PotentialModel:
    """Base class: a smooth potential on R^N.

    Subclasses must provide ``value`` and ``gradient``.  ``hessian``,
    ``laplacian`` and ``grad_laplacian`` fall back to central finite
    differences with step 1e-5*(1+|x|) on the whole batch, one ``gradient``
    call each, whatever the number of points.  ``hessian_vector`` contracts
    ``hessian``; the path flow calls it once per step, so a subclass with
    a cheaper closed form should override it.
    """

    dim: int = 0
    # the critical points the command line and the figures name, by name: each
    # potential class lists its own, none by default
    NAMED_POINTS: dict[str, tuple] = {}

    def value(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def gradient(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def point_gradient(self, x: list) -> list:
        """``gradient`` at one point, as floats from floats, for the stages of
        a gradient shot; override it with a float formula of the same bits."""
        return self.gradient(np.array(x)).tolist()

    def hessian(self, x: np.ndarray) -> np.ndarray:
        x = _check_finite(x)
        d = _central_differences(self.gradient, x.reshape(-1, self.dim))
        return (0.5 * (d + d.swapaxes(1, 2))).reshape(x.shape[:-1] + (self.dim, self.dim))

    def hessian_vector(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Hessian times v at each point; override to skip the full Hessian."""
        return np.einsum("...ij,...j->...i", self.hessian(x), v)

    def laplacian(self, x: np.ndarray) -> np.ndarray:
        return np.trace(self.hessian(x), axis1=-2, axis2=-1)

    def grad_laplacian(self, x: np.ndarray) -> np.ndarray:
        x = _check_finite(x)
        return _central_differences(self.laplacian, x.reshape(-1, self.dim)).reshape(x.shape)


def _pair(c0, c1) -> np.ndarray:
    """The columns c0, c1 as one column-major (..., 2) array."""
    out = np.empty(np.shape(c0) + (2,), order="F")
    out[..., 0], out[..., 1] = c0, c1
    return out


_SQ2 = np.sqrt(2.0)


class TripleWell(PotentialModel):
    """Product-of-three-quadratics potential on R^2.

    V(x1, x2) = (x1^2 + x2^2) ((x1-1)^2 + x2^2) (x1^2 + (x2-1)^2)

    Three wells of equal depth at (0,0), (1,0), (0,1); two saddles on the
    symmetry line of the swap (x1, x2) -> (x2, x1).  All derivatives are
    hand-coded by the product rule on the three quadratic factors.
    """

    dim = 2
    NAMED_POINTS = {
        "M0": (0.0, 0.0),
        "M1": (1.0, 0.0),
        "M2": (0.0, 1.0),
        "S1": ((2.0 + _SQ2) / 6.0, (2.0 - _SQ2) / 6.0),
        "S2": ((2.0 - _SQ2) / 6.0, (2.0 + _SQ2) / 6.0),
    }

    @staticmethod
    def _columns(x):
        # the factors u, v, w and the four distinct columns of their gradients,
        # gu = (a, b), gv = (c, b), gw = (a, d): the stacked 2(x - e_i) bitwise, as
        # x2 - 0.0 keeps a -0.0.  Column-major, so one op covers both coordinates.
        x = np.asfortranarray(x)
        sq, e = x * x, x - 1.0
        esq = e * e
        g, ge = 2.0 * x, 2.0 * e
        sq1, sq2 = sq[..., 0], sq[..., 1]
        u = sq1 + sq2
        v = esq[..., 0] + sq2
        w = sq1 + esq[..., 1]
        return u, v, w, g[..., 0], g[..., 1], ge[..., 0], ge[..., 1]

    @staticmethod
    def _gradient_columns(u, v, w, a, b, c, d):
        vw, uw, uv = v * w, u * w, u * v
        return a * vw + c * uw + a * uv, b * vw + b * uw + d * uv

    def value(self, x):
        x = _check_finite(x)
        u, v, w, *_ = self._columns(x)
        return u * v * w

    def gradient(self, x):
        x = _check_finite(x)
        return _pair(*self._gradient_columns(*self._columns(x)))

    def point_gradient(self, x):
        # _columns and gradient at one point, operation for operation, on
        # floats: about 0.6 us a call, against 15 us or more for any array call
        x1, x2 = x
        if not (math.isfinite(x1) and math.isfinite(x2)):
            raise DomainError("non-finite input point")
        sq1, sq2, e1, e2 = x1 * x1, x2 * x2, x1 - 1.0, x2 - 1.0
        u, v, w = sq1 + sq2, e1 * e1 + sq2, sq1 + e2 * e2
        return self._gradient_columns(u, v, w, 2.0 * x1, 2.0 * x2, 2.0 * e1, 2.0 * e2)

    @staticmethod
    def _hessian_entries(x):
        # H = 2sI + sym(gu,gv) w + sym(gu,gw) v + sym(gv,gw) u, s = uv + uw + vw,
        # sym(p,q) = p q^T + q p^T; h00, h01, h11 each summed in that order.  As
        # p*q == q*p and t + t == 2t, a diagonal entry of sym is a doubled product.
        u, v, w, a, b, c, d = TripleWell._columns(x)
        s2 = 2.0 * (u * v + u * w + v * w)
        ac2, bd2 = 2.0 * (a * c), 2.0 * (b * d)
        ab = a * b
        h00 = s2 + ac2 * w + 2.0 * (a * a) * v + ac2 * u
        h01 = (ab + c * b) * w + (a * d + ab) * v + (c * d + ab) * u
        h11 = s2 + 2.0 * (b * b) * w + bd2 * v + bd2 * u
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
        return _pair(h00 * v0 + h01 * v1, h01 * v0 + h11 * v1)

    @staticmethod
    def _dots(a, b, c, d):  # gu.gv, gu.gw, gv.gw
        ac, bd = a * c, b * d
        return ac + b * b, a * a + bd, ac + bd

    def laplacian(self, x):
        # its own formula: h00 + h11 from _hessian_entries sums in another
        # order and would move I_eps in the last bit
        x = _check_finite(x)
        u, v, w, a, b, c, d = self._columns(x)
        duv, duw, dvw = self._dots(a, b, c, d)
        return 4.0 * (u * v + u * w + v * w) + 2.0 * (duv * w + duw * v + dvw * u)

    def grad_laplacian(self, x):
        # grad of 4(uv+uw+vw) plus grad of 2[(gu.gv)w + (gu.gw)v + (gv.gw)u];
        # each factor Hessian is 2I
        x = _check_finite(x)
        u, v, w, a, b, c, d = self._columns(x)
        duv, duw, dvw = self._dots(a, b, c, d)
        # 2(gu + gv), 2(gu + gw), 2(gv + gw) on the four columns; 2(a + a) is 4a
        sac, sbd, bw = 2.0 * (a + c), 2.0 * (b + d), b * w
        col0 = 4.0 * (a * v + u * c + a * w + u * a + c * w + v * a) + 2.0 * (
            sac * w + duv * a + 4.0 * a * v + duw * c + sac * u + dvw * a
        )
        col1 = 4.0 * (b * v + u * b + bw + u * d + bw + v * d) + 2.0 * (
            4.0 * b * w + duv * d + sbd * v + duw * b + sbd * u + dvw * b
        )
        return _pair(col0, col1)


class DoubleWell1D(PotentialModel):
    """V(x) = (x^2 - 1)^2 / 4 on R, wells at +-1, barrier 1/4 at 0."""

    dim = 1
    NAMED_POINTS = {"Mminus": (-1.0,), "S": (0.0,), "Mplus": (1.0,)}

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
        return np.broadcast_to(np.eye(self.dim), x.shape[:-1] + (self.dim, self.dim)).copy()

    def laplacian(self, x):
        x = _check_finite(x)
        return np.full(x.shape[:-1], float(self.dim))

    def grad_laplacian(self, x):
        return np.zeros_like(_check_finite(x))


class CustomPotential(PotentialModel):
    """User-supplied potential from callables on (K, N) batches of K points:
    ``value_fn`` returns shape (K,) and ``gradient_fn`` shape (K, N); a single
    point goes in as a batch of one.  Hessian/Laplacian/third derivatives come
    from the finite-difference fallbacks of the base class."""

    def __init__(self, dim, value_fn, gradient_fn):
        self.dim = dim
        self._value_fn = value_fn
        self._gradient_fn = gradient_fn

    def _call(self, fn, x, tail):
        x = _check_finite(x)
        batch = x.reshape(-1, self.dim)
        out = np.asarray(fn(batch), dtype=float)
        if out.shape != batch.shape[:1] + tail:
            raise ValueError(
                "value_fn and gradient_fn take a (K, N) batch and return shapes (K,) "
                f"and (K, N): got {out.shape} for a batch of shape {batch.shape}"
            )
        return out.reshape(x.shape[:-1] + tail)

    def value(self, x):
        return self._call(self._value_fn, x, ())

    def gradient(self, x):
        return self._call(self._gradient_fn, x, (self.dim,))


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
        g_fd = _central_differences(p.value, x[None])[0]
        h_fd = PotentialModel.hessian(p, x)  # the fallback, whatever p overrides
        g, hs, lp = p.gradient(x), p.hessian(x), p.laplacian(x)
        ge = max(ge, np.max(np.abs(g - g_fd)) / (1.0 + np.max(np.abs(g))))
        he = max(he, np.max(np.abs(hs - h_fd)) / (1.0 + np.max(np.abs(hs))))
        le = max(le, abs(lp - np.trace(h_fd)) / (1.0 + abs(lp)))
    return DerivativeReport(ge, he, le)


_BUILTINS = {"triple-well": TripleWell, "double-well-1d": DoubleWell1D, "quadratic": Quadratic}


def get_potential(name: str) -> PotentialModel:
    """Look up a built-in potential by CLI name."""
    try:
        return _BUILTINS[name]()
    except KeyError:
        raise ValueError(f"unknown potential {name!r}; choices: {sorted(_BUILTINS)}")

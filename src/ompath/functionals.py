"""Discrete action functionals on paths and their exact node gradients.

The kinetic term uses forward differences, the pointwise terms the composite
trapezoid rule, so the discrete objective is exactly differentiable and its
stiff part is a symmetric tridiagonal second-difference operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .paths import DiscretePath
from .potentials import PotentialModel


@dataclass
class FunctionalReport:
    """Value of the temperature-eps action split into its three pieces.

    The decomposition ``i_eps == j_eps - laplacian_term`` holds exactly as
    computed (same quadrature nodes for every term).
    """

    i_eps: float
    j_eps: float
    kinetic: float
    force: float
    laplacian_term: float
    eps: float

    def to_dict(self) -> dict:
        return {
            "I_eps": self.i_eps,
            "J_eps": self.j_eps,
            "kinetic": self.kinetic,
            "force": self.force,
            "laplacian_term": self.laplacian_term,
            "eps": self.eps,
        }


@lru_cache(maxsize=8)
def _trapezoid_weights(n_nodes: int) -> np.ndarray:
    w = np.ones(n_nodes)
    w[0] = w[-1] = 0.5
    w.flags.writeable = False
    return w


def _check(eps: float, objective: str = "I") -> None:
    if not 0.0 < eps < np.inf:
        raise ValueError(f"eps must be positive and finite, not {eps!r}")
    if objective not in ("I", "J"):
        raise ValueError("objective must be 'I' or 'J'")


def row_sumsq(x: np.ndarray) -> np.ndarray:
    """Sum of squares over the last axis, added column by column from the left
    whatever the memory order of x; for N <= 2 it is np.sum(x * x, axis=-1)."""
    s = x[..., 0] * x[..., 0]
    for j in range(1, x.shape[-1]):
        s = s + x[..., j] * x[..., j]
    return s


def _terms(p: PotentialModel, path: DiscretePath, eps: float, laplacian: bool) -> tuple:
    """The kinetic, trapezoid-force and Laplacian terms of the action (the
    last 0.0 unless ``laplacian``), and grad V at every node."""
    x = path.nodes
    h = path.h
    dx = x[1:] - x[:-1]
    kinetic = (eps / (2.0 * h)) * float((dx * dx).sum())
    g = p.gradient(x)
    w = _trapezoid_weights(x.shape[0])
    force = (h / (2.0 * eps)) * float((w * row_sumsq(g)).sum())
    lap = h * float(np.sum(w * p.laplacian(x))) if laplacian else 0.0
    return kinetic, force, lap, g


def eval_I(p: PotentialModel, path: DiscretePath, eps: float) -> FunctionalReport:
    """Evaluate the action at temperature eps on a discrete path."""
    _check(eps)
    kinetic, force, lap, _ = _terms(p, path, eps, laplacian=True)
    j_eps = kinetic + force
    return FunctionalReport(
        i_eps=j_eps - lap,
        j_eps=j_eps,
        kinetic=kinetic,
        force=force,
        laplacian_term=lap,
        eps=eps,
    )


def grad_objective(
    p: PotentialModel,
    path: DiscretePath,
    eps: float,
    objective: str = "I",
    *,
    grad_v: np.ndarray | None = None,
    kin: np.ndarray | None = None,
) -> np.ndarray:
    """Exact gradient of the discrete objective w.r.t. the interior nodes.

    objective "I" includes the third-derivative term from the Laplacian;
    objective "J" drops it.  Shape (M-1, N).  ``grad_v``, if given, is
    grad V at the interior nodes (rows 1..M-1 of what ``eval_objective``
    returns) and is not computed again; so is ``kin``, the kinetic part
    ``(eps/h) (2 x_i - x_{i-1} - x_{i+1})``.

    The result is row-major, so a reduction in memory order over it (such as
    ``np.linalg.norm``) sums as it always has; with ``kin`` handed in it takes
    the layout of ``kin`` and the kernels, which saves the flow a transpose.
    """
    _check(eps, objective)
    x = path.nodes
    h = path.h
    xi = x[1:-1]
    g = p.gradient(xi) if grad_v is None else grad_v
    nonstiff = (h / eps) * p.hessian_vector(xi, g)
    if objective == "I":
        nonstiff = nonstiff - h * p.grad_laplacian(xi)
    if kin is None:
        return np.add((eps / h) * (2.0 * xi - x[:-2] - x[2:]), nonstiff, order="C")
    return kin + nonstiff


def eval_objective(
    p: PotentialModel,
    path: DiscretePath,
    eps: float,
    objective: str = "I",
) -> tuple[float, np.ndarray]:
    """The objective matching grad_objective, bitwise equal to the matching
    field of ``eval_I``, and grad V at every node; objective "J" skips the
    Laplacian."""
    _check(eps, objective)
    kinetic, force, lap, g = _terms(p, path, eps, laplacian=objective == "I")
    return kinetic + force - lap, g

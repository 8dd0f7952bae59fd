"""Critical-point search and classification.

Damped Newton on grad V = 0 from grid seeds inside an axis-aligned box,
followed by merging of duplicates and eigenvalue classification with the
exact analytic Hessian.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .potentials import PotentialModel


class NoCriticalPointsError(RuntimeError):
    """The grid search produced no converged critical points."""


@dataclass
class CriticalPoint:
    """A located zero of grad V with its classification data."""

    location: np.ndarray
    value: float
    laplacian: float
    eigenvalues: np.ndarray  # sorted ascending
    index: int  # number of negative Hessian eigenvalues; a saddle has index >= 1
    residual: float  # |grad V| at the location

    def to_dict(self) -> dict:
        return {
            "location": self.location.tolist(),
            "value": self.value,
            "laplacian": self.laplacian,
            "eigenvalues": self.eigenvalues.tolist(),
            "index": self.index,
            "residual": self.residual,
        }


@dataclass
class CriticalPointSet:
    points: list[CriticalPoint] = field(default_factory=list)

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i):
        return self.points[i]

    @property
    def separation(self) -> float:
        """Minimum pairwise distance between the located points."""
        if len(self.points) < 2:
            return np.inf
        locs = np.array([p.location for p in self.points])
        d = np.linalg.norm(locs[:, None] - locs[None, :], axis=-1)
        return float(np.min(d[np.triu_indices(len(locs), 1)]))

    def nearest(self, x) -> tuple[int, float]:
        """Index of the nearest point to x and the distance to it."""
        x = np.asarray(x, dtype=float)
        d = [np.linalg.norm(p.location - x) for p in self.points]
        i = int(np.argmin(d))
        return i, float(d[i])


def classify_point(p: PotentialModel, x) -> CriticalPoint:
    """Build the classification record at a (putative) zero of grad V."""
    x = np.asarray(x, dtype=float)
    eig = np.sort(np.linalg.eigvalsh(p.hessian(x)))
    return CriticalPoint(
        location=x,
        value=float(p.value(x)),
        laplacian=float(p.laplacian(x)),
        eigenvalues=eig,
        index=int(np.sum(eig < 0.0)),
        residual=float(np.linalg.norm(p.gradient(x))),
    )


# Newton stops once |grad V| <= RESIDUAL_TOL or after NEWTON_ITER steps; points
# closer than MERGE_TOL are one point
RESIDUAL_TOL = 1e-10
NEWTON_ITER = 100
MERGE_TOL = 1e-6


def _newton_batch(p: PotentialModel, seeds):
    """Damped Newton on grad V = 0, run on all seeds at once.

    Armijo backtracking on |grad V|^2; pseudo-inverse Newton steps keep
    near-singular Hessians alive.  Returns (points, converged_mask); seeds
    that stagnate are reported unconverged and dropped by the caller.
    """
    x = np.array(seeds, dtype=float)
    g = p.gradient(x)
    phi = np.sum(g * g, axis=-1)
    alive = np.ones(len(x), dtype=bool)
    for _ in range(NEWTON_ITER):
        active = alive & (np.sqrt(phi) > RESIDUAL_TOL)
        if not np.any(active):
            break
        H = p.hessian(x[active])
        step = -np.einsum("kij,kj->ki", np.linalg.pinv(H), g[active])
        bad = ~np.all(np.isfinite(step), axis=-1)
        t = np.ones(step.shape[0])
        done = bad.copy()
        xa, ga, pa = x[active].copy(), g[active].copy(), phi[active].copy()
        for _ in range(40):
            if np.all(done):
                break
            trial = xa + t[:, None] * step
            gt = p.gradient(trial)
            pt = np.sum(gt * gt, axis=-1)
            ok = ~done & np.isfinite(pt) & (pt <= pa * (1.0 - 1e-4 * t))
            xa[ok], ga[ok], pa[ok] = trial[ok], gt[ok], pt[ok]
            done |= ok
            t[~done] *= 0.5
        # seeds with no decrease along the Newton direction are abandoned
        idx = np.flatnonzero(active)
        stalled = idx[~done]
        alive[stalled] = False
        moved = idx[done]
        x[moved], g[moved], phi[moved] = xa[done], ga[done], pa[done]
    converged = alive & (np.sqrt(phi) <= RESIDUAL_TOL)
    return x, converged


def _distinct_in_box(xs: np.ndarray, converged: np.ndarray, box: np.ndarray) -> list:
    """The converged seeds inside the box, in seed order, each dropped when an
    earlier one kept lies within MERGE_TOL of it.

    A greedy over arrays: the first remaining seed is kept, and every
    remaining seed within MERGE_TOL of it is dropped.  It loops once per
    point kept, not once per seed.
    """
    outside = np.any(xs < box[:, 0], axis=1) | np.any(xs > box[:, 1], axis=1)
    rest = xs[converged & ~outside]
    found = []
    while len(rest):
        found.append(rest[0])
        rest = rest[np.linalg.norm(rest - rest[0], axis=1) > MERGE_TOL]
    return found


def find_critical_points(p: PotentialModel, box, grid_per_axis: int) -> CriticalPointSet:
    """Locate critical points of V inside an axis-aligned box.

    ``box`` is a sequence of (lo, hi) per axis.  Newton runs from every grid
    seed; diverged seeds are dropped, duplicates within MERGE_TOL are
    merged, points outside the box are discarded.
    """
    box = np.asarray(box, dtype=float)
    if box.ndim == 1:
        box = box[None, :]
    if box.shape != (p.dim, 2) or np.any(box[:, 1] <= box[:, 0]):
        raise ValueError("box must be a nondegenerate (dim, 2) array of (lo, hi)")
    if grid_per_axis < 2:
        raise ValueError("grid_per_axis must be >= 2")

    axes = [np.linspace(lo, hi, grid_per_axis) for lo, hi in box]
    seeds = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, p.dim)

    found = _distinct_in_box(*_newton_batch(p, seeds), box)
    if not found:
        raise NoCriticalPointsError("no critical points found in the given box")

    points = [classify_point(p, x) for x in found]
    points.sort(key=lambda c: (c.index, tuple(np.round(c.location, 12))))
    return CriticalPointSet(points)


@dataclass
class AdmissibilityReport:
    """Sampled verification of the admissibility conditions.

    ``coercivity_inf`` is the minimum of |grad V| over a dense sample of
    spheres of radius >= R; a sampled check, not a proof.
    """

    min_abs_eigenvalue: float
    coercivity_inf: float
    radius: float
    admissible: bool


# each sphere is sampled at N_SPHERE points (random ones, from SPHERE_SEED,
# beyond two dimensions); admissible means every |Hessian eigenvalue| >=
# EIG_TOL and the sampled inf |grad V| > COERCIVITY_TOL
N_SPHERE = 10_000
SPHERE_SEED = 0
EIG_TOL = 1e-8
COERCIVITY_TOL = 1e-3


def check_admissibility(p: PotentialModel, cps: CriticalPointSet, R: float) -> AdmissibilityReport:
    """Report on nondegeneracy and sampled weak coercivity."""
    if len(cps) == 0:
        raise ValueError("critical point set must be nonempty")
    min_eig = min(float(np.min(np.abs(c.eigenvalues))) for c in cps)

    rng = np.random.default_rng(SPHERE_SEED)
    inf_grad = np.inf
    for radius in (R, 1.5 * R, 2.0 * R, 4.0 * R):
        if p.dim == 1:
            pts = np.array([[-radius], [radius]])
        elif p.dim == 2:
            th = np.linspace(0.0, 2.0 * np.pi, N_SPHERE, endpoint=False)
            pts = radius * np.stack([np.cos(th), np.sin(th)], axis=-1)
        else:
            u = rng.standard_normal((N_SPHERE, p.dim))
            pts = radius * u / np.linalg.norm(u, axis=1, keepdims=True)
        gn = np.linalg.norm(p.gradient(pts), axis=-1)
        inf_grad = min(inf_grad, float(np.min(gn)))

    admissible = min_eig >= EIG_TOL and inf_grad > COERCIVITY_TOL
    return AdmissibilityReport(
        min_abs_eigenvalue=min_eig,
        coercivity_inf=inf_grad,
        radius=R,
        admissible=admissible,
    )

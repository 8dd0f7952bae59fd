"""Critical-point search and classification.

Damped Newton on grad V = 0 from grid seeds inside an axis-aligned box,
followed by merging of duplicates and eigenvalue classification with the
exact analytic Hessian.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .functionals import row_sumsq
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

    def nearest(self, x) -> tuple[int, float]:
        """Index of the nearest point to x and the distance to it.  A NaN
        coordinate is at a NaN distance from every point, and the index is 0;
        a distance beyond the largest float reads inf."""
        locs = np.array([c.location for c in self.points])
        with np.errstate(over="ignore"):
            d = np.linalg.norm(locs - np.asarray(x, dtype=float), axis=-1)
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
# closer than MERGE_TOL are one point.  Backtracking tries each step size in turn.
RESIDUAL_TOL = 1e-10
NEWTON_ITER = 100
MERGE_TOL = 1e-6
COND_TOL = 1e-8
STEP_SIZES = 0.5 ** np.arange(40)
# a 2 x 2 Hessian whose |det| is further than BAND |H|_F^2 + 1e-300 from COND_TOL |H|_F^2 is decided from
# its entries: BAND is 32 ulp, and the closed form and np.linalg.det part by a few ulp at most (0.8 seen)
BAND = 2.0**-48


@np.errstate(over="ignore", invalid="ignore")
def _newton_step(H: np.ndarray, g: np.ndarray) -> np.ndarray:
    """-H^+ g for each row.  A Hessian with |det H| > COND_TOL |H|_F^N has
    sigma_min / sigma_max > COND_TOL, so pinv's 1e-15 cutoff would truncate
    nothing: it is solved by LU, which may differ from pinv in the last bit.
    Every other Hessian, singular or near it, takes the pseudo-inverse.  In 2-D
    the test is made on h00 h11 - h01 h10 and the squares of the entries, and
    by np.linalg.det only within BAND of the threshold or where a product or
    square is not finite, so every row takes the determinant's branch.  An
    overflow reads inf, and inf - inf NaN, without a warning."""
    lu, near = np.zeros(len(H), dtype=bool), np.ones(len(H), dtype=bool)
    if H.shape[-1] == 2:
        h00, h01, h10, h11 = H.reshape(-1, 4).T
        fro2 = h00 * h00 + h01 * h01 + h10 * h10 + h11 * h11
        margin = np.abs(h00 * h11 - h01 * h10) - COND_TOL * fro2
        lu, near = margin > 0.0, ~(np.abs(margin) > BAND * fro2 + 1e-300)
    if near.any():
        A = H if near.all() else H[near]
        lu[near] = np.abs(np.linalg.det(A)) > COND_TOL * np.linalg.norm(A, axis=(1, 2)) ** H.shape[-1]
    if lu.all():
        return -np.linalg.solve(H, g[..., None])[..., 0]
    step = np.empty_like(g)
    step[lu] = -np.linalg.solve(H[lu], g[lu, :, None])[..., 0]
    step[~lu] = -np.einsum("kij,kj->ki", np.linalg.pinv(H[~lu]), g[~lu])
    return step


@np.errstate(over="ignore", invalid="ignore")
def _newton_batch(p: PotentialModel, seeds):
    """Damped Newton on grad V = 0, run on all seeds at once.

    Armijo backtracking on |grad V|^2 takes the first of STEP_SIZES that
    decreases it enough, in three gradient calls at most: t = 1 on every seed,
    t = 1/2 on the seeds t = 1 rejects, and the other 38 t at once on the seeds
    t = 1/2 rejects.  Each t is an exact power of two, so every trial point has
    the bits that halving t one round at a time gives.  An overflow reads inf
    without a warning.  Returns (points, converged_mask); seeds that stagnate
    are reported unconverged and dropped by the caller.
    """
    x = np.array(seeds, dtype=float)
    g = p.gradient(x)
    phi = row_sumsq(g)
    alive = np.ones(len(x), dtype=bool)
    for _ in range(NEWTON_ITER):
        idx = np.flatnonzero(alive & (np.sqrt(phi) > RESIDUAL_TOL))
        if not len(idx):
            break
        step = _newton_step(p.hessian(x[idx]), g[idx])
        # seeds with no finite step, or no decrease along it, are abandoned
        finite = functools.reduce(np.logical_and, np.isfinite(step).T)
        if not finite.all():
            alive[idx[~finite]] = False
            idx, step = idx[finite], step[finite]
        for t in (STEP_SIZES[:1], STEP_SIZES[1:2], STEP_SIZES[2:]):
            if not len(idx):
                break
            trial = x[idx, None] + t[:, None] * step[:, None]
            gt = p.gradient(trial.reshape(-1, x.shape[1])).reshape(trial.shape)
            pt = row_sumsq(gt)
            ok = np.isfinite(pt) & (pt <= phi[idx, None] * (1.0 - 1e-4 * t))
            k = np.argmax(ok, axis=1)
            hit = ok[np.arange(len(idx)), k]
            moved, k = idx[hit], k[hit]
            x[moved], g[moved], phi[moved] = trial[hit, k], gt[hit, k], pt[hit, k]
            idx, step = idx[~hit], step[~hit]
        alive[idx] = False
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

    ``box`` is a sequence of (lo, hi) per axis, with finite edges and widths.
    Newton runs from every grid seed; diverged seeds are dropped, duplicates
    within MERGE_TOL are merged, points outside the box are discarded.
    """
    box = np.asarray(box, dtype=float)
    if box.ndim == 1:
        box = box[None, :]
    # a NaN or infinite edge makes a width non-finite too
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.all(np.isfinite(np.diff(box, axis=-1))):
            raise ValueError(f"box edges and widths must be finite, not {box.tolist()}")
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
    # by index, then by coordinates; coordinates within MERGE_TOL of each other
    # are equal, each sorting as the least of them, whatever bits Newton stopped on
    locs = np.array(found)
    near = np.abs(locs[:, None] - locs[None]) <= MERGE_TOL
    snapped = np.where(near, locs[None], np.inf).min(axis=1)
    order = sorted(range(len(points)), key=lambda k: (points[k].index, *snapped[k]))
    return CriticalPointSet([points[k] for k in order])


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
    """Report on nondegeneracy and sampled weak coercivity.  A radius at which
    a sampled point or |grad V| is not a finite float raises ValueError."""
    if not 0.0 < R < np.inf:
        raise ValueError(f"radius must be positive and finite, not {R!r}")
    if len(cps) == 0:
        raise ValueError("critical point set must be nonempty")
    min_eig = min(float(np.min(np.abs(c.eigenvalues))) for c in cps)

    rng = np.random.default_rng(SPHERE_SEED)
    inf_grad = np.inf
    for radius in (R, 1.5 * R, 2.0 * R, 4.0 * R):
        with np.errstate(over="ignore", invalid="ignore"):
            if p.dim == 1:
                pts = np.array([[-radius], [radius]])
            elif p.dim == 2:
                th = np.linspace(0.0, 2.0 * np.pi, N_SPHERE, endpoint=False)
                pts = radius * np.stack([np.cos(th), np.sin(th)], axis=-1)
            else:
                u = rng.standard_normal((N_SPHERE, p.dim))
                pts = radius * u / np.linalg.norm(u, axis=1, keepdims=True)
            gn = np.linalg.norm(p.gradient(pts), axis=-1) if np.all(np.isfinite(pts)) else pts
        if not np.all(np.isfinite(gn)):
            where = f"a point or |grad V| sampled at radius {radius!r}"
            raise ValueError(f"radius {R!r} cannot be checked: {where} is not finite")
        inf_grad = min(inf_grad, float(np.min(gn)))

    admissible = min_eig >= EIG_TOL and inf_grad > COERCIVITY_TOL
    return AdmissibilityReport(
        min_abs_eigenvalue=min_eig,
        coercivity_inf=inf_grad,
        radius=R,
        admissible=admissible,
    )

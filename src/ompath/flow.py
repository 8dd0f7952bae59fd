"""L2 gradient flow on path space, discretized linearly implicitly.

Each step treats the stiff second-difference part of the action gradient
implicitly (one SPD tridiagonal solve per spatial component) and every
potential-derivative term explicitly.  The stepsize controller rejects any
step that fails to decrease the objective.
"""

from __future__ import annotations

import csv
import ctypes
import functools
import glob
import io
import os
from array import array
from dataclasses import dataclass, field, replace

import numpy as np

from .functionals import _check, eval_objective, grad_objective
from .paths import DiscretePath
from .potentials import PotentialModel


class NonFiniteObjectiveError(RuntimeError):
    """The objective became non-finite during the flow."""


# a rejected trial multiplies the step by SHRINK, an accepted one by GROW, up
# to TAU_MAX
SHRINK = 0.5
GROW = 1.2
TAU_MAX = 1e3


@dataclass
class FlowConfig:
    """Settings of one flow; the defaults are those of every command and figure."""

    objective: str = "I"  # "I" or "J"
    eps: float = 1e-3
    tau0: float = 1e-3
    grad_tol: float = 1e-6  # L2 norm of the discrete gradient density
    max_iter: int = 30_000

    def __post_init__(self):
        _check(self.eps, self.objective)
        if not 0.0 < self.tau0 < np.inf:
            raise ValueError(f"tau0 must be positive and finite, not {self.tau0!r}")
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be >= 0, not {self.max_iter!r}")
        if not self.grad_tol >= 0:
            raise ValueError(f"grad_tol must be >= 0, not {self.grad_tol!r}")


@dataclass
class FlowTrace:
    """Per-trial record of the flow; accepted objective values never increase.

    The five per-trial fields are typed arrays (8 bytes a value, 1 for
    ``accepted``), so long traces stay small; use ``list(...)`` for JSON.
    """

    iterations: array = field(default_factory=lambda: array("q"))
    objectives: array = field(default_factory=lambda: array("d"))
    steps: array = field(default_factory=lambda: array("d"))
    grad_norms: array = field(default_factory=lambda: array("d"))
    accepted: array = field(default_factory=lambda: array("b"))
    converged: bool = False
    stop_reason: str = ""

    def record(self, it, obj, tau, gnorm, ok):
        self.iterations.append(it)
        self.objectives.append(obj)
        self.steps.append(tau)
        self.grad_norms.append(gnorm)
        # bool: obj <= obj of NumPy floats is a numpy.bool, which array("b") refuses
        self.accepted.append(bool(ok))

    @property
    def accepted_objectives(self) -> list:
        return [o for o, ok in zip(self.objectives, self.accepted) if ok]

    @property
    def final_objective(self) -> float:
        acc = self.accepted_objectives
        return acc[-1] if acc else np.nan

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["iteration", "objective", "step", "gradnorm", "accepted"])
        for row in zip(
            self.iterations, self.objectives, self.steps, self.grad_norms, self.accepted
        ):
            w.writerow([row[0], f"{row[1]:.17g}", f"{row[2]:.6g}", f"{row[3]:.6g}", int(row[4])])
        return buf.getvalue()


# NumPy's wheels ship OpenBLAS, whose ILP64 LAPACK symbols are renamed
# scipy_<routine>_64_, in numpy.libs beside the package (Linux, Windows) or in
# .dylibs inside it (macOS); importing numpy has already loaded it
_NUMPY_OPENBLAS = (
    os.path.join(os.pardir, "numpy.libs", "libscipy_openblas64_*"),
    os.path.join(".dylibs", "libscipy_openblas64_*"),
)


@functools.cache
def _dptsv():
    """LAPACK's dptsv as ``(d, e, b) -> (x, info)``, looked up at the first
    solve: the routine in the OpenBLAS that NumPy ships, called through
    ctypes, else SciPy's wrapper of it.  Either one takes contiguous float64
    ``d`` (n,) and ``e`` (n-1,), overwritten with the factorisation, and a
    writable column-major float64 ``b`` (n,) or (n, k), solved in place."""
    root = os.path.dirname(np.__file__)
    for pattern in _NUMPY_OPENBLAS:
        for path in sorted(glob.glob(os.path.join(root, pattern))):
            try:
                fn = ctypes.CDLL(path).scipy_dptsv_64_
            except (OSError, AttributeError):
                continue
            i64, f8 = ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_double)
            fn.argtypes = [i64, i64, f8, f8, f8, i64, i64]
            fn.restype = None
            return functools.partial(_numpy_dptsv, fn)
    return _scipy_dptsv


def _numpy_dptsv(fn, d, e, b):
    # ctypes passes each c_int64, and each c_double view of an array's
    # buffer, by reference; such a view costs a third of ndarray.ctypes.
    # LAPACK reads no e when n = 1, so d stands in for the empty e.  The
    # integers are made per call: concurrent solves share none of them.
    view = ctypes.c_double.from_buffer
    n, info = ctypes.c_int64(len(d)), ctypes.c_int64()
    vd = view(d)
    fn(n, ctypes.c_int64(b.size // len(d)), vd, view(e) if len(e) else vd, view(b.T), n, info)
    return b, info.value


def _scipy_dptsv(d, e, b):
    from scipy.linalg.lapack import dptsv

    # f2py wants an e of length 1 or more; LAPACK reads none of it when n = 1
    _, _, x, info = dptsv(
        d, e if len(e) else np.zeros(1), b, overwrite_d=True, overwrite_e=True, overwrite_b=True
    )
    return x, info


_FLOAT64 = np.dtype(np.float64)


def _lapack_ready(a: np.ndarray, order: str) -> np.ndarray:
    """``a`` itself if LAPACK may read and write it as a float64 array in the
    given memory order, else a copy in that layout."""
    f = a.flags
    if a.dtype is _FLOAT64 and f.behaved and (f.c_contiguous if order == "C" else f.f_contiguous):
        return a
    return np.array(a, dtype=np.float64, order=order)


def solveh_banded(ab: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the SPD tridiagonal system in upper banded form ``ab`` (2, n)
    for the right-hand sides ``b`` (n,) or (n, k), n, k >= 1; ``ab`` and
    ``b`` may be overwritten.

    It hands LAPACK's dptsv the diagonal ``ab[1]`` and the superdiagonal
    ``ab[0, 1:]``, the routine and the values ``scipy.linalg.solveh_banded``
    passes for two bands, so the solution is bitwise the same.  The routine
    is the one in the OpenBLAS that NumPy's wheel ships and has loaded;
    without it, SciPy's (``scipy.linalg`` then loads at the first call).
    A row-major float64 ``ab`` and a column-major float64 ``b`` are solved
    in place; any other is copied to that layout first.
    Shapes that do not match raise ValueError, and a matrix that is not
    positive definite raises NonFiniteObjectiveError.
    """
    ab, b = np.asarray(ab), np.asarray(b)
    n = ab.shape[-1] if ab.ndim == 2 and len(ab) == 2 else 0
    if n < 1 or b.ndim not in (1, 2) or len(b) != n or b.size == 0:
        raise ValueError(
            "need ab of shape (2, n) and b of shape (n,) or (n, k), n, k >= 1, "
            f"not {ab.shape} and {b.shape}"
        )
    ab = _lapack_ready(ab, "C")
    x, info = _dptsv()(ab[1], ab[0, 1:], _lapack_ready(b, "F"))
    if info != 0:
        raise NonFiniteObjectiveError(f"banded solve failed: LAPACK dptsv returned info {info}")
    return x


def _grad_norm(g: np.ndarray, h: float) -> float:
    # L2 norm of the gradient density g/h: sqrt(h * sum |g/h|^2), summed in
    # row-major order whatever the layout of g, so the same values give the
    # same norm.  A column-major g is laid out row-major a column at a time,
    # which costs a quarter of the copy g.ravel() would make.
    if not g.flags.c_contiguous:
        rows = np.empty(g.shape)
        for j in range(g.shape[1]):
            rows[:, j] = g[:, j]
        g = rows
    return float(np.linalg.norm(g.ravel()) / np.sqrt(h))


@np.errstate(over="ignore", invalid="ignore")
def minimize(
    p: PotentialModel, start: DiscretePath, cfg: FlowConfig
) -> tuple[DiscretePath, FlowTrace]:
    """Descend the discrete objective over interior nodes until the gradient
    norm falls below cfg.grad_tol or cfg.max_iter steps are spent.  A value
    that overflows or turns NaN raises NonFiniteObjectiveError, with no
    RuntimeWarning before it."""
    if start.M < 3:
        raise ValueError("need at least 3 intervals")
    h = start.h
    kappa = cfg.eps / h
    x0, x1 = start.left, start.right
    path = start
    # grad V at the nodes of the current path, from its objective evaluation;
    # its interior rows feed the next grad_objective
    obj, grad_v = eval_objective(p, path, cfg.eps, cfg.objective)
    if not np.isfinite(obj):
        raise NonFiniteObjectiveError("objective non-finite at the starting path")

    # upper banded form of the SPD tridiagonal matrix I + tau*kappa*(second
    # differences); ab[0, 0] lies outside the matrix and stays zero
    ab = np.zeros((2, start.M - 1))
    trace = FlowTrace()
    tau = cfg.tau0
    it = 0
    while it < cfg.max_iter:
        it += 1
        # the stiff part of the gradient, handed to grad_objective and then
        # taken off its result again to leave the explicit part
        x = path.nodes
        x_int = x[1:-1]
        kin = kappa * (2.0 * x_int - x[:-2] - x[2:])
        g = grad_objective(p, path, cfg.eps, cfg.objective, grad_v=grad_v[1:-1], kin=kin)
        gnorm = _grad_norm(g, h)
        if not np.isfinite(gnorm):
            raise NonFiniteObjectiveError(f"gradient non-finite at iteration {it}")
        if gnorm <= cfg.grad_tol:
            trace.converged = True
            trace.stop_reason = "gradient tolerance reached"
            break

        nonstiff = g - kin
        while True:
            rhs = x_int - tau * nonstiff
            rhs[0] += tau * kappa * x0
            rhs[-1] += tau * kappa * x1
            ab[0, 1:] = -tau * kappa
            ab[1, :] = 1.0 + 2.0 * tau * kappa
            # ab and rhs are rebuilt every trial, so LAPACK may work in place
            cand = path.with_interior(solveh_banded(ab, rhs))
            obj_new, grad_v_new = eval_objective(p, cand, cfg.eps, cfg.objective)
            if not np.isfinite(obj_new):
                raise NonFiniteObjectiveError(
                    f"objective non-finite at iteration {it} (tau={tau:.3g})"
                )
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


def continuation_minimize(
    p: PotentialModel,
    start: DiscretePath,
    cfg: FlowConfig,
    eps_schedule,
) -> tuple[DiscretePath, FlowTrace]:
    """Run minimize at each temperature of a decreasing schedule that ends at
    cfg.eps, warm-starting each stage from the previous solution.  Returns the
    last stage's trace."""
    eps_schedule = list(eps_schedule)
    if not eps_schedule:
        raise ValueError("eps_schedule must be nonempty")
    if any(b >= a for a, b in zip(eps_schedule, eps_schedule[1:])):
        raise ValueError("eps_schedule must be strictly decreasing")
    if eps_schedule[-1] != cfg.eps:
        raise ValueError(f"eps_schedule must end at eps {cfg.eps!r}, not {eps_schedule[-1]!r}")
    # every stage's settings are checked before the first stage runs
    stages = [replace(cfg, eps=e) for e in eps_schedule]
    path = start
    trace = None
    for stage in stages:
        path, trace = minimize(p, path, stage)
    return path, trace

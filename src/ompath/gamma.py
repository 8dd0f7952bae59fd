"""The limiting functional on piecewise-constant paths over critical points.

A step path carries its jump cost (transition energies from the graph) and
an exact dwell-weighted Laplacian integral; their difference is the limit
value that small-temperature minimizers approach.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .critical import CriticalPoint
from .functionals import FunctionalReport
from .heteroclinic import TransitionGraph
from .paths import DiscretePath


@dataclass
class BVStepPath:
    """Piecewise-constant path on [0, 1] with values in the critical-point set.

    k jumps at 0 < t_1 < ... < t_k < 1 separate k+1 dwell segments with
    values v_0 .. v_k; consecutive values must differ.
    """

    jump_times: list[float]
    values: list[CriticalPoint]

    def __post_init__(self):
        if len(self.values) != len(self.jump_times) + 1:
            raise ValueError("need exactly one more value than jump times")
        ts = [0.0] + list(self.jump_times) + [1.0]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("jump times must be strictly increasing inside (0, 1)")
        for u, v in zip(self.values, self.values[1:]):
            if np.allclose(u.location, v.location):
                raise ValueError("consecutive values must be distinct")

    @property
    def dwell_durations(self) -> np.ndarray:
        ts = np.array([0.0] + list(self.jump_times) + [1.0])
        return np.diff(ts)

    def to_dict(self) -> dict:
        return {
            "jump_times": list(self.jump_times),
            "values": [v.to_dict() for v in self.values],
        }


@dataclass
class GammaReport:
    """Limit value split into jump cost and dwell Laplacian integral."""

    jump_cost: float
    laplacian_integral: float

    @property
    def i0(self) -> float:
        return self.jump_cost - self.laplacian_integral

    def to_dict(self) -> dict:
        return {
            "jump_cost": self.jump_cost,
            "laplacian_integral": self.laplacian_integral,
            "I0": self.i0,
        }


def eval_I0(graph: TransitionGraph, path: BVStepPath) -> GammaReport:
    """Evaluate the limit functional; the dwell integral is exact for steps.

    Each value must lie within 1e-8 of a critical point of the graph.  A
    missing transition-energy entry makes the jump cost infinite; the
    Laplacian part is still reported.
    """
    idx = []
    for v in path.values:
        i, d = graph.cps.nearest(v.location)
        # "not <=" so that a NaN distance is no match either
        if not d <= 1e-8:
            raise ValueError("step-path values must belong to the graph's node set")
        idx.append(i)
    jump = 0.0
    for i, j in zip(idx, idx[1:]):
        jump += float(graph.phi[i, j])
    lap = float(
        np.sum(path.dwell_durations * np.array([v.laplacian for v in path.values]))
    )
    return GammaReport(jump_cost=jump, laplacian_integral=lap)


# the non-winning dwells of optimize_support, before normalisation
CLUSTER_GAP = 1e-6
# a path node counts as on the support within this distance of it
CAPTURE_DISTANCE = 0.05


def optimize_support(
    graph: TransitionGraph,
    x_minus: CriticalPoint,
    x_plus: CriticalPoint,
    sequence: list[CriticalPoint],
) -> BVStepPath:
    """Best jump times for a fixed visit sequence.

    All dwell time goes to the visited point(s) of maximal Laplacian (split
    equally on ties); the remaining jumps cluster with CLUSTER_GAP spacing
    to keep the times strictly ordered.
    """
    if not np.allclose(sequence[0].location, x_minus.location) or not np.allclose(
        sequence[-1].location, x_plus.location
    ):
        raise ValueError("sequence must start at x_minus and end at x_plus")
    if len(sequence) == 1:
        raise ValueError("single-point support has no jumps; build BVStepPath directly")

    laps = np.array([v.laplacian for v in sequence])
    winners = np.isclose(laps, laps.max())
    n_win = int(np.sum(winners))
    slack = CLUSTER_GAP * len(sequence)
    share = (1.0 - 2.0 * slack) / n_win

    durations = np.where(winners, share, CLUSTER_GAP)
    # normalize the tiny non-winner dwells into the available slack
    durations = durations / durations.sum()
    jump_times = list(np.cumsum(durations)[:-1])
    return BVStepPath(jump_times=jump_times, values=list(sequence))


@dataclass
class EpsComparison:
    """Gap between a finite-temperature minimizer and the predicted limit."""

    i_eps: float
    i0: float
    discrepancy: float
    support_score: float  # fraction of nodes within CAPTURE_DISTANCE of the support
    eps: float

    def to_dict(self) -> dict:
        return {
            "I_eps": self.i_eps,
            "I0": self.i0,
            "discrepancy": self.discrepancy,
            "support_score": self.support_score,
            "eps": self.eps,
            "capture_distance": CAPTURE_DISTANCE,
        }


def support_score(path: DiscretePath, locations) -> float:
    """Fraction of path nodes within CAPTURE_DISTANCE of any of the locations."""
    locs = np.atleast_2d(np.asarray(locations, dtype=float))
    d = np.min(np.linalg.norm(path.nodes[:, None, :] - locs[None, :, :], axis=-1), axis=1)
    return float(np.mean(d <= CAPTURE_DISTANCE))


def compare_with_eps(
    minimized: tuple[DiscretePath, FunctionalReport],
    predicted: GammaReport,
    eps: float,
    support: BVStepPath,
) -> EpsComparison:
    """Report |I_eps - I0| and how much of the path sits on the predicted support."""
    path, report = minimized
    return EpsComparison(
        i_eps=report.i_eps,
        i0=predicted.i0,
        discrepancy=abs(report.i_eps - predicted.i0),
        support_score=support_score(path, [v.location for v in support.values]),
        eps=eps,
    )

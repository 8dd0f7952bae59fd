"""Uniformly sampled discrete paths with pinned endpoints."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np


def interpolate(ts, knots, values) -> np.ndarray:
    """The piecewise-linear interpolant of the rows of ``values``, given at the
    increasing ``knots``, at the times ``ts``; it is constant beyond either end
    and takes the end rows bitwise there."""
    return np.stack([np.interp(ts, knots, values[:, j]) for j in range(values.shape[1])], axis=-1)


@dataclass(frozen=True)
class DiscretePath:
    """A path sampled at M+1 uniform times on [a, b]; endpoints are fixed data.

    ``nodes`` has shape (M+1, N) and includes both endpoints.  Optimizers
    replace interior nodes only and must never touch rows 0 and M.
    """

    nodes: np.ndarray
    a: float = 0.0
    b: float = 1.0

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim == 1:
            nodes = nodes[:, None]
        object.__setattr__(self, "nodes", nodes)
        if self.b <= self.a:
            raise ValueError("need a < b")
        if nodes.shape[0] < 3:
            raise ValueError("need at least 3 nodes (M >= 2 intervals)")

    @property
    def M(self) -> int:
        """Number of intervals."""
        return self.nodes.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.nodes.shape[1]

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.M

    @property
    def times(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.M + 1)

    @property
    def left(self) -> np.ndarray:
        return self.nodes[0]

    @property
    def right(self) -> np.ndarray:
        return self.nodes[-1]

    @property
    def interior(self) -> np.ndarray:
        return self.nodes[1:-1]

    def with_interior(self, interior: np.ndarray) -> "DiscretePath":
        """New path with replaced interior nodes; endpoints carried over bitwise."""
        interior = np.asarray(interior, dtype=float)
        if interior.shape != (self.M - 1, self.dim):
            raise ValueError("interior shape mismatch")
        nodes = np.concatenate([self.nodes[:1], interior, self.nodes[-1:]])
        return DiscretePath(nodes, self.a, self.b)

    @classmethod
    def from_waypoints(cls, waypoints, M: int, a: float = 0.0, b: float = 1.0):
        """Piecewise-linear interpolation through waypoints at equal time spacing."""
        wp = np.atleast_2d(np.asarray(waypoints, dtype=float))
        if wp.shape[0] < 2:
            raise ValueError("need at least two waypoints")
        nodes = interpolate(np.linspace(0.0, 1.0, M + 1), np.linspace(0.0, 1.0, wp.shape[0]), wp)
        return cls(nodes, a, b)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["s"] + [f"x{j+1}" for j in range(self.dim)])
        for t, x in zip(self.times, self.nodes):
            w.writerow([f"{t:.12g}"] + [f"{v:.17g}" for v in x])
        return buf.getvalue()

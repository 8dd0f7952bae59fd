"""Spans and counts around the calls into each ompath module.

Nothing here edits the package: wrappers replace the module attributes (and
one class attribute) through which callers look the functions up at call
time, and the potential is handed in as a delegating wrapper.  Spans are kept
in memory and written out once the run ends.
"""

from __future__ import annotations

import csv
import time
from statistics import median

import numpy as np

import ompath.critical
import ompath.experiments
import ompath.flow
import ompath.gamma
import ompath.heteroclinic
import ompath.paths
from ompath.functionals import grad_objective
from ompath.potentials import TripleWell

KERNELS = ("gradient", "hessian", "laplacian", "grad_laplacian")


def _points(x) -> int:
    return np.shape(x)[0] if np.ndim(x) == 2 else 1


# (owner, attribute, span name, work count taken from (args, result)).
TRACED = (
    (ompath.flow, "grad_objective", "functionals.grad_objective", None),
    (ompath.flow, "eval_objective", "functionals.eval_objective", None),
    (ompath.flow, "solveh_banded", "flow.solveh_banded", None),
    (ompath.paths.DiscretePath, "with_interior", "paths.with_interior", None),
    (ompath.heteroclinic, "gradient_connection", "heteroclinic.gradient_connection", None),
    (ompath.heteroclinic, "hamiltonian_connection", "heteroclinic.hamiltonian_connection", None),
    (ompath.critical, "find_critical_points", "critical.find_critical_points",
     lambda args, out: len(out)),
    (ompath.gamma, "optimize_support", "gamma.optimize_support", None),
    (ompath.gamma, "eval_I0", "gamma.eval_I0", None),
)
# run_minimization and hamiltonian_connection each look minimize up in their own module
MINIMIZE_CALLERS = (ompath.experiments, ompath.heteroclinic)


class Tracer:
    """In-memory span recorder.

    A span is ``[name, start, end, parent, op, n, failed]``: ``parent`` is the
    index of the enclosing span (-1 for an operation's root), ``op`` the id
    shared by every span of one operation, ``n`` a work count (points for a
    potential kernel, trials for a flow solve, points found for the
    critical-point search, else 0) and ``failed`` whether the call raised.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1

    def call(self, name, fn, args, kwargs=None, count=None):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, 0, False]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            out = fn(*args, **(kwargs or {}))
        except Exception:
            span[6] = True
            raise
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if count is not None:
            span[5] = count(args, out)
        return out

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["op", "span", "parent", "name", "start_s", "end_s", "n", "failed"])
            t0 = self.spans[0][1] if self.spans else 0.0
            for i, (name, s, e, parent, op, n, failed) in enumerate(self.spans):
                w.writerow([op, i, parent, name, f"{s - t0:.9f}", f"{e - t0:.9f}", n, int(failed)])


class TracedPotential(TripleWell):
    """Delegating potential that records one span per kernel call.

    It subclasses TripleWell only because ``named_points`` (reached through
    ``triple_well_graph``) recognises the triple well by ``isinstance``; every
    evaluation goes to the wrapped instance.
    """

    def __init__(self, inner: TripleWell, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def value(self, x):
        return self.inner.value(x)

    def _kernel(self, name, x):
        return self.tracer.call(
            "potentials." + name, getattr(self.inner, name), (x,), count=lambda a, _: _points(a[0])
        )

    def gradient(self, x):
        return self._kernel("gradient", x)

    def hessian(self, x):
        return self._kernel("hessian", x)

    def laplacian(self, x):
        return self._kernel("laplacian", x)

    def grad_laplacian(self, x):
        return self._kernel("grad_laplacian", x)


class Instruments:
    """Installs the wrappers on entry and restores the originals on exit.

    Without a tracer only ``minimize`` is wrapped, to keep the trace and path
    of every flow solve; that costs one Python call per solve.
    """

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.op = -1
        self.flows: list[tuple] = []  # (op, potential, path, trace, cfg) per minimize call
        self._saved: list[tuple] = []

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def __enter__(self):
        tracer = self.tracer
        original = ompath.flow.minimize

        def minimize(p, start, cfg):
            if tracer is None:
                path, trace = original(p, start, cfg)
            else:
                path, trace = tracer.call(
                    "flow.minimize", original, (p, start, cfg), count=lambda a, out: len(out[1].accepted)
                )
            self.flows.append((self.op, p, path, trace, cfg))
            return path, trace

        for module in MINIMIZE_CALLERS:
            self._patch(module, "minimize", minimize)
        if tracer is not None:
            for owner, attr, name, count in TRACED:
                self._patch(owner, attr, _traced(tracer, name, owner.__dict__[attr], count))
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def run(self, fn, *args):
        """Run one operation; under a tracer it gets a root span named ``op``."""
        self.op += 1
        if self.tracer is None:
            return fn(*args)
        self.tracer.op = self.op
        return self.tracer.call("op", fn, args)

    def flow_counts(self, op: int) -> dict:
        """Trials, accepted steps and the largest final gradient ratio of one operation.

        The gradient norm is recomputed from outside on each returned path with
        the untraced potential, in the flow's own norm, over the flow's tolerance.
        """
        trials = accepted = 0
        ratio = 0.0
        for _, p, path, trace, cfg in (c for c in self.flows if c[0] == op):
            trials += len(trace.accepted)
            accepted += sum(trace.accepted)
            inner = p.inner if isinstance(p, TracedPotential) else p
            g = grad_objective(inner, path, cfg.eps, cfg.objective)
            ratio = max(ratio, float(np.linalg.norm(g) / np.sqrt(path.h)) / cfg.grad_tol)
        return {"trials": trials, "accepted": accepted, "gnorm_ratio": ratio}


def _traced(tracer: Tracer, name: str, fn, count):
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, count)

    wrapper.__wrapped__ = fn
    return wrapper


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the durations of its direct children."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


_SPAN_METRICS = (
    "functionals.grad_objective", "functionals.eval_objective", "paths.with_interior",
    "flow.solveh_banded", "heteroclinic.gradient_connection",
    "heteroclinic.hamiltonian_connection", "gamma.optimize_support", "gamma.eval_I0",
)


def layer_metrics(tracer: Tracer, instruments: Instruments) -> tuple[dict, list[dict]]:
    """Per-layer metrics of every operation, and their medians over the run.

    Each per-operation row also carries the root span's duration and the sum
    of all self times of that operation, which must agree.
    """
    totals: dict[int, dict] = {}
    for span, st in zip(tracer.spans, self_times(tracer.spans)):
        name, start, end, _, op, n, failed = span
        acc = totals.setdefault(op, {"self_sum": 0.0})
        acc["self_sum"] += st
        for key, val in (("calls", 1), ("self_s", st), ("s", end - start), ("n", n), ("failed", int(failed))):
            acc[f"{name}.{key}"] = acc.get(f"{name}.{key}", 0) + val

    rows = []
    for op, acc in sorted(totals.items()):
        get = lambda k: acc.get(k, 0)
        m = {}
        for k in KERNELS:
            m[f"potentials.{k}.calls"] = get(f"potentials.{k}.calls")
            m[f"potentials.{k}.points"] = get(f"potentials.{k}.n")
            m[f"potentials.{k}.self_s"] = get(f"potentials.{k}.self_s")
        points = sum(m[f"potentials.{k}.points"] for k in KERNELS)
        kernel_s = sum(m[f"potentials.{k}.self_s"] for k in KERNELS)
        m["potentials.ns_per_point"] = 1e9 * kernel_s / points if points else 0.0
        for base in _SPAN_METRICS:
            m[f"{base}.calls"] = get(f"{base}.calls")
            m[f"{base}.self_s"] = get(f"{base}.self_s")
        m["heteroclinic.gradient_connection.failed"] = get("heteroclinic.gradient_connection.failed")
        flow = instruments.flow_counts(op)
        m["flow.minimize.calls"] = get("flow.minimize.calls")
        m["flow.minimize.s"] = get("flow.minimize.s")
        m["flow.self_s"] = get("flow.minimize.self_s")
        m["flow.trials"] = flow["trials"]
        m["flow.accepted"] = flow["accepted"]
        m["flow.accept_ratio"] = flow["accepted"] / flow["trials"] if flow["trials"] else 0.0
        m["flow.trial_ms"] = 1e3 * m["flow.minimize.s"] / flow["trials"] if flow["trials"] else 0.0
        m["flow.gnorm_ratio"] = flow["gnorm_ratio"]
        m["critical.find_critical_points.s"] = get("critical.find_critical_points.s")
        m["critical.points"] = get("critical.find_critical_points.n")
        m["trace.solve_s"] = get("op.s")
        m["trace.spans"] = sum(v for k, v in acc.items() if k.endswith(".calls"))
        m["trace.self_sum_s"] = acc["self_sum"]
        rows.append(m)
    return {k: median(r[k] for r in rows) for k in rows[0]}, rows

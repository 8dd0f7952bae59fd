"""Command-line experiment runner.

Subcommands: critical-points, minimize, heteroclinic, graph, gamma, figure.
Traces and paths go to CSV, summaries to JSON.  Exit codes: 0 success,
2 usage error, 3 numerical non-convergence (with a FlowTrace dump).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .critical import NoCriticalPointsError, check_admissibility, find_critical_points
from .experiments import (
    DEFAULT_BOX,
    DEFAULT_GRID,
    critical_index,
    minimize_to_files,
    resolve_point,
    route_limit,
    run_figure,
    triple_well_graph,
    write_json,
    write_text,
)
from .flow import FlowConfig, NonFiniteObjectiveError
from .heteroclinic import (
    DEFAULT_NODES,
    EscapeError,
    NotConvergedError,
    build_transition_graph,
    gradient_connection,
    hamiltonian_connection_adaptive,
    saddle_shots,
)
from .potentials import TripleWell, get_potential


def _read_config(path: str) -> dict:
    """Flat key=value file; '#' starts a comment."""
    out = {}
    with open(path) as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            k, v = line.split("=", 1)
            out[k.strip()] = v.strip()
    return out


def _config_argv(flags: dict, path: str) -> list[str]:
    """Config entries as the flags they stand for, so the parser itself types
    and checks them.  A key is a flag's name without its leading dashes; a
    switch takes ``true`` or ``false``."""
    out = []
    for key, raw in _read_config(path).items():
        action = flags.get(key)
        if action is None:
            raise ValueError(f"unknown config key {key!r}")
        if action.nargs != 0:
            out.append(f"--{key}={raw}")
        elif raw not in ("true", "false"):
            raise ValueError(f"config key {key!r} takes true or false, not {raw!r}")
        elif raw == "true":
            out.append(f"--{key}")
    return out


def parse_args(argv=None) -> argparse.Namespace:
    """Parse the command line; a ``--config`` file supplies flags that the
    command line itself does not set.  Each ``--flag value`` is read as
    ``--flag=value``, the form of a config entry, so that a value such as
    ``-0.5,1.5`` is not taken for an option; a value that starts with ``--`` is."""
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    i = next((k + 1 for k, tok in enumerate(argv) if tok in sub.choices), 0)
    # the command's flags by name without their leading dashes, as a config file names them
    flags = {
        opt[2:]: a
        for a in (sub.choices[argv[i - 1]]._actions if i else [])
        if a.dest not in ("help", "config")
        for opt in a.option_strings
        if opt.startswith("--")
    }
    head, rest = argv[:i], []
    for tok in argv[i:]:
        action = flags.get(rest[-1][2:]) if rest and rest[-1].startswith("--") else None
        if action is not None and action.nargs != 0 and not tok.startswith("--"):
            rest[-1] += f"={tok}"
        else:
            rest.append(tok)
    args = ap.parse_args(head + rest)
    if args.config is None:
        return args
    # config flags go right after the command name, so the explicit flags
    # that follow them win
    return ap.parse_args(head + _config_argv(flags, args.config) + rest)


def _add_common(sp, potential: bool = True):
    if potential:
        sp.add_argument("--potential", default="triple-well")
    sp.add_argument("--out", default=".")
    sp.add_argument("--config", default=None, help="flat key=value config file")


def _add_box(sp):
    sp.add_argument("--box", default=",".join(map(str, DEFAULT_BOX[0])))
    sp.add_argument("--grid", type=int, default=DEFAULT_GRID)


def _critical_points(args):
    """The potential and the critical points of the --box/--grid search."""
    p = get_potential(args.potential)
    vals = [float(v) for v in args.box.split(",")]
    if len(vals) == 2:
        box = [(vals[0], vals[1])] * p.dim
    elif len(vals) == 2 * p.dim:
        box = [(vals[2 * i], vals[2 * i + 1]) for i in range(p.dim)]
    else:
        raise ValueError("box must be 'lo,hi' or per-axis 'lo1,hi1,lo2,hi2,...'")
    return p, find_critical_points(p, box, args.grid)


def _point_list(spec: str, p) -> list:
    """The points of a ';'-separated list, each resolved by resolve_point."""
    return [resolve_point(tok, p) for tok in spec.split(";")] if spec else []


def cmd_critical_points(args) -> str:
    p, cps = _critical_points(args)
    report = check_admissibility(p, cps, args.radius)
    target = write_json(args.out, "critical_points.json", [c.to_dict() for c in cps])
    write_json(args.out, "admissibility.json", dataclasses.asdict(report))
    return target


def cmd_minimize(args) -> str:
    p = get_potential(args.potential)
    waypoints = [resolve_point(args.start, p)] if args.start else []
    waypoints += _point_list(args.waypoints, p)
    if args.end:
        waypoints.append(resolve_point(args.end, p))
    if len(waypoints) < 2:
        raise ValueError("need --from and --to (plus optional --waypoints)")
    schedule = [float(v) for v in args.continuation.split(",")] if args.continuation else None
    _, trace, report = minimize_to_files(
        args.out,
        "",
        p,
        waypoints,
        args.nodes,
        args.eps,
        args.objective,
        max_iter=args.maxiter,
        eps_schedule=schedule,
        jitter=args.jitter,
        seed=args.seed,
    )
    return write_json(
        args.out,
        "minimize_summary.json",
        {
            "objective": args.objective,
            "eps": args.eps,
            "nodes": args.nodes,
            "seed": args.seed,
            "report": report.to_dict(),
            "converged": trace.converged,
            "stop_reason": trace.stop_reason,
        },
    )


def cmd_heteroclinic(args) -> str:
    # a gradient shot ends wherever it flows, and a saddle-saddle connection
    # has no shooting sign: a flag the chosen kind would ignore is refused
    if args.hamiltonian and args.sign is not None:
        raise ValueError("--sign picks a gradient shot and does not apply with --hamiltonian")
    if args.hamiltonian and not args.end:
        raise ValueError("--hamiltonian needs --to, the other end of the connection")
    for flag, value in (("--to", args.end), ("--waypoints", args.waypoints)):
        if value and not args.hamiltonian:
            raise ValueError(f"{flag} needs --hamiltonian: a gradient shot ends wherever it flows")
    p, cps = _critical_points(args)
    src = cps[critical_index(cps, args.start, p)]
    if args.hamiltonian:
        dst = cps[critical_index(cps, args.end, p)]
        wp = _point_list(args.waypoints, p)
        orbit = hamiltonian_connection_adaptive(p, src, dst, M=args.nodes, waypoints=wp)
    else:
        # the lowest unstable mode, in the chosen sign (+1 when unset)
        shot = saddle_shots(p, src)[1 if args.sign == -1 else 0]
        orbit = gradient_connection(p, *shot, cps, n_nodes=args.nodes)
    write_text(args.out, "orbit.csv", orbit.path.to_csv())
    return write_json(
        args.out,
        "orbit_summary.json",
        {
            "kind": orbit.kind,
            "J": orbit.j_value,
            "source": orbit.source.to_dict(),
            "target": orbit.target.to_dict(),
            "energy_residual": orbit.energy_residual,
            "zero_energy_residual": orbit.zero_energy_residual,
            "gradient_residual": orbit.gradient_residual,
            "el_residual": orbit.el_residual,
            # whether J settled under interval doubling; a shot has no doubling
            **({"stabilised": orbit.stabilised} if args.hamiltonian else {}),
        },
    )


def cmd_graph(args) -> str:
    p, cps = _critical_points(args)
    graph = build_transition_graph(p, cps, ham_M=args.nodes)
    return write_json(args.out, "transition_graph.json", graph.to_dict())


def cmd_gamma(args) -> str:
    p = TripleWell()
    # entries given by coordinates need ';' between entries, as --waypoints does
    tokens = args.route.split(";" if ";" in args.route else ",")
    bv, report = route_limit(triple_well_graph(p, ham_M=args.nodes), tokens, p)
    return write_json(
        args.out,
        "gamma_summary.json",
        {"route": tokens, "bv_path": bv.to_dict(), "report": report.to_dict()},
    )


def cmd_figure(args) -> str:
    numbers = range(1, 10) if args.number == "all" else [int(args.number)]
    for n in numbers:
        run_figure(n, os.path.join(args.out, f"figure{n}"), args.eps, args.nodes, args.maxiter)
    return args.out


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ompath",
        description="Most-probable transition paths: action minimization and its small-temperature limit",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("critical-points", help="locate and classify critical points")
    _add_common(sp)
    _add_box(sp)
    sp.add_argument("--radius", type=float, default=3.0)
    sp.set_defaults(func=cmd_critical_points)

    sp = sub.add_parser("minimize", help="descend the action from a waypoint start")
    _add_common(sp)
    sp.add_argument("--seed", type=int, default=0, help="seed of the --jitter noise")
    sp.add_argument("--eps", type=float, default=FlowConfig.eps)
    sp.add_argument("--nodes", type=int, default=DEFAULT_NODES)
    sp.add_argument("--from", dest="start", default="")
    sp.add_argument("--to", dest="end", default="")
    sp.add_argument("--waypoints", default="", help="semicolon-separated intermediate points")
    sp.add_argument("--objective", choices=["I", "J"], default=FlowConfig.objective)
    sp.add_argument("--continuation", default="", help="comma-separated decreasing eps schedule")
    sp.add_argument("--maxiter", type=int, default=FlowConfig.max_iter)
    sp.add_argument("--jitter", type=float, default=0.0)
    sp.set_defaults(func=cmd_minimize)

    sp = sub.add_parser("heteroclinic", help="compute a heteroclinic connection")
    _add_common(sp)
    sp.add_argument("--from", dest="start", required=True)
    sp.add_argument("--to", dest="end", default="")
    sp.add_argument("--sign", type=int, choices=[-1, 1], default=None, help="gradient shot only; 1 when unset")
    sp.add_argument("--hamiltonian", action="store_true")
    sp.add_argument("--waypoints", default="")
    sp.add_argument("--nodes", type=int, default=DEFAULT_NODES)
    _add_box(sp)
    sp.set_defaults(func=cmd_heteroclinic)

    sp = sub.add_parser("graph", help="build the transition graph")
    _add_common(sp)
    _add_box(sp)
    sp.add_argument("--nodes", type=int, default=DEFAULT_NODES)
    sp.set_defaults(func=cmd_graph)

    sp = sub.add_parser("gamma", help="evaluate the limit functional on a triple-well route")
    _add_common(sp, potential=False)
    sp.add_argument(
        "--route", required=True, help="critical points, e.g. S1,M0,S2 or 'S1;M0;0.0976,0.569'"
    )
    sp.add_argument("--nodes", type=int, default=DEFAULT_NODES)
    sp.set_defaults(func=cmd_gamma)

    sp = sub.add_parser("figure", help="reproduce the data behind one triple-well figure (1..9)")
    _add_common(sp, potential=False)
    sp.add_argument("number", help="figure number 1..9 or 'all'")
    sp.add_argument("--eps", type=float, default=FlowConfig.eps)
    sp.add_argument("--nodes", type=int, default=DEFAULT_NODES)
    sp.add_argument("--maxiter", type=int, default=FlowConfig.max_iter)
    sp.set_defaults(func=cmd_figure)

    return ap


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        print(args.func(args))
        return 0
    except (ValueError, NoCriticalPointsError, EscapeError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NotConvergedError, NonFiniteObjectiveError) as exc:
        diag = {"error": str(exc), "diagnostics": getattr(exc, "diagnostics", {})}
        out = getattr(args, "out", ".")
        try:
            write_json(out, "failure.json", diag)
        except OSError:
            pass
        print(json.dumps(diag), file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())

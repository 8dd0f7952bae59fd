"""ompath benchmark: two finite-temperature flow solves and the zero-temperature graph pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload fig7_flow_I --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

A run sets up its inputs from the seed, then repeats the workload's operation
(at least once) while the next one is expected to end within ``--seconds``,
and checks every answer.
Rounds of a fixed reference loop (calibration.py) run before the first
operation and after each one, for 15% of its time; ``solve_norm_s`` is the
median operation wall time scaled by them to the reference machine's speed,
and the raw median wall time is printed as ``solve_s``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps each
module's public functions and reports per-layer metrics from the spans.
Metrics are printed one per line with their unit; the last stdout line is a
JSON object with the keys correct, attempted, failed and metrics.  The exit
code is 1 when an answer check fails and 2 when the package is missing.

Answers (byte-identical for a seed), timings with the machine description,
and the spans of a traced run are written to perfbench/out/.  With ``all``
every workload runs in this one process, so peak_rss_mb is the peak so far.
"""

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from statistics import median

# One thread everywhere; NumPy is imported only after this, inside setup().
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 5


def _load_package():
    """Import ompath from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "ompath", "__init__.py")):
        print(f"error: no ompath package under {SRC}", file=sys.stderr)
        sys.exit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import ompath

    if os.path.dirname(os.path.dirname(os.path.abspath(ompath.__file__))) != SRC:
        print(f"error: ompath was imported from {ompath.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def setup(name: str, seed: int):
    """Everything before the first timed operation: imports, potential, inputs."""
    _load_package()
    import workloads
    from ompath import TripleWell

    p = TripleWell()
    return p, workloads.make_inputs(name, seed, p)


def setup_seconds(name: str, seed: int) -> list[float]:
    """Wall time from process start to finished set-up, in fresh processes."""
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed), "--setup-only"],
            stdout=subprocess.PIPE,
            text=True,
        )
        line = proc.stdout.readline()
        out.append(time.perf_counter() - t0)
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            sys.exit("error: set-up probe failed")
    return out


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool):
    """Set up, run and check operations; returns the run record and the tracer."""
    p, inputs = setup(name, seed)
    import calibration
    import workloads
    from tracer import Instruments, Tracer, TracedPotential, layer_metrics

    setups = setup_seconds(name, seed)
    tracer = Tracer() if traced else None
    target = TracedPotential(p, tracer) if traced else p
    op = workloads.operation(name)
    solve, rounds, answers, failures = [], [], [], []
    with Instruments(tracer) as inst:
        t_run = time.perf_counter()
        rounds += calibration.rounds(0.0)
        while True:
            t0 = time.perf_counter()
            result = inst.run(op, target, inputs)
            solve.append(time.perf_counter() - t0)
            rounds += calibration.rounds(calibration.SHARE * solve[-1])
            # checks and answers call nothing wrapped, so they add no spans
            fails = workloads.check(name, inputs, result)
            ans = workloads.answer(name, result, inst.flow_counts(inst.op))
            if answers and _dump(ans) != _dump(answers[0]):
                fails.append("answer differs from the run's first operation on the same inputs")
            answers.append(ans)
            failures.append(fails)
            del result
            # stop before an operation (and its rounds) would overrun the run, judged by the median so far
            if time.perf_counter() - t_run + (1 + calibration.SHARE) * median(solve) > seconds:
                break
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "machine": machine(),
        "solve_s": solve,
        "calibration_s": rounds,
        "setup_s": setups,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "answers": answers,
        "failures": failures,
    }
    if traced:
        layers, rows = layer_metrics(tracer, inst)
        for row in rows:
            if abs(row["trace.self_sum_s"] - row["trace.solve_s"]) > 1e-9 * row["trace.solve_s"]:
                raise RuntimeError("span self times do not add up to the root span")
        record["layers"] = layers
        record["layer_rows"] = rows
    return record, tracer


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1)


def end_to_end(record: dict) -> dict:
    import calibration

    answers = record["answers"]
    return {
        "solve_norm_s": calibration.normalised(record["solve_s"], record["calibration_s"]),
        "setup_s": median(record["setup_s"]),
        "flow_trials": median(a["trials"] for a in answers),
        "flow_iters": median(a["accepted"] for a in answers),
        "peak_rss_mb": record["peak_rss_mb"],
    }


def write_outputs(record: dict, tracer) -> None:
    """Answers (no wall-clock data), timings, and the spans of a traced run."""
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{record['workload']}-seed{record['seed']}")
    with open(stem + ".answers.json", "w") as f:
        f.write(_dump({k: record[k] for k in ("workload", "seed", "answers", "failures")}) + "\n")
    timings = {k: v for k, v in record.items() if k not in ("answers", "failures")}
    with open(f"{stem}.trace{record['trace']}.timings.json", "w") as f:
        f.write(_dump(timings) + "\n")
    if tracer is not None:
        tracer.write_csv(stem + ".spans.csv")


def tracing_overhead(record: dict):
    """Traced minus untraced median solve_s, from this checkout's untraced run of the same seed."""
    path = os.path.join(OUT, f"{record['workload']}-seed{record['seed']}.trace0.timings.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        untraced = json.load(f)
    return median(record["solve_s"]) - median(untraced["solve_s"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_only:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    _load_package()
    import workloads

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if any(n not in workloads.WORKLOADS for n in names):
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        record, tracer = run_workload(name, args.seed, seconds, bool(args.trace))
        write_outputs(record, tracer)
        values = record["layers"] if args.trace else end_to_end(record)
        prefix = f"{name}." if len(names) > 1 else ""
        n_fail = sum(1 for fails in record["failures"] if fails)
        attempted += len(record["failures"])
        failed += n_fail
        for i, ans in enumerate(record["answers"]):
            brief = {k: ans[k] for k in ("stop_reason", "converged", "objective", "I0") if k in ans}
            print(f"{name} op {i}: {json.dumps(brief)} trials={ans['trials']} "
                  f"gnorm_ratio={ans['gnorm_ratio']:.6g}")
        for fails in record["failures"]:
            for msg in fails:
                print(f"{name} FAILED: {msg}")
        for m in declared:
            metrics[prefix + m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print(f"{name} {m['name']} = {values[m['name']]!r} {m['unit']}")
        print(f"{name} fail_ratio = {n_fail / len(record['failures'])!r} ratio")
        print(f"{name} solve_s = {median(record['solve_s'])!r} s (wall), calibration round = "
              f"{median(record['calibration_s'])!r} s")
        if args.trace:
            overhead = tracing_overhead(record)
            if overhead is not None:
                print(f"{name} tracing overhead = {overhead!r} s per operation")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

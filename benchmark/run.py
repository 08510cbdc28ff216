"""amppath benchmark: one command for every workload.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root; BENCHMARK.json pins the BLAS to one
thread through ``env``.  It imports amppath from ``src/`` of the checkout
it sits in, builds the workload's inputs from the seed, then runs whole
rounds of the workload's fixed work for about ``--seconds`` of round time,
checking every round's outputs.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are end to end: ``wall_rel`` (the time of
a round's work as a multiple of the time of the workload's reference
computation, measured beside it; see ``relative_wall``), ``ops_per_kref``
(operations per thousand reference times), ``setup_s`` (median of five
set-ups: this process's and four fresh processes') and ``peak_rss_mb``.
With ``--trace 1`` rounds alternate between traced and untraced, and the
metrics are the per-layer figures of tracer.py.  Each run also writes its
result, with the host's details, the raw wall times and, in traced runs,
its spans, under benchmark/out/.
"""

import time

_T0 = time.perf_counter()

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_CHILDREN = 4


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Import amppath from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "amppath", "__init__.py")):
        raise SystemExit(f"error: no amppath sources under {SRC}")
    sys.path.insert(0, SRC)
    import amppath
    import amppath.cli  # noqa: F401  (the CLI workloads need it; import it in every set-up alike)

    if not os.path.abspath(amppath.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: amppath imported from {amppath.__file__}, not {SRC}")


def blas_threads() -> dict:
    """Threads of every OpenBLAS loaded in this process, as it reports them."""
    found = {}
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                found[os.path.basename(path)] = fn()
                break
    return found


def host_info() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def child_setups(args) -> list[float]:
    """Set-up time of fresh processes doing this run's set-up and nothing else."""
    out = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "0", "--setup-only"],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
        )
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def timed_round(workload, reference, step_s, ref_s):
    """One round with every step timed on its own, and the workload's
    reference computation timed before the first step and after each."""
    clock = time.perf_counter
    outs, steps, refs = [], [], []
    t0 = clock()
    reference()
    refs.append(clock() - t0)
    for step in workload.steps:
        t0 = clock()
        outs.append(step())
        t1 = clock()
        reference()
        steps.append(t1 - t0)
        refs.append(clock() - t1)
    step_s.append(steps)
    ref_s.append(refs)
    return workload.finish(outs)


def run_rounds(args, workload, tracer):
    """Whole rounds for about ``args.seconds`` of round time.  Untraced, the
    rounds are timed step by step beside the reference (``timed_round``);
    with a tracer, traced and plain rounds alternate (at least two traced,
    one not)."""
    times = {True: [], False: []}
    reference = workload.make_reference() if tracer is None else None
    step_s, ref_s = [], []
    figures, errors = [], []
    attempted = failed = 0
    first = None
    while True:
        traced = tracer is not None and len(times[True]) <= len(times[False])
        if tracer is not None:
            tracer.install() if traced else tracer.uninstall()
        start = time.perf_counter()
        if traced:
            (out, n_failed), fig = tracer.segment("bench.round", workload.run_round)
            figures.append(fig)
        elif tracer is not None:
            out, n_failed = workload.run_round()
        else:
            out, n_failed = timed_round(workload, reference, step_s, ref_s)
        times[traced].append(time.perf_counter() - start)
        attempted += workload.ops
        failed += n_failed
        if first is None:
            first = workload.fingerprint(out)
            errors += workload.check(out)
        elif workload.fingerprint(out) != first:
            errors.append("a round's outputs differ from the first round's")
        # stop once the next round would end more than half a round past --seconds
        rounds = len(times[True]) + len(times[False])
        elapsed = sum(times[True]) + sum(times[False])
        if elapsed * (1.0 + 0.5 / rounds) >= args.seconds and (
                tracer is None or (len(times[True]) >= 2 and times[False])):
            break
    if tracer is not None:
        tracer.uninstall()
    return times, (step_s, ref_s), figures, errors, attempted, failed


def relative_wall(step_s, ref_s) -> tuple[float, float]:
    """(wall time of a round in units of the reference, wall time of a round
    in seconds).  Each step's time is divided by the mean of the reference
    times measured just before and just after it; each step contributes the
    median of its rounds."""
    rel = [
        [t / (0.5 * (refs[i] + refs[i + 1])) for i, t in enumerate(steps)]
        for steps, refs in zip(step_s, ref_s)
    ]
    wall_rel = sum(statistics.median(col) for col in zip(*rel))
    wall_s = sum(statistics.median(col) for col in zip(*step_s))
    return wall_rel, wall_s


def main(argv=None) -> int:
    import_program()
    import workloads

    args = parse_args(argv, list(workloads.WORKLOADS))
    build = workloads.WORKLOADS[args.workload]
    tracer = setup_figures = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        workload, setup_figures = tracer.segment("bench.setup", lambda: build(args.seed))
    else:
        workload = build(args.seed)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    times, (step_s, ref_s), figures, errors, attempted, failed = run_rounds(args, workload, tracer)
    if tracer is None:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups = [setup_s] + child_setups(args)
        wall_rel, wall_s = relative_wall(step_s, ref_s)
        completed = (attempted - failed) / len(step_s)
        metrics = {
            "wall_rel": {"value": wall_rel, "unit": "x"},
            "ops_per_kref": {"value": 1000.0 * completed / wall_rel, "unit": "op/kref"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
        detail = {"wall_s": wall_s, "ops_per_s": completed / wall_s, "round_s": times[False],
                  "step_s": step_s, "reference_s": ref_s, "setup_s": setups}
    else:
        counts = [tracing.work_counts(f) for f in figures]
        if any(c != counts[0] for c in counts[1:]):
            errors.append("work counts differ between traced rounds")
        overhead = statistics.median(times[True]) - statistics.median(times[False])
        metrics = tracing.layer_metrics(setup_figures, figures, overhead)
        detail = {"traced_round_s": times[True], "untraced_round_s": times[False], "work_counts": counts[0],
                  "missing_targets": tracer.missing}
    result = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({"args": vars(args), "result": result, "errors": errors, "detail": detail, "host": host_info()},
                  fh, indent=1)
    if tracer is not None:
        with open(stem + "-spans.json", "w") as fh:
            json.dump(tracer.dump(), fh)
    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

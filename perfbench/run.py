"""acda benchmark: one workload per process.

    python3 perfbench/run.py --workload moons-run --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  The run repeats whole rounds of the workload's fixed work
for about ``--seconds`` seconds, checks every round's outputs, and prints a
report line followed, as the last line, by one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
Outputs go under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

# The BLAS pool is fixed before numpy loads; one thread keeps the runs
# comparable on a small shared machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 5


def import_acda():
    """Import acda from this checkout's ``src``; exit with an error otherwise."""
    sys.path.insert(0, SRC)
    try:
        import acda
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import acda from {SRC}: {exc}")
    if not os.path.abspath(acda.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: acda came from {acda.__file__}, not from {SRC}")
    return acda


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true",
                   help="set up the workload's inputs, print 'ready' and exit")
    return p.parse_args(argv)


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until its inputs are ready."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        sys.exit(f"perfbench: set-up probe failed (exit {proc.returncode})")
    return elapsed


def blas_threads_in_use():
    """Thread count reported by the loaded OpenBLAS, when it can be found."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(acda) -> dict:
    import numpy as np
    import scipy
    from acda import _assignment

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_in_use": blas_threads_in_use(),
        "assignment_backend": _assignment.backend(),
        "acda": acda.__version__,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    acda = import_acda()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    work = WORKLOADS[args.workload]()
    if args.probe:
        work.setup(args.seed)
        print("ready", flush=True)
        return 0

    # The set-up probes run between rounds, so that like the rounds they
    # sample the machine's speed over the whole run.
    probes = 0 if args.trace else SETUP_PROBES
    setups: list = []
    tracer = None
    if args.trace:
        import layers
        from spans import Tracer

        tracer = Tracer()
        tracer.install(layers.LAYERS, layers.TAGGERS)
    work.setup(args.seed)

    run_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    attempted = failed = 0
    errors: list = []
    times: list = []
    try:
        start = time.perf_counter()
        probing = 0.0
        index = 0
        while True:
            out_dir = os.path.join(run_dir, f"round{index}")
            if tracer is not None:
                tracer.block = index + 1
            t0 = time.perf_counter()
            ops, bad = work.run_round(index, out_dir)
            times.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.block = -1
            attempted += ops
            failed += bad
            errors += work.check_round(index, out_dir)
            shutil.rmtree(out_dir, ignore_errors=True)
            index += 1
            if len(setups) < probes:
                t0 = time.perf_counter()
                setups.append(probe_setup(args.workload, args.seed))
                probing += time.perf_counter() - t0
            # Start another round only if it should end within the run.
            elapsed = time.perf_counter() - start - probing
            if index >= work.min_rounds and elapsed + statistics.median(times) > args.seconds:
                break
        while len(setups) < probes:
            setups.append(probe_setup(args.workload, args.seed))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": environment(acda), "rounds": len(times),
        "ops_per_round": work.ops_per_round, "attempted": attempted, "failed": failed,
        "round_s": times, "setup_probes_s": setups, "errors": errors[:20],
    }
    if tracer is not None:
        metrics = layers.per_layer(tracer, set(range(work.min_rounds + 1)),
                                   sum(work.bytes_written[:work.min_rounds]))
        tracer.write_jsonl(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl"))
        tracer.uninstall()
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "run_s": (sum(times) / len(times), "s"),
            "ops_per_s": (attempted / sum(times), "1/s"),
            "target_accuracy": (work.target_accuracy(), "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    report["metrics"] = {k: v for k, (v, _) in metrics.items()}
    with open(os.path.join(OUT, f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    print("report: " + json.dumps(report))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

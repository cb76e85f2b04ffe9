"""Benchmark of the geomflow command line, one workload per run.

    python3 benchmark/run.py --workload sample --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The run sets up its workload at least
three times and reports the median set-up time; after each of the first
three set-ups it repeats the workload's command for a third of `--seconds`.
Then it checks every output and prints one JSON line last:
the end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`. See benchmark/README.md.
"""

import os
import sys

# Small-matrix timings change with the BLAS thread count; pin it before
# numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(ROOT, ".bench_out")
# Set-up runs at least 3 times, and more (up to 30) until it has taken 2 s,
# so that the median of a set-up of a few tens of milliseconds is steady.
# The timed loop is split into as many parts as the minimum number of
# set-ups.
SETUP_REPEATS = (3, 30)
SETUP_SECONDS = 2.0

END_TO_END_UNITS = {"items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    import ctypes

    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
                           "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    import numpy
    import scipy

    return {"blas_threads": blas_threads(), "cores": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "geomflow", "cli.py")):
        print(f"benchmark: no geomflow sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import geomflow

    if os.path.dirname(os.path.abspath(geomflow.__file__)) != os.path.join(SRC, "geomflow"):
        print(f"benchmark: geomflow imported from {geomflow.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("benchmark: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    env = environment()
    print("environment: " + json.dumps(env))

    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(OUT, exist_ok=True)
    try:
        return run(args, work, env, WORKLOADS[args.workload](args.seed))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work, env, wl) -> int:
    from tracer import PER_LAYER_UNITS, Tracer
    from workloads import CheckFailed, file_bytes

    setup_times, setups = [], []

    def set_up():
        d = os.path.join(work, f"setup{len(setups)}")
        t0 = perf_counter()
        wl.setup(d)
        setup_times.append(perf_counter() - t0)
        setups.append(d)

    tracer = Tracer() if args.trace else None
    ops, untraced = [], []
    elapsed = 0.0
    # The timed loop runs in parts, one after each of the first set-ups, so
    # that it samples the machine across the whole run: on a shared machine
    # the speed of the same work drifts by 10-15% within seconds.
    parts = SETUP_REPEATS[0]
    for part in range(1, parts + 1):
        set_up()
        start = perf_counter()
        while elapsed + perf_counter() - start < args.seconds * part / parts:
            i = len(ops)
            if tracer is not None:
                # Each traced operation follows the same operation untraced:
                # the pair gives the tracing overhead and shows that the
                # wrappers change no output byte.
                untraced.append(wl.run_op(i, os.path.join(work, f"untraced{i}")))
                tracer.install()
            try:
                ops.append(wl.run_op(i, os.path.join(work, f"op{i}")))
            finally:
                if tracer is not None:
                    tracer.uninstall()
        elapsed += perf_counter() - start
    while sum(setup_times) < SETUP_SECONDS and len(setups) < SETUP_REPEATS[1]:
        set_up()
    # Before the checks, which hold arrays of their own.
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors = []

    def guarded(fn, *a):
        try:
            fn(*a)
        except CheckFailed as e:
            errors.append(str(e))
        except Exception:  # a check that crashes is a failed check
            errors.append(traceback.format_exc())

    def same_setups():
        first = file_bytes(setups[0])
        for d in setups[1:]:
            if file_bytes(d) != first:
                raise CheckFailed("repeated set-ups wrote different files")

    guarded(same_setups)
    for op in ops:
        if op.rc == 0:
            guarded(wl.check_op, op)
    if ops[0].rc == 0:
        guarded(wl.check_run, ops, work)
    pairs = [(u, t) for u, t in zip(untraced, ops) if u.rc == 0 and t.rc == 0]

    def same_as_untraced():
        for u, t in pairs:
            if wl.outputs(u) != wl.outputs(t):
                raise CheckFailed(f"traced operation {t.index} wrote different outputs")

    guarded(same_as_untraced)
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)

    failed = sum(op.rc != 0 for op in ops + untraced)
    done = [op for op in ops if op.rc == 0]
    items_per_s = statistics.median(op.items / op.seconds for op in done) if done else 0.0
    record = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace, "environment": env,
        "setup_s": setup_times, "op_seconds": [op.seconds for op in ops],
        "op_items": [op.items for op in ops], "elapsed_s": elapsed, "errors": errors,
    }
    if args.trace:
        items = sum(op.items for op in done)
        layer = tracer.layer_metrics(items)
        layer["trace.items_per_s"] = items_per_s
        layer["trace.overhead"] = (
            statistics.median(t.seconds / u.seconds for u, t in pairs) - 1.0 if pairs else 0.0)
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in layer.items()}
        tracer.save(os.path.join(OUT, f"trace-{wl.name}-seed{args.seed}.npz"))
    else:
        values = {"items_per_s": items_per_s,
                  "setup_s": statistics.median(setup_times),
                  "peak_rss_mb": peak_mb}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    record.update(wl.record)
    record["metrics"] = metrics
    with open(os.path.join(OUT, f"run-{wl.name}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({"correct": not errors, "attempted": len(ops) + len(untraced),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

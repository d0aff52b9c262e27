"""The repository benchmark: one command per workload run.

    python3 e2ebench/run.py --workload distill --seed 1 --seconds 10 --trace 0

Run it from the repository root (it imports ``src/``).  Workloads:

* ``distill`` — DTDBD student distillation, the paper's training hot path
  (:mod:`bench_distill`);
* ``stream`` — scoring, drift detection, adaptation and onboarding through
  the streaming loop (:mod:`bench_stream`).

``--trace 0`` measures the end-to-end metrics with nothing patched.  Its
times are reference-host seconds (see :class:`harness.Speedometer`); the
details line also carries them as raw wall time.
``--trace 1`` first repeats the workload untraced, then traced by the
outside-in span recorder (:mod:`spans`), and reports the per-layer metrics
per traced unit (fit or replay).
The metric names and units are those of ``BENCHMARK.json``.  Standard
output ends with two JSON lines: the run's details (environment, sample
counts, every correctness check) and the result.  A run whose checks fail
prints ``correct: false`` with no metrics and exits with status 1.
"""

import os

# Pin BLAS/OpenMP pools before NumPy loads anywhere in this process; any
# process it spawns inherits the environment.  One thread per process is both
# faster on a small shared host and what makes the bit-identity checks hold.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse
import json
import math
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("distill", "stream")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="'smoke' shrinks every input for the smoke test")
    return parser.parse_args(argv)


def _emit(line: dict) -> None:
    print(json.dumps(line, sort_keys=True), flush=True)


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import repro  # noqa: F401 - the program under test must be present
    except ImportError as error:
        print(f"cannot import the program under test from {ROOT}/src: {error}",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)

    import importlib

    from harness import PINNED_THREADS, Context, Speedometer, environment, run
    from spans import Tracer

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    # Anything the program writes to a temporary directory stays in the
    # checkout too.
    os.environ["TMPDIR"] = workdir
    env = environment(workdir, "float32")
    if env["blas_threads"] != PINNED_THREADS:
        print(f"BLAS runs {env['blas_threads']} threads, not the pinned "
              f"{PINNED_THREADS}; refusing to measure", file=sys.stderr)
        shutil.rmtree(workdir, ignore_errors=True)
        return 2

    ctx = Context(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=bool(args.trace), size=args.size, workdir=workdir,
                  tracer=Tracer() if args.trace else None,
                  speed=None if args.trace else Speedometer())
    workload = importlib.import_module(f"bench_{args.workload}")
    try:
        if ctx.speed is not None:
            ctx.speed.start()
        outcome = run(ctx, workload)
    finally:
        if ctx.speed is not None:
            ctx.speed.stop()
        ctx.trace_off()
        shutil.rmtree(workdir, ignore_errors=True)

    if ctx.tracer is not None:
        spans_file = os.path.join(ROOT, ".bench_work", "traces",
                                  f"{args.workload}-seed{args.seed}.jsonl")
        ctx.tracer.write(spans_file)
        outcome.details["spans_file"] = os.path.relpath(spans_file, ROOT)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [entry["name"] for entry in wanted
               if entry["name"] not in outcome.metrics]
    extra = sorted(set(outcome.metrics) - {entry["name"] for entry in wanted})
    if missing or extra:
        raise RuntimeError(f"metrics out of step with BENCHMARK.json: "
                           f"missing {missing}, unexpected {extra}")
    broken = [name for name, value in outcome.metrics.items() if not math.isfinite(value)]
    if broken:
        raise RuntimeError(f"non-finite metrics: {broken}")
    correct = all(outcome.checks.values())
    _emit({"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "size": args.size, "environment": env, "checks": outcome.checks,
           "details": outcome.details})
    metrics = {entry["name"]: {"value": outcome.metrics[entry["name"]],
                               "unit": entry["unit"]} for entry in wanted}
    _emit({"correct": correct, "attempted": outcome.attempted,
           "failed": outcome.failed, "metrics": metrics if correct else {}})
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

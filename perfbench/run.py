"""Benchmark of the vng pipeline: time to a certified artifact.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload seeds50 --seed 1 --seconds 20 --trace 0

Runs whole rounds of the workload until ``--seconds`` have passed (the last
round runs to its end), and checks every round's outputs with
the checks in ``checks.py``.  With ``--trace 0`` it reports the end-to-end
metrics (medians over rounds, times in reference seconds: see ``speed.py``);
with ``--trace 1`` it runs one untraced
round, then traced rounds, and reports the per-layer metrics per
round, the tracing overhead, and writes the spans to ``perfbench/out``.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import os
import time

T_PROCESS = time.perf_counter()

# One process; one BLAS thread (the machine has 2 cores).  Set before numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5

IMPORT_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import vng, vng.cli_io"


def import_program():
    """Import vng from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "vng", "__init__.py")):
        raise SystemExit(f"error: no program source under {SRC}")
    sys.path.insert(0, SRC)
    import vng
    import vng.cli_io  # noqa: F401

    if not os.path.abspath(vng.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported vng from {vng.__file__}, not {SRC}")
    return vng


def import_program_fresh() -> None:
    """Start a fresh interpreter that imports the program, and wait for it."""
    subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC], timeout=120, check=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    vng = import_program()
    sys.path.insert(0, HERE)
    from speed import HostClock
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    workload = WORKLOADS[args.workload](vng, args.seed, ROOT, workdir)

    try:
        with HostClock() as clock:
            # Set-up: input generation plus program import in a fresh
            # interpreter, several times.
            setups = []
            for _ in range(SETUP_REPEATS):
                t0 = clock.now()
                workload.generate()
                import_program_fresh()
                setups.append(clock.now() - t0)

            rounds, fails = [], []
            traced, untraced = [], None
            tracer = Tracer(clock.now) if args.trace else None
            deadline = time.perf_counter() + args.seconds
            while True:
                index = len(rounds)
                if tracer is not None and index > 0:
                    with tracer:
                        rnd = workload.run_round(index, clock)
                    traced.append(rnd)
                else:
                    rnd = workload.run_round(index, clock)
                    untraced = untraced or rnd
                rounds.append(rnd)
                print(f"round {index}{' (traced)' if traced else ''}: "
                      f"{rnd.wall_s:.3f} reference s, {rnd.measured_s:.3f} measured s",
                      flush=True)
                fails += workload.check(rnd)
                rnd.outputs.clear()
                if time.perf_counter() >= deadline and (traced or not args.trace):
                    break
    finally:
        workload.cleanup()

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    for msg in fails[:20]:
        print(f"check failed: {msg}")

    if args.trace:
        metrics = tracer.layer_metrics(len(traced), workload.instances_per_round)
        overhead = statistics.median(r.wall_s for r in traced) / untraced.wall_s - 1.0
        trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write(trace_path, {
            "workload": args.workload, "seed": args.seed,
            "traced_rounds": len(traced), "untraced_wall_s": untraced.wall_s,
            "traced_wall_s": [r.wall_s for r in traced], "overhead": overhead,
        })
        print(f"tracing overhead: {100.0 * overhead:+.1f}% of the untraced "
              f"round's {untraced.wall_s:.3f} s; spans in {trace_path}")
        for target in sorted(tracer.missing):
            print(f"not traced, no longer in the program: {target}")
    else:
        med = lambda key: statistics.median(getattr(r, key) for r in rounds)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "build_s": {"value": med("build_s"), "unit": "s"},
            "solve_s": {"value": med("solve_s"), "unit": "s"},
            "certify_s": {"value": med("certify_s"), "unit": "s"},
            "wall_s": {"value": med("wall_s"), "unit": "s"},
            "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
        }

    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} round(s), "
          f"{attempted} operations, {failed} failed, {len(fails)} check failures, "
          f"{time.perf_counter() - T_PROCESS:.1f} s in all")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not fails, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

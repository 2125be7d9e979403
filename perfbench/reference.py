"""Regenerate the reference figures in README.md.

Runs ``run.py`` once per seed on each workload, one run at a time, and prints
for every metric the median, the quartiles and the quartile spread as a
share of the median (``statistics.quantiles(values, n=4)``).  From the root
of a checkout:

    python3 perfbench/reference.py --workloads seeds50 ladder cli_roundtrip \
        --seeds 1 2 3 4 5 6 7 8 9 10 --seconds 20

Add ``--trace 1`` for the per-layer metrics.  Exits 1 if any run failed,
reported an incorrect output or failed operations.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    ok = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        shares = set()
        for seed in args.seeds:
            started = time.perf_counter()
            done = subprocess.run(
                [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=900,
            )
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"] and result["failed"] == 0
            shares.add(result["failed"] / result["attempted"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"in {time.perf_counter() - started:.1f} s", flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        print(f"\n{workload}: {len(args.seeds)} seeds, failed shares {sorted(shares)}")
        print("| metric | unit | median | q1 | q3 | spread |")
        print("|---|---|---|---|---|---|")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med,) * 3
            spread = (q3 - q1) / med if med else 0.0
            print(f"| {name} | {units[name]} | {med:.4g} | {q1:.4g} | {q3:.4g} "
                  f"| {100 * spread:.1f}% |")
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Regenerate the reference figures in perfbench/README.md.

    python3 perfbench/report.py

Run from the root of a gammalab checkout.  For every workload it runs run.py
once for each of SEEDS with --trace 0, for BENCHMARK.json's run_seconds, then
makes one traced run (--trace 1) of TRACED_WORKLOAD at TRACE_SEED.  It prints
markdown tables: the median and quartiles of each end-to-end metric with its
spread (interquartile range over median), the failed share, the per-layer
metrics and the tracing overhead of the traced run, and the machine facts.
The raw results go to perfbench/out/report.json.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import layers
import workloads as W

SEEDS = range(11, 21)
TRACE_SEED = 11
# A traced run measures every per-layer metric whichever workload it names;
# the name picks where the tracing overhead is measured.  trace-replay makes
# the most spans per second of work (one per membership test, about 12 k a
# round), so the spans cost most there.
TRACED_WORKLOAD = "trace-replay"
RUN = Path(__file__).resolve().parent / "run.py"


def _run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _fmt(v):
    return f"{v:.4g}" if isinstance(v, float) else str(v)


def main() -> int:
    seconds = json.loads(Path("BENCHMARK.json").read_text())["run_seconds"]
    runs = {w: [_run(w, s, seconds, 0) for s in SEEDS] for w in W.WORKLOADS}
    traced = _run(TRACED_WORKLOAD, TRACE_SEED, seconds, 1)

    print(f"Machine: {os.cpu_count()} CPUs, Python {platform.python_version()}, "
          f"seeds {SEEDS[0]}-{SEEDS[-1]}, --seconds {seconds}.\n")
    print("| workload | metric | unit | Q1 | median | Q3 | spread |")
    print("|---|---|---|---|---|---|---|")
    for w, rows in runs.items():
        for name, cell in rows[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in rows]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"| {w} | {name} | {cell['unit']} | {_fmt(q1)} | {_fmt(med)} | "
                  f"{_fmt(q3)} | {(q3 - q1) / med:.2%} |")
    print("\n| workload | correct | attempted | failed |")
    print("|---|---|---|---|")
    for w, rows in runs.items():
        print(f"| {w} | {all(r['correct'] for r in rows)} | "
              f"{sorted({r['attempted'] for r in rows})} | {sorted({r['failed'] for r in rows})} |")
    values = traced["metrics"]
    print(f"\nPer-layer metrics, traced run of {TRACED_WORKLOAD} at seed {TRACE_SEED}:\n")
    print("| metric | unit | home workload | value |")
    print("|---|---|---|---|")
    for name, unit, _, home in layers.PER_LAYER:
        if home is not None:
            print(f"| {name} | {unit} | {home} | {_fmt(values[name]['value'])} |")
    print(f"\nTracing overhead on {TRACED_WORKLOAD} (% of untraced ops/s): "
          f"{values['trace.overhead_pct']['value']:.1f}")
    out = Path("perfbench") / "out"
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(json.dumps({"runs": runs, "traced": traced}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

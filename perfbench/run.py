"""gammalab benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a gammalab checkout; it uses the sources under src/.
With --trace 0 it measures the end-to-end metrics of one workload; with
--trace 1 it measures every per-layer metric, each on its home workload (so
it traces all four workloads, whichever is named), and the tracing overhead
on the named workload.  The last line of stdout is
{"correct", "attempted", "failed", "metrics"}; failed checks are listed on
stderr.  Run outputs (the result, the worker's per-op records and, when
tracing, the span dumps) go to perfbench/out/.

Order of a run: generate the seeded op list, compute the mpmath and exact
references, compile and warm the sources with one untimed start, time
SETUP_PROBES fresh-interpreter set-ups, then start the worker that sets up
once more and runs the timed phase, and check every output.

Times are calibrated: each is divided by a reference time of the same kind
taken at the same moment, then multiplied by that reference's time on an
idle machine.  In-process ops are referred to a fixed pure-Python loop
(worker.calibrate, LOOP_REF_S) timed before and after each op; an op's
figure is the median of that over the rounds.  CLI commands are referred
to an empty interpreter start (worker.calibrate_start, START_REF_S), set-ups
to an interpreter start that imports numpy (SETUP_REF_CODE, SETUP_REF_S).
On a shared host the machine's speed
swings by up to 2x over seconds; README.md shows how much of that this
cancels.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import layers
import workloads as W
from worker import calibrate_start

SETUP_PROBES = 8
# Rounds of the workloads a traced run does not name: their per-layer figures
# are means over all calls, and fewer rounds keep the traced run (all four
# workloads) well inside 180 s.
TRACE_ROUNDS = 3
# The reference times, in seconds, on an idle 2-CPU x86 VM with CPython
# 3.11: worker.calibrate's loop and an empty interpreter start; the numpy
# start is START_REF_S times its measured ratio to an empty start (2.6).
# They only set the scale of the reported times.
LOOP_REF_S = 6.0e-4
START_REF_S = 3.5e-2
SETUP_REF_S = 9.0e-2
# A set-up is mostly interpreter start plus `import numpy`, gammalab's one
# third-party import (150 of the 190 ms of `import gammalab`), so it is
# referred to a start that does just that: it moves with the machine's
# import speed as a set-up does, and no change to gammalab can change it.
# An empty start alone did not follow set-ups from one hour to the next.
SETUP_REF_CODE = "import numpy"
WORKER_TIMEOUT_S = 170
OUT_DIR = Path("perfbench") / "out"
WORKER = Path(__file__).resolve().parent / "worker.py"


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("GAMMALAB_TOL", None)  # the benchmark runs with the documented defaults
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(root, workload, mode, job=None):
    """Start a worker; return its report, with the raw set-up time measured
    from the spawn and a reference start (SETUP_REF_CODE) timed just before
    it.  For a job, the report also holds each op's latency and output and
    the calibrations around them, read back from the worker's records file."""
    env = worker_env(root)
    if job is not None:
        records = root / OUT_DIR / f"records-{workload}-{mode}.jsonl"
        records.parent.mkdir(parents=True, exist_ok=True)
        job = dict(job, records=str(records))
    start_before = calibrate_start(env, SETUP_REF_CODE)
    t_spawn = _now()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), workload, mode],
        stdin=subprocess.PIPE if job is not None else subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=root,
        env=env,
    )
    data = None if job is None else json.dumps(job).encode()
    try:
        out, err = proc.communicate(data, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{workload} worker ({mode}) timed out") from None
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} worker ({mode}) exited {proc.returncode}: "
            + err.decode(errors="replace").strip()[-2000:]
        )
    report = json.loads(out)
    if job is not None:
        with open(job["records"]) as fh:
            rows = [json.loads(line) for line in fh]
        report["calibration"] = [row[0] for row in rows] + [report["calibration_end"]]
        report["latencies"] = [row[1] for row in rows]
        report["outputs"] = [row[2] for row in rows]
    report["setup_raw_s"] = report["t_ready"] - t_spawn
    report["start_before_s"] = start_before
    return report


def setup_time(reports):
    """Median set-up time over the starts, calibrated by the median of the
    reference starts timed just before them."""
    raw = statistics.median(r["setup_raw_s"] for r in reports)
    ref = statistics.median(r["start_before_s"] for r in reports)
    return raw * SETUP_REF_S / ref


def prepare(workload, seed, seconds):
    ops = W.build(workload, seed)
    rounds = W.rounds_for(workload, seconds)
    refs = [checks.reference(op) for op in ops]
    return ops, rounds, refs


def evaluate(workload, ops, refs, rounds, report):
    """(index, reason) for every op output that fails its check."""
    failures = []
    bad_setup = checks.check_setup(workload, report["facts"])
    if bad_setup:
        failures.append((None, bad_setup))
    outputs = report["outputs"]
    n = len(ops)
    first_reasons = []
    for r in range(rounds):
        round_outs = outputs[r * n:(r + 1) * n]
        by_argv = {
            tuple(op.args["argv"]): out
            for op, out in zip(ops, round_outs)
            if op.kind == "cli"
        }
        for i, (op, ref, out) in enumerate(zip(ops, refs, round_outs)):
            first = outputs[i] if r > 0 else None
            if first is not None and out == first:
                reason = first_reasons[i]  # the same output earns the same verdict
            else:
                reason = checks.check(op, ref, out, first, by_argv)
            if r == 0:
                first_reasons.append(reason)
            if reason:
                failures.append((i, reason))
    return failures


def summarize(workload, ops, rounds, failures):
    """(correct, attempted, failed); correct unless an op outside the known
    faults failed, or a set-up check did."""
    unknown = [f for f in failures if f[0] is None or ops[f[0]].fault is None]
    failed = sum(1 for i, _ in failures if i is not None)
    seen = set()
    for i, reason in failures:
        key = (i, reason)
        if key in seen:
            continue
        seen.add(key)
        tag = f"op {i} ({ops[i].kind})" if i is not None else "set-up"
        known = f" [known fault: {ops[i].fault}]" if i is not None and ops[i].fault else ""
        print(f"perfbench: {workload} {tag}{known}: {reason}", file=sys.stderr)
    return not unknown, rounds * len(ops), failed


def op_times(workload, report, n):
    """Each of the n ops' calibrated time: the median over the rounds of its
    wall time over the mean of the calibrations just before and after it."""
    ref_s = START_REF_S if workload == "cli-session" else LOOP_REF_S
    lat = report["latencies"]
    cal = report["calibration"]
    scaled = [ref_s * t / (0.5 * (cal[j] + cal[j + 1])) for j, t in enumerate(lat)]
    return [statistics.median(scaled[i::n]) for i in range(n)]


def measured_run(root, workload, seed, seconds):
    ops, rounds, refs = prepare(workload, seed, seconds)
    run_worker(root, workload, "probe")  # compiles bytecode, warms the file cache
    setups = [run_worker(root, workload, "probe") for _ in range(SETUP_PROBES)]
    report = run_worker(root, workload, "run", {"rounds": rounds, "ops": [[o.kind, o.args] for o in ops]})
    setups.append(report)
    correct, attempted, failed = summarize(
        workload, ops, rounds, evaluate(workload, ops, refs, rounds, report)
    )
    rss_kb = report["children_maxrss_kb"] if workload == "cli-session" else report["maxrss_kb"]
    times = op_times(workload, report, len(ops))
    metrics = {
        "setup_s": (setup_time(setups), "s"),
        "ops_per_s": (len(times) / sum(times), "ops/s"),
        "op_p50_ms": (1e3 * statistics.median(times), "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    raw = {
        "rounds": rounds,
        "phase_s": report["phase_s"],
        "setup_raw_s": statistics.median(r["setup_raw_s"] for r in setups),
        "start_ref_s": statistics.median(r["start_before_s"] for r in setups),
        "calibration_s": statistics.median(report["calibration"]),
    }
    return correct, attempted, failed, metrics, raw


def traced_run(root, workload, seed, seconds):
    """Every workload under spans, so that every per-layer metric is measured
    on its home workload, plus the named workload once more without spans
    for the tracing overhead.  The named workload runs as many rounds as a
    measured run, traced and untraced; the others run TRACE_ROUNDS."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tables, outputs, ran = {}, {}, {}
    all_correct = True
    for w in W.WORKLOADS:
        ops, rounds, refs = prepare(w, seed, seconds)
        if w != workload:
            rounds = TRACE_ROUNDS
        spans = OUT_DIR / f"spans-{w}-seed{seed}.jsonl"
        job = {"rounds": rounds, "ops": [[o.kind, o.args] for o in ops]}
        run_worker(root, w, "probe")
        report = run_worker(root, w, "trace", dict(job, spans=str(spans)))
        correct, attempted, failed = summarize(
            w, ops, rounds, evaluate(w, ops, refs, rounds, report)
        )
        all_correct = all_correct and correct
        tables[w] = layers.SpanTable.load(spans)
        outputs[w] = report["outputs"]
        ran[w] = rounds
        if w == workload:
            traced = op_times(w, report, len(ops))
            named = (attempted, failed, job)
    attempted, failed, job = named
    plain = op_times(workload, run_worker(root, workload, "run", job), len(job["ops"]))
    traced_rate = len(traced) / sum(traced)
    plain_rate = len(plain) / sum(plain)
    cli_import = [run_worker(root, "cli-session", "probe")["setup_inner_s"]
                  for _ in range(SETUP_PROBES)]
    values = layers.compute(tables, outputs, ran, cli_import)
    values["trace.overhead_pct"] = 100.0 * (plain_rate - traced_rate) / plain_rate
    units = {name: unit for name, unit, _, _ in layers.PER_LAYER}
    metrics = {name: (values[name], units[name]) for name, *_ in layers.PER_LAYER}
    return all_correct, attempted, failed, metrics, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=W.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "gammalab" / "__init__.py").is_file():
        print("perfbench: run from a gammalab checkout (no src/gammalab here)", file=sys.stderr)
        return 2
    measure = traced_run if args.trace else measured_run
    correct, attempted, failed, metrics, raw = measure(root, args.workload, args.seed, args.seconds)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(dict(result, raw=raw), indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

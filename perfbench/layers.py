"""Per-layer metrics from the spans of a traced run.

Each metric has a home workload, the one whose operations exercise its layer
(see README.md for the end-to-end metric each one should move).  A span's
self time is its duration minus the time covered by its child spans.  Times
are means (or medians) over all calls; counts are per round, so that neither
depends on how many rounds a traced run makes.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

# (name, unit, better, home workload)
PER_LAYER = (
    ("landau.trace_ms", "ms", "lower", "trace-replay"),
    ("landau.trace_nodes_per_s", "nodes/s", "higher", "trace-replay"),
    ("landau.validate_nodes_per_s", "nodes/s", "higher", "trace-replay"),
    ("landau.trace_nodes", "nodes", "lower", "trace-replay"),
    ("landau.direct_leaves", "calls", "lower", "trace-replay"),
    ("intervals.contains_us", "us", "lower", "trace-replay"),
    ("intervals.contains_calls", "calls", "lower", "trace-replay"),
    ("landau.construct_explicit_ms", "ms", "lower", "exact-construct"),
    ("landau.construct_summary_ms", "ms", "lower", "exact-construct"),
    ("landau.summary_rounds_per_s", "rounds/s", "higher", "exact-construct"),
    ("landau.iteration_count_ms", "ms", "lower", "exact-construct"),
    ("stern.rank_ms", "ms", "lower", "exact-construct"),
    ("closure.points_per_s", "points/s", "higher", "exact-construct"),
    ("core.gamma_real_us", "us", "lower", "residual-sweep"),
    ("core.gamma_complex_us", "us", "lower", "residual-sweep"),
    ("core.log_gamma_us", "us", "lower", "residual-sweep"),
    ("identities.samples_per_s", "samples/s", "higher", "residual-sweep"),
    ("quadrature.oracle_ms", "ms", "lower", "residual-sweep"),
    ("quadrature.evals", "evaluations", "lower", "residual-sweep"),
    ("schlomilch.series_ms", "ms", "lower", "residual-sweep"),
    ("schlomilch.terms", "terms", "lower", "residual-sweep"),
    ("mellin.transform_ms", "ms", "lower", "residual-sweep"),
    ("cli.import_ms", "ms", "lower", "cli-session"),
    ("cli.process_ms", "ms", "lower", "cli-session"),
    ("cli.main_ms", "ms", "lower", "cli-session"),
    ("cli.report_bytes", "bytes", "lower", "cli-session"),
    ("trace.overhead_pct", "%", "lower", None),
)

TRACERS = ("landau.trace_evaluate", "landau.complex_reduce_trace", "landau.quarter_set_trace")
QUADRATURE = ("quadrature.gamma_integral", "quadrature.beta_integral",
              "quadrature.tanh_sinh", "quadrature.integrate_real_line")
SERIES = ("schlomilch.finite_lhs", "schlomilch.finite_rhs", "schlomilch.generalized_series")


class SpanTable:
    """Per span name: calls, total duration, total self time, total work."""

    def __init__(self, rows):
        child = [0.0] * len(rows)
        for name, t0, t1, parent, op, n in rows:
            if parent >= 0:
                child[parent] += t1 - t0
        self.calls = defaultdict(int)
        self.dur = defaultdict(float)
        self.self = defaultdict(float)
        self.work = defaultdict(int)
        self.durations = defaultdict(list)
        for i, (name, t0, t1, parent, op, n) in enumerate(rows):
            self.calls[name] += 1
            self.dur[name] += t1 - t0
            self.self[name] += t1 - t0 - child[i]
            self.work[name] += n
            self.durations[name].append(t1 - t0)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls([json.loads(line) for line in fh])

    def total(self, table, names):
        return sum(table[n] for n in names)

    def mean_self(self, names):
        return self.total(self.self, names) / self.total(self.calls, names)

    def rate(self, names):
        """Work done per second of self time."""
        return self.total(self.work, names) / self.total(self.self, names)


def _sum_outputs(outputs, key):
    total = 0
    for out in outputs:
        v = out.get(key, 0)
        total += sum(v) if isinstance(v, list) else (v or 0)
    return total


def compute(tables: dict, outputs: dict, rounds: dict, cli_import_s: list) -> dict:
    """Every per-layer metric except the tracing overhead.

    tables: workload -> SpanTable; outputs: workload -> list of op outputs
    from the traced run; rounds: workload -> rounds it ran (every round
    repeats the same ops, so a count over the run divides exactly);
    cli_import_s: fresh-process import times.
    """
    tr = tables["trace-replay"]
    ex = tables["exact-construct"]
    rs = tables["residual-sweep"]
    cl = tables["cli-session"]
    r_tr, r_rs, r_cl = rounds["trace-replay"], rounds["residual-sweep"], rounds["cli-session"]
    m = {
        "landau.trace_ms": 1e3 * tr.mean_self(TRACERS),
        "landau.trace_nodes_per_s": tr.rate(TRACERS),
        "landau.validate_nodes_per_s": tr.rate(["landau.validate_trace"]),
        "landau.trace_nodes": tr.total(tr.work, TRACERS) // r_tr,
        "landau.direct_leaves": _sum_outputs(outputs["trace-replay"], "direct") // r_tr,
        "intervals.contains_us": 1e6 * tr.mean_self(["intervals.contains"]),
        "intervals.contains_calls": tr.calls["intervals.contains"] // r_tr,
        "landau.construct_explicit_ms": 1e3 * ex.mean_self(["landau.construct_explicit"]),
        "landau.construct_summary_ms": 1e3 * ex.mean_self(["landau.construct_summary"]),
        "landau.summary_rounds_per_s": ex.rate(["landau.construct_summary"]),
        "landau.iteration_count_ms": 1e3 * ex.mean_self(["landau.iteration_count"]),
        "stern.rank_ms": 1e3 * ex.mean_self(["stern.independent_count"]),
        "closure.points_per_s": ex.rate(["closure.affine_closure"]),
        "core.gamma_real_us": 1e6 / rs.rate(["core.gamma_real"]),
        "core.gamma_complex_us": 1e6 / rs.rate(["core.gamma_complex"]),
        "core.log_gamma_us": 1e6 / rs.rate(["core.log_gamma"]),
        "identities.samples_per_s": rs.rate(["identities.verify_grid"]),
        "quadrature.oracle_ms": 1e3 * rs.mean_self(QUADRATURE),
        "quadrature.evals": _sum_outputs(outputs["residual-sweep"], "evals") // r_rs,
        "schlomilch.series_ms": 1e3 * rs.mean_self(SERIES),
        "schlomilch.terms": rs.total(rs.work, SERIES[1:]) // r_rs,
        "mellin.transform_ms": 1e3 * rs.mean_self(["mellin.mellin_transform"]),
        "cli.import_ms": 1e3 * statistics.median(cli_import_s),
        "cli.process_ms": 1e3 * statistics.median(cl.durations["cli.process"]),
        "cli.main_ms": 1e3 * statistics.median(cl.durations["cli.main"]),
        "cli.report_bytes": sum(
            len(out.get("stdout", "").encode("utf-8")) for out in outputs["cli-session"]
        ) // r_cl,
    }
    return m

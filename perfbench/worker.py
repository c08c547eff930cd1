"""Runs one workload's operations inside a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD probe   # set up, report, exit
    python3 perfbench/worker.py WORKLOAD run     # set up, read a job on stdin, run it
    python3 perfbench/worker.py WORKLOAD trace   # as run, with one span per library call

The parent (run.py) starts this process, so the set-up time it reports covers
interpreter start, importing gammalab and the workload's one-off set-up.  The
worker imports nothing but gammalab and the standard library, and keeps no
op's output once it is written out, so its peak resident memory is the
program's, not the harness's, whatever the number of rounds.

A job is a JSON object
{"rounds": R, "ops": [[kind, args], ...], "records": path, "spans": path}.
The worker converts every op's arguments before the clock starts, runs the
list R times in order, and times each op on its own.  Before every op, and
once after the last, it takes a calibration time of the same kind as the op
(calibrate for in-process ops, calibrate_start for CLI processes), so the
parent can express each op's time in units of the machine's speed at that
moment.  After each op, outside its timed window, it appends one line
[calibration before, latency, output] to the records path.  In trace mode it
wraps each call into a gammalab public function in a span (name, start, end,
parent span, op id, work count), keeps the spans in memory and writes them to
the job's span path when the timed phase is over.  Nothing inside gammalab is
instrumented.
"""

import math
import sys
import time

_CLOCK = time.CLOCK_MONOTONIC  # system-wide, so the parent can read it too


def _now():
    return time.clock_gettime(_CLOCK)


# ---------------------------------------------------------------------------
# spans


class Direct:
    """Untraced mode: every call goes straight through."""

    op = -1

    def call(self, name, fn, *args, count=None, **kwargs):
        return fn(*args, **kwargs)

    def wrap(self, name, fn):
        return fn


class Spans:
    """Traced mode: one span per call, nested by a stack of open spans.

    A row is [name, start, end, parent row or -1, op id, work count]; the
    work count is 1 unless `count` maps the call's result to another number
    (nodes built, points evaluated, ...).
    """

    def __init__(self):
        self.rows = []
        self.stack = []
        self.op = -1

    def call(self, name, fn, *args, count=None, **kwargs):
        rows = self.rows
        idx = len(rows)
        parent = self.stack[-1] if self.stack else -1
        rows.append(None)
        self.stack.append(idx)
        n = 0
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            n = count(out) if count is not None else 1
            return out
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            rows[idx] = [name, t0, t1, parent, self.op, n]

    def wrap(self, name, fn):
        def traced(*args):
            return self.call(name, fn, *args)

        return traced


# ---------------------------------------------------------------------------
# per-workload set-up: imports plus one-off program work, all timed as set-up


def _setup_trace_replay():
    from fractions import Fraction

    from gammalab import landau

    fs = landau.landau_construct(Fraction(1, 2))
    return {"landau": landau, "fs": fs}


def _setup_exact_construct():
    from gammalab import closure, landau, stern

    return {"landau": landau, "stern": stern, "closure": closure}


def _setup_residual_sweep():
    from gammalab import core, identities, mellin, quadrature, schlomilch

    return {
        "core": core,
        "identities": identities,
        "quadrature": quadrature,
        "schlomilch": schlomilch,
        "mellin": mellin,
    }


def _setup_cli_session():
    from gammalab import cli

    cli.build_parser()
    return {"cli": cli}


SETUP = {
    "trace-replay": _setup_trace_replay,
    "exact-construct": _setup_exact_construct,
    "residual-sweep": _setup_residual_sweep,
    "cli-session": _setup_cli_session,
}


def _setup_facts(workload, st):
    """Facts about the set-up that the parent checks (the delta = 1/2 set)."""
    if workload != "trace-replay":
        return {}
    fs = st["fs"]
    return {"t": fs.t, "measure": str(fs.measure), "explicit": fs.explicit}


# ---------------------------------------------------------------------------
# operations: PREPARE turns JSON args into Python values before the clock
# starts; RUN executes one op and returns a small JSON-able summary.


def _fraction(text):
    from fractions import Fraction

    return Fraction(text)


def _complex(pair):
    return complex(pair[0], pair[1])


def _prep_trace_real(a):
    return _fraction(a["x"])


def _run_trace_real(st, x, S):
    L = st["landau"]
    value, trace = S.call(
        "landau.trace_evaluate", L.trace_evaluate, x, st["fs"],
        count=lambda r: r[1].node_count,
    )
    checked = S.call(
        "landau.validate_trace", L.validate_trace, trace, st["member_real"],
        count=int,
    )
    return {
        "value": value,
        "nodes": trace.node_count,
        "direct": trace.direct_count,
        "validated": checked,
    }


def _prep_trace_complex(a):
    return _complex(a["z"])


def _run_trace_complex(st, z, S):
    L = st["landau"]
    value, trace = S.call(
        "landau.complex_reduce_trace", L.complex_reduce_trace, z, st["fs"],
        count=lambda r: r[1].node_count,
    )
    checked = S.call(
        "landau.validate_trace", L.validate_trace, trace, st["member_complex"],
        count=int,
    )
    return {
        "value": value,
        "nodes": trace.node_count,
        "direct": trace.direct_count,
        "validated": checked,
    }


def _prep_trace_quarter(a):
    return [float(x) for x in a["xs"]]


def _run_trace_quarter(st, xs, S):
    L = st["landau"]
    values, nodes, direct, validated = [], [], [], []
    for x in xs:
        value, trace = S.call(
            "landau.quarter_set_trace", L.quarter_set_trace, x,
            count=lambda r: r[1].node_count,
        )
        checked = S.call(
            "landau.validate_trace", L.validate_trace, trace,
            L.quarter_set_membership, count=int,
        )
        values.append(value)
        nodes.append(trace.node_count)
        direct.append(trace.direct_count)
        validated.append(checked)
    return {"values": values, "nodes": nodes, "direct": direct, "validated": validated}


def _prep_construct(a):
    kwargs = {}
    if a.get("node_budget") is not None:
        kwargs["node_budget"] = int(a["node_budget"])
    return _fraction(a["delta"]), bool(a["explicit"]), kwargs


def _run_construct(st, prepared, S):
    delta, explicit, kwargs = prepared
    name = "landau.construct_explicit" if explicit else "landau.construct_summary"
    fs = S.call(
        name, st["landau"].landau_construct, delta, count=lambda f: f.t, **kwargs
    )
    return {
        "t": fs.t,
        "measure": fs.measure,
        "residual_mass": fs.residual_mass,
        "final_piece_count": fs.final_piece_count,
        "explicit": fs.explicit,
    }


def _prep_iteration_count(a):
    return [_fraction(d) for d in a["deltas"]]


def _run_iteration_count(st, deltas, S):
    L = st["landau"]
    return {"t": [S.call("landau.iteration_count", L.iteration_count, d) for d in deltas]}


def _prep_stern(a):
    return [int(m) for m in a["ms"]]


def _run_stern(st, ms, S):
    count = st["stern"].independent_count
    return {"counts": [S.call("stern.independent_count", count, m) for m in ms]}


def _prep_closure(a):
    return [_fraction(p) for p in a["points"]], int(a["depth"]), int(a["max_n"])


def _run_closure(st, prepared, S):
    points, depth, max_n = prepared
    out = S.call(
        "closure.affine_closure", st["closure"].affine_closure, points, depth, max_n,
        count=len,
    )
    return {"elements": [str(p) for p in out]}


def _prep_verify(a):
    return a["tag"], a["count"], tuple(a["re_range"]), tuple(a["im_range"]), a["seed"], a["tol"]


def _run_verify(st, prepared, S):
    tag, count, re_range, im_range, seed, tol = prepared
    ident = st["identities"]
    spec = ident.SampleSpec(count=count, re_range=re_range, im_range=im_range, seed=seed)
    report = S.call(
        "identities.verify_grid", ident.verify_grid, tag, spec, tol,
        count=lambda r: count,
    )
    return {
        "used": report.sample_count,
        "skipped": report.skipped_count,
        "max": report.max_relative_residual,
        "passed": report.passed,
    }


def _prep_points(a):
    return [_complex(p) if isinstance(p, list) else float(p) for p in a["points"]]


def _gamma_batch(gamma, points):
    return [gamma(p) for p in points]


def _run_gamma(st, points, S):
    name = "core.gamma_complex" if isinstance(points[0], complex) else "core.gamma_real"
    values = S.call(name, _gamma_batch, st["core"].gamma, points, count=len)
    return {"values": values}


def _run_log_gamma(st, points, S):
    values = S.call("core.log_gamma", _gamma_batch, st["core"].log_gamma, points, count=len)
    return {"values": values}


def _prep_gamma_integral(a):
    z = _complex(a["z"]) if isinstance(a["z"], list) else float(a["z"])
    return z, a["rtol"]


def _run_gamma_integral(st, prepared, S):
    z, rtol = prepared
    q = st["quadrature"]
    value = S.call("quadrature.gamma_integral", q.gamma_integral, z,
                   q.QuadratureSpec(relative_tolerance=rtol))
    return {"value": value}


def _prep_beta_integral(a):
    return _complex(a["z"]), _complex(a["w"]), a["rtol"]


def _run_beta_integral(st, prepared, S):
    z, w, rtol = prepared
    q = st["quadrature"]
    value = S.call("quadrature.beta_integral", q.beta_integral, z, w,
                   q.QuadratureSpec(relative_tolerance=rtol))
    return {"value": value}


class _Counted:
    """A benchmark integrand that counts its evaluations (trace mode only)."""

    def __init__(self, f):
        self.f = f
        self.evals = 0

    def __call__(self, x):
        self.evals += 1
        return self.f(x)


def _prep_tanh_sinh_beta(a):
    return float(a["a"]), float(a["b"]), a["rtol"]


def _run_tanh_sinh_beta(st, prepared, S):
    a, b, rtol = prepared

    def f(x):
        return x ** (a - 1.0) * (1.0 - x) ** (b - 1.0)

    if isinstance(S, Spans):
        f = _Counted(f)
    value, err = S.call("quadrature.tanh_sinh", st["quadrature"].tanh_sinh, f, 0.0, 1.0,
                        rtol=rtol)
    return {"value": value, "evals": getattr(f, "evals", None)}


def _prep_real_line_gamma(a):
    return float(a["s"]), a["rtol"]


def _run_real_line_gamma(st, prepared, S):
    s, rtol = prepared

    def g(u):
        # integrand of Gamma(s) after x = e^u
        if u > 700.0:
            return 0.0
        return math.exp(s * u - math.exp(u))

    if isinstance(S, Spans):
        g = _Counted(g)
    value, err = S.call("quadrature.integrate_real_line",
                        st["quadrature"].integrate_real_line, g, rtol=rtol)
    return {"value": value, "evals": getattr(g, "evals", None)}


def _prep_finite(a):
    return [(int(m), float(z)) for m, z in a["pairs"]]


def _run_finite(st, pairs, S):
    sch = st["schlomilch"]
    out = []
    for m, z in pairs:
        lhs = S.call("schlomilch.finite_lhs", sch.schlomilch_finite_lhs, m, z)
        rhs = S.call("schlomilch.finite_rhs", sch.schlomilch_finite_rhs, m, z,
                     count=lambda r: m + 1)
        out.append((lhs, rhs))
    return {"values": out}


def _prep_general(a):
    return [(float(w), float(z)) for w, z in a["pairs"]], a["tol"], a["max_terms"]


def _run_general(st, prepared, S):
    pairs, tol, max_terms = prepared
    sch = st["schlomilch"]
    out = []
    for w, z in pairs:
        r = S.call("schlomilch.generalized_series", sch.generalized_series, w, z, tol,
                   max_terms, count=lambda r: r.terms_used)
        out.append((r.value, r.terms_used, r.converged))
    return {"values": out}


def _prep_mellin(a):
    return a["phi"], float(a["s"])


def _run_mellin(st, prepared, S):
    tag, s = prepared
    m = st["mellin"]
    spec = S.call("mellin.catalog_entry", m.catalog_entry, tag)
    value = S.call("mellin.mellin_transform", m.mellin_transform, spec, s)
    return {"value": value}


_CLI_MAIN = "import sys; from gammalab.cli import main; sys.exit(main())"


def _prep_cli(a):
    return [str(x) for x in a["argv"]]


def _run_cli(st, argv, S):
    import subprocess

    proc = S.call(
        "cli.process", subprocess.run, [sys.executable, "-c", _CLI_MAIN, *argv],
        capture_output=True,
    )
    return {
        "code": proc.returncode,
        "stdout": proc.stdout.decode("utf-8", "replace"),
        "stderr": proc.stderr.decode("utf-8", "replace"),
    }


def _main_in_process(cli, argv):
    """cli.main without interpreter start (trace mode, after the timed
    phase); returns the report's byte count."""
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            cli.main(argv)
        except Exception:  # the known overflow fault escapes main as ValueError
            pass
    return len(buf.getvalue().encode("utf-8"))


PREPARE = {
    "trace_real": _prep_trace_real,
    "trace_complex": _prep_trace_complex,
    "trace_quarter": _prep_trace_quarter,
    "construct": _prep_construct,
    "iteration_count": _prep_iteration_count,
    "stern": _prep_stern,
    "closure": _prep_closure,
    "verify": _prep_verify,
    "gamma": _prep_points,
    "log_gamma": _prep_points,
    "gamma_integral": _prep_gamma_integral,
    "beta_integral": _prep_beta_integral,
    "tanh_sinh_beta": _prep_tanh_sinh_beta,
    "real_line_gamma": _prep_real_line_gamma,
    "finite_series": _prep_finite,
    "general_series": _prep_general,
    "mellin": _prep_mellin,
    "cli": _prep_cli,
}

RUN = {
    "trace_real": _run_trace_real,
    "trace_complex": _run_trace_complex,
    "trace_quarter": _run_trace_quarter,
    "construct": _run_construct,
    "iteration_count": _run_iteration_count,
    "stern": _run_stern,
    "closure": _run_closure,
    "verify": _run_verify,
    "gamma": _run_gamma,
    "log_gamma": _run_log_gamma,
    "gamma_integral": _run_gamma_integral,
    "beta_integral": _run_beta_integral,
    "tanh_sinh_beta": _run_tanh_sinh_beta,
    "real_line_gamma": _run_real_line_gamma,
    "finite_series": _run_finite,
    "general_series": _run_general,
    "mellin": _run_mellin,
    "cli": _run_cli,
}


def _bind_callbacks(workload, st, S):
    """The validator's membership callbacks, wrapped in intervals spans."""
    if workload != "trace-replay":
        return
    from fractions import Fraction

    union = st["fs"].leaf_union

    def member_real(a):
        return a in union

    def member_complex(a):
        return isinstance(a, complex) and abs(a.imag) < 1.0 and Fraction(a.real) in union

    st["member_real"] = S.wrap("intervals.contains", member_real)
    st["member_complex"] = S.wrap("intervals.contains", member_complex)


def _encode(obj):
    from fractions import Fraction

    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, Fraction):
        return str(obj)
    raise TypeError(f"cannot encode {obj!r}")


def calibrate():
    """Time a fixed mix of interpreter work: Fraction arithmetic on
    growing integers, dict updates, a float sort.  It uses no gammalab code,
    so a change to the program cannot change its cost; a busy neighbour on a
    shared host slows it about as much as it slows in-process ops."""
    from fractions import Fraction

    t0 = time.perf_counter()
    acc = Fraction(0)
    d = {}
    for i in range(1, 120):
        acc += Fraction(3 ** (i % 40), 2 ** (i % 61) + 1)
        d[i % 53] = d.get(i % 53, 0) + i
    sorted(((i * 7919) % 1009) * 0.5 for i in range(600))
    return time.perf_counter() - t0


def calibrate_start(env=None, code="pass"):
    """Time an interpreter start that runs `code` (python3 -c pass by
    default), the calibration for process-level timings: CLI commands, and
    with `import numpy` set-ups."""
    import subprocess

    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    return time.perf_counter() - t0


def main(argv):
    workload, mode = argv[1], argv[2]
    t_import = _now()
    st = SETUP[workload]()
    t_ready = _now()
    import json
    import resource

    facts = {
        "t_ready": t_ready,
        "setup_inner_s": t_ready - t_import,
        "facts": _setup_facts(workload, st),
    }
    if mode == "probe":
        sys.stdout.write(json.dumps(facts) + "\n")
        return 0

    job = json.load(sys.stdin)
    S = Spans() if mode == "trace" else Direct()
    _bind_callbacks(workload, st, S)
    ops = [(RUN[kind], PREPARE[kind](args)) for kind, args in job["ops"]]
    rounds = int(job["rounds"])
    cal = calibrate_start if workload == "cli-session" else calibrate
    perf = time.perf_counter
    with open(job["records"], "w") as records:
        phase_start = perf()
        for r in range(rounds):
            for i, (run, prepared) in enumerate(ops):
                S.op = r * len(ops) + i
                before = cal()
                t0 = perf()
                try:
                    out = run(st, prepared, S)
                except Exception as exc:  # an op that raises is a failed op
                    out = {"exception": f"{type(exc).__name__}: {exc}"}
                latency = perf() - t0
                records.write(json.dumps([before, latency, out], default=_encode) + "\n")
                del out
        calibration_end = cal()
        phase_s = perf() - phase_start
    if mode == "trace" and workload == "cli-session":
        for i, (_, argv) in enumerate(ops):
            S.op = i
            S.call("cli.main", _main_in_process, st["cli"], argv, count=lambda n: n)
    facts.update(
        phase_s=phase_s,
        calibration_end=calibration_end,
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        children_maxrss_kb=resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    if mode == "trace":
        with open(job["spans"], "w") as fh:
            for row in S.rows:
                fh.write(json.dumps(row) + "\n")
    sys.stdout.write(json.dumps(facts) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

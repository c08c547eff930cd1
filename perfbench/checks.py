"""Checks of every op's output against oracles.py or a property the method
must have.  Never against a saved copy of an earlier output.

``reference(op)`` is computed before the timed phase; ``check(op, ref, out,
first)`` returns None when the output is right, else a one-line reason.
``first`` is the same op's output in the first round, which a repeated input
must reproduce exactly.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

import oracles as O
import workloads as W

TRACE_TOL = 1e-9  # real and quarter traces
COMPLEX_TRACE_TOL = 1e-8
KERNEL_TOL = 1e-12  # the core.py header's accuracy target for |z| <= 170
IDENTITY_TOL = 1e-10
SERIES_TOL = 1e-8
MELLIN_TOL = 1e-7


def _c(v):
    """A JSON value (number or [re, im] pair) as a Python number."""
    return complex(v[0], v[1]) if isinstance(v, list) else v


def _worst(values, refs, floor=0.0):
    return max(
        (abs(_c(v) - r) / max(abs(r), floor) for v, r in zip(values, refs)),
        default=0.0,
    )


# ---------------------------------------------------------------------------
# references


def reference(op: W.Op):
    a = op.args
    k = op.kind
    if k == "trace_real":
        return O.gamma(float(Fraction(a["x"])))
    if k == "trace_complex":
        return O.gamma(_c(a["z"]))
    if k == "trace_quarter":
        return [O.gamma(x) for x in a["xs"]]
    if k == "construct":
        delta = Fraction(a["delta"])
        ref = {"t": O.rounds_t(delta)}
        if a["delta"] in W.ENUMERATED:
            _, ref["residual"], ref["pieces"] = O.enumerate_remainder(delta)
        return ref
    if k == "iteration_count":
        return [O.rounds_t(Fraction(d)) for d in a["deltas"]]
    if k == "stern":
        return [O.totient(m) // 2 for m in a["ms"]]
    if k == "closure":
        return len(a["points"]) * O.closure_branching(a["max_n"]) ** a["depth"]
    if k == "verify":
        return None
    if k == "gamma":
        return [O.gamma(_c(p)) for p in a["points"]]
    if k == "log_gamma":
        return [O.log_gamma(_c(p)) for p in a["points"]]
    if k == "gamma_integral":
        return O.gamma(_c(a["z"]))
    if k == "beta_integral":
        return O.beta(_c(a["z"]), _c(a["w"]))
    if k == "tanh_sinh_beta":
        return O.beta(a["a"], a["b"])
    if k == "real_line_gamma":
        return O.gamma(a["s"])
    if k == "finite_series":
        return [O.schlomilch_finite(m, z) for m, z in a["pairs"]]
    if k == "general_series":
        return [O.schlomilch_general(w, z) for w, z in a["pairs"]]
    if k == "mellin":
        return O.mellin(a["phi"], a["s"])
    if k == "cli":
        return cli_reference(a["argv"])
    raise ValueError(f"unknown op kind {k!r}")


# ---------------------------------------------------------------------------
# library ops


def check(op: W.Op, ref, out: dict, first: dict | None, round_outputs=None):
    if "exception" in out:
        return f"raised {out['exception']}"
    if op.kind == "cli":
        return check_cli(op.args["argv"], ref, out, first, round_outputs or {})
    if first is not None and out != first:
        return "a repeated input gave a different output"
    return _CHECKS[op.kind](op.args, ref, out)


def _trace(tol):
    def run(a, ref, out):
        err = O.rel_err(_c(out["value"]), ref)
        if not err <= tol:
            return f"trace value off by {err:.3e} relative (tolerance {tol:g})"
        if out["validated"] != out["nodes"]:
            return f"validate_trace replayed {out['validated']} of {out['nodes']} nodes"
        return None

    return run


def _trace_quarter(a, ref, out):
    err = _worst(out["values"], ref)
    if not err <= TRACE_TOL:
        return f"quarter trace value off by {err:.3e} relative"
    if out["validated"] != out["nodes"]:
        return "validate_trace did not replay every node"
    return None


def _construct(a, ref, out):
    delta = Fraction(a["delta"])
    t = out["t"]
    if t != ref["t"]:
        return f"t = {t}, the least t for delta = {delta} is {ref['t']}"
    measure = Fraction(out["measure"])
    residual = Fraction(out["residual_mass"])
    if not measure < delta:
        return f"measure {measure} is not < delta = {delta}"
    if not residual < (1 - delta / 4) ** t:
        return "residual_mass is not < (1 - delta/4)**t"
    if out["explicit"] != a["explicit"]:
        return f"built in {'explicit' if out['explicit'] else 'summary'} mode"
    if not a["explicit"] and measure != delta / 2 + residual:
        return "summary measure != delta/2 + residual_mass"
    if "residual" in ref:
        if residual != ref["residual"]:
            return "residual_mass differs from the piece-by-piece enumeration"
        # explicit mode merges touching pieces, so only summary counts compare
        if not a["explicit"] and out["final_piece_count"] != ref["pieces"]:
            return (f"final_piece_count {out['final_piece_count']} != "
                    f"{ref['pieces']} enumerated pieces")
    return None


def _iteration_count(a, ref, out):
    if out["t"] != ref:
        return f"iteration_count gave {out['t']}, integer search gives {ref}"
    return None


def _stern(a, ref, out):
    if out["counts"] != ref:
        return f"independent counts {out['counts']} != phi(m)/2 = {ref}"
    return None


def _closure(a, ref, out):
    elements = [Fraction(e) for e in out["elements"]]
    if len(set(elements)) != len(elements):
        return "closure lists an element twice"
    if not {Fraction(p) for p in a["points"]} <= set(elements):
        return "closure does not contain its input"
    if not all(e > 0 for e in elements):
        return "closure has a non-positive element"
    if not len(elements) <= ref:
        return f"closure has {len(elements)} > |S| K**depth = {ref} elements"
    return None


def _verify(a, ref, out):
    if out["used"] + out["skipped"] != a["count"]:
        return "used + skipped samples != samples requested"
    if not (out["max"] < IDENTITY_TOL and out["passed"]):
        return f"{a['tag']}: max residual {out['max']:.3e}"
    return None


def _kernel(floor):
    def run(a, ref, out):
        err = _worst(out["values"], ref, floor)
        if not err <= KERNEL_TOL:
            bad = sum(
                abs(_c(v) - r) / max(abs(r), floor) > KERNEL_TOL
                for v, r in zip(out["values"], ref)
            )
            return f"{bad} of {len(ref)} kernel values miss 1e-12 (worst {err:.3e})"
        return None

    return run


def _within(tol):
    def run(a, ref, out):
        err = O.rel_err(_c(out["value"]), ref)
        bound = a.get("rtol", tol)
        if not err <= bound:
            return f"value off by {err:.3e} relative (tolerance {bound:g})"
        return None

    return run


def _finite(a, ref, out):
    for (lhs, rhs), r in zip(out["values"], ref):
        err = max(O.rel_err(_c(lhs), r), O.rel_err(_c(rhs), r))
        if not err <= SERIES_TOL:
            return f"finite series off by {err:.3e}"
    return None


def _general(a, ref, out):
    for (value, terms, converged), r in zip(out["values"], ref):
        if not converged:
            return "generalized series did not converge"
        err = O.rel_err(_c(value), r)
        if not err <= SERIES_TOL:
            return f"generalized series off by {err:.3e}"
    return None


_CHECKS = {
    "trace_real": _trace(TRACE_TOL),
    "trace_complex": _trace(COMPLEX_TRACE_TOL),
    "trace_quarter": _trace_quarter,
    "construct": _construct,
    "iteration_count": _iteration_count,
    "stern": _stern,
    "closure": _closure,
    "verify": _verify,
    "gamma": _kernel(0.0),
    "log_gamma": _kernel(1.0),
    "gamma_integral": _within(None),
    "beta_integral": _within(None),
    "tanh_sinh_beta": _within(None),
    "real_line_gamma": _within(None),
    "finite_series": _finite,
    "general_series": _general,
    "mellin": _within(MELLIN_TOL),
}


def check_setup(workload: str, facts: dict):
    """The delta = 1/2 set that trace-replay builds during set-up."""
    if workload != "trace-replay":
        return None
    if facts["t"] != O.rounds_t(Fraction(1, 2)) or facts["t"] != 11:
        return f"delta = 1/2 set has t = {facts['t']}, not 11"
    if not Fraction(facts["measure"]) < Fraction(1, 2):
        return "delta = 1/2 set has measure >= 1/2"
    if not facts["explicit"]:
        return "delta = 1/2 set was not built explicitly"
    return None


# ---------------------------------------------------------------------------
# CLI reports


def _opt(argv, name):
    for i, a in enumerate(argv):
        if a == name:
            return argv[i + 1]
        if a.startswith(name + "="):
            return a.split("=", 1)[1]
    return None


def _num_arg(text):
    if "," in text:
        re_s, im_s = text.split(",", 1)
        return complex(float(re_s), float(im_s))
    return float(Fraction(text)) if "/" in text else float(text)


def cli_reference(argv):
    """Expected exit code, and reference numbers, for one command."""
    cmd = argv[0] if argv[0] not in ("schlomilch", "landau") else " ".join(argv[:2])
    ref = {"cmd": cmd, "code": 0}
    if cmd == "eval":
        z = _num_arg(_opt(argv, "--z"))
        if isinstance(z, float) and z > 171.7:
            ref.update(code=1, error="overflow")
        else:
            ref["gamma"] = O.gamma(complex(z))
    elif cmd == "schlomilch finite":
        m, z = int(_opt(argv, "--m")), float(_opt(argv, "--z"))
        ref["value"] = O.schlomilch_finite(m, z)
    elif cmd == "schlomilch general":
        ref["value"] = O.schlomilch_general(float(_opt(argv, "--w")), float(_opt(argv, "--z")))
    elif cmd == "schlomilch binom":
        ref["value"] = O.binomial_lhs(int(_opt(argv, "--m")), int(_opt(argv, "--l")))
    elif cmd == "landau construct":
        delta = Fraction(_opt(argv, "--delta"))
        ref["t"] = O.rounds_t(delta)
        _, ref["residual"], _ = O.enumerate_remainder(delta)
    elif cmd == "landau trace":
        ref["value"] = O.gamma(float(Fraction(_opt(argv, "--x"))))
    elif cmd == "landau quarter":
        ref["value"] = O.gamma(float(_opt(argv, "--x")))
    elif cmd == "complex-trace":
        ref["value"] = O.gamma(complex(_num_arg(_opt(argv, "--z"))))
    elif cmd == "stern":
        ref["value"] = O.totient(int(_opt(argv, "--m"))) // 2
    elif cmd == "closure":
        ref["K"] = O.closure_branching(int(_opt(argv, "--max-n")))
    elif cmd == "mellin":
        ref["value"] = O.mellin(_opt(argv, "--phi"), float(_opt(argv, "--s")))
    return ref


_VALIDATOR = None


def schema_validator(root="."):
    """A validator for the report schema that ships with the checkout."""
    global _VALIDATOR
    if _VALIDATOR is None:
        import jsonschema

        with open(f"{root}/src/gammalab/schemas/report.schema.json") as fh:
            schema = json.load(fh)
        _VALIDATOR = jsonschema.Draft202012Validator(schema)
    return _VALIDATOR


def _tree_counts(node):
    """(nodes, direct leaves) of an emitted trace, counted iteratively."""
    nodes = direct = 0
    stack = [node]
    while stack:
        n = stack.pop()
        nodes += 1
        direct += n["rule"] == "direct"
        stack.extend(n["children"])
    return nodes, direct


def flatten(obj, prefix=""):
    """The key paths of the csv/text formats: dotted keys, list indices."""
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield from flatten(obj[k], f"{prefix}{k}.")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from flatten(v, f"{prefix}{i}.")
    else:
        yield prefix[:-1], obj


def _same_scalar(text, value):
    if isinstance(value, bool):
        return text == ("true" if value else "false")
    if isinstance(value, float):
        return float(text) == value
    return text == str(value)


def _parse_flat(fmt, stdout):
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(stdout)))
        if len(rows) != 2 or len(rows[0]) != len(rows[1]):
            raise ValueError("csv report is not one header row and one data row")
        return dict(zip(rows[0], rows[1]))
    pairs = [line.split(" = ", 1) for line in stdout.splitlines()]
    if any(len(p) != 2 for p in pairs):
        raise ValueError("text report has a line that is not 'key = value'")
    return dict(pairs)


def check_cli(argv, ref, out, first, round_outputs):
    """One command: exit code, empty stderr, one schema-valid report whose
    numbers match the oracles, and the same bytes as the first round."""
    if out["stderr"]:
        last = out["stderr"].strip().splitlines()[-1:] or [""]
        return f"stderr not empty: {last[0][:120]}"
    if out["code"] != ref["code"]:
        return f"exit code {out['code']}, documented {ref['code']}"
    if first is not None and out["stdout"] != first["stdout"]:
        return "the same argv gave different bytes"
    fmt = _opt(argv, "--format") or "json"
    if fmt != "json":
        base = tuple(argv[: argv.index("--format")])
        if base not in round_outputs:
            return "no json run of the same command to compare with"
        report = json.loads(round_outputs[base]["stdout"])
        try:
            flat = _parse_flat(fmt, out["stdout"])
        except ValueError as exc:
            return str(exc)
        want = dict(flatten(report))
        if set(flat) != set(want) or not all(_same_scalar(flat[k], want[k]) for k in want):
            return f"{fmt} report differs from the json report"
        return None
    lines = out["stdout"].splitlines()
    if len(lines) != 1:
        return f"stdout holds {len(lines)} lines, not one report"
    try:
        report = json.loads(lines[0])
    except ValueError as exc:
        return f"stdout is not JSON: {exc}"
    errors = list(schema_validator().iter_errors(report))
    if errors:
        return f"report fails the schema: {errors[0].message[:120]}"
    return _check_report(argv, ref, report)


def _rel(value, ref):
    return O.rel_err(_c(value), ref)


def _check_report(argv, ref, r):
    cmd = ref["cmd"]
    if "error" in ref:
        if r.get("error") != ref["error"]:
            return f"expected a {ref['error']!r} error report"
        return None
    if "error" in r:
        return f"error report {r['error']}: {r.get('detail', '')[:80]}"
    if r.get("pass") is False or r.get("equal") is False or r.get("within_bound") is False:
        return "the report's own check failed"
    if cmd == "eval":
        if not (_rel(r["gamma"], ref["gamma"]) <= KERNEL_TOL
                and abs(r["modulus"] - abs(ref["gamma"])) <= KERNEL_TOL * abs(ref["gamma"])):
            return "eval value misses mpmath by more than 1e-12"
    elif cmd == "verify":
        if r["samples"] + r["skipped"] != int(_opt(argv, "--samples")):
            return "samples + skipped != samples requested"
        if not r["max_rel_residual"] < IDENTITY_TOL:
            return "identity residual not below 1e-10"
    elif cmd == "schlomilch finite":
        if not max(_rel(r["lhs"], ref["value"]), _rel(r["rhs"], ref["value"])) <= SERIES_TOL:
            return "finite series misses mpmath by more than 1e-8"
    elif cmd == "schlomilch general":
        if not (_rel(r["closed_form"], ref["value"]) <= SERIES_TOL
                and _rel(r["series"]["value"], ref["value"]) <= SERIES_TOL):
            return "generalized series misses mpmath by more than 1e-8"
    elif cmd == "schlomilch binom":
        if not (Fraction(r["lhs"]) == Fraction(r["rhs"]) == ref["value"]):
            return "binomial identity sides differ from C(m+l, m)"
    elif cmd == "landau construct":
        delta = Fraction(r["delta"])
        measure = Fraction(r["measure"])
        if r["t"] != ref["t"]:
            return f"t = {r['t']}, expected {ref['t']}"
        if not measure < delta:
            return "measure is not < delta"
        if Fraction(r["residual_mass"]) != ref["residual"]:
            return "residual_mass differs from the piece-by-piece enumeration"
        leaves = [(Fraction(v["lo"]), Fraction(v["hi"])) for v in r["leaves"]]
        if any(lo >= hi for lo, hi in leaves) or any(
            a[1] > b[0] for a, b in zip(leaves, leaves[1:])
        ):
            return "leaves are not sorted disjoint intervals"
        if sum((hi - lo for lo, hi in leaves), Fraction(0)) != measure:
            return "leaf lengths do not add up to the measure"
    elif cmd in ("landau trace", "landau quarter", "complex-trace"):
        tol = COMPLEX_TRACE_TOL if cmd == "complex-trace" else TRACE_TOL
        if not _rel(r["value"], ref["value"]) <= tol:
            return "trace value misses mpmath"
        if r["validated_nodes"] != r["nodes"]:
            return "validate_trace did not replay every node"
        if "trace" in r and _tree_counts(r["trace"]) != (r["nodes"], r["direct_leaves"]):
            return "emitted trace does not hold the reported node counts"
    elif cmd == "stern":
        if not r["independent"] == r["expected"] == ref["value"]:
            return "independent count != phi(m)/2"
    elif cmd == "closure":
        points = {Fraction(p) for p in r["points"]}
        elements = {Fraction(e) for e in r["elements"]}
        bound = len(points) * ref["K"] ** r["depth"]
        if r["K"] != ref["K"] or r["bound"] != bound:
            return "closure K or bound differs from the count of maps"
        if not (points <= elements and len(elements) == r["cardinality"] <= bound):
            return "closure misses its input or exceeds |S| K**depth"
    elif cmd == "mellin":
        if not _rel(r["transform"], ref["value"]) <= MELLIN_TOL:
            return "Mellin transform misses pi/sin(pi s) phi(-s)"
    return None

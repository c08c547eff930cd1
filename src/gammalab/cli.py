"""Command-line front end with machine-readable, byte-reproducible reports.

Every subcommand prints one report to stdout — JSON by default, CSV (one
header row + one data row) or key = value text on request — and exits 0
when its checks pass, 1 on a failed check or a structured error
({"error": kind, "detail": ...}), 2 on usage errors.  The kinds are those of
_ERROR_KINDS: "empty_grid", "domain", "convergence", "resource" (a node or
cardinality budget, or landau's round cap), "pole" and "overflow" (a
non-finite value); "internal" is a failure that is no documented numeric
error.  All floats are written in their shortest round-trip form (repr) and JSON keys
are sorted, so a fixed argv (plus seed) gives identical bytes.

The seven subcommands that check a residual take --tol, finite and > 0,
each with its own default: verify 1e-10; schlomilch finite and general
1e-8; mellin 1e-7; landau trace and quarter 1e-9; complex-trace 1e-8.  The
other five (eval, schlomilch binom, landau construct, stern, closure) check
no residual and take no --tol.  Nothing is read from the environment, so a
report is a function of its argv alone.

Each handler imports its own modules, so a subcommand loads only what it
uses: ``eval`` loads ``core`` and nothing of ``landau`` or ``identities``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .errors import ConvergenceError, DomainError, EmptyGridError, ResourceError

_ERROR_KINDS = (
    (EmptyGridError, "empty_grid"),
    (DomainError, "domain"),
    (ConvergenceError, "convergence"),
    (ResourceError, "resource"),
    (ZeroDivisionError, "pole"),
    (OverflowError, "overflow"),
)


# ---------------------------------------------------------------------------
# argument parsing helpers (all failures here are usage errors, exit 2)


def _arg_rational(text: str):
    from .intervals import as_fraction

    try:
        return as_fraction(text)
    except (DomainError, ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from None


def _arg_complex(text: str) -> complex:
    """Parse "re,im" pairs, plain reals, or exact rationals into a complex."""
    try:
        if "," in text:
            re_s, im_s = text.split(",", 1)
            return complex(float(re_s), float(im_s))
        if "/" in text:
            from fractions import Fraction

            return complex(float(Fraction(text)))
        return complex(float(text))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None


def _arg_tol(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0 < tol < math.inf:  # nan fails too
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return tol


def _arg_identity(text: str) -> str:
    from .identities import parse_identity_tag

    try:
        parse_identity_tag(text)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _arg_grid(text: str):
    """Grid spec "count:relo:rehi:imlo:imhi"; SampleSpec checks the values."""
    parts = text.split(":")
    if len(parts) != 5:
        raise argparse.ArgumentTypeError(
            f"grid spec must be count:relo:rehi:imlo:imhi, got {text!r}"
        )
    try:
        count = int(parts[0])
        relo, rehi, imlo, imhi = (float(p) for p in parts[1:])
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad grid spec {text!r}") from None
    return count, (relo, rehi), (imlo, imhi)


def _arg_points(text: str) -> tuple:
    items = [p for p in text.split(",") if p]
    if not items:
        raise argparse.ArgumentTypeError("empty point list")
    return tuple(_arg_rational(p) for p in items)


# ---------------------------------------------------------------------------
# serialization


def _flatten(report):
    """(dotted key, scalar) pairs of a nested report, depth first with dict
    keys sorted; an explicit stack walks a trace of any depth."""
    stack = [("", report)]
    while stack:
        prefix, obj = stack.pop()
        if isinstance(obj, dict):
            stack += [(f"{prefix}{k}.", obj[k]) for k in sorted(obj, reverse=True)]
        elif isinstance(obj, (list, tuple)):
            stack += [(f"{prefix}{i}.", obj[i]) for i in reversed(range(len(obj)))]
        else:
            yield prefix[:-1], obj


def _scalar_text(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        if not math.isfinite(v):
            raise OverflowError("non-finite value in report")
        return repr(v)
    return str(v)


# json.dumps(value, sort_keys=True, allow_nan=False, ...) for each report value
_JSON = json.JSONEncoder(sort_keys=True, allow_nan=False, separators=(",", ":"), ensure_ascii=False)


def _render(report: dict, fmt: str) -> str:
    """The report in fmt.  A value with its own JSON writer, json_parts (the
    DerivationTrace of --emit-trace), is written by it in its sorted-key
    place; csv and text flatten its to_json_dict()."""
    if fmt == "json":
        parts, sep = ["{"], ""
        try:
            for key in sorted(report):
                value = report[key]
                parts.append(f"{sep}{_JSON.encode(key)}:")
                sep = ","
                if hasattr(value, "json_parts"):
                    parts += value.json_parts()
                else:
                    parts.append(_JSON.encode(value))
        except ValueError:  # a non-finite float, refused as allow_nan=False does
            raise OverflowError("non-finite value in report") from None
        parts.append("}\n")
        return "".join(parts)
    report = {k: v.to_json_dict() if hasattr(v, "json_parts") else v for k, v in report.items()}
    pairs = [(k, _scalar_text(v)) for k, v in _flatten(report)]
    if fmt == "csv":
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([k for k, _ in pairs])
        writer.writerow([v for _, v in pairs])
        return buf.getvalue()
    return "".join(f"{k} = {v}\n" for k, v in pairs)


def _pair(z: complex) -> list:
    z = complex(z)
    return [z.real, z.imag]


# ---------------------------------------------------------------------------
# subcommand handlers: each takes the parsed args and returns (exit_code, report_dict)


def _cmd_eval(args):
    from .core import gamma

    value = gamma(args.z if args.z.imag != 0.0 else args.z.real)
    value = complex(value)
    return 0, {
        "z": _pair(args.z),
        "gamma": _pair(value),
        "modulus": abs(value),
    }


def _cmd_verify(args):
    from .identities import _IDENTITIES, SampleSpec, parse_identity_tag, verify_grid

    samples = 200 if args.samples is None else args.samples
    if args.grid is not None:
        spec = SampleSpec(*args.grid, seed=args.seed)
    elif window := _IDENTITIES[parse_identity_tag(args.identity)[0]].window:
        # a real-only identity: sampling the generic box would leave almost
        # every draw outside its window
        spec = SampleSpec(count=samples, re_range=window, seed=args.seed)
    else:
        spec = SampleSpec(count=samples, seed=args.seed)
    report = verify_grid(args.identity, spec, args.tol)
    return (0 if report.passed else 1), report.to_json_dict()


def _verdict(report: dict, residual: float, tol: float, ok: bool = True):
    """Add the residual, the tolerance and the verdict (ok and residual <= tol)
    to a report; return (exit_code, report)."""
    ok = ok and residual <= tol
    report.update({"residual": residual, "tolerance": tol, "pass": ok})
    return (0 if ok else 1), report


def _cmd_schlomilch_finite(args):
    from . import schlomilch
    from .core import _residual

    lhs = schlomilch.schlomilch_finite_lhs(args.m, args.z)
    rhs = schlomilch.schlomilch_finite_rhs(args.m, args.z)
    report = {"m": args.m, "z": _pair(args.z), "lhs": _pair(lhs), "rhs": _pair(rhs)}
    return _verdict(report, _residual(lhs, rhs), args.tol)


def _cmd_schlomilch_general(args):
    from . import schlomilch
    from .core import _residual

    closed = schlomilch.generalized_lhs(args.w, args.z)
    series = schlomilch.generalized_series(args.w, args.z, tolerance=args.tol, max_terms=args.max_terms)
    report = {
        "w": _pair(args.w),
        "z": _pair(args.z),
        "closed_form": _pair(closed),
        "series": series.to_json_dict(),
    }
    # at a positive-integer w or z both are 0 but for the sum's rounding
    residual = _residual(closed, series.value, max(abs(closed), series.mass))
    return _verdict(report, residual, args.tol, series.converged)


def _cmd_schlomilch_binom(args):
    from . import schlomilch
    from .core import _text

    lhs, rhs, equal = schlomilch.binomial_identity_check(args.m, args.l)
    return (0 if equal else 1), {
        "m": args.m,
        "l": args.l,
        "lhs": _text(lhs),
        "rhs": _text(rhs),
        "equal": equal,
    }


def _fundamental_set(args):
    """The set of measure < --delta, under --node-budget or, when that is
    not given, landau's own default."""
    from .landau import DEFAULT_NODE_BUDGET, landau_construct

    budget = DEFAULT_NODE_BUDGET if args.node_budget is None else args.node_budget
    return landau_construct(args.delta, node_budget=budget)


def _cmd_landau_construct(args):
    return 0, _fundamental_set(args).to_json_dict()


def _trace_report(args, head: dict, value, trace, reference, membership):
    """The report of one derivation trace, checked against the reference
    value and replayed by validate_trace; --emit-trace adds the record
    itself, which _render writes as JSON text straight from its lists and
    flattens from its to_json_dict() in csv and text."""
    from .core import _residual
    from .landau import validate_trace

    residual = _residual(value, reference, abs(reference))
    report = dict(
        head,
        value=_pair(value),
        reference=_pair(reference),
        direct_leaves=trace.direct_count,
        nodes=trace.node_count,
        validated_nodes=validate_trace(trace, membership),
    )
    if args.emit_trace:
        report["trace"] = trace
    return _verdict(report, residual, args.tol)


def _cmd_landau_trace(args):
    from .core import gamma
    from .landau import trace_evaluate

    fs = _fundamental_set(args)
    value, trace = trace_evaluate(args.x, fs)
    head = {"x": str(args.x), "delta": str(args.delta)}
    return _trace_report(
        args, head, value, trace, gamma(float(args.x)), lambda a: a in fs.leaf_union
    )


def _cmd_landau_quarter(args):
    from .core import gamma
    from .landau import quarter_set_membership, quarter_set_trace

    value, trace = quarter_set_trace(args.x)
    return _trace_report(
        args, {"x": args.x}, value, trace, gamma(args.x), quarter_set_membership
    )


def _cmd_complex_trace(args):
    from .core import gamma
    from .landau import complex_reduce_trace, strip_membership

    fs = _fundamental_set(args)
    value, trace = complex_reduce_trace(args.z, fs)
    head = {"z": _pair(args.z), "delta": str(args.delta)}
    return _trace_report(args, head, value, trace, gamma(args.z), strip_membership(fs))


def _cmd_stern(args):
    from . import stern

    # independent_count raises unless the count is the expected phi(m)/2
    return 0, {
        "m": args.m,
        "independent": stern.independent_count(args.m),
        "expected": stern.totient(args.m) // 2,
    }


def _cmd_closure(args):
    from . import closure
    from .core import _text

    budget = closure.DEFAULT_CARDINALITY_BUDGET if args.budget is None else args.budget
    pts = closure.affine_closure(args.points, args.depth, args.max_n, budget=budget)
    K = closure.branching_factor(args.max_n)
    bound = len(args.points) * K**args.depth
    within = len(pts) <= bound
    return (0 if within else 1), {
        "points": [_text(p) for p in args.points],
        "depth": args.depth,
        "max_n": args.max_n,
        "K": K,
        "cardinality": len(pts),
        "bound": bound,
        "within_bound": within,
        "elements": [_text(p) for p in sorted(pts)],
    }


def _cmd_mellin(args):
    from . import mellin
    from .core import _residual

    spec = mellin.catalog_entry(args.phi)
    if args.s.is_integer():
        # rmt_closed_form refuses every integer s: ask it before the integral
        mellin.rmt_closed_form(spec, args.s)
    transform = mellin.mellin_transform(spec, args.s)
    closed = mellin.rmt_closed_form(spec, args.s)
    report = {"phi": spec.id, "s": args.s, "transform": transform, "closed_form": closed}
    return _verdict(report, _residual(transform, closed), args.tol)


# ---------------------------------------------------------------------------
# parser assembly


def _add_common(p, tol=None):
    """--format, and --tol with its default tol where the subcommand checks
    a residual."""
    if tol is not None:
        p.add_argument("--tol", type=_arg_tol, default=tol,
                       help=f"residual tolerance, finite and > 0 (default {tol:g})")
    p.add_argument("--format", choices=("json", "csv", "text"), default="json",
                   help="report format (default json)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gammalab",
        description="Gamma-function identity laboratory: evaluate, verify, "
        "construct fundamental sets, and replay derivation traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the options of the subcommands that build a fundamental set, and of
    # those that can emit a trace, each declared once
    fs_opts = argparse.ArgumentParser(add_help=False)
    fs_opts.add_argument("--delta", type=_arg_rational, required=True,
                         help="a rational in (0, 1]; a delta needing more than landau.ROUND_CAP "
                              "= 12000 rounds (below about 1/442) is refused as resource")
    fs_opts.add_argument("--node-budget", type=int,
                         help="most nodes of an enumerated set; a larger set stays in summary "
                              "form, which no trace can use (default landau.DEFAULT_NODE_BUDGET)")
    trace_opts = argparse.ArgumentParser(add_help=False)
    trace_opts.add_argument("--emit-trace", action="store_true",
                            help="include the full derivation tree in the report")

    p = sub.add_parser("eval", help="evaluate Gamma at a point")
    p.add_argument("--z", type=_arg_complex, required=True,
                   help="argument, as RE or RE,IM or P/Q (use --z=VALUE when RE is negative)")
    _add_common(p)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("verify", help="residual-check one identity on a seeded sample")
    p.add_argument("--identity", type=_arg_identity, required=True,
                   help="functional|reflection|duplication|comb|mult:N|sine:K|cosine:M; "
                        "mult:N skips each draw with |z + j| < N/10 for some j < N, "
                        "where the slot (z + j)/N is within 0.1 of the pole 0, so on "
                        "the default box it is empty_grid from N = 52")
    # no default=200: argparse would then let --grid ... --samples 200 through
    sampling = p.add_mutually_exclusive_group()
    sampling.add_argument("--grid", type=_arg_grid,
                          help="sample region as count:relo:rehi:imlo:imhi")
    sampling.add_argument("--samples", type=int,
                          help="sample count when --grid is not given (default 200)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    _add_common(p, 1e-10)
    p.set_defaults(handler=_cmd_verify)

    ps = sub.add_parser("schlomilch", help="factorial-series identities")
    ssub = ps.add_subparsers(dest="subcommand", required=True)

    p = ssub.add_parser("finite", help="degree-m finite identity at z")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--z", type=_arg_complex, required=True)
    _add_common(p, 1e-8)
    p.set_defaults(handler=_cmd_schlomilch_finite)

    p = ssub.add_parser("general", help="two-parameter series vs closed form")
    p.add_argument("--w", type=_arg_complex, required=True,
                   help="RE or RE,IM or P/Q (use --w=VALUE when RE is negative)")
    p.add_argument("--z", type=_arg_complex, required=True,
                   help="RE or RE,IM or P/Q (use --z=VALUE when RE is negative)")
    p.add_argument("--max-terms", type=int, default=500)
    _add_common(p, 1e-8)
    p.set_defaults(handler=_cmd_schlomilch_general)

    p = ssub.add_parser("binom", help="exact binomial corollary at (m, l)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_schlomilch_binom)

    pl = sub.add_parser("landau", help="fundamental-set construction and traces")
    lsub = pl.add_subparsers(dest="subcommand", required=True)

    p = lsub.add_parser("construct", help="build the measure-<delta set", parents=[fs_opts])
    _add_common(p)
    p.set_defaults(handler=_cmd_landau_construct)

    p = lsub.add_parser("trace", help="derive Gamma(x) from the constructed set",
                        parents=[fs_opts, trace_opts])
    p.add_argument("--x", type=_arg_rational, required=True)
    _add_common(p, 1e-9)
    p.set_defaults(handler=_cmd_landau_trace)

    p = lsub.add_parser("quarter", help="derive Gamma(x) from (0,1/4] + {1/3, 1}", parents=[trace_opts])
    p.add_argument("--x", type=float, required=True)
    _add_common(p, 1e-9)
    p.set_defaults(handler=_cmd_landau_quarter)

    p = sub.add_parser("stern", help="count independent log-gamma values mod m")
    p.add_argument("--m", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_stern)

    p = sub.add_parser("closure", help="finite affine closure of rational points")
    p.add_argument("--points", type=_arg_points, required=True,
                   help="comma-separated rationals, e.g. 1/3,2/5")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--budget", type=int)
    _add_common(p)
    p.set_defaults(handler=_cmd_closure)

    p = sub.add_parser("mellin", help="master-theorem residual for a catalog phi")
    p.add_argument("--phi", required=True, help="one|geom:A|exp|log1p")
    p.add_argument("--s", type=float, required=True)
    _add_common(p, 1e-7)
    p.set_defaults(handler=_cmd_mellin)

    p = sub.add_parser("complex-trace", help="reduce Gamma(z) to strip evaluations",
                       parents=[fs_opts, trace_opts])
    p.add_argument("--z", type=_arg_complex, required=True,
                   help="RE,IM (use --z=RE,IM when RE is negative)")
    _add_common(p, 1e-8)
    p.set_defaults(handler=_cmd_complex_trace)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, report = args.handler(args)
        out = _render(report, args.format)
    except Exception as exc:
        # a documented numeric error keeps its kind; anything else is a
        # fault of gammalab itself, still reported, never a traceback
        kind = next((k for t, k in _ERROR_KINDS if isinstance(exc, t)), None)
        detail = str(exc) if kind else f"{type(exc).__name__}: {exc}"
        code, out = 1, _render({"error": kind or "internal", "detail": detail}, args.format)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())

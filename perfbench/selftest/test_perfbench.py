"""Self-tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest perfbench/selftest -q

They show that every workload runs to its end at a tiny size, that every
check rejects a corrupted output, and that the independent oracles reproduce
textbook values.
"""

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import layers  # noqa: E402
import oracles as O  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402

checks.schema_validator(ROOT)


# ---------------------------------------------------------------------------
# oracles


def test_oracles_reproduce_textbook_values():
    assert abs(O.gamma(0.5) - math.sqrt(math.pi)) <= 1e-15 * math.sqrt(math.pi)
    assert O.totient(12) == 4
    assert [O.totient(m) // 2 for m in range(3, 13)] == [1, 1, 2, 1, 3, 2, 3, 2, 5, 2]
    assert O.rounds_t(Fraction(1, 2)) == 11
    assert O.closure_branching(1) == 4
    t, residual, pieces = O.enumerate_remainder(Fraction(1, 2))
    assert (t, pieces) == (11, 1024) and residual < Fraction(7, 8) ** 11


# ---------------------------------------------------------------------------
# each check rejects a corrupted output


def _trace_case():
    op = W.Op("trace_real", {"x": "3/8"})
    ref = checks.reference(op)
    return op, ref, {"value": ref, "nodes": 5, "direct": 3, "validated": 5}


def test_trace_value_off_by_1e6_is_rejected():
    op, ref, out = _trace_case()
    assert checks.check(op, ref, out, None) is None
    assert "off by" in checks.check(op, ref, dict(out, value=ref * (1 + 1e-6)), None)
    assert "replayed" in checks.check(op, ref, dict(out, validated=4), None)


def _summary_case():
    delta = Fraction(1, 10)
    op = W.Op("construct", {"delta": str(delta), "node_budget": None, "explicit": False})
    ref = checks.reference(op)
    t = ref["t"]
    residual = Fraction(1, 2) * (1 - delta / 4) ** t  # any mass below the bound
    out = {"t": t, "measure": str(delta / 2 + residual), "residual_mass": str(residual),
           "final_piece_count": 7, "explicit": False}
    return op, ref, out


def test_measure_not_below_delta_is_rejected():
    op, ref, out = _summary_case()
    assert checks.check(op, ref, out, None) is None
    assert "not < delta" in checks.check(op, ref, dict(out, measure="1/10"), None)


def test_wrong_t_is_rejected():
    op, ref, out = _summary_case()
    assert "t = " in checks.check(op, ref, dict(out, t=out["t"] + 1), None)
    ic = W.Op("iteration_count", {"deltas": ["1/2"]})
    assert checks.check(ic, checks.reference(ic), {"t": [12]}, None)
    assert checks.check(ic, checks.reference(ic), {"t": [11]}, None) is None


def test_enumeration_catches_a_wrong_piece_count():
    op = W.Op("construct", {"delta": "1/2", "node_budget": 1, "explicit": False})
    ref = checks.reference(op)
    out = {"t": 11, "measure": str(Fraction(1, 4) + ref["residual"]),
           "residual_mass": str(ref["residual"]), "final_piece_count": 1024,
           "explicit": False}
    assert checks.check(op, ref, out, None) is None
    assert "enumerated" in checks.check(op, ref, dict(out, final_piece_count=512), None)


def test_stern_count_off_by_one_is_rejected():
    op = W.Op("stern", {"ms": [7, 12]})
    ref = checks.reference(op)
    assert checks.check(op, ref, {"counts": [3, 2]}, None) is None
    assert "phi(m)/2" in checks.check(op, ref, {"counts": [3, 3]}, None)


def _cli_case(stdout, stderr="", code=0):
    argv = ["stern", "--m", "7"]
    return checks.check(W.Op("cli", {"argv": argv}), checks.cli_reference(argv),
                        {"code": code, "stdout": stdout, "stderr": stderr}, None)


def test_report_failing_the_schema_is_rejected():
    good = json.dumps({"m": 7, "independent": 3, "expected": 3}) + "\n"
    assert _cli_case(good) is None
    assert "schema" in _cli_case(json.dumps({"m": 7, "independent": 3}) + "\n")


def test_traceback_on_stderr_is_rejected():
    good = json.dumps({"m": 7, "independent": 3, "expected": 3}) + "\n"
    tb = "Traceback (most recent call last):\n  ...\nValueError: boom\n"
    assert "stderr" in _cli_case(good, stderr=tb)


def test_repeated_input_must_repeat_its_output():
    op, ref, out = _trace_case()
    assert "repeated" in checks.check(op, ref, out, dict(out, nodes=7))


# ---------------------------------------------------------------------------
# every workload, at a tiny size, runs to its end


def _tiny(workload, mode):
    ops = W.build(workload, seed=3, scale=0.05)
    refs = [checks.reference(op) for op in ops]
    job = {"rounds": 2, "ops": [[o.kind, o.args] for o in ops]}
    if mode == "trace":
        job["spans"] = str(ROOT / "perfbench" / "out" / f"selftest-spans-{workload}.jsonl")
        (ROOT / "perfbench" / "out").mkdir(exist_ok=True)
    report = run.run_worker(ROOT, workload, mode, job)
    failures = run.evaluate(workload, ops, refs, 2, report)
    correct, attempted, failed = run.summarize(workload, ops, 2, failures)
    return ops, report, correct, attempted, failed, job


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_tiny_workload_runs_to_its_end(workload):
    ops, report, correct, attempted, failed, _ = _tiny(workload, "run")
    assert correct
    assert attempted == 2 * len(ops) == len(report["latencies"])
    # only the known-fault ops fail, once per round
    assert failed == 2 * sum(op.fault is not None for op in ops)
    assert report["setup_raw_s"] > 0 and report["phase_s"] > 0


def test_tiny_traced_run_gives_every_per_layer_metric():
    tables, outputs = {}, {}
    for w in W.WORKLOADS:
        _, report, correct, _, _, job = _tiny(w, "trace")
        assert correct
        tables[w] = layers.SpanTable.load(job["spans"])
        outputs[w] = report["outputs"]
    values = layers.compute(tables, outputs, dict.fromkeys(W.WORKLOADS, 2), [0.2])
    expected = {name for name, *_ in layers.PER_LAYER} - {"trace.overhead_pct"}
    assert set(values) == expected
    assert all(v > 0 for v in values.values())


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "ops_per_s", "op_p50_ms", "peak_rss_mb"}
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in layers.PER_LAYER]

import csv
import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

import gammalab
from gammalab import cli
from gammalab.cli import main

_SCHEMA = json.loads(
    (Path(gammalab.__file__).parent / "schemas" / "report.schema.json").read_text()
)
_VALIDATOR = jsonschema.Draft202012Validator(_SCHEMA)


@pytest.fixture
def long_int_strings():
    """Lift the int/str digit limit of Python >= 3.11 for one test."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(limit)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(argv, capsys):
    code, out = run(argv, capsys)
    report = json.loads(out)
    _VALIDATOR.validate(report)
    return code, report


class TestEval:
    def test_real_point(self, capsys):
        code, report = run_json(["eval", "--z", "5"], capsys)
        assert code == 0
        assert report["gamma"][0] == pytest.approx(24.0, rel=1e-13)
        assert report["gamma"][1] == 0.0
        assert report["modulus"] == pytest.approx(24.0, rel=1e-13)

    def test_rational_point(self, capsys):
        code, report = run_json(["eval", "--z", "1/2"], capsys)
        assert code == 0
        assert report["gamma"][0] == pytest.approx(math.sqrt(math.pi), rel=1e-15)

    def test_complex_point(self, capsys):
        code, report = run_json(["eval", "--z", "0.5,2.0"], capsys)
        assert code == 0
        assert report["z"] == [0.5, 2.0]

    def test_pole_is_structured_error(self, capsys):
        code, report = run_json(["eval", "--z", "0"], capsys)
        assert code == 1
        assert report["error"] == "pole"
        assert "detail" in report

    def test_negative_real_via_equals_form(self, capsys):
        code, report = run_json(["eval", "--z=-2.5"], capsys)
        assert code == 0
        # Gamma(-5/2) = -8 sqrt(pi) / 15
        assert report["gamma"][0] == pytest.approx(
            -8.0 * math.sqrt(math.pi) / 15.0, rel=1e-12
        )


    def test_overflow_is_structured_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gammalab.cli", "eval", "--z", "172"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr == ""
        report = json.loads(proc.stdout)
        _VALIDATOR.validate(report)
        assert report["error"] == "overflow"
        assert "detail" in report

    def test_complex_overflow_is_structured_error(self):
        # Gamma(171.65 + 0.001i) leaves the floating range as inf - inf i
        proc = subprocess.run(
            [sys.executable, "-m", "gammalab.cli", "eval", "--z=171.65,0.001"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr == ""
        report = json.loads(proc.stdout)
        _VALIDATOR.validate(report)
        assert report["error"] == "overflow"
        assert "exceeds the floating range" in report["detail"]


class TestVerify:
    def test_default_run_passes(self, capsys):
        code, report = run_json(["verify", "--identity", "reflection"], capsys)
        assert code == 0
        assert report["pass"] is True
        assert report["seed"] == 0
        assert report["samples"] + report["skipped"] == 200

    def test_unachievable_tolerance_fails_cleanly(self, capsys):
        code, report = run_json(
            ["verify", "--identity", "functional", "--tol", "1e-30"], capsys
        )
        assert code == 1
        assert report["pass"] is False

    def test_seed_changes_worst_point(self, capsys):
        _, a = run_json(["verify", "--identity", "duplication", "--seed", "1"], capsys)
        _, b = run_json(["verify", "--identity", "duplication", "--seed", "2"], capsys)
        assert a["worst_point"] != b["worst_point"]

    def test_explicit_grid(self, capsys):
        code, report = run_json(
            ["verify", "--identity", "sine:4", "--grid", "50:-1:1:-1:1"], capsys
        )
        assert code == 0
        assert report["samples"] == 50

    def test_samples_help_states_the_default(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        assert "(default 200)" in capsys.readouterr().out

    def test_zero_samples_is_domain_error(self, capsys):
        code, report = run_json(["verify", "--identity", "reflection", "--samples", "0"], capsys)
        assert (code, report) == (1, {"error": "domain", "detail": "sample count must be >= 1, got 0"})

    @pytest.mark.parametrize(
        "grid,detail",
        [("0:0:1:0:1", "sample count must be >= 1, got 0"), ("5:1:0:0:1", "re_range must be ordered")],
        ids=["0:0:1:0:1", "5:1:0:0:1"],
    )
    def test_degenerate_grid_is_domain_error(self, grid, detail, capsys):
        # --grid only parses its fields; SampleSpec refuses what they describe
        code, report = run_json(["verify", "--identity", "functional", "--grid", grid], capsys)
        assert (code, report) == (1, {"error": "domain", "detail": detail})

    def test_comb_defaults_to_its_window(self, capsys):
        code, report = run_json(["verify", "--identity", "comb"], capsys)
        assert code == 0
        assert report["samples"] > 20

    def test_empty_grid_error(self, capsys):
        code, report = run_json(
            ["verify", "--identity", "functional", "--grid", "5:-0.01:0.01:0:0"],
            capsys,
        )
        assert code == 1
        assert report["error"] == "empty_grid"

    def test_mult_slot_clearance_empties_the_default_box(self, capsys):
        # a slot (z + j)/52 is within 0.1 of the pole 0 wherever |z + j| < 5.2,
        # which leaves no draw of the default box at seed 0; mult:51 keeps one
        code, report = run_json(["verify", "--identity", "mult:52"], capsys)
        assert code == 1
        assert report == {
            "error": "empty_grid",
            "detail": "all 200 sampled points for 'mult:52' were skipped; a slot "
            "(z + j)/52 lies within 0.1 of the pole 0 wherever |z + j| < 5.2",
        }
        code, report = run_json(["verify", "--identity", "mult:51"], capsys)
        assert (code, report["samples"], report["skipped"]) == (0, 1, 199)

    def test_cosine_expansion_on_a_real_segment(self, capsys):
        # the sum cancels from terms of 1.6e5 to |cos 17u| = 9e-3 at the worst
        # draw: scaled by that value alone it read 3.8e-10 and failed
        code, report = run_json(
            ["verify", "--identity", "cosine:8", "--grid", "120:-3:3:0:0", "--seed", "0"],
            capsys,
        )
        assert code == 0
        assert report["max_rel_residual"] < 1e-13

    def test_tiny_gamma_values_are_compared_relatively(self, capsys):
        # |Gamma| is below 1e-280 here: an absolute residual read 1.3e-298
        code, report = run_json(
            ["verify", "--identity", "duplication", "--grid", "60:-170:-160:-1:1"], capsys
        )
        assert code == 0
        assert 1e-300 < report["max_rel_residual"] < 1e-10

    @pytest.mark.parametrize(
        "grid", ["10:0:inf:0:0", "10:-inf:0:0:0", "10:0:1:0:inf", "10:-1.7e308:1.7e308:0:0"]
    )
    def test_non_finite_grid_is_domain_error(self, grid, capsys):
        # an infinite end or width is no region: unchecked, it would put inf
        # or nan draws in the sample
        code = main(["verify", "--identity", "functional", "--grid", grid])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        report = json.loads(captured.out)
        _VALIDATOR.validate(report)
        assert report["error"] == "domain"

    def test_negative_seed_is_domain_error(self, capsys):
        # Random(-1) would silently replay the stream of Random(1)
        code, report = run_json(
            ["verify", "--identity", "functional", "--seed", "-1", "--samples", "5"], capsys
        )
        assert code == 1
        assert report["error"] == "domain"

    def test_bad_identity_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--identity", "zeta"])
        assert exc.value.code == 2


class TestSchlomilch:
    def test_finite(self, capsys):
        code, report = run_json(
            ["schlomilch", "finite", "--m", "3", "--z", "7.5"], capsys
        )
        assert code == 0
        assert report["pass"] is True
        assert report["residual"] < 1e-12

    def test_finite_domain_error(self, capsys):
        code, report = run_json(
            ["schlomilch", "finite", "--m", "3", "--z", "2.0"], capsys
        )
        assert code == 1
        assert report["error"] == "domain"

    def test_general(self, capsys):
        code, report = run_json(
            ["schlomilch", "general", "--w", "1.3", "--z", "0.9"], capsys
        )
        assert code == 0
        assert report["series"]["converged"] is True
        assert report["pass"] is True

    @pytest.mark.parametrize("w,z", [("1", "0.7"), ("2", "0.3")])
    def test_general_at_a_positive_integer(self, w, z, capsys):
        # the closed form is exactly 0 and the series cancels to about 1e-15:
        # the residual is read against the size of the summed terms
        code, report = run_json(["schlomilch", "general", "--w", w, "--z", z], capsys)
        assert code == 0
        assert report["closed_form"] == [0.0, 0.0]
        assert report["residual"] < 1e-14

    def test_general_cosine_pole(self, capsys):
        code, report = run_json(
            ["schlomilch", "general", "--w", "1.25", "--z", "1.25"], capsys
        )
        assert code == 1
        assert report["error"] == "domain"

    def test_binom(self, capsys):
        code, report = run_json(
            ["schlomilch", "binom", "--m", "4", "--l", "6"], capsys
        )
        assert code == 0
        assert report["equal"] is True
        assert report["lhs"] == report["rhs"] == "210"

    def test_binom_negative_is_domain_error(self, capsys):
        code, report = run_json(
            ["schlomilch", "binom", "--m", "-1", "--l", "2"], capsys
        )
        assert code == 1
        assert report["error"] == "domain"


class TestLandau:
    def test_construct_explicit(self, capsys):
        code, report = run_json(["landau", "construct", "--delta", "1/2"], capsys)
        assert code == 0
        assert report["explicit"] is True
        assert report["t"] == 11
        assert report["measure"] == "583337/2097152"

    def test_set_options_have_one_help(self, capsys):
        # --delta and --node-budget are declared once, for all three
        # subcommands that build a set, the round cap in --delta's help
        helps = []
        for argv in (["landau", "construct"], ["landau", "trace"], ["complex-trace"]):
            with pytest.raises(SystemExit):
                main(argv + ["--help"])
            out = capsys.readouterr().out
            helps.append(out[out.index("  --delta DELTA"):out.index("DEFAULT_NODE_BUDGET)")])
        assert helps[0] == helps[1] == helps[2] and "ROUND_CAP" in helps[0]

    def test_construct_summary(self, capsys):
        code, report = run_json(["landau", "construct", "--delta", "1/10"], capsys)
        assert code == 0
        assert report["explicit"] is False
        assert report["t"] == 119
        assert report["leaves"] == [{"lo": "0", "hi": "1/20", "kind": "I"}]

    @pytest.mark.parametrize(
        "delta,digest",
        [
            ("1/64", "5b0f84936efebd2d44b1aa3aaa56b636aaf193888e00cb7e4f06eace2f1ca812"),
            ("7/200", "5b68756a99696f6075c136776b57d1e2434402fc0d44aa0a1877bc66a04aa7c5"),
        ],
    )
    def test_summary_report_bytes(self, delta, digest, capsys):
        # the generated recursion loop, bit for bit on every interpreter: the
        # reports at no threshold (1/64) and at ten thresholds (7/200)
        code, out = run(["landau", "construct", "--delta", delta], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_construct_past_the_round_cap_is_resource_error(self, capsys):
        # delta = 1/1000 needs t = 30400 rounds; it used to run about 19 s
        code, report = run_json(["landau", "construct", "--delta", "1/1000"], capsys)
        assert code == 1
        assert report["error"] == "resource"
        assert "t = 30400 rounds" in report["detail"]

    def test_construct_small_delta_process(self, long_int_strings):
        # the exact measure at delta = 1/200 has about 11,000 digits
        proc = subprocess.run(
            [sys.executable, "-m", "gammalab.cli", "landau", "construct",
             "--delta", "1/200"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        report = json.loads(proc.stdout)
        _VALIDATOR.validate(report)
        assert report["explicit"] is False
        assert Fraction(report["measure"]) < Fraction(1, 200)

    def test_trace(self, capsys):
        code, report = run_json(
            ["landau", "trace", "--x", "3/7", "--delta", "1/2"], capsys
        )
        assert code == 0
        assert report["pass"] is True
        assert report["x"] == "3/7"
        assert report["validated_nodes"] == report["nodes"]
        assert "trace" not in report

    def test_trace_emit(self, capsys):
        code, report = run_json(
            ["landau", "trace", "--x", "3/7", "--delta", "1/2", "--emit-trace"],
            capsys,
        )
        assert code == 0
        assert report["trace"]["rule"] in (
            "direct", "functional", "reflection", "duplication", "comb",
        )
        assert report["trace"]["arg"] == "3/7"

    def test_trace_on_summary_set_is_resource_error(self, capsys):
        code, report = run_json(
            ["landau", "trace", "--x", "1/3", "--delta", "1/10"], capsys
        )
        assert code == 1
        assert report["error"] == "resource"

    def test_quarter(self, capsys):
        code, report = run_json(["landau", "quarter", "--x", "0.3"], capsys)
        assert code == 0
        assert report["pass"] is True
        assert report["x"] == 0.3

    def test_quarter_band_rejected(self, capsys):
        code, report = run_json(
            ["landau", "quarter", "--x", "0.33333333349"], capsys
        )
        assert code == 1
        assert report["error"] == "domain"

    def test_quarter_next_to_half_is_pole(self, capsys):
        code, out = run(["landau", "quarter", "--x", "0.4999999999999"], capsys)
        assert code == 1
        assert out == (
            '{"detail":"gamma pole at non-positive integer near 1.9984014443252818e-13",'
            '"error":"pole"}\n'
        )

    def test_complex_trace(self, capsys):
        code, report = run_json(
            ["complex-trace", "--z=-2.3,1.7", "--delta", "1/2"], capsys
        )
        assert code == 0
        assert report["pass"] is True
        assert report["z"] == [-2.3, 1.7]

    def test_deep_complex_trace_is_overflow_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gammalab.cli", "complex-trace", "--delta", "1/2",
             "--z=1200.5,0.5"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr == ""
        report = json.loads(proc.stdout)
        _VALIDATOR.validate(report)
        assert report["error"] == "overflow"

    def test_over_budget_complex_trace_is_resource_error(self, capsys, monkeypatch):
        # the default budget of 500,000 nodes takes about 1.5 s to run out
        from gammalab.landau import complex_reduce_trace

        monkeypatch.setitem(complex_reduce_trace.__kwdefaults__, "node_budget", 100)
        code, report = run_json(["complex-trace", "--delta", "1/2", "--z=0.37,5"], capsys)
        assert code == 1
        assert report == {
            "error": "resource",
            "detail": "complex reduction exceeded the node budget of 100: |Im z| = 5.0 "
            "needs 8 strip points, and 79 nodes were built when it stopped",
        }

    def test_shift_chain_past_the_budget_is_resource_error(self, capsys):
        # z - 1 rounds to z at Re z = 1e300: refused before any node is built,
        # where the shifts used to spend the whole default budget
        code, report = run_json(["complex-trace", "--delta", "1/2", "--z=1e300,0.5"], capsys)
        assert code == 1
        assert report == {
            "error": "resource",
            "detail": "Re z = 1e+300 needs more shift steps z -> z - 1, one node each, "
            "than the node budget of 500000",
        }

    def test_reflection_past_the_range_of_sin_is_domain_error(self, capsys):
        # refused before any node is built, though the default budget would
        # run out first
        code, report = run_json(["complex-trace", "--delta", "1/2", "--z=-1.3,300.5"], capsys)
        assert code == 1
        assert report == {
            "error": "domain",
            "detail": "sin(pi z) overflows at z = (-1.3+300.5j): |Im z| past about 226.15",
        }


class TestSmallTools:
    def test_stern(self, capsys):
        code, report = run_json(["stern", "--m", "7"], capsys)
        assert code == 0
        assert report == {"m": 7, "independent": 3, "expected": 3}

    def test_stern_small_modulus(self, capsys):
        code, report = run_json(["stern", "--m", "2"], capsys)
        assert code == 1
        assert report["error"] == "domain"

    def test_closure(self, capsys):
        code, report = run_json(
            ["closure", "--points", "1/3,2/5", "--depth", "2", "--max-n", "2"],
            capsys,
        )
        assert code == 0
        assert report["within_bound"] is True
        assert report["K"] == 10
        assert report["cardinality"] == len(report["elements"])
        assert report["cardinality"] <= report["bound"]

    def test_closure_budget(self, capsys):
        code, report = run_json(
            [
                "closure", "--points", "1/7", "--depth", "6", "--max-n", "4",
                "--budget", "50",
            ],
            capsys,
        )
        assert code == 1
        assert report["error"] == "resource"

    def test_closure_budget_at_depth_zero(self, capsys):
        code, report = run_json(
            [
                "closure", "--points", "1/2,1/3,1/5", "--depth", "0", "--max-n", "2",
                "--budget", "2",
            ],
            capsys,
        )
        assert code == 1
        assert report == {
            "error": "resource",
            "detail": "closure exceeded the cardinality budget 2",
        }

    def test_closure_at_depth_zero_builds_no_maps(self, capsys, monkeypatch):
        from gammalab import closure

        def no_maps(max_n):
            raise AssertionError("depth 0 needs no maps")

        monkeypatch.setattr(closure, "_image_ratios", no_maps)
        code, report = run_json(["closure", "--points", "1/3", "--depth", "0", "--max-n", "100"], capsys)
        assert (code, report["K"], report["elements"]) == (0, 20002, ["1/3"])
        self.test_closure_budget_at_depth_zero(capsys)

    def test_mellin(self, capsys):
        code, report = run_json(["mellin", "--phi", "one", "--s", "0.5"], capsys)
        assert code == 0
        assert report["pass"] is True
        assert report["transform"] == pytest.approx(math.pi, rel=1e-9)

    def test_mellin_outside_strip(self, capsys):
        code, report = run_json(["mellin", "--phi", "one", "--s", "1.5"], capsys)
        assert code == 1
        assert report["error"] == "domain"

    def test_mellin_unknown_phi(self, capsys):
        code, report = run_json(["mellin", "--phi", "zeta", "--s", "0.5"], capsys)
        assert code == 1
        assert report["error"] == "domain"

    @pytest.mark.parametrize("s", ["1", "2", "5", "171", "172"])
    def test_mellin_integer_s_is_domain_error(self, s, capsys, monkeypatch):
        # phi = exp has the strip (0, inf): the transform exists, but the
        # closed form pi / sin(pi s) * phi(-s) does not at an integer, so
        # the report is refused before anything is integrated (at 171 and
        # 172 the integral would overflow first)
        from gammalab import mellin

        def no_integral(spec, s):
            raise AssertionError("integrated for an integer s")

        monkeypatch.setattr(mellin, "mellin_transform", no_integral)
        code, report = run_json(["mellin", "--phi", "exp", "--s", s], capsys)
        assert code == 1
        assert report == {"error": "domain", "detail": f"s must not be an integer, got {s}.0"}

    @pytest.mark.parametrize("s", ["171.1", "171.3"])
    def test_mellin_overflowed_transform_is_overflow(self, s, capsys):
        # the tanh-sinh sum for Gamma(s) overflows although Gamma(s) is finite;
        # it was returned as inf and reached the JSON writer at s = 171.3
        code, report = run_json(["mellin", "--phi", "exp", "--s", s], capsys)
        assert code == 1
        assert report["error"] == "overflow"


class TestNonFiniteArguments:
    @pytest.mark.parametrize(
        "argv,detail",
        [
            (["complex-trace", "--delta", "1/2", "--z=nan,0"], "z must be finite, got (nan+0j)"),
            (["complex-trace", "--delta", "1/2", "--z=0.5,nan"], "z must be finite, got (0.5+nanj)"),
            (["complex-trace", "--delta", "1/2", "--z=inf,0"], "z must be finite, got (inf+0j)"),
            (["schlomilch", "general", "--w", "nan", "--z", "0.7"], "w must be finite, got (nan+0j)"),
            (["schlomilch", "general", "--w", "inf", "--z", "0.7"], "w must be finite, got (inf+0j)"),
            (["schlomilch", "general", "--w", "0.7", "--z", "nan"], "z must be finite, got (nan+0j)"),
            (["mellin", "--phi", "geom:inf", "--s", "0.5"], "geometric ratio must be finite, got inf"),
        ],
        ids=["trace-nan-re", "trace-nan-im", "trace-inf-re", "general-nan-w", "general-inf-w",
             "general-nan-z", "mellin-geom-inf"],
    )
    def test_domain_error(self, argv, detail, capsys):
        code, report = run_json(argv, capsys)
        assert code == 1
        assert report == {"error": "domain", "detail": detail}


class TestFormats:
    def test_csv_is_header_plus_row(self, capsys):
        code, out = run(["eval", "--z", "5", "--format", "csv"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0] == "gamma.0,gamma.1,modulus,z.0,z.1"
        assert float(lines[1].split(",")[2]) == pytest.approx(24.0, rel=1e-13)

    def test_text_key_values(self, capsys):
        code, out = run(["stern", "--m", "5", "--format", "text"], capsys)
        assert code == 0
        assert "expected = 2" in out.splitlines()
        assert "independent = 2" in out.splitlines()

    def test_error_in_text_format(self, capsys):
        code, out = run(["eval", "--z", "0", "--format", "text"], capsys)
        assert code == 1
        assert any(line == "error = pole" for line in out.splitlines())

    @pytest.mark.parametrize("tol,code,word", [([], 0, "true"), (["--tol", "1e-300"], 1, "false")])
    def test_booleans_are_lowercase_words(self, tol, code, word, capsys):
        argv = ["verify", "--identity", "functional", "--samples", "5", *tol, "--format"]
        got, out = run([*argv, "csv"], capsys)
        assert got == code
        header, row = out.splitlines()
        assert dict(zip(header.split(","), row.split(",")))["pass"] == word
        got, out = run([*argv, "text"], capsys)
        assert got == code
        assert f"pass = {word}" in out.splitlines()

    def test_json_is_sorted_and_parseable(self, capsys):
        _, out = run(["mellin", "--phi", "exp", "--s", "0.3"], capsys)
        report = json.loads(out)
        assert list(report) == sorted(report)

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_floats_are_shortest_round_trip(self, fmt, capsys):
        _, out = run(["eval", "--z", "0.1,0.3", "--format", fmt], capsys)
        assert "0.1" in out and "0.3" in out
        assert "0.10000000000000001" not in out and "0.29999999999999999" not in out


class TestInternalErrors:
    """A failure that is not a documented numeric error is still a report."""

    def test_error_kinds_are_the_schemas(self):
        kinds = [kind for _, kind in cli._ERROR_KINDS]
        assert len(set(kinds)) == len(kinds)
        enum = _SCHEMA["$defs"]["error"]["properties"]["error"]["enum"]
        assert sorted(enum) == sorted([*kinds, "internal"])

    @pytest.fixture
    def broken_stern(self, monkeypatch):
        def handler(args):
            raise RuntimeError("handler fault")

        monkeypatch.setattr(cli, "_cmd_stern", handler)

    def test_unexpected_exception_is_internal_report(self, broken_stern, capsys):
        code, report = run_json(["stern", "--m", "7"], capsys)
        assert code == 1
        assert report == {"error": "internal", "detail": "RuntimeError: handler fault"}

    def test_internal_report_in_text_format(self, broken_stern, capsys):
        code, out = run(["stern", "--m", "7", "--format", "text"], capsys)
        assert code == 1
        assert out.splitlines() == ["detail = RuntimeError: handler fault", "error = internal"]

    def test_non_finite_report_value_is_overflow(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_cmd_stern", lambda args: (0, {"m": math.nan}))
        code, report = run_json(["stern", "--m", "7"], capsys)
        assert code == 1
        assert report == {"error": "overflow", "detail": "non-finite value in report"}

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    @pytest.mark.parametrize(
        "report",
        [{"m": math.nan}, {"value": [1.0, math.inf]}, {"series": {"mass": -math.inf}},
         {"trace": math.nan}, {"trace": complex(math.inf, 0.0)}],
    )
    def test_renderer_refuses_a_non_finite_value(self, fmt, report):
        # the renderer's own guard, in every format and at any nesting; a
        # trace's argument goes through its own writer in json
        if "trace" in report:
            from gammalab.landau import DerivationTrace

            trace = DerivationTrace()
            trace.add("direct", report["trace"], 1.0)
            report = {"nodes": 1, "trace": trace}
        with pytest.raises(OverflowError, match="non-finite value in report"):
            cli._render(report, fmt)


class TestFloatRangeEdges:
    """Far out in the plane Gamma is subnormal or the reports hold a value
    past the floating range: the identities still pass where they hold, and
    no report is internal."""

    @pytest.mark.parametrize(
        "identity,grid",
        [
            ("functional", "400:-160:-110:40:120"),
            ("duplication", "400:-160:-110:40:120"),
            ("mult:3", "400:-160:-110:40:120"),
            ("mult:5", "400:-160:-110:40:120"),
            ("reflection", "400:-160:-110:40:120"),
            ("reflection", "200:100:170:-60:60"),
            ("reflection", "200:-170:170:-170:170"),
        ],
    )
    def test_subnormal_factors_are_skipped(self, identity, grid, capsys):
        # a subnormal Gamma keeps too few digits for a residual: such draws
        # are skipped, and what is left holds the identity to rounding
        code, report = run_json(["verify", "--identity", identity, "--grid", grid, "--seed", "0"], capsys)
        assert code == 0
        assert report["pass"] is True and report["max_rel_residual"] < 1e-12

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_non_finite_value_is_overflow(self, fmt, capsys):
        code, out = run(["schlomilch", "general", "--w", "170", "--z", "0.3", "--format", fmt], capsys)
        assert code == 1
        if fmt == "json":
            report = json.loads(out)
        elif fmt == "csv":
            report = dict(zip(*csv.reader(out.splitlines())))
        else:
            report = dict(line.split(" = ", 1) for line in out.splitlines())
        assert report == {
            "error": "overflow",
            "detail": "the closed form at w = (170+0j), z = (0.3+0j) leaves the floating range",
        }


# one argv per subcommand handler; the first five check no residual
_ONE_RUN_EACH = [
    ["eval", "--z", "1"],
    ["schlomilch", "binom", "--m", "4", "--l", "6"],
    ["landau", "construct", "--delta", "1/2"],
    ["stern", "--m", "7"],
    ["closure", "--points", "1/3", "--depth", "1", "--max-n", "2"],
    ["verify", "--identity", "functional", "--samples", "20"],
    ["schlomilch", "finite", "--m", "1", "--z", "3.5"],
    ["schlomilch", "general", "--w", "1.2", "--z", "0.7"],
    ["landau", "trace", "--x", "3/7", "--delta", "1/2"],
    ["landau", "quarter", "--x", "0.1"],
    ["mellin", "--phi", "one", "--s", "0.5"],
    ["complex-trace", "--z=0.5,2", "--delta", "1/2"],
]
_NO_TOLERANCE = _ONE_RUN_EACH[:5]


class TestToleranceResolution:
    def test_family_default(self, capsys):
        _, report = run_json(["mellin", "--phi", "one", "--s", "0.5"], capsys)
        assert report["tolerance"] == 1e-7

    @pytest.mark.parametrize("tol", ["0", "-1e-3", "nan", "inf", "1e400", "abc"])
    def test_bad_tol_is_usage_error(self, tol, capsys, monkeypatch):
        # refused while parsing: a handler that ran, here None, would give an
        # internal report and exit 1
        monkeypatch.setattr(cli, "_cmd_schlomilch_finite", None)
        with pytest.raises(SystemExit) as exc:
            main(["schlomilch", "finite", "--m", "0", "--z", "3.5", f"--tol={tol}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --tol: " in err and repr(tol) in err

    def test_nonpositive_tol_is_usage_error(self, monkeypatch):
        # the value as its own token, not joined with `=`
        monkeypatch.setattr(cli, "_cmd_schlomilch_finite", None)
        with pytest.raises(SystemExit) as exc:
            main(["schlomilch", "finite", "--m", "0", "--z", "3.5", "--tol", "0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", _ONE_RUN_EACH, ids=" ".join)
    def test_report_reads_nothing_from_the_environment(self, argv, capsys, monkeypatch):
        want = run(argv, capsys)
        for env in ["1e-30", "0.5", "not-a-number"]:
            monkeypatch.setenv("GAMMALAB_TOL", env)
            assert run(argv, capsys) == want

    def test_one_run_of_each_handler(self):
        handlers = {v for k, v in vars(cli).items() if k.startswith("_cmd_")}
        parser = cli.build_parser()
        assert {parser.parse_args(argv).handler for argv in _ONE_RUN_EACH} == handlers

    @pytest.mark.parametrize("argv", _ONE_RUN_EACH, ids=" ".join)
    def test_tol_flag_exactly_where_report_has_tolerance(self, argv, capsys):
        _, report = run_json(argv, capsys)
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--help"])
        assert exc.value.code == 0
        assert ("--tol" in capsys.readouterr().out) == ("tolerance" in report)

    @pytest.mark.parametrize("argv", _NO_TOLERANCE, ids=" ".join)
    def test_no_tolerance_rejects_tol_flag(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--tol", "1e-3"])
        assert exc.value.code == 2


class TestDigitLimit:
    """main leaves Python's int/str digit limit as it finds it, and its
    reports do not depend on it."""

    @pytest.fixture
    def limit_640(self):
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this Python has no int/str digit limit")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        yield
        sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize(
        "argv",
        [
            # both sides are C(2200, 1100), an integer of 661 digits
            ["schlomilch", "binom", "--m", "1100", "--l", "1100"],
            # 640-digit denominators, doubled past the limit by the maps
            ["closure", "--points", f"{10**639}/{9 * 10**639 + 1}",
             "--depth", "1", "--max-n", "2"],
            ["landau", "trace", "--delta", "1/2", "--x", f"{3 * 10**639}/{7 * 10**639 + 1}",
             "--emit-trace"],
        ],
        ids=["binom", "closure", "trace"],
    )
    def test_report_needs_no_lift(self, argv, limit_640, capsys):
        code, out = run(argv, capsys)
        assert code == 0
        assert sys.get_int_max_str_digits() == 640
        sys.set_int_max_str_digits(0)
        assert run(argv, capsys) == (code, out)

    def test_emitted_trace_reads_back_under_the_limit(self, limit_640, capsys):
        from gammalab.landau import DerivationTrace

        argv = ["landau", "trace", "--delta", "1/2", "--x", f"{3 * 10**639}/{7 * 10**639 + 1}",
                "--emit-trace"]
        code, report = run_json(argv, capsys)
        assert code == 0
        trace = DerivationTrace.from_json_dict(report["trace"])
        assert trace.to_json_dict() == report["trace"]
        assert [trace.values[-1], 0.0] == report["value"]
        assert sys.get_int_max_str_digits() == 640

    def test_argv_integer_past_the_limit_is_usage_error(self, limit_640):
        with pytest.raises(SystemExit) as exc:
            main(["stern", "--m", "7" * 641])
        assert exc.value.code == 2


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--identity", "mult:3", "--samples", "60"],
            ["landau", "construct", "--delta", "1/2"],
            ["closure", "--points", "2/7", "--depth", "3", "--max-n", "2"],
        ],
    )
    def test_repeat_runs_are_byte_identical(self, argv, capsys):
        _, first = run(argv, capsys)
        _, second = run(argv, capsys)
        assert first == second


class TestUsage:
    def test_no_command(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify"])
        assert exc.value.code == 2

    def test_bad_grid_spec(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--identity", "functional", "--grid", "5:0:1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["landau", "construct", "--delta", "abc"], "not a rational"),
            (["landau", "construct", "--delta", "1/0"], "not a rational"),
            (["eval", "--z", "abc"], "not a number"),
            (["eval", "--z", "1/0"], "not a number"),
            (["eval", "--z", "1,abc"], "not a number"),
            (["verify", "--identity", "functional", "--grid", "5:a:1:0:1"], "bad grid spec"),
            (["verify", "--identity", "functional", "--grid", "5:0:1"],
             "grid spec must be count:relo:rehi:imlo:imhi"),
            (["verify", "--identity", "functional", "--grid", "5.5:0:1:0:1"], "bad grid spec"),
            (["closure", "--points", ",", "--depth", "1", "--max-n", "2"], "empty point list"),
            # --samples 200 too, which a default of 200 would let through
            *[(["verify", "--identity", "reflection", "--grid", "5:-1:1:-1:1", "--samples", n],
               "argument --samples: not allowed with argument --grid") for n in ["200", "7"]],
        ],
    )
    def test_bad_argument_value(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,option",
        [(["eval"], "--z"), (["schlomilch", "general"], "--w"), (["schlomilch", "general"], "--z")],
        ids=["eval-z", "general-w", "general-z"],
    )
    def test_help_states_the_equals_form(self, argv, option, capsys):
        with pytest.raises(SystemExit):
            main(argv + ["--help"])
        assert f"use {option}=VALUE when RE is negative" in " ".join(capsys.readouterr().out.split())

    def test_equals_form_reads_a_negative_exponent(self, capsys):
        # argparse may take a bare -1e-3 for an option; --s=-1e-3 is a value
        code, report = run_json(["mellin", "--phi", "one", "--s=-1e-3"], capsys)
        assert (code, report) == (
            1, {"error": "domain", "detail": "s must lie in the strip (0, 1.0), got -0.001"}
        )

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "gammalab" in capsys.readouterr().out

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gammalab.cli", "eval", "--z", "4"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["gamma"][0] == pytest.approx(6.0, rel=1e-13)


_EMIT_TRACE_DIGESTS = [
    (["landau", "trace", "--delta", "1/2", "--x", "611178493/1073741824",
      "--emit-trace"],
     "8483548471831e1b58423e29b0ca5c260032c0190ec5f62af354ff9ef63cfe06"),
    (["landau", "quarter", "--x", "0.041506346120978574", "--emit-trace"],
     "c5cd8e82db3b99b562cdb917f30cfbefb6559d21c5f15bf727329e2a559b0ad3"),
    (["complex-trace", "--delta", "1/2",
      "--z=0.03155937884002924,-7.576238917452786", "--emit-trace"],
     "5391543669cac4dcadd69160185f1ff1598f949e604e8b5314e5d528253654df"),
]


# a real, a complex and a quarter-set trace at small points
_SMALL_TRACE_ARGV = [
    ["landau", "trace", "--delta", "1/2", "--x", "3/5"],
    ["complex-trace", "--delta", "1/2", "--z=-3.25,6.5"],
    ["landau", "quarter", "--x", "0.3"],
]


class TestEmitTraceReports:
    """--emit-trace reports at the benchmark's cli-session points (seed 101),
    pinned by the sha256 of their bytes: 4093 and 12283 trace nodes."""

    @pytest.mark.parametrize(
        "argv,digest", _EMIT_TRACE_DIGESTS,
        ids=[" ".join(argv) for argv, _ in _EMIT_TRACE_DIGESTS],
    )
    def test_report_bytes(self, argv, digest, capsys):
        code, out = run(argv, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_json_report_builds_no_dict_tree(self, monkeypatch, capsys):
        # the JSON text is written from the record: to_json_dict is not called
        from gammalab.landau import DerivationTrace

        def refuse(trace):
            raise AssertionError("to_json_dict called")

        monkeypatch.setattr(DerivationTrace, "to_json_dict", refuse)
        argv, digest = _EMIT_TRACE_DIGESTS[2]
        code, out = run(argv, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "fmt,text",
        [
            ("csv",
             "direct_leaves,nodes,pass,reference.0,reference.1,residual,tolerance,trace.arg,"
             "trace.children.0.arg,trace.children.0.rule,trace.children.1.arg,"
             "trace.children.1.rule,trace.children.2.arg,trace.children.2.rule,trace.rule,"
             "validated_nodes,value.0,value.1,x\n"
             "3,4,true,2.9915689876875904,0.0,5.937876902425476e-16,1e-09,0.3,"
             "0.19999999999999996,direct,0.2,direct,0.09999999999999998,direct,comb,4,"
             "2.9915689876875886,0.0,0.3\n"),
            ("text",
             "direct_leaves = 3\nnodes = 4\npass = true\nreference.0 = 2.9915689876875904\n"
             "reference.1 = 0.0\nresidual = 5.937876902425476e-16\ntolerance = 1e-09\n"
             "trace.arg = 0.3\ntrace.children.0.arg = 0.19999999999999996\n"
             "trace.children.0.rule = direct\ntrace.children.1.arg = 0.2\n"
             "trace.children.1.rule = direct\ntrace.children.2.arg = 0.09999999999999998\n"
             "trace.children.2.rule = direct\ntrace.rule = comb\nvalidated_nodes = 4\n"
             "value.0 = 2.9915689876875886\nvalue.1 = 0.0\nx = 0.3\n"),
        ],
    )
    def test_flat_report_bytes(self, fmt, text, capsys):
        # csv and text flatten the trace's to_json_dict(), the one report
        # path that still builds it
        code, out = run(["landau", "quarter", "--x", "0.3", "--emit-trace", "--format", fmt], capsys)
        assert code == 0
        assert out == text

    @pytest.mark.parametrize("fmt", ["csv", "text"])
    def test_flat_reports_of_a_trace_deeper_than_recursion_limit(self, fmt):
        # the functional chain of tests/test_landau.py's
        # test_chain_deeper_than_recursion_limit, flattened with no recursion:
        # each node's arg from the root down, the leaf's rule, then each
        # functional rule back up.  The dotted keys grow with the depth, so
        # the flat report is quadratic in it; under a lowered recursion
        # limit the chain is 700 deep and its csv report 5 MB
        from gammalab.landau import DerivationTrace

        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            depth = sys.getrecursionlimit() + 500
            d = {"rule": "direct", "arg": "1/3", "children": []}
            for k in range(depth):
                d = {"rule": "functional", "arg": "4/3" if k % 2 == 0 else "1/3", "children": [d]}
            out = cli._render({"trace": DerivationTrace.from_json_dict(d)}, fmt)
        finally:
            sys.setrecursionlimit(limit)
        prefixes = ["trace." + "children.0." * s for s in range(depth + 1)]
        pairs = [(p + "arg", "4/3" if (depth - 1 - s) % 2 == 0 else "1/3") for s, p in enumerate(prefixes[:-1])]
        pairs += [(prefixes[-1] + "arg", "1/3"), (prefixes[-1] + "rule", "direct")]
        pairs += [(p + "rule", "functional") for p in reversed(prefixes[:-1])]
        if fmt == "csv":
            assert out == ",".join(k for k, _ in pairs) + "\n" + ",".join(v for _, v in pairs) + "\n"
        else:
            assert out == "".join(f"{k} = {v}\n" for k, v in pairs)

    @pytest.mark.parametrize(
        "argv",
        [argv[:-1] for argv, _ in _EMIT_TRACE_DIGESTS] + _SMALL_TRACE_ARGV,
        ids=" ".join,
    )
    def test_trace_reads_back(self, argv, capsys):
        # the emitted trace reads back, re-derives the reported value bit for
        # bit, and replays every node against the subcommand's set
        from fractions import Fraction

        from gammalab.landau import (
            DerivationTrace,
            landau_construct,
            quarter_set_membership,
            strip_membership,
            validate_trace,
        )

        code, out = run(argv + ["--emit-trace"], capsys)
        assert code == 0
        report = json.loads(out)
        trace = DerivationTrace.from_json_dict(report["trace"])
        value = complex(trace.values[-1])
        assert [value.real, value.imag] == report["value"]
        if argv[0] == "complex-trace":
            member = strip_membership(landau_construct(Fraction(report["delta"])))
        elif argv[1] == "trace":
            member = landau_construct(Fraction(report["delta"])).leaf_union.__contains__
        else:
            member = quarter_set_membership
        assert validate_trace(trace, member) == report["nodes"] == trace.node_count
        assert trace.to_json_dict() == report["trace"]

    @pytest.mark.parametrize("argv", _SMALL_TRACE_ARGV, ids=" ".join)
    def test_report_is_canonical_and_counts_its_trace(self, argv, capsys):
        # the text written from the record is the json module's canonical
        # bytes for what it holds, and its counts are those of the trace it
        # reads back to
        from gammalab.landau import DerivationTrace

        code, out = run(argv + ["--emit-trace"], capsys)
        assert code == 0
        report = json.loads(out)
        assert out == json.dumps(report, sort_keys=True, separators=(",", ":"), ensure_ascii=False) + "\n"
        trace = DerivationTrace.from_json_dict(report["trace"])
        assert (trace.node_count, trace.direct_count) == (report["nodes"], report["direct_leaves"])
        assert report["validated_nodes"] == report["nodes"]


def _run_src(code, *argv):
    """Run `python -c code argv...` on this checkout's package."""
    env = dict(os.environ, PYTHONPATH=str(Path(gammalab.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env
    )


def _loaded_by(argv):
    """The gammalab submodules one process loads to run main(argv)."""
    proc = _run_src(
        "import sys; from gammalab.cli import main; main(sys.argv[1:]); "
        "sys.stderr.write(' '.join(sorted(m[9:] for m in sys.modules "
        "if m.startswith('gammalab.'))))",
        *argv,
    )
    json.loads(proc.stdout)
    return set(proc.stderr.split())


class TestColdStart:
    """No subcommand loads numpy: gammalab runs on the standard library.
    Imports are lazy, so each subcommand loads only the modules it uses."""

    def test_import_loads_no_submodule(self):
        proc = _run_src(
            "import sys, gammalab; "
            "print([m for m in sys.modules if m.startswith('gammalab.')])"
        )
        assert proc.stdout == "[]\n", proc.stderr

    @pytest.mark.parametrize(
        "argv, modules",
        [
            (["eval", "--z", "0.5,2"], {"cli", "core", "errors"}),
            (["eval", "--z", "1/3"], {"cli", "core", "errors"}),
            (["stern", "--m", "27"], {"cli", "errors", "stern"}),
        ],
    )
    def test_subcommand_loads_only_its_modules(self, argv, modules):
        assert _loaded_by(argv) == modules

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--identity", "reflection", "--samples", "50"],
            ["verify", "--identity", "comb", "--samples", "20"],
            ["mellin", "--phi", "exp", "--s", "0.5"],
        ],
    )
    def test_sweeps_load_no_exact_modules(self, argv):
        assert not _loaded_by(argv) & {"landau", "intervals", "schlomilch"}

    @pytest.mark.parametrize("name", [n for n in gammalab.__all__ if n != "__version__"])
    def test_public_name_resolves_to_its_home(self, name):
        home = importlib.import_module(f"gammalab.{gammalab._EXPORTS[name]}")
        assert getattr(gammalab, name) is getattr(home, name)

    def test_dir_and_unknown_names(self):
        assert set(gammalab.__all__) <= set(dir(gammalab))
        with pytest.raises(AttributeError, match="no_such_name"):
            gammalab.no_such_name

    def test_submodule_after_bare_import(self):
        proc = _run_src("import gammalab; print(gammalab.landau.DEFAULT_NODE_BUDGET > 0)")
        assert proc.stdout == "True\n", proc.stderr

    def test_default_node_budget_applies(self, capsys, monkeypatch):
        # the default is landau's, read when the handler runs
        argv = ["landau", "construct", "--delta", "1/2"]
        _, explicit = run_json(argv, capsys)
        _, summary = run_json(argv + ["--node-budget", "5119"], capsys)
        assert explicit["explicit"] is True
        assert summary["explicit"] is False
        monkeypatch.setattr(gammalab.landau, "DEFAULT_NODE_BUDGET", 5119)
        assert run_json(argv, capsys)[1] == summary

    def test_import_does_not_load_numpy(self):
        proc = _run_src("import sys, gammalab; print('numpy' in sys.modules)")
        assert proc.stdout == "False\n", proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--z", "0.5,2"],
            ["stern", "--m", "20"],
            ["landau", "construct", "--delta", "1/2"],
            ["mellin", "--phi", "exp", "--s", "0.5"],
            ["verify", "--identity", "reflection", "--samples", "50"],
        ],
    )
    def test_subcommand_does_not_load_numpy(self, argv):
        proc = _run_src(
            "import sys; from gammalab.cli import main; code = main(sys.argv[1:]); "
            "sys.stderr.write(f'{code} {\"numpy\" in sys.modules}')",
            *argv,
        )
        assert proc.stderr == "0 False"
        json.loads(proc.stdout)

    def test_verify_report_bytes(self):
        proc = _run_src(
            "import sys; from gammalab.cli import main; sys.exit(main())",
            "verify", "--identity", "reflection", "--samples", "50", "--seed", "1",
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        _VALIDATOR.validate(json.loads(proc.stdout))
        assert proc.stdout == (
            '{"identity":"reflection","max_rel_residual":3.294566120484569e-16,'
            '"mean_rel_residual":4.749031457654566e-17,"pass":true,"samples":50,'
            '"seed":1,"skipped":0,"tolerance":1e-10,'
            '"worst_point":[1.771875260666147,1.6895341575622371]}\n'
        )

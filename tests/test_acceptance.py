"""End-to-end acceptance gate.

Each test exercises one headline guarantee of the package at its stated
tolerance and prints a single PASS/FAIL line (visible with ``pytest -s``;
``pytest -v`` shows the same verdicts through the test names).  The
tolerances here are contractual — do not loosen them to make a red test
green.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from gammalab.closure import affine_closure, branching_factor
from gammalab.core import gamma
from gammalab.identities import SampleSpec, nonvanishing_scan, verify_grid
from gammalab.landau import (
    complex_reduce_trace,
    landau_construct,
    landau_lemma_decompose,
    quarter_set_membership,
    quarter_set_trace,
    trace_evaluate,
    validate_trace,
)
from gammalab.mellin import catalog_entry, rmt_closed_form, rmt_residual
from gammalab.quadrature import QuadratureSpec, gamma_integral
from gammalab.schlomilch import (
    Hyp2F1Params,
    binomial_identity_check,
    euler_transform_residual,
    gauss_second_summation,
    generalized_lhs,
    generalized_series,
    hyp2f1_half,
    schlomilch_finite_lhs,
    schlomilch_finite_rhs,
)
from gammalab.stern import independent_count


def _verdict(number, description, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d}: {description} ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def fs_half():
    return landau_construct(Fraction(1, 2))


def test_criterion_01_identity_suite():
    suites = (
        ["functional", "reflection", "duplication", "comb"]
        + [f"mult:{n}" for n in range(2, 7)]
        + [f"cosine:{m}" for m in range(0, 9)]
        + [f"sine:{k}" for k in range(1, 7)]
    )
    start = time.perf_counter()
    worst = 0.0
    worst_suite = None
    for tag in suites:
        if tag == "comb":
            spec = SampleSpec(count=200, re_range=(0.0, 0.25))
        else:
            spec = SampleSpec(count=200)
        report = verify_grid(tag, spec, 1e-10)
        if report.max_relative_residual > worst:
            worst = report.max_relative_residual
            worst_suite = tag
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 10.0
    _verdict(
        1,
        "identity suite < 1e-10 over 200 seeded samples each, < 10 s",
        ok,
        f"worst {worst:.3e} at {worst_suite}, {elapsed:.2f} s",
    )


def test_criterion_02_gamma_vs_defining_integral():
    rng = random.Random(20260825)
    spec = QuadratureSpec(relative_tolerance=1e-11)
    worst = 0.0
    for _ in range(20):
        z = complex(rng.uniform(0.5, 5.0), rng.uniform(-2.0, 2.0))
        oracle = gamma_integral(z, spec)
        rel = abs(gamma(z) - oracle) / abs(oracle)
        worst = max(worst, rel)
    ok = worst < 1e-8
    _verdict(
        2,
        "gamma vs quadrature oracle on 20 points < 1e-8",
        ok,
        f"worst {worst:.3e}",
    )


def test_criterion_03_finite_series_identity():
    worst = 0.0
    for m in range(7):
        rng = random.Random(1000 + m)
        for _ in range(50):
            z = rng.uniform(m + 0.2, m + 10.0)
            lhs = schlomilch_finite_lhs(m, z)
            rhs = schlomilch_finite_rhs(m, z)
            worst = max(worst, abs(lhs - rhs) / abs(lhs))
    dup_worst = 0.0
    rng = random.Random(77)
    for _ in range(50):
        z = rng.uniform(0.2, 10.0)
        g = gamma(z)
        dup_worst = max(dup_worst, abs(schlomilch_finite_lhs(0, z) - g) / abs(g))
    ok = worst < 1e-9 and dup_worst < 1e-12
    _verdict(
        3,
        "finite series identity m<=6 < 1e-9; m=0 is duplication to 1e-12",
        ok,
        f"worst {worst:.3e}, m=0 vs duplication {dup_worst:.3e}",
    )


def test_criterion_04_binomial_corollary_exact():
    failures = 0
    for m in range(21):
        for l in range(21):
            lhs, rhs, equal = binomial_identity_check(m, l)
            if not equal or lhs != rhs:
                failures += 1
    ok = failures == 0
    _verdict(
        4,
        "binomial corollary exact on all 441 cases, zero tolerance",
        ok,
        f"{441 - failures}/441 exact",
    )


def test_criterion_05_generalized_series():
    rng = random.Random(505)
    worst = 0.0
    max_terms_seen = 0
    converged_all = True
    checked = 0
    while checked < 100:
        w = rng.uniform(0.1, 3.0)
        z = rng.uniform(0.1, 3.0)
        s = w + z - 0.5
        if abs(s - round(s)) <= 1e-2:
            continue
        if min(abs(w - k) for k in range(0, -4, -1)) <= 1e-2:
            continue
        if min(abs(z - k) for k in range(0, -4, -1)) <= 1e-2:
            continue
        closed = generalized_lhs(w, z)
        series = generalized_series(w, z, 1e-12, 500)
        converged_all = converged_all and series.converged
        max_terms_seen = max(max_terms_seen, series.terms_used)
        worst = max(worst, abs(series.value - closed) / abs(closed))
        checked += 1
    spec_worst = 0.0
    for m in range(5):
        rng_m = random.Random(600 + m)
        done = 0
        while done < 10:
            z = rng_m.uniform(m + 0.7, m + 8.0)
            if abs(z - round(z)) <= 1e-2:
                continue
            series = generalized_series(0.5 * (z + m + 1), 0.5 * (z - m), 1e-12, 500)
            finite = schlomilch_finite_lhs(m, z)
            spec_worst = max(spec_worst, abs(series.value - finite) / abs(finite))
            done += 1
    ok = worst < 1e-8 and converged_all and max_terms_seen <= 500 and spec_worst < 1e-10
    _verdict(
        5,
        "generalized series vs closed form < 1e-8; specialization < 1e-10",
        ok,
        f"worst {worst:.3e} (max {max_terms_seen} terms), specialization {spec_worst:.3e}",
    )


def test_criterion_06_hypergeometric_machinery():
    rng = random.Random(606)
    euler_worst = 0.0
    for _ in range(50):
        p = Hyp2F1Params(
            rng.uniform(-0.9, 2.0), rng.uniform(-0.9, 2.0), rng.uniform(0.4, 3.0)
        )
        euler_worst = max(euler_worst, euler_transform_residual(p))
    gauss_worst = 0.0
    done = 0
    while done < 50:
        a = rng.uniform(-0.9, 2.0)
        b = rng.uniform(-0.9, 2.0)
        c = 0.5 * (a + b + 1.0)
        if c < 0.1:  # keep Gamma(c) well away from its poles
            continue
        closed = gauss_second_summation(a, b)
        series = hyp2f1_half(Hyp2F1Params(a, b, c), 1e-14, 2000)
        gauss_worst = max(gauss_worst, abs(series.value - closed) / abs(closed))
        done += 1
    ok = euler_worst < 1e-10 and gauss_worst < 1e-10
    _verdict(
        6,
        "Euler transform and Gauss second summation < 1e-10, 50 sets each",
        ok,
        f"euler {euler_worst:.3e}, gauss {gauss_worst:.3e}",
    )


def test_criterion_07_fundamental_set_measures(fs_half):
    results = []
    for delta in (Fraction(1, 2), Fraction(1, 10), Fraction(1, 50)):
        fs = fs_half if delta == Fraction(1, 2) else landau_construct(delta)
        results.append((delta, fs))
    measures_ok = all(fs.measure < delta for delta, fs in results)
    t_ok = results[0][1].t == 11

    def conserved(node):
        if node.kind != "split":
            return not node.children
        lo, hi = node.interval
        mass = sum((c.interval[1] - c.interval[0] for c in node.children), Fraction(0))
        return mass == hi - lo and all(conserved(c) for c in node.children)

    forest_ok = all(conserved(root) for root in results[0][1].root_forest)
    rng = random.Random(707)
    lemma_ok = True
    for _ in range(200):
        ai = rng.randrange(0, 128)
        bi = rng.randrange(ai + 1, 129)
        a, b = Fraction(ai, 128), Fraction(bi, 128)
        d = Fraction(rng.randrange(1, 33), 32)
        I, Js, _ = landau_lemma_decompose(a, b, d)
        mass = (I[1] - I[0]) + sum((hi - lo for lo, hi in Js), Fraction(0))
        lemma_ok = lemma_ok and mass == b - a
    ok = measures_ok and t_ok and forest_ok and lemma_ok
    _verdict(
        7,
        "exact measure < delta for delta in {1/2,1/10,1/50}; t=11; conservation",
        ok,
        f"measures {[float(fs.measure) for _, fs in results]}, t={results[0][1].t}",
    )


def test_criterion_08_tracers(fs_half):
    rng = random.Random(808)
    real_worst = 0.0
    for _ in range(100):
        x = Fraction(rng.getrandbits(30) + 1, 2**30)
        value, trace = trace_evaluate(x, fs_half)
        validate_trace(trace, lambda a: a in fs_half.leaf_union)
        ref = gamma(float(x))
        real_worst = max(real_worst, abs(value - ref) / abs(ref))
    quarter_worst = 0.0
    done = 0
    while done < 100:
        x = rng.uniform(1e-4, 0.5 - 1e-4)
        if abs(x - 1.0 / 3.0) <= 1e-6:
            continue
        value, trace = quarter_set_trace(x)
        validate_trace(trace, quarter_set_membership)
        ref = gamma(x)
        quarter_worst = max(quarter_worst, abs(value - ref) / abs(ref))
        done += 1
    complex_worst = 0.0
    for _ in range(50):
        z = complex(rng.uniform(1e-3, 1.0), rng.uniform(-8.0, 8.0))
        value, trace = complex_reduce_trace(z, fs_half)
        validate_trace(
            trace,
            lambda a: isinstance(a, complex)
            and abs(a.imag) < 1.0
            and a.real in fs_half.leaf_union,
        )
        ref = gamma(z)
        complex_worst = max(complex_worst, abs(value - ref) / abs(ref))
    ok = real_worst < 1e-9 and quarter_worst < 1e-9 and complex_worst < 1e-8
    _verdict(
        8,
        "tracers: real < 1e-9 (100 pts), quarter < 1e-9 (100 pts), complex < 1e-8 (50 pts)",
        ok,
        f"real {real_worst:.3e}, quarter {quarter_worst:.3e}, complex {complex_worst:.3e}",
    )


def test_criterion_09_independent_value_counts():
    # textbook totient values for m = 3..12, halved
    expected = {3: 1, 4: 1, 5: 2, 6: 1, 7: 3, 8: 2, 9: 3, 10: 2, 11: 5, 12: 2}
    got = {m: independent_count(m) for m in range(3, 13)}
    ok = got == expected
    _verdict(
        9,
        "independent log-gamma count equals phi(m)/2 for m in 3..12",
        ok,
        f"counts {list(got.values())}",
    )


def test_criterion_10_master_theorem_catalog():
    tags = ["one", "geom:2", "exp", "log1p"]
    worst = 0.0
    worst_at = None
    for tag in tags:
        spec = catalog_entry(tag)
        for k in range(1, 10):
            s = k / 10.0
            r = rmt_residual(spec, s)
            if r > worst:
                worst = r
                worst_at = (tag, s)
    one = catalog_entry("one")
    row_ok = all(
        rmt_closed_form(one, k / 10.0) == math.pi / math.sin(math.pi * (k / 10.0))
        for k in range(1, 10)
    )
    ok = worst < 1e-7 and row_ok
    _verdict(
        10,
        "Mellin residual < 1e-7 for four phi across s = 0.1..0.9",
        ok,
        f"worst {worst:.3e} at {worst_at}",
    )


def test_criterion_11_closure_growth_bound():
    rng = random.Random(1111)
    ok = True
    for _ in range(20):
        pts = [
            Fraction(rng.randrange(1, 12), rng.randrange(1, 12))
            for _ in range(rng.randrange(1, 4))
        ]
        depth = rng.randrange(0, 4)
        max_n = rng.randrange(1, 4)
        out = affine_closure(pts, depth, max_n)
        bound = len(set(pts)) * branching_factor(max_n) ** depth
        ok = ok and len(out) <= bound and set(pts) <= out
        zero = affine_closure(pts, 0, max_n)
        ok = ok and zero == frozenset(pts)
    _verdict(
        11,
        "closure cardinality within K**depth on 20 instances; depth-0 identity",
        ok,
        "bounds held" if ok else "bound violated",
    )


def test_criterion_12_nonvanishing_scan():
    best, argmin = nonvanishing_scan((-5.5, 5.5), (-3.0, 3.0), 0.05)
    dense_best, dense_arg = nonvanishing_scan((1.0, 2.0), (0.0, 0.0), 1e-4)
    ok = (
        best > 0.0
        and abs(dense_arg.real - 1.4616) < 1e-3
        and abs(dense_best - 0.8856) <= 1e-3
    )
    _verdict(
        12,
        "min |Gamma| > 0 on the scan grid; real-axis dip at 1.4616 with 0.8856",
        ok,
        f"grid min {best:.3e}, dip {dense_best:.6f} at {dense_arg.real:.5f}",
    )

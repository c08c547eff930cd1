import hashlib
import json
import math
import random

import pytest

from gammalab.errors import DomainError, EmptyGridError, PoleError
from gammalab.identities import (
    IdentityReport,
    SampleSpec,
    nonvanishing_scan,
    parse_identity_tag,
    residual_comb,
    residual_cosine_identity,
    residual_duplication,
    residual_functional,
    residual_multiplication,
    residual_reflection,
    residual_sine_factorization,
    verify_grid,
)


class TestPointwiseResiduals:
    def test_functional_small_everywhere(self):
        rng = random.Random(7)
        for _ in range(50):
            z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            try:
                r = residual_functional(z)
            except PoleError:
                continue
            assert r < 1e-12

    def test_functional_near_pole_raises(self):
        with pytest.raises(PoleError):
            residual_functional(-3.0 + 1e-9j)

    @pytest.mark.parametrize(
        "residual",
        [
            residual_functional,
            residual_reflection,
            residual_duplication,
            lambda z: residual_multiplication(3, z),
        ],
    )
    def test_underflowed_gamma_raises(self, residual):
        # Gamma never vanishes, but it underflows to zero here: no residual
        # can be read off a zero
        with pytest.raises(OverflowError, match="underflows to zero"):
            residual(-180.5 + 0.1j)

    def test_reflection_small(self):
        assert residual_reflection(0.3 + 0.7j) < 1e-13
        assert residual_reflection(-2.5) < 1e-13

    def test_reflection_near_integer_raises(self):
        with pytest.raises(DomainError):
            residual_reflection(2.0 + 1e-8j)

    def test_duplication_small(self):
        assert residual_duplication(1.75) < 1e-13
        assert residual_duplication(0.4 - 1.1j) < 1e-13

    def test_multiplication_order_one_is_trivial(self):
        assert residual_multiplication(1, 2.3 + 0.4j) == 0.0

    def test_multiplication_order_two_matches_duplication(self):
        z = 1.3 + 0.9j
        assert residual_multiplication(2, z) == pytest.approx(
            residual_duplication(z), abs=1e-14
        )

    def test_multiplication_higher_orders(self):
        for n in (3, 4, 5, 6):
            assert residual_multiplication(n, 0.8 + 0.3j) < 1e-12

    def test_multiplication_rejects_bad_order(self):
        with pytest.raises(DomainError):
            residual_multiplication(0, 1.0)

    def test_sine_factorization_order_one_exact(self):
        assert residual_sine_factorization(1, 0.37 - 2.2j) == 0.0

    def test_sine_factorization_small(self):
        for k in range(2, 7):
            assert residual_sine_factorization(k, 0.7 + 0.2j) < 1e-12

    def test_sine_factorization_absolute_at_integers(self):
        # both sides vanish; residual must fall back to absolute and stay tiny
        assert residual_sine_factorization(3, 2.0) < 1e-14

    def test_comb_small_inside_window(self):
        for a in (0.03, 0.11, 0.2, 0.24):
            assert residual_comb(a) < 1e-13

    def test_comb_rejects_outside_window(self):
        with pytest.raises(DomainError):
            residual_comb(0.3)
        with pytest.raises(DomainError):
            residual_comb(0.0)

    def test_cosine_order_zero_exact(self):
        assert residual_cosine_identity(0, 1.234) == 0.0

    def test_cosine_small(self):
        for m in range(1, 9):
            assert residual_cosine_identity(m, 0.4 + 0.1j) < 1e-10

    def test_cosine_rejects_negative_order(self):
        with pytest.raises(DomainError):
            residual_cosine_identity(-1, 0.5)


class TestParseIdentityTag:
    @pytest.mark.parametrize(
        "tag,expected",
        [
            ("functional", ("functional", None)),
            ("reflection", ("reflection", None)),
            ("duplication", ("duplication", None)),
            ("comb", ("comb", None)),
            ("mult:4", ("mult", 4)),
            ("sine:6", ("sine", 6)),
            ("cosine:0", ("cosine", 0)),
        ],
    )
    def test_accepted(self, tag, expected):
        assert parse_identity_tag(tag) == expected

    @pytest.mark.parametrize(
        "tag", ["functional:2", "mult", "mult:x", "mult:0", "sine:0", "cosine:-1", "zeta"]
    )
    def test_rejected(self, tag):
        with pytest.raises(DomainError):
            parse_identity_tag(tag)


class TestVerifyGrid:
    def test_deterministic_for_fixed_spec(self):
        spec = SampleSpec(count=80, seed=123)
        a = verify_grid("reflection", spec, 1e-10)
        b = verify_grid("reflection", spec, 1e-10)
        assert a == b  # frozen dataclass: field-by-field equality

    def test_seed_changes_sample(self):
        a = verify_grid("functional", SampleSpec(count=80, seed=1), 1e-10)
        b = verify_grid("functional", SampleSpec(count=80, seed=2), 1e-10)
        assert a.worst_point != b.worst_point

    @pytest.mark.parametrize(
        "tag", ["functional", "reflection", "duplication", "mult:5", "sine:4", "cosine:6"]
    )
    def test_default_region_passes(self, tag):
        report = verify_grid(tag, SampleSpec(count=200), 1e-10)
        assert report.passed
        assert report.sample_count + report.skipped_count == 200

    def test_functional_across_the_underflow_edge(self):
        # left of Re z ~ -170.6 Gamma(z) underflows to zero: those draws
        # are skipped rather than read as a relative residual of 1
        spec = SampleSpec(count=100, re_range=(-176.0, -166.0), im_range=(-1.0, 1.0))
        report = verify_grid("functional", spec, 1e-10)
        assert report.sample_count + report.skipped_count == 100
        assert report.sample_count > 0 and report.skipped_count > 0
        assert report.passed

    def test_duplication_far_left_has_nothing_to_compare(self):
        # every draw underflows, so every draw is skipped
        spec = SampleSpec(count=60, re_range=(-260.0, -200.0), im_range=(-1.0, 1.0))
        with pytest.raises(EmptyGridError):
            verify_grid("duplication", spec, 1e-10)

    def test_comb_needs_narrow_real_band(self):
        spec = SampleSpec(count=200, re_range=(0.0, 0.25))
        report = verify_grid("comb", spec, 1e-10)
        assert report.passed
        assert report.sample_count > 50

    def test_empty_grid_raises(self):
        # a sliver of the real axis within the exclusion radius of z = 0
        spec = SampleSpec(
            count=20, re_range=(-0.05, 0.05), im_range=(0.0, 0.0), pole_exclusion=0.1
        )
        with pytest.raises(EmptyGridError):
            verify_grid("functional", spec, 1e-10)

    def test_report_json_shape(self):
        report = verify_grid("duplication", SampleSpec(count=40), 1e-10)
        d = report.to_json_dict()
        assert set(d) == {
            "identity",
            "seed",
            "samples",
            "skipped",
            "max_rel_residual",
            "mean_rel_residual",
            "worst_point",
            "tolerance",
            "pass",
        }
        assert isinstance(d["worst_point"], list) and len(d["worst_point"]) == 2

    def test_rejects_bad_tolerance(self):
        with pytest.raises(DomainError):
            verify_grid("functional", SampleSpec(count=10), 0.0)

    def test_sample_spec_validation(self):
        with pytest.raises(DomainError):
            SampleSpec(count=0)
        with pytest.raises(DomainError):
            SampleSpec(count=5, re_range=(2.0, 1.0))
        with pytest.raises(DomainError):
            SampleSpec(count=5, pole_exclusion=-0.1)


def _report_digest(tag, spec):
    report = verify_grid(tag, spec, 1e-10).to_json_dict()
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


class TestReportDigests:
    """verify_grid reports pinned by the sha256 of their sorted JSON: every
    tag of the benchmark's residual sweep plus mult:1, 500 draws on the
    default box, and comb on its window (0, 1/4)."""

    @pytest.mark.parametrize(
        "tag,digest",
        [
            ("functional", "ec7d2c51b3fa3a1961510abadb9f21f844c25748d48dd968e10c7c02b871ae0b"),
            ("reflection", "b33f37ee8fbb0dc2404375faa50cecc2954d42bbcc5d7cc33622d9795d8120c0"),
            ("duplication", "36d0b7c76855b784672677b7573745b38162b8250090e184b7fce068dfb09c52"),
            ("mult:1", "5eb483b254cfb19a56fd9577211f054e3abc3c09d2859f3e5f3e6f8be4575904"),
            ("mult:2", "b9e2a5a1fa4b97fa994bad971f16b882cd8d6d01707487e5fc6e462fe3742a90"),
            ("mult:3", "c449e70c957c59885dad47ac4ad3062c14672f2af44b6784c89cf6ce63482f46"),
            ("mult:4", "fd7cc7733d12575cb33bec6ef0dd4c74103f9498a1bcd1e3af3822737df2303a"),
            ("mult:5", "a260c94dc4d02d8719fb3cf50be9f161cf9ce45647c5a62ddd41a8765401774f"),
            ("mult:6", "0287c7a1bb5c416f536307b389d31583cd6f9c75725324c384a12bd121a8d46b"),
            ("cosine:0", "5eab06da657ffb8d098b2a142949388edc1a821674a7d426207d99b0f89501b8"),
            ("cosine:1", "e46a7abf9c0dc3caaacf26e5f509a8c0f313ef47810091dea42d35b451e1e1bc"),
            ("cosine:2", "fc0cd4416747e05c3c5a3a5a94ee3bc941fdf20925cd871743c4753fd338ffa8"),
            ("cosine:3", "96ff45fa5f7b43cb878c4cbe8a28ffe12056b3ab4f51726367b11e899824a93a"),
            ("cosine:4", "b55785e7d48a379d21756c5e18a5ca1d5437bbeede0d1a69520b2edb875dec27"),
            ("cosine:5", "ea8138937091da5fd4ec5a9b3d58a26d5a5688d11270c44fb92f14bb5897ac45"),
            ("cosine:6", "e3eb06e680549fc9999095a2112a99402f1e1f30d285cbec3517535961635b5a"),
            ("cosine:7", "26f6da8de684b39184eea450b4cda71f02601ac2a0d35616da97a5ae02fbe331"),
            ("cosine:8", "acef3dfe81d9c4f3564c0541a6894e93929adba14399ae3881a6440652d412bd"),
            ("sine:1", "dc692ef572dfd09de3762b60db7c08c80966d040612518c38a5ecf71b6d9e3e3"),
            ("sine:2", "40452043402641f2b9af6ae5aa7943f6f0326fa90c483e9fa0e5d6fe86fcf638"),
            ("sine:3", "035773a680bd93981328bd480676982b6d8c103e4ccb79e8ea4b35bbd58dc217"),
            ("sine:4", "59fac10be02bb98a02881b88e7f4df34d6bb876a5ffbfd5286bfc95781bd67e5"),
            ("sine:5", "8dc2b96656183722d9295657263f2f249fe43a0ba8b69de2c2ac0a4024d72385"),
            ("sine:6", "a5b9887db5f224b6d3a721104101456add7a6e2939e987b9ef45010fa97ce801"),
        ],
    )
    def test_default_box(self, tag, digest):
        assert _report_digest(tag, SampleSpec(count=500)) == digest

    def test_comb_window(self):
        spec = SampleSpec(count=500, re_range=(0.0, 0.25))
        assert _report_digest("comb", spec) == (
            "8c3a54a39148351147b6dd374f2958348aa70acffdf3e8221d5a9cd66953a203"
        )


class TestNonvanishingScan:
    def test_rectangle_minimum_positive(self):
        best, argmin = nonvanishing_scan((-2.0, 2.0), (-1.0, 1.0), 0.25)
        assert best > 0.0
        assert argmin is not None

    def test_real_axis_minimum_location(self):
        # |Gamma| on [1, 2] dips to ~0.8856 near x ~ 1.4616
        best, argmin = nonvanishing_scan((1.0, 2.0), (0.0, 0.0), 1e-3)
        assert argmin.imag == 0.0
        assert abs(argmin.real - 1.4616) < 2e-3
        assert abs(best - 0.8856031944) < 1e-6

    def test_rejects_bad_step(self):
        with pytest.raises(DomainError):
            nonvanishing_scan((0.0, 1.0), (0.0, 1.0), 0.0)

    def test_all_points_excluded(self):
        with pytest.raises(EmptyGridError):
            nonvanishing_scan((-0.01, 0.01), (0.0, 0.0), 0.005)

    def test_far_left_underflow_is_not_a_minimum(self):
        # |Gamma| underflows to 0 there: reporting 0.0 would claim a zero
        with pytest.raises(OverflowError, match="underflows to zero"):
            nonvanishing_scan((-200.0, -190.0), (0.0, 1.0), 1.0)

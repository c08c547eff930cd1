import hashlib
import json
import math
import random

import mpmath
import pytest

from gammalab.errors import DomainError, EmptyGridError, PoleError
from gammalab.identities import (
    _IDENTITIES,
    _plan,
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
        "tag",
        ["functional:2", "mult", "mult:x", "mult:0", "sine:0", "cosine:-1", "zeta",
         "mult:+3", "mult:1_0", "mult: 3", "mult:03", "sine:\u0663"],
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

    @pytest.mark.parametrize(
        "ranges",
        [
            {"re_range": (0.0, math.inf)},
            {"re_range": (-math.inf, 0.0)},
            {"re_range": (-math.inf, math.inf)},
            {"im_range": (0.0, math.inf)},
            {"im_range": (-math.inf, -math.inf)},
            {"re_range": (-1.7e308, 1.7e308)},  # finite ends, infinite width
        ],
    )
    def test_sample_spec_rejects_non_finite_ranges(self, ranges):
        # numpy's uniform draw would raise its own OverflowError on these
        with pytest.raises(DomainError, match="must be finite"):
            SampleSpec(count=10, **ranges)


def _report_digest(tag, spec):
    report = verify_grid(tag, spec, 1e-10).to_json_dict()
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


_DEFAULT_BOX_DIGESTS = [
    ("functional", "07efa5c64dddca828702ba8524bf412de01520b77ce461d2050bfd8472fdd110"),
    ("reflection", "ed8782b8181c78ff56ddb8c4493f8ae6833c644958bfab801e7b3047354c1c9b"),
    ("duplication", "e06ed1fd95caacef81c04b5be6ff63f3b5226e5ec72c467fcac124e4e572e11f"),
    ("mult:1", "5eb483b254cfb19a56fd9577211f054e3abc3c09d2859f3e5f3e6f8be4575904"),
    ("mult:2", "b4f0a6ec5a301225b5d6816cf3d16d83266284b29d173286d8dcc1450ea58791"),
    ("mult:3", "f57641e60b19aa990f7aa68f0749378f73de28ebe43d7c1ff929eb9bcf69496a"),
    ("mult:4", "d6e197ebb1f66167279a9c6705959b6f0ab3a0265e4fa513a00b7ee63712c69b"),
    ("mult:5", "2a8d277de6e8bbed428735fe955cd7c449b469eb77f971ef7c50e447775f9f87"),
    ("mult:6", "437ac59058ee753e5925ea11940eb0a60f3f8dcec47f6a699fc04e438850ccec"),
    ("cosine:0", "5eab06da657ffb8d098b2a142949388edc1a821674a7d426207d99b0f89501b8"),
    ("cosine:1", "e4eddd1f9496bc629993c1b119510ce9970103e1f30f5ee3589ca12ce7893e6d"),
    ("cosine:2", "30a609a1eeabafd9a4499948f43d0f620097d9bceaafa9c95a8d559294c4104e"),
    ("cosine:3", "28d52a66a7df986703610ad781f67a8e505831f521bc82ac5a8ebb7150e46e67"),
    ("cosine:4", "19fb281c3a0442a003dd4d6796899e51df29966fb904a52dd5c9ccc826de98ca"),
    ("cosine:5", "fcb982625c82604135dc5884eeac87d6e2a735df0d89ab5d9cf9cb41019b7714"),
    ("cosine:6", "dd4075ce75ba374d4c5c99fd3740f7cd2a04376e649c9e0220076bc5ecc635f1"),
    ("cosine:7", "a7a66a9fa8531720e937f325224344e8b5538bd4bbfe64a587cea5aebff2b42b"),
    ("cosine:8", "f9977ef07a770fec2d54b90cfb591cf21fa28e2a2dac20925215789799177e41"),
    ("sine:1", "dc692ef572dfd09de3762b60db7c08c80966d040612518c38a5ecf71b6d9e3e3"),
    ("sine:2", "1cbdc5927d960e3221d5b72dbd6264bd496d93da75ea572378d83e6465a2b4c9"),
    ("sine:3", "45aab4956995f0a5485cede0a898dc90180988cb133711b8f034501daf79de18"),
    ("sine:4", "5265800d222fa65989336b47f3fb695fbf7ef54dc358cfac50e1de44a55286d2"),
    ("sine:5", "a2ae0c2ebd2d9efc272b2320520a8ab43e67d041b1beb6f4b9947e7632143cde"),
    ("sine:6", "afb00e6cb706081029fe3da31b6e7e7ff533b720b9f85299dae5e08d1a71af8f"),
]


class TestReportDigests:
    """verify_grid reports pinned by the sha256 of their sorted JSON: every
    tag of the benchmark's residual sweep plus mult:1, 500 draws on the
    default box, and comb on its window (0, 1/4)."""

    @pytest.mark.parametrize(
        "tag,digest", _DEFAULT_BOX_DIGESTS, ids=[tag for tag, _ in _DEFAULT_BOX_DIGESTS]
    )
    def test_default_box(self, tag, digest):
        assert _report_digest(tag, SampleSpec(count=500)) == digest

    def test_comb_window(self):
        spec = SampleSpec(count=500, re_range=(0.0, 0.25))
        assert _report_digest("comb", spec) == (
            "91dee41f1494644b0a0c258283f0d6247f9c1c165d13e2c9a6cc3c416c3171bc"
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


class TestMultiplicationRows:
    """The mult:n rows of the identity table against mpmath: the slots at z,
    and the combine of the form at the first slot from mpmath's Gamma at the
    other slots."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_slots_and_combine(self, n):
        at, combine = _plan("mult", n)
        forms = _IDENTITIES["mult"].forms
        assert [node for node, _ in forms] == [0]
        for z in (0.37 + 0.2j, 2.9 - 1.5j, -1.3 + 0.4j, 3.7, 0.55):
            a, *others = at(z)
            assert a == z
            assert others == pytest.approx([(z + j) / n for j in range(n)], rel=1e-15)
            values = [complex(mpmath.gamma(mpmath.mpc(c))) for c in others]
            want = complex(mpmath.gamma(mpmath.mpc(z)))
            assert abs(combine(a, *values) - want) <= 1e-13 * abs(want), (n, z)

import hashlib
import json
import math
import random

import mpmath
import pytest

from gammalab import identities
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

    def test_non_finite_combine_raises(self, monkeypatch):
        # a combine that leaves the floating range has no residual either
        at, _ = _plan("functional", None)
        monkeypatch.setattr(identities, "_plan", lambda kind, param: (at, lambda a, v: complex(math.inf, 0.0)))
        # build the row's residual afresh from that plan, past the cache
        monkeypatch.setattr(identities, "_row_residual", identities._row_residual.__wrapped__)
        with pytest.raises(OverflowError, match="functional combine at .* leaves the floating range"):
            residual_functional(2.5 + 1j)

    @pytest.mark.parametrize(
        "residual",
        [
            residual_functional,
            residual_reflection,
            residual_duplication,
            lambda z: residual_multiplication(3, z),
            lambda z: residual_sine_factorization(2, z),
            lambda z: residual_comb(z.real if z.imag == 0.0 else z),
            lambda z: residual_cosine_identity(2, z),
        ],
        ids=["functional", "reflection", "duplication", "mult:3", "sine:2", "comb", "cosine:2"],
    )
    @pytest.mark.parametrize(
        "z",
        [complex(math.nan, 0.0), complex(math.inf, 0.0), complex(-math.inf, 0.0), complex(0.5, math.inf)],
        ids=["nan", "inf", "-inf", "inf-imag"],
    )
    def test_non_finite_argument_is_a_domain_error(self, residual, z):
        # round() in pole_distance raised ValueError or OverflowError here,
        # and the cosine residual returned nan
        with pytest.raises(DomainError, match="must be finite"):
            residual(z)

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

    def test_comb_rejects_complex_argument(self):
        # the relation is stated for real a; float() used to raise TypeError
        with pytest.raises(DomainError):
            residual_comb(0.1 + 0j)
        with pytest.raises(DomainError):
            residual_comb(0.1 + 0.01j)

    def test_cosine_order_zero_exact(self):
        assert residual_cosine_identity(0, 1.234) == 0.0

    def test_cosine_small(self):
        for m in range(1, 9):
            assert residual_cosine_identity(m, 0.4 + 0.1j) < 1e-10

    def test_cosine_cancelling_sum_on_the_real_line(self):
        # the sum cancels from terms of 1.6e5 to |cos 17u| = 9e-3: scaled by
        # that value alone the residual read 3.8e-10
        assert residual_cosine_identity(8, -1.2017286567756913) < 1e-13

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
        assert a == b  # a record: field-by-field equality

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

    @pytest.mark.parametrize("im_range", [(150.0, 300.0), (-3.0, -1e-300), (1e-300, 1e-300)])
    def test_real_only_row_refuses_a_box_off_the_axis(self, im_range):
        # comb draws on the real axis only: a box whose Im range excludes 0
        # would pass on points outside it
        spec = SampleSpec(count=200, re_range=(-5.0, 5.0), im_range=im_range)
        with pytest.raises(DomainError, match="real-only: its draws lie on the real axis"):
            verify_grid("comb", spec, 1e-10)

    @pytest.mark.parametrize("im_range", [(0.0, 300.0), (-300.0, -0.0), (0.0, 0.0)])
    def test_real_only_row_takes_a_box_that_meets_the_axis(self, im_range):
        spec = SampleSpec(count=200, re_range=(0.0, 0.25), im_range=im_range)
        assert verify_grid("comb", spec, 1e-10).passed

    def test_non_finite_residual_is_skipped(self, monkeypatch):
        # every other draw reads nan: it is skipped, never the worst residual
        row_residual, draws = identities._row_residual, []

        def every_other_nan(kind, param, clearance):
            residual = row_residual(kind, param, clearance)

            def at(z):
                draws.append(z)
                return math.nan if len(draws) % 2 else residual(z)

            return at

        monkeypatch.setattr(identities, "_row_residual", every_other_nan)
        report = verify_grid("functional", SampleSpec(count=40), 1e-10)
        assert report.sample_count <= 20 <= report.skipped_count
        assert report.passed and math.isfinite(report.mean_relative_residual)

    def test_empty_grid_raises(self):
        # a sliver of the real axis within the exclusion radius of z = 0
        spec = SampleSpec(count=20, re_range=(-0.05, 0.05), im_range=(0.0, 0.0))
        with pytest.raises(EmptyGridError):
            verify_grid("functional", spec, 1e-10)

    def test_mult_slot_clearance(self):
        # every draw of the default box at seed 0 (verify_grid's formula) has
        # a slot (z + j)/52 within 0.1 of the pole 0, so none is left
        draw = random.Random(0).random
        for _ in range(200):
            z = complex(-4.0 + 8.0 * draw(), -4.0 + 8.0 * draw())
            assert min(abs(z + j) for j in range(52)) <= 5.2
        with pytest.raises(EmptyGridError, match=r"^all 200 .*\|z \+ j\| < 5\.2$"):
            verify_grid("mult:52", SampleSpec(count=200, seed=0), 1e-10)

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
        with pytest.raises(DomainError, match="seed"):
            SampleSpec(count=5, seed=-1)

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
        # an infinite end or width would put inf or nan draws in the sample
        with pytest.raises(DomainError, match="must be finite"):
            SampleSpec(count=10, **ranges)


def _report_digest(tag, spec):
    report = verify_grid(tag, spec, 1e-10).to_json_dict()
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


_DEFAULT_BOX_DIGESTS = [
    ("functional", "abfe6f024fa1235656866b23265b37bed93a86f5b076427374499b98a1038b6e"),
    ("reflection", "5dae20ba3bcc3937f18a4260f9ccc7f638775210fc93949d642df592fcc7b3f0"),
    ("duplication", "584a7bd99a784060659d3c598bf0cd709f918e5794192ccdad25cb15c6fcc8fe"),
    ("mult:1", "3d6136b007f8554bdccdae9f530dab69f5f73086d6fc3ec3363e064b30c1dc9f"),
    ("mult:2", "801d8e883663b4c1b29f51acc4a6463890d332c6c92e7ea95c2aa122b11caeca"),
    ("mult:3", "dc4ba3f24f738a4a1f254175804c084922d6be3ae07993c70cb0b8671994d10c"),
    ("mult:4", "4d9ab94a3239dee66823f021be59cad95ce15fc1d42d5e082882c939d23ce86b"),
    ("mult:5", "64319bc74dbd8c0c0f606f9c2d8e75a59728fc7c6e1bf912fcdf86bba8295fbf"),
    ("mult:6", "49f42547f58c7ad9059bccb55f12e13aecbd68800cb7b0c2852fca14546c28bb"),
    ("cosine:0", "34c70a67fadc3b45a7509638a9bcac4c4de67920cdf84eddbc0aab99add522d9"),
    ("cosine:1", "68550ddcdd9d1644bb508f84ea41b2694cd3bfa752c9cffdff63b2ad7a0e9bb4"),
    ("cosine:2", "01ba16a1e8b9e563e789c6848f527f64e666f902230112c5c8513bfaf8e3fb1c"),
    ("cosine:3", "0b00d934e9d4a049066542632127024f540212d4f47beb15c81d4cdb08b8a3d9"),
    ("cosine:4", "7ac6140dd45cf1bf5e5024cdda15bf407654a590078773cd98f2641002ef69ca"),
    ("cosine:5", "7722d064edb85b7678815bf7c2f2de119be41885c69a7dc689fa4264a4898557"),
    ("cosine:6", "5a36891035b2580614c5338a7ad249feddac59ef81742ca3e6c5650091894af4"),
    ("cosine:7", "f0a37ffa9c72989e6a553fe69a7cf59eb7fcf8048325db22421747bc99c7804f"),
    ("cosine:8", "64f1263bfcaf841d25c3c52b903dc8baa92a5dc3ee3d40b1c1c0aa5ff1a67c58"),
    ("sine:1", "dff26c223faa6cfc88bf2ced56150debb145f06f7c7f02590a87ecdc017b3293"),
    ("sine:2", "d3cf5347a2184aa4db2b6205303e61f57f76cdc3d8a88f15441397bb50af79a8"),
    ("sine:3", "8900cb97068ba0ec64d3f2ad158e122ad44edbca792ea31b293a32981f672312"),
    ("sine:4", "3a0a66b37926569ad7e20a5713ab93137f4847362a3292695fa0cce13d670385"),
    ("sine:5", "74425bf0be139909f28de44170eb1bfd79c57cd5f3047625fff6f56984b11ffb"),
    ("sine:6", "3f847fab37b169bcab07a26ee25d3cfdce5fb4371b6bfd8ed86e62c28f1f7108"),
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
            "47bccb4e0b4cad609d35ede5966550c0519985a0c60a6f182ca45e6204b7e457"
        )


class TestNonvanishingScan:
    def test_rectangle_minimum_positive(self):
        best, argmin = nonvanishing_scan((-2.0, 2.0), (-1.0, 1.0), 0.25)
        assert best > 0.0
        assert argmin is not None

    def test_grid_points_are_pinned(self):
        assert nonvanishing_scan((1.0, 2.0), (0.0, 0.0), 1e-3) == (
            0.8856032523860746, 1.4619999999999491 + 0j
        )
        assert nonvanishing_scan((-2.0, 2.0), (-1.0, 1.0), 0.25) == (0.1649330333748014, -2 - 1j)

    def test_real_axis_minimum_location(self):
        # |Gamma| on [1, 2] dips to ~0.8856 near x ~ 1.4616
        best, argmin = nonvanishing_scan((1.0, 2.0), (0.0, 0.0), 1e-3)
        assert argmin.imag == 0.0
        assert abs(argmin.real - 1.4616) < 2e-3
        assert abs(best - 0.8856031944) < 1e-6

    def test_rejects_bad_step(self):
        with pytest.raises(DomainError):
            nonvanishing_scan((0.0, 1.0), (0.0, 1.0), 0.0)

    @pytest.mark.parametrize(
        "re_range, step",
        [((0.0, math.inf), 1.0), ((math.nan, 1.0), 0.5), ((0.0, 1.0), math.inf)],
        ids=["inf-end", "nan-end", "inf-step"],
    )
    def test_rejects_non_finite_range_or_step(self, re_range, step):
        with pytest.raises(DomainError, match="finite"):
            nonvanishing_scan(re_range, (0.0, 0.0), step)

    @pytest.mark.parametrize("re_range, im_range", [((1.0, 0.0), (0.0, 1.0)), ((0.0, 1.0), (1.0, -1.0))])
    def test_rejects_unordered_ranges(self, re_range, im_range):
        with pytest.raises(DomainError, match="ordered"):
            nonvanishing_scan(re_range, im_range, 0.5)

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

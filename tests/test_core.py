import cmath
import math
import random
import sys

import mpmath
import pytest

import kernel_pin
from gammalab.core import (
    _LANCZOS_COEFFS,
    _LANCZOS_COEFFS_C,
    _gamma_factor,
    _int_of_text,
    _lanczos_sum,
    _text,
    beta,
    cospi,
    gamma,
    log_gamma,
    pochhammer,
    pole_distance,
    sinpi,
)
from gammalab.errors import DomainError, PoleError


def _mp_gamma(z: complex) -> complex:
    return complex(mpmath.gamma(mpmath.mpc(z.real, z.imag)))


class TestGammaKnownValues:
    def test_integers(self):
        facts = [1, 1, 2, 6, 24, 120, 720, 5040]
        for n, f in enumerate(facts, start=1):
            assert gamma(float(n)) == pytest.approx(f, rel=1e-14)

    def test_half_integers(self):
        sq = math.sqrt(math.pi)
        assert gamma(0.5) == pytest.approx(sq, rel=1e-14)
        assert gamma(1.5) == pytest.approx(0.5 * sq, rel=1e-14)
        assert gamma(-0.5) == pytest.approx(-2.0 * sq, rel=1e-14)
        assert gamma(2.5) == pytest.approx(0.75 * sq, rel=1e-14)

    def test_quarter(self):
        # Gamma(1/4), 30-digit reference
        assert gamma(0.25) == pytest.approx(3.625609908221908311930685155867672, rel=1e-14)

    def test_real_return_type(self):
        assert isinstance(gamma(2.5), float)
        assert isinstance(gamma(complex(2.5, 0.0)), complex)


class TestGammaComplex:
    def test_against_mpmath_grid(self):
        rng = random.Random(42)
        worst = 0.0
        for _ in range(300):
            z = complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
            if pole_distance(z) < 0.05:
                continue
            ref = _mp_gamma(z)
            worst = max(worst, abs(gamma(z) - ref) / abs(ref))
        assert worst < 5e-13

    def test_conjugate_symmetry_bitwise(self):
        rng = random.Random(7)
        for _ in range(200):
            z = complex(rng.uniform(-5, 5), rng.uniform(0.1, 5))
            if pole_distance(z) < 0.05:
                continue
            assert gamma(z.conjugate()) == gamma(z).conjugate()

    def test_conjugate_symmetry_left_of_the_reflection(self):
        rng = random.Random(3)
        for _ in range(200):
            z = complex(rng.uniform(-60.0, 0.5), 10 ** rng.uniform(-9.0, 1.0))
            assert gamma(z.conjugate()) == gamma(z).conjugate()

    def test_left_strip_against_mpmath(self):
        # the module header's 1e-12 target where Gamma(z) comes from the
        # reflection and sin(pi z) is near a zero of its real part
        rng = random.Random(0)
        worst = 0.0
        for _ in range(3000):
            z = complex(rng.uniform(-170.0, 0.0), 10 ** rng.uniform(-9.0, 0.0))
            ref = _mp_gamma(z)
            worst = max(worst, abs(gamma(z) - ref) / abs(ref))
        assert worst <= 1e-12

    def test_log_space_reflection_against_mpmath(self):
        # Re z < 1/2 with Im z > 50 assembles the reflection in log space;
        # the header's 1e-12 holds for |z| <= 170 wherever Gamma is normal
        rng = random.Random(0)
        worst = 0.0
        drawn = normal = 0
        while drawn < 3000:
            z = complex(rng.uniform(-150.0, 0.5), rng.uniform(50.0, 170.0))
            if abs(z) > 170.0:
                continue
            drawn += 1
            value = gamma(z)
            assert gamma(z.conjugate()) == value.conjugate()
            ref = _mp_gamma(z)
            if abs(ref) < sys.float_info.min:
                continue  # subnormal or flushed to zero: no relative accuracy
            normal += 1
            worst = max(worst, abs(value - ref) / abs(ref))
        assert normal == 2679
        assert worst <= 1e-12

    def test_disc_against_mpmath(self):
        # the header's 1e-12 on |z| <= 170 (uniform on the disc, mpmath at 40
        # digits), for the draws whose Gamma is a normal double
        rng = random.Random(0)
        worst = 0.0
        normal = 0
        for _ in range(3000):
            z = cmath.rect(170.0 * rng.random() ** 0.5, rng.uniform(-math.pi, math.pi))
            with mpmath.workdps(40):
                ref = _mp_gamma(z)
            if abs(ref) < sys.float_info.min:
                continue  # subnormal or flushed to zero: no relative accuracy
            normal += 1
            worst = max(worst, abs(gamma(z) - ref) / abs(ref))
        assert normal == 2837
        assert worst <= 1e-12

    def test_large_imaginary(self):
        z = complex(0.5, 120.0)
        ref = _mp_gamma(z)
        assert abs(gamma(z) - ref) / abs(ref) < 1e-11

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            gamma(float("nan"))
        with pytest.raises(DomainError):
            gamma(complex(math.inf, 0.0))


class TestGammaRealEdges:
    def test_overflow_raises(self):
        assert math.isfinite(gamma(171.6))
        with pytest.raises(OverflowError):
            gamma(172.0)

    def test_deep_negative_underflows_to_signed_zero(self):
        v = gamma(-200.5)
        assert v == 0.0
        assert math.copysign(1.0, v) == -1.0

    def test_overflow_far_past_the_range(self):
        # here the split power in the Lanczos prefactor overflows first
        for x in (1000.0, 1e300):
            with pytest.raises(OverflowError, match="exceeds the floating range"):
                gamma(x)

    @pytest.mark.parametrize("x,sign", [(-1000.5, -1.0), (-1001.5, 1.0), (-1e6 - 0.5, -1.0)])
    def test_far_negative_underflows_to_signed_zero(self, x, sign):
        v = gamma(x)
        assert v == 0.0
        assert math.copysign(1.0, v) == sign

    def test_negative_reals_against_mpmath(self):
        # the module header's 1e-12 target, at the midpoints of (-170, 0)
        xs = [-170.0 * (j + 0.5) / 4000 for j in range(4000)]
        worst = 0.0
        for x in xs:
            if abs(x - round(x)) < 1e-3:
                continue
            ref = mpmath.gamma(mpmath.mpf(x))
            worst = max(worst, float(abs((gamma(x) - ref) / ref)))
        assert worst <= 1e-12


class TestGammaComplexRange:
    """The complex path keeps the real path's range contract: a complex zero
    where Gamma(1 - z) leaves the range in the reflection, and the documented
    OverflowError where the value itself does."""

    @pytest.mark.parametrize("z", [-180.5 + 0.1j, -1000.5 + 0.5j, complex(-200.5, 0.0), -1e308 + 300j])
    def test_deep_left_underflows_to_zero(self, z):
        v = gamma(z)
        assert isinstance(v, complex)
        assert v == 0

    @pytest.mark.parametrize(
        "z", [180.5 + 0.1j, 171.65 + 0.001j, 1e308 + 1e308j, 1e308 - 1e308j, 1e307 + 1e308j]
    )
    def test_overflow_raises_documented_error(self, z):
        # 180.5 + 0.1i overflows inside the Lanczos prefactor; 171.65 +
        # 0.001i only in the last product, which gave inf - inf i; at the
        # last three cmath.exp meets an infinite imaginary part
        with pytest.raises(OverflowError, match="exceeds the floating range"):
            gamma(z)

    @pytest.mark.parametrize(
        "z, w", [(-100.3 + 0.1j, -100.4), (-171.5, 171.0), (-180.5, 171.65)]
    )
    def test_beta_with_an_underflowing_factor_is_out_of_range(self, z, w):
        # Gamma(z + w), Gamma(-171.5) and Gamma(-180.5) underflow; a zero
        # factor must not turn into a zero or nan quotient
        with pytest.raises(OverflowError, match="underflows to zero"):
            beta(z, w)

    @pytest.mark.parametrize("z", [1 + 1e308j, 0.5 - 1e308j, 1e300 + 1e308j])
    def test_far_up_the_imaginary_direction_underflows_to_zero(self, z):
        # cmath.exp meets an infinite imaginary part where Gamma underflows,
        # as at -1e308 + 300j through _log_sin_pi
        v = gamma(z)
        assert isinstance(v, complex)
        assert v == 0

    def test_huge_arguments_give_a_documented_outcome(self):
        # up to the largest double in each part, gamma returns, underflows
        # to zero or raises PoleError or OverflowError; where the kernel's
        # exp fails, the outcome matches mpmath's log|Gamma|
        rng = random.Random(5)
        for _ in range(300):
            z = complex(rng.choice((-1, 1)) * 10 ** rng.uniform(0.0, 308.25),
                        rng.choice((-1, 1)) * 10 ** rng.uniform(300.0, 308.25))
            try:
                outcome = "zero" if gamma(z) == 0 else "value"
            except OverflowError:
                outcome = "overflow"
            log_abs = mpmath.loggamma(mpmath.mpc(z.real, z.imag)).real
            assert outcome == ("overflow" if log_abs > 709.8 else "zero" if log_abs < -745 else "value"), z

    @pytest.mark.parametrize("z", [-117.78 + 100.64j, -170.6])
    def test_a_subnormal_factor_is_out_of_range(self, z):
        # gamma returns the subnormal value, but as a factor it has lost
        # most of its digits
        assert 0 < abs(gamma(z)) < sys.float_info.min
        with pytest.raises(OverflowError, match="underflows to a subnormal value"):
            _gamma_factor(z)


class TestPoles:
    @pytest.mark.parametrize("n", [0, -1, -2, -7, -30])
    def test_exact_pole_raises(self, n):
        with pytest.raises(PoleError):
            gamma(float(n))
        with pytest.raises(PoleError):
            gamma(complex(n, 0.0))

    @pytest.mark.parametrize("c", [1e-6, 0.1])
    def test_right_of_the_clearance_clears_every_pole(self, c):
        # every pole k is <= 0, so |v - k| >= Re v: identities skips the
        # pole test of a slot with Re v > c on this alone
        rng = random.Random(c.hex())
        edge = math.nextafter(c, math.inf)
        for _ in range(20000):
            re = rng.choice((edge, c * (1.0 + rng.random()), rng.uniform(c, 10.0), 10 ** rng.uniform(math.log10(c), 6.0)))
            im = rng.choice((0.0, -0.0, 1.0, -1.0)) * rng.choice((1.0, 10 ** rng.uniform(-12.0, 6.0)))
            v = complex(max(re, edge), im)
            assert pole_distance(v) > c, v

    def test_pole_distance(self):
        assert pole_distance(0.3) == pytest.approx(0.3)
        assert pole_distance(-1.75) == pytest.approx(0.25)
        assert pole_distance(complex(-2.0, 0.5)) == pytest.approx(0.5)
        assert pole_distance(5.0) == pytest.approx(5.0)

    def test_near_pole_blows_up_but_finite(self):
        v = gamma(-3.0 + 1e-9)
        assert math.isfinite(v)
        assert abs(v) > 1e8

    def test_absolute_pole_tolerance(self):
        # the pole test is absolute: within 1e-12 of a non-positive integer
        # is a pole, although Gamma(1e-13) ~ 1e13 is representable
        with pytest.raises(PoleError):
            gamma(1e-13)
        with pytest.raises(PoleError):
            gamma(complex(1e-13, 0.0))
        x = 2e-12
        want = 1.0 / x - 0.5772156649015329  # 1/x - Euler's gamma, error O(x)
        for v in (gamma(x), gamma(complex(x, 0.0))):
            assert cmath.isfinite(v)
            assert abs(v - want) <= 1e-12 * abs(want)


def _loop_sum(z, zero):
    """The Lanczos sum as a loop, term by term from the left."""
    s = zero + _LANCZOS_COEFFS[0]
    for k in range(1, 15):
        s += _LANCZOS_COEFFS[k] / (z - 1.0 + k)
    return s


class TestLanczosSum:
    """The straight-line sum adds the same terms in the same order as a loop."""

    def test_real_sum_matches_loop_bit_for_bit(self):
        rng = random.Random(86)
        xs = [rng.uniform(0.5, 172.0) for _ in range(20000)]
        xs += [rng.uniform(0.5, 2.0) for _ in range(5000)] + [0.5, 1.0, 171.5]
        for x in xs:
            got = _lanczos_sum(x)
            assert type(got) is float
            assert got.hex() == _loop_sum(x, 0.0).hex(), x

    def test_complex_sum_matches_loop_bit_for_bit(self):
        rng = random.Random(93)
        zs = [complex(rng.uniform(0.5, 172.0), rng.uniform(0.0, 300.0)) for _ in range(20000)]
        zs += [complex(rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0)) for _ in range(5000)]
        for z in zs:
            got = _lanczos_sum(z)
            assert type(got) is complex
            want = _loop_sum(z, 0j)
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex()), z

    def test_complex_coefficients_match_loop_bit_for_bit(self):
        # the complex path's coefficients are the floats widened to complex,
        # as mixed arithmetic widens them, so the sum keeps every bit
        coeffs = _LANCZOS_COEFFS_C
        assert [type(c) for c in coeffs] == [complex] * 15
        assert [(c.real, c.imag) for c in coeffs] == [(c, 0.0) for c in _LANCZOS_COEFFS]
        rng = random.Random(97)
        zs = [complex(rng.uniform(0.5, 172.0), rng.uniform(-300.0, 300.0)) for _ in range(20000)]
        zs += [complex(rng.uniform(0.5, 2.0), rng.choice((0.0, -0.0, rng.uniform(-1.0, 1.0)))) for _ in range(5000)]
        for z in zs:
            got = _lanczos_sum(z, coeffs)
            want = _loop_sum(z, 0j)
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex()), z


# sha256 of the outcomes on tests/kernel_pin.py's grids, 2500 points each
# (20,000 per function), recorded before the complex path ran in one frame
# with complex constants; the same on CPython 3.10 to 3.13
_KERNEL_DIGESTS = {
    "gamma": "20e89d7317cd983e31ee55af82580f0ac07342fa3b1318c92d881bf1ba50f1c2",
    "log_gamma": "656ac3642ba87641bb9b8def49e26f94a5744ab4935ba85e2e019277fc4272e3",
    "sinpi": "dba6ee8c7a38800c2122d26ae718d095158543a8c678c72f2c63b21ecc54137b",
    "cospi": "7564e7bd193c4dd47890cf2d426e9e799f18d05b8e4e0ef424e1d19cf219fa5b",
}


class TestKernelPins:
    """Every kernel value bit for bit, on grids over every branch."""

    @pytest.mark.parametrize("name", sorted(_KERNEL_DIGESTS))
    def test_digest(self, name):
        assert kernel_pin.digest([name], 2500) == _KERNEL_DIGESTS[name]


class TestLogGamma:
    def test_matches_log_of_gamma(self):
        rng = random.Random(3)
        for _ in range(200):
            z = complex(rng.uniform(0.05, 20), rng.uniform(-20, 20))
            lg = log_gamma(z)
            ref = mpmath.loggamma(mpmath.mpc(z.real, z.imag))
            assert abs(lg - complex(ref)) < 1e-11 * max(1.0, abs(complex(ref)))

    def test_huge_argument_no_overflow(self):
        lg = log_gamma(complex(500.5, 300.0))
        ref = complex(mpmath.loggamma(mpmath.mpc(500.5, 300.0)))
        assert abs(lg - ref) / abs(ref) < 1e-12

    def test_left_half_plane_rejected(self):
        with pytest.raises(DomainError):
            log_gamma(complex(-1.5, 0.3))

    @pytest.mark.parametrize("z", [2.5 + 1e308j, 1e308, 1e308 + 0j])
    def test_past_the_range_raises_documented_error(self, z):
        with pytest.raises(OverflowError, match=r"log_gamma\(.*\) exceeds the floating range"):
            log_gamma(z)

    def test_real_positive(self):
        assert log_gamma(10.0) == pytest.approx(math.lgamma(10.0), rel=1e-14)

    @pytest.mark.parametrize("x", [1e-3, 0.3, 0.5, 1.5, 7.25, 170.5, 1e6])
    def test_real_matches_math_lgamma(self, x):
        assert abs(log_gamma(x) - math.lgamma(x)) <= 2e-15 * max(1.0, abs(math.lgamma(x)))

    def test_exp_of_log_gamma_is_gamma(self):
        z = 2.5 + 3j
        assert abs(cmath.exp(log_gamma(z)) - gamma(z)) <= 1e-15 * abs(gamma(z))

    @pytest.mark.parametrize("box", ["right-disc", "strip", "real", "tall"])
    def test_seeded_boxes_against_mpmath(self, box):
        # within 4e-15 (absolute, or relative above 1) of mpmath at 40 digits:
        # the right half of |z| <= 170, the strip 0 < Re z < 1/2 that takes
        # one recurrence step, real x in (1e-3, 1e6), and |Im z| up to 1e6
        rng = random.Random(0)
        draw = {
            "right-disc": lambda: cmath.rect(170.0 * rng.random() ** 0.5, rng.uniform(-0.5, 0.5) * math.pi),
            "strip": lambda: complex(rng.uniform(0.0, 0.5), rng.uniform(-5.0, 5.0)),
            "real": lambda: 10 ** rng.uniform(-3.0, 6.0),
            "tall": lambda: complex(rng.uniform(0.0, 3.0), rng.choice((-1, 1)) * 10 ** rng.uniform(0.0, 6.0)),
        }[box]
        worst = 0.0
        with mpmath.workdps(40):
            for _ in range(1000):
                z = draw()
                value = log_gamma(z)
                assert type(value) is type(z)
                ref = complex(mpmath.loggamma(mpmath.mpmathify(z)))
                worst = max(worst, abs(value - ref) / max(1.0, abs(ref)))
        assert worst <= 4e-15


class TestBetaPochhammer:
    def test_beta_symmetry_and_value(self):
        assert beta(2.5, 3.5) == pytest.approx(beta(3.5, 2.5), rel=1e-14)
        # B(1/2, 1/2) = pi
        assert beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-13)

    def test_beta_vs_gamma_ratio(self):
        rng = random.Random(11)
        for _ in range(50):
            a = rng.uniform(0.2, 6.0)
            b = rng.uniform(0.2, 6.0)
            ref = gamma(a) * gamma(b) / gamma(a + b)
            assert beta(a, b) == pytest.approx(ref, rel=1e-12)

    def test_complex_beta_against_mpmath(self):
        rng = random.Random(13)
        for _ in range(50):
            z = complex(rng.uniform(-3.0, 5.0), rng.uniform(-4.0, 4.0))
            w = complex(rng.uniform(0.2, 5.0), rng.uniform(-4.0, 4.0))
            value = beta(z, w)
            assert type(value) is complex
            ref = complex(mpmath.beta(mpmath.mpc(z.real, z.imag), mpmath.mpc(w.real, w.imag)))
            assert abs(value - ref) <= 1e-12 * abs(ref)
        assert type(beta(2.5, 0.5j + 1.0)) is complex

    def test_pochhammer_integers(self):
        assert pochhammer(3.0, 4) == pytest.approx(3 * 4 * 5 * 6)
        assert pochhammer(1.0, 6) == pytest.approx(math.factorial(6))
        assert pochhammer(2.5, 0) == 1.0

    def test_pochhammer_negative_count_rejected(self):
        with pytest.raises(DomainError):
            pochhammer(1.0, -1)

    def test_pochhammer_complex(self):
        z = complex(0.3, 1.1)
        direct = z * (z + 1) * (z + 2)
        assert abs(pochhammer(z, 3) - direct) < 1e-14 * abs(direct)


class TestSinPiCosPi:
    @pytest.mark.parametrize("n", [0, 1, 2, -1, -2, 7, -30, 2**40])
    def test_exact_zeros(self, n):
        assert sinpi(float(n)) == 0.0
        assert cospi(n + 0.5) == 0.0
        assert sinpi(complex(n, 0.0)) == 0.0
        assert cospi(complex(n + 0.5, 0.0)) == 0.0

    @pytest.mark.parametrize("x", [0.1, 0.5, 0.9, 1.25, 1.75, -0.3, -1.6, 2.5, 3.125, -7.9])
    def test_sign_and_value(self, x):
        assert math.copysign(1.0, sinpi(x)) == math.copysign(1.0, math.sin(math.pi * x))
        assert sinpi(x) == pytest.approx(math.sin(math.pi * x), rel=1e-14, abs=1e-15)
        assert cospi(x) == pytest.approx(math.cos(math.pi * x), rel=1e-14, abs=1e-15)
        z = complex(x, 0.75)
        assert sinpi(z) == pytest.approx(cmath.sin(math.pi * z), rel=1e-14)
        assert cospi(z) == pytest.approx(cmath.cos(math.pi * z), rel=1e-14)

    def test_unit_values(self):
        assert [sinpi(x) for x in (0.5, 1.5, -0.5, 2.5)] == [1.0, -1.0, -1.0, 1.0]
        assert [cospi(x) for x in (0.0, 1.0, -1.0, 2.0)] == [1.0, -1.0, -1.0, 1.0]

    def test_cospi_reduces_before_the_shift(self):
        # sinpi(x + 1/2) rounds x + 1/2 to 2.0 here and reads 0.0
        x = 1.5 + 2.0**-52
        assert sinpi(x + 0.5) == 0.0
        assert cospi(x) == pytest.approx(float(mpmath.cospi(mpmath.mpf(x))), rel=1e-15)
        assert cospi(x) > 0.0


class TestIntText:
    """_int_of_text reads back what _text writes, at any size: int() sees
    no piece above 600 digits, so the digit limit never matters."""

    @pytest.mark.parametrize(
        "n",
        [0, 7, -7, 10**599, 10**600, -(10**600) - 1, 3 * 10**4000 + 1, 2**20000 - 1],
        ids=["0", "7", "-7", "10^599", "10^600", "-10^600-1", "3*10^4000+1", "2^20000-1"],
    )
    def test_round_trip_under_the_least_limit(self, n):
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this Python has no int/str digit limit")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert _int_of_text(_text(n)) == n
        finally:
            sys.set_int_max_str_digits(limit)

import math
import random
from fractions import Fraction

import mpmath
import pytest

from gammalab.core import gamma
from gammalab.errors import ConvergenceError, DomainError, PoleError
from gammalab.schlomilch import (
    Hyp2F1Params,
    SchlomilchCoefficients,
    binomial_identity_check,
    euler_transform_residual,
    gauss_second_summation,
    generalized_lhs,
    generalized_series,
    hyp2f1_half,
    schlomilch_finite_lhs,
    schlomilch_finite_rhs,
)


class TestCoefficients:
    def test_known_rows(self):
        assert SchlomilchCoefficients.build(0).coefficients == (1.0,)
        assert SchlomilchCoefficients.build(1).coefficients == (1.0, 1.0)
        assert SchlomilchCoefficients.build(3).coefficients == (1.0, 6.0, 5.0, 1.0)

    def test_leading_coefficient_is_one(self):
        for m in range(8):
            assert SchlomilchCoefficients.build(m).coefficients[0] == 1.0

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            SchlomilchCoefficients.build(-1)


class TestFiniteIdentity:
    def test_m_zero_rhs_is_gamma(self):
        # the sum degenerates to the single term Gamma(z) * 1.0 (bitwise):
        # compare against the complex evaluation path the sum itself uses
        for z in (1.3, 4.25, 2.0 + 1.5j):
            assert schlomilch_finite_rhs(0, z) == gamma(complex(z))

    def test_m_zero_lhs_is_duplication_rearranged(self):
        rng = random.Random(11)
        for _ in range(40):
            z = complex(rng.uniform(0.2, 10.0), rng.uniform(-3.0, 3.0))
            lhs = schlomilch_finite_lhs(0, z)
            g = gamma(z)
            assert abs(lhs - g) / abs(g) < 1e-12

    @pytest.mark.parametrize("m", range(7))
    def test_real_sweep(self, m):
        rng = random.Random(100 + m)
        for _ in range(50):
            z = rng.uniform(m + 0.2, m + 10.0)
            lhs = schlomilch_finite_lhs(m, z)
            rhs = schlomilch_finite_rhs(m, z)
            assert abs(lhs - rhs) / abs(lhs) < 1e-11

    @pytest.mark.parametrize("m", range(7))
    def test_complex_sweep(self, m):
        rng = random.Random(200 + m)
        for _ in range(30):
            z = complex(rng.uniform(m + 0.2, m + 10.0), rng.uniform(-4.0, 4.0))
            lhs = schlomilch_finite_lhs(m, z)
            rhs = schlomilch_finite_rhs(m, z)
            assert abs(lhs - rhs) / abs(lhs) < 1e-11

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            schlomilch_finite_lhs(-1, 5.0)
        with pytest.raises(DomainError):
            schlomilch_finite_lhs(3, 2.5)  # needs Re z > m
        with pytest.raises(DomainError):
            schlomilch_finite_rhs(2, 2.0)


class TestGeneralizedSeries:
    @staticmethod
    def _admissible(w, z):
        s = w + z - 0.5
        if abs(s - round(s)) <= 1e-2:
            return False
        return all(
            min(abs(p - k) for k in range(0, -6, -1)) > 1e-2 for p in (w, z)
        )

    def test_matches_closed_form(self):
        rng = random.Random(17)
        checked = 0
        while checked < 60:
            w = rng.uniform(0.1, 3.0)
            z = rng.uniform(0.1, 3.0)
            if not self._admissible(w, z):
                continue
            closed = generalized_lhs(w, z)
            series = generalized_series(w, z, 1e-13, 500)
            assert series.converged
            assert abs(series.value - closed) <= 1e-9 * max(abs(closed), 1.0)
            checked += 1

    @pytest.mark.parametrize("m", range(5))
    def test_specialization_terminates_and_matches_finite(self, m):
        rng = random.Random(300 + m)
        for _ in range(20):
            z = rng.uniform(m + 0.7, m + 6.0)
            if abs(z - round(z)) <= 1e-6:  # w + z' - 1/2 = z must avoid integers
                continue
            w = 0.5 * (z + m + 1.0)
            zp = 0.5 * (z - m)
            series = generalized_series(w, zp, 1e-13, 500)
            assert series.converged
            # with w - zp + 1/2 = m + 1 the Pochhammer kills every term past n = m
            assert series.terms_used <= m + 5
            finite = schlomilch_finite_lhs(m, z)
            assert abs(series.value - finite) / abs(finite) < 1e-10

    @pytest.mark.parametrize(
        "w, z, terms",
        [(2.6, 2.8, 65), (2.9, 2.95, 71), (0.8 + 0.3j, 1.1 - 0.2j, 50)],
    )
    def test_is_gamma_times_a_gauss_series(self, w, z, terms):
        # Gamma(s) 2F1(1 - u, u; 1 - s; 1/2), s = w + z - 1/2, u = w - z + 1/2;
        # the real pairs run past n = 60 into the deep tail
        s = mpmath.mpc(w) + z - 0.5
        u = mpmath.mpc(w) - z + 0.5
        want = complex(mpmath.gamma(s) * mpmath.hyp2f1(1 - u, u, 1 - s, 0.5))
        series = generalized_series(w, z, 1e-13, 500)
        assert series.converged
        assert series.terms_used == terms
        assert abs(series.value - want) / abs(want) <= 1e-12

    def test_reports_unconverged_when_starved(self):
        result = generalized_series(0.7, 0.9, 1e-13, 3)
        assert not result.converged
        assert result.terms_used == 3

    def test_rejects_cosine_pole(self):
        # w + z - 1/2 integral: closed form has a cosine pole there
        with pytest.raises(DomainError):
            generalized_lhs(1.25, 1.25)
        with pytest.raises(DomainError):
            generalized_series(1.25, 1.25, 1e-10, 100)

    @pytest.mark.parametrize("w,z", [(1.0, 0.7), (2.0, 0.3), (0.7, 3.0)])
    def test_closed_form_vanishes_at_a_positive_integer(self, w, z):
        # sin(pi w) sin(pi z) is exactly 0 there: the continuous extension
        assert generalized_lhs(w, z) == 0

    def test_rejects_gamma_pole(self):
        with pytest.raises(DomainError):
            generalized_lhs(0.0, 1.3)

    def test_budget_is_checked_before_the_arguments(self):
        # (1.25, 1.25) sits on a cosine pole, yet the budget error comes first
        with pytest.raises(DomainError, match="tolerance must be > 0"):
            generalized_series(1.25, 1.25, 0.0, 100)
        with pytest.raises(DomainError, match="max_terms must be >= 1"):
            generalized_series(1.25, 1.25, 1e-10, 0)

    def test_no_stop_before_the_terms_can_no_longer_grow(self):
        # c = 1 - s = -24.5: the terms shrink, then grow again as n nears
        # Re s - 1, so three small terms at n < 24.5 prove nothing
        result = generalized_series(12.7, 13.3, 1e-8, 500)
        assert result.converged
        assert result.terms_used > 25
        assert abs(result.value - generalized_lhs(12.7, 13.3)) <= 1e-8 * result.mass

    def test_non_finite_value_is_overflow(self):
        # Gamma(170) 2**169.8 overflows before sin(170 pi) = 0 cancels it,
        # and the series' terms pass the floating range by term 3
        with pytest.raises(OverflowError, match="closed form at w = .* leaves the floating range"):
            generalized_lhs(170, 0.3)
        with pytest.raises(OverflowError, match="series leaves the floating range at term 3"):
            generalized_series(170, 0.3, 1e-8, 500)

    @pytest.mark.parametrize("max_terms", [1, 2, 8])
    def test_exhausted_series_reports_every_term(self, max_terms):
        result = generalized_series(0.7, 0.9, 1e-13, max_terms)
        assert not result.converged
        assert result.terms_used == max_terms


class TestHypergeometric:
    def test_log_series_value(self):
        # 2F1(1, 1; 2; 1/2) = -ln(1 - 1/2)/(1/2) = 2 ln 2
        r = hyp2f1_half(Hyp2F1Params(1.0, 1.0, 2.0), 1e-14, 500)
        assert r.converged
        assert r.value.real == pytest.approx(2.0 * math.log(2.0), rel=1e-12)

    @pytest.mark.parametrize(
        "a,b,c",
        [(0.5, 1.5, 2.25), (1.0, 1.0, 1.5), (-0.3, 2.2, 1.7), (0.25, 0.75, 0.6)],
    )
    def test_against_mpmath(self, a, b, c):
        r = hyp2f1_half(Hyp2F1Params(a, b, c), 1e-14, 1000)
        want = complex(mpmath.hyp2f1(a, b, c, mpmath.mpf(1) / 2))
        assert abs(r.value - want) / abs(want) < 1e-12

    def test_convergence_error_on_tiny_budget(self):
        with pytest.raises(ConvergenceError):
            hyp2f1_half(Hyp2F1Params(1.0, 1.0, 2.0), 1e-14, 5)

    def test_exhausted_budget_and_empty_budget(self):
        with pytest.raises(ConvergenceError, match="within 5 terms"):
            hyp2f1_half(Hyp2F1Params(1.0, 1.0, 2.0), 1e-14, 5)
        with pytest.raises(DomainError, match="max_terms must be >= 1"):
            hyp2f1_half(Hyp2F1Params(1.0, 1.0, 2.0), 1e-14, 0)

    def test_c_at_pole_rejected(self):
        with pytest.raises(DomainError):
            Hyp2F1Params(1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            Hyp2F1Params(1.0, 1.0, -3.0)

    def test_euler_transform_residual_small(self):
        rng = random.Random(23)
        for _ in range(40):
            a = rng.uniform(-1.5, 2.5)
            b = rng.uniform(-1.5, 2.5)
            c = rng.uniform(0.3, 3.5)
            assert euler_transform_residual(Hyp2F1Params(a, b, c)) < 1e-11

    def test_gauss_second_summation(self):
        rng = random.Random(29)
        for _ in range(40):
            a = rng.uniform(-1.0, 2.0)
            b = rng.uniform(-1.0, 2.0)
            c = 0.5 * (a + b + 1.0)
            try:
                closed = gauss_second_summation(a, b)
            except PoleError:
                continue
            series = hyp2f1_half(Hyp2F1Params(a, b, c), 1e-14, 1000)
            # both sides vanish together when (a+1)/2 approaches a pole, so
            # floor the scale rather than divide by a tiny closed form
            assert abs(series.value - closed) <= 1e-11 * max(abs(closed), 1e-3)

    @pytest.mark.parametrize("a,b", [(-1.0, 1.0), (1.0, -3.0 + 1e-9), (-2.5, -2.5)])
    def test_gauss_second_summation_at_a_pole(self, a, b):
        # (a+1)/2, (b+1)/2 and (a+b+1)/2 in turn within 1e-8 of a pole
        with pytest.raises(PoleError, match="within 1e-8 of a pole"):
            gauss_second_summation(a, b)

    def test_gauss_second_summation_with_an_underflowed_factor(self):
        # Gamma((a + 1)/2) underflows at Re a ~ -400: a zero denominator
        with pytest.raises(OverflowError, match="underflows to zero"):
            gauss_second_summation(-400.3 + 0.1j, 1.0)


class TestBinomialIdentity:
    def test_hand_checked_case(self):
        lhs, rhs, equal = binomial_identity_check(1, 1)
        assert lhs == Fraction(2)
        assert rhs == Fraction(2)
        assert equal

    def test_small_grid_exact(self):
        for m in range(9):
            for l in range(9):
                lhs, rhs, equal = binomial_identity_check(m, l)
                assert equal, (m, l)
                assert isinstance(lhs, Fraction) and isinstance(rhs, Fraction)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            binomial_identity_check(-1, 0)
        with pytest.raises(DomainError):
            binomial_identity_check(0, -2)

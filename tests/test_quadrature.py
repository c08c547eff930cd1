import math
import random

import mpmath
import pytest

from gammalab import quadrature
from gammalab.core import beta as beta_closed
from gammalab.core import gamma as gamma_closed
from gammalab.core import sinpi
from gammalab.errors import ConvergenceError, DomainError
from gammalab.mellin import catalog_entry, mellin_transform
from gammalab.quadrature import (
    _BASE_H,
    _KEPT_LEVELS,
    _T_CUT,
    _TINY_WEIGHT,
    QuadratureSpec,
    _ladder,
    _level_sum,
    beta_integral,
    gamma_integral,
    integrate_real_line,
    tanh_sinh,
)


def _halfline(f):
    """integral_0^inf f(s) ds, by integrate_real_line after s = e^u."""
    return integrate_real_line(lambda u: f(math.exp(u)) * math.exp(u))


class TestTanhSinh:
    def test_polynomial(self):
        v, err = tanh_sinh(lambda x: x * x, 0.0, 1.0)
        assert v == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert err < 1e-10

    def test_inverse_sqrt_singularity(self):
        # integrable endpoint singularity: int_0^1 x^{-1/2} = 2
        v, _ = tanh_sinh(lambda x: x ** -0.5, 0.0, 1.0)
        assert v == pytest.approx(2.0, rel=1e-12)

    def test_log_singularity(self):
        v, _ = tanh_sinh(math.log, 0.0, 1.0)
        assert v == pytest.approx(-1.0, rel=1e-12)

    def test_both_endpoints_singular(self):
        # int_0^1 x^{-1/4} (1-x)^{-1/4} = B(3/4, 3/4)
        v, _ = tanh_sinh(lambda x: x ** -0.25 * (1 - x) ** -0.25, 0.0, 1.0)
        assert v == pytest.approx(beta_closed(0.75, 0.75), rel=1e-11)

    def test_shifted_interval(self):
        v, _ = tanh_sinh(math.sin, 1.0, 4.0)
        assert v == pytest.approx(math.cos(1.0) - math.cos(4.0), rel=1e-12)

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            tanh_sinh(lambda x: x, 1.0, 1.0)

    @pytest.mark.parametrize(
        "a,b", [(0.0, math.inf), (-math.inf, 0.0), (-math.inf, math.inf), (-1e308, 1e308)]
    )
    def test_infinite_interval_rejected(self, a, b):
        # every node of an infinite width is NaN; the sum must not read 0
        with pytest.raises(DomainError, match="bad interval"):
            tanh_sinh(lambda x: math.exp(-abs(x)), a, b)

    def test_no_float_inside_the_interval(self):
        # 2.0000000000000004 is the float after 2.0: every node would be skipped
        with pytest.raises(DomainError, match="no float lies strictly inside"):
            tanh_sinh(lambda x: x * x, 2.0, 2.0000000000000004)

    def test_budget_exhaustion(self):
        with pytest.raises(ConvergenceError):
            tanh_sinh(lambda x: math.sin(1e4 * x), 0.0, 1.0, rtol=1e-14, max_levels=3)


class TestNonFiniteIntegrand:
    """A non-finite integrand value stops the sum unless its node's weight
    is negligible."""

    @pytest.mark.parametrize(
        "bad,good",
        [
            (math.nan, 1.0),
            (-math.inf, 1.0),
            (complex(1.0, math.nan), 1j),
            (complex(math.inf, 0.0), 1j),
        ],
    )
    def test_interior_node_raises(self, bad, good):
        # t = 0 maps to the midpoint 1/2 of (0, 1)
        with pytest.raises(ConvergenceError, match="integrand not finite at x=0.5"):
            tanh_sinh(lambda x: bad if x == 0.5 else good, 0.0, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(math.nan, 0.0)])
    def test_negligible_weight_is_skipped(self, bad):
        # on a short interval the outermost node t = -6 keeps an abscissa
        # inside (a, b) but carries a weight below _TINY_WEIGHT
        a, b = 0.0, 1e-9
        half = 0.5 * (b - a)
        den, cosh_t, cosh2_u = _ladder(0)[12]  # t = 12 h = 6, read at -t
        x, w = a + half * 2.0 / den, half * 0.5 * math.pi * cosh_t / cosh2_u
        assert a < x < b and 0.0 < w < _TINY_WEIGHT
        want = tanh_sinh(lambda s: 1e9, a, b)
        assert tanh_sinh(lambda s: bad if s == x else 1e9, a, b) == want


def _de_node(t, a, b, half):
    """The reference: abscissa and weight of the tanh-sinh map at t on (a, b),
    each worked out from t alone, as the rule did before its node ladder."""
    u = 0.5 * math.pi * math.sinh(t)
    ch = math.cosh(u)
    if u >= 0.0:
        x = b - half * 2.0 / (1.0 + math.exp(2.0 * u))
    else:
        x = a + half * 2.0 / (1.0 + math.exp(-2.0 * u))
    w = half * 0.5 * math.pi * math.cosh(t) / (ch * ch)
    return x, w


class TestLadder:
    """Each level's nodes are built once per process from a table of
    (1 + exp(2u), cosh t, cosh(u)**2); the abscissae and weights they give
    are the reference's bit for bit."""

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (0.0, 1e-9), (-8.0, 8.0)])
    def test_nodes_match_the_reference_bit_for_bit(self, a, b):
        half = 0.5 * (b - a)
        for k in range(_KEPT_LEVELS + 1):
            h = _BASE_H / 2**k
            js = range(0, 13) if k == 0 else range(1, int(_T_CUT / h) + 1, 2)
            want = []
            for j in js:
                for t in (j * h, -j * h) if j else (0.0,):
                    x, w = _de_node(t, a, b, half)
                    if w != 0.0 and a < x < b:
                        want.append((x, w))
            # the weights the level sum uses, read off its table
            triples = _ladder(k)
            assert len(triples) == len(js)
            for j, (den, cosh_t, cosh2_u) in zip(js, triples):
                w = half * 0.5 * math.pi * cosh_t / cosh2_u
                assert w == _de_node(j * h, a, b, half)[1] == _de_node(-j * h, a, b, half)[1]
            # the abscissae it evaluates, in order, and its sum of the weights
            seen = []
            total = _level_sum(lambda x: seen.append(x) or 1.0, a, b, half, k)
            assert seen == [x for x, _ in want]
            ref = 0.0
            for _, w in want:
                ref += w
            assert total == ref

    def test_a_second_integral_builds_no_level(self, monkeypatch):
        # a sum that never converges reads every kept level
        with pytest.raises(ConvergenceError):
            tanh_sinh(lambda x: math.sin(1e4 * x), 0.0, 1.0, rtol=1e-15)
        built = []
        triples = quadrature._triples
        monkeypatch.setattr(quadrature, "_triples", lambda k: built.append(k) or triples(k))
        spec = QuadratureSpec(relative_tolerance=1e-11)
        assert gamma_integral(2.5 + 1j, spec) == pytest.approx(gamma_closed(2.5 + 1j), rel=1e-9)
        beta_integral(0.3, 0.7, spec)
        mellin_transform(catalog_entry("log1p"), 0.4)
        assert built == []

    def test_a_deeper_level_is_not_kept(self):
        with pytest.raises(ConvergenceError, match="within 13 levels"):
            tanh_sinh(lambda x: math.sin(1e4 * x), 0.0, 1.0, rtol=1e-15, max_levels=13)
        assert len(quadrature._LADDER) <= 13 and max(quadrature._LADDER) == _KEPT_LEVELS


class TestOverflowedSum:
    """A level value that leaves the floating range raises OverflowError;
    its error estimate inf - inf (or inf) can never pass for converged."""

    def test_overflowing_integrand_raises(self):
        with pytest.raises(OverflowError, match="left the floating range"):
            tanh_sinh(lambda x: 1e308, 0.0, 10.0)

    @pytest.mark.parametrize("z", [170.6, 171.0, 171.3, 171.6, 171.62])
    def test_gamma_integral_near_the_top_of_the_range(self, z):
        # the level sums that approach Gamma(171) = 7.26e306 once overflowed;
        # with the integrand's peak divided out they stay near sqrt(2 pi / z)
        got = gamma_integral(z, QuadratureSpec())
        assert got == pytest.approx(float(mpmath.gamma(z)), rel=1e-9)

    @pytest.mark.parametrize("z", [171.0, 171.3])
    def test_gamma_integral_near_the_top_agrees_with_the_kernel(self, z):
        got = gamma_integral(z, QuadratureSpec())
        assert abs(got - gamma_closed(z)) <= 1e-10 * gamma_closed(z)

    @pytest.mark.parametrize("z", [171.7, 300.0, 1e308, complex(1e300, 1.0)])
    def test_gamma_integral_past_the_top_of_the_range_overflows(self, z):
        # Gamma(171.7) = 2.7e308 is past the largest float; at 1e308 even
        # the peak's exponent sigma log sigma overflows
        with pytest.raises(OverflowError, match="leaves the floating range"):
            gamma_integral(z, QuadratureSpec())

    def test_largest_passing_points_still_converge(self):
        for z in (170.0, 170.6):
            got = gamma_integral(z, QuadratureSpec())
            assert got == pytest.approx(gamma_closed(z), rel=1e-9)


class TestHalfLine:
    """Integrals over (0, inf) in the form the oracles take them: on the
    whole u-line after s = e^u."""

    def test_exponential(self):
        v, _ = _halfline(lambda x: math.exp(-x))
        assert v == pytest.approx(1.0, rel=1e-11)

    def test_gaussian(self):
        v, _ = _halfline(lambda x: math.exp(-x * x))
        assert v == pytest.approx(0.5 * math.sqrt(math.pi), rel=1e-11)

    def test_algebraic_singularity_at_zero(self):
        # int_0^inf x^{-1/2} e^{-x} = Gamma(1/2)
        v, _ = _halfline(lambda x: math.exp(-x) / math.sqrt(x))
        assert v == pytest.approx(math.sqrt(math.pi), rel=1e-10)

    def test_nondecaying_tail_raises(self):
        # 1/(1+s) ds after s = e^u is 1/(1+e^-u) du, which tends to 1:
        # the window grows past its cap |u| = 4000 and gives up
        with pytest.raises(ConvergenceError, match="at infinity"):
            integrate_real_line(lambda u: 1.0 / (1.0 + math.exp(-u)))

    def test_nondecaying_left_tail_raises(self):
        # 1/(1+e^u) tends to 1 as u -> -inf: the left end gives up first
        with pytest.raises(ConvergenceError, match="near 0"):
            integrate_real_line(lambda u: 1.0 / (1.0 + math.exp(u)))

    def test_window_reaches_its_cap(self):
        # the left tail of Gamma's integrand decays like e^(sigma u): at
        # sigma = 0.007 it falls below tolerance only at the cap |u| = 4000,
        # which the window probes; at 0.006 not even there
        spec = QuadratureSpec()
        want = float(mpmath.gamma(0.007))
        assert gamma_integral(0.007, spec) == pytest.approx(want, rel=1e-10)
        with pytest.raises(ConvergenceError, match="near 0"):
            gamma_integral(0.006, spec)

    def test_real_line_gaussian(self):
        v, _ = integrate_real_line(lambda u: math.exp(-u * u))
        assert v == pytest.approx(math.sqrt(math.pi), rel=1e-11)


class TestOracleAgreement:
    SPEC = QuadratureSpec(relative_tolerance=1e-11)

    def test_gamma_real_points(self):
        for x in (0.5, 1.0, 2.25, 4.0, 7.5):
            assert gamma_integral(x, self.SPEC) == pytest.approx(
                gamma_closed(x), rel=1e-9
            )

    def test_gamma_complex_points(self):
        rng = random.Random(17)
        for _ in range(10):
            z = complex(rng.uniform(0.5, 5.0), rng.uniform(-2.0, 2.0))
            got = gamma_integral(z, self.SPEC)
            ref = gamma_closed(z)
            assert abs(got - ref) / abs(ref) < 1e-9

    def test_gamma_left_half_rejected(self):
        with pytest.raises(DomainError):
            gamma_integral(-0.5, self.SPEC)

    def test_beta_matches_closed_form(self):
        rng = random.Random(23)
        for _ in range(10):
            a = rng.uniform(0.3, 4.0)
            b = rng.uniform(0.3, 4.0)
            assert beta_integral(a, b, self.SPEC) == pytest.approx(
                beta_closed(a, b), rel=1e-9
            )

    def test_beta_reflection_route(self):
        # Euler's route: B(z, 1 - z) = pi / sin(pi z) on 0 < Re z < 1,
        # with no gamma evaluation on either side
        spec = QuadratureSpec(relative_tolerance=1e-10)
        rng = random.Random(4)
        worst = 0.0
        for _ in range(40):
            z = complex(rng.uniform(0.05, 0.95), rng.uniform(-2.0, 2.0))
            want = math.pi / sinpi(z)
            worst = max(worst, abs(beta_integral(z, 1 - z, spec) - want) / abs(want))
        assert worst < 1e-10

    @pytest.mark.parametrize("z,w", [(0.0, 1.0), (complex(-0.5, 1.0), 1.0), (1.0, -2.0)])
    def test_beta_left_half_rejected(self, z, w):
        with pytest.raises(DomainError, match="Re z > 0 and Re w > 0"):
            beta_integral(z, w, self.SPEC)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            QuadratureSpec(relative_tolerance=0.0)

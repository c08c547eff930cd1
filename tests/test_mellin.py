import math

import mpmath
import pytest

from gammalab.errors import ConvergenceError, DomainError
from gammalab.mellin import (
    catalog_entry,
    catalog_ids,
    mellin_transform,
    psi_eval,
    rmt_closed_form,
    rmt_residual,
)


class TestCatalog:
    def test_ids(self):
        assert catalog_ids() == ["one", "geom:a", "exp", "log1p"]

    def test_lookup(self):
        assert catalog_entry("one").id == "one"
        assert catalog_entry("exp").eta == math.inf
        assert catalog_entry("geom:2").id == "geom:2"
        assert catalog_entry("geom:0.5").q == pytest.approx(math.log(0.5))

    def test_unknown_tag(self):
        with pytest.raises(DomainError):
            catalog_entry("zeta")

    def test_geometric_ratio_must_be_finite(self):
        with pytest.raises(DomainError, match="must be finite"):
            catalog_entry("geom:inf")
        with pytest.raises(DomainError, match="must be > 0"):
            catalog_entry("geom:nan")
        with pytest.raises(DomainError):
            catalog_entry("geom:xyz")
        with pytest.raises(DomainError):
            catalog_entry("geom:-1")


# psi in closed form, written here independently of the catalog's log psi(e^u)
_PSI = {
    "one": lambda x: 1.0 / (1.0 + x),
    "geom:2": lambda x: 1.0 / (1.0 + 2.0 * x),
    "exp": lambda x: math.exp(-x),
    "log1p": lambda x: math.log1p(x) / x,
}


class TestPsiEval:
    @pytest.mark.parametrize("tag", ["one", "exp", "log1p", "geom:2"])
    def test_series_matches_closed_form_inside_disc(self, tag):
        spec = catalog_entry(tag)
        radius = math.exp(-spec.q)
        for k in range(1, 21):  # 20 points spread over the convergence disc
            x = 0.85 * radius * k / 20.0
            series = psi_eval(spec, x)
            for closed in (_PSI[tag](x), math.exp(spec.log_psi_of_exp(math.log(x)))):
                assert series == pytest.approx(closed, rel=1e-10, abs=1e-14)

    def test_beyond_disc_uses_closed_form(self):
        spec = catalog_entry("one")
        assert psi_eval(spec, 50.0) == math.exp(spec.log_psi_of_exp(math.log(50.0)))
        assert psi_eval(spec, 50.0) == pytest.approx(1.0 / 51.0, rel=1e-15)

    def test_rejects_nonpositive_x(self):
        spec = catalog_entry("one")
        with pytest.raises(DomainError):
            psi_eval(spec, 0.0)
        with pytest.raises(DomainError):
            psi_eval(spec, -1.0)


class TestMellinTransform:
    def test_one_is_reflection_integral(self):
        spec = catalog_entry("one")
        for s in (0.2, 0.5, 0.8):
            want = math.pi / math.sin(math.pi * s)
            got = mellin_transform(spec, s)
            assert abs(got - want) / want < 1e-10

    def test_exp_is_gamma(self):
        spec = catalog_entry("exp")
        for s in (0.3, 1.0, 2.5, 4.0):
            got = mellin_transform(spec, s)
            want = math.gamma(s)
            assert abs(got - want) / want < 1e-10

    def test_log1p_against_direct_quadrature(self):
        spec = catalog_entry("log1p")
        s = 0.5
        got = mellin_transform(spec, s)
        # default-precision quad only reaches ~1e-8 here; push the oracle well
        # below the tolerance under test
        with mpmath.workdps(40):
            want = float(
                mpmath.quad(
                    lambda x: x ** (s - 1) * mpmath.log1p(x) / x, [0, 1, mpmath.inf]
                )
            )
        assert abs(got - want) / abs(want) < 1e-9

    def test_geometric_rescaling(self):
        # integral of x^{s-1}/(1+ax) is a^{-s} times the a = 1 case
        a, s = 3.0, 0.4
        got = mellin_transform(catalog_entry(f"geom:{a}"), s)
        want = a**-s * math.pi / math.sin(math.pi * s)
        assert abs(got - want) / want < 1e-9

    def test_near_strip_edge(self):
        # decay is e^{-0.01|u|} on one side: the window must grow far past
        # where e^u overflows a double
        spec = catalog_entry("one")
        s = 0.99
        want = math.pi / math.sin(math.pi * s)
        got = mellin_transform(spec, s)
        assert abs(got - want) / want < 1e-8

    @pytest.mark.parametrize("s,end", [(0.006, "near 0"), (0.994, "at infinity")])
    def test_tails_at_the_window_cap(self, s, end):
        # s within 0.006 of an end of phi = 1's strip (0, 1): the slow tail
        # falls below tolerance only at the cap |u| = 4000; 0.001 closer, not
        # even there
        spec = catalog_entry("one")
        want = math.pi / math.sin(math.pi * s)
        assert abs(mellin_transform(spec, s) - want) / want < 1e-9
        with pytest.raises(ConvergenceError, match=end):
            mellin_transform(spec, s - 0.001 if s < 0.5 else s + 0.001)

    def test_strip_enforced(self):
        spec = catalog_entry("one")
        with pytest.raises(DomainError):
            mellin_transform(spec, 0.0)
        with pytest.raises(DomainError):
            mellin_transform(spec, 1.0)
        with pytest.raises(DomainError):
            mellin_transform(spec, 1.7)


class TestResidual:
    @pytest.mark.parametrize("tag", ["one", "geom:2", "exp", "log1p"])
    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
    def test_catalog_residuals_small(self, tag, s):
        assert rmt_residual(catalog_entry(tag), s) < 1e-7

    def test_closed_form_phi_one_row(self):
        spec = catalog_entry("one")
        for s in (0.25, 0.6):
            assert rmt_closed_form(spec, s) == math.pi / math.sin(math.pi * s)

    def test_integer_s_rejected(self):
        with pytest.raises(DomainError):
            rmt_residual(catalog_entry("exp"), 2.0)

    @pytest.mark.parametrize("s", [1.0, 2.0, 3])
    def test_closed_form_rejects_integer_s(self, s):
        with pytest.raises(DomainError, match="must not be an integer"):
            rmt_closed_form(catalog_entry("exp"), s)

    @pytest.mark.parametrize("f", [rmt_closed_form, rmt_residual])
    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_non_finite_s_is_domain_error(self, f, s):
        # the documented error, before any int(s) test can fail on it
        with pytest.raises(DomainError, match="s must be finite"):
            f(catalog_entry("exp"), s)

    @pytest.mark.parametrize("f", [rmt_closed_form, rmt_residual])
    @pytest.mark.parametrize("tag,s", [("exp", 200.5), ("exp", 180.5), ("exp", -200.5), ("geom:2", -2000.5)])
    def test_phi_past_the_floating_range_is_overflow(self, f, tag, s):
        # exp's phi(-s) = 1 / Gamma(1 - s) divided by an underflowed 0 at
        # s = 200.5, and by a subnormal at 180.5
        with pytest.raises(OverflowError):
            f(catalog_entry(tag), s)

    @pytest.mark.parametrize("tag,s", [("geom:2", 2000.5), ("geom:0.5", -2000.5)])
    def test_phi_underflowing_to_zero_is_overflow(self, tag, s):
        # phi(-s) = 2**-2000.5 is 0.0 in floats: a closed form of 0.0 would
        # have no digits
        with pytest.raises(OverflowError, match="leaves the floating range"):
            rmt_closed_form(catalog_entry(tag), s)

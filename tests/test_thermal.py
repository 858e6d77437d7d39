"""Temperature-difference observables and low-temperature behaviour."""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import casimir as cs
from casimir import lifshitz, thermal
from casimir.errors import (
    ApplicabilityWarning,
    BracketError,
    DomainError,
    FitError,
)

MICRON = 1e-6


class TestPressureDifference:
    def test_equal_temperatures_give_exact_zero(self, gold):
        assert cs.pressure_difference(1e-6, gold, 300.0, 300.0).delta == 0.0

    def test_millipascal_scale_at_small_gap(self, gold):
        d = cs.pressure_difference(0.4e-6, gold)
        assert 1e-4 < d.delta < 1e-2  # 0.1 .. 10 mPa

    def test_swapping_temperatures_negates(self, gold):
        fwd = cs.pressure_difference(1e-6, gold, 350.0, 300.0).delta
        rev = cs.pressure_difference(1e-6, gold, 300.0, 350.0).delta
        assert rev == -fwd

    def test_magnitude_convention(self, gold):
        d = cs.pressure_difference(1e-6, gold)
        assert d.delta == abs(d.raw_low) - abs(d.raw_high)
        assert d.T_low == 300.0 and d.T_high == 350.0

    @pytest.mark.parametrize("a_um", [0.3, 1.0, 2.0])
    def test_positive_at_small_gaps(self, gold, a_um):
        assert cs.pressure_difference(a_um * MICRON, gold).delta > 0.0

    @pytest.mark.parametrize("a_um", [3.2, 4.0, 5.0])
    def test_negative_at_large_gaps(self, gold, a_um):
        assert cs.pressure_difference(a_um * MICRON, gold).delta < 0.0

    def test_nearly_zero_at_crossover(self, gold):
        near = abs(cs.pressure_difference(2.8e-6, gold).delta)
        away = abs(cs.pressure_difference(2.0e-6, gold).delta)
        assert near < 1e-3 * away

    def test_plasma_model_has_opposite_sign(self, gold):
        # the dissipationless alternative predicts the reverse ordering
        assert cs.pressure_difference(1e-6, cs.Plasma()).delta < 0.0
        assert cs.pressure_difference(1e-6, gold).delta > 0.0

    def test_rejects_bad_gap(self, gold):
        with pytest.raises(DomainError):
            cs.pressure_difference(0.0, gold)


class TestFreeEnergyDifference:
    def test_equal_temperatures_give_exact_zero(self, gold):
        assert cs.free_energy_difference(1e-6, gold, 320.0, 320.0).delta == 0.0

    @pytest.mark.parametrize("a_um", [0.3, 0.6, 1.0])
    def test_positive_at_small_gaps(self, gold, a_um):
        assert cs.free_energy_difference(a_um * MICRON, gold).delta > 0.0

    def test_derivative_consistency_with_pressure_difference(self, gold):
        # d(Delta F)/da = -Delta P, central differences at a = 1 um
        a = 1e-6
        h = 1e-3 * a
        dF = (cs.free_energy_difference(a + h, gold).delta
              - cs.free_energy_difference(a - h, gold).delta) / (2.0 * h)
        dP = cs.pressure_difference(a, gold).delta
        assert dF == pytest.approx(-dP, rel=1e-3, abs=0.0)


class TestBothDifferences:
    """The CLI's diff: P and F of each temperature as one stacked sum."""

    @pytest.mark.parametrize("a_um", [0.3, 1.0, 5.0])
    @pytest.mark.parametrize("bg", [False, True], ids=["constant_nu", "bg"])
    def test_equal_to_the_public_differences(self, gold, gold_bg, a_um, bg):
        model = gold_bg if bg else gold
        a = a_um * MICRON
        assert thermal._differences([a], model, 350.0, 300.0, cs.DEFAULT_QUAD, (
            lifshitz._PRESSURE, lifshitz._FREE_ENERGY)) == [[
                cs.pressure_difference(a, model), cs.free_energy_difference(a, model)]]


class TestOneDifferencePath:
    """pressure_difference and free_energy_difference: one stacked sum over
    (T1, T2), equal to the two separate sums bit for bit."""

    @staticmethod
    def count_integrals(monkeypatch):
        """List that gains one entry per stacked sum (_sum_modes call)."""
        calls, sum_modes = [], lifshitz._sum_modes

        def counting(*args, **kwargs):
            calls.append(1)
            return sum_modes(*args, **kwargs)

        monkeypatch.setattr(lifshitz, "_sum_modes", counting)
        return calls

    @pytest.mark.parametrize("pair", [(350.0, 300.0), (300.0, 1.5), (10.0, 2.0)])
    @pytest.mark.parametrize("name", ["gold", "bg", "plasma", "ideal"])
    def test_one_stacked_sum_equals_the_separate_sums(self, gold, gold_bg, monkeypatch,
                                                      name, pair):
        model = {"gold": gold, "bg": gold_bg, "plasma": cs.Plasma(), "ideal": cs.Ideal()}[name]
        T1, T2 = pair
        calls = self.count_integrals(monkeypatch)
        for a in (0.05e-6, 0.5e-6, 5e-6):
            for difference, value in (
                    (cs.pressure_difference, lambda cfg: cs.total_pressure(cfg, model).total),
                    (cs.free_energy_difference, lambda cfg: cs.free_energy(cfg, model))):
                calls.clear()
                result = difference(a, model, T1, T2)
                # plasma's m = 0 remainders at each T are parts of the one stack
                assert len(calls) == 1
                v1, v2 = (value(cs.ThermalGapConfig(T=T, a=a)) for T in pair)
                assert result == thermal.DifferenceResult(
                    a=a, T_low=T2, T_high=T1, delta=abs(v2) - abs(v1), raw_low=v2, raw_high=v1)

    def test_sign_change_gap_makes_one_stacked_sum_per_gap(self, gold, monkeypatch):
        calls = self.count_integrals(monkeypatch)
        assert cs.sign_change_gap(gold) == 2.7994384765625e-06
        assert len(calls) == 13  # 2 bracket ends and 11 bisection steps


class TestSignChangeGap:
    def test_crossover_location(self, gold):
        a_star = cs.sign_change_gap(gold, bracket=(2.0e-6, 3.5e-6))
        assert 2.5e-6 <= a_star <= 3.1e-6
        aT = a_star * cs.K_B * 300.0 / (cs.HBAR * cs.C)
        assert aT == pytest.approx(0.37, abs=0.04)

    def test_bracket_without_sign_change(self, gold):
        with pytest.raises(BracketError):
            cs.sign_change_gap(gold, bracket=(0.3e-6, 0.5e-6))

    def test_bad_bracket(self, gold):
        with pytest.raises(DomainError):
            cs.sign_change_gap(gold, bracket=(3e-6, 2e-6))

    def test_bisection_tolerance(self, gold):
        a1 = cs.sign_change_gap(gold, bracket=(2.0e-6, 3.5e-6), xtol=1e-9)
        a2 = cs.sign_change_gap(gold, bracket=(2.2e-6, 3.3e-6), xtol=1e-9)
        assert abs(a1 - a2) < 2e-9

    def test_equal_temperatures_have_no_sign_change(self, gold):
        # the difference is identically 0: one sign at both ends
        with pytest.raises(BracketError, match=r"same sign \(\+0\.000e\+00, \+0\.000e\+00\)"):
            cs.sign_change_gap(gold, T1=300.0, T2=300.0)

    @staticmethod
    def stub_difference(monkeypatch, delta):
        """List of the gaps at which sign_change_gap reads the difference
        delta(a), which replaces pressure_difference; each call is bounded."""
        calls = []

        def stub(a, model, T1, T2, quad):
            calls.append(a)
            assert len(calls) < 100, "bisection does not terminate"
            return SimpleNamespace(delta=delta(a))

        monkeypatch.setattr(thermal, "pressure_difference", stub)
        return calls

    @pytest.mark.parametrize("xtol", [1e-30, 0.0, -1.0, float("nan"), float("inf")])
    def test_terminates_for_any_xtol(self, monkeypatch, xtol):
        # a difference that is never exactly 0 and changes sign at 2.7 um;
        # about 52 halvings separate 1.5 um from the float spacing there
        calls = self.stub_difference(monkeypatch, lambda a: 1.0 if a < 2.7e-6 else -1.0)
        if 0 < xtol < np.inf:
            assert abs(cs.sign_change_gap(None, xtol=xtol) - 2.7e-6) < 1e-21
        else:
            with pytest.raises(DomainError, match="xtol"):
                cs.sign_change_gap(None, xtol=xtol)
        assert len(calls) < 100

    @pytest.mark.parametrize("xtol", [1e-9, 1e-30])
    @pytest.mark.parametrize("zero", [2.0e-6, 2.75e-6, 3.5e-6], ids=["a_lo", "midpoint", "a_hi"])
    def test_an_exact_zero_is_found_like_any_root(self, monkeypatch, zero, xtol):
        # a difference that is exactly 0 at a bracket end or at the first
        # midpoint of the default bracket, and of one sign on each side
        calls = self.stub_difference(
            monkeypatch, lambda a: 0.0 if a == zero else (1.0 if a < zero else -1.0))
        assert abs(cs.sign_change_gap(None, xtol=xtol) - zero) <= max(xtol, 1e-21)
        assert len(calls) < 100


class TestLowTQuadraticFit:
    GRID = [50.0, 75.0, 100.0, 125.0, 150.0]

    def test_grid_validation(self, gold):
        with pytest.raises(DomainError):
            cs.lowT_quadratic_fit(1e-6, gold, [50.0, 100.0, 150.0])
        with pytest.raises(DomainError):
            cs.lowT_quadratic_fit(1e-6, gold, [50.0, 75.0, 100.0, 125.0, -1.0])

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_bad_temperature_rejected_before_any_sum(self, gold, monkeypatch, bad):
        calls = []
        monkeypatch.setattr(lifshitz, "_sum_modes", lambda *args: calls.append(args))
        with pytest.raises(DomainError, match="temperature must be finite"):
            cs.lowT_quadratic_fit(1e-6, gold, [50.0, 75.0, 100.0, 125.0, bad])
        assert calls == []

    def test_ideal_metal_is_not_quadratic(self):
        # leading low-T corrections for unit reflectivity are cubic/quartic
        with pytest.raises(FitError):
            cs.lowT_quadratic_fit(1e-6, cs.Ideal(), self.GRID)

    def test_50_to_150K_window_is_linear_not_quadratic(self, gold):
        # In this window the Matsubara spacing (zeta_1 = 4e13..1.2e14 rad/s)
        # is far above the TE crossover scale nu c^2/(omega_p a)^2, so the
        # free energy is still in its linear-in-T crossover regime and the
        # quadratic fit is rejected.  The true quadratic law is checked
        # through the zeta -> 0 slope of the TE mode function (see the
        # acceptance suite).
        with pytest.raises(FitError) as excinfo:
            cs.lowT_quadratic_fit(1e-6, gold, self.GRID)
        assert excinfo.value.residual > 1e-3

    def test_fit_recovers_synthetic_quadratic_data(self, gold, monkeypatch):
        # bypass the engine: feed exactly quadratic F(T) through the fit
        import casimir.thermal as thermal
        from casimir.constants import free_energy_si_to_ev3, temperature_to_ev

        coeff_ev = 18.6249
        f0_nat = -1.0532e-4

        def fake_sums(gaps, temps, model, quad, observables):
            assert observables == (lifshitz._FREE_ENERGY,)
            return [[[((f0_nat + coeff_ev * temperature_to_ev(T) ** 2)
                       / free_energy_si_to_ev3(1.0), 2, None)] for T in temps] for _ in gaps]

        monkeypatch.setattr(thermal, "_grid_sums", fake_sums)
        fit = thermal.lowT_quadratic_fit(1e-6, gold, self.GRID)
        assert fit.coeff == pytest.approx(coeff_ev, rel=1e-10)
        assert fit.residual < 1e-10
        assert free_energy_si_to_ev3(fit.F0) == pytest.approx(f0_nat, rel=1e-9)


class TestIdealPressureLowT:
    def test_zero_temperature_closed_form(self):
        a = 1e-6
        assert cs.ideal_pressure_lowT(a, 0.0) == -(
            np.pi**2 * cs.HBAR * cs.C / (240.0 * a**4))

    def test_ten_kelvin_value(self):
        assert cs.ideal_pressure_lowT(1e-6, 10.0) == pytest.approx(
            -1.3001257749696647e-3, rel=1e-12)

    def test_matches_lifshitz_sum_with_unit_reflectivity(self):
        engine = cs.total_pressure(cs.ThermalGapConfig(T=10.0, a=1e-6), cs.Ideal())
        assert engine.total == pytest.approx(cs.ideal_pressure_lowT(1e-6, 10.0),
                                             rel=0.01)

    def test_warns_outside_regime(self):
        with pytest.warns(ApplicabilityWarning):
            cs.ideal_pressure_lowT(1e-6, 500.0)  # aT = 0.218

    @pytest.mark.parametrize("T", [np.inf, np.nan])
    def test_rejects_non_finite_temperature(self, T):
        # T = inf used to return -inf, and nan nan
        with pytest.raises(DomainError, match="temperature must be finite and >= 0"):
            cs.ideal_pressure_lowT(1e-6, T)

    @pytest.mark.parametrize("a, T, name", [(1e-6, 1e300, r"aT = a k_B T/\(hbar c\) = 4\.367"),
                                            (1e80, 1e-300, r"gap width = 1e\+80"),
                                            (np.float64(1e80), 1e-300, r"gap width = 1e\+80")],
                             ids=["aT", "gap-width", "gap-width-numpy"])
    def test_overflowing_power_is_a_domain_error(self, a, T, name):
        # aT^4 at T = 1e300 K (after the warning on aT), a^4 at a = 1e80 m,
        # also as a NumPy float, whose power would be inf with a warning
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ApplicabilityWarning)
            with pytest.raises(DomainError, match=name + r".*: its power 4 overflows a float"):
                cs.ideal_pressure_lowT(a, T)

    @pytest.mark.parametrize("a, T", [(1e-100, 0.0), (1e-85, 0.0), (1e-100, 300.0)])
    def test_underflowing_gap_power_is_a_domain_error(self, a, T):
        # a^4 is 0 here, and 240 a^4 the denominator
        with pytest.raises(DomainError, match=r"gap width = 1e-(100|85): its power 4 underflows"):
            cs.ideal_pressure_lowT(a, T)

    def test_underflowing_temperature_power_gives_the_zero_temperature_value(self):
        # (aT)^4 only adds to 1, so its underflow costs nothing
        assert cs.ideal_pressure_lowT(1e-6, 1e-100) == cs.ideal_pressure_lowT(1e-6, 0.0)

    def test_warning_gives_aT_to_three_digits(self):
        aT_quarter = 0.25 * cs.HBAR * cs.C / (1e-6 * cs.K_B)  # the T of aT = 0.25 at 1 um
        with pytest.warns(ApplicabilityWarning) as record:
            cs.ideal_pressure_lowT(1e-6, aT_quarter)
        assert str(record[0].message) == ("ideal_pressure_lowT called at aT = 0.25; "
                                          "the asymptotic form assumes aT << 1")
        with pytest.warns(ApplicabilityWarning) as record, pytest.raises(DomainError):
            cs.ideal_pressure_lowT(1e-6, 1e300)  # aT = 4.37e+296, whose power 4 overflows
        assert "aT = 4.37e+296;" in str(record[0].message)
        assert len(str(record[0].message)) < 100

    def test_silent_inside_regime(self):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cs.ideal_pressure_lowT(1e-6, 300.0)  # aT = 0.131


class TestDominantMode:
    def test_one_micron_room_temperature(self):
        assert cs.dominant_mode(1e-6, 300.0) == 1

    def test_three_micron_is_zero_mode_regime(self):
        assert cs.dominant_mode(3e-6, 300.0) == 0

    def test_exact_boundary(self):
        # aT = 1/(2 pi) makes the estimate exactly 1
        a = cs.HBAR * cs.C / (2.0 * np.pi * cs.K_B * 300.0)
        assert cs.dominant_mode(a, 300.0) == 1

    def test_validation(self):
        with pytest.raises(DomainError):
            cs.dominant_mode(-1e-6, 300.0)
        for bad in (np.inf, np.nan):  # a = inf used to give mode 0
            with pytest.raises(DomainError, match="gap width must be finite"):
                cs.dominant_mode(bad, 300.0)
            with pytest.raises(DomainError, match="temperature must be finite"):
                cs.dominant_mode(1e-6, bad)


class TestTemperatureStructure:
    def test_force_non_monotonic_in_temperature(self, gold):
        # |P| decreases with T below the aT ~ 0.35 turning point and
        # increases above it
        def mag(a, T):
            return abs(cs.total_pressure(cs.ThermalGapConfig(T=T, a=a), gold).total)

        assert mag(2e-6, 250.0) > mag(2e-6, 300.0)
        assert mag(3e-6, 500.0) > mag(3e-6, 400.0)

    @pytest.mark.parametrize("a_um", [2.0, 3.0])
    def test_bloch_gruneisen_insensitivity_at_moderate_gaps(self, gold, gold_bg, a_um):
        # nu(T) vs constant nu changes the difference observable by < 2%
        # here; below ~1 um the difference grows (measured: 4% at 1 um,
        # 12% at 0.5 um, 39% at 0.2 um), so the paper-level claim only
        # holds for moderate and large gaps.
        a = a_um * MICRON
        d_const = cs.pressure_difference(a, gold).delta
        d_bg = cs.pressure_difference(a, gold_bg).delta
        assert abs(d_bg - d_const) / abs(d_const) < 0.02

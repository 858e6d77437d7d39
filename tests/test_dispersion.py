"""Permittivity models, relaxation frequency, and zero-mode diagnostics."""

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad
from scipy.special import zeta

import casimir as cs
from casimir import dispersion
from casimir.constants import EV_TO_RAD_S
from casimir.dispersion import _bg_integral, drude_spectral_function
from casimir.errors import (
    ConvergenceError,
    DomainError,
    TableFormatError,
    TableRangeError,
    UnsupportedModelError,
)

ZETA_1_300K = 2.468e14  # rad/s, first Matsubara frequency at 300 K


class TestDrude:
    def test_room_temperature_value(self, gold):
        # 1 + omega_p^2/(zeta(zeta+nu)), high-precision reference
        assert cs.eps_drude(ZETA_1_300K, gold) == pytest.approx(
            2526.3652081351805, rel=1e-12)

    def test_high_frequency_limit(self, gold):
        eps = cs.eps_drude(1e20, gold)
        assert 0.0 < eps - 1.0 < 5e-8

    def test_decay_rate_between_linear_and_quadratic(self, gold):
        # eps - 1 goes like 1/(zeta(zeta+nu)): strictly faster than 1/zeta,
        # strictly slower than 1/zeta^2
        for z in np.geomspace(1e10, 1e18, 17):
            em1_2z = cs.eps_drude(2.0 * z, gold) - 1.0
            em1_z = cs.eps_drude(z, gold) - 1.0
            assert em1_2z < em1_z / 2.0
            assert em1_2z > em1_z / 4.0

    def test_monotone_decreasing(self, gold):
        zs = np.geomspace(1e9, 1e19, 200)
        eps = cs.eps_drude(zs, gold)
        assert np.all(np.diff(eps) < 0)
        assert np.all(eps > 1.0)

    def test_domain_errors(self, gold):
        with pytest.raises(DomainError):
            cs.eps_drude(0.0, gold)
        with pytest.raises(DomainError):
            cs.eps_drude(-1e14, gold)
        with pytest.raises(DomainError):
            cs.eps_drude(1e14, gold, T=-3.0)

    def test_unit_conversion_roundtrip(self):
        # eV -> rad/s -> eV to 1 part in 1e12
        from casimir.constants import ev_to_rad_s, rad_s_to_ev
        assert EV_TO_RAD_S == pytest.approx(1.519267e15, rel=1e-6)
        for x in (0.035, 9.0, 123.456):
            assert rad_s_to_ev(ev_to_rad_s(x)) == pytest.approx(x, rel=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            cs.Drude(omega_p_ev=-9.0)
        with pytest.raises(DomainError):
            cs.Drude(nu_ref_ev=0.0)
        # omega_p = inf used to fail only in the sum, as a NaN ConvergenceError
        for bad in (np.inf, np.nan):
            with pytest.raises(DomainError, match="plasma frequency must be finite"):
                cs.Drude(omega_p_ev=bad)
            with pytest.raises(DomainError, match="relaxation frequency must be finite"):
                cs.Drude(nu_ref_ev=bad)


class TestPlasma:
    def test_eps_two_at_plasma_frequency(self):
        model = cs.Plasma(omega_p_ev=9.0)
        assert cs.eps_plasma(model.omega_p_rad_s, 9.0) == pytest.approx(2.0, rel=1e-14)

    def test_room_temperature_value(self):
        assert cs.eps_plasma(ZETA_1_300K, 9.0) == pytest.approx(
            3070.4684516426935, rel=1e-12)

    def test_exceeds_drude_everywhere(self, gold):
        zs = np.geomspace(1e10, 1e18, 50)
        assert np.all(cs.eps_plasma(zs, 9.0) > cs.eps_drude(zs, gold))

    def test_domain_error(self):
        with pytest.raises(DomainError):
            cs.eps_plasma(0.0, 9.0)
        for bad in (np.inf, np.nan):
            with pytest.raises(DomainError, match="plasma frequency must be finite"):
                cs.Plasma(omega_p_ev=bad)


@pytest.mark.parametrize("eps", [
    lambda z: cs.eps_drude(z, cs.gold_drude()), lambda z: cs.gold_drude().eps(z),
    lambda z: cs.eps_plasma(z, 9.0), lambda z: cs.Plasma().eps(z),
], ids=["eps_drude", "Drude.eps", "eps_plasma", "Plasma.eps"])
@pytest.mark.parametrize("zeta", [np.inf, np.nan, [1e14, np.inf], [np.nan, 1e14]],
                         ids=["inf", "nan", "array-inf", "array-nan"])
def test_non_finite_zeta_rejected(eps, zeta):
    # an infinite zeta used to give eps = 1.0 exactly
    with pytest.raises(DomainError, match="permittivity must be finite and > 0"):
        eps(zeta)


class TestScalarMatchesArray:
    """A scalar call gives the bits of the array value the engine integrates."""

    CFG = cs.ThermalGapConfig(300.0, 1e-6)

    def _assert_bitwise(self, f, xs):
        arr = f(xs)
        assert all(f(float(x)) == v for x, v in zip(xs, arr))

    def test_reflection_pair(self):
        # with ``** 2``, 4 of these 2,001 y gave a scalar 1 ulp off the array
        ys = np.linspace(self.CFG.gamma, 20.0, 2001)
        self._assert_bitwise(lambda y: cs.reflection_pair(y, 1, self.CFG, 2526.0).A, ys)
        self._assert_bitwise(lambda y: cs.reflection_pair(y, 1, self.CFG, 2526.0).B, ys)

    def test_plasma_zero_mode(self):
        ys = np.linspace(0.0, 20.0, 2001)
        self._assert_bitwise(
            lambda y: cs.zero_frequency_reflection(cs.Plasma(), y, self.CFG).B, ys)

    def test_eps_plasma(self):
        # with ``** 2``, 1 of these 2,001 zeta gave a scalar 1 ulp off the array
        self._assert_bitwise(lambda z: cs.eps_plasma(z, 9.0), np.geomspace(1e8, 1e17, 2001))


class TestTabulated:
    def _drude_table(self, gold, n=240):
        zs = np.geomspace(1e12, 1e18, n)
        return cs.PermittivityTable(zs, cs.eps_drude(zs, gold))

    def test_exact_at_nodes(self, gold):
        table = self._drude_table(gold)
        for i in (0, 57, 120, 239):
            assert cs.eps_tabulated(table.zeta[i], table) == table.eps_values[i]

    def test_loglog_midpoint(self):
        # log-log midpoint of (1e14, 101) and (1e16, 2): eps - 1 = 10
        table = cs.PermittivityTable(np.array([1e14, 1e16]), np.array([101.0, 2.0]))
        assert cs.eps_tabulated(1e15, table) == pytest.approx(11.0, rel=1e-12)

    def test_no_extrapolation(self):
        table = cs.PermittivityTable(np.array([1e14, 1e16]), np.array([101.0, 2.0]))
        with pytest.raises(TableRangeError):
            cs.eps_tabulated(0.5e14, table)
        with pytest.raises(TableRangeError):
            cs.eps_tabulated(2e16, table)

    def test_nan_frequency_is_outside_the_table(self):
        # a NaN used to interpolate to eps = nan instead of raising
        model = cs.Tabulated(cs.PermittivityTable(np.array([1e14, 1e16]),
                                                  np.array([101.0, 2.0])))
        for zeta in (np.nan, np.array([1e15, np.nan])):
            with pytest.raises(TableRangeError):
                cs.eps_tabulated(zeta, model.table)
            with pytest.raises(TableRangeError):
                model.eps(zeta)

    def test_monotone_between_monotone_nodes(self, gold):
        table = self._drude_table(gold, n=60)
        zs = np.geomspace(table.zeta_min, table.zeta_max, 997)
        eps = cs.eps_tabulated(zs, table)
        assert np.all(np.diff(eps) <= 0)

    def test_tracks_generating_model(self, gold):
        table = self._drude_table(gold)
        zs = np.geomspace(2e12, 5e17, 300)
        rel = np.abs(cs.eps_tabulated(zs, table) / cs.eps_drude(zs, gold) - 1.0)
        assert rel.max() < 1e-3

    def test_validation(self):
        with pytest.raises(DomainError):
            cs.PermittivityTable(np.array([1e14]), np.array([5.0]))
        with pytest.raises(DomainError):
            cs.PermittivityTable(np.array([1e14, 1e13]), np.array([5.0, 4.0]))
        with pytest.raises(DomainError):
            cs.PermittivityTable(np.array([1e13, 1e14]), np.array([5.0, 0.9]))
        for bad in (np.inf, np.nan):
            with pytest.raises(DomainError, match="node 1: zeta must be finite"):
                cs.PermittivityTable(np.array([1e13, bad]), np.array([5.0, 4.0]))
            with pytest.raises(DomainError, match="node 0: epsilon must be finite"):
                cs.PermittivityTable(np.array([1e13, 1e14]), np.array([bad, 4.0]))
        with pytest.raises(DomainError):
            cs.Tabulated(cs.PermittivityTable(np.array([1e13, 1e14]),
                                              np.array([5.0, 4.0])),
                         zero_mode_class="metallic")


class TestTableFile:
    def _write(self, tmp_path, text):
        path = tmp_path / "eps.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_good_file(self, tmp_path):
        path = self._write(tmp_path,
                           "zeta_rad_per_s,epsilon\n1e13,900.0\n1e14,101.0\n1e15,3.5\n")
        table = cs.load_permittivity_table(path)
        assert len(table.zeta) == 3
        assert cs.eps_tabulated(1e14, table) == 101.0

    def test_byte_order_mark_ignored(self, tmp_path):
        # a spreadsheet export starts with U+FEFF, which used to fail the header check
        text = "zeta_rad_per_s,epsilon\n1e13,900.0\n1e14,101.0\n"
        plain = cs.load_permittivity_table(self._write(tmp_path, text))
        bom = tmp_path / "bom.csv"
        bom.write_text(text, encoding="utf-8-sig")
        table = cs.load_permittivity_table(bom)
        assert np.array_equal(table.zeta, plain.zeta)
        assert np.array_equal(table.eps_values, plain.eps_values)

    def test_bad_header(self, tmp_path):
        path = self._write(tmp_path, "zeta,eps\n1e13,900\n1e14,101\n")
        with pytest.raises(TableFormatError, match="line 1"):
            cs.load_permittivity_table(path)

    def test_non_monotone_reports_line(self, tmp_path):
        path = self._write(tmp_path,
                           "zeta_rad_per_s,epsilon\n1e13,900\n1e15,101\n1e14,50\n")
        with pytest.raises(TableFormatError, match="line 4"):
            cs.load_permittivity_table(path)

    def test_eps_below_one_reports_line(self, tmp_path):
        path = self._write(tmp_path,
                           "zeta_rad_per_s,epsilon\n1e13,900\n1e14,0.5\n")
        with pytest.raises(TableFormatError, match="line 3"):
            cs.load_permittivity_table(path)

    @pytest.mark.parametrize("row, reason", [("1e13,inf", "epsilon must be finite"),
                                             ("nan,5", "zeta must be finite")])
    def test_non_finite_reports_line(self, tmp_path, row, reason):
        # both rows used to pass the per-line checks
        path = self._write(tmp_path, f"zeta_rad_per_s,epsilon\n1e12,900\n{row}\n")
        with pytest.raises(TableFormatError, match=f"line 3: {reason}"):
            cs.load_permittivity_table(path)

    def test_non_numeric_reports_line(self, tmp_path):
        path = self._write(tmp_path,
                           "zeta_rad_per_s,epsilon\n1e13,900\nhuge,101\n")
        with pytest.raises(TableFormatError, match="line 3"):
            cs.load_permittivity_table(path)


class TestBlochGruneisen:
    def test_reference_point_exact(self):
        bg = cs.BlochGruneisen()  # theta_D = 170 K, 35.6 meV at 300 K
        assert cs.nu_bloch_gruneisen(300.0, bg) == 0.0356

    def test_350K_matches_published_value(self):
        bg = cs.BlochGruneisen()
        assert cs.nu_bloch_gruneisen(350.0, bg) == pytest.approx(0.0418, abs=5e-4)

    def test_deep_freeze_suppression(self):
        bg = cs.BlochGruneisen()
        assert cs.nu_bloch_gruneisen(1.0, bg) < 1e-6 * bg.nu_ref_ev

    def test_monotone_increasing(self):
        bg = cs.BlochGruneisen()
        nus = [cs.nu_bloch_gruneisen(t, bg) for t in np.linspace(5.0, 600.0, 40)]
        assert all(b > a for a, b in zip(nus, nus[1:]))

    def test_linear_asymptote(self):
        bg = cs.BlochGruneisen()
        for T in (3 * 170.0, 5 * 170.0):
            ratio = cs.nu_bloch_gruneisen(2 * T, bg) / cs.nu_bloch_gruneisen(T, bg)
            assert ratio == pytest.approx(2.0, rel=0.05)

    def test_gold_drude_reports_the_nu_it_uses(self, gold_bg):
        # nu_ref_ev used to keep the constant-model default of 0.035 eV
        assert gold_bg.nu_ref_ev == gold_bg.relaxation.nu(300.0)

    def test_constant_model(self):
        const = cs.ConstantRelaxation(0.035)
        assert cs.nu_bloch_gruneisen(77.0, const) == 0.035
        with pytest.raises(DomainError):
            cs.nu_bloch_gruneisen(-1.0, const)
        for bad in (np.inf, np.nan):
            with pytest.raises(DomainError, match="relaxation frequency must be finite"):
                cs.ConstantRelaxation(bad)
            with pytest.raises(DomainError, match="temperature must be finite"):
                const.nu(bad)

    def test_validation(self):
        with pytest.raises(DomainError):
            cs.BlochGruneisen(theta_d=-170.0)
        with pytest.raises(DomainError):
            cs.BlochGruneisen(t_ref=0.0)
        for theta_d in (np.inf, np.nan):  # inf would divide by zero in nu(T)
            with pytest.raises(DomainError, match="Debye"):
                cs.BlochGruneisen(theta_d=theta_d)
        bg = cs.BlochGruneisen()
        with pytest.raises(DomainError):
            cs.nu_bloch_gruneisen(0.0, bg)
        for bad in (np.inf, np.nan):  # t_ref = inf used to raise a bare ValueError
            with pytest.raises(DomainError, match="reference temperature must be finite"):
                cs.BlochGruneisen(t_ref=bad)
            with pytest.raises(DomainError, match="nu_ref must be finite"):
                cs.BlochGruneisen(nu_ref_ev=bad)
            with pytest.raises(DomainError, match="temperature must be finite"):
                bg.nu(bad)

    @pytest.mark.parametrize("T", [1.0, 3.0, 10.0, 30.0, 77.0, 170.0, 300.0, 1000.0])
    def test_integral_matches_quadpack(self, T):
        u = 170.0 / T
        ref, _ = scipy_quad(lambda x: x**5 / (4.0 * np.sinh(0.5 * x) ** 2),
                            0.0, min(u, 80.0), epsabs=0.0, epsrel=1e-13, limit=200)
        assert _bg_integral(u) == pytest.approx(ref, rel=1e-15)

    def test_integral_large_u_closed_form(self):
        # int_0^inf x^5 e^x/(e^x-1)^2 dx = 5! zeta(5)
        assert _bg_integral(1e3) == pytest.approx(120.0 * zeta(5), rel=1e-15)

    def test_shape_integrated_once_per_temperature(self, monkeypatch):
        model = cs.Drude(relaxation=cs.BlochGruneisen())
        calls = []
        real = dispersion._bg_integral

        def counting(u):
            calls.append(u)
            return real(u)

        monkeypatch.setattr(dispersion, "_bg_integral", counting)
        cs.total_pressure(cs.ThermalGapConfig(T=300.0, a=1e-6), model)
        assert len(calls) <= 1

    def test_shape_cache_leaves_eq_hash_repr(self):
        bg = cs.BlochGruneisen()
        bg.nu(77.0)
        fresh = cs.BlochGruneisen()
        assert bg == fresh and hash(bg) == hash(fresh) and repr(bg) == repr(fresh)


class TestSumRule:
    @pytest.mark.parametrize("gamma", [1.0, 5.317e13, 1e16])
    def test_normalized_to_one(self, gamma):
        assert abs(cs.sum_rule_check(gamma) - 1.0) < 1e-6

    def test_half_weight_below_gamma(self):
        # arctan antiderivative: int_0^gamma p = 1/2
        gamma = 5.317e13
        val, _ = scipy_quad(drude_spectral_function, 0.0, gamma, args=(gamma,))
        assert val == pytest.approx(0.5, abs=1e-6)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            cs.sum_rule_check(0.0)
        for bad in (np.inf, np.nan):
            with pytest.raises(DomainError, match="gamma must be finite"):
                cs.sum_rule_check(bad)


class TestZeroModeProduct:
    def test_drude_limit_vanishes(self, gold):
        assert cs.zero_mode_product(gold) == 0.0

    def test_plasma_limit_is_omega_p_squared(self):
        model = cs.Plasma(omega_p_ev=9.0)
        assert cs.zero_mode_product(model) == pytest.approx(
            model.omega_p_rad_s**2, rel=1e-9)

    def test_tiny_relaxation_still_vanishes(self):
        model = cs.Drude(nu_ref_ev=1e-10)
        assert cs.zero_mode_product(model) == 0.0

    def test_unsupported_models(self):
        # the message names the model's type and what it lacks, not tables' rules
        with pytest.raises(UnsupportedModelError,
                           match="plasma frequency omega_p_rad_s, which Ideal does not"):
            cs.zero_mode_product(cs.Ideal())
        table = cs.PermittivityTable(np.array([1e13, 1e14]), np.array([5.0, 4.0]))
        with pytest.raises(UnsupportedModelError, match="which Tabulated does not"):
            cs.zero_mode_product(cs.Tabulated(table))

    def test_pathological_relaxation_raises(self):
        # nu so small that the decision floor at 1e-8 rad/s is reached first
        model = cs.Drude(nu_ref_ev=1e-16)
        with pytest.raises(ConvergenceError):
            cs.zero_mode_product(model)


def test_ideal_has_no_permittivity():
    with pytest.raises(UnsupportedModelError):
        cs.Ideal().eps(1e14)

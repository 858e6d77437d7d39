"""CLI: configuration validation, serialization, determinism, exit codes."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import casimir as cs
from casimir import cli, geometry, lifshitz, thermal
from casimir.cli import main
from casimir.errors import ApplicabilityWarning, ConvergenceError

MICRON = 1e-6


def run_cli(*args):
    return main(list(args))


def read_csv(path):
    meta, columns, rows = {}, None, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    return meta, columns, rows


class TestPressureCommand:
    def test_single_point_matches_library_bitwise(self, tmp_path, gold):
        out = tmp_path / "p.csv"
        assert run_cli("pressure", "--gap", "1.0", "--out", str(out)) == 0
        meta, columns, rows = read_csv(out)
        assert columns == ["a_um", "pressure_Pa"]
        assert len(rows) == 1
        expected = abs(cs.total_pressure(
            cs.ThermalGapConfig(T=300.0, a=1e-6), gold).total)
        assert rows[0][1] == expected  # full-precision round trip
        assert meta["constants_version"] == "CODATA-2018"
        assert "drude" in meta["model"]

    def test_two_temperature_curves_overlap(self, tmp_path):
        # the 300 K and 350 K magnitude curves coincide on a semilog plot.
        # Pointwise the deviation grows from ~1% at 0.5 um to ~14% at 5 um
        # (the classical large-gap regime has |P| proportional to T), so
        # visual overlap is quantified in log space against the plotted
        # dynamic range.
        out = tmp_path / "p.csv"
        code = run_cli("pressure", "--gap-range", "0.5:5:5", "--log-spacing",
                       "--temp", "300", "--temp", "350", "--out", str(out))
        assert code == 0
        _, columns, rows = read_csv(out)
        assert columns == ["a_um", "pressure_Pa_T300K", "pressure_Pa_T350K"]
        p300 = np.array([r[1] for r in rows])
        p350 = np.array([r[2] for r in rows])
        span = np.log10(p300.max() / p300.min())
        assert np.max(np.abs(np.log10(p350 / p300))) / span < 0.02
        for row in rows:
            if row[0] <= 2.0:
                assert abs(row[2] / row[1] - 1.0) < 0.05

    def test_one_point_range_gives_one_row(self, tmp_path, gold):
        out = tmp_path / "p.csv"
        assert run_cli("pressure", "--gap-range", "1:1:1", "--out", str(out)) == 0
        _, _, rows = read_csv(out)
        assert rows == [[1.0, abs(cs.total_pressure(cs.ThermalGapConfig(T=300.0, a=1e-6),
                                                    gold).total)]]

    def test_unwritable_out_rejected(self, tmp_path, capsys):
        out = tmp_path / "missing" / "p.csv"
        assert run_cli("pressure", "--gap", "1.0", "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith(f"casimir: cannot write {out}: ")

    def test_descending_range_rejected(self, capsys):
        assert run_cli("pressure", "--gap-range", "5:1:3") == 2
        assert "ascending" in capsys.readouterr().err

    def test_missing_gap_rejected(self):
        assert run_cli("pressure") == 2

    def test_empty_range_rejected(self):
        assert run_cli("pressure", "--gap-range", "1:5:0") == 2

    def test_bad_rel_tol_rejected(self):
        assert run_cli("pressure", "--gap", "1.0", "--rel-tol", "0.5") == 2

    def test_zero_threads_rejected(self, capsys):
        assert run_cli("pressure", "--gap", "1.0", "--threads", "0") == 2
        assert "threads" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["pressure", "diff", "modes", "sphere-plate"])
    def test_unreachable_tolerance_exits_three(self, capsys, command):
        assert run_cli(command, "--gap", "1.0", "--rel-tol", "1e-30") == 3
        assert "a = 1 um" in capsys.readouterr().err  # row context

    def test_sweep_failure_names_the_first_gap(self, capsys):
        # every (a, T) of the sweep is one stacked sum; its failure still
        # names the first gap that fails alone, as the row loop did
        assert run_cli("pressure", "--gap-range", "0.5:1:3", "--rel-tol", "1e-30") == 3
        err = capsys.readouterr().err
        assert "at a = 0.5 um: Matsubara modes m = 1.." in err and "T = 300 K" in err

    def test_zero_mode_failure_names_mode_and_temperature(self, capsys):
        # the plasma zero mode is integrated; a lossy metal's has a closed form
        assert run_cli("pressure", "--gap", "1.0", "--rel-tol", "1e-30",
                       "--model", "plasma") == 3
        err = capsys.readouterr().err
        assert "m = 0" in err and "T = 300 K" in err

    def test_row_failure_names_modes_and_temperature(self, capsys):
        assert run_cli("pressure", "--gap", "1.0", "--rel-tol", "1e-30") == 3
        err = capsys.readouterr().err
        assert "m = 1.." in err and "m = 0" not in err and "T = 300 K" in err

    def test_millikelvin_sum_exits_zero(self, tmp_path, gold):
        # 1 mK at 10 nm needs about 8.8e8 Matsubara modes; the rule in m sums them
        out = tmp_path / "p.csv"
        assert run_cli("pressure", "--gap", "0.01", "--temp", "0.001", "--out", str(out)) == 0
        _, _, rows = read_csv(out)
        assert rows[0][1] == abs(cs.total_pressure(
            cs.ThermalGapConfig(T=1e-3, a=1e-8), gold).total)


class TestDiffCommand:
    def test_zero_mode_that_is_not_finite_names_its_first_gap(self, capsys):
        # (omega_p a / c)^2 overflows, so every plasma m = 0 remainder is NaN;
        # the sweep evaluates them together but fails at its first gap and
        # temperature, with no RuntimeWarning
        assert run_cli("diff", "--model", "plasma", "--omega-p", "1e160",
                       "--gap-range", "0.3:5:4") == 3
        err = capsys.readouterr().err
        assert err == ("casimir: computation failed: at a = 0.3 um: Matsubara mode m = 0 at "
                       "T = 350 K, a = 3e-07 m (gamma = 0.288): the row at zeta = 0 rad/s is "
                       "not finite\n")

    def test_sign_change_appears_once(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run_cli("diff", "--gap-range", "0.3:5:12", "--out", str(out)) == 0
        _, columns, rows = read_csv(out)
        assert columns == ["a_um", "delta_F_mPa", "delta_free_energy_J_m2"]
        signs = [r[1] > 0 for r in rows]
        assert signs[0] and not signs[-1]
        assert sum(1 for s1, s2 in zip(signs, signs[1:]) if s1 != s2) == 1

    def test_values_match_library(self, tmp_path, gold):
        out = tmp_path / "d.csv"
        assert run_cli("diff", "--gap", "0.4", "--out", str(out)) == 0
        _, _, rows = read_csv(out)
        d = cs.pressure_difference(0.4e-6, gold)
        assert rows[0][1] == d.delta * 1e3
        f = cs.free_energy_difference(0.4e-6, gold)
        assert rows[0][2] == f.delta

    def test_bloch_gruneisen_model_matches_library(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run_cli("diff", "--nu-model", "bg", "--theta-d", "200", "--nu", "0.04",
                       "--gap", "1.0", "--out", str(out)) == 0
        meta, _, rows = read_csv(out)
        assert meta["model"] == ("drude(omega_p=9 eV, nu_bg(ref=0.04 eV @300K, "
                                 "theta_d=200 K))")
        model = cs.Drude(nu_ref_ev=0.04,
                         relaxation=cs.BlochGruneisen(theta_d=200.0, nu_ref_ev=0.04))
        assert rows[0][1] == cs.pressure_difference(1e-6, model).delta * 1e3
        assert rows[0][2] == cs.free_energy_difference(1e-6, model).delta

    def test_wrong_temperature_count_rejected(self):
        assert run_cli("diff", "--gap", "1.0", "--temp", "300") == 2

    def test_csv_roundtrip_is_bit_exact(self, tmp_path):
        out = tmp_path / "d.csv"
        run_cli("diff", "--gap-range", "0.5:2:3", "--out", str(out))
        _, _, rows = read_csv(out)
        out2 = tmp_path / "d2.csv"
        run_cli("diff", "--gap-range", "0.5:2:3", "--out", str(out2))
        _, _, rows2 = read_csv(out2)
        assert rows == rows2


class TestModesCommand:
    def test_table_row_structure(self, tmp_path):
        out = tmp_path / "m.csv"
        assert run_cli("modes", "--gap", "5.0", "--out", str(out)) == 0
        _, columns, rows = read_csv(out)
        assert columns[0] == "a_um"
        assert columns[1:] == [f"frac_m{m}_pct" for m in range(8)]
        fractions = rows[0][1:]
        assert sum(fractions) == pytest.approx(100.0, abs=0.01)
        assert fractions[0] == pytest.approx(96.58, abs=2.0)

    def test_one_micron_peaks_at_m1(self, tmp_path):
        out = tmp_path / "m.csv"
        run_cli("modes", "--gap", "1.0", "--out", str(out))
        _, _, rows = read_csv(out)
        fractions = rows[0][1:]
        assert int(np.argmax(fractions)) == 1

    def test_requires_single_temperature(self):
        assert run_cli("modes", "--gap", "1.0", "--temp", "300",
                       "--temp", "350") == 2


class TestSpherePlateCommand:
    def test_matches_library(self, tmp_path, gold):
        out = tmp_path / "s.csv"
        assert run_cli("sphere-plate", "--gap", "1.0", "--radius", "200",
                       "--out", str(out)) == 0
        meta, columns, rows = read_csv(out)
        assert columns == ["a_um", "delta_force_per_radius_N_m",
                           "force_T350K_N", "force_T300K_N"]
        sp = cs.SpherePlateConfig(R=200e-6, a=1e-6)
        assert rows[0][1] == cs.pfa_force_difference(sp, gold)
        assert rows[0][2] == cs.pfa_force(sp, 350.0, gold)
        assert rows[0][3] == cs.pfa_force(sp, 300.0, gold)
        assert meta["radius_um"] == "200"

    def test_radius_optional(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run_cli("sphere-plate", "--gap", "1.0", "--out", str(out)) == 0
        _, columns, rows = read_csv(out)
        assert columns == ["a_um", "delta_force_per_radius_N_m"]
        assert rows[0][1] > 0.0

    @pytest.mark.parametrize("radius, marginal", [
        ((), []),  # without a radius nothing is marginal
        (("--radius", "200"), [("72.3", "2.77"), ("50.0", "4")]),  # R < 100 a
    ], ids=["no-radius", "radius-200"])
    def test_one_warning_per_marginal_row(self, tmp_path, radius, marginal):
        out = tmp_path / "s.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("sphere-plate", "--gap-range", "0.3:4:4", *radius,
                           "--out", str(out)) == 0
        messages = [str(w.message) for w in caught
                    if issubclass(w.category, ApplicabilityWarning)]
        # "R/a = <ratio> < 100 at a = <gap> um; ..."
        assert [(m.split()[2], m.split()[8]) for m in messages] == marginal

    def test_row_sums_each_free_energy_once(self, tmp_path, monkeypatch):
        calls = []
        real = geometry._grid_sums

        def counting(gaps, temps, model, quad, observables):
            calls.append((list(temps), observables))
            return real(gaps, temps, model, quad, observables)

        monkeypatch.setattr(geometry, "_grid_sums", counting)
        out = tmp_path / "s.csv"
        assert run_cli("sphere-plate", "--gap", "1.0", "--radius", "200",
                       "--out", str(out)) == 0
        assert calls == [([350.0, 300.0], (lifshitz._FREE_ENERGY,))]

    def test_radius_rejected_elsewhere(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("pressure", "--gap", "1.0", "--radius", "200")
        assert exc.value.code == 2
        assert "--radius" in capsys.readouterr().err


class TestLowTempCommand:
    def test_curve_and_fit_status(self, tmp_path, gold):
        out = tmp_path / "lt.csv"
        assert run_cli("lowtemp", "--gap", "1.0", "--zeta-range", "0:0.5:6",
                       "--out", str(out)) == 0
        meta, columns, rows = read_csv(out)
        assert columns == ["zeta_a_over_c", "f_te"]
        assert len(rows) == 6
        assert rows[0][0] == 0.0 and rows[0][1] == 0.0  # Drude f(0) = 0
        # pin the grid from outside the CLI: linspace's 0.30000000000000004
        x = np.linspace(0.0, 0.5, 6)[3]
        assert rows[3][0] == x
        spot = cs.te_mode_function(x * cs.C / 1e-6, 1e-6, gold)
        assert rows[3][1] == spot
        # default 50..150 K grid sits in the linear crossover: fit rejected
        assert meta["fit_status"].startswith("rejected")

    def test_accepted_fit_matches_library(self, tmp_path):
        # a weak plasma frequency at 0.1 um and 5..15 K is quadratic in T
        temps = [5.0, 7.0, 9.0, 11.0, 13.0, 15.0]
        out = tmp_path / "lt.csv"
        assert run_cli("lowtemp", "--omega-p", "0.2", "--gap", "0.1",
                       *(arg for t in temps for arg in ("--temp", f"{t:g}")),
                       "--out", str(out)) == 0
        meta, _, _ = read_csv(out)
        assert meta["fit_status"] == "ok"
        fit = cs.lowT_quadratic_fit(0.1e-6, cs.Drude(omega_p_ev=0.2), temps)
        assert meta["fit_F0_J_m2"] == repr(fit.F0)
        assert meta["fit_coeff_eV"] == repr(fit.coeff)
        assert meta["fit_residual"] == repr(fit.residual)

    def test_gap_sweep_rejected(self, capsys):
        assert run_cli("lowtemp", "--gap-range", "0.5:1:2") == 2
        assert "gap-range" in capsys.readouterr().err

    def test_plasma_f_te_column_is_one_integral(self, monkeypatch):
        # f(0), the m = 0 remainder, is a sum of the column's one stack
        calls = TestFailureWork.count(monkeypatch, lifshitz.adaptive_quad)
        seen, fit = [], cli.lowT_quadratic_fit
        monkeypatch.setattr(cli, "lowT_quadratic_fit",
                            lambda *args: seen.append(len(calls)) or fit(*args))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run_cli("lowtemp", "--model", "plasma", "--gap", "1.0") == 0
        assert seen == [1]  # the f_te column
        assert len(calls) == 1  # the fit's one stacked sum is on the fixed t-rule
        f0 = float(out.getvalue().split("\n0.0,")[1].split()[0])
        assert f0 == pytest.approx(cs.te_mode_function(0.0, 1e-6, cs.Plasma()),
                                   rel=cs.DEFAULT_QUAD.rel_tol, abs=0.0)

    @pytest.mark.parametrize("model, x", [("drude", "0.25"), ("plasma", "0")])
    def test_failing_f_te_names_its_first_failing_frequency(self, capsys, model, x):
        # drude's f(0) = 0 is closed; plasma's f(0) is the first row to fail alone
        assert run_cli("lowtemp", "--model", model, "--gap", "1.0", "--zeta-range", "0:0.5:3",
                       "--rel-tol", "1e-30") == 3
        assert capsys.readouterr().err.startswith(
            f"casimir: computation failed: f_te at a = 1 um, zeta a/c = {x}: "
            "quadrature did not reach rel_tol=1e-30")


class TestImpedanceCheckCommand:
    def test_equivalence_and_limits(self, tmp_path):
        out = tmp_path / "imp.csv"
        assert run_cli("impedance-check", "--out", str(out)) == 0
        meta, columns, rows = read_csv(out)
        assert len(rows) == 400  # 20 x 20 grid
        assert float(meta["max_abs_deviation"]) < 1e-12
        assert float(meta["zero_freq_limit_momentum_dependent"]) < 1e-3
        assert float(meta["zero_freq_limit_frequency_only"]) > 1.0 - 1e-3

    def test_zero_frequency_limits_at_given_temperature(self, tmp_path, gold_bg):
        # the Bloch-Grueneisen eps(i 1e8 rad/s) is 1.2e11 at 100 K, 3.5e10 at 300 K
        out = tmp_path / "imp.csv"
        assert run_cli("impedance-check", "--nu-model", "bg", "--temp", "100",
                       "--out", str(out)) == 0
        meta, _, _ = read_csv(out)
        limits = cs.rte_zero_frequency_comparison(gold_bg, 1e17, cli._ZETA_SEQ, T=100.0)
        assert meta["zero_freq_limit_momentum_dependent"] == repr(float(limits[0]))
        assert meta["zero_freq_limit_frequency_only"] == repr(float(limits[1]))
        at_300 = cs.rte_zero_frequency_comparison(gold_bg, 1e17, cli._ZETA_SEQ)
        assert limits[1] != at_300[1]

    def test_limits_at_a_huge_q_fixed(self, tmp_path):
        # zeta^2 (eps - 1) + q^2 overflowed at q = 1e300 rad/s: a RuntimeWarning
        # (an error in this suite), and 1.0 for the limit that is 0
        out = tmp_path / "imp.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("impedance-check", "--q-fixed", "1e300", "--out", str(out)) == 0
        meta, _, _ = read_csv(out)
        assert float(meta["zero_freq_limit_momentum_dependent"]) == 0.0
        assert float(meta["zero_freq_limit_frequency_only"]) == 1.0

    def test_ideal_model_rejected(self):
        assert run_cli("impedance-check", "--model", "ideal") == 2

    def test_grid_is_one_array_call(self, monkeypatch, capsys):
        # one call per grid point used to make 400 of each
        calls = {"rte_from_impedance": 0, "_reflection_sq": 0}
        for name in calls:
            def counting(*args, _name=name, _original=getattr(cli, name)):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(cli, name, counting)
        assert run_cli("impedance-check") == 0
        assert calls == {"rte_from_impedance": 1, "_reflection_sq": 1}
        assert len(capsys.readouterr().out.splitlines()) == 413  # 12 meta + header + 400

    def test_q_fixed_below_sequence_rejected_before_computing(self, capsys, monkeypatch):
        # used to exit 3 after the whole 20 x 20 grid
        def no_grid(*args):
            raise AssertionError("impedance grid computed")

        monkeypatch.setattr(cli, "rte_from_impedance", no_grid)
        assert run_cli("impedance-check", "--q-fixed", "1e11") == 2
        err = capsys.readouterr().err
        assert err.startswith("casimir: configuration error: q-fixed:")
        assert "1e+12 rad/s" in err

    @pytest.mark.parametrize("extra", [("--gap", "1.0"), ("--gap-range", "0.5:1:2"),
                                       ("--temp", "300", "--temp", "350")])
    def test_ignored_input_rejected(self, capsys, extra):
        assert run_cli("impedance-check", *extra) == 2
        assert extra[0].lstrip("-") in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (("pressure", "--gap", "1.0", "--log-spacing"), "log-spacing"),
    (("impedance-check", "--log-spacing"), "log-spacing"),
    (("pressure", "--gap", "1.0", "--theta-d", "200"), "theta-d"),
    (("pressure", "--gap", "1.0", "--nu-model", "constant", "--theta-d", "200"),
     "theta-d"),
    (("pressure", "--gap", "1.0", "--model", "plasma", "--nu", "0.04"), "nu"),
    (("pressure", "--gap", "1.0", "--model", "ideal", "--nu-model", "bg"), "nu-model"),
    (("pressure", "--gap", "1.0", "--model", "ideal", "--omega-p", "8"), "omega-p"),
    (("pressure", "--gap", "1.0", "--model", "table", "--table", "t.csv",
      "--omega-p", "8"), "omega-p"),
    (("pressure", "--gap", "1.0", "--table", "t.csv"), "table"),
    (("pressure", "--gap", "1.0", "--model", "plasma", "--zero-mode-class", "plasma"),
     "zero-mode-class"),
    (("impedance-check", "--rel-tol", "1e-5"), "rel-tol"),
])
def test_ignored_flag_rejected(capsys, argv, flag):
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err.startswith(f"casimir: configuration error: {flag}:")


@pytest.mark.parametrize("argv, flag", [
    (("pressure", "--gap", "1.0", "--temp", "inf"), "temp"),
    (("pressure", "--gap", "1.0", "--temp", "nan"), "temp"),
    (("pressure", "--gap", "inf"), "gap"),
    (("pressure", "--gap-range", "0.5:inf:3"), "gap-range"),
    (("pressure", "--gap", "1.0", "--omega-p", "inf"), "omega-p"),
    (("pressure", "--gap", "1.0", "--nu-model", "bg", "--theta-d", "inf"), "theta-d"),
    (("sphere-plate", "--gap", "1.0", "--radius", "inf"), "radius"),
    (("impedance-check", "--q-fixed", "inf"), "q-fixed"),
])
def test_non_finite_input_rejected(capsys, argv, flag):
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err.startswith(f"casimir: configuration error: {flag}:")


@pytest.mark.parametrize("argv, flag, reason", [
    (("pressure", "--gap", "1.0", "--gap-range", "0.5:1:2"), "gap", "not both"),
    (("pressure", "--gap-range", "1:2"), "gap-range", "expected lo:hi:n"),
    (("pressure", "--gap-range", "a:b:3"), "gap-range", "non-numeric"),
    (("lowtemp", "--gap", "1.0", "--zeta-range=-1:0.5:3"), "zeta-range", "start at >= 0"),
    # x c/a used to overflow in the f_te column: two RuntimeWarnings, then exit 3
    (("lowtemp", "--gap", "1.0", "--zeta-range", "0:1e300:3"), "zeta-range", "overflows"),
], ids=["gap-and-range", "two-fields", "non-numeric", "negative-zeta", "zeta-overflow"])
def test_bad_range_rejected(capsys, argv, flag, reason):
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"casimir: configuration error: {flag}:") and reason in err


def _pressure(a, T):
    return cs.total_pressure(cs.ThermalGapConfig(T=T, a=a), cs.gold_drude()).total


def _free_energy(a, T):
    return cs.free_energy(cs.ThermalGapConfig(T=T, a=a), cs.gold_drude())


@pytest.mark.parametrize("case", [
    # a k_B T underflowed to gamma = 0: ZeroDivisionError
    ("pressure", "--gap", "1e-300"),
    ("pressure", "--gap", "1", "--temp", "1e-300"),
    (cs.dominant_mode, 1e-6, 1e-300),
    # gamma above about 1e154: c^2 in the tail bound (_tail_bound) overflowed
    # (ValueError), or a^2 of the free energy's prefactor (OverflowError)
    ("pressure", "--gap", "1e300"),
    ("diff", "--gap", "1", "--temp", "1e300", "--temp", "300"),
    (_pressure, 1e200, 300.0), (_pressure, 1e300, 300.0),
    (_free_energy, 1e200, 300.0), (_free_energy, 1e300, 300.0),
    # a^3 underflowed (ZeroDivisionError) or overflowed (OverflowError)
    ("pressure", "--gap", "1e-104"), (_pressure, 1e104, 1e-110),
], ids=["cli-gap-1e-300um", "cli-T-1e-300K", "dominant-mode-T-1e-300K", "cli-gap-1e300um",
        "cli-diff-T-1e300K", "P-1e200m", "P-1e300m", "F-1e200m", "F-1e300m",
        "cli-gap-1e-104um", "P-1e104m"])
def test_extreme_gap_or_temperature_is_finite_or_named(capsys, case):
    # each used to end in an uncaught ZeroDivisionError, ValueError or
    # OverflowError: from the CLI, a traceback and exit 1.  The sums past
    # 2^64 modes at 1e-16 and 1e-30 K, which raised TypeError, are checked
    # against the T -> 0 value in test_lifshitz
    if callable(case[0]):
        call, *args = case
        try:
            assert math.isfinite(call(*args))
        except cs.CasimirError as exc:
            assert "a*T = " in str(exc) and "gamma = " in str(exc)
        return
    assert run_cli(*case) in (2, 3)
    err = capsys.readouterr().err
    assert err.startswith("casimir: ") and err.count("\n") == 1
    assert "a*T = " in err and "gamma = " in err



@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NumPy's, on the inf and NaN rows
@pytest.mark.parametrize("argv, named", [
    (("pressure", "--omega-p", "1e200", "--gap", "1"), "non-finite estimate"),
    (("pressure", "--omega-p", "1e200", "--gap", "1", "--temp", "1"), "is not finite"),
    (("pressure", "--model", "plasma", "--omega-p", "1e160", "--gap", "1"),
     "mode m = 0 at T = 300 K"),
    (("diff", "--nu-model", "bg", "--gap", "1", "--temp", "1e70", "--temp", "300"),
     "T = 1e+70 K with theta_D = 170 K"),
    (("diff", "--nu-model", "bg", "--theta-d", "1e-300", "--gap", "1"),
     "T = 300 K with theta_D = 1e-300 K"),
], ids=["eps-inf", "eps-inf-rule-in-m", "plasma-zero-mode-nan", "bg-T-1e70K",
        "bg-theta-d-1e-300K"])
def test_non_finite_values_end_with_a_named_error(capsys, argv, named):
    # each used to exit 1 with a traceback: an infinite eps made NaN rows and
    # an empty round of the t-integral or of the rule in m (ValueError,
    # IndexError), a NaN m = 0 term kept M's search doubling (OverflowError),
    # and (T/theta_D)^5 overflowed past 1e61 (OverflowError)
    assert run_cli(*argv) in (2, 3)
    err = capsys.readouterr().err
    assert err.startswith("casimir: ") and err.count("\n") == 1 and named in err


def test_a_model_the_flags_cannot_build_is_a_configuration_error(capsys):
    # BlochGruneisen rejects T_ref/theta_D = 3e302 when it is built, before
    # any sum runs, which read "computation failed" with exit 3; a --temp
    # past the range fails while summing and stays exit 3
    assert run_cli("diff", "--nu-model", "bg", "--theta-d", "1e-300", "--gap", "1") == 2
    err = capsys.readouterr().err
    assert err.startswith("casimir: configuration error: theta-d: ") and err.count("\n") == 1
    assert run_cli("diff", "--nu-model", "bg", "--gap", "1", "--temp", "1e70", "--temp", "300") == 3
    assert capsys.readouterr().err.startswith("casimir: computation failed: ")


def test_overflowing_reflection_rows_are_named_under_warnings_as_errors(capsys):
    # at gamma = 2.7e-83 the rule in m evaluates rows where (eps p + s)^2
    # overflows; NumPy's RuntimeWarnings came before the named error, and
    # under warnings as errors (as in this suite) the run ended in one
    argv = ("pressure", "--gap", "1", "--temp", "1e-80")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run_cli(*argv) == 3
    named = capsys.readouterr().err
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(*argv) == 3
    assert capsys.readouterr().err == named
    assert named.startswith("casimir: ") and named.count("\n") == 1
    assert "the row at zeta = " in named


def test_f_te_at_a_tiny_zeta_runs_under_warnings_as_errors(capsys):
    # at zeta a/c = 5e-161 the rows' p = y c/(a zeta) squares past the
    # largest float in the TM coefficient, which f_te does not use; NumPy's
    # RuntimeWarning ended the run under warnings as errors
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("lowtemp", "--gap", "1", "--zeta-range", "0:1e-160:3") == 0
    assert capsys.readouterr().out.rstrip().endswith("1e-160,0.0")


def test_drude_eps_past_the_overflowing_product_is_one(capsys):
    # zeta (zeta + nu) overflowed with a RuntimeWarning, an error in this suite
    assert run_cli("lowtemp", "--gap", "1", "--zeta-range", "0:1e290:3") == 0
    assert capsys.readouterr().out.rstrip().endswith("1e+290,0.0")


class TestSweepOutput:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), np.float64(-np.inf)])
    def test_non_finite_row_rejected(self, bad):
        with pytest.raises(ConvergenceError, match="row 1 contains non-finite values"):
            cli.SweepOutput(meta={}, columns=["a", "b"], rows=[(1.0, 2.0), (3.0, bad)])

    @pytest.mark.parametrize("columns, rows", [
        (["a", "b"], []),
        (["a", "b"], [(0.5, 1.25)]),
        (["a"], [(0.5,), (np.float64(2.0),), (3,)]),
        (["a", "b", "c"], [(-0.0, 1e-300, 1e300), (5e-324, -1.7976931348623157e308, 0.1)]),
        ([], [(), ()]),
    ], ids=["no-rows", "one-row", "one-column", "extremes", "no-columns"])
    def test_json_has_the_bytes_of_json_dumps(self, columns, rows):
        # the rows are laid out by hand; every byte must be json.dumps's
        meta = {"model": 'table("gold \\ \u00e9\u00df", 3 pts)', "\u03b6 \"q\"": "\t\u2003",
                "rel_tol": "1e-10"}
        out = cli.SweepOutput(meta=meta, columns=columns, rows=rows)
        doc = {"meta": meta, "columns": columns, "rows": [list(map(float, r)) for r in rows]}
        assert out.to_json() == json.dumps(doc, indent=2) + "\n"

    def test_non_finite_pressure_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_grid_sums", lambda gaps, temps, *args: [
            [[(float("nan"), 2, None)] for _ in temps] for _ in gaps])
        assert run_cli("pressure", "--gap", "1.0") == 3
        assert "row 0 contains non-finite values" in capsys.readouterr().err


def test_module_entry_point_needs_only_numpy(capsys):
    # python -m casimir with the test-only packages made unimportable
    assert run_cli("modes", "--gap", "1.0") == 0
    expected = capsys.readouterr().out
    code = ("import runpy, sys\n"
            "for name in ('scipy', 'mpmath', 'hypothesis'):\n"
            "    sys.modules[name] = None\n"
            "sys.argv = ['casimir', 'modes', '--gap', '1.0']\n"
            "runpy.run_module('casimir', run_name='__main__', alter_sys=True)\n")
    src = str(Path(cs.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected


def test_python_m_casimir_writes_what_main_writes(capsys):
    # `python -m casimir` (src/casimir/__main__.py) gives main's stdout, and
    # on a configuration error main's exit code 2 and its one stderr line
    src = str(Path(cs.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    for argv, code in ((("pressure", "--gap", "1.0"), 0), (("pressure", "--gap", "-1"), 2)):
        assert run_cli(*argv) == code
        out, err = capsys.readouterr()
        proc = subprocess.run([sys.executable, "-m", "casimir", *argv], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err), argv
    assert out == ""
    assert err == "casimir: configuration error: gap: must be finite and > 0 um, got -1.0\n"


class TestTableModel:
    def make_table(self, tmp_path, gold):
        zs = np.geomspace(1e12, 1e17, 200)
        eps = cs.eps_drude(zs, gold)
        path = tmp_path / "gold.csv"
        lines = ["zeta_rad_per_s,epsilon"]
        lines += [f"{float(z)!r},{float(e)!r}" for z, e in zip(zs, eps)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_tabulated_run_close_to_drude(self, tmp_path, gold):
        table = self.make_table(tmp_path, gold)
        out_t = tmp_path / "t.csv"
        out_d = tmp_path / "d.csv"
        assert run_cli("pressure", "--gap", "1.0", "--model", "table",
                       "--table", str(table), "--out", str(out_t)) == 0
        assert run_cli("pressure", "--gap", "1.0", "--out", str(out_d)) == 0
        _, _, rows_t = read_csv(out_t)
        _, _, rows_d = read_csv(out_d)
        assert rows_t[0][1] == pytest.approx(rows_d[0][1], rel=1e-3)

    def test_sweep_past_the_table_names_the_gap_and_mode(self, tmp_path, gold, capsys):
        # the table ends at 5e15 rad/s: only 0.5 um needs a mode past it
        # (m = 21 at 300 K); 1.75 and 3 um stay inside, and run alone
        zs = np.geomspace(1e12, 5e15, 200)
        path = tmp_path / "short.csv"
        path.write_text("zeta_rad_per_s,epsilon\n" + "".join(
            f"{float(z)!r},{float(e)!r}\n" for z, e in zip(zs, cs.eps_drude(zs, gold))),
            encoding="utf-8")
        table = ("--model", "table", "--table", str(path))
        assert run_cli("pressure", "--gap-range", "0.5:3:3", *table) == 3
        err = capsys.readouterr().err
        assert err.startswith("casimir: computation failed: at a = 0.5 um: "
                              "Matsubara mode m = 21 at T = 300 K")
        assert run_cli("pressure", "--gap-range", "1.75:3:2", *table,
                       "--out", str(tmp_path / "p.csv")) == 0

    def test_impedance_check_rejects_short_table_before_computing(
            self, tmp_path, gold, capsys, monkeypatch):
        def no_grid(*args):
            raise AssertionError("impedance grid computed")

        monkeypatch.setattr(cli, "rte_from_impedance", no_grid)
        table = self.make_table(tmp_path, gold)  # starts at 1e12 rad/s
        assert run_cli("impedance-check", "--model", "table", "--table", str(table)) == 2
        err = capsys.readouterr().err
        assert err.startswith("casimir: configuration error: model:")
        assert "1e+08" in err

    def test_missing_table_flag_rejected(self):
        assert run_cli("pressure", "--gap", "1.0", "--model", "table") == 2

    def test_malformed_table_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("zeta_rad_per_s,epsilon\n1e15,5\n1e13,9\n", encoding="utf-8")
        assert run_cli("pressure", "--gap", "1.0", "--model", "table",
                       "--table", str(path)) == 2
        assert "line 3" in capsys.readouterr().err

    def test_table_not_utf8_rejected(self, tmp_path, capsys):
        # used to end in a UnicodeDecodeError traceback and exit 1
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"zeta_rad_per_s,epsilon\n1e13,900\n1e14,101 \xe9\n")
        assert run_cli("modes", "--model", "table", "--table", str(path),
                       "--gap", "1.0") == 2
        err = capsys.readouterr().err
        assert err.startswith("casimir: configuration error: table:")
        assert "not UTF-8 text" in err


class TestFailureWork:
    """A failing run computes its failing sum at most twice: the stack, then
    its (a, T) alone up to the first that fails; the CLI only names the gap.
    Below eps_t a sum fails once, after its stack, with no adaptive_quad."""

    @staticmethod
    def count(monkeypatch, fn):
        # every module's name for fn, so that no path to it goes uncounted
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        for module in (cli, geometry, thermal, lifshitz):
            for name, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, name, counting)
        return calls

    @pytest.mark.parametrize("argv, gap, T", [
        (("pressure", "--gap", "0.5"), "0.5", 300),
        (("diff", "--gap-range", "0.5:1:3"), "0.5", 350),
        (("sphere-plate", "--gap-range", "0.5:3:2", "--radius", "200"), "0.5", 350),
    ], ids=["pressure", "diff", "sphere-plate"])
    def test_unreachable_tolerance(self, capsys, monkeypatch, argv, gap, T):
        calls = self.count(monkeypatch, lifshitz.adaptive_quad)
        stacks = self.count(monkeypatch, lifshitz._integrate)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(*argv, "--rel-tol", "1e-30") == 3
        assert calls == [] and len(stacks) == 1  # the sweep's stack, then the floor
        err = capsys.readouterr().err
        assert err.startswith(f"casimir: computation failed: at a = {gap} um: "
                              f"Matsubara modes m = 1..")
        assert f"T = {T} K" in err and "below eps_t = 2e-14" in err
        # sphere-plate's 3 um is marginal at R = 200 um: it warns once
        assert len(caught) == (1 if "--radius" in argv else 0)

    def test_rule_sum_below_eps_t_names_the_floor_without_the_ladder_of_k(self, capsys,
                                                                           monkeypatch):
        # 1 mK at 10 nm needs about 8.8e8 modes, a rule in m: below eps_t
        # it is planned at eps_t, from K = 64 alone, and then names the floor
        tries = self.count(monkeypatch, lifshitz._tail_rule)
        assert run_cli("pressure", "--gap", "0.01", "--temp", "0.001", "--rel-tol", "1e-30") == 3
        assert [args[4] for args in tries] == [lifshitz._K_MIN]
        err = capsys.readouterr().err
        assert err.startswith("casimir: computation failed: at a = 0.01 um: "
                              "Matsubara modes m = 1..")
        assert err.endswith("rel_tol=1e-30 is below eps_t = 2e-14, the error that the sums' "
                            "fixed t-rule is certified to leave\n")

    @pytest.mark.parametrize("argv", [("pressure", "--gap", "1"),
                                      ("diff", "--gap-range", "0.5:1:3")],
                             ids=["pressure", "diff"])
    def test_tolerance_between_rounding_and_eps_t_names_the_floor(self, capsys, argv):
        # 1.2e-16 is above 2^-53, where the sums used to refine on estimates
        # at rounding level and exit 0; it is below eps_t
        assert run_cli(*argv, "--rel-tol", "1.2e-16") == 3
        err = capsys.readouterr().err
        assert err.startswith("casimir: computation failed: at a = ") and "eps_t = 2e-14" in err

    def test_past_the_table_top_node(self, tmp_path, gold, capsys, monkeypatch):
        # the table ends at 1e18 rad/s; zeta_4053 at 300 K is 1.000195e18,
        # which 4 digits would print as the node itself
        zs = np.geomspace(1e13, 1e18, 200)
        path = tmp_path / "gold.csv"
        path.write_text("zeta_rad_per_s,epsilon\n" + "".join(
            f"{float(z)!r},{float(e)!r}\n" for z, e in zip(zs, cs.eps_drude(zs, gold))),
            encoding="utf-8")
        calls = self.count(monkeypatch, lifshitz._sum_modes)
        assert run_cli("pressure", "--model", "table", "--table", str(path),
                       "--gap-range", "0.005:1:3") == 3
        assert len(calls) == 1
        err = capsys.readouterr().err
        assert err == ("casimir: computation failed: at a = 0.005 um: Matsubara mode "
                       "m = 4053 at T = 300 K has zeta_m = 1.0002e+18 rad/s: "
                       "zeta outside table range [1e+13, 1e+18]\n")
        assert float(err.split("zeta_m = ")[1].split()[0]) > zs[-1]  # past the node, as zeta_m


def test_one_parser_per_process_prints_what_fresh_processes_print(capsys, monkeypatch):
    # main() builds its parser once; later calls with other flags, --help
    # and --version print what a process of their own prints
    runs = [("pressure", "--gap", "1.0", "--temp", "300", "--temp", "350"),
            ("pressure", "--gap", "0.5", "--format", "json"),
            ("pressure", "--help"), ("--version",)]
    monkeypatch.setenv("COLUMNS", "80")
    src = str(Path(cs.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    assert cli.build_parser() is cli.build_parser()
    for argv in runs:
        try:
            code = run_cli(*argv)
        except SystemExit as exc:
            code = exc.code
        proc = subprocess.run([sys.executable, "-m", "casimir", *argv], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
        assert (code, capsys.readouterr().out) == (proc.returncode, proc.stdout), argv


class TestDeterminism:
    def test_byte_identical_across_thread_counts(self, tmp_path):
        digests = []
        for threads in (1, 4, 8):
            out = tmp_path / f"t{threads}.csv"
            code = run_cli("diff", "--gap-range", "0.5:3:4", "--threads",
                           str(threads), "--out", str(out))
            assert code == 0
            digests.append(out.read_bytes())
        assert digests[0] == digests[1] == digests[2]

    def test_sweep_rows_equal_their_one_gap_runs_byte_for_byte(self, tmp_path):
        # a sum is the math.fsum of its rows' integrals, each read alone, so
        # a row of a sweep does not depend on the other gaps whose rows
        # share its blocks: 0.14210526315789473 um printed 1.6644887243802757
        # in this sweep and 1.664488724380276 alone when a component added
        # its rows node by node within each block
        sweep = tmp_path / "sweep.csv"
        assert run_cli("pressure", "--gap-range", "0.1:0.3:20", "--temp", "100",
                       "--out", str(sweep)) == 0
        rows = [line for line in sweep.read_bytes().splitlines() if not line.startswith(b"#")]
        assert rows[0] == b"a_um,pressure_Pa" and len(rows) == 21
        for row in rows[1:]:
            one = tmp_path / "one.csv"
            assert run_cli("pressure", "--gap", row.split(b",")[0].decode(), "--temp", "100",
                           "--out", str(one)) == 0
            assert one.read_bytes().splitlines()[-1] == row

    def test_json_output_deterministic(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert run_cli("modes", "--gap", "2.0", "--format", "json",
                           "--threads", "2", "--out", str(out)) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        doc = json.loads(outs[0])
        assert set(doc) == {"meta", "columns", "rows"}

    def test_diff_agrees_across_cpu_dispatch_targets(self):
        # NumPy picks a SIMD kernel per CPU at run time, and its dispatch
        # targets may round differently (byte identity holds on one machine
        # and one target).  The sweep of `casimir diff` runs once with no
        # target disabled and once with each target this CPU supports
        # disabled together with the targets after it; every value must agree
        # within rel_tol of its own size, a difference within rel_tol of its
        # two raw values.  NPY_DISABLE_CPU_FEATURES acts only on the
        # subprocesses.  https://numpy.org/doc/stable/reference/simd/
        try:
            from numpy._core import _multiarray_umath as umath
        except ImportError:  # NumPy 1
            from numpy.core import _multiarray_umath as umath
        targets = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
        code = ("import numpy as np, casimir as cs\n"
                "from casimir import lifshitz, thermal\n"
                "for row in thermal._differences(np.linspace(0.3e-6, 5e-6, 6), cs.gold_drude(), "
                "350.0, 300.0, cs.DEFAULT_QUAD, (lifshitz._PRESSURE, lifshitz._FREE_ENERGY)):\n"
                "    for d in row:\n"
                "        print(repr(d.delta), repr(d.raw_low), repr(d.raw_high))\n")
        src = str(Path(cs.__file__).resolve().parent.parent)
        env = {key: value for key, value in os.environ.items()
               if key not in ("NPY_DISABLE_CPU_FEATURES", "NPY_ENABLE_CPU_FEATURES")}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        runs = {}
        for disabled in [""] + [" ".join(targets[i:]) for i in range(len(targets))]:
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                  env={**env, "NPY_DISABLE_CPU_FEATURES": disabled} if disabled
                                  else env, timeout=120)
            assert proc.returncode == 0, (disabled, proc.stderr)
            runs[disabled] = np.array([line.split() for line in proc.stdout.splitlines()],
                                      dtype=float)
        rel_tol, base = cs.DEFAULT_QUAD.rel_tol, runs.pop("")
        assert base.shape == (12, 3)
        raw = np.abs(base[:, 1:])
        for disabled, values in runs.items():
            assert (np.abs(values[:, 1:] - base[:, 1:]) <= rel_tol * raw).all(), disabled
            assert (np.abs(values[:, 0] - base[:, 0]) <= rel_tol * raw.sum(axis=1)).all(), disabled

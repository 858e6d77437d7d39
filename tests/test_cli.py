"""CLI: configuration validation, serialization, determinism, exit codes."""

import json
import warnings

import numpy as np
import pytest

import casimir as cs
from casimir import cli, geometry
from casimir.cli import main
from casimir.errors import ApplicabilityWarning

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

    def test_hopeless_sum_exits_three(self, capsys):
        # 1 mK at 10 nm would need about 8e8 Matsubara modes
        assert run_cli("pressure", "--gap", "0.01", "--temp", "0.001") == 3
        assert "modes at T = 0.001 K" in capsys.readouterr().err


class TestDiffCommand:
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
        real = geometry.free_energy

        def counting(cfg, *args, **kwargs):
            calls.append(cfg.T)
            return real(cfg, *args, **kwargs)

        monkeypatch.setattr(geometry, "free_energy", counting)
        out = tmp_path / "s.csv"
        assert run_cli("sphere-plate", "--gap", "1.0", "--radius", "200",
                       "--out", str(out)) == 0
        assert calls == [350.0, 300.0]

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

    def test_ideal_model_rejected(self):
        assert run_cli("impedance-check", "--model", "ideal") == 2

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

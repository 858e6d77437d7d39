"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report.  Criterion 7's literal fit route is expected to fail (marked
strict xfail): the requested 50-150 K window lies in the linear crossover
regime of the free energy, orders of magnitude above the temperature
where the quadratic law sets in at micron gaps (the Matsubara spacing
must drop below the TE structure scale nu c^2/(omega_p a)^2: at a = 1 um
the slope (F(T) - F(0))/T^2 is still 16.4 eV at 2 mK).  The quadratic
coefficient itself is verified exactly through the zero-frequency slope
of the TE mode function (test 7b), approached by a two-point slope at
1.5-3 K and 50 nm (test 7c), and reached at 50 nm in the millikelvin
range against the zero-temperature free energy (test 7d).
"""

import numpy as np
import pytest
from scipy.special import zeta

import casimir as cs
from casimir.cli import main as cli_main
from casimir.constants import EV_TO_RAD_S, HBARC_EV_M
from casimir.errors import FitError

ZETA3 = float(zeta(3))
MICRON = 1e-6

QUAD_COEFF_EV = 9.0**2 * (2.0 * np.log(2.0) - 1.0) / (48.0 * 0.035)  # 18.62 eV


def report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {description}  {detail}")
    assert ok, f"criterion {number} failed: {description} {detail}"


def test_criterion_1_matsubara_frequencies():
    z300 = cs.ThermalGapConfig(T=300.0, a=1e-6).matsubara(1)
    z350 = cs.ThermalGapConfig(T=350.0, a=1e-6).matsubara(1)
    ok = (abs(z300 - 2.47e14) / 2.47e14 < 5e-3
          and abs(z350 - 2.88e14) / 2.88e14 < 5e-3)
    report(1, "zeta_1 = 2.47e14 (300 K) / 2.88e14 (350 K) rad/s within 0.5%",
           ok, f"got {z300:.4e} / {z350:.4e}")


def test_criterion_2_ideal_metal_oracle():
    import warnings
    engine_10 = cs.total_pressure(cs.ThermalGapConfig(T=10.0, a=1e-6),
                                  cs.Ideal()).total
    engine_300 = cs.total_pressure(cs.ThermalGapConfig(T=300.0, a=1e-6),
                                   cs.Ideal()).total
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        oracle_10 = cs.ideal_pressure_lowT(1e-6, 10.0)
        oracle_300 = cs.ideal_pressure_lowT(1e-6, 300.0)
    dev_10 = abs(engine_10 - oracle_10) / abs(oracle_10)
    dev_300 = abs(engine_300 - oracle_300) / abs(oracle_300)
    report(2, "ideal-metal pressure matches the low-T closed form "
              "(1% at 10 K, 2% at 300 K)",
           dev_10 < 0.01 and dev_300 < 0.02,
           f"rel dev {dev_10:.2e} / {dev_300:.2e}")


def test_criterion_3_zero_mode_closed_form(gold):
    devs = []
    for a in (1e-6, 3e-6):
        oracle = -ZETA3 * cs.K_B * 300.0 / (8.0 * np.pi * a**3)
        value = cs.mode_pressure(0, cs.ThermalGapConfig(T=300.0, a=a), gold)
        devs.append(abs(value - oracle) / abs(oracle))
    report(3, "m=0 Drude pressure equals -zeta(3) k_B T/(8 pi a^3) to 1e-8",
           max(devs) < 1e-8, f"rel devs {devs[0]:.2e}, {devs[1]:.2e}")


def test_criterion_4_mode_fraction_table(gold):
    targets = {0.5: (10.20, 5.0), 1.0: (20.07, 3.0), 3.0: (70.95, 3.0),
               5.0: (96.58, 3.0), 7.0: (99.76, 3.0)}
    got = {}
    ok = True
    for a_um, (expected, tol) in targets.items():
        res = cs.total_pressure(cs.ThermalGapConfig(T=300.0, a=a_um * MICRON), gold)
        got[a_um] = res.fraction(0)
        ok = ok and abs(got[a_um] - expected) <= tol
    report(4, "m=0 mode fractions track the published table "
              "(+-3 points, +-5 at 0.5 um)",
           ok, " ".join(f"{k}um:{v:.2f}%" for k, v in got.items()))


def test_criterion_5_sign_change(gold):
    a_star = cs.sign_change_gap(gold, 350.0, 300.0, bracket=(2.0e-6, 3.5e-6))
    aT = a_star * cs.K_B * 300.0 / (cs.HBAR * cs.C)
    ok = 2.5e-6 <= a_star <= 3.1e-6 and abs(aT - 0.37) <= 0.04
    report(5, "pressure difference changes sign in [2.5, 3.1] um with "
              "a*T = 0.37 +- 0.04",
           ok, f"a* = {a_star / MICRON:.4f} um, a*T = {aT:.4f}")


def test_criterion_6_millipascal_scale(gold):
    delta = cs.pressure_difference(0.4e-6, gold).delta
    ok = 1e-4 < delta < 1e-2
    report(6, "pressure difference at 0.4 um lies in [0.1, 10] mPa",
           ok, f"got {delta * 1e3:.4f} mPa")


GRID_50_150 = [50.0, 62.5, 75.0, 87.5, 100.0, 112.5, 125.0, 137.5, 150.0]


@pytest.mark.xfail(
    strict=True,
    reason="spec defect: at a = 1-2 um the quadratic law requires the "
           "Matsubara spacing to drop below nu c^2/(omega_p a)^2, i.e. "
           "T < ~30 mK and ~1e6+ modes; the 50-150 K window is in the "
           "linear crossover regime (measured dF/dT^2 there is ~0.04 eV, "
           "not 18.6 eV, and the fit residual gate rejects it)")
def test_criterion_7_lowT_quadratic_fit_literal(gold):
    coeffs = {}
    try:
        for a in (1e-6, 2e-6):
            coeffs[a] = cs.lowT_quadratic_fit(a, gold, GRID_50_150).coeff
    except FitError as exc:
        report(7, "quadratic-law coefficient from a 50-150 K fit equals "
                  "18.6 eV within 10% at a = 1 and 2 um",
               False, f"fit rejected: {exc}")
    ok = all(abs(c - QUAD_COEFF_EV) / QUAD_COEFF_EV < 0.10
             for c in coeffs.values())
    report(7, "quadratic-law coefficient from a 50-150 K fit equals "
              "18.6 eV within 10% at a = 1 and 2 um",
           ok, f"coeffs {coeffs}")


def _te_slope_coefficient(model, a):
    """Quadratic T^2 coefficient implied by the TE mode function slope.

    Euler-Maclaurin gives F(T) - F(0) = -(T^2/12 a^2) f'(0) in natural
    units; f'(0) is extracted by eliminating the sqrt(zeta) subleading
    term between two small frequencies.
    """
    z1, z2 = 1e6, 4e6
    g1 = cs.te_mode_function(z1, a, model) / z1
    g2 = cs.te_mode_function(z2, a, model) / z2
    s1, s2 = np.sqrt(z1), np.sqrt(z2)
    fp0 = (g1 * s2 - g2 * s1) / (s2 - s1)
    a_nat = a / HBARC_EV_M
    return -fp0 * EV_TO_RAD_S / (12.0 * a_nat**2)


def test_criterion_7b_quadratic_coefficient_via_te_slope(gold):
    # the same physics as the literal fit, evaluated where it is defined:
    # the zeta -> 0 slope of f fixes the T^2 coefficient and must be
    # independent of the separation
    c1 = _te_slope_coefficient(gold, 1e-6)
    c2 = _te_slope_coefficient(gold, 2e-6)
    ok = (abs(c1 - QUAD_COEFF_EV) / QUAD_COEFF_EV < 0.10
          and abs(c2 - QUAD_COEFF_EV) / QUAD_COEFF_EV < 0.10
          and abs(c1 - c2) / QUAD_COEFF_EV < 0.02)
    report("7b", "TE-slope quadratic coefficient equals "
                 "omega_p^2(2ln2-1)/(48 nu) = 18.6 eV within 10%, "
                 "independent of a",
           ok, f"got {c1:.3f} eV (1 um), {c2:.3f} eV (2 um)")


def test_criterion_7c_quadratic_regime_trend(gold):
    # direct Matsubara-sum check in the deepest numerically reachable
    # regime: the apparent dF/dT^2 grows toward the 18.6 eV asymptote as
    # the spacing zeta_1 drops below the TE structure scale
    from casimir.constants import free_energy_si_to_ev3, temperature_to_ev

    def slope(a, t1, t2):
        f1 = free_energy_si_to_ev3(
            cs.free_energy(cs.ThermalGapConfig(T=t1, a=a), gold))
        f2 = free_energy_si_to_ev3(
            cs.free_energy(cs.ThermalGapConfig(T=t2, a=a), gold))
        return (f2 - f1) / (temperature_to_ev(t2)**2 - temperature_to_ev(t1)**2)

    shallow = slope(1e-6, 50.0, 100.0)      # zeta_1/zeta* ~ 1600
    mid = slope(1e-6, 2.0, 5.0)             # zeta_1/zeta* ~ 96
    deep = slope(0.05e-6, 1.5, 3.0)         # zeta_1/zeta* ~ 0.2
    ok = shallow < mid < deep < 1.05 * QUAD_COEFF_EV and deep > 0.5 * QUAD_COEFF_EV
    report("7c", "apparent dF/dT^2 climbs monotonically toward 18.6 eV as "
                 "the Matsubara spacing enters the TE structure scale",
           ok, f"{shallow:.3f} -> {mid:.3f} -> {deep:.3f} eV")


def test_criterion_7d_quadratic_law_in_the_millikelvin_range(gold, zero_temperature):
    # with F(0) from the T = 0 oracle, (F(T) - F(0))/T^2 takes one sum per
    # temperature, not the difference of two: at 50 nm it climbs
    # monotonically into the millikelvin range, where the literal quadratic
    # fit of criterion 7 passes its residual gate
    from casimir.constants import free_energy_si_to_ev3, temperature_to_ev

    a, fine = 0.05e-6, cs.QuadratureSettings(rel_tol=1e-13)
    f0 = zero_temperature(gold, a, "free_energy")

    def slope(T):
        F = cs.free_energy(cs.ThermalGapConfig(T=T, a=a), gold, fine)
        return ((free_energy_si_to_ev3(F) - free_energy_si_to_ev3(f0))
                / temperature_to_ev(T) ** 2)

    slopes = [slope(T) for T in (3.0, 1.5, 0.6, 0.3, 0.1, 0.03)]
    fit = cs.lowT_quadratic_fit(a, gold, [0.002, 0.004, 0.006, 0.008, 0.01], fine)
    ok = (all(s1 < s2 for s1, s2 in zip(slopes, slopes[1:]))
          and abs(slopes[-1] - QUAD_COEFF_EV) < 0.05 * QUAD_COEFF_EV
          and abs(fit.coeff - QUAD_COEFF_EV) < 0.05 * QUAD_COEFF_EV
          and abs(fit.F0 - f0) < 1e-12 * abs(f0))
    report("7d", "(F(T) - F(0))/T^2 climbs monotonically to within 5% of "
                 "18.6 eV by 30 mK at 50 nm; the 2-10 mK quadratic fit agrees",
           ok, " -> ".join(f"{s:.2f}" for s in slopes)
           + f" eV; fit {fit.coeff:.2f} eV, residual {fit.residual:.1e}")


def test_criterion_8_te_intercept(gold):
    a = 1e-6
    xs = np.linspace(0.25, 0.5, 6)
    fs = [cs.te_mode_function(x * cs.C / a, a, gold) for x in xs]
    slope, intercept = np.polyfit(xs, fs, 1)
    f0 = cs.te_mode_function(0.0, a, gold)
    ok = abs(abs(intercept) - 0.30) <= 0.03 and f0 == 0.0
    report(8, "linear extrapolation of f over zeta a/c in [0.25, 0.5] has "
              "|intercept| = 0.30 +- 10%; Drude f(0) = 0 exactly",
           ok, f"intercept {intercept:.4f}, f(0) = {f0}")


def test_criterion_9_impedance_equivalence(gold):
    from casimir.lifshitz import _reflection_sq
    worst = 0.0
    for z in np.geomspace(1e12, 1e16, 20):
        eps = gold.eps(z)
        for p in np.geomspace(1.0, 100.0, 20):
            r = cs.rte_from_impedance(z, p * z, eps)
            _, B = _reflection_sq(eps, p)
            worst = max(worst, abs(r * r - B))
    # zero-frequency limits to 1e-3 at zeta = 1e8 rad/s (q chosen so the
    # frequency-only route has converged there; see decisions ledger)
    seq = np.geomspace(1e12, 1e8, 5)
    lim_momentum, lim_freq = cs.rte_zero_frequency_comparison(gold, 1e17, seq)
    ok = worst < 1e-12 and lim_momentum < 1e-3 and lim_freq > 1.0 - 1e-3
    report(9, "impedance TE reflection squared equals the permittivity form "
              "to 1e-12 on a 20x20 grid; zero-frequency limits (0, 1) to 1e-3 "
              "at zeta = 1e8 rad/s",
           ok, f"max dev {worst:.2e}; limits ({lim_momentum:.2e}, {lim_freq:.6f})")


def test_criterion_10_thermodynamic_consistency(gold):
    devs = []
    for a in (0.3e-6, 0.7e-6, 1e-6, 2.5e-6, 5e-6):
        h = 1e-3 * a
        Fp = cs.free_energy(cs.ThermalGapConfig(T=300.0, a=a + h), gold)
        Fm = cs.free_energy(cs.ThermalGapConfig(T=300.0, a=a - h), gold)
        P = cs.total_pressure(cs.ThermalGapConfig(T=300.0, a=a), gold).total
        devs.append(abs(-(Fp - Fm) / (2.0 * h) - P) / abs(P))
    sum_rule = cs.sum_rule_check(5.317e13)  # gold relaxation frequency in rad/s
    nu_350 = cs.nu_bloch_gruneisen(350.0, cs.BlochGruneisen())
    ok = (max(devs) < 1e-4
          and abs(sum_rule - 1.0) < 1e-6
          and abs(nu_350 - 0.0418) <= 5e-4)
    report(10, "-dF/da = P to 1e-4 at 5 gaps; spectral sum rule = 1 to 1e-6; "
               "BG nu(350 K) = 41.8 +- 0.5 meV",
           ok, f"max dF/da dev {max(devs):.2e}; sum rule {sum_rule:.9f}; "
               f"nu(350) = {nu_350 * 1e3:.2f} meV")


def test_criterion_11_thread_determinism(tmp_path):
    outputs = []
    for threads in (1, 4, 8):
        out = tmp_path / f"threads{threads}.csv"
        code = cli_main(["diff", "--gap-range", "0.5:3:4", "--threads",
                         str(threads), "--out", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    report(11, "identical config produces byte-identical output across "
               "1, 4, 8 threads", ok,
           f"{len(outputs[0])} bytes each")

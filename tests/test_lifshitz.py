"""Core engine: reflection coefficients, mode integrals, Matsubara sums."""

import copy
import itertools
import math
import pickle
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.special import zeta

import casimir as cs
from casimir import dispersion, lifshitz, quadrature
from casimir.errors import (CasimirError, ConvergenceError, DomainError, TableRangeError,
                            UnsupportedModelError)
from casimir.lifshitz import _reflection_sq

ZETA3 = float(zeta(3))


def fsum_modes(mode_fn, cfg, model, quad=cs.DEFAULT_QUAD, start=0, stop=1e-17):
    """math.fsum of mode_fn(m) for m >= start, up to the first term below
    stop times the running sum (past the peak every term is smaller)."""
    terms, running, m = [], 0.0, start
    while True:
        terms.append(mode_fn(m, cfg, model, quad))
        running += terms[-1]
        if m > start + 1 and abs(terms[-1]) <= stop * abs(running):
            return math.fsum(terms)
        m += 1


def count_rows(monkeypatch):
    """Counts of the rows that _integrate evaluates, once per round of a
    lone row's adaptive_quad ("integrated"), and of the rows evaluated by
    _first_mesh ("placed"): a rule in m as it is placed, failed tries
    included, and the rows of a per_mode table or fraction(m) as they are
    read (a plasma m = 0 remainder is evaluated by _zero_mode, and counted
    by neither).  A rule sum takes its value from its placed rows and
    integrates none.  They grow while the test runs."""
    counts, inside = {"integrated": 0, "placed": 0}, []
    integrate, kernels_at, first_mesh = (lifshitz._integrate, lifshitz._kernels_at,
                                         lifshitz._first_mesh)

    def counting_integrate(*args):
        inside.append(True)
        try:
            return integrate(*args)
        finally:
            inside.pop()

    def counting_kernels_at(rule, y_lo, t, kernels):
        if inside:
            counts["integrated"] += len(y_lo)
        return kernels_at(rule, y_lo, t, kernels)

    def counting_first_mesh(model, cfg, m, *args, **kwargs):
        counts["placed"] += len(m)
        return first_mesh(model, cfg, m, *args, **kwargs)

    monkeypatch.setattr(lifshitz, "_integrate", counting_integrate)
    monkeypatch.setattr(lifshitz, "_kernels_at", counting_kernels_at)
    monkeypatch.setattr(lifshitz, "_first_mesh", counting_first_mesh)
    return counts


class Rippled:
    """Drude-like m = 0 rule; an m >= 1 rule no panel count resolves, NaN
    where ripple is NaN."""

    def __init__(self, ripple):
        self.ripple = ripple

    def zero_frequency_reflection(self, y, cfg):
        return 1.0, 0.0

    def matsubara_reflection(self, zeta, T):
        return lambda p: (0.5 + 0.5 * np.sin(self.ripple * p), 0.0)


def drude_table(gold, zero_mode_class):
    zs = np.geomspace(1e11, 1e17, 400)
    return cs.Tabulated(cs.PermittivityTable(zs, cs.eps_drude(zs, gold)),
                        zero_mode_class)


def cfg_gamma(gamma, a=1e-6):
    """Config whose dimensionless Matsubara spacing is exactly the given gamma."""
    T = gamma * cs.HBAR * cs.C / (2.0 * np.pi * a * cs.K_B)
    return cs.ThermalGapConfig(T=T, a=a)


class TestThermalGapConfig:
    def test_first_matsubara_frequencies(self):
        assert cs.ThermalGapConfig(T=300.0, a=1e-6).matsubara(1) == pytest.approx(
            2.468e14, rel=5e-3)
        assert cs.ThermalGapConfig(T=350.0, a=1e-6).matsubara(1) == pytest.approx(
            2.88e14, rel=5e-3)

    def test_gamma_at_room_temperature(self):
        cfg = cs.ThermalGapConfig(T=300.0, a=1e-6)
        assert cfg.gamma == pytest.approx(2.0 * np.pi * 0.1313, rel=5e-3)

    def test_validation(self):
        with pytest.raises(DomainError):
            cs.ThermalGapConfig(T=0.0, a=1e-6)
        with pytest.raises(DomainError):
            cs.ThermalGapConfig(T=300.0, a=-1e-6)

    @pytest.mark.parametrize("T, a", [(math.inf, 1e-6), (math.nan, 1e-6),
                                      (300.0, math.inf), (300.0, math.nan)])
    def test_non_finite_rejected(self, gold, T, a):
        # T = inf used to overflow in the mode-count search of the sum
        with pytest.raises(DomainError, match="finite"):
            cs.total_pressure(cs.ThermalGapConfig(T=T, a=a), gold)


class TestLifshitzVariables:
    def test_vacuum_s_equals_p(self):
        cfg = cfg_gamma(0.825)
        p, s = cs.lifshitz_variables(2.0, 1, cfg, 1.0)
        assert s == pytest.approx(p, rel=1e-15)

    def test_normal_incidence(self):
        cfg = cfg_gamma(0.825)
        p, s = cs.lifshitz_variables(cfg.gamma, 1, cfg, 2526.0)
        assert p == pytest.approx(1.0, rel=1e-14)
        assert s == pytest.approx(np.sqrt(2526.0), rel=1e-14)

    def test_worked_example(self):
        # y = 2, m = 1, gamma = 0.825, eps = 2526 (40-digit reference)
        cfg = cfg_gamma(0.825)
        p, s = cs.lifshitz_variables(2.0, 1, cfg, 2526.0)
        assert p == pytest.approx(2.4242424242424242, rel=1e-12)
        assert s == pytest.approx(50.307821969664884, rel=1e-12)
        assert s > p

    def test_domain_errors(self):
        cfg = cfg_gamma(0.825)
        with pytest.raises(DomainError):
            cs.lifshitz_variables(0.5, 1, cfg, 2526.0)  # y < m*gamma
        with pytest.raises(DomainError):
            cs.lifshitz_variables(2.0, 1, cfg, 0.5)  # eps < 1
        with pytest.raises(DomainError):
            cs.lifshitz_variables(2.0, 0, cfg, 2526.0)

    def test_nan_rejected(self):
        # every comparison with NaN is false, so a "< bound" test lets it through
        cfg = cfg_gamma(0.825)
        with pytest.raises(DomainError, match="eps must be >= 1"):
            cs.lifshitz_variables(2.0, 1, cfg, math.nan)
        with pytest.raises(DomainError, match="eps must be >= 1"):
            cs.lifshitz_variables([2.0, 3.0], 1, cfg, [2526.0, math.nan])
        # eps = inf used to give s = inf
        for eps in (math.inf, [2526.0, math.inf]):
            with pytest.raises(DomainError, match="eps must be >= 1"):
                cs.lifshitz_variables([2.0, 3.0], 1, cfg, eps)
        with pytest.raises(DomainError, match="y must be >="):
            cs.lifshitz_variables([2.0, math.nan], 1, cfg, 2526.0)


class TestReflectionPair:
    def test_vacuum_reflects_nothing(self):
        pair = cs.reflection_pair(2.0, 1, cfg_gamma(0.825), 1.0)
        assert pair.A == 0.0
        assert pair.B == 0.0

    def test_near_ideal_limit(self):
        cfg = cfg_gamma(0.825)
        pair = cs.reflection_pair(cfg.gamma, 1, cfg, 1e12)
        assert abs(pair.A - 1.0) < 1e-5
        assert abs(pair.B - 1.0) < 1e-5

    def test_worked_example(self):
        pair = cs.reflection_pair(2.0, 1, cfg_gamma(0.825), 2526.0)
        assert pair.A == pytest.approx(0.96767195053046915, rel=1e-10)
        assert pair.B == pytest.approx(0.82456267114624697, rel=1e-10)

    def test_bounds_and_tm_dominance(self):
        rng = np.random.default_rng(42)
        eps = 10.0 ** rng.uniform(-6, 6, 400) + 1.0
        p = 10.0 ** rng.uniform(0, 2, 400)
        A, B = _reflection_sq(eps, p)
        assert np.all((A >= 0.0) & (A <= 1.0))
        assert np.all((B >= 0.0) & (B <= 1.0))
        assert np.all(B <= A + 1e-12)

    def test_nan_rejected(self):
        # eps = inf used to warn in _reflection_sq and blame the TM coefficient
        for eps in (math.nan, math.inf):
            with pytest.raises(DomainError, match="eps must be >= 1"):
                cs.reflection_pair(2.0, 1, cs.ThermalGapConfig(T=300, a=1e-6), eps)
        with pytest.raises(DomainError, match="TM coefficient"):
            cs.ReflectionPair(math.nan, 0.5)
        with pytest.raises(DomainError, match="TE coefficient"):
            cs.ReflectionPair(0.5, np.array([0.5, math.nan]))

    @pytest.mark.parametrize("y", [math.inf, [2.0, math.inf]], ids=["scalar", "array"])
    def test_infinite_y_rejected(self, y):
        # y = inf passed the y >= m gamma test and returned nan with a RuntimeWarning
        cfg = cs.ThermalGapConfig(T=300.0, a=1e-6)
        for fn in (cs.lifshitz_variables, cs.reflection_pair):
            with pytest.raises(DomainError, match="y must be >= m.gamma = .* and finite"):
                fn(y, 1, cfg, 100.0)

    def test_array_eps_broadcasts_against_y(self):
        # a scalar y with an array eps raised TypeError: p was 0-d, so
        # lifshitz_variables returned floats while s had eps's shape
        cfg = cs.ThermalGapConfig(T=300.0, a=1e-6)
        eps = np.array([2.0, 30.0, 2526.0])
        for y in (2.0, np.array([[2.0], [3.0]])):
            pair = cs.reflection_pair(y, 1, cfg, eps)
            p, s = cs.lifshitz_variables(y, 1, cfg, eps)
            assert pair.A.shape == pair.B.shape == p.shape == s.shape == np.broadcast_shapes(
                np.shape(y), eps.shape)
            for i in np.ndindex(pair.A.shape):
                one = cs.reflection_pair(float(np.broadcast_to(y, p.shape)[i]), 1, cfg,
                                         float(eps[i[-1]]))
                assert (pair.A[i], pair.B[i]) == (one.A, one.B)

    def test_stable_when_eps_near_one(self):
        # the naive (s - p) difference would lose every digit here; B is
        # ((eps - 1)/16)^2 to first order, with eps - 1 of the float 1 + 1e-12
        A, B = _reflection_sq(1.0 + 1e-12, 2.0)
        assert B == pytest.approx(((1.0 + 1e-12 - 1.0) / 16.0) ** 2, rel=1e-6, abs=0.0)
        assert A > 0.0


class TestZeroFrequencyReflection:
    def test_drude_loses_te_mode(self, gold):
        cfg = cs.ThermalGapConfig(T=300.0, a=1e-6)
        for y in (0.01, 1.0, 30.0):
            pair = cs.zero_frequency_reflection(gold, y, cfg)
            assert pair.A == 1.0
            assert pair.B == 0.0

    def test_ideal_keeps_both(self):
        pair = cs.zero_frequency_reflection(cs.Ideal(), 1.0,
                                            cs.ThermalGapConfig(T=300.0, a=1e-6))
        assert (pair.A, pair.B) == (1.0, 1.0)

    def test_plasma_te_value(self):
        # ((sqrt(y^2+yhat^2)-y)/(sqrt(y^2+yhat^2)+y))^2 at y=2, a=1um
        cfg = cs.ThermalGapConfig(T=300.0, a=1e-6)
        pair = cs.zero_frequency_reflection(cs.Plasma(), 2.0, cfg)
        assert pair.A == 1.0
        assert pair.B == pytest.approx(0.8391669573, rel=1e-9)

    def test_plasma_matches_small_zeta_limit(self):
        # m = 1 reflection at T -> 0 must approach the analytic m = 0 form
        plasma = cs.Plasma()
        cfg = cs.ThermalGapConfig(T=1e-3, a=1e-6)
        eps = plasma.eps(cfg.matsubara(1))
        pair = cs.reflection_pair(2.0, 1, cfg, eps)
        pair0 = cs.zero_frequency_reflection(plasma, 2.0, cfg)
        assert pair.B == pytest.approx(pair0.B, rel=1e-12)

    def test_plasma_large_y_decay(self):
        cfg = cs.ThermalGapConfig(T=300.0, a=1e-6)
        yhat = cs.Plasma().omega_p_rad_s * 1e-6 / cs.C
        y = 1e4
        B = cs.zero_frequency_reflection(cs.Plasma(), y, cfg).B
        assert B == pytest.approx((yhat**2 / (4.0 * y * y)) ** 2, rel=1e-3)

    def test_tabulated_classes(self, gold):
        cfg = cs.ThermalGapConfig(T=300.0, a=1e-6)
        zs = np.geomspace(1e12, 1e17, 100)
        table = cs.PermittivityTable(zs, cs.eps_drude(zs, gold))
        drude_like = cs.Tabulated(table, "drude_like")
        plasma_like = cs.Tabulated(table, "plasma_like")
        assert cs.zero_frequency_reflection(drude_like, 1.0, cfg).B == 0.0
        assert cs.zero_frequency_reflection(plasma_like, 1.0, cfg).B > 0.0

    def test_unknown_model_rejected(self):
        cfg = cs.ThermalGapConfig(T=300.0, a=1e-6)
        with pytest.raises(UnsupportedModelError):
            cs.zero_frequency_reflection(object(), 1.0, cfg)

    @pytest.mark.parametrize("observable", [cs.total_pressure, cs.free_energy])
    def test_unknown_model_rejected_by_sums(self, observable):
        with pytest.raises(UnsupportedModelError):
            observable(cs.ThermalGapConfig(T=300.0, a=1e-6), object())

    def test_rule_out_of_range_rejected(self):
        class Overreflecting:
            def zero_frequency_reflection(self, y, cfg):
                return 1.5, 0.0

        cfg = cs.ThermalGapConfig(T=300.0, a=1e-6)
        with pytest.raises(DomainError):
            cs.zero_frequency_reflection(Overreflecting(), 1.0, cfg)

    def test_nan_y_rejected(self, gold):
        cfg = cs.ThermalGapConfig(T=300.0, a=1e-6)
        with pytest.raises(DomainError, match="y must be >= 0"):
            cs.zero_frequency_reflection(gold, [1.0, math.nan], cfg)

    @pytest.mark.parametrize("y", [math.inf, [1.0, math.inf]], ids=["scalar", "array"])
    @pytest.mark.parametrize("name", ["gold", "plasma", "ideal"])
    def test_infinite_y_rejected(self, gold, name, y):
        # the plasma rule used to return nan with a RuntimeWarning at y = inf
        model = {"gold": gold, "plasma": cs.Plasma(), "ideal": cs.Ideal()}[name]
        with pytest.raises(DomainError, match="y must be >= 0 and finite"):
            cs.zero_frequency_reflection(model, y, cs.ThermalGapConfig(T=300.0, a=1e-6))

    def test_sums_build_no_reflection_pair(self, gold, monkeypatch):
        # validation belongs to the public wrappers, not the engine's inner loop
        built = []
        monkeypatch.setattr(cs.ReflectionPair, "__post_init__",
                            lambda pair: built.append(pair))
        cs.total_pressure(cs.ThermalGapConfig(T=300.0, a=1e-6), gold)
        assert built == []


class TestModePressure:
    @pytest.mark.parametrize("a", [1e-6, 3e-6])
    def test_drude_zero_mode_closed_form(self, gold, a):
        cfg = cs.ThermalGapConfig(T=300.0, a=a)
        oracle = -ZETA3 * cs.K_B * 300.0 / (8.0 * np.pi * a**3)
        assert cs.mode_pressure(0, cfg, gold) == pytest.approx(oracle, rel=1e-8)

    def test_ideal_zero_mode_doubles_drude(self, gold):
        cfg = cs.ThermalGapConfig(T=300.0, a=1e-6)
        p_drude = cs.mode_pressure(0, cfg, gold)
        p_ideal = cs.mode_pressure(0, cfg, cs.Ideal())
        assert p_ideal == pytest.approx(2.0 * p_drude, rel=1e-12)

    def test_vacuum_gives_zero(self, vacuum):
        cfg = cs.ThermalGapConfig(T=300.0, a=1e-6)
        assert cs.mode_pressure(0, cfg, vacuum) == 0.0
        assert cs.mode_pressure(3, cfg, vacuum) == 0.0

    def test_every_mode_attractive(self, gold):
        cfg = cs.ThermalGapConfig(T=300.0, a=1e-6)
        for m in range(8):
            assert cs.mode_pressure(m, cfg, gold) < 0.0

    def test_negative_mode_rejected(self, gold):
        with pytest.raises(DomainError):
            cs.mode_pressure(-1, cs.ThermalGapConfig(T=300.0, a=1e-6), gold)

    def test_subnormal_mode_converges(self, gold):
        # past y ~ 355 the integrand is subnormal and rel_tol * |I| underflows
        # below any error estimate; m = 430 already gives -1.0e-310
        cfg = cs.ThermalGapConfig(T=300.0, a=1e-6)
        assert -3e-311 < cs.mode_pressure(431, cfg, gold) < -1e-311


BAD_INDICES = [1.5, 0.5, True, math.nan, np.float64(1.0), "1"]


class TestModeIndex:
    """One rule for every mode index: an integer (not a bool) at or above a bound."""

    @pytest.mark.parametrize("m", BAD_INDICES, ids=repr)
    @pytest.mark.parametrize("mode_fn", [cs.mode_pressure, cs.mode_free_energy])
    def test_mode_functions_reject(self, gold, mode_fn, m):
        # 1.5 used to integrate at 1.5 zeta_1, True to count as mode 1
        with pytest.raises(DomainError, match="mode index m must be an integer >= 0"):
            mode_fn(m, cs.ThermalGapConfig(T=300.0, a=1e-6), gold)

    @pytest.mark.parametrize("m", BAD_INDICES, ids=repr)
    def test_lifshitz_variables_reject(self, m):
        for fn in (cs.lifshitz_variables, cs.reflection_pair):
            with pytest.raises(DomainError, match="mode index m must be an integer >= 1"):
                fn(2.0, m, cfg_gamma(0.825), 2526.0)

    @pytest.mark.parametrize("m", BAD_INDICES + [-1], ids=repr)
    def test_fraction_rejects(self, gold, m):
        # -1 used to return the last mode's share through negative indexing
        res = cs.total_pressure(cs.ThermalGapConfig(T=300.0, a=1e-6), gold)
        with pytest.raises(DomainError, match="mode index m must be an integer >= 0"):
            res.fraction(m)

    def test_numpy_integers_accepted(self, gold):
        cfg = cs.ThermalGapConfig(T=300.0, a=1e-6)
        res = cs.total_pressure(cfg, gold)
        assert res.fraction(np.int64(1)) == res.fraction(1)
        assert res.fraction(np.int32(res.m_used)) == 0.0
        assert cs.mode_pressure(np.int64(2), cfg, gold) == cs.mode_pressure(2, cfg, gold)
        assert cs.lifshitz_variables(2.0, np.int64(1), cfg, 2526.0) == \
            cs.lifshitz_variables(2.0, 1, cfg, 2526.0)


class TestTotalPressure:
    def test_fractions_sum_to_hundred(self, gold):
        res = cs.total_pressure(cs.ThermalGapConfig(T=300.0, a=1e-6), gold)
        assert sum(f for _, _, f in res.per_mode) == pytest.approx(100.0, abs=0.01)

    def test_dominant_mode_at_one_micron_is_m1(self, gold):
        res = cs.total_pressure(cs.ThermalGapConfig(T=300.0, a=1e-6), gold)
        fractions = [res.fraction(m) for m in range(res.m_used)]
        assert int(np.argmax(fractions)) == 1

    def test_mode_magnitudes_eventually_decreasing(self, gold):
        res = cs.total_pressure(cs.ThermalGapConfig(T=300.0, a=1e-6), gold)
        mags = [abs(c) for _, c, _ in res.per_mode]
        peak = int(np.argmax(mags))
        assert all(mags[i] > mags[i + 1] for i in range(peak, len(mags) - 1))

    def test_magnitude_decreases_with_gap(self, gold):
        gaps = [0.5e-6, 1e-6, 2e-6, 4e-6]
        mags = [abs(cs.total_pressure(cs.ThermalGapConfig(T=300.0, a=a), gold).total)
                for a in gaps]
        assert all(m1 > m2 for m1, m2 in zip(mags, mags[1:]))

    @pytest.mark.parametrize("roundtrip", [lambda r: pickle.loads(pickle.dumps(r)),
                                           copy.deepcopy], ids=["pickle", "deepcopy"])
    def test_unread_result_roundtrips(self, gold, roundtrip):
        cfg = cs.ThermalGapConfig(T=300.0, a=1e-6)
        res = cs.total_pressure(cfg, gold)
        copied = roundtrip(res)  # before anything reads per_mode
        fresh = cs.total_pressure(cfg, gold)
        assert (copied.total, copied.m_used) == (fresh.total, fresh.m_used)
        assert copied.per_mode == fresh.per_mode and copied == fresh

    def test_vacuum_total_is_zero(self, vacuum):
        res = cs.total_pressure(cs.ThermalGapConfig(T=300.0, a=1e-6), vacuum)
        assert res.total == 0.0
        assert res.fraction(0) == 0.0

    def test_rel_tol_robustness(self, gold):
        cfg = cs.ThermalGapConfig(T=300.0, a=1e-6)
        tight = cs.total_pressure(cfg, gold).total
        loose = cs.total_pressure(cfg, gold,
                                  cs.QuadratureSettings(rel_tol=1e-8)).total
        assert abs(loose - tight) / abs(tight) < 1e-7

    def test_attractive_for_all_models(self, gold):
        cfg = cs.ThermalGapConfig(T=300.0, a=1e-6)
        for model in (gold, cs.Plasma(), cs.Ideal()):
            assert cs.total_pressure(cfg, model).total < 0.0

    def test_table_above_first_matsubara_frequency_rejected(self, gold):
        # zeta_1 = 2.47e14 rad/s at 300 K lies below the first table node
        zs = np.geomspace(1e15, 1e18, 50)
        model = cs.Tabulated(cs.PermittivityTable(zs, cs.eps_drude(zs, gold)))
        with pytest.raises(TableRangeError):
            cs.total_pressure(cs.ThermalGapConfig(T=300.0, a=1e-6), model)

    def test_table_range_error_names_the_mode(self, gold):
        # at 10 K zeta_1 = 8.226e12 rad/s lies below a table starting at 1e13
        zs = np.geomspace(1e13, 1e18, 60)
        model = cs.Tabulated(cs.PermittivityTable(zs, cs.eps_drude(zs, gold)))
        with pytest.raises(TableRangeError) as exc:
            cs.total_pressure(cs.ThermalGapConfig(T=10.0, a=1e-6), model)
        message = str(exc.value)
        assert "m = 1" in message
        assert "8.226e+12" in message
        assert "[1e+13, 1e+18]" in message

    def test_table_range_error_names_the_upper_mode(self, gold):
        # the sum needs m = 1..18 at 300 K / 1 um; zeta_9 is the first above 2e15
        zs = np.geomspace(1e13, 2e15, 60)
        model = cs.Tabulated(cs.PermittivityTable(zs, cs.eps_drude(zs, gold)))
        cfg = cs.ThermalGapConfig(T=300.0, a=1e-6)
        assert cfg.matsubara(8) < 2e15 < cfg.matsubara(9)
        with pytest.raises(TableRangeError) as exc:
            cs.total_pressure(cfg, model)
        message = str(exc.value)
        assert "m = 9 " in message
        assert f"zeta_m = {cfg.matsubara(9):.4g} rad/s" in message

    @pytest.mark.parametrize("observable", [cs.total_pressure, cs.free_energy])
    def test_millikelvin_sum_is_the_zero_temperature_limit(self, gold, zero_temperature,
                                                           observable):
        # 1 mK at 10 nm needs about 8.8e8 modes, and the thermal part there
        # is 1.2e-14 of F: the sum must give the T = 0 value, in little memory
        tracemalloc.start()
        try:
            result = observable(cs.ThermalGapConfig(T=1e-3, a=1e-8), gold)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        if observable is cs.total_pressure:
            assert result.m_used > 8e8
            result, name = result.total, "pressure"
        else:
            name = "free_energy"
        assert result == pytest.approx(zero_temperature(gold, 1e-8, name), rel=1e-10, abs=0.0)

    def test_sums_past_2_to_the_64_modes_reach_zero_temperature(self, gold, zero_temperature):
        # M - 1 > 2^64 used to make _tail_rule's last stretch end a Python
        # int, and its rows object arrays (TypeError); measured within
        # 2.3e-16 of the T -> 0 value at 1e-16 and 1e-30 K
        for T in (1e-16, 1e-30):
            cfg = cs.ThermalGapConfig(T=T, a=1e-6)
            assert cs.total_pressure(cfg, gold).total == pytest.approx(
                zero_temperature(gold, 1e-6, "pressure"), rel=1e-12, abs=0.0)
            assert cs.free_energy(cfg, gold) == pytest.approx(
                zero_temperature(gold, 1e-6, "free_energy"), rel=1e-12, abs=0.0)

    def test_huge_result_gives_fractions_but_no_table(self, gold):
        cfg = cs.ThermalGapConfig(T=1e-3, a=1e-8)
        res = cs.total_pressure(cfg, gold)
        assert res.m_used > lifshitz._ROW_CAP
        for m in (0, 1, 7, lifshitz._K_MIN + 3, 10**6):
            assert res.fraction(m) == pytest.approx(
                100.0 * cs.mode_pressure(m, cfg, gold) / res.total, rel=1e-9, abs=0.0)
        assert res.fraction(res.m_used) == 0.0
        for read in (lambda: res.per_mode, lambda: pickle.dumps(res), lambda: copy.copy(res)):
            with pytest.raises(CasimirError, match=f"m_used = {res.m_used} modes"):
                read()

    def test_rule_sum_lists_every_mode(self, gold):
        # at 2 K / 1 um the rule in m sums the modes past _K_MIN; fraction(m)
        # evaluates mode m alone on the sum's final t-rule, without the table,
        # and per_mode still lists every mode, evaluated on the same rule
        cfg = cs.ThermalGapConfig(T=2.0, a=1e-6)
        res = cs.total_pressure(cfg, gold)
        ms = (0, 1, lifshitz._K_MIN - 1, lifshitz._K_MIN, 1000, res.m_used - 1)
        fractions = [res.fraction(m) for m in ms]
        assert "per_mode" not in vars(res)
        terms = [c for _, c, _ in res.per_mode]
        assert len(terms) == res.m_used > lifshitz._RULE_RATIO * lifshitz._K_MIN
        assert math.fsum(terms) == pytest.approx(res.total, rel=1e-10, abs=0.0)
        for m, fraction in zip(ms, fractions):
            assert terms[m] == pytest.approx(cs.mode_pressure(m, cfg, gold), rel=1e-9, abs=0.0)
            assert fraction == pytest.approx(100.0 * terms[m] / res.total, rel=1e-13, abs=0.0)

    def test_table_range_error_names_the_first_mode_the_rule_needs(self, gold):
        # at 2 K / 1 um the rule in m takes the modes past _K_MIN; the table
        # ends inside its range, and the message names the first integer m
        zs = np.geomspace(1e11, 2e15, 60)
        model = cs.Tabulated(cs.PermittivityTable(zs, cs.eps_drude(zs, gold)))
        cfg = cs.ThermalGapConfig(T=2.0, a=1e-6)
        n = math.ceil(2e15 / cfg.matsubara(1))
        assert cfg.matsubara(n - 1) < 2e15 < cfg.matsubara(n) and n > lifshitz._K_MIN
        with pytest.raises(TableRangeError) as exc:
            cs.total_pressure(cfg, model)
        message = str(exc.value)
        assert f"m = {n} " in message
        assert f"zeta_m = {cfg.matsubara(n):.4g} rad/s" in message

    def test_row_convergence_error_names_the_modes(self):
        # an m >= 1 rule that no panel count resolves: a lone row of it
        # refines and fails, and the explicit sum's fixed t-rule reads an
        # error estimate far past its ceiling; a sum also fails on rows that
        # are not finite
        cfg = cs.ThermalGapConfig(T=300.0, a=1e-6)
        with pytest.raises(ConvergenceError, match="did not reach rel_tol"):
            cs.mode_pressure(1, cfg, Rippled(1e6))
        with pytest.raises(ConvergenceError) as exc:
            cs.total_pressure(cfg, Rippled(1e6))
        message = str(exc.value)
        assert message.startswith("Matsubara modes m = 1..")
        assert "T = 300 K" in message and message.endswith("its panels do not resolve the rows")
        assert isinstance(exc.value.estimate, float) and exc.value.config is cfg
        with pytest.raises(ConvergenceError) as exc:
            cs.total_pressure(cfg, Rippled(math.nan))
        message = str(exc.value)
        assert message.startswith("Matsubara modes m = 1..")
        assert "T = 300 K" in message and message.endswith("NaN or infinite, or too large to sum")

    def test_far_rows_alone_fail_on_the_null_rule(self):
        # at 5 um and 300 K every mode m >= 1 lies at y_lo = m gamma >= 2, so
        # the whole sum is on the Laguerre rule, whose null rule reads the
        # unresolved ripple
        cfg = cs.ThermalGapConfig(T=300.0, a=5e-6)
        assert cfg.gamma >= lifshitz._FAR
        with pytest.raises(ConvergenceError) as exc:
            cs.total_pressure(cfg, Rippled(1e6))
        message = str(exc.value)
        assert message.startswith("Matsubara modes m = 1..")
        assert "a = 5e-06 m" in message and message.endswith("its panels do not resolve the rows")
        assert isinstance(exc.value.estimate, float) and exc.value.config is cfg
        with pytest.raises(ConvergenceError) as exc:
            cs.total_pressure(cfg, Rippled(math.nan))
        assert str(exc.value).endswith("NaN or infinite, or too large to sum")

    def test_zero_mode_convergence_error_carries_the_whole_term(self):
        # below eps_t the sum names its first part, the m = 0 remainder, and
        # its estimate is the m = 0 integral on the fixed t-rule with its
        # closed part, not the smooth remainder alone
        cfg = cs.ThermalGapConfig(T=300.0, a=1e-6)
        with pytest.raises(ConvergenceError) as exc:
            cs.free_energy(cfg, cs.Plasma(), cs.QuadratureSettings(rel_tol=1e-300))
        assert str(exc.value).startswith("Matsubara mode m = 0")
        kernel, _, _, zero = lifshitz._FREE_ENERGY
        (converged,), = lifshitz._mode_integrals(cs.Plasma(), cfg, [0.0], (kernel,), (zero,),
                                                 1e-13)
        assert exc.value.estimate == pytest.approx(converged, rel=1e-10, abs=0.0)

    def test_rule_in_m_failure_names_the_modes(self):
        class Wavy:
            """Drude-like m = 0 rule; m >= 1 coefficients that oscillate
            every few modes at 1 mK, which no rule in m resolves."""

            def zero_frequency_reflection(self, y, cfg):
                return 1.0, 0.0

            def matsubara_reflection(self, zeta, T):
                A = 0.5 + 0.4 * np.sin(zeta / 1e9)
                return lambda p: (A, 0.0)

        with pytest.raises(ConvergenceError) as exc:
            cs.free_energy(cs.ThermalGapConfig(T=1e-3, a=1e-8), Wavy())
        message = str(exc.value)
        assert message.startswith("Matsubara modes m = 1..8")
        assert "T = 0.001 K" in message and "rule in m" in message


class TestMatsubaraTruncation:
    """The truncated sum against explicit sums of the public mode functions."""

    MODELS = ["drude", "plasma", "drude_like", "plasma_like"]

    @staticmethod
    def model(name, gold):
        if name in ("drude_like", "plasma_like"):
            return drude_table(gold, name)
        return gold if name == "drude" else cs.Plasma()

    @pytest.mark.parametrize("T", [2.0, 300.0])
    @pytest.mark.parametrize("name", MODELS)
    def test_tail_bound_exceeds_explicit_tail(self, gold, name, T):
        cfg = cs.ThermalGapConfig(T=T, a=1e-6)
        model = self.model(name, gold)
        M = cs.total_pressure(cfg, model).m_used
        for mode_fn, (kernel, prefactor, coeffs, zero) in (
                (cs.mode_pressure, lifshitz._PRESSURE),
                (cs.mode_free_energy, lifshitz._FREE_ENERGY)):
            tail = fsum_modes(mode_fn, cfg, model, start=M, stop=1e-4)
            bound = abs(prefactor(cfg)) * lifshitz._tail_bound(M, cfg.gamma, coeffs)
            assert 0.0 < abs(tail) <= bound

    @pytest.mark.parametrize("T, a", [(300.0, 1e-6), (300.0, 0.2e-6), (20.0, 1e-6)])
    @pytest.mark.parametrize("name", ["drude", "plasma", "drude_like"])
    def test_sum_matches_fsum_of_modes(self, gold, name, T, a):
        cfg = cs.ThermalGapConfig(T=T, a=a)
        model = self.model(name, gold)
        fine = cs.QuadratureSettings(rel_tol=1e-13)
        P = fsum_modes(cs.mode_pressure, cfg, model, fine)
        F = fsum_modes(cs.mode_free_energy, cfg, model, fine)
        assert cs.total_pressure(cfg, model).total == pytest.approx(P, rel=1e-10, abs=0.0)
        assert cs.free_energy(cfg, model) == pytest.approx(F, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("name, T, most_rows, rel", [
        pytest.param("drude", 2.0, 600, 2e-13, id="drude"),
        pytest.param("sparse_table", 2.0, 600, 2e-13, id="sparse_table"),
        pytest.param("drude", 5.0, 300, 2e-12, id="drude-5K"),
        pytest.param("dense_table", 5.0, 1252, 2e-12, id="dense_table-5K")])
    def test_rule_in_m_matches_fsum_of_modes(self, gold, name, T, most_rows, rel, monkeypatch):
        # at 2 K / 1 um (about 3,000 modes) the modes past _K_MIN go to the
        # rule in m; the sparse table bends at 8 nodes inside its range,
        # where the rule cuts.  At 5 K (about 1,200 modes) it evaluates 163
        # rows, once each on the first t-panels, where all M - 1 were summed,
        # as its budget now counts the explicit rows 1..K-1.  Measured at
        # 2 K within 8.1e-14, at 5 K within 2.3e-13 (P) and 8.7e-13 (F),
        # mostly the error of the one-sided g'(K) of the end terms; without
        # the g'''/720 end term, 2.4e-13 to 7.3e-12 at 2 K and 1.5e-11 to
        # 3.4e-11 at 5 K.  The dense table's 400 nodes cut [K, M - 1] into
        # stretches shorter than _SEGMENT_MIN at 5 K (M = 1,252 for P, 1,143
        # for F), so the rule from K = 64 keeps all its rows: M - 1 rows in
        # all, within 1.0e-13
        cfg = cs.ThermalGapConfig(T=T, a=1e-6)
        zs = np.geomspace(1e11, 1e18, 36)
        model = {"drude": gold, "dense_table": drude_table(gold, "drude_like"),
                 "sparse_table": cs.Tabulated(cs.PermittivityTable(zs, cs.eps_drude(zs, gold)))
                 }[name]
        counts = count_rows(monkeypatch)
        for observable, mode_fn in ((lifshitz._PRESSURE, cs.mode_pressure),
                                    (lifshitz._FREE_ENERGY, cs.mode_free_energy)):
            counts.update(integrated=0, placed=0)
            (value, M, _), = lifshitz._sum_modes([cfg], model, cs.DEFAULT_QUAD, (observable,))[0]
            assert counts["integrated"] < most_rows
            assert counts["integrated"] + counts["placed"] < most_rows
            assert counts["integrated"] + counts["placed"] <= M - 1
            assert value == pytest.approx(fsum_modes(mode_fn, cfg, model), rel=rel, abs=0.0)
        if name == "sparse_table":
            nodes = zs / cfg.matsubara(1)
            assert np.sum((nodes > lifshitz._K_MIN) & (nodes < 2900)) == 8

    def test_rule_in_m_costs_no_more_rows_than_the_modes(self, gold, monkeypatch):
        # 1 um at 2-20 K, M about 300-3,200: no sum evaluates more rows,
        # placement and failed tries of its rule in m included, than the
        # M - 1 of an explicit sum, and the sums of M > 512 modes (2-11 K)
        # fewer than 500; at K = 256 those up to M = 2,048 were explicit
        counts = count_rows(monkeypatch)
        for T in np.arange(2.0, 20.5):
            for observable in (lifshitz._PRESSURE, lifshitz._FREE_ENERGY):
                counts.update(integrated=0, placed=0)
                (_, M, _), = lifshitz._sum_modes([cs.ThermalGapConfig(T=T, a=1e-6)], gold,
                                                 cs.DEFAULT_QUAD, (observable,))[0]
                rows = counts["integrated"] + counts["placed"]
                assert rows <= M - 1
                assert rows < 500 or M <= 512


    def test_rule_in_m_takes_its_value_from_placement_at_a_tight_tolerance(self, gold,
                                                                            monkeypatch):
        # at rel_tol 1e-12 P and F of 2 K / 1 um are rule sums (385 and 287
        # rows, 626 stacked), whose values come from the rows placed on the
        # fixed t-rule: no t-integral of their own and no adaptive_quad
        # call, stacked or alone (the stack places one rule from both
        # kernels, so its values are the lone sums' within rel_tol).  At 5 K the
        # rule misses its budget at this tolerance and the sums are explicit.
        # Measured within 8.9e-16 of math.fsum of the modes
        cfg = cs.ThermalGapConfig(T=2.0, a=1e-6)
        quad = cs.QuadratureSettings(rel_tol=1e-12)
        calls, integrate, quads, sums, rows = [], lifshitz._integrate, [], [], lifshitz._rows

        def stored_rows(*args):
            sums.append(rows(*args))
            return sums[-1]

        monkeypatch.setattr(lifshitz, "_integrate",
                            lambda *args: calls.append(1) or integrate(*args))
        monkeypatch.setattr(lifshitz, "adaptive_quad", lambda *args, **kwargs: quads.append(1))
        monkeypatch.setattr(lifshitz, "_rows", stored_rows)
        (P, M_P, _), (F, M_F, _) = lifshitz._sum_modes(
            [cfg], gold, quad, (lifshitz._PRESSURE, lifshitz._FREE_ENERGY))[0]
        assert M_P > M_F > lifshitz._RULE_RATIO * lifshitz._K_MIN
        assert sums[-1][0] is None and sums[-1][1] is not None
        assert calls == quads == []
        for stacked, lone in ((P, lambda: cs.total_pressure(cfg, gold, quad).total),
                              (F, lambda: cs.free_energy(cfg, gold, quad))):
            assert stacked == pytest.approx(lone(), rel=quad.rel_tol, abs=0.0)
            assert calls == quads == [] and sums[-1][0] is None
        monkeypatch.undo()
        fine = cs.QuadratureSettings(rel_tol=1e-13)
        assert P == pytest.approx(fsum_modes(cs.mode_pressure, cfg, gold, fine),
                                  rel=quad.rel_tol, abs=0.0)
        assert F == pytest.approx(fsum_modes(cs.mode_free_energy, cfg, gold, fine),
                                  rel=quad.rel_tol, abs=0.0)

    @pytest.mark.parametrize("T, a", [(1.0, 1e-6), (2.0, 0.3e-6)])
    @pytest.mark.parametrize("sum_of", ["P", "F"])
    def test_rule_in_m_holds_rel_tol_where_its_panel_estimate_bisects(
            self, gold, monkeypatch, sum_of, T, a):
        # at rel_tol 1e-13 the rule's panel estimate (the t-integrals' own,
        # _gk15_panels) decides where the rule places rows: it bisects its
        # panels once or twice (145-160 rows).  The explicit sum of all M - 1
        # rows, with _RULE_RATIO raised past M, measured 1.2e-16 to 1.9e-16
        # from it
        cfg, quad = cs.ThermalGapConfig(T=T, a=a), cs.QuadratureSettings(rel_tol=1e-13)
        total = {"P": lambda: cs.total_pressure(cfg, gold, quad).total,
                 "F": lambda: cs.free_energy(cfg, gold, quad)}[sum_of]
        bisections, bisect = [], lifshitz.bisect_worst

        def counting(*args):
            bisections.append(len(args[0]))
            return bisect(*args)

        monkeypatch.setattr(lifshitz, "bisect_worst", counting)
        rule = total()
        assert bisections
        monkeypatch.setattr(lifshitz, "_RULE_RATIO", 10 ** 9)
        bisections.clear()
        explicit = total()
        assert not bisections
        assert abs(rule - explicit) <= quad.rel_tol * abs(explicit)


class TestStackedSums:
    """P and F of one (a, T) as one stacked sum, against the separate sums."""

    OBSERVABLES = (lifshitz._PRESSURE, lifshitz._FREE_ENERGY)

    @staticmethod
    def model(name, gold, gold_bg):
        return {"drude": gold, "bg": gold_bg, "plasma": cs.Plasma(), "ideal": cs.Ideal(),
                "drude_like": drude_table(gold, "drude_like"),
                "plasma_like": drude_table(gold, "plasma_like")}[name]

    @pytest.mark.parametrize("T, a", [(300.0, 1e-6), (350.0, 0.3e-6), (20.0, 1e-6)])
    @pytest.mark.parametrize("name", ["drude", "bg", "drude_like", "plasma_like",
                                      "plasma", "ideal"])
    def test_explicit_sums_equal_separate_sums_bit_for_bit(self, gold, gold_bg, name, T, a):
        # each observable keeps its own M, so the stack sums a different
        # number of rows for each; per_mode comes from the same final rule
        cfg = cs.ThermalGapConfig(T=T, a=a)
        model = self.model(name, gold, gold_bg)
        (P, M_P, terms), (F, M_F, _) = lifshitz._sum_modes([cfg], model, cs.DEFAULT_QUAD,
                                                           self.OBSERVABLES)[0]
        res = cs.total_pressure(cfg, model)
        assert (P, M_P) == (res.total, res.m_used)
        assert F == cs.free_energy(cfg, model)
        assert np.array_equal(terms(), [c for _, c, _ in res.per_mode])
        assert M_P <= lifshitz._RULE_RATIO * lifshitz._K_MIN and M_P != M_F

    @pytest.mark.parametrize("a", [1e-6, 50e-9])
    @pytest.mark.parametrize("T", [2.0, 1.5])
    def test_rule_sums_agree_with_separate_sums(self, gold, T, a):
        # one rule in m, placed from both kernels, up to the larger M
        cfg = cs.ThermalGapConfig(T=T, a=a)
        (P, M_P, _), (F, M_F, _) = lifshitz._sum_modes([cfg], gold, cs.DEFAULT_QUAD,
                                                       self.OBSERVABLES)[0]
        assert M_P > M_F > lifshitz._RULE_RATIO * lifshitz._K_MIN
        assert P == pytest.approx(cs.total_pressure(cfg, gold).total, rel=1e-10, abs=0.0)
        assert F == pytest.approx(cs.free_energy(cfg, gold), rel=1e-10, abs=0.0)

    def test_rows_are_evaluated_once_for_both(self, gold, monkeypatch):
        calls, reflection_sq = [], dispersion._reflection_sq

        def counting(eps, p):
            calls.append(p.shape)
            return reflection_sq(eps, p)

        monkeypatch.setattr(dispersion, "_reflection_sq", counting)
        cfg = cs.ThermalGapConfig(T=300.0, a=1e-6)
        (_, M_P, _), (_, M_F, _) = lifshitz._sum_modes([cfg], gold, cs.DEFAULT_QUAD,
                                                       self.OBSERVABLES)[0]
        # the modes 1..18, each evaluated once for both kernels: m = 1, 2
        # (y_lo = m gamma < 2) on the nodes of the fixed t-rule, the rest on
        # those of the Laguerre rule
        assert calls == [(2, len(lifshitz._T_NODES)), (16, len(lifshitz._L_NODES))]
        assert max(M_P, M_F) - 1 == 18 and cfg.gamma < 1.0 <= 2 * cfg.gamma < lifshitz._FAR


class TestSweeps:
    """Every (a, T) of a sweep as one stacked sum, against the one-config sums."""

    GRID = [cs.ThermalGapConfig(T=T, a=a) for a in (0.3e-6, 1e-6, 5e-6) for T in (350.0, 300.0)]
    # explicit and rule sums at two temperatures, with rows of both in shared blocks
    MIXED = [cs.ThermalGapConfig(T=T, a=a) for T, a in
             ((300.0, 1e-6), (1.5, 50e-9), (300.0, 0.3e-6), (1.5, 1e-6))]

    @staticmethod
    def assert_sums_equal_lone_sums(configs, model, observables):
        sweep = lifshitz._sum_modes(configs, model, cs.DEFAULT_QUAD, observables)
        assert len(sweep) == len(configs)
        for cfg, sums in zip(configs, sweep):
            lone = lifshitz._sum_modes([cfg], model, cs.DEFAULT_QUAD, observables)[0]
            for (value, M, _), (lone_value, lone_M, _) in zip(sums, lone, strict=True):
                assert M == lone_M
                assert value == pytest.approx(lone_value, rel=cs.DEFAULT_QUAD.rel_tol, abs=0.0)

    @pytest.mark.parametrize("observables", [(lifshitz._PRESSURE,), (lifshitz._FREE_ENERGY,),
                                             (lifshitz._PRESSURE, lifshitz._FREE_ENERGY)],
                             ids=["P", "F", "PF"])
    @pytest.mark.parametrize("name", ["drude", "bg", "drude_like", "plasma_like",
                                      "plasma", "ideal"])
    def test_sweep_equals_one_config_sums(self, gold, gold_bg, name, observables):
        model = TestStackedSums.model(name, gold, gold_bg)
        self.assert_sums_equal_lone_sums(self.GRID, model, observables)

    def test_mixed_stack_equals_one_config_sums(self, gold):
        M = [M for (_, M, _), in lifshitz._sum_modes(self.MIXED, gold, cs.DEFAULT_QUAD,
                                                     (lifshitz._PRESSURE,))]
        rule = lifshitz._RULE_RATIO * lifshitz._K_MIN
        assert M[0] < rule < M[1] and M[3] > rule  # explicit and rule sums
        self.assert_sums_equal_lone_sums(self.MIXED, gold,
                                         (lifshitz._PRESSURE, lifshitz._FREE_ENERGY))

    def test_plasma_mixed_stack_equals_one_config_sums(self):
        # the m = 0 remainders and the rule sums take their values from the
        # plan, the explicit sums from the stack
        M = [M for (_, M, _), in lifshitz._sum_modes(self.MIXED, cs.Plasma(), cs.DEFAULT_QUAD,
                                                     (lifshitz._PRESSURE,))]
        rule = lifshitz._RULE_RATIO * lifshitz._K_MIN
        assert M[0] < rule < M[1] and M[3] > rule
        self.assert_sums_equal_lone_sums(self.MIXED, cs.Plasma(),
                                         (lifshitz._PRESSURE, lifshitz._FREE_ENERGY))

    @pytest.mark.parametrize("name, configs", [
        pytest.param("drude", GRID, id="grid"), pytest.param("drude", MIXED, id="mixed"),
        pytest.param("plasma", GRID, id="plasma-grid"),
        pytest.param("plasma", MIXED, id="plasma-mixed"),
        pytest.param("plasma_like", GRID, id="plasma_like-grid")])
    def test_sweep_makes_one_stack_and_no_adaptive_quad_call(self, gold, gold_bg, monkeypatch,
                                                             name, configs):
        calls, integrate, quads = [], lifshitz._integrate, []
        monkeypatch.setattr(lifshitz, "_integrate",
                            lambda *args: calls.append(1) or integrate(*args))
        monkeypatch.setattr(lifshitz, "adaptive_quad", lambda *args, **kwargs: quads.append(1))
        lifshitz._sum_modes(configs, TestStackedSums.model(name, gold, gold_bg), cs.DEFAULT_QUAD,
                            (lifshitz._PRESSURE, lifshitz._FREE_ENERGY))
        # every config's explicit sums are one stack on the fixed t-rule; a
        # lossy metal's m = 0 terms take no integral, and a plasma-like
        # model's m = 0 remainders and the rule sums take their values from
        # the plan
        assert len(calls) == 1 and quads == []

    def test_blocks_are_shared_across_gaps(self, gold, monkeypatch):
        # 40 gaps at two temperatures: eps is bound once per block of one
        # temperature, never once per (a, T); the near rows (y_lo < 2) of a
        # temperature fill blocks of 64 rows and its far rows blocks of 256
        binds, reflection = [], cs.Drude.matsubara_reflection

        def counting(self, zeta, T):
            binds.append((len(zeta), T))
            return reflection(self, zeta, T)

        monkeypatch.setattr(cs.Drude, "matsubara_reflection", counting)
        configs = [cs.ThermalGapConfig(T=T, a=a) for a in np.linspace(0.3e-6, 5e-6, 40)
                   for T in (350.0, 300.0)]
        sweep = lifshitz._sum_modes(configs, gold, cs.DEFAULT_QUAD, (lifshitz._PRESSURE,))
        for T in (350.0, 300.0):
            far = [cfg.matsubara(np.arange(1.0, M)) >= lifshitz._FAR * cs.C / cfg.a
                   for cfg, ((_, M, _),) in zip(configs, sweep) if cfg.T == T]
            want = []
            for rows, size in ((sum(len(x) - x.sum() for x in far), lifshitz._ROW_BLOCK),
                               (sum(x.sum() for x in far), lifshitz._FAR_BLOCK)):
                full, rest = divmod(int(rows), size)
                want += [size] * full + [rest] * (rest > 0)
            assert [n for n, t in binds if t == T] == want
            assert len(want) == 3  # 30 and 39 near rows, 356 and 417 far rows

    def test_rule_sums_bind_eps_only_in_placement(self, gold, monkeypatch):
        # a placed rule in m gives its value from the rows placed on the
        # fixed t-rule, so no stack binds eps for it: F at 2 K / 1 um (one
        # 178-row rule sum) and P + F at 1e-12 (626 rows) bind each block
        # once, while placing, and never inside _integrate, which they do
        # not call
        binds, inside = [], []
        integrate, reflection = lifshitz._integrate, cs.Drude.matsubara_reflection

        def counting_integrate(*args):
            inside.append(True)
            try:
                return integrate(*args)
            finally:
                inside.pop()

        def counting(self, zeta, T):
            binds.append((tuple(np.ravel(zeta)), bool(inside)))
            return reflection(self, zeta, T)

        monkeypatch.setattr(lifshitz, "_integrate", counting_integrate)
        monkeypatch.setattr(cs.Drude, "matsubara_reflection", counting)
        cfg = cs.ThermalGapConfig(T=2.0, a=1e-6)
        for quad in (cs.DEFAULT_QUAD, cs.QuadratureSettings(rel_tol=1e-12)):
            binds.clear()
            lifshitz._sum_modes([cfg], gold, quad, (lifshitz._PRESSURE, lifshitz._FREE_ENERGY))
            assert binds and not any(within for _, within in binds)
            assert len(set(binds)) == len(binds)

    def test_only_explicit_rows_are_laid_out_in_the_stack(self, gold, monkeypatch):
        # _integrate lays out only the stack's explicit sums, and a lone
        # row's adaptive t-integral lays out its rows once, before its first
        # round: F at 2 K / 1 um (one rule sum) calls no _integrate, and a
        # plasma sweep at 300 and 350 K lays out no m = 0 row there (the
        # plan evaluates its remainders); plasma lowtemp's f(0) remainder
        # is laid out once, beside f_te rows that refine
        events, inside = [], []
        integrate, layout, contract = lifshitz._integrate, lifshitz._layout, lifshitz._contract

        def counting_integrate(*args):
            inside.append(True)
            events.append(("integrate", None))
            try:
                return integrate(*args)
            finally:
                inside.pop()

        def counting_layout(model, at, kernels, zeta, *args):
            if inside:
                events.append(("layout", float(zeta[0, 0])))
            return layout(model, at, kernels, zeta, *args)

        def counting_contract(blocks, t, *args):
            if inside:
                events.append(("round", len(t)))
            return contract(blocks, t, *args)

        monkeypatch.setattr(lifshitz, "_integrate", counting_integrate)
        monkeypatch.setattr(lifshitz, "_layout", counting_layout)
        monkeypatch.setattr(lifshitz, "_contract", counting_contract)
        cs.free_energy(cs.ThermalGapConfig(T=2.0, a=1e-6), gold)
        assert events == []
        configs = [cs.ThermalGapConfig(T=T, a=a) for a in (0.5e-6, 1e-6, 2e-6)
                   for T in (300.0, 350.0)]
        lifshitz._sum_modes(configs, cs.Plasma(), cs.DEFAULT_QUAD,
                            (lifshitz._PRESSURE, lifshitz._FREE_ENERGY))
        # one layout per temperature and class of rows, near (y_lo < 2) and
        # far, then one round on each class's nodes
        assert events[0] == ("integrate", None) and events[-2:] == [
            ("round", len(lifshitz._T_NODES)), ("round", len(lifshitz._L_NODES))]
        assert ("layout", 0.0) not in events and len(events) == 7
        events.clear()
        lifshitz._te_mode_functions(np.linspace(0.0, 0.5, 26) * cs.C / 1e-6, 1e-6, cs.Plasma(),
                                    300.0, cs.DEFAULT_QUAD)
        zero = [i for i, event in enumerate(events) if event == ("layout", 0.0)]
        rounds = [i for i, (kind, _) in enumerate(events) if kind == "round"]
        assert len(zero) == 1 and len(rounds) >= 2 and zero[0] < rounds[0]

    @pytest.mark.parametrize("others", [[(None, 0.5e-6)], [(350.0, 0.5e-6)],
                                        [(None, 2e-6), (350.0, 0.7e-6)]],
                             ids=["same-T", "other-T", "both"])
    @pytest.mark.parametrize("T, a", [(300.0, 1e-6), (300.0, 0.3e-6), (2.0, 1e-6), (5.0, 1e-6)])
    @pytest.mark.parametrize("name", ["drude", "plasma", "ideal"])
    def test_first_config_equals_its_lone_sum_bit_for_bit(self, gold, gold_bg, name, T, a,
                                                          others):
        # the first config's rows open their blocks, and each (config,
        # observable) adds its own runs block by block, so what else the
        # stack holds cannot change the first config's rounding
        model = TestStackedSums.model(name, gold, gold_bg)
        configs = [cs.ThermalGapConfig(T=T, a=a)] + [
            cs.ThermalGapConfig(T=other_T or T, a=other_a) for other_T, other_a in others]
        observables = (lifshitz._PRESSURE, lifshitz._FREE_ENERGY)
        stacked = lifshitz._sum_modes(configs, model, cs.DEFAULT_QUAD, observables)[0]
        lone = lifshitz._sum_modes(configs[:1], model, cs.DEFAULT_QUAD, observables)[0]
        assert [(value, M) for value, M, _ in stacked] == [(value, M) for value, M, _ in lone]

    # explicit sums at two temperatures whose modes cross y_lo = m gamma = 2:
    # their first modes at 0.3-2 um are near rows, the rest and every mode
    # at 4 um far rows
    CROSSING = [cs.ThermalGapConfig(T=T, a=a) for a in (0.3e-6, 1e-6, 1.3e-6, 2e-6, 4e-6)
                for T in (300.0, 350.0)]

    @pytest.mark.parametrize("name", ["drude", "bg", "plasma", "ideal"])
    def test_sweep_crossing_y_lo_2_equals_lone_sums_bit_for_bit(self, gold, gold_bg, name):
        # one layout of every row would cut blocks that hold near and far
        # rows; the classes put each sum's near rows whole in one block and
        # its far rows whole in another, and each component adds its far
        # rows' node products to its panel values in one math.fsum: every
        # sum of the sweep, not only the first, is its lone sum to the bit,
        # with both observables and with each alone
        model = TestStackedSums.model(name, gold, gold_bg)
        observables = (lifshitz._PRESSURE, lifshitz._FREE_ENERGY)
        parts, far = [], []
        lifshitz._plan(self.CROSSING, model, cs.DEFAULT_QUAD.rel_tol, observables, parts)
        sums = [one for _, one, value in parts if value is None]
        assert len(sums) == len(self.CROSSING)
        assert any(b.y_lo.min() < lifshitz._FAR <= b.y_lo.max()
                   for b in lifshitz._bind(model, enumerate(sums)))
        near = lifshitz._bind(model, enumerate(sums), far)
        assert len(near) == len(far) == 2  # one block of each class per temperature
        assert all(b.y_lo.max() < lifshitz._FAR for b in near)
        assert all(b.y_lo.min() >= lifshitz._FAR for b in far)
        sweep = lifshitz._sum_modes(self.CROSSING, model, cs.DEFAULT_QUAD, observables)
        for cfg, sums in zip(self.CROSSING, sweep):
            lone = lifshitz._sum_modes([cfg], model, cs.DEFAULT_QUAD, observables)[0]
            alone = [lifshitz._sum_modes([cfg], model, cs.DEFAULT_QUAD, (one,))[0][0]
                     for one in observables]
            for other in (lone, alone):
                assert [(value, M) for value, M, _ in sums] == [(value, M) for value, M, _ in
                                                                other], cfg

    # 10 nm-5 um x 1.5-350 K: rule sums in m at 10 nm and 0.3 um below 20 K
    WIDE = [cs.ThermalGapConfig(T=T, a=a)
            for a in (10e-9, 0.3e-6, 5e-6) for T in (1.5, 20.0, 350.0)]

    @pytest.mark.parametrize("observables", [(lifshitz._PRESSURE,), (lifshitz._FREE_ENERGY,),
                                             (lifshitz._PRESSURE, lifshitz._FREE_ENERGY)],
                             ids=["P", "F", "PF"])
    @pytest.mark.parametrize("name", ["drude", "bg", "drude_like", "plasma_like",
                                      "plasma", "ideal"])
    def test_every_config_has_its_lone_M_and_zero_term_bit_for_bit(self, gold, gold_bg, name,
                                                                    observables):
        # the plan of a sweep takes every config's m = 0 term, a closed form
        # or a plasma-like remainder on the fixed t-rule, in one evaluation,
        # and M from it: each must be the lone sum's to the bit, whatever
        # else the sweep holds.  The table spans the Matsubara grid of 10 nm
        # at 1.5 K
        zs = np.geomspace(1e10, 1e20, 51)
        model = {"drude_like": cs.Tabulated(cs.PermittivityTable(zs, cs.eps_drude(zs, gold))),
                 "plasma_like": cs.Tabulated(cs.PermittivityTable(zs, cs.eps_drude(zs, gold)),
                                             "plasma_like")}.get(name) or \
            TestStackedSums.model(name, gold, gold_bg)
        kernels, units = [k for k, *_ in observables], [zero for *_, zero in observables]
        sweep = lifshitz._sum_modes(self.WIDE, model, cs.DEFAULT_QUAD, observables)
        Ms = [M for sums in sweep for _, M, _ in sums]
        assert min(Ms) < lifshitz._RULE_RATIO * lifshitz._K_MIN < max(Ms)
        for cfg, sums, (term, remainder) in zip(
                self.WIDE, sweep, lifshitz._zero_mode(model, self.WIDE, kernels, units)):
            lone = lifshitz._sum_modes([cfg], model, cs.DEFAULT_QUAD, observables)[0]
            assert [M for _, M, _ in sums] == [M for _, M, _ in lone], cfg
            (lone_term, lone_remainder), = lifshitz._zero_mode(model, [cfg], kernels, units)
            assert np.array(term).tobytes() == np.array(lone_term).tobytes(), cfg
            assert (remainder is None) == (lone_remainder is None) == (name not in (
                "plasma", "plasma_like"))
            assert [terms(0) for *_, terms in sums] == [terms(0) for *_, terms in lone]

    def test_remainder_that_is_not_finite_fails_at_its_config(self):
        # the m = 0 remainders of a sweep are evaluated together, but the
        # first config whose remainder is not finite fails as it did alone,
        # after the configs before it are planned
        class Patchy(cs.Plasma):
            """Plasma whose TE zero mode is NaN past 1 um."""

            def zero_frequency_reflection(self, y, cfg):
                A, B = super().zero_frequency_reflection(y, cfg)
                return A, np.where(cfg.a > 1e-6, np.nan, B)

        configs = [cs.ThermalGapConfig(T=T, a=a) for a in (0.5e-6, 2e-6, 3e-6)
                   for T in (350.0, 300.0)]
        with pytest.raises(ConvergenceError) as exc:
            lifshitz._sum_modes(configs, Patchy(), cs.DEFAULT_QUAD,
                                (lifshitz._PRESSURE, lifshitz._FREE_ENERGY))
        assert str(exc.value).startswith("Matsubara mode m = 0 at T = 350 K, a = 2e-06 m")
        assert str(exc.value).endswith("the row at zeta = 0 rad/s is not finite")
        assert exc.value.config is configs[2]
        for cfg in configs[:2]:
            lifshitz._sum_modes([cfg], Patchy(), cs.DEFAULT_QUAD, (lifshitz._PRESSURE,))

    def test_zero_rule_reads_the_derived_quantities_of_its_configs(self):
        # a sweep's m = 0 rule takes its configs as columns, which carry
        # aT, gamma and matsubara as a ThermalGapConfig does
        seen = []

        class Reading(cs.Plasma):
            def zero_frequency_reflection(self, y, cfg):
                seen.append((cfg.aT, cfg.gamma, cfg.matsubara(1)))
                return super().zero_frequency_reflection(y, cfg)

        configs = [cs.ThermalGapConfig(T=T, a=a) for a in (0.5e-6, 2e-6) for T in (300.0, 350.0)]
        sweep = lifshitz._sum_modes(configs, Reading(), cs.DEFAULT_QUAD, (lifshitz._PRESSURE,))
        assert sweep[3][0][0] == cs.total_pressure(configs[3], cs.Plasma()).total
        aT, gamma, zeta = seen[0]
        assert aT.shape == gamma.shape == zeta.shape == (4, 1)
        assert gamma.ravel().tolist() == [cfg.gamma for cfg in configs]
        assert zeta.ravel().tolist() == [cfg.matsubara(1) for cfg in configs]

    def test_failed_rows_are_named_before_their_remainder_fails_alone(self):
        # at 2 K / 1 um plasma sums a rule in m, whose rows meet NaN past
        # 3e14 rad/s, and at rel_tol = 1e-20 its m = 0 remainder also fails
        # alone; the plan, at eps_t, fails first, at the rows, and neither
        # the remainder nor the floor is tried, as when each config was
        # planned before any integral
        class Cut(cs.Plasma):
            """Plasma whose coefficients are NaN past 3e14 rad/s."""

            def matsubara_reflection(self, zeta, T):
                rule = super().matsubara_reflection(zeta, T)
                return lambda p: tuple(np.where(zeta > 3e14, np.nan, X) for X in rule(p))

        cfg, quad = cs.ThermalGapConfig(T=2.0, a=1e-6), cs.QuadratureSettings(rel_tol=1e-20)
        (_, remainder), = lifshitz._zero_mode(Cut(), [cfg], (lifshitz._FREE_ENERGY[0],),
                                              (lifshitz._FREE_ENERGY[3],))
        with pytest.raises(ConvergenceError, match="did not reach"):
            lifshitz._integrate(Cut(), [remainder], quad.rel_tol)
        with pytest.raises(ConvergenceError) as exc:
            cs.free_energy(cfg, Cut(), quad)
        assert str(exc.value).startswith("Matsubara modes m = 1..3677 at T = 2 K, a = 1e-06 m")
        assert str(exc.value).endswith("the row at zeta = 6.04938e+15 rad/s is not finite")
        assert exc.value.config is cfg

    def test_failure_names_the_first_failing_config(self, gold):
        # the table ends at 5e15 rad/s; 3 um stays inside it, and the second
        # config is the first in sweep order to need a mode past it
        zs = np.geomspace(1e12, 5e15, 200)
        table = cs.Tabulated(cs.PermittivityTable(zs, cs.eps_drude(zs, gold)))
        configs = [cs.ThermalGapConfig(T=T, a=a) for T, a in
                   ((300.0, 3e-6), (350.0, 0.4e-6), (300.0, 0.5e-6))]
        with pytest.raises(TableRangeError) as exc:
            lifshitz._sum_modes(configs, table, cs.DEFAULT_QUAD, (lifshitz._PRESSURE,))
        n = next(m for m in itertools.count(1) if configs[1].matsubara(m) > zs[-1])
        assert str(exc.value).startswith(f"Matsubara mode m = {n} at T = 350 K")
        with pytest.raises(ConvergenceError) as exc:
            lifshitz._sum_modes(configs, gold, cs.QuadratureSettings(rel_tol=1e-30),
                                (lifshitz._PRESSURE,))
        assert "T = 300 K, a = 3e-06 m" in str(exc.value)
        assert isinstance(exc.value.estimate, float)  # one observable's

    def test_members_give_the_lone_per_mode_and_fractions(self, gold):
        sweep = lifshitz._sum_modes(self.MIXED, gold, cs.DEFAULT_QUAD, (lifshitz._PRESSURE,))
        for cfg, (terms,) in zip(self.MIXED, sweep):
            member, lone = cs.PressureResult(*terms), cs.total_pressure(cfg, gold)
            if lone.m_used <= lifshitz._RULE_RATIO * lifshitz._K_MIN:
                assert member.per_mode == lone.per_mode
            for m in (0, 1, 7, lifshitz._K_MIN + 3, lone.m_used - 1, lone.m_used):
                assert member.fraction(m) == lone.fraction(m)


def per_sum_layout(model, indexed):
    """The layout of the (i, sum) pairs indexed, as _bind
    built it sum by sum: each explicit sum (zeta None) with its own
    frequencies cfg.matsubara(m) of its modes m = 1..max(counts) and its
    own y_lo = a zeta / c, concatenated per group: the reference for the
    bulk form."""
    groups, layout = {}, []
    for i, one in indexed:
        if one.zeta is None:
            one = one._replace(zeta=one.cfg.matsubara(np.arange(1, max(one.counts) + 1)))
        key = (one.cfg.T if one.zeta[0] else 0.0, tuple(one.kernels))
        groups.setdefault(key, []).append((i, one))
    for (T, kernels), members in groups.items():
        starts = itertools.accumulate([len(one.zeta) for _, one in members], initial=0)
        runs = [(c, i * len(kernels) + c, a, a + n)
                for (i, one), a in zip(members, starts) for c, n in enumerate(one.counts)]
        zeta = np.concatenate([one.zeta for _, one in members])[:, None]
        y_lo = np.concatenate([one.cfg.a * one.zeta for _, one in members])[:, None] / cs.C
        layout += lifshitz._layout(model, T or [one.cfg for _, one in members], kernels, zeta,
                                   y_lo, runs)
    return layout


def test_bulk_layout_equals_the_per_sum_layout_bit_for_bit(monkeypatch):
    # a mixed stack of a plasma sweep: the m = 0 remainders, explicit sums
    # at 300 and 350 K, and rows at lowtemp's f_te frequencies at 300 K,
    # with the explicit sums' kernel so that they share the 300 K group,
    # between and after its explicit sums (the 2 K rows are a rule in m,
    # which gives its value from placement and holds no sum)
    model, kernels = cs.Plasma(), (lifshitz._pressure_kernel,)
    configs = [cs.ThermalGapConfig(T=T, a=a) for T, a in
               ((300.0, 1e-6), (350.0, 0.5e-6), (300.0, 0.3e-6), (2.0, 1e-6))]
    parts = []
    lifshitz._plan(configs, model, cs.DEFAULT_QUAD.rel_tol, (lifshitz._PRESSURE,), parts)
    assert parts[-1][1] is None and parts[-1][2] is not None
    sums = [one for _, one, _ in parts[:-1]]
    kinds = ["zero" if one.zeta is not None and one.zeta[0] == 0.0 else
             "explicit" if one.zeta is None else "other" for one in sums]
    assert kinds == ["zero", "explicit"] * 3 + ["zero"]
    f_te = [lifshitz._Sum(configs[0], np.array([x * cs.C / 1e-6]), kernels, [1])
            for x in np.linspace(0.0, 0.5, 26)[1:]]
    stack = sums[:2] + f_te[:12] + sums[2:] + f_te[12:]

    def recording(model, at, kernels, runs, zeta, y_lo):
        return (at, kernels, runs, zeta, y_lo)

    monkeypatch.setattr(lifshitz, "_block", recording)
    bulk = lifshitz._bind(model, enumerate(stack))
    want = per_sum_layout(model, enumerate(stack))
    assert len(bulk) == len(want) > 3
    mixed = 0
    for got, ref in zip(bulk, want):
        (at, ks, runs, *arrays), (ref_at, ref_ks, ref_runs, *ref_arrays) = got, ref
        assert ks == ref_ks and runs == ref_runs
        assert np.array(at).tobytes() == np.array(ref_at).tobytes()  # T, or each config's T, a
        for x, y in zip(arrays, ref_arrays):  # zeta, y_lo
            assert x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()
        mixed += at == 300.0 and bool(np.isin(arrays[0], [f.zeta for f in f_te]).any())
    assert mixed  # a 300 K block holds explicit rows and f_te rows


@pytest.mark.parametrize("observable", ["pressure", "free_energy"])
def test_modes_needed_equals_the_search(observable, monkeypatch):
    # the closed-form lower bound brackets the M of the plain search at every
    # gamma of a config's range, rel_tol and m = 0 term, and the search runs
    # at a target of 0 (vacuum); a bracketed search takes at most
    # ceil(log2 M) + 1 bounds, which a search from (1, 2) exceeds at M >= 8
    coeffs = {"pressure": lifshitz._PRESSURE, "free_energy": lifshitz._FREE_ENERGY}[observable][2]
    bound, calls = lifshitz._tail_bound, []

    def counting(*args):
        calls.append(1)
        return bound(*args)

    monkeypatch.setattr(lifshitz, "_tail_bound", counting)
    gammas = np.concatenate((np.geomspace(1e-6, 30.0, 80), np.geomspace(1e-300, 1e150, 46)))
    for gamma in gammas.tolist():  # floats, as a config's: NumPy's warn where the bound overflows
        for target in [0.0] + [rel * zero for rel in (1e-4, 1e-10, 1e-14, 1e-30)
                               for zero in (1e-3, 0.15, 30.0)]:
            calls.clear()
            M = lifshitz._modes_needed(gamma, coeffs, target)
            assert len(calls) <= math.ceil(math.log2(M)) + 1 or target == 0.0
            assert M == lifshitz._smallest(lambda n: bound(n, gamma, coeffs) <= target, 1, 2)


@pytest.mark.parametrize("observable", ["pressure", "free_energy"])
def test_modes_needed_holds_the_tail_bound_to_its_target(observable):
    # the bound at the returned M, evaluated in 60 digits, meets the target
    # at every gamma of a config's range: where 2 M gamma passed 708 the
    # computed e^{-2c} underflowed, and at gamma = 1e-300 and a target of
    # 1e-33 the true bound at the M returned was 1.7e-19.  The floats c =
    # M gamma and the bound's logarithm (|2c| up to about 800) round to
    # about 1e-13 relative, and below gamma ~ 1e-13 consecutive M move the
    # bound by less than that, so the bound holds to 1e-12 of the target
    coeffs = {"pressure": lifshitz._PRESSURE, "free_energy": lifshitz._FREE_ENERGY}[observable][2]
    for gamma in np.geomspace(1e-300, 1e150, 46).tolist():
        for target in [rel * zero for rel in (1e-4, 1e-10, 1e-14, 1e-30, 1e-33)
                       for zero in (1e-3, 0.15, 30.0)]:
            M = lifshitz._modes_needed(gamma, coeffs, target)
            with mpmath.workdps(60):
                c = mpmath.mpf(M) * mpmath.mpf(gamma)
                p, q = ((k2 * c + k1) * c + k0 for k2, k1, k0 in coeffs)
                bound = 2 * mpmath.exp(-2 * c) / -mpmath.expm1(-2 * c) * (p + q / gamma)
                assert bound <= target * (1 + 1e-12), (gamma, target, M)


@pytest.mark.parametrize("name", ["plasma", "plasma_0.5eV", "plasma_like"])
def test_first_mesh_zero_mode_gives_the_converged_M(gold, name):
    # M and the rule in m take a plasma-like m = 0 term at its value on the
    # fixed t-rule; on this grid that gives the M of the term integrated to
    # rel_tol on its own
    zs = np.geomspace(1e10, 1e20, 51)
    model = {"plasma": cs.Plasma(), "plasma_0.5eV": cs.Plasma(0.5),
             "plasma_like": cs.Tabulated(cs.PermittivityTable(zs, cs.eps_drude(zs, gold)),
                                         "plasma_like")}[name]
    observables = (lifshitz._PRESSURE, lifshitz._FREE_ENERGY)
    rel_tol = cs.DEFAULT_QUAD.rel_tol
    configs = [cs.ThermalGapConfig(T=T, a=a) for a in (1e-9, 10e-9, 50e-9, 0.3e-6, 1e-6, 5e-6)
               for T in (1.5, 20.0, 300.0, 350.0)]
    for cfg, sums in zip(configs, lifshitz._sum_modes(configs, model, cs.DEFAULT_QUAD,
                                                      observables)):
        zeros, = lifshitz._mode_integrals(model, cfg, [0.0], [k for k, *_ in observables],
                                          [zero for *_, zero in observables], rel_tol)
        for (_, M, _), (_, _, tail, _), zero in zip(sums, observables, zeros):
            assert M == lifshitz._modes_needed(cfg.gamma, tail, rel_tol * abs(0.5 * zero)), cfg


@pytest.mark.parametrize("ones", ["scalar", "array"])
@pytest.mark.parametrize("kernel, constant, exact", [
    (lifshitz._pressure_kernel, sum(lifshitz._PRESSURE[3]), ZETA3 / 2.0),
    (lifshitz._free_energy_kernel, sum(lifshitz._FREE_ENERGY[3]), -ZETA3 / 2.0),
    (lifshitz._te_kernel, cs.te_mode_function(0.0, 1e-6, cs.Ideal()), -ZETA3 / 4.0),
], ids=["pressure", "free_energy", "te"])
def test_unit_coefficient_kernels_give_closed_form_constants(kernel, constant, exact, ones):
    # the m = 0 closed forms (A + B) zeta(3)/4 are the kernels' integrals at
    # A = B = 1; integrating from t = 0 also probes their precision at y -> 0.
    # The fixed rule (@ _T_WEIGHTS) holds the same bound for the pressure
    # kernel; the two log kernels go like y ln y there and leave 1.15e-12
    # on it, which is why no sum integrates them at unit coefficients: the
    # m = 0 term is its closed form plus a remainder
    def f(t):
        X = 1.0 if ones == "scalar" else np.ones_like(t)
        return lifshitz._kernels_at(lambda y, y_lo: (X, X), np.zeros((1, 1)), t, (kernel,))[0]

    value = quadrature.adaptive_quad(f, lifshitz._T_MESH, rel_tol=1e-13)[0].item()
    fixed = (f(lifshitz._T_NODES) @ lifshitz._T_WEIGHTS).item()
    assert constant == exact
    assert abs(value - exact) <= 4.4e-16 * abs(exact)
    if kernel is lifshitz._pressure_kernel:
        assert abs(fixed - exact) <= 4.4e-16 * abs(exact)
    else:
        assert 1.1e-12 <= abs(fixed - exact) / abs(exact) <= 1.2e-12


# The leaf written term by term, each kernel forming its own u = e^{-2y},
# A u and B u: the reference that the shared, in-place forms of
# _reflection_sq and _kernels_at must match bit for bit.
def unfused_reflection_sq(eps, p):
    em1 = eps - 1.0
    s = np.sqrt(em1 + p * p)
    tm_den = eps * p + s
    te_den = s + p
    r_tm = em1 * (p * p * (eps + 1.0) - 1.0) / (tm_den * tm_den)
    r_te = em1 / (te_den * te_den)
    return r_tm * r_tm, r_te * r_te


def unfused_pressure(A, B, y):
    u = np.exp(-2.0 * y)
    return y * y * (A * u / (1.0 - A * u) + B * u / (1.0 - B * u))


def unfused_free_energy(A, B, y):
    u = np.exp(-2.0 * y)
    return y * (np.log1p(-A * u) + np.log1p(-B * u))


def unfused_te(A, B, y):
    return y * np.log1p(-B * np.exp(-2.0 * y))


def same_bits(x, y):
    return type(x) is type(y) and np.shape(x) == np.shape(y) and (
        np.asarray(x).tobytes() == np.asarray(y).tobytes())


class TestLeafBitIdentity:
    """The leaf (_reflection_sq, then the kernels of a block) gives the bits
    of the term-by-term expressions, on every model's block of rows."""

    KERNELS = {"P": (lifshitz._pressure_kernel,), "F": (lifshitz._free_energy_kernel,),
               "P+F": (lifshitz._pressure_kernel, lifshitz._free_energy_kernel),
               "TE": (lifshitz._te_kernel,)}
    UNFUSED = {lifshitz._pressure_kernel: unfused_pressure,
               lifshitz._free_energy_kernel: unfused_free_energy,
               lifshitz._te_kernel: unfused_te}
    UNITS = {lifshitz._pressure_kernel: lifshitz._PRESSURE[3],
             lifshitz._free_energy_kernel: lifshitz._FREE_ENERGY[3],
             lifshitz._te_kernel: (0.0, -lifshitz._ZETA3_4)}

    @staticmethod
    def model(name, gold):
        return {"drude": gold, "plasma": cs.Plasma(), "ideal": cs.Ideal(),
                "bg": cs.gold_drude("bg"), "table_drude": drude_table(gold, "drude_like"),
                "table_plasma": drude_table(gold, "plasma_like")}[name]

    @pytest.mark.parametrize("kernels", list(KERNELS))
    @pytest.mark.parametrize("name", ["drude", "plasma", "ideal", "bg", "table_drude",
                                      "table_plasma"])
    def test_kernels_at_a_block_of_modes(self, gold, monkeypatch, name, kernels):
        # rows m = 1..64 at 20 K and 0.3 um on the fixed t-rule, bound as
        # _block binds them; the reference evaluates the model's own rule
        # with the term-by-term reflection in place of _reflection_sq
        model, cfg = self.model(name, gold), cs.ThermalGapConfig(T=20.0, a=0.3e-6)
        zeta = cfg.matsubara(np.arange(1, 65))[:, None]
        y_lo = cfg.a * zeta / cs.C
        y = y_lo + lifshitz._T_NODES
        rule = lifshitz._block(model, cfg.T, (), [], zeta, y_lo).rule
        got = lifshitz._kernels_at(rule, y_lo, lifshitz._T_NODES, self.KERNELS[kernels])
        calls = []
        monkeypatch.setattr(dispersion, "_reflection_sq",
                            lambda *args: calls.append(1) or unfused_reflection_sq(*args))
        A, B = model.matsubara_reflection(zeta, cfg.T)(y / y_lo)
        assert len(calls) == (0 if name == "ideal" else 1)  # ideal: scalar 1.0 coefficients
        for k, row in zip(self.KERNELS[kernels], got):
            assert np.array_equal(row, self.UNFUSED[k](A, B, y)), k.__name__

    @pytest.mark.parametrize("kernels", ["P+F", "TE"])
    @pytest.mark.parametrize("exact", [(1.0, 0.0), (1.0, 1.0)], ids=["A0=1,B0=0", "A0=B0=1"])
    @pytest.mark.parametrize("name", ["plasma", "table_plasma", "drude"])
    def test_zero_mode_remainders(self, gold, name, exact, kernels):
        # rows at zeta = 0 of three configs, at the model's m = 0 rule
        configs = [cs.ThermalGapConfig(T=T, a=a) for T, a in
                   [(300.0, 0.3e-6), (350.0, 1e-6), (20.0, 50e-9)]]
        model, at = self.model(name, gold), lifshitz._Configs.of(configs)
        rule = lifshitz._zero_rule(model, at)
        y_lo = np.zeros((len(configs), 1))
        y = y_lo + lifshitz._T_NODES
        ks = self.KERNELS[kernels]
        units = [self.UNITS[k] for k in ks]
        block = lifshitz._block(model, at, (), [], y_lo, y_lo)  # as rows at zeta = 0 bind
        got = lifshitz._kernels_at(block.rule, y_lo, lifshitz._T_NODES,
                                   lifshitz._remainders(ks, units, *exact))
        A, B = rule(y)
        A0, B0 = exact
        for k, (unit_A, unit_B), row in zip(ks, units, got):
            density = np.where(y < lifshitz._T_TAIL,
                               (unit_A * A0 + unit_B * B0) / lifshitz._T_TAIL, 0.0)
            k = self.UNFUSED[k]
            assert np.array_equal(row, k(A, B, y) - k(A0, B0, y) + density)

    @pytest.mark.parametrize("shapes", ["float", "0-d", "column x block", "block x block",
                                        "column x row", "row x column"])
    def test_reflection_sq(self, shapes):
        # eps and p are never written, whether eps is copied to the result's
        # shape (a column, a row, a scalar) or already has it (block x block)
        eps = np.geomspace(1.0 + 1e-12, 1e12, 20)
        p = np.geomspace(1.0, 100.0, 20)
        eps, p = {"float": (float(eps[3]), float(p[7])),
                  "0-d": (np.array(eps[3]), np.array(p[7])),
                  "column x block": (eps[:, None], np.outer(np.geomspace(1.0, 3.0, 20), p)),
                  "block x block": (np.repeat(eps[:, None], 20, axis=1),
                                    np.outer(np.geomspace(1.0, 3.0, 20), p)),
                  "column x row": (eps[:, None], p),
                  "row x column": (eps, p[:, None])}[shapes]
        before = np.copy(eps), np.copy(p)
        for got, want in zip(_reflection_sq(eps, p), unfused_reflection_sq(eps, p)):
            assert same_bits(got, want)
        assert np.array_equal(eps, before[0]) and np.array_equal(p, before[1])


class TestWorkCount:
    """Integrals, adaptive rounds and t-points of whole sums, pinned at their
    measured values: an integrated constant zero mode, a refining sum or a
    coarser t-rule fails here."""

    @staticmethod
    def record(monkeypatch):
        """Lists of the first frequency of each _integrate call and of the
        panels of each adaptive_quad round, the first included, filled as
        sums run (the sums' fixed rule is no adaptive_quad round)."""
        integrals, panels = [], []
        integrate, gk15 = lifshitz._integrate, quadrature._gk15_panels

        def counting_integrate(model, sums, *args, **kwargs):
            zeta = sums[0].cfg.matsubara(1) if sums[0].zeta is None else sums[0].zeta[0]
            integrals.append(float(zeta))
            return integrate(model, sums, *args, **kwargs)

        def counting_gk15(fx, lo, hi):
            panels.append(len(lo))
            return gk15(fx, lo, hi)

        monkeypatch.setattr(lifshitz, "_integrate", counting_integrate)
        monkeypatch.setattr(quadrature, "_gk15_panels", counting_gk15)
        return integrals, panels

    def test_room_temperature_sum_is_one_round_of_one_integral(self, gold, monkeypatch):
        integrals, panels = self.record(monkeypatch)
        cs.free_energy(cs.ThermalGapConfig(T=300.0, a=1e-6), gold)
        assert len(integrals) == 1 and integrals[0] > 0.0  # no m = 0 integral
        assert panels == []  # one evaluation on the fixed t-rule, no adaptive round

    def test_plasma_zero_mode_is_integrated(self, monkeypatch):
        integrals, panels = self.record(monkeypatch)
        cfg, (kernel, _, _, zero) = cs.ThermalGapConfig(T=300.0, a=1e-6), lifshitz._FREE_ENERGY
        cs.free_energy(cfg, cs.Plasma())
        # its remainder is a row on the fixed t-rule, evaluated by the plan,
        # and the one stack holds the rows m >= 1
        assert len(integrals) == 1 and integrals[0] > 0.0 and panels == []
        (_, remainder), = lifshitz._zero_mode(cs.Plasma(), [cfg], (kernel,), (zero,))
        assert remainder.zeta.tolist() == [0.0]

    @pytest.mark.parametrize("observables", [(lifshitz._FREE_ENERGY,),
                                             (lifshitz._PRESSURE, lifshitz._FREE_ENERGY)],
                             ids=["alone", "stacked"])
    @pytest.mark.parametrize("name", ["plasma", "plasma_like"])
    def test_plasma_zero_mode_takes_one_round(self, gold, monkeypatch, name, observables):
        # the closed form of the y -> 0 coefficients leaves a remainder that
        # is smooth at t = 0, where the free energy's kernel goes like y ln y
        model = cs.Plasma() if name == "plasma" else drude_table(gold, "plasma_like")
        _, panels = self.record(monkeypatch)
        kernels = [kernel for kernel, *_ in observables]
        zeros = [zero for *_, zero in observables]
        for T, a in itertools.product((300.0, 350.0), (0.3e-6, 1e-6, 5e-6)):
            panels.clear()
            lifshitz._mode_integrals(model, cs.ThermalGapConfig(T=T, a=a), [0.0],
                                     kernels, zeros, cs.DEFAULT_QUAD.rel_tol)
            assert panels == [10], (T, a)

    @pytest.mark.parametrize("model, mode_calls", [(cs.gold_drude(), [0, 1]),
                                                   (cs.Plasma(), [1, 1])],
                             ids=["drude", "plasma"])
    def test_only_rows_outside_a_sum_go_through_adaptive_quad(self, monkeypatch, model,
                                                              mode_calls):
        # a sum takes no adaptive_quad call; a lone mode m = 1, and a plasma
        # m = 0 remainder, takes one (a lossy metal's m = 0 term is closed)
        seen = []
        quad = lifshitz.adaptive_quad

        def counting_quad(*args, **kwargs):
            seen.append(args)
            return quad(*args, **kwargs)

        monkeypatch.setattr(lifshitz, "adaptive_quad", counting_quad)
        cfg = cs.ThermalGapConfig(T=300.0, a=1e-6)
        res = cs.total_pressure(cfg, model)
        res.per_mode
        assert seen == []
        for m, calls in enumerate(mode_calls):
            seen.clear()
            cs.mode_pressure(m, cfg, model)
            assert len(seen) == calls

    def test_cryogenic_rows_take_the_fixed_t_rules_points_each(self, gold, monkeypatch):
        # 86,623 modes, explicit rows and rule-in-m nodes, share the t-points
        # of the fixed rule; the first rows vary fastest near t = 0
        integrals, panels = self.record(monkeypatch)
        points, reflection_sq = [], dispersion._reflection_sq
        monkeypatch.setattr(dispersion, "_reflection_sq",
                            lambda eps, p: points.append(p.shape[1]) or reflection_sq(eps, p))
        cs.free_energy(cs.ThermalGapConfig(T=1.5, a=50e-9), gold)
        assert integrals == panels == []  # a rule sum: its value is its placement's
        assert set(points) == {len(lifshitz._T_NODES)}

    @staticmethod
    def count_reflections(monkeypatch):
        """List that gains one entry per _reflection_sq call of the engine:
        the number of t-points per row."""
        calls, reflection_sq = [], dispersion._reflection_sq

        def counting(eps, p):
            calls.append(p.shape[-1])
            return reflection_sq(eps, p)

        monkeypatch.setattr(dispersion, "_reflection_sq", counting)
        return calls

    def test_each_row_is_evaluated_once_per_round(self, gold, monkeypatch):
        # the per-mode table is evaluated on its first read, and only then;
        # the sum evaluates its near rows (m = 1, 2) and its far rows once
        # each, and the table all 18 rows in one block of the fixed t-rule
        calls = self.count_reflections(monkeypatch)
        res = cs.total_pressure(cs.ThermalGapConfig(T=300.0, a=1e-6), gold)
        assert len(calls) == 2
        res.per_mode
        assert len(calls) == 3
        res.per_mode, res.fraction(1), res.fraction(res.m_used)
        assert len(calls) == 3

    @pytest.mark.parametrize("T, a, kinks", [
        pytest.param(5.0, 1e-6, None, id="5.0-1e-06"),
        pytest.param(1.5, 50e-9, None, id="1.5-5e-08"),
        pytest.param(5.0, 1e-6, (100.5, 400.5, 430.5), id="short-stretches-table")])
    def test_rule_sums_evaluate_each_row_once(self, gold, monkeypatch, T, a, kinks):
        # a rule in m takes its value from the rows it places on the fixed
        # t-rule: the sum evaluates the reflection coefficients on no point
        # that placement did not.
        # The table's nodes at these mode numbers cut the rule from K = 64
        # into a short stretch 64..100, a long one 101..400, a short one
        # 401..430 and a long one to M - 1; the short stretches' rows are
        # fixed rows, evaluated in the one pass that evaluates the end rows
        cfg = cs.ThermalGapConfig(T=T, a=a)
        model = gold
        if kinks is not None:
            zs = np.concatenate(([1e11, 1e13], np.array(kinks) * cfg.matsubara(1), [1e17]))
            model = cs.Tabulated(cs.PermittivityTable(zs, cs.eps_drude(zs, gold)))
            short = np.concatenate((np.arange(64.0, 101.0), np.arange(401.0, 431.0)))
        counts = count_rows(monkeypatch)
        points, reflection_sq = [], dispersion._reflection_sq
        passes, first_mesh = [], lifshitz._first_mesh

        def counting(eps, p):
            points.append(p.size)
            return reflection_sq(eps, p)

        def recording(model, cfg, m, *args, **kwargs):
            passes.append(m)
            return first_mesh(model, cfg, m, *args, **kwargs)

        monkeypatch.setattr(dispersion, "_reflection_sq", counting)
        monkeypatch.setattr(lifshitz, "_first_mesh", recording)
        for observables in ((lifshitz._PRESSURE,), (lifshitz._FREE_ENERGY,),
                            (lifshitz._PRESSURE, lifshitz._FREE_ENERGY)):
            counts.update(integrated=0, placed=0)
            points.clear()
            passes.clear()
            (_, M, _), *_ = lifshitz._sum_modes([cfg], model, cs.DEFAULT_QUAD, observables)[0]
            assert M > lifshitz._RULE_RATIO * lifshitz._K_MIN
            assert counts["integrated"] == 0 < counts["placed"]
            assert sum(points) == len(lifshitz._T_NODES) * counts["placed"]
            placed = np.concatenate(passes)
            assert len(np.unique(placed)) == len(placed)  # no row placed twice
            if kinks is not None:
                # one pass holds both short stretches and the first end rows
                with_short = [m for m in passes if np.isin(short, m).any()]
                assert len(with_short) == 1
                assert np.isin(short, with_short[0]).all()
                assert np.isin(np.arange(101.0, 106.0), with_short[0]).all()

    # the README pressure sweep's stack (40 log-spaced gaps over 0.5-5 um
    # at 300 and 350 K, explicit sums) and P + F of a rule sum in m
    README = [cs.ThermalGapConfig(T=T, a=float(a)) for a in np.geomspace(0.5e-6, 5e-6, 40)
              for T in (300.0, 350.0)]

    @pytest.mark.parametrize("rel_tol", [1e-10, 1e-12])
    @pytest.mark.parametrize("configs, observables", [
        pytest.param(README, (lifshitz._PRESSURE,), id="readme-pressure"),
        pytest.param([cs.ThermalGapConfig(T=2.0, a=1e-6)],
                     (lifshitz._PRESSURE, lifshitz._FREE_ENERGY), id="PF-2K-1um")])
    def test_sums_evaluate_each_row_once_without_adaptive_quad(self, gold, monkeypatch,
                                                               configs, observables, rel_tol):
        # no refinement round at any rel_tol down to eps_t: the leaf
        # evaluates an explicit row once, in the stack, and a rule's rows
        # once per K tried, as they are placed: all distinct where the first
        # K meets its budget.  At 1e-12 K = 64, 128 and 256 miss, and a later
        # K places again each one's 10 end rows (ROADMAP item 2)
        quads, rows, placed, tries = [], [], [], []
        kernels_at, first_mesh, tail_rule = (lifshitz._kernels_at, lifshitz._first_mesh,
                                             lifshitz._tail_rule)
        monkeypatch.setattr(lifshitz, "_tail_rule", lambda *args: tries.append(
            args[4]) or tail_rule(*args))
        monkeypatch.setattr(lifshitz, "adaptive_quad", lambda *args, **kwargs: quads.append(1))
        monkeypatch.setattr(lifshitz, "_kernels_at", lambda rule, y_lo, *args: rows.append(
            len(y_lo)) or kernels_at(rule, y_lo, *args))
        monkeypatch.setattr(lifshitz, "_first_mesh", lambda model, cfg, m, *args: placed.append(
            m) or first_mesh(model, cfg, m, *args))
        sums = lifshitz._sum_modes(configs, gold, cs.QuadratureSettings(rel_tol=rel_tol),
                                   observables)
        M = [max(M for _, M, _ in one) for one in sums]
        rule = lifshitz._RULE_RATIO * lifshitz._K_MIN
        explicit = sum(n - 1 for n in M if n <= rule)
        assert quads == [] and (explicit == 0) == (max(M) > rule)
        assert sum(rows) == explicit + sum(map(len, placed))
        if placed:
            ms = np.concatenate(placed)
            assert tries == ([64] if rel_tol == 1e-10 else [64, 128, 256, 512])
            assert len(ms) - len(np.unique(ms)) == 10 * (len(tries) - 1)

    def test_sign_change_gap_reads_no_per_mode_table(self, gold, monkeypatch):
        calls = self.count_reflections(monkeypatch)
        cs.sign_change_gap(gold)
        # 26 pressure sums (13 gaps, two temperatures), one evaluation of
        # each class of rows: every sum's far rows, and at 2 um, where gamma
        # < 2 at both temperatures, its mode m = 1 on the fixed t-rule
        assert len(calls) == 28 and sum(width == len(lifshitz._T_NODES) for width in calls) == 2


class TestFreeEnergy:
    def test_drude_zero_mode_closed_form(self, gold):
        a = 1e-6
        cfg = cs.ThermalGapConfig(T=300.0, a=a)
        oracle = -ZETA3 * cs.K_B * 300.0 / (16.0 * np.pi * a**2)
        assert cs.mode_free_energy(0, cfg, gold) == pytest.approx(oracle, rel=1e-8)

    def test_vacuum_is_zero(self, vacuum):
        assert cs.free_energy(cs.ThermalGapConfig(T=300.0, a=1e-6), vacuum) == 0.0

    def test_negative_for_supported_models(self, gold):
        cfg = cs.ThermalGapConfig(T=300.0, a=1e-6)
        for model in (gold, cs.Plasma(), cs.Ideal()):
            assert cs.free_energy(cfg, model) < 0.0

    @pytest.mark.parametrize("a", [0.5e-6, 2e-6])
    def test_pressure_is_minus_dF_da(self, gold, a):
        h = 1e-3 * a
        Fp = cs.free_energy(cs.ThermalGapConfig(T=300.0, a=a + h), gold)
        Fm = cs.free_energy(cs.ThermalGapConfig(T=300.0, a=a - h), gold)
        P = cs.total_pressure(cs.ThermalGapConfig(T=300.0, a=a), gold).total
        assert -(Fp - Fm) / (2.0 * h) == pytest.approx(P, rel=1e-4)


class TestTeModeFunction:
    def test_drude_vanishes_at_zero(self, gold):
        assert cs.te_mode_function(0.0, 1e-6, gold) == 0.0

    def test_ideal_approaches_zeta3_quarter(self):
        # f(zeta -> 0) for unit reflection = -zeta(3)/4
        assert cs.te_mode_function(0.0, 1e-6, cs.Ideal()) == pytest.approx(
            -ZETA3 / 4.0, rel=1e-10)
        assert cs.te_mode_function(1e6, 1e-6, cs.Ideal()) == pytest.approx(
            -ZETA3 / 4.0, rel=1e-8)

    def test_negative_and_shrinking_at_large_zeta(self, gold):
        a = 1e-6
        f1 = cs.te_mode_function(0.25 * cs.C / a, a, gold)
        f2 = cs.te_mode_function(0.50 * cs.C / a, a, gold)
        assert f1 < 0.0 and f2 < 0.0
        assert abs(f2) < abs(f1)

    def test_rejects_negative_zeta(self, gold):
        with pytest.raises(DomainError):
            cs.te_mode_function(-1.0, 1e-6, gold)

    @pytest.mark.parametrize("zeta", [math.inf, math.nan])
    def test_rejects_non_finite_zeta(self, gold, zeta):
        # zeta = inf used to end in a ConvergenceError with a NaN estimate
        with pytest.raises(DomainError, match="zeta must be finite and >= 0"):
            cs.te_mode_function(zeta, 1e-6, gold)

    def test_rejects_array_zeta(self, gold):
        # used to fail with NumPy's "truth value of an array is ambiguous"
        with pytest.raises(DomainError, match=r"zeta must be a scalar.*\(2,\)"):
            cs.te_mode_function(np.array([1e13, 2e13]), 1e-6, gold)

    def test_accepts_numpy_scalars(self, gold):
        f = cs.te_mode_function(1e14, 1e-6, gold)
        assert cs.te_mode_function(np.float64(1e14), 1e-6, gold) == f
        assert cs.te_mode_function(np.array(1e14), 1e-6, gold) == f


class TestSurfaceImpedance:
    def test_vacuum(self):
        assert cs.surface_impedance(1e14, 3e14, 1.0) == pytest.approx(
            -1.0 / 3.0, rel=1e-14)

    def test_normal_incidence(self):
        eps = 2526.0
        assert cs.surface_impedance(1e14, 1e14, eps) == pytest.approx(
            -1.0 / np.sqrt(eps), rel=1e-13)

    def test_negative_and_bounded(self, gold):
        for zeta in np.geomspace(1e12, 1e16, 7):
            eps = gold.eps(zeta)
            for p in (1.0, 3.0, 100.0):
                Z = cs.surface_impedance(zeta, p * zeta, eps)
                assert Z < 0.0
                assert abs(Z) <= 1.0

    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    def test_scale_invariant(self, gold, scale):
        # zeta^2 (eps - 1) + q^2 overflowed: Z read -0.0 at zeta = 1e200 rad/s,
        # and -inf at 1e-200, where it underflowed
        zeta = np.geomspace(1e12, 1e16, 5)[:, None]
        q, eps = np.geomspace(1.0, 100.0, 5) * zeta, gold.eps(zeta)
        Z = cs.surface_impedance(zeta, q, eps)
        np.testing.assert_allclose(cs.surface_impedance(scale * zeta, scale * q, eps), Z,
                                   rtol=1e-15, atol=0.0)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            cs.surface_impedance(1e14, 0.5e14, 100.0)
        with pytest.raises(DomainError):
            cs.surface_impedance(0.0, 1e14, 100.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(DomainError, match="zeta must be finite"):
                cs.surface_impedance(bad, 1e14, 100.0)

    def test_nan_q_rejected(self, gold):
        # q = inf used to give Z = -0.0, or nan with a RuntimeWarning
        seq = np.geomspace(1e12, 1e8, 5)
        for q in (math.nan, math.inf):
            with pytest.raises(DomainError, match="q must be >= zeta"):
                cs.surface_impedance(1e14, q, 5.0)
            with pytest.raises(DomainError, match="q must be >= zeta"):
                cs.rte_from_impedance(1e14, q, 5.0)
            with pytest.raises(DomainError, match="q must be >= zeta"):
                cs.rte_zero_frequency_comparison(gold, q, seq)

    @pytest.mark.parametrize("eps", [math.nan, 0.5, math.inf])
    def test_eps_below_one_or_nan_rejected(self, eps):
        # the rule of lifshitz_variables; each used to return nan or a value
        for fn in (cs.surface_impedance, cs.rte_from_impedance):
            with pytest.raises(DomainError, match="eps must be >= 1"):
                fn(1e14, 2e14, eps)

    def test_arrays_match_scalar_calls_bitwise(self, gold):
        # the 20 x 20 grid of impedance-check: zeta down the rows, p across
        zeta = np.geomspace(1e12, 1e16, 20)[:, None]
        p = np.geomspace(1.0, 100.0, 20)
        eps = gold.eps(zeta)
        q = p * zeta
        for fn in (cs.surface_impedance, cs.rte_from_impedance):
            grid = fn(zeta, q, eps)
            assert grid.shape == (20, 20)
            scalars = [[fn(zeta[i, 0], q[i, j], eps[i, 0]) for j in range(20)]
                       for i in range(20)]
            assert np.array_equal(grid, scalars)
            assert np.ndim(scalars[0][0]) == 0

    @pytest.mark.parametrize("zeta, q, eps, match", [
        ([1e14, 2e14, 0.0], 3e14, 5.0, "zeta must be finite and > 0, got 0.0"),
        (1e14, [2e14, 5e13, math.nan], 5.0, "got q = 5e[+]13 with zeta = 1e[+]14"),
        ([1e14, 2e14], [[2e14, 3e14], [3e14, 1e14]], 5.0,
         "got q = 1e[+]14 with zeta = 2e[+]14"),
        (1e14, 2e14, [5.0, math.inf], "eps must be >= 1 and finite"),
    ], ids=["zeta", "q", "q-broadcast", "eps"])
    def test_array_messages_name_first_bad_value(self, zeta, q, eps, match):
        for fn in (cs.surface_impedance, cs.rte_from_impedance):
            with pytest.raises(DomainError, match=match):
                fn(zeta, q, eps)


class TestRteFromImpedance:
    def test_vacuum_no_reflection(self):
        assert abs(cs.rte_from_impedance(1e14, 5e14, 1.0)) < 1e-15

    def test_square_equals_permittivity_form(self, gold):
        worst = 0.0
        for zeta in np.geomspace(1e12, 1e16, 12):
            eps = gold.eps(zeta)
            for p in np.geomspace(1.0, 100.0, 12):
                r = cs.rte_from_impedance(zeta, p * zeta, eps)
                _, B = _reflection_sq(eps, p)
                worst = max(worst, abs(r * r - B))
        assert worst < 1e-12

    def test_drude_vanishes_at_zero_frequency(self, gold):
        q = 1e14
        values = [cs.rte_from_impedance(z, q, gold.eps(z)) ** 2
                  for z in np.geomspace(1e10, 1e2, 5)]
        assert all(a > b for a, b in zip(values, values[1:]))  # decreasing
        assert values[-1] < 1e-6


class TestZeroFrequencyComparison:
    def test_drude_limits_split(self, gold):
        seq = np.geomspace(1e12, 1e2, 11)
        lim_momentum, lim_freq = cs.rte_zero_frequency_comparison(gold, 1e14, seq)
        assert lim_momentum < 1e-6
        assert lim_freq > 1.0 - 1e-3

    def test_plasma_limits_agree(self):
        seq = np.geomspace(1e12, 1e4, 9)
        lim_momentum, lim_freq = cs.rte_zero_frequency_comparison(
            cs.Plasma(), 1e14, seq)
        assert lim_momentum > 0.9
        assert lim_momentum == pytest.approx(lim_freq, rel=1e-4)

    def test_sequence_validation(self, gold):
        with pytest.raises(DomainError):
            cs.rte_zero_frequency_comparison(gold, 1e14, [1e8, 1e10])
        with pytest.raises(DomainError):
            cs.rte_zero_frequency_comparison(gold, 1e14, [])
        with pytest.raises(DomainError):
            cs.rte_zero_frequency_comparison(gold, 1e6, [1e10, 1e8])

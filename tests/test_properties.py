"""Property-based checks of the Matsubara sums at random gaps and temperatures."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import casimir as cs
from casimir import lifshitz

# a in [0.2, 5] um and T in [10, 400] K; few, reproducible examples keep the
# low-temperature corner (thousands of modes per sum) cheap
GAPS = st.floats(min_value=0.2e-6, max_value=5e-6)
TEMPS = st.floats(min_value=10.0, max_value=400.0)
FEW = settings(max_examples=8, deadline=None, derandomize=True, database=None)
NODES_PER_DECADE = st.integers(min_value=5, max_value=20)


@FEW
@given(a=GAPS, T=TEMPS)
def test_pressure_is_minus_dF_da(a, T):
    gold = cs.gold_drude()
    h = 1e-3 * a  # central difference: truncation error ~ 20 h^2 / (6 a^2)
    Fp = cs.free_energy(cs.ThermalGapConfig(T=T, a=a + h), gold)
    Fm = cs.free_energy(cs.ThermalGapConfig(T=T, a=a - h), gold)
    P = cs.total_pressure(cs.ThermalGapConfig(T=T, a=a), gold).total
    assert -(Fp - Fm) / (2.0 * h) == pytest.approx(P, rel=1e-5)


@FEW
@given(a=GAPS, T=TEMPS)
def test_drude_plasma_ideal_ordering(a, T):
    # eps_Drude < eps_plasma < infinity at every zeta > 0, and the Drude
    # TE zero mode vanishes, so reflection and attraction grow in that order
    cfg = cs.ThermalGapConfig(T=T, a=a)
    drude, plasma, ideal = (abs(cs.total_pressure(cfg, model).total)
                            for model in (cs.gold_drude(), cs.Plasma(), cs.Ideal()))
    assert drude <= plasma <= ideal


def drude_table(model, n):
    """model sampled at n nodes per decade over 1e11-1e18 rad/s, and the bound
    h^2/32 (h = ln(10)/n) on |ln(eps_table - 1) - ln(eps - 1)| between nodes.

    In x = ln zeta, ln(eps - 1) = 2 ln omega_p - x - ln(e^x + nu) has second
    derivative -zeta nu/(zeta + nu)^2 in [-1/4, 0]; linear interpolation in x
    errs by at most max|f''| h^2/8 = h^2/32.
    """
    zs = np.geomspace(1e11, 1e18, 7 * n + 1)
    table = cs.Tabulated(cs.PermittivityTable(zs, model.eps(zs)), "drude_like")
    return table, np.log(10.0) ** 2 / (32.0 * n * n)


@FEW
@given(n=NODES_PER_DECADE)
def test_drude_table_reproduces_drude(n):
    gold = cs.gold_drude()
    table, bound = drude_table(gold, n)
    zs = np.geomspace(1e11, 1e18, 20001)
    err = np.abs(np.log(table.eps(zs) - 1.0) - np.log(gold.eps(zs) - 1.0))
    assert err.max() <= bound


@FEW
@given(n=NODES_PER_DECADE, a=GAPS, T=TEMPS)
def test_drude_table_pressure_within_interpolation_error(n, a, T):
    # both models share the Drude zero mode, and every m >= 1 eps - 1 is within
    # a factor e^(h^2/32) of Drude's; the pressure, less sensitive to eps than
    # eps - 1 itself, stays within h^2/32 (about 0.03 of it where sampled)
    gold = cs.gold_drude()
    table, bound = drude_table(gold, n)
    cfg = cs.ThermalGapConfig(T=T, a=a)
    P_table = cs.total_pressure(cfg, table).total
    assert P_table == pytest.approx(cs.total_pressure(cfg, gold).total, rel=bound)


# The fixed t-rule of the sums: the 10 GK15 panels of lifshitz._T_MESH (150
# nodes), with no refinement.  EPS_T is the relative error it may leave on a
# whole sum, against the same rows (the explicit rows, the rule in m's rows
# each integrated alone and weighted, and the m = 0 remainder) integrated by
# adaptive_quad to 1e-14, and the floor below which a sum raises
# (lifshitz._EPS_T).  Rows vary over y ~ Omega = omega_p a / c, which the
# draws take down to 2.5e-4 (0.05 eV at 1 nm).  The 0.5 eV plasma case near
# 1 nm and 1 K is kept as an example: its rows m = 1..7 vary over Omega =
# 2.5e-3, which the edge at 1/2048 resolves (the 135-node rule without it
# left 1.64e-13 there; now 1.0e-15).  Measured worst cases: 1.07e-14 on F of
# 0.05 eV plasma at 5.5 nm and 350 K (a 30 x 30 grid over the draws'
# range), 8.9e-15 of 0.5 eV plasma, 5.0e-15 of 0.05 eV Drude, below 5.1e-16
# for every other model.  Below the drawn Omega the error grows: 1.3e-14
# for plasma at Omega = 5e-5, 1.9e-13 for Drude at 6.4e-5 and 9.5e-13 for
# plasma at 7.7e-6, so EPS_T = 2e-14 is certified only on the draws' range.
EPS_T = 2e-14
TABLE_ZETA = np.geomspace(1e8, 1e20, 121)  # spans the Matsubara grid of every draw
CERTIFIED = {
    "gold": cs.gold_drude(), "bg": cs.gold_drude("bg"), "plasma": cs.Plasma(),
    "plasma_0.5eV": cs.Plasma(0.5), "plasma_0.05eV": cs.Plasma(0.05),
    "drude_0.05eV": cs.Drude(omega_p_ev=0.05), "ideal": cs.Ideal(),
    "drude_like": cs.Tabulated(cs.PermittivityTable(
        TABLE_ZETA, cs.eps_drude(TABLE_ZETA, cs.gold_drude())), "drude_like"),
    "plasma_like": cs.Tabulated(cs.PermittivityTable(
        TABLE_ZETA, cs.eps_plasma(TABLE_ZETA, 9.0)), "plasma_like"),
}


def log_uniform(lo, hi):
    return st.floats(min_value=math.log10(lo), max_value=math.log10(hi)).map(lambda x: 10.0 ** x)


def fixed_and_reference(model, cfg):
    """P and F of cfg at rel_tol 1e-13: the sums on the fixed t-rule, and
    the same planned parts integrated by adaptive_quad to 1e-14, which does
    not run through the fixed path: the m = 0 remainder and explicit rows as
    planned, and a rule in m as its rows 1..K-1 and _tail_rule's rows, each
    integrated alone, times their weights."""
    observables, parts, placed = (lifshitz._PRESSURE, lifshitz._FREE_ENERGY), [], []
    kernels, tail_rule = tuple(kernel for kernel, *_ in observables), lifshitz._tail_rule

    def placing(*args):  # model, cfg, observables, kernels, K, ...
        placed.append((args[4], tail_rule(*args)))
        return placed[-1][1]

    with mock.patch.object(lifshitz, "_tail_rule", placing):
        (zeros, _, _), = lifshitz._plan([cfg], model, 1e-13, observables, parts)
    fixed = [value for value, _, _ in lifshitz._sum_modes(
        [cfg], model, cs.QuadratureSettings(rel_tol=1e-13), observables)[0]]
    stack = [one for _, one, _ in parts if one is not None]
    if parts[-1][1] is None:  # a rule in m: its rows are stacked one by one
        K, (m, weight, _) = placed[-1]
        zetas = cfg.matsubara(np.concatenate((np.arange(1.0, K), m)))
        stack += [lifshitz._Sum(cfg, zetas[i:i + 1], kernels, [1, 1]) for i in range(len(zetas))]
        weight = np.concatenate((np.ones(K - 1), weight))
    reference = lifshitz._integrate(model, stack, 1e-14)
    if parts[0][1] is not None and parts[0][1].zeta is not None:  # the m = 0 remainder
        zeros, reference = 0.5 * reference[0], reference[1:]
    rows = (reference[0] if parts[-1][1] is not None else
            [math.fsum(weight * column) for column in reference.T])
    return np.array(fixed), np.array([prefactor(cfg) * (zero + row) for (_, prefactor, _, _),
                                      zero, row in zip(observables, zeros, rows)])


@settings(max_examples=45, deadline=None, derandomize=True, database=None)
@example(name="plasma_0.5eV", T=1.2, a=1e-9)
@given(name=st.sampled_from(sorted(CERTIFIED)), T=log_uniform(1e-3, 350.0),
       a=log_uniform(1e-9, 20e-6))
def test_fixed_t_rule_holds_eps_t_on_whole_sums(name, T, a):
    assert lifshitz._EPS_T == EPS_T
    fixed, reference = fixed_and_reference(CERTIFIED[name], cs.ThermalGapConfig(T=T, a=a))
    assert np.all(np.abs(fixed - reference) <= EPS_T * np.abs(reference)), (fixed, reference)

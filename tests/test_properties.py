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


# The fixed t-rule: the first round of a sum's t-integral alone, the 9 GK15
# panels of lifshitz._T_MESH (135 nodes), with no refinement.  EPS_T is the
# relative error it leaves on a whole sum, against the same stack (the same
# rows, weights and m = 0 remainder) integrated to 1e-14.  It is above the
# 1e-13 at which the sum tests run, so the sums keep their refinement rounds.
# The worst case found, plasma at 0.5 eV, 1 nm and 1.2 K, leaves 1.64e-13
# on F: its rows m = 1..7 vary over y ~ omega_p a / c = 2.5e-3, inside the
# first panel [0, 1/256].  Only that model passes 1e-13, at 1-1.5 nm and
# about 1-2 K; the others stay below 1.7e-14 over 1,400 random draws.
EPS_T = 2e-13
TABLE_ZETA = np.geomspace(1e8, 1e20, 121)  # spans the Matsubara grid of every draw
CERTIFIED = {
    "gold": cs.gold_drude(), "bg": cs.gold_drude("bg"), "plasma": cs.Plasma(),
    "plasma_0.5eV": cs.Plasma(0.5), "ideal": cs.Ideal(),
    "drude_like": cs.Tabulated(cs.PermittivityTable(
        TABLE_ZETA, cs.eps_drude(TABLE_ZETA, cs.gold_drude())), "drude_like"),
    "plasma_like": cs.Tabulated(cs.PermittivityTable(
        TABLE_ZETA, cs.eps_plasma(TABLE_ZETA, 9.0)), "plasma_like"),
}


def log_uniform(lo, hi):
    return st.floats(min_value=math.log10(lo), max_value=math.log10(hi)).map(lambda x: 10.0 ** x)


def stack_sums(model, cfg, t_tol):
    """P and F of cfg at rel_tol 1e-13, with the stack's t-integral held to
    t_tol (inf: its first round)."""
    quad = lifshitz.adaptive_quad

    def at(f, edges, *, rel_tol, first=None):
        return quad(f, edges, rel_tol=t_tol, first=first)

    with mock.patch.object(lifshitz, "adaptive_quad", at):
        sums, = lifshitz._sum_modes([cfg], model, cs.QuadratureSettings(rel_tol=1e-13),
                                    (lifshitz._PRESSURE, lifshitz._FREE_ENERGY))
    return np.array([value for value, _, _ in sums])


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@example(name="plasma_0.5eV", T=1.2, a=1e-9)
@given(name=st.sampled_from(sorted(CERTIFIED)), T=log_uniform(1e-3, 350.0),
       a=log_uniform(1e-9, 20e-6))
def test_fixed_t_rule_holds_eps_t_on_whole_sums(name, T, a):
    cfg = cs.ThermalGapConfig(T=T, a=a)
    fixed, converged = (stack_sums(CERTIFIED[name], cfg, t_tol) for t_tol in (math.inf, 1e-14))
    assert np.all(np.abs(fixed - converged) <= EPS_T * np.abs(converged)), (fixed, converged)

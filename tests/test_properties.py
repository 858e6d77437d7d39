"""Property-based checks of the Matsubara sums at random gaps and temperatures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import casimir as cs

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

"""Property-based checks of the Matsubara sums at random gaps and temperatures."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import casimir as cs

# a in [0.2, 5] um and T in [10, 400] K; few, reproducible examples keep the
# low-temperature corner (thousands of modes per sum) cheap
GAPS = st.floats(min_value=0.2e-6, max_value=5e-6)
TEMPS = st.floats(min_value=10.0, max_value=400.0)
FEW = settings(max_examples=8, deadline=None, derandomize=True, database=None)


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

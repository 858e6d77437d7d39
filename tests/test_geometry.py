"""Sphere-plate force via the proximity theorem."""

import warnings

import numpy as np
import pytest

import casimir as cs
from casimir.errors import ApplicabilityWarning, DomainError

MICRON = 1e-6


def test_wiring_identity_against_free_energy(gold):
    sp = cs.SpherePlateConfig(R=100e-6, a=1e-6)
    F = cs.free_energy(cs.ThermalGapConfig(T=300.0, a=1e-6), gold)
    assert cs.pfa_force(sp, 300.0, gold) == pytest.approx(
        2.0 * np.pi * sp.R * F, rel=1e-14, abs=0.0)
    assert cs.pfa_force(sp, 300.0, gold) < 0.0


def test_linear_in_radius(gold):
    f1 = cs.pfa_force(cs.SpherePlateConfig(R=100e-6, a=1e-6), 300.0, gold)
    f2 = cs.pfa_force(cs.SpherePlateConfig(R=200e-6, a=1e-6), 300.0, gold)
    assert f2 == pytest.approx(2.0 * f1, rel=1e-14, abs=0.0)


def test_vacuum_gives_zero(vacuum):
    sp = cs.SpherePlateConfig(R=100e-6, a=1e-6)
    assert cs.pfa_force(sp, 300.0, vacuum) == 0.0


def test_difference_independent_of_radius(gold):
    d1 = cs.pfa_force_difference(cs.SpherePlateConfig(R=150e-6, a=1e-6), gold)
    d2 = cs.pfa_force_difference(cs.SpherePlateConfig(R=500e-6, a=1e-6), gold)
    assert d1 == d2


def test_equal_temperatures_give_zero(gold):
    sp = cs.SpherePlateConfig(R=100e-6, a=1e-6)
    assert cs.pfa_force_difference(sp, gold, 300.0, 300.0) == 0.0


@pytest.mark.parametrize("a_um", [0.3, 1.0, 1.5])
def test_lower_temperature_dominates_at_small_gaps(gold, a_um):
    # positive difference: the 300 K free energy has the larger magnitude
    sp = cs.SpherePlateConfig(R=200e-6, a=a_um * MICRON)
    assert cs.pfa_force_difference(sp, gold) > 0.0


def test_tracks_free_energy_difference(gold):
    for a_um in (1.0, 2.5):
        sp = cs.SpherePlateConfig(R=500e-6, a=a_um * MICRON)
        delta = cs.free_energy_difference(a_um * MICRON, gold).delta
        assert cs.pfa_force_difference(sp, gold) == pytest.approx(
            2.0 * np.pi * delta, rel=1e-12, abs=0.0)


def test_marginal_geometry_warns(gold):
    sp = cs.SpherePlateConfig(R=10e-6, a=1e-6)
    assert sp.pfa_marginal
    with pytest.warns(ApplicabilityWarning):
        cs.pfa_force(sp, 300.0, gold)
    safe = cs.SpherePlateConfig(R=200e-6, a=1e-6)
    assert not safe.pfa_marginal
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cs.pfa_force(safe, 300.0, gold)


def test_validation():
    with pytest.raises(DomainError):
        cs.SpherePlateConfig(R=0.0, a=1e-6)
    with pytest.raises(DomainError):
        cs.SpherePlateConfig(R=1e-4, a=-1e-6)
    for bad in (np.inf, np.nan):  # R = inf used to give a force of -inf
        with pytest.raises(DomainError, match="sphere radius must be finite"):
            cs.SpherePlateConfig(R=bad, a=1e-6)
        with pytest.raises(DomainError, match="distance must be finite"):
            cs.SpherePlateConfig(R=1e-4, a=bad)

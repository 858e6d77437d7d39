import functools
import math

import pytest
from scipy import integrate

import casimir as cs
from casimir import lifshitz


class _Vacuum:
    """eps = 1 test double; both mirrors transparent."""

    def eps(self, zeta, T=None):
        return 1.0

    def zero_frequency_reflection(self, y, cfg):
        return 0.0, 0.0

    def matsubara_reflection(self, zeta, T):
        return lambda p: (0.0, 0.0)


@pytest.fixture(scope="session")
def vacuum():
    """A material whose reflection coefficients vanish at every mode."""
    return _Vacuum()


@pytest.fixture(scope="session")
def gold():
    """Gold with constant nu = 35 meV, the default setup everywhere."""
    return cs.gold_drude()


@pytest.fixture(scope="session")
def gold_bg():
    """Gold with the Bloch-Grueneisen relaxation model."""
    return cs.gold_drude("bg")


@pytest.fixture(scope="session")
def zero_temperature():
    """(model, a, observable) -> F(0) in J/m^2 or P(0) in Pa, memoized.

    The T -> 0 limit turns k_B T sum'_m into (hbar/2 pi) int_0^inf dzeta.
    With x = a zeta / c and the engine's row integrals I (free energy) and
    J (pressure), F(0) = hbar c/(4 pi^2 a^3) int_0^inf I(x c/a) dx and
    P(0) = -hbar c/(2 pi^2 a^4) int_0^inf J(x c/a) dx.  scipy's quad does
    the outer integral, so only the row integral is shared with the sums;
    the mpmath oracles of test_oracles.py cover that.  The model's eps must
    not depend on T: T = 300 K only fixes the config.
    """
    observables = {"free_energy": (lifshitz._FREE_ENERGY, 1.0 / 4.0, 3),
                   "pressure": (lifshitz._PRESSURE, -1.0 / 2.0, 4)}

    @functools.lru_cache(maxsize=None)
    def limit(model, a, observable):
        (kernel, _, _, zero), factor, power = observables[observable]
        cfg = cs.ThermalGapConfig(T=300.0, a=a)

        def row(x):
            return lifshitz._mode_integrals(model, cfg, [x * cs.C / a], (kernel,), (zero,),
                                           1e-13)[0][0]
        edges = [0.0, 0.01, 0.25, 2.0, 30.0]  # e^{-2x} past x = 30 is below 1e-26
        value = math.fsum(integrate.quad(row, lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)[0]
                          for lo, hi in zip(edges, edges[1:]))
        return factor * cs.HBAR * cs.C / (math.pi ** 2 * a ** power) * value
    return limit

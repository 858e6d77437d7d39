import pytest

import casimir as cs


class _Vacuum:
    """eps = 1 test double; both mirrors transparent."""

    def eps(self, zeta, T=None):
        return 1.0

    def zero_frequency_reflection(self, y, cfg):
        return cs.ReflectionPair(0.0, 0.0)

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

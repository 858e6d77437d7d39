"""Sphere-plate force via the proximity force theorem.

For a sphere of radius R at minimum distance a above a plane, and R large
compared to a, the force is 2 pi R times the parallel-plate free energy
per unit area at gap a.  Validity is advisory: a warning is issued for
R < 100 a rather than refusing, since experimental geometries vary.  A
sweep of gaps (the CLI's sphere-plate) sums every free energy it needs,
at each gap and temperature, as one stack's sum (lifshitz._grid_sums).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dispersion import MaterialModel
from .errors import ApplicabilityWarning, check_positive
from .lifshitz import _FREE_ENERGY, DEFAULT_QUAD, QuadratureSettings, _grid_sums

__all__ = ["SpherePlateConfig", "pfa_force", "pfa_force_difference"]


@dataclass(frozen=True)
class SpherePlateConfig:
    """Sphere radius R and minimum sphere-plane distance a, both in m."""

    R: float
    a: float

    def __post_init__(self):
        check_positive("sphere radius", self.R)
        check_positive("distance", self.a)

    @property
    def pfa_marginal(self) -> bool:
        """True when R < 100 a, where the proximity approximation is shaky."""
        return self.R < 100.0 * self.a


def _pfa_rows(gaps, model, temps, quad, R=None) -> list[list[float]]:
    """Sphere-plate values at each gap a of gaps, from one stack's
    free-energy sum over every (a, T) with T in temps.

    Each row is first 2 pi [F(a, temps[0]) - F(a, temps[-1])], free of R;
    given R, then 2 pi R F(a, T) for each T.  One warning per gap with
    R < 100 a comes first.
    """
    for a in gaps:
        if R is not None and SpherePlateConfig(R=R, a=a).pfa_marginal:
            warnings.warn(
                f"R/a = {R / a:.1f} < 100 at a = {a / 1e-6:.3g} um; the proximity "
                f"force approximation may be inaccurate", ApplicabilityWarning,
                stacklevel=3)
    rows = [[value for (value, _, _), in row]
            for row in _grid_sums(gaps, temps, model, quad, (_FREE_ENERGY,))]
    return [[2.0 * np.pi * (f[0] - f[-1])] + [2.0 * np.pi * R * x for x in f if R is not None]
            for f in rows]


def pfa_force(sp: SpherePlateConfig, T: float, model: MaterialModel,
              quad: QuadratureSettings = DEFAULT_QUAD) -> float:
    """Sphere-plate force 2 pi R F(a) in N (negative = attraction)."""
    return _pfa_rows([sp.a], model, (T,), quad, sp.R)[0][1]


def pfa_force_difference(sp: SpherePlateConfig, model: MaterialModel,
                         T1: float = 350.0, T2: float = 300.0,
                         quad: QuadratureSettings = DEFAULT_QUAD) -> float:
    """Radius-normalized force difference (F_ps(T1) - F_ps(T2))/R in N/m.

    Equal to 2 pi [F(a, T1) - F(a, T2)]; R cancels exactly.
    """
    return _pfa_rows([sp.a], model, (T1, T2), quad, sp.R)[0][0]

"""Temperature-difference observables and low-temperature behaviour.

The proposed experimental signature is the difference between the Casimir
pressure magnitudes at two laboratory temperatures,

    Delta P = |P(T2)| - |P(T1)|        (default pair T1 = 350 K, T2 = 300 K),

and the analogous free-energy difference.  The permittivity is
re-evaluated on each temperature's own Matsubara grid; nothing is cached
across temperatures.  A difference is one stack's sum over its (a, T)
(lifshitz._grid_sums), which evaluates eps once per row block of each
temperature; the CLI's diff stacks P and F at all its gaps, and they share
each row's reflection coefficients.  lowT_quadratic_fit sums its whole
temperature grid as one stack too.

For a lossy metal the free energy follows a quadratic low-temperature law

    F(T) = F_0 + T^2 * omega_p^2 (2 ln 2 - 1) / (48 nu)

(T in energy units, coefficient 18.6 eV for gold), independent of the
plate separation.  A quadratic rather than linear law is what keeps the
entropy vanishing at T = 0.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .constants import C, HBAR, K_B, free_energy_si_to_ev3, temperature_to_ev
from .dispersion import MaterialModel
from .errors import (ApplicabilityWarning, BracketError, DomainError, FitError, check_positive,
                     check_power)
from .lifshitz import (
    _FREE_ENERGY,
    _PRESSURE,
    DEFAULT_QUAD,
    QuadratureSettings,
    ThermalGapConfig,
    _grid_sums,
)

__all__ = [
    "DifferenceResult", "QuadraticFit",
    "pressure_difference", "free_energy_difference", "sign_change_gap",
    "lowT_quadratic_fit", "ideal_pressure_lowT", "dominant_mode",
]


@dataclass(frozen=True)
class DifferenceResult:
    """Magnitude difference |value(T_low)| - |value(T_high)| at one gap.

    T_low / T_high name the second / first temperature of the call, which
    for the default pair (350 K, 300 K) are indeed the lower and higher
    one; swapping the arguments negates ``delta``.
    """

    a: float
    T_low: float
    T_high: float
    delta: float
    raw_low: float
    raw_high: float


@dataclass(frozen=True)
class QuadraticFit:
    """Least-squares fit F(T) = F0 + coeff * T^2 (T in energy units).

    F0 is in J/m^2, coeff in eV.  residual is the maximum fit deviation
    relative to the spanned data range and must stay below 1e-3.
    """

    F0: float
    coeff: float
    residual: float

    def __post_init__(self):
        if not self.residual < 1e-3:
            raise FitError(
                f"quadratic fit residual {self.residual:.3e} exceeds 1e-3 "
                f"of the fitted range; the data are not quadratic in T",
                coeff=self.coeff, residual=self.residual)


def _differences(gaps, model: MaterialModel, T1: float, T2: float,
                 quad: QuadratureSettings, observables) -> list[list[DifferenceResult]]:
    """|value(T2)| - |value(T1)| of each observable at each gap a of gaps,
    from one stack's sum over every (a, T), which shares its rows: per gap,
    one DifferenceResult per observable."""
    return [[DifferenceResult(a=a, T_low=T2, T_high=T1, delta=abs(v2) - abs(v1),
                              raw_low=v2, raw_high=v1)
             for (v1, _, _), (v2, _, _) in zip(*row)]
            for a, row in zip(gaps, _grid_sums(gaps, (T1, T2), model, quad, observables))]


def pressure_difference(a: float, model: MaterialModel,
                        T1: float = 350.0, T2: float = 300.0,
                        quad: QuadratureSettings = DEFAULT_QUAD) -> DifferenceResult:
    """Casimir pressure magnitude difference |P(T2)| - |P(T1)| in Pa."""
    return _differences([a], model, T1, T2, quad, (_PRESSURE,))[0][0]


def free_energy_difference(a: float, model: MaterialModel,
                           T1: float = 350.0, T2: float = 300.0,
                           quad: QuadratureSettings = DEFAULT_QUAD) -> DifferenceResult:
    """Free-energy magnitude difference |F(T2)| - |F(T1)| in J/m^2."""
    return _differences([a], model, T1, T2, quad, (_FREE_ENERGY,))[0][0]


def sign_change_gap(model: MaterialModel, T1: float = 350.0, T2: float = 300.0,
                    bracket: tuple[float, float] = (2.0e-6, 3.5e-6),
                    quad: QuadratureSettings = DEFAULT_QUAD,
                    xtol: float = 1e-9) -> float:
    """Gap width (m) where the pressure difference changes sign.

    Bisection to ``xtol`` (default 1e-3 um), or until the midpoint is a
    bracket end, so an xtol below the float spacing still terminates.
    Raises BracketError unless the difference has opposite signs at the two
    bracket ends; a difference that is identically zero counts as having
    one sign.  A zero inside the bracket, or at one end, is found to xtol
    like any root.
    """
    a_lo, a_hi = bracket
    if not 0 < a_lo < a_hi:
        raise DomainError(f"bracket must satisfy 0 < a_lo < a_hi, got {bracket}")
    check_positive("xtol", xtol)

    def delta(a):
        return pressure_difference(a, model, T1, T2, quad).delta

    d_lo, d_hi = delta(a_lo), delta(a_hi)
    if np.sign(d_lo) == np.sign(d_hi):
        raise BracketError(
            f"pressure difference has the same sign ({d_lo:+.3e}, {d_hi:+.3e}) "
            f"at both ends of [{a_lo:g}, {a_hi:g}] m")
    while a_hi - a_lo > xtol:
        a_mid = 0.5 * (a_lo + a_hi)
        if a_mid in (a_lo, a_hi):
            break
        if np.sign(delta(a_mid)) == np.sign(d_lo):
            a_lo = a_mid
        else:
            a_hi = a_mid
    return 0.5 * (a_lo + a_hi)


def lowT_quadratic_fit(a: float, model: MaterialModel, T_grid,
                       quad: QuadratureSettings = DEFAULT_QUAD) -> QuadraticFit:
    """Fit F(T) = F0 + coeff * T^2 over a low-temperature grid.

    Meaningful for Drude-type response, whose free energy is quadratic in
    T at low temperature; anything with a leading linear or cubic term
    trips the residual gate and raises FitError.  The grid needs at least
    5 temperatures (50-150 K is the intended window).
    """
    temps = np.asarray(T_grid, dtype=float)
    if temps.ndim != 1 or len(temps) < 5:
        raise DomainError("T_grid must contain at least 5 temperatures")
    f_nat = np.array([free_energy_si_to_ev3(F) for (F, _, _), in
                      _grid_sums([a], temps, model, quad, (_FREE_ENERGY,))[0]])
    x = np.array([temperature_to_ev(t) ** 2 for t in temps])  # eV^2

    design = np.column_stack([np.ones_like(x), x])
    coeffs, *_ = np.linalg.lstsq(design, f_nat, rcond=None)
    f0_nat, slope = coeffs
    predicted = design @ coeffs
    spread = float(f_nat.max() - f_nat.min())
    if spread == 0.0:
        raise FitError("free energy does not vary over the temperature grid")
    residual = float(np.max(np.abs(predicted - f_nat)) / spread)
    f0_si = float(f0_nat) / free_energy_si_to_ev3(1.0)
    return QuadraticFit(F0=f0_si, coeff=float(slope), residual=residual)


def ideal_pressure_lowT(a: float, T: float) -> float:
    """Closed-form low-temperature pressure for ideal plates, in Pa.

    P = -(pi^2 hbar c / (240 a^4)) * [1 + (1/3)(2 a T)^4] with aT the
    dimensionless a k_B T/(hbar c); valid for aT << 1.  Warns when
    aT >= 0.2.  DomainError where a^4 or (aT)^4 overflows, or where a^4,
    the denominator, underflows to 0; (aT)^4 may underflow, as it only
    adds to 1.
    """
    check_positive("gap width", a)
    if not 0 <= T < np.inf:
        raise DomainError(f"temperature must be finite and >= 0, got {T}")
    aT = a * K_B * T / (HBAR * C)
    if aT >= 0.2:
        warnings.warn(
            f"ideal_pressure_lowT called at aT = {aT:.3g}; the asymptotic "
            f"form assumes aT << 1", ApplicabilityWarning, stacklevel=2)
    a4, aT4 = check_power("gap width", a, 4), check_power("aT = a k_B T/(hbar c)", aT, 4)
    if a4 == 0.0:
        raise DomainError(f"gap width = {a:g}: its power 4 underflows to 0")
    return -(np.pi ** 2 * HBAR * C / (240.0 * a4)) * (1.0 + (16.0 / 3.0) * aT4)


def dominant_mode(a: float, T: float) -> int:
    """Heuristic dominant Matsubara index round(1/(2 pi a T)).

    The integrand peaks near y ~ 1, which for modest transverse momentum
    picks out m ~ 1/(2 pi aT); below 1/2 the m = 0 term dominates.
    """
    return int(round(1.0 / ThermalGapConfig(T=T, a=a).gamma))

"""Lifshitz theory for two parallel plates at finite temperature.

Pressure between the plates (negative = attraction):

    P = -(k_B T / (pi a^3)) * sum'_m  int_{m gamma}^inf y^2 dy
        [ A e^{-2y}/(1 - A e^{-2y}) + B e^{-2y}/(1 - B e^{-2y}) ],

and the free energy per unit area, with P = -dF/da:

    F = (k_B T / (2 pi a^2)) * sum'_m  int_{m gamma}^inf y dy
        [ ln(1 - A e^{-2y}) + ln(1 - B e^{-2y}) ].

The primed sum gives half weight to m = 0.  Here y = q a is the
dimensionless wave number, gamma = 2 pi a k_B T / (hbar c), and the
squared reflection coefficients for the TM and TE polarizations are

    A = ((eps p - s)/(eps p + s))^2,   B = ((s - p)/(s + p))^2,

with the Lifshitz variables p = y/(m gamma) and s = sqrt(eps - 1 + p^2),
eps evaluated at the Matsubara frequency zeta_m = 2 pi m k_B T / hbar.

The m = 0 term is handled analytically, never as a small-zeta numerical
limit, by each material model's zero_frequency_reflection rule (see
dispersion): a lossy metal keeps its TM zero mode (A = 1) but loses the
TE one (B = 0), while the dissipationless plasma model and the ideal
reflector retain both.  That difference is exactly what makes the
temperature dependence model-sensitive.  For m >= 1 the engine asks the
model for its matsubara_reflection rule at zeta_m.

Both rules return plain (A, B); only the public reflection_pair and
zero_frequency_reflection validate them.  With y = m gamma + t every m >= 1
mode lives on the same t-interval, so a sum is one adaptive integral over
the summed integrand of modes 1..M-1, with M set by an ideal-reflector
bound on the dropped tail, plus the m = 0 term.  When the m = 0 rule gives
constant A and B, each 0 or 1 (a lossy metal, the ideal reflector), that
term is (A + B) zeta(3)/4 in closed form, with the sign of the kernel;
otherwise (plasma) it is a second integral.  Every t-integral starts from
the same initial panels, graded toward t = 0, where the kernels vary fastest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C, HBAR, K_B
from .dispersion import MaterialModel, _reflection_sq
from .errors import (ConvergenceError, DomainError, TableRangeError,
                     UnsupportedModelError, check_positive)
from .quadrature import _adaptive_rule, adaptive_quad

__all__ = [
    "ThermalGapConfig", "QuadratureSettings", "ReflectionPair",
    "PressureResult", "DEFAULT_QUAD",
    "lifshitz_variables", "reflection_pair", "zero_frequency_reflection",
    "mode_pressure", "mode_free_energy", "total_pressure", "free_energy",
    "te_mode_function", "surface_impedance", "rte_from_impedance",
    "rte_zero_frequency_comparison",
]

# Initial panel edges of every t-integral, graded toward t = 0 where the
# kernels vary fastest (the plasma m = 0 free energy has a y ln y singularity
# there, and at low aT so do the first rows); chosen by counting rounds and
# points over the benchmark's sums.  The last edge is the width of every
# y-integral: e^{-2 y} past 30 is below 1e-26.
_T_MESH = np.array([0.0, 1 / 256, 1 / 32, 3 / 16, 0.75, 2.0, 4.5, 9.0, 15.0, 30.0])
_ROW_BLOCK = 128  # rows evaluated together: bounds the integrand's memory
_ROW_CAP = 250_000  # most modes one sum may take (1.5 K at 50 nm takes 88k)


@dataclass(frozen=True)
class ThermalGapConfig:
    """Temperature (K) and gap width (m) with the derived Matsubara grid."""

    T: float
    a: float

    def __post_init__(self):
        check_positive("temperature", self.T)
        check_positive("gap width", self.a)

    @property
    def aT(self) -> float:
        """Dimensionless a*T = a k_B T / (hbar c)."""
        return self.a * K_B * self.T / (HBAR * C)

    @property
    def gamma(self) -> float:
        """Dimensionless Matsubara spacing 2 pi a k_B T / (hbar c)."""
        return 2.0 * np.pi * self.aT

    def matsubara(self, m) -> float:
        """Matsubara frequency zeta_m = 2 pi m k_B T / hbar in rad/s."""
        return 2.0 * np.pi * m * K_B * self.T / HBAR


@dataclass(frozen=True)
class QuadratureSettings:
    """Relative tolerance of the y-integrals and the Matsubara truncation."""

    rel_tol: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.rel_tol <= 1e-4:
            raise DomainError(f"rel_tol must be in (0, 1e-4], got {self.rel_tol}")


DEFAULT_QUAD = QuadratureSettings()


@dataclass(frozen=True)
class PressureResult:
    """Total pressure with the per-mode decomposition.

    per_mode holds (m, contribution in Pa, share of the total in percent)
    for m = 0..m_used-1; each contribution is accurate to rel_tol of the total.
    """

    total: float
    per_mode: tuple
    m_used: int

    def fraction(self, m: int) -> float:
        """Percentage contribution of mode m (0 if beyond the modes used)."""
        if m < len(self.per_mode):
            return self.per_mode[m][2]
        return 0.0


# ---------------------------------------------------------------------------
# reflection coefficients

@dataclass(frozen=True)
class ReflectionPair:
    """Squared reflection coefficients (TM, TE), each in [0, 1]."""

    A: float
    B: float

    def __post_init__(self):
        for name, X in (("TM", self.A), ("TE", self.B)):
            X = np.asarray(X)
            if not np.all((X >= 0) & (X <= 1)):  # NaN fails too
                raise DomainError(f"squared {name} coefficient must lie in [0, 1]")


def lifshitz_variables(y, m: int, cfg: ThermalGapConfig, eps):
    """The variables p = y/(m gamma) and s = sqrt(eps - 1 + p^2)."""
    if m < 1:
        raise DomainError("lifshitz_variables needs a mode index m >= 1")
    y = np.asarray(y, dtype=float)
    mg = m * cfg.gamma
    if not np.all(y >= mg):
        raise DomainError(f"y must be >= m*gamma = {mg:g}")
    eps = np.asarray(eps, dtype=float)
    if not np.all(eps >= 1.0):
        raise DomainError("eps must be >= 1 on the imaginary axis")
    p = y / mg
    s = np.sqrt(eps - 1.0 + p * p)
    if p.ndim == 0:
        return float(p), float(s)
    return p, s


def reflection_pair(y, m: int, cfg: ThermalGapConfig, eps) -> ReflectionPair:
    """Squared reflection coefficients A (TM) and B (TE) for mode m >= 1."""
    p, _ = lifshitz_variables(y, m, cfg, eps)
    A, B = _reflection_sq(np.asarray(eps, dtype=float), np.asarray(p, dtype=float))
    if np.ndim(A) == 0:
        return ReflectionPair(float(A), float(B))
    return ReflectionPair(A, B)


def _zero_rule(model, cfg):
    """The model's analytic m = 0 rule bound to cfg: y -> (A, B)."""
    try:
        rule = model.zero_frequency_reflection
    except AttributeError:
        raise UnsupportedModelError(
            f"no zero-frequency reflection rule for {type(model).__name__}") from None
    return lambda y: rule(y, cfg)


def zero_frequency_reflection(model: MaterialModel, y, cfg: ThermalGapConfig) -> ReflectionPair:
    """Analytic m = 0 reflection coefficients, from the model's own rule.

    Constant coefficients are returned as plain scalars; keeping A = 1.0
    scalar lets the integrands use their exact expm1/log forms at y -> 0,
    and scalar 0s and 1s give the m = 0 term in closed form.
    """
    y = np.asarray(y, dtype=float)
    if not np.all(y >= 0):
        raise DomainError("y must be >= 0")
    return ReflectionPair(*_zero_rule(model, cfg)(y))


# ---------------------------------------------------------------------------
# mode integrals

def _occupancy(X, y):
    """X e^{-2y} / (1 - X e^{-2y}), exact for the X = 1 zero-mode case."""
    u = X * np.exp(-2.0 * y)
    if np.ndim(X) == 0 and float(X) == 1.0:
        denom = -np.expm1(-2.0 * y)
    else:
        denom = 1.0 - u
    return u / denom


def _log_term(X, y):
    """ln(1 - X e^{-2y}) at full relative precision.

    For X = 1 the two loss modes are split: near y = 0 the difference
    1 - e^{-2y} needs expm1, while for large y the argument of a plain
    log would sit within a few ulp of 1 and log1p(-exp(-2y)) is exact.
    """
    if np.ndim(X) == 0 and float(X) == 1.0:
        y = np.asarray(y, dtype=float)
        out = np.empty_like(y)
        small = y < 0.3466  # e^{-2y} > 1/2
        out[small] = np.log(-np.expm1(-2.0 * y[small]))
        out[~small] = np.log1p(-np.exp(-2.0 * y[~small]))
        return out
    return np.log1p(-X * np.exp(-2.0 * y))


def _pressure_kernel(A, B, y):
    return y * y * (_occupancy(A, y) + _occupancy(B, y))


def _free_energy_kernel(A, B, y):
    return y * (_log_term(A, y) + _log_term(B, y))


def _te_kernel(A, B, y):
    return y * _log_term(B, y)


# zeta(3)/4 = int_0^inf y^2 e^{-2y}/(1 - e^{-2y}) dy = -int_0^inf y ln(1 - e^{-2y}) dy
_ZETA3_4 = 0.3005142257898985713


# An observable: its kernel, its prefactor, the coefficients of c^2, c, 1 in
# p(c) and q(c) of its ideal-reflector tail bound (see _tail_bound), and its
# m = 0 integral per unit TM and per unit TE coefficient.
_PRESSURE = (_pressure_kernel, lambda cfg: -K_B * cfg.T / (np.pi * cfg.a ** 3),
             ((0.5, 0.5, 0.25), (0.25, 0.5, 0.375)), (_ZETA3_4, _ZETA3_4))
_FREE_ENERGY = (_free_energy_kernel, lambda cfg: K_B * cfg.T / (2.0 * np.pi * cfg.a ** 2),
                ((0.0, 0.5, 0.25), (0.0, 0.25, 0.25)), (-_ZETA3_4, -_ZETA3_4))


def _integrate(model, cfg, zeta, kernel, rel_tol, by_row=False):
    """Row-summed int kernel(A, B, y) dt over t in [0, 30], y = a zeta / c + t.

    Rows share t, so one adaptive integral holds rel_tol on their sum; it
    starts from the panels of _T_MESH.  The row zeta = [0] takes the model's
    m = 0 rule; rows at zeta > 0 bind its m >= 1 rule in p = y c / (a zeta)
    once per block of _ROW_BLOCK rows.  by_row adds each row's integral on
    the final panels.
    """
    zeta = np.asarray(zeta, dtype=float)[:, None]
    zero = zeta[0, 0] == 0.0
    blocks = [(zeta, _zero_rule(model, cfg))] if zero else [
        (cfg.a * z / C, model.matsubara_reflection(z, cfg.T))
        for z in np.split(zeta, range(_ROW_BLOCK, len(zeta), _ROW_BLOCK))]

    def rows(t):
        for y_lo, rule in blocks:
            y = y_lo + t
            yield kernel(*rule(y if zero else y / y_lo), y)

    def integrand(t):
        return sum(k.sum(axis=0) for k in rows(t))

    if not by_row:  # the public entry point, where perfbench's tracer hooks in
        return adaptive_quad(integrand, _T_MESH[0], _T_MESH[-1], rel_tol=rel_tol,
                             points=_T_MESH[1:-1])[0]
    value, _, t, w = _adaptive_rule(integrand, _T_MESH, rel_tol)
    return value, np.concatenate([k @ w for k in rows(t)])


def _mode_integral(model, cfg, zeta, kernel, zero, rel_tol):
    """int kernel dy of the one row at zeta, without weight or prefactor.

    At zeta = 0, a model whose rule gives constant A and B, each 0 or 1 (a
    lossy metal, the ideal reflector), has the closed form A unit_A + B unit_B,
    with zero = (unit_A, unit_B) the kernel's integrals at unit coefficients;
    any other zero mode (plasma, a coefficient between 0 and 1) is integrated.
    """
    if zeta == 0.0:
        A, B = _zero_rule(model, cfg)(np.zeros(1))
        if all(np.ndim(X) == 0 and X in (0.0, 1.0) for X in (A, B)):
            unit_A, unit_B = zero
            return unit_A * A + unit_B * B
    return _integrate(model, cfg, [zeta], kernel, rel_tol)


def _mode_value(m, cfg, model, quad, observable):
    """prefactor * weight * mode integral; m = 0 carries the half weight."""
    kernel, prefactor, _, zero = observable
    if m < 0:
        raise DomainError(f"mode index must be >= 0, got {m}")
    weight = 0.5 if m == 0 else 1.0
    return prefactor(cfg) * weight * _mode_integral(
        model, cfg, cfg.matsubara(m), kernel, zero, quad.rel_tol)


def mode_pressure(m: int, cfg: ThermalGapConfig, model: MaterialModel,
                  quad: QuadratureSettings = DEFAULT_QUAD) -> float:
    """Pressure contribution of Matsubara mode m, in Pa (negative).

    The m = 0 term carries the half weight of the primed sum and uses the
    analytic zero-frequency reflection coefficients.
    """
    return _mode_value(m, cfg, model, quad, _PRESSURE)


def mode_free_energy(m: int, cfg: ThermalGapConfig, model: MaterialModel,
                     quad: QuadratureSettings = DEFAULT_QUAD) -> float:
    """Free-energy contribution of mode m, in J/m^2 (negative)."""
    return _mode_value(m, cfg, model, quad, _FREE_ENERGY)


def _tail_bound(M, gamma, coeffs):
    """Bound on sum_{m >= M} int_{m gamma}^inf |kernel| dy, for every model.

    As 0 <= A, B <= 1, each kernel is at most its ideal-reflector value, and
    for y >= c = M gamma, e^{-2y}/(1 - e^{-2y}) <= e^{-2y}/(1 - e^{-2c}).  The
    mode integral I decreases, so the sum is at most I(c) + int_c^inf I / gamma
    = 2 e^{-2c}/(1 - e^{-2c}) (p(c) + q(c)/gamma), elementary in c.
    """
    c = M * gamma
    p, q = ((k2 * c + k1) * c + k0 for k2, k1, k0 in coeffs)
    return 2.0 * math.exp(-2.0 * c) / -math.expm1(-2.0 * c) * (p + q / gamma)


def _smallest(ok, lo, hi):
    """Smallest n > lo with ok(n), for a monotone ok; hi doubles until ok(hi)."""
    while not ok(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if ok(mid) else (mid, hi)
    return hi


def _rejects(model, zeta, T):
    """Whether the model's m >= 1 rule rejects the frequencies (a short table)."""
    try:
        model.matsubara_reflection(zeta[:, None], T)
    except TableRangeError:
        return True
    return False


def _sum_modes(cfg, model, quad, observable, by_row=False):
    """Primed Matsubara sum: prefactor, m = 0 term and the rows m = 1..M-1.

    Every term has the sign of the m = 0 term, so stopping at the M whose
    tail bound is rel_tol of that term holds rel_tol on the whole sum.
    """
    kernel, prefactor, tail, zero_unit = observable
    where = f"at T = {cfg.T:g} K, a = {cfg.a:g} m (gamma = {cfg.gamma:.3g})"
    try:
        zero = 0.5 * _mode_integral(model, cfg, 0.0, kernel, zero_unit, quad.rel_tol)
    except ConvergenceError as exc:
        raise ConvergenceError(f"Matsubara mode m = 0 {where}: {exc}",
                               estimate=exc.estimate) from None
    M = _smallest(lambda n: _tail_bound(n, cfg.gamma, tail) <= quad.rel_tol * abs(zero),
                  1, 2)
    if M > _ROW_CAP:
        raise ConvergenceError(f"Matsubara sum needs M = {M} modes {where}, "
                               f"more than {_ROW_CAP}")
    zeta = cfg.matsubara(np.arange(1, M))
    try:
        return prefactor(cfg), zero, _integrate(model, cfg, zeta, kernel,
                                                quad.rel_tol, by_row)
    except TableRangeError as exc:
        if not _rejects(model, zeta, cfg.T):  # raised by the rule, not its binding
            raise
        m = _smallest(lambda n: _rejects(model, zeta[:n], cfg.T), 0, len(zeta))
        raise TableRangeError(f"Matsubara mode m = {m} at T = {cfg.T:g} K has "
                              f"zeta_m = {zeta[m - 1]:.4g} rad/s: {exc}") from None
    except ConvergenceError as exc:
        raise ConvergenceError(f"Matsubara modes m = 1..{M - 1} {where}: {exc}",
                               estimate=exc.estimate) from None


def total_pressure(cfg: ThermalGapConfig, model: MaterialModel,
                   quad: QuadratureSettings = DEFAULT_QUAD) -> PressureResult:
    """Total Casimir pressure with per-mode contributions and fractions."""
    prefactor, zero, (rows, per_row) = _sum_modes(cfg, model, quad, _PRESSURE, True)
    total = prefactor * (zero + rows)
    c = prefactor * np.concatenate(([zero], per_row))
    shares = 100.0 * c / total if total != 0.0 else 0.0 * c
    return PressureResult(total=total, m_used=len(c),
                          per_mode=tuple(zip(range(len(c)), c.tolist(), shares.tolist())))


def free_energy(cfg: ThermalGapConfig, model: MaterialModel,
                quad: QuadratureSettings = DEFAULT_QUAD) -> float:
    """Free energy per unit area in J/m^2 (negative; P = -dF/da)."""
    prefactor, zero, rows = _sum_modes(cfg, model, quad, _FREE_ENERGY)
    return prefactor * (zero + rows)


# ---------------------------------------------------------------------------
# TE mode function at continuous frequency

def te_mode_function(zeta: float, a: float, model: MaterialModel,
                     T: float = 300.0,
                     quad: QuadratureSettings = DEFAULT_QUAD) -> float:
    """TE free-energy integrand f(zeta) = int y ln(1 - B e^{-2y}) dy.

    Evaluated at a continuous imaginary frequency (not only the Matsubara
    nodes), with the lower limit y = a zeta / c.  f(0) uses the analytic
    zero-frequency coefficient and the m = 0 closed form of the sums, so a
    lossy metal gives exactly 0 and an ideal reflector -zeta(3)/4.  T only
    enters through a possible temperature dependence of the relaxation
    frequency.
    """
    if not 0 <= zeta < math.inf:
        raise DomainError(f"zeta must be finite and >= 0, got {zeta}")
    return _mode_integral(model, ThermalGapConfig(T=T, a=a), zeta,
                          _te_kernel, (0.0, -_ZETA3_4), quad.rel_tol)


# ---------------------------------------------------------------------------
# surface impedance formulation

def surface_impedance(zeta: float, q: float, eps: float) -> float:
    """Momentum-dependent surface impedance Z = -zeta/sqrt(zeta^2(eps-1)+q^2).

    q is the full imaginary-axis wave number times c (so q >= zeta, with
    q^2 = (c k_perp)^2 + zeta^2), in rad/s.
    """
    check_positive("zeta", zeta)
    if not q >= zeta:
        raise DomainError(f"q must be >= zeta (q^2 = c^2 k_perp^2 + zeta^2), "
                          f"got q = {q:g} with zeta = {zeta:g}")
    return -zeta / np.sqrt(zeta * zeta * (eps - 1.0) + q * q)


def rte_from_impedance(zeta: float, q: float, eps: float) -> float:
    """TE reflection coefficient -(1 + Z p)/(1 - Z p) with p = q/zeta.

    Its square equals the TE coefficient B from the permittivity form;
    only the square enters the Lifshitz sum, so the overall sign is pure
    convention.
    """
    Z = surface_impedance(zeta, q, eps)
    p = q / zeta
    return -(1.0 + Z * p) / (1.0 - Z * p)


def rte_zero_frequency_comparison(model, q_fixed: float, zeta_sequence):
    """Contrast the zeta -> 0 TE reflection under two impedance models.

    Takes a decreasing sequence of frequencies and returns the squared
    reflection coefficients at its last, smallest one, using

      (i)  the momentum-dependent impedance Z(zeta, q), and
      (ii) the frequency-only impedance Z(zeta) = -1/sqrt(eps(i zeta))
           one would take from the normal skin effect (obtained by
           dropping the transverse momentum, i.e. setting q = zeta in Z),

    both inserted at the true p = q/zeta.  For a lossy metal the limits
    differ qualitatively: (i) -> 0 while (ii) -> 1, which is why a
    frequency-only impedance cannot be used at finite temperature.  For
    the plasma model both agree and stay finite.
    """
    zs = np.asarray(zeta_sequence, dtype=float)
    if zs.ndim != 1 or len(zs) == 0:
        raise DomainError("zeta_sequence must be a non-empty 1-D sequence")
    if not np.all(zs > 0):
        raise DomainError("zeta_sequence must be positive")
    if len(zs) > 1 and not np.all(np.diff(zs) < 0):
        raise DomainError("zeta_sequence must be strictly decreasing")
    if not q_fixed >= zs[0]:
        raise DomainError("q_fixed must be >= every zeta in the sequence")
    zeta = zs[-1]
    eps = model.eps(zeta)
    r_momentum = rte_from_impedance(zeta, q_fixed, eps)
    p = q_fixed / zeta
    Z_freq = -1.0 / np.sqrt(eps)
    r_freq = -(1.0 + Z_freq * p) / (1.0 - Z_freq * p)
    return r_momentum * r_momentum, r_freq * r_freq

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
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .constants import C, HBAR, K_B
from .dispersion import MaterialModel, _reflection_sq
from .errors import (ConvergenceError, DomainError, TableRangeError,
                     UnsupportedModelError, check_eps, check_index, check_positive)
from .quadrature import adaptive_quad

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
_ROW_CAP = 250_000  # most modes one sum may take (1.5 K at 50 nm takes 94,141)


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
    m_used: int
    _contributions: object = field(repr=False, compare=False)  # () -> the M terms

    @cached_property  # evaluated on the sum's final panel rule when first read
    def per_mode(self) -> tuple:
        c = self._contributions()
        shares = 100.0 * c / self.total if self.total != 0.0 else 0.0 * c
        return tuple(zip(range(self.m_used), c.tolist(), shares.tolist()))

    def fraction(self, m: int) -> float:
        """Percentage contribution of mode m >= 0 (0 if beyond the modes used).

        m must be an integer; DomainError otherwise.
        """
        check_index(m, 0)
        if m < self.m_used:
            return self.per_mode[m][2]
        return 0.0

    def __getstate__(self):  # pickles and copies hold the table, not the callable
        return dict(vars(self), per_mode=self.per_mode, _contributions=None)


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
    """The variables p = y/(m gamma) and s = sqrt(eps - 1 + p^2).

    m is an integer >= 1 and y finite and >= m gamma; DomainError otherwise.
    """
    check_index(m, 1)
    y = np.asarray(y, dtype=float)
    mg = m * cfg.gamma
    if not np.all((y >= mg) & (y < math.inf)):  # NaN fails too
        raise DomainError(f"y must be >= m*gamma = {mg:g} and finite")
    eps = check_eps(eps)
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

    y must be finite and >= 0.  Constant coefficients are returned as plain
    scalars.  That is the one place where a scalar matters: scalar 0s and
    1s (Drude, Ideal, a drude_like table) mark a constant zero mode, whose
    term the sums give in closed form; the kernels treat scalars and arrays
    alike.
    """
    y = np.asarray(y, dtype=float)
    if not np.all((y >= 0) & (y < math.inf)):  # NaN fails too
        raise DomainError("y must be >= 0 and finite")
    return ReflectionPair(*_zero_rule(model, cfg)(y))


# ---------------------------------------------------------------------------
# mode integrals

def _pressure_kernel(A, B, y):
    u = np.exp(-2.0 * y)
    return y * y * (A * u / (1.0 - A * u) + B * u / (1.0 - B * u))


def _free_energy_kernel(A, B, y):
    u = np.exp(-2.0 * y)
    return y * (np.log1p(-A * u) + np.log1p(-B * u))


def _te_kernel(A, B, y):
    return y * np.log1p(-B * np.exp(-2.0 * y))


# zeta(3)/4 = int_0^inf y^2 e^{-2y}/(1 - e^{-2y}) dy = -int_0^inf y ln(1 - e^{-2y}) dy
_ZETA3_4 = 0.3005142257898985713


# An observable: its kernel, its prefactor, the coefficients of c^2, c, 1 in
# p(c) and q(c) of its ideal-reflector tail bound (see _tail_bound), and its
# m = 0 integral per unit TM and per unit TE coefficient.
_PRESSURE = (_pressure_kernel, lambda cfg: -K_B * cfg.T / (np.pi * cfg.a ** 3),
             ((0.5, 0.5, 0.25), (0.25, 0.5, 0.375)), (_ZETA3_4, _ZETA3_4))
_FREE_ENERGY = (_free_energy_kernel, lambda cfg: K_B * cfg.T / (2.0 * np.pi * cfg.a ** 2),
                ((0.0, 0.5, 0.25), (0.0, 0.25, 0.25)), (-_ZETA3_4, -_ZETA3_4))


def _integrate(model, cfg, zeta, kernel, rel_tol):
    """Row-summed int kernel(A, B, y) dt over t in [0, 30], y = a zeta / c + t.

    Rows share t, so one adaptive_quad call holds rel_tol on their sum; it
    starts from the panels of _T_MESH.  The row zeta = [0] takes the model's
    m = 0 rule; rows at zeta > 0 bind its m >= 1 rule in p = y c / (a zeta)
    once per block of _ROW_BLOCK rows.  Returns the sum and a callable that
    evaluates each row's integral on the final panel rule of adaptive_quad.
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

    value, _, t, w = adaptive_quad(integrand, _T_MESH[0], _T_MESH[-1],
                                   rel_tol=rel_tol, points=_T_MESH[1:-1])
    return value, lambda: np.concatenate([k @ w for k in rows(t)])


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
    return _integrate(model, cfg, [zeta], kernel, rel_tol)[0]


def _mode_value(m, cfg, model, quad, observable):
    """prefactor * weight * mode integral; m = 0 carries the half weight."""
    kernel, prefactor, _, zero = observable
    check_index(m, 0)
    weight = 0.5 if m == 0 else 1.0
    return prefactor(cfg) * weight * _mode_integral(
        model, cfg, cfg.matsubara(m), kernel, zero, quad.rel_tol)


def mode_pressure(m: int, cfg: ThermalGapConfig, model: MaterialModel,
                  quad: QuadratureSettings = DEFAULT_QUAD) -> float:
    """Pressure contribution of Matsubara mode m, in Pa (negative).

    m is an integer >= 0 (DomainError otherwise).  The m = 0 term carries
    the half weight of the primed sum and uses the analytic zero-frequency
    reflection coefficients.
    """
    return _mode_value(m, cfg, model, quad, _PRESSURE)


def mode_free_energy(m: int, cfg: ThermalGapConfig, model: MaterialModel,
                     quad: QuadratureSettings = DEFAULT_QUAD) -> float:
    """Free-energy contribution of mode m, in J/m^2 (negative).

    m is an integer >= 0 (DomainError otherwise); m = 0 carries the half weight.
    """
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


def _sum_modes(cfg, model, quad, observable):
    """Primed Matsubara sum, its M and a callable giving the M terms.

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
        rows, per_row = _integrate(model, cfg, zeta, kernel, quad.rel_tol)
    except TableRangeError as exc:
        if exc.zeta is None:  # not a table lookup: nothing names the mode
            raise
        # rows ascend and bind in order, so exc.zeta is the first failing row
        m = int(np.searchsorted(zeta, exc.zeta)) + 1
        raise TableRangeError(f"Matsubara mode m = {m} at T = {cfg.T:g} K has "
                              f"zeta_m = {zeta[m - 1]:.4g} rad/s: {exc}") from None
    except ConvergenceError as exc:
        raise ConvergenceError(f"Matsubara modes m = 1..{M - 1} {where}: {exc}",
                               estimate=exc.estimate) from None
    p = prefactor(cfg)
    return p * (zero + rows), M, lambda: p * np.concatenate(([zero], per_row()))


def total_pressure(cfg: ThermalGapConfig, model: MaterialModel,
                   quad: QuadratureSettings = DEFAULT_QUAD) -> PressureResult:
    """Total Casimir pressure with per-mode contributions and fractions."""
    return PressureResult(*_sum_modes(cfg, model, quad, _PRESSURE))


def free_energy(cfg: ThermalGapConfig, model: MaterialModel,
                quad: QuadratureSettings = DEFAULT_QUAD) -> float:
    """Free energy per unit area in J/m^2 (negative; P = -dF/da)."""
    return _sum_modes(cfg, model, quad, _FREE_ENERGY)[0]


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
    check_eps(eps)
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


def rte_zero_frequency_comparison(model, q_fixed: float, zeta_sequence, T: float = 300.0):
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
    the plasma model both agree and stay finite.  eps is taken at T (K).
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
    eps = model.eps(zeta, T)
    r_momentum = rte_from_impedance(zeta, q_fixed, eps)
    p = q_fixed / zeta
    Z_freq = -1.0 / np.sqrt(eps)
    r_freq = -(1.0 + Z_freq * p) / (1.0 - Z_freq * p)
    return r_momentum * r_momentum, r_freq * r_freq

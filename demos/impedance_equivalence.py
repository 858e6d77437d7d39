"""Surface-impedance versus permittivity forms of the TE reflection.

With the momentum-dependent impedance Z = -zeta/sqrt(zeta^2(eps-1) + q^2)
the reflection coefficient r = -(1 + Zp)/(1 - Zp) squares to exactly the
TE coefficient of the permittivity formulation - the two are one formula
in different notation.  Dropping the transverse momentum (the normal
skin-effect habit, Z = -1/sqrt(eps)) instead drives |r|^2 -> 1 at zero
frequency for a lossy metal, silently restoring the TE zero mode the
metal does not have.  For the plasma model both routes agree.
"""

import numpy as np

import casimir as cs
from casimir.lifshitz import _reflection_sq, _rte

gold = cs.gold_drude()

# one array call over the 20 x 20 grid: zeta down the rows, p = q/zeta across
zeta = np.geomspace(1e12, 1e16, 20)[:, None]
p = np.geomspace(1.0, 100.0, 20)
eps = gold.eps(zeta)
r = cs.rte_from_impedance(zeta, p * zeta, eps)
_, B = _reflection_sq(eps, p)
print(f"max |r^2 - B| over a 20x20 (zeta, q) grid: {np.abs(r * r - B).max():.3e}")

print("\nzeta -> 0 at fixed q = 1e14 rad/s (Drude gold):")
print(f"{'zeta [rad/s]':>14} {'|r|^2 momentum-dep.':>21} {'|r|^2 freq.-only':>18}")
zeta = np.geomspace(1e12, 1e2, 6)
eps = gold.eps(zeta)
r_full = cs.rte_from_impedance(zeta, 1e14, eps)
r_freq = _rte(-1.0 / np.sqrt(eps), 1e14 / zeta)  # Z = -1/sqrt(eps): no q in Z
for z, full, freq in zip(zeta, r_full**2, r_freq**2):
    print(f"{z:14.1e} {full:21.6e} {freq:18.9f}")

lim_m, lim_f = cs.rte_zero_frequency_comparison(gold, 1e14,
                                                np.geomspace(1e12, 1e2, 11))
print(f"\nlimits: momentum-dependent -> {lim_m:.2e} (vanishes), "
      f"frequency-only -> {lim_f:.6f} (spurious unit reflection)")

lim_m, lim_f = cs.rte_zero_frequency_comparison(cs.Plasma(), 1e14,
                                                np.geomspace(1e12, 1e4, 9))
print(f"plasma model: both limits finite and equal: {lim_m:.6f} vs {lim_f:.6f}")

"""Physical constants and unit conversions.

All internal computations use SI: lengths in meters, temperatures in K,
(imaginary) frequencies in rad/s, pressures in Pa, free energies in J/m^2.
Material parameters (plasma and relaxation frequencies) are quoted in eV
and converted via hbar.
"""

from __future__ import annotations

CONSTANTS_VERSION = "CODATA-2018"

HBAR = 1.054571817e-34  # J s
C = 2.99792458e8        # m / s
K_B = 1.380649e-23      # J / K
EV = 1.602176634e-19    # J

# 1 eV on the imaginary frequency axis, in rad/s (~1.519e15 rad/s per eV)
EV_TO_RAD_S = EV / HBAR

# hbar*c in eV*m; (HBARC_EV_M**2 / EV) converts J/m^2 to eV^3 natural units
HBARC_EV_M = HBAR * C / EV


def ev_to_rad_s(energy_ev: float) -> float:
    """Angular frequency (rad/s) of a photon of the given energy in eV."""
    return energy_ev * EV_TO_RAD_S


def temperature_to_ev(T: float) -> float:
    """k_B * T expressed in eV."""
    return K_B * T / EV


def free_energy_si_to_ev3(F: float) -> float:
    """Convert a free energy per unit area from J/m^2 to eV^3 (hbar=c=1)."""
    return F * HBARC_EV_M**2 / EV

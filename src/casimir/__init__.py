"""Finite-temperature Casimir forces between real-metal plates.

Lifshitz theory with Matsubara summation: pressure and free energy for
parallel plates, temperature-difference observables, sphere-plate forces
via the proximity theorem, Drude/plasma/ideal/tabulated dispersion models,
and surface-impedance consistency checks.
"""

__version__ = "0.1.0"

# the public API: the four constants and each module's __all__
from .constants import C, EV, HBAR, K_B
from .dispersion import *  # noqa: F403
from .errors import *  # noqa: F403
from .geometry import *  # noqa: F403
from .lifshitz import *  # noqa: F403
from .thermal import *  # noqa: F403

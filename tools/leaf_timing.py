"""Time the leaf math of the sums layer by layer, on one block of rows.

    PYTHONPATH=src python tools/leaf_timing.py

One block is what the engine evaluates at a time: 64 rows (modes m = 1..64)
x 135 t-points (the first t-panels), gold (Drude 9 eV / 35 meV) at 300 K and
a = 1 um.  The variants are

    eps           model.eps at the block's frequencies, a column of 64
    reflection    _reflection_sq(eps, p) on the block, eps bound
    kernels P     _kernels_at with the pressure kernel: (A, B), then P
    kernels F     the same with the free-energy kernel
    kernels P+F   both kernels, as a sum of P and F stacked together

Each of 300 rounds times one call of every variant in turn, so a slow
spell of the machine touches them all; each line prints the best time in us.
"""

from __future__ import annotations

import platform
import sys
import time

import numpy as np

from casimir import ThermalGapConfig, gold_drude
from casimir.constants import C
from casimir.dispersion import _reflection_sq
from casimir.lifshitz import _FREE_ENERGY, _PRESSURE, _T_NODES, _kernels_at

_ROUNDS = 300


def variants():
    """(name, call) of each timed step on the one block."""
    model, cfg = gold_drude(), ThermalGapConfig(T=300.0, a=1e-6)
    zeta = cfg.matsubara(np.arange(1, 65))[:, None]
    y_lo = cfg.a * zeta / C
    y = y_lo + _T_NODES
    eps, p = model.eps(zeta, cfg.T), y / y_lo
    rule = model.matsubara_reflection(zeta, cfg.T)
    block_rule = lambda y: rule(y / y_lo)  # as the engine binds a block's rule
    P, F = _PRESSURE[0], _FREE_ENERGY[0]
    return [("eps", lambda: model.eps(zeta, cfg.T)),
            ("reflection", lambda: _reflection_sq(eps, p)),
            ("kernels P", lambda: _kernels_at(block_rule, y, (P,))),
            ("kernels F", lambda: _kernels_at(block_rule, y, (F,))),
            ("kernels P+F", lambda: _kernels_at(block_rule, y, (P, F)))]


def main() -> int:
    steps = variants()
    best = [float("inf")] * len(steps)
    for _ in range(_ROUNDS):
        for i, (_, call) in enumerate(steps):
            start = time.perf_counter()
            call()
            best[i] = min(best[i], time.perf_counter() - start)
    print(f"# one 64 x {len(_T_NODES)} block, gold, 300 K, 1 um; best of {_ROUNDS}; "
          f"Python {platform.python_version()}, numpy {np.__version__}")
    for (name, _), seconds in zip(steps, best):
        print(f"{name:12s} {seconds * 1e6:8.1f} us")
    return 0


if __name__ == "__main__":
    sys.exit(main())

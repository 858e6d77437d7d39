"""Time the leaf math of the sums layer by layer, on one block of rows, and
the binding of one sweep's stack of sums into blocks.

    PYTHONPATH=src python tools/leaf_timing.py

One block is what the engine evaluates at a time: 64 rows (modes m = 1..64)
x 135 t-points (the first t-panels), gold (Drude 9 eV / 35 meV) at 300 K and
a = 1 um.  The variants are

    eps           model.eps at the block's frequencies, a column of 64
    reflection    _reflection_sq(eps, p) on the block, eps a column
    kernels P     _kernels_at with the pressure kernel, from the block's
                  column y_lo and the nodes t: y and p, (A, B), then P
    kernels F     the same with the free-energy kernel
    kernels P+F   both kernels, as a sum of P and F stacked together
    bind 80 sums  _bind of the README pressure sweep's stack (40 gaps from
                  0.5 to 5 um, log-spaced, at 300 and 350 K: 80 explicit
                  sums): every group's arrays, runs and blocks, eps
                  included: 1,062 rows in 17 blocks, so 17 eps calls

Each of 300 rounds times one call of every variant in turn, so a slow
spell of the machine touches them all; each line prints the best time in us.
"""

from __future__ import annotations

import platform
import sys
import time

import numpy as np

from casimir import DEFAULT_QUAD, ThermalGapConfig, gold_drude
from casimir.constants import C
from casimir.dispersion import _reflection_sq
from casimir.lifshitz import (_FREE_ENERGY, _PRESSURE, _T_NODES, _bind, _block, _kernels_at,
                              _plan)

_ROUNDS = 300


def variants():
    """(name, call) of each timed step."""
    model, cfg = gold_drude(), ThermalGapConfig(T=300.0, a=1e-6)
    zeta = cfg.matsubara(np.arange(1, 65))[:, None]
    y_lo = cfg.a * zeta / C
    y = y_lo + _T_NODES
    eps, p = model.eps(zeta, cfg.T), y / y_lo
    rule = _block(model, cfg.T, (), [], zeta, y_lo, None).rule  # as the engine binds it
    P, F = _PRESSURE[0], _FREE_ENERGY[0]
    sweep, parts = [ThermalGapConfig(T=T, a=float(a)) for a in np.geomspace(0.5e-6, 5e-6, 40)
                    for T in (300.0, 350.0)], []
    _plan(sweep, model, DEFAULT_QUAD.rel_tol, (_PRESSURE,), parts)
    sums = [one for _, one in parts]
    return [("eps", lambda: model.eps(zeta, cfg.T)),
            ("reflection", lambda: _reflection_sq(eps, p)),
            ("kernels P", lambda: _kernels_at(rule, y_lo, _T_NODES, (P,))),
            ("kernels F", lambda: _kernels_at(rule, y_lo, _T_NODES, (F,))),
            ("kernels P+F", lambda: _kernels_at(rule, y_lo, _T_NODES, (P, F))),
            (f"bind {len(sums)} sums", lambda: _bind(model, sums))]


def main() -> int:
    steps = variants()
    best = [float("inf")] * len(steps)
    for _ in range(_ROUNDS):
        for i, (_, call) in enumerate(steps):
            start = time.perf_counter()
            call()
            best[i] = min(best[i], time.perf_counter() - start)
    print(f"# one 64 x {len(_T_NODES)} block, gold, 300 K, 1 um, and one bind; best of {_ROUNDS}; "
          f"Python {platform.python_version()}, numpy {np.__version__}")
    for (name, _), seconds in zip(steps, best):
        print(f"{name:12s} {seconds * 1e6:8.1f} us")
    return 0


if __name__ == "__main__":
    sys.exit(main())

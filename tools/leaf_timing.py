"""Time the leaf math of the sums layer by layer, on one block of rows, the
binding of one sweep's stack of sums into blocks, and three whole sums.

    PYTHONPATH=src python tools/leaf_timing.py

One block is what the engine evaluates at a time: 64 rows (modes m = 1..64)
x 110 t-points (the nodes of the sums' fixed t-rule: 90 GK15 nodes to t = 2
and 20 Gauss-Laguerre nodes past it), gold (Drude 9 eV / 35 meV) at 300 K
and a = 1 um; a block of far rows holds up to 256 rows at 32 t-points.  The
variants are

    eps           model.eps at the block's frequencies, a column of 64
    reflection    _reflection_sq(eps, p) on the block, eps a column
    kernels P     _kernels_at with the pressure kernel, from the block's
                  column y_lo and the nodes t: y and p, (A, B), then P
    kernels F     the same with the free-energy kernel
    kernels P+F   both kernels, as a sum of P and F stacked together
    far P+F       both kernels on the same 64 rows at the 32 nodes of the
                  Gauss-Laguerre rule, as a block of far rows (y_lo >= 2)
                  evaluates them
    bind 80 sums  _bind of the README pressure sweep's stack (40 gaps from
                  0.5 to 5 um, log-spaced, at 300 and 350 K: 80 explicit
                  sums, one _bind call as _integrate makes it, far rows
                  apart): every group's arrays, runs and blocks, eps
                  included: 101 near rows in 2 blocks and 961 far rows in
                  5, so 7 eps calls
    sum P 300 K 1 um
                  one explicit sum, _sum_modes of P alone: M = 19, so the
                  modes 1..18, m = 1, 2 in a block on the 110-node t-rule
                  and m = 3..18 in a far block on the Laguerre rule
    sum P 300 K 5 um
                  one explicit sum whose rows are all far: M = 4, so the
                  modes 1..3 in one far block
    sum F 2 K 1 um
                  one rule sum in m, _sum_modes of F alone: 178 placed rows
                  in 4 blocks (modes 1..63, the rule's fixed rows, its
                  panels), whose row integrals give the sum's value

A whole sum less the blocks it evaluates is its fixed cost: planning, M,
the rule's placement steps and the fixed rules' sums and estimates.

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
from casimir.lifshitz import (_FREE_ENERGY, _L_NODES, _PRESSURE, _T_NODES, _bind, _block,
                              _kernels_at, _plan, _sum_modes)

_ROUNDS = 300


def variants():
    """(name, call) of each timed step."""
    model, cfg = gold_drude(), ThermalGapConfig(T=300.0, a=1e-6)
    zeta = cfg.matsubara(np.arange(1, 65))[:, None]
    y_lo = cfg.a * zeta / C
    y = y_lo + _T_NODES
    eps, p = model.eps(zeta, cfg.T), y / y_lo
    rule = _block(model, cfg.T, (), [], zeta, y_lo).rule  # as the engine binds it
    P, F = _PRESSURE[0], _FREE_ENERGY[0]
    sweep, parts = [ThermalGapConfig(T=T, a=float(a)) for a in np.geomspace(0.5e-6, 5e-6, 40)
                    for T in (300.0, 350.0)], []
    _plan(sweep, model, DEFAULT_QUAD.rel_tol, (_PRESSURE,), parts)
    sums = [one for _, one, _ in parts]
    cold, wide = ThermalGapConfig(T=2.0, a=1e-6), ThermalGapConfig(T=300.0, a=5e-6)
    return [("eps", lambda: model.eps(zeta, cfg.T)),
            ("reflection", lambda: _reflection_sq(eps, p)),
            ("kernels P", lambda: _kernels_at(rule, y_lo, _T_NODES, (P,))),
            ("kernels F", lambda: _kernels_at(rule, y_lo, _T_NODES, (F,))),
            ("kernels P+F", lambda: _kernels_at(rule, y_lo, _T_NODES, (P, F))),
            ("far P+F", lambda: _kernels_at(rule, y_lo, _L_NODES, (P, F))),
            (f"bind {len(sums)} sums", lambda: _bind(model, enumerate(sums), [])),
            ("sum P 300 K 1 um", lambda: _sum_modes([cfg], model, DEFAULT_QUAD, (_PRESSURE,))),
            ("sum P 300 K 5 um", lambda: _sum_modes([wide], model, DEFAULT_QUAD, (_PRESSURE,))),
            ("sum F 2 K 1 um", lambda: _sum_modes([cold], model, DEFAULT_QUAD, (_FREE_ENERGY,)))]


def main() -> int:
    steps = variants()
    best = [float("inf")] * len(steps)
    for _ in range(_ROUNDS):
        for i, (_, call) in enumerate(steps):
            start = time.perf_counter()
            call()
            best[i] = min(best[i], time.perf_counter() - start)
    print(f"# one 64 x {len(_T_NODES)} block, gold, 300 K, 1 um, one bind and three sums; "
          f"best of {_ROUNDS}; Python {platform.python_version()}, numpy {np.__version__}")
    for (name, _), seconds in zip(steps, best):
        print(f"{name:16s} {seconds * 1e6:8.1f} us")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer tracing from outside the package.

The tracer wraps the package's functions at the module globals (and class
attributes) where the engine looks them up, for the duration of a traced
pass, and restores the originals afterwards.  Nothing under ``src/`` is
edited.  Layers, outermost first:

  cli         casimir.cli.main
  observable  thermal.pressure_difference / free_energy_difference /
              lowT_quadratic_fit, geometry.pfa_force / pfa_force_difference,
              lifshitz.te_mode_function
  sum         lifshitz.total_pressure / free_energy (one Matsubara sum)
  mode        lifshitz.mode_pressure / mode_free_energy (one mode)
  quad        the adaptive_quad that lifshitz calls
  integrand   the callable lifshitz hands to adaptive_quad (one round)
  neumaier    quadrature.neumaier_sum (timed, not subtracted from quad)
  eps         Drude.eps, Plasma.eps, Tabulated.eps
  nu          BlochGruneisen.nu

A span's self time is its duration minus the time its traced children
cover.  Spans are kept per thread; in the row thread pool of the CLI the
top-level spans of a worker thread are children of the open ``cli.main``
span, and the union of their intervals is what is subtracted, since the
workers overlap.  Busy times add over threads and include waits for the
interpreter lock.
"""

from __future__ import annotations

import threading
from time import perf_counter

LAYERS = ("cli", "observable", "sum", "mode", "quad", "integrand",
          "neumaier", "eps", "nu")


class _ThreadState:
    def __init__(self):
        self.stack = []   # one [child seconds] cell per open span
        self.calls = dict.fromkeys(LAYERS, 0)
        self.busy = dict.fromkeys(LAYERS, 0.0)
        self.self = dict.fromkeys(LAYERS, 0.0)
        self.points = {"integrand": 0, "eps": 0}


def _union_length(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def _sum_key(fn_name, args, kwargs, repr_cache):
    cfg = args[0] if args else kwargs["cfg"]
    model = args[1] if len(args) > 1 else kwargs["model"]
    quad = args[2] if len(args) > 2 else kwargs.get("quad")
    model_repr = repr_cache.get(id(model))
    if model_repr is None:
        model_repr = repr_cache[id(model)] = repr(model)
    return fn_name, model_repr, cfg.T, cfg.a, repr(quad)


class Tracer:
    """Installs wrappers with ``install()``; ``collect()`` returns and resets totals."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._states = []
        self._patches = []
        self._root = None          # cross-thread child intervals of the open cli.main
        self._seen = set()         # sum keys of the current request
        self._repr_cache = {}
        self._repeated = 0

    # -- bookkeeping ------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def begin_request(self) -> None:
        """Repeated sums are counted within one request."""
        with self._lock:
            self._seen.clear()
            self._repr_cache.clear()

    def collect(self) -> dict:
        """Totals since the last collect, merged over threads."""
        with self._lock:
            states, self._states = self._states, []
            repeated, self._repeated = self._repeated, 0
        self._local = threading.local()
        out = {"calls": dict.fromkeys(LAYERS, 0), "busy": dict.fromkeys(LAYERS, 0.0),
               "self": dict.fromkeys(LAYERS, 0.0), "points": {"integrand": 0, "eps": 0},
               "sums_repeated": repeated}
        for st in states:
            for layer in LAYERS:
                out["calls"][layer] += st.calls[layer]
                out["busy"][layer] += st.busy[layer]
                out["self"][layer] += st.self[layer]
            for key, n in st.points.items():
                out["points"][key] += n
        return out

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, layer, fn, *, detached=False, root=False, points=None,
              on_enter=None):
        tracer = self

        def wrapper(*args, **kwargs):
            st = tracer._state()
            if points is not None:
                st.points[layer] += points(args)
            if on_enter is not None:
                on_enter(args, kwargs)
            cell = [0.0]
            st.stack.append(cell)
            if root:
                tracer._root = []
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                st.stack.pop()
                dt = t1 - t0
                child = cell[0]
                if root:
                    with tracer._lock:
                        child += _union_length(tracer._root)
                        tracer._root = None
                st.calls[layer] += 1
                st.busy[layer] += dt
                st.self[layer] += dt - child
                if not detached:
                    if st.stack:
                        st.stack[-1][0] += dt
                    elif tracer._root is not None:
                        with tracer._lock:
                            if tracer._root is not None:
                                tracer._root.append((t0, t1))
        return wrapper

    def _note_sum(self, fn_name):
        def on_enter(args, kwargs):
            key = _sum_key(fn_name, args, kwargs, self._repr_cache)
            with self._lock:
                if key in self._seen:
                    self._repeated += 1
                else:
                    self._seen.add(key)
        return on_enter

    def _traced_quad(self, adaptive_quad):
        quad = self._wrap("quad", adaptive_quad)
        wrap = self._wrap

        def wrapper(f, *args, **kwargs):
            return quad(wrap("integrand", f, points=lambda a: len(a[0])),
                        *args, **kwargs)
        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import casimir
        import casimir.cli
        from casimir import dispersion, geometry, lifshitz, quadrature, thermal

        modules = (casimir, casimir.cli, thermal, geometry, lifshitz,
                   quadrature, dispersion)
        functions = [
            (casimir.cli.main, self._wrap("cli", casimir.cli.main, root=True)),
            (lifshitz.adaptive_quad, self._traced_quad(lifshitz.adaptive_quad)),
            (quadrature.neumaier_sum,
             self._wrap("neumaier", quadrature.neumaier_sum, detached=True)),
        ]
        for fn in (thermal.pressure_difference, thermal.free_energy_difference,
                   thermal.lowT_quadratic_fit, geometry.pfa_force,
                   geometry.pfa_force_difference, lifshitz.te_mode_function):
            functions.append((fn, self._wrap("observable", fn)))
        for fn in (lifshitz.total_pressure, lifshitz.free_energy):
            functions.append((fn, self._wrap("sum", fn,
                                             on_enter=self._note_sum(fn.__name__))))
        for fn in (lifshitz.mode_pressure, lifshitz.mode_free_energy):
            functions.append((fn, self._wrap("mode", fn)))

        for original, wrapper in functions:
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, name, original))
                        setattr(module, name, wrapper)

        def eps_points(args):
            return getattr(args[1], "size", 1)

        for cls in (dispersion.Drude, dispersion.Plasma, dispersion.Tabulated):
            self._patch_method(cls, "eps",
                               self._wrap("eps", cls.eps, points=eps_points))
        self._patch_method(dispersion.BlochGruneisen, "nu",
                           self._wrap("nu", dispersion.BlochGruneisen.nu))

    def _patch_method(self, cls, name, wrapper) -> None:
        self._patches.append((cls, name, vars(cls)[name]))
        setattr(cls, name, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)


def layer_metrics(totals: dict) -> dict:
    """Per-layer metrics of one pass (values only; units are in BENCHMARK.json)."""
    calls, busy, self_s = totals["calls"], totals["busy"], totals["self"]
    sums, modes, quads = calls["sum"], calls["mode"], calls["quad"]
    points = totals["points"]["integrand"]
    repeated = totals["sums_repeated"]
    return {
        "cli.calls": calls["cli"],
        "cli.self_s": self_s["cli"],
        "observable.calls": calls["observable"],
        "observable.self_s": self_s["observable"],
        "lifshitz.sums": sums,
        "lifshitz.sums_repeated": repeated,
        "lifshitz.sum_reuse_ratio": (sums - repeated) / sums if sums else 1.0,
        "lifshitz.modes": modes,
        "lifshitz.modes_per_sum": modes / sums if sums else 0.0,
        "lifshitz.mode.self_us": 1e6 * self_s["mode"] / modes if modes else 0.0,
        "lifshitz.integrand.self_s": self_s["integrand"],
        "quadrature.calls": quads,
        "quadrature.rounds": calls["integrand"],
        "quadrature.points": points,
        "quadrature.points_per_mode": points / quads if quads else 0.0,
        "quadrature.self_s": self_s["quad"],
        "quadrature.neumaier_s": busy["neumaier"],
        "dispersion.eps.calls": calls["eps"],
        "dispersion.eps.points": totals["points"]["eps"],
        "dispersion.eps.busy_s": busy["eps"],
        "dispersion.nu.calls": calls["nu"],
        "dispersion.nu.busy_s": busy["nu"],
    }


COUNTERS = ("cli.calls", "observable.calls", "lifshitz.sums",
            "lifshitz.sums_repeated", "lifshitz.modes", "quadrature.calls",
            "quadrature.rounds", "quadrature.points", "dispersion.eps.calls",
            "dispersion.eps.points", "dispersion.nu.calls")

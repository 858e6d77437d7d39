"""The benchmark's workloads: which requests one pass sends, and how a seed
orders them and picks among equivalent inputs.

A request is one in-process ``casimir.cli.main(argv)`` invocation or one
library call.  Every request has committed reference values in
``references.json`` (see ``refgen.py``); the seed only permutes the order of
each pass and, for CLI requests, picks the output format (csv or json) and
the sink (stdout or ``--out`` file).  Neither choice changes the numbers or
the Matsubara work, so the cost of a pass stays the same for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
TABLE_PATH = BENCH_DIR / "data" / "drude_table.csv"


@dataclass(frozen=True)
class Request:
    """One request of a pass.

    ``argv`` is set for CLI requests; ``call`` = (function name, T in K,
    a in m) for library calls on ``casimir.gold_drude()``.
    """

    rid: str
    argv: tuple = ()
    call: tuple | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    requests: tuple
    min_passes: int      # fixes the sample count the percentile rule is based on
    setup_code: str      # builds the workload's models through public constructors


# The six README figure sweeps at README sizes, default --threads 1.
README_SWEEPS = Workload(
    name="readme_sweeps",
    requests=(
        Request("pressure", ("pressure", "--gap-range", "0.5:5:40", "--log-spacing",
                             "--temp", "300", "--temp", "350")),
        Request("diff", ("diff", "--gap-range", "0.3:5:40")),
        Request("modes", ("modes", "--gap", "1.0")),
        Request("sphere_plate", ("sphere-plate", "--gap-range", "0.3:4:20",
                                 "--radius", "200")),
        Request("lowtemp", ("lowtemp", "--gap", "1.0", "--zeta-range", "0:0.5:26")),
        Request("impedance_check", ("impedance-check",)),
    ),
    min_passes=12,
    setup_code="casimir.gold_drude()",
)

# The criterion-7c points: cost grows like 1/(aT), the per-mode loop is
# nearly all of the time, and cli/thermal/repeated sums are bypassed.
CRYO_LADDER = Workload(
    name="cryo_ladder",
    requests=(
        Request("F_50K_1um", call=("free_energy", 50.0, 1e-6)),
        Request("F_100K_1um", call=("free_energy", 100.0, 1e-6)),
        Request("F_2K_1um", call=("free_energy", 2.0, 1e-6)),
        Request("F_5K_1um", call=("free_energy", 5.0, 1e-6)),
        Request("F_1.5K_50nm", call=("free_energy", 1.5, 50e-9)),
        Request("F_3K_50nm", call=("free_energy", 3.0, 50e-9)),
        Request("P_2K_1um", call=("total_pressure", 2.0, 1e-6)),
    ),
    min_passes=2,
    setup_code="casimir.gold_drude()",
)

_TABLE = "{table}"  # replaced by TABLE_PATH when argv is built

# Non-default models through the CLI at --threads 2: BG nu(T) quadrature,
# table interpolation, both zero-mode classes, plasma and ideal branches.
MODEL_ZOO = Workload(
    name="model_zoo",
    requests=(
        Request("diff_bg", ("diff", "--nu-model", "bg", "--gap-range", "0.3:5:20",
                            "--threads", "2")),
        Request("diff_table_drude", ("diff", "--model", "table", "--table", _TABLE,
                                     "--zero-mode-class", "drude",
                                     "--gap-range", "0.5:5:8", "--threads", "2")),
        Request("diff_table_plasma", ("diff", "--model", "table", "--table", _TABLE,
                                      "--zero-mode-class", "plasma",
                                      "--gap-range", "0.5:5:8", "--threads", "2")),
        Request("sphere_plate_plasma", ("sphere-plate", "--gap-range", "0.3:4:10",
                                        "--radius", "200", "--model", "plasma",
                                        "--threads", "2")),
        Request("pressure_ideal_300K", ("pressure", "--model", "ideal",
                                        "--gap-range", "0.5:5:20", "--log-spacing",
                                        "--temp", "300", "--threads", "2")),
        Request("pressure_ideal_350K", ("pressure", "--model", "ideal",
                                        "--gap-range", "0.5:5:20", "--log-spacing",
                                        "--temp", "350", "--threads", "2")),
        Request("lowtemp_bg", ("lowtemp", "--nu-model", "bg", "--gap", "1.0",
                               "--threads", "2")),
    ),
    min_passes=12,
    setup_code=(
        "casimir.Drude(relaxation=casimir.BlochGruneisen())\n"
        f"table = casimir.load_permittivity_table({str(TABLE_PATH)!r})\n"
        "casimir.Tabulated(table, 'drude_like')\n"
        "casimir.Tabulated(table, 'plasma_like')\n"
        "casimir.Plasma()\n"
        "casimir.Ideal()"
    ),
)

WORKLOADS = {w.name: w for w in (README_SWEEPS, CRYO_LADDER, MODEL_ZOO)}


def cli_argv(request: Request) -> list[str]:
    """The request's argv with the table path filled in."""
    return [str(TABLE_PATH) if a == _TABLE else a for a in request.argv]


@dataclass(frozen=True)
class Plan:
    """What a seed fixes for one run: per-request output choice and pass orders."""

    workload: Workload
    output: dict        # rid -> (format, sink) for CLI requests
    rng: random.Random

    def pass_order(self) -> list[Request]:
        order = list(self.workload.requests)
        self.rng.shuffle(order)
        return order


def make_plan(workload: Workload, seed: int) -> Plan:
    rng = random.Random(seed)
    output = {}
    for request in workload.requests:
        if request.call is None:
            output[request.rid] = (rng.choice(("csv", "json")),
                                   rng.choice(("stdout", "file")))
    return Plan(workload, output, rng)

"""Counter repeatability self-check: two traced runs on one seed.

Run from the repository root (about four minutes for all workloads):

    python3 perfbench/selfcheck.py [--workload NAME] [--seed N] [--seconds S]

Each workload is run twice with ``run.py --trace 1`` on the same seed.  The
work counters of the two runs must be identical; the tracing overhead of
each run is printed next to them.  Exits 1 if any counter differs or a run
reports an incorrect result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from tracer import COUNTERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def traced_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=BENCH_DIR.parent, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["correct"], {k: v["value"] for k, v in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args(argv)
    ok = True
    for name in [args.workload] if args.workload else list(WORKLOADS):
        (ok1, first), (ok2, second) = (traced_run(name, args.seed, args.seconds)
                                       for _ in range(2))
        differ = [k for k in COUNTERS if first[k] != second[k]]
        ok = ok and ok1 and ok2 and not differ
        print(f"{name}: counters {'identical' if not differ else 'DIFFER: ' + ', '.join(differ)}; "
              f"correct {ok1}/{ok2}; trace.overhead_frac "
              f"{first['trace.overhead_frac']:.3f} / {second['trace.overhead_frac']:.3f}")
        for key in COUNTERS:
            print(f"  {key:<24} {first[key]:>10} {second[key]:>10}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

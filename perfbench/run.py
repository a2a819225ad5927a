#!/usr/bin/env python3
"""ilrkit benchmark: one workload, one seed, end-to-end or per-layer metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload pipeline_default --seed 7 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout and driven in this
process through ``ilrkit.cli.main``, with BLAS pinned to one thread. A run

1. builds the workload's inputs from ``--seed`` in a fresh interpreter,
   several times, and reports the median as ``setup_s``;
2. runs whole passes of the workload's op sequence, one client in a closed
   loop, until ``--seconds`` have elapsed and the workload's minimum number
   of passes has run (one, or ten 10-op passes for ``score_loop``);
3. checks every output against an oracle outside the timed phase;
4. prints each metric with its unit and sample count, then one JSON line.

Timings are corrected for the host's changing speed (see ``hostspeed.py``).

With ``--trace 1`` it runs one untraced pass and then the same pass again
with every public layer function wrapped (see ``tracer.py``), and reports
the per-layer metrics of the traced pass instead. Details of each run go
to ``perfbench_results/`` in the checkout.
"""

from __future__ import annotations

import os

# BLAS threads must be pinned before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _import_program():
    """Import ilrkit from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    try:
        import ilrkit
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import ilrkit from {src}: {exc}")
    if src.resolve() not in Path(ilrkit.__file__).resolve().parents:
        sys.exit(f"perfbench: ilrkit was imported from {ilrkit.__file__}, not {src}")


def _setup(args) -> int:
    """Only build the inputs into ``--inputs``; the benchmark times this in a
    child process. Prints the host-speed samples taken meanwhile."""
    from hostspeed import HostSpeed

    with HostSpeed() as host:
        _import_program()
        from workloads import WORKLOADS

        WORKLOADS[args.workload](args.seed, Path(args.inputs)).setup()
    print(json.dumps(host.times))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # set by the benchmark itself: only build the inputs into this directory
    parser.add_argument("--inputs", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.inputs:
        return _setup(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    from harness import run_workload

    return run_workload(args, spec, ROOT)


if __name__ == "__main__":
    sys.exit(main())

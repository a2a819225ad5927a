#!/usr/bin/env python3
"""Time `ilrkit pipeline` as a user runs it and append the record to a JSON file.

Usage, from the root of a source checkout:

    python3 benchmarks/bench_pipeline.py --runs 5 [--config CONFIG] [--record PATH]
    python3 benchmarks/bench_pipeline.py --suite [--record PATH]

Each run is `python -m ilrkit.cli pipeline -v` in a fresh interpreter, with
the program imported from this checkout's ``src/``. BLAS is not pinned: the
environment is passed through unchanged. A run's total seconds are the wall
time of that interpreter, start to exit; its stage seconds are read from
the `-v` log lines, `pipeline: <next> (<stage> took S s)` for each stage of
the parent process and `worker: <job> took S s` for each job of the forked
worker. One record per invocation is appended to ``--record`` (default
`BENCH_pipeline.json` at the root of the checkout), a JSON list: the git
SHA and whether ``src/`` differs from it, a sha256 of the source, the core
count, Python, numpy and its BLAS, BLAS thread variables, the config hash,
and the seconds of every run.

With ``--suite`` it times the Tier-1 test suite instead, once: the command
``python -m pytest -q --continue-on-collection-errors`` run from the root
of the checkout with ``src/`` on ``PYTHONPATH``. Its record holds the same
machine fields, the suite's wall seconds and the counts of pytest's summary
line (passed, failed and the others it prints).
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

_STAGE = re.compile(r"pipeline: .* \((?P<name>.+) took (?P<s>[0-9.]+) s\)$")
_WORKER = re.compile(r"worker: (?P<name>.+) took (?P<s>[0-9.]+) s$")
_SUITE = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
_SUMMARY_END = re.compile(r" in [0-9.]+s\b")
_COUNT = re.compile(r"(\d+) ([a-z]+)")


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _blas() -> str:
    import numpy as np

    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return "unknown"
    return f"{info.get('name', '?')} {info.get('version', '?')}"


def parse_log(text: str) -> tuple[dict[str, float], dict[str, float]]:
    """The seconds of each parent stage and of each worker job in a `-v` log."""
    stages, workers = {}, {}
    for line in text.splitlines():
        if m := _STAGE.search(line):
            stages[m["name"]] = float(m["s"])
        elif m := _WORKER.search(line):
            workers[m["name"]] = float(m["s"])
    return stages, workers


def parse_summary(text: str) -> dict[str, int]:
    """The counts of the last pytest summary line in ``text``, keyed by
    pytest's plural words: ``"2 failed, 1049 passed, 1 error in 41.20s"``
    gives ``{"failed": 2, "passed": 1049, "errors": 1}``. ``passed`` and
    ``failed`` are always present."""
    for line in reversed(text.splitlines()):
        if _SUMMARY_END.search(line):
            counts = {"passed": 0, "failed": 0}
            for number, word in _COUNT.findall(_SUMMARY_END.split(line)[0]):
                word = {"error": "errors", "warning": "warnings"}.get(word, word)
                counts[word] = int(number)
            return counts
    raise ValueError("no pytest summary line in the output")


def _env() -> dict[str, str]:
    """The environment with this checkout's ``src/`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_suite() -> tuple[float, str]:
    """The Tier-1 suite in a fresh interpreter: its wall seconds and output."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *_SUITE], cwd=ROOT, env=_env(),
                          capture_output=True, text=True)
    return time.perf_counter() - start, done.stdout


def run_once(config: str | None, workdir: Path) -> dict:
    """One pipeline in a fresh interpreter: its total, stage and worker seconds."""
    out = workdir / "out"
    argv = [sys.executable, "-m", "ilrkit.cli", "pipeline", "-v", "--out", str(out)]
    if config is not None:
        argv += ["--config", config]
    start = time.perf_counter()
    done = subprocess.run(argv, env=_env(), capture_output=True, text=True)
    total = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"pipeline exited {done.returncode}:\n{done.stderr}")
    stages, workers = parse_log(done.stderr)
    return {"total_s": round(total, 3), "stages_s": stages, "workers_s": workers}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, help="pipeline runs (default 5)")
    parser.add_argument("--config", help="pipeline config JSON (default: the built-in config)")
    parser.add_argument("--suite", action="store_true",
                        help="time one run of the Tier-1 test suite instead of the pipeline")
    parser.add_argument("--record", type=Path, default=ROOT / "BENCH_pipeline.json")
    parser.add_argument("--note", default="", help="free text stored with the record")
    args = parser.parse_args(argv)
    if args.suite and (args.runs is not None or args.config is not None):
        parser.error("--suite takes neither --runs nor --config")
    if args.runs is not None and args.runs < 1:
        parser.error("--runs must be >= 1")

    sys.path.insert(0, str(SRC))
    import numpy as np

    from ilrkit.config import load_config

    record = {
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "note": args.note,
        "git_sha": _git("rev-parse", "HEAD"),
        "src_differs_from_git_sha": bool(_git("status", "--porcelain", "--", "src")),
        "source_sha256": _source_sha256(),
        "cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_thread_env": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }
    if args.suite:
        wall, output = run_suite()
        try:
            counts = parse_summary(output)
        except ValueError:
            raise SystemExit(f"the suite printed no summary line:\n{output[-2000:]}") from None
        record["suite"] = {"command": "PYTHONPATH=src python " + " ".join(_SUITE),
                           "wall_s": round(wall, 3), **counts}
        done = f"suite {wall:.1f} s, {counts['passed']} passed, {counts['failed']} failed"
    else:
        runs = []
        for _ in range(args.runs or 5):
            with tempfile.TemporaryDirectory(prefix="bench-pipeline-") as tmp:
                runs.append(run_once(args.config, Path(tmp)))
        record.update({
            "config": args.config,
            "config_hash": load_config(args.config).config_hash(),
            "median_total_s": round(statistics.median(r["total_s"] for r in runs), 3),
            "runs": runs,
        })
        done = f"{len(runs)} runs, median total {record['median_total_s']:.2f} s"
    records = json.loads(args.record.read_text()) if args.record.exists() else []
    records.append(record)
    tmp = args.record.with_name(args.record.name + ".tmp")
    tmp.write_text(json.dumps(records, indent=1) + "\n")
    tmp.replace(args.record)
    print(f"{done} -> {args.record}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Time `ilrkit pipeline` as a user runs it and append the record to a JSON file.

Usage, from the root of a source checkout:

    python3 benchmarks/bench_pipeline.py --runs 5 [--config CONFIG] [--record PATH]
    python3 benchmarks/bench_pipeline.py --runs 5 --baseline DIR [--config CONFIG]
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

With ``--baseline DIR``, DIR being another checkout of the program (say,
a `git clone` of the parent commit), it makes ``--runs`` pairs
of runs: one of DIR's ``src/`` and one of this checkout's, in that order in
the first pair and swapped in each next one, so that a drift in the host's
speed falls on both sides alike. It appends one record per side, the
baseline's first, each with its ``side`` and its own git SHA, ``src/``
status and source sha256 (the git fields are null when DIR is not a git
checkout).

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


def _git(root: Path, *args: str) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                              text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def _source_sha256(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _checkout(root: Path) -> dict:
    """The git SHA of the checkout at ``root``, whether its ``src/`` differs
    from it, and the sha256 of its source; the git fields are None unless
    ``root`` is the top of a git checkout."""
    sha = _git(root, "rev-parse", "HEAD") if (root / ".git").exists() else None
    return {
        "git_sha": sha,
        "src_differs_from_git_sha": None if sha is None
        else bool(_git(root, "status", "--porcelain", "--", "src")),
        "source_sha256": _source_sha256(root / "src"),
    }


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


def _env(src: Path = SRC) -> dict[str, str]:
    """The environment with ``src`` (this checkout's ``src/``) first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def run_suite() -> tuple[float, str]:
    """The Tier-1 suite in a fresh interpreter: its wall seconds and output."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *_SUITE], cwd=ROOT, env=_env(),
                          capture_output=True, text=True)
    return time.perf_counter() - start, done.stdout


def run_once(config: str | None, workdir: Path, src: Path) -> dict:
    """One pipeline of the program in ``src`` in a fresh interpreter: its
    total, stage and worker seconds."""
    out = workdir / "out"
    argv = [sys.executable, "-m", "ilrkit.cli", "pipeline", "-v", "--out", str(out)]
    if config is not None:
        argv += ["--config", config]
    start = time.perf_counter()
    done = subprocess.run(argv, env=_env(src), capture_output=True, text=True)
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
    parser.add_argument("--baseline", type=Path, metavar="DIR",
                        help="another checkout whose runs alternate with this one's")
    parser.add_argument("--record", type=Path, default=ROOT / "BENCH_pipeline.json")
    parser.add_argument("--note", default="", help="free text stored with the record")
    args = parser.parse_args(argv)
    if args.suite and (args.runs is not None or args.config is not None
                       or args.baseline is not None):
        parser.error("--suite takes neither --runs, --config nor --baseline")
    if args.runs is not None and args.runs < 1:
        parser.error("--runs must be >= 1")
    if args.baseline is not None and not (args.baseline / "src" / "ilrkit").is_dir():
        parser.error(f"--baseline: {args.baseline} holds no src/ilrkit")

    sys.path.insert(0, str(SRC))
    import numpy as np

    from ilrkit.config import load_config

    record = {
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "note": args.note,
        **_checkout(ROOT),
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
        new = [record]
    else:
        # side name -> checkout root; a plain run has one unnamed side
        sides = {"baseline": args.baseline.resolve(), "checkout": ROOT} if args.baseline \
            else {None: ROOT}
        runs = {side: [] for side in sides}
        for pair in range(args.runs or 5):
            for side in list(sides)[:: -1 if pair % 2 else 1]:
                with tempfile.TemporaryDirectory(prefix="bench-pipeline-") as tmp:
                    runs[side].append(run_once(args.config, Path(tmp), sides[side] / "src"))
        record.update({
            "config": args.config,
            "config_hash": load_config(args.config).config_hash(),
        })
        new = [
            {**record, **({"side": side} if side else {}), **_checkout(root),
             "median_total_s": round(statistics.median(r["total_s"] for r in runs[side]), 3),
             "runs": runs[side]}
            for side, root in sides.items()
        ]
        done = "; ".join(f"{side + ': ' if side else ''}{len(runs[side])} runs, median total "
                         f"{r['median_total_s']:.2f} s" for side, r in zip(sides, new))
    records = json.loads(args.record.read_text()) if args.record.exists() else []
    records.extend(new)
    tmp = args.record.with_name(args.record.name + ".tmp")
    tmp.write_text(json.dumps(records, indent=1) + "\n")
    tmp.replace(args.record)
    print(f"{done} -> {args.record}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

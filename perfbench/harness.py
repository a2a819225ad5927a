"""Runs one workload: set-up, timed passes, oracle checks, metrics, output."""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import ilrkit
from ilrkit import kernels
from ilrkit.config import load_config
from ilrkit.errors import IlrkitError

from hostspeed import REFERENCE_S, HostSpeed
from tracer import Tracer
from workloads import WORKLOADS, Op, run_command

SETUP_REPEATS = 3
SETUP_MIN_S = 2.0


def _peak_rss_bytes() -> int:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _setup_once(args, inputs: Path) -> tuple[float, float]:
    """Build the inputs in a fresh interpreter; its wall time, imports
    included, as measured and corrected for host speed.

    A child process keeps set-up's memory out of this process's peak RSS,
    which then covers only the imports and the timed phase. The child
    samples the host-speed reference itself and prints the samples.
    """
    cmd = [
        sys.executable, str(Path(__file__).with_name("run.py")),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--inputs", str(inputs),
    ]
    t0 = time.perf_counter()
    child = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True)
    wall = time.perf_counter() - t0
    samples = json.loads(child.stdout.splitlines()[-1])
    return wall, wall * REFERENCE_S / statistics.fmean(samples)


def _setup_times(args, workload) -> tuple[list[float], list[float]]:
    """Set up once for a traced run; otherwise at least SETUP_REPEATS times
    and for SETUP_MIN_S in all, so that a sub-second set-up has a steady median.
    The wall times, and the same corrected for host speed."""
    walls: list[float] = []
    corrected: list[float] = []
    while not walls or (not args.trace and (len(walls) < SETUP_REPEATS or sum(walls) < SETUP_MIN_S)):
        shutil.rmtree(workload.inputs, ignore_errors=True)
        wall, fixed = _setup_once(args, workload.inputs)
        walls.append(wall)
        corrected.append(fixed)
    return walls, corrected


def _percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _execute(op: Op) -> str | None:
    """Run an op's commands in order; the error text, or None on success."""
    for argv in op.commands:
        try:
            code = run_command(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            return f"{argv[0]}: exited with {exc.code}"
        except Exception as exc:  # the op fails; the loop goes on
            return f"{argv[0]}: {type(exc).__name__}: {exc}"
        if code != 0:
            return f"{argv[0]}: exit code {code}"
    return None


def _run_pass(
    ops: list[Op], tracer: Tracer | None = None
) -> tuple[list[tuple[float, float]], dict[int, str]]:
    """Start and end time of each op, and the errors by op index."""
    times, errors = [], {}
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        error = _execute(op) if tracer is None else tracer.run_op(i, _execute, op)
        times.append((t0, time.perf_counter()))
        if error is not None:
            errors[i] = error
    return times, errors


def _digests(base: Path, dirs: list[str]) -> dict[str, str]:
    """sha256 of every file under ``base/dir`` for each dir, keyed by path."""
    return {
        str(p.relative_to(base)): hashlib.sha256(p.read_bytes()).hexdigest()
        for d in dirs for p in sorted((base / d).rglob("*")) if p.is_file()
    }


def _git_sha(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = root / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _environment(root: Path, config_path: Path) -> dict:
    src = root / "src" / "ilrkit"
    src_digest = hashlib.sha256()
    for p in sorted(src.rglob("*.py")):
        src_digest.update(str(p.relative_to(src)).encode() + b"\0" + p.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(root),
        "src_sha256": src_digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "kernels_backend": kernels.BACKEND,
        "ilrkit": ilrkit.__version__,
        "config_hash": load_config(config_path).config_hash(),
    }


def _end_to_end(setup_times, latencies, peak_rss, accuracy) -> dict:
    """Value and sample count of every end-to-end metric.

    ``latencies`` are the host-speed corrected op times of each pass (see
    ``hostspeed.py``). ``wall_s`` is the median over passes of a pass's
    total; the latency percentiles are taken over every op of the run.
    """
    wall = statistics.median(sum(lat) for lat in latencies)
    pooled = [t for lat in latencies for t in lat]
    return {
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "wall_s": (wall, len(latencies)),
        "peak_rss_mb": (peak_rss / 2**20, 1),
        "ops_per_s": (len(latencies[0]) / wall, len(latencies)),
        "op_p50_ms": (1000 * _percentile(pooled, 50), len(pooled)),
        "op_p90_ms": (1000 * _percentile(pooled, 90), len(pooled)),
        "expert_acc": (accuracy["expert_acc"], 1),
        "fused_acc": (accuracy["fused_acc"], 1),
    }


def run_workload(args, spec: dict, root: Path) -> int:
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = root / "perfbench_work" / f"{run_id}-{os.getpid()}"
    results = root / "perfbench_results"
    results.mkdir(exist_ok=True)
    try:
        return _run(args, spec, root, work, results / run_id)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, spec, root, work: Path, result_stem: Path) -> int:
    workload = WORKLOADS[args.workload](args.seed, work / "inputs")

    setup_walls, setup_times = _setup_times(args, workload)
    env = _environment(root, workload.config_path)

    # timed phase, tracing off; a traced run needs one untraced pass only
    passes: list[list[Op]] = []
    walls, op_times, op_errors = [], [], []
    min_passes = 1 if args.trace else workload.min_passes
    host = HostSpeed()
    # no sampling in a traced run: the samples' time would land in the spans
    with contextlib.nullcontext() if args.trace else host:
        start = time.perf_counter()
        while len(passes) < min_passes or (
            not args.trace and time.perf_counter() - start < args.seconds
        ):
            ops = workload.ops(work / f"pass{len(passes)}", len(passes))
            t0 = time.perf_counter()
            times, errors = _run_pass(ops)
            walls.append(time.perf_counter() - t0)
            op_times.append(times)
            op_errors.append(errors)
            passes.append(ops)
    peak_rss = _peak_rss_bytes()
    latencies = [[t1 - t0 for t0, t1 in times] for times in op_times]
    corrected = [[host.corrected(t0, t1) for t0, t1 in times] for times in op_times]

    failures: dict[str, list[str]] = {}
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            _, traced_errors = _run_pass(workload.ops(work / "traced", 0), tracer)
            traced_wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        tracer.write(result_stem.with_suffix(".spans.npz"))
        failures.update({f"traced/op{i}": [error] for i, error in traced_errors.items()})

    # oracle checks, outside the timed phase
    for index, (ops, errors) in enumerate(zip(passes, op_errors)):
        try:
            bad = workload.check(ops)
        except (OSError, KeyError, ValueError, IlrkitError) as exc:
            bad = {i: [f"check failed: {exc!r}"] for i in range(len(ops))}
        for i, error in errors.items():
            bad.setdefault(i, []).insert(0, error)
        for i, msgs in sorted(bad.items()):
            failures[f"pass{index}/op{i}:{ops[i].kind}"] = msgs[:5]
    attempted = sum(len(ops) for ops in passes)
    failed = sum(key.startswith("pass") for key in failures)
    correct = not failures

    digests = _digests(work, [f"pass{i}" for i in range(len(passes))])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "setup_walls_s": setup_walls,
        "setup_corrected_s": setup_times,
        "pass_walls_s": walls, "op_latencies_s": latencies,
        "op_corrected_s": corrected, "host_reference_s": host.times,
        "failures": failures, "artifact_sha256": digests,
    }
    metrics: dict[str, tuple[float, int]] = {}
    if args.trace:
        layer = tracer.summary()
        layer["trace.overhead_s"] = traced_wall - walls[0]
        record["per_layer"] = layer
        record["traced_artifacts_identical"] = _digests(work / "traced", ["."]) == _digests(
            work / "pass0", ["."]
        )
        # The layers' own spans, without the harness's root spans, must
        # account for the traced wall time: time the wrappers miss shows as
        # bench self time and fails this check.
        layer_self = layer["trace.self_sum_s"] - layer.get("bench.self_s", 0.0)
        record["traced_layer_self_over_wall"] = layer_self / traced_wall
        correct = (
            correct and record["traced_artifacts_identical"]
            and abs(record["traced_layer_self_over_wall"] - 1.0) <= 0.05
        )
        # Metrics of a layer this workload does not call read 0; their names are printed.
        metrics = {m["name"]: (layer.get(m["name"], 0), 1) for m in spec["per_layer"]}
        zero = [name for name, (value, _) in metrics.items() if not value]
        print(f"trace spans={layer['trace.spans']} wall_s={traced_wall:.4f} "
              f"layer_self/wall={record['traced_layer_self_over_wall']:.4f} "
              f"artifacts_identical={record['traced_artifacts_identical']}")
        if zero:
            print(f"trace zero on {args.workload}: {' '.join(zero)}")
    else:
        # A pass that failed its checks has no accuracy worth reading.
        accuracy = workload.accuracy(passes[0]) if correct else {"expert_acc": 0.0, "fused_acc": 0.0}
        metrics = _end_to_end(setup_times, corrected, peak_rss, accuracy)
        raw = _end_to_end(setup_walls, latencies, peak_rss, accuracy)
        ref = statistics.quantiles(host.times, n=4)
        uncorrected = ("setup_s", "wall_s", "ops_per_s", "op_p50_ms", "op_p90_ms")
        print(f"host reference_s q1={ref[0]:.6f} median={ref[1]:.6f} q3={ref[2]:.6f} "
              f"samples={len(host.times)}; uncorrected: "
              + " ".join(f"{k}={raw[k][0]:.6g}" for k in uncorrected))
    record["metrics"] = {k: {"value": v, "samples": n} for k, (v, n) in metrics.items()}

    for key, value in env.items():
        print(f"env {key} = {value}")
    combined = hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()
    print(f"artifacts={len(digests)} passes={len(passes)} sha256_of_all={combined} "
          f"record={result_stem.with_suffix('.json').relative_to(root)}")
    for key, msgs in list(failures.items())[:10]:
        print(f"FAILED {key}: {msgs[0]}")
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    for name, (value, samples) in metrics.items():
        print(f"metric {name} = {value} {units[name]} workload={args.workload} samples={samples}")
    print(f"ops attempted={attempted} failed={failed} correct={correct}")
    result_stem.with_suffix(".json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, (v, _) in metrics.items()},
    }))
    return 0

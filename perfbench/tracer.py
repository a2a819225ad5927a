"""Span tracing of ilrkit's layers, installed from outside the package.

Every public function of every layer module is replaced, at every module
attribute that binds it, by a wrapper that records one span: name, start,
end, parent span and op id. ``cli`` imports the embedstore functions by
name and ``evalkit`` imports ``parse_answer`` by name, so binding by
identity rather than by module is what makes those calls visible. Spans
live in flat arrays while tracing runs and are aggregated or written out
only after the timed phase.

Self time of a span is its duration minus the durations of its direct
children. The program is single-threaded, so children never overlap and
the self times of all spans sum to the summed duration of the root spans.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
import types
from array import array
from pathlib import Path

import numpy as np

LAYERS = (
    "cli", "synthgen", "embedstore", "checkpoint", "dataengine",
    "kernels", "simcore", "expert", "fusion", "evalkit",
)

ROOT_SPAN = "bench.op"


def _path_arg(fn, args, kwargs) -> Path:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    return Path(bound.arguments["path"])


class Tracer:
    """Owns the span arrays, the counters and the installed wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}
        self._current = -1
        self._op_id = -1
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._current)
        self.op.append(self._op_id)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        self._current = idx
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._current = self.parent[idx]

    def add(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def run_op(self, op_id: int, fn, *args):
        """Run one benchmark op under a root span carrying ``op_id``."""
        self._op_id = op_id
        idx = self._open(self._intern(ROOT_SPAN))
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self._op_id = -1

    def _wrap(self, fn, name: str):
        name_id = self._intern(name)
        hook = _HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                hook(tracer, fn, args, kwargs, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of each layer at every binding."""
        modules = {
            name: mod for name, mod in sys.modules.items()
            if name == "ilrkit" or name.startswith("ilrkit.")
        }
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"ilrkit.{layer}"]
            for attr, obj in vars(mod).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}")
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- aggregation -------------------------------------------------------

    def _arrays(self):
        name = np.frombuffer(self.name, dtype=np.int32).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return name, parent, dur, dur - child

    def summary(self) -> dict[str, float]:
        """Per-function calls, inclusive seconds and self seconds, per-layer
        self seconds, the counters, and the root-span totals."""
        if not len(self.start):
            return dict(self.counters)
        name, parent, dur, self_s = self._arrays()
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        total = np.bincount(name, weights=dur, minlength=n)
        own = np.bincount(name, weights=self_s, minlength=n)
        out: dict[str, float] = {}
        for i, fn_name in enumerate(self.names):
            out[f"{fn_name}.calls"] = int(calls[i])
            out[f"{fn_name}.s"] = float(total[i])
            out[f"{fn_name}.self_s"] = float(own[i])
        for layer in (*LAYERS, "bench"):
            out[f"{layer}.self_s"] = sum(
                out[f"{fn_name}.self_s"] for fn_name in self.names
                if fn_name.split(".", 1)[0] == layer
            )
        out["trace.spans"] = len(dur)
        out["trace.root_s"] = float(dur[parent < 0].sum())
        out["trace.self_sum_s"] = float(self_s.sum())
        out.update(self.counters)
        return out

    def write(self, path: Path) -> None:
        """Write every span as columns (name index, start, end, parent, op)."""
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
        )


# -- counters recorded at layer boundaries ---------------------------------
# Kernel flops and bytes are computed from argument shapes, not measured.


def _dot_scores(tracer, fn, args, kwargs, result):
    n, d = np.shape(args[0] if args else kwargs["matrix"])
    tracer.add("kernels.dot_scores.flops", 2 * n * d)
    tracer.add("kernels.dot_scores.bytes", 8 * (n * d + d + n))


def _file_bytes(key):
    def hook(tracer, fn, args, kwargs, result):
        tracer.add(key, os.path.getsize(_path_arg(fn, args, kwargs)))
    return hook


def _built_tasks(tracer, fn, args, kwargs, result):
    tracer.add("dataengine.tasks", len(result))


def _tier_tasks(tracer, fn, args, kwargs, result):
    if result:
        tracer.add(f"dataengine.relaxed_tasks.tau{result[0].tau:g}", sum(t.relaxed for t in result))


_HOOKS = {
    "kernels.dot_scores": _dot_scores,
    "embedstore.load_embedding_set": _file_bytes("embedstore.load_embedding_set.bytes"),
    "embedstore.save_embedding_set": _file_bytes("embedstore.save_embedding_set.bytes"),
    "embedstore.load_token_maps": _file_bytes("embedstore.load_token_maps.bytes"),
    "embedstore.save_token_maps": _file_bytes("embedstore.save_token_maps.bytes"),
    "dataengine.build_gallery_tasks": _built_tasks,
    "dataengine.build_detection_tasks": _built_tasks,
    "dataengine.build_gallery_tasks_per_category": _tier_tasks,
}

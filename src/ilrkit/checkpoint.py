"""Checkpoint container shared by fusion adapters and expert heads.

Layout: a JSON header line (kind, shapes, scalars) terminated by a
newline, followed by all parameters concatenated as little-endian 32-bit
floats in the order listed in the header.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

from .embedstore import parse_json_object, read_input
from .errors import DataValidationError, DivergenceError
from .expert import ExpertHead
from .fusion import FusionAdapter

_KIND_ADAPTER = "fusion_adapter"
_KIND_EXPERT = "expert_head"


def _write(path: Path, header: dict, params: list[np.ndarray]) -> None:
    """Write the checkpoint; a parameter that is non-finite as 32-bit floats
    (non-finite already, or beyond their range) raises DivergenceError and
    nothing is written."""
    header = dict(header)
    header["params"] = [list(p.shape) for p in params]
    with np.errstate(over="ignore"):  # an overflow is refused just below
        stored = [np.asarray(p, dtype="<f4") for p in params]
    for i, p in enumerate(stored):
        if not np.isfinite(p).all():
            raise DivergenceError(
                f"{path.name}: parameter block {i} is not finite as 32-bit floats"
            )
    blob = b"".join(p.tobytes() for p in stored)
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        fh.write(blob)


def _read(path: Path) -> tuple[dict, list[np.ndarray]]:
    data = read_input(path)
    nl = data.find(b"\n")
    if nl < 0:
        raise DataValidationError(f"{path}: missing checkpoint header")
    header = parse_json_object(data[:nl], f"{path}: checkpoint header")
    shapes = header.get("params", [])  # json gives exact types: a bool is not an int
    if type(shapes) is not list or not all(
        type(shape) is list and all(type(n) is int and n >= 0 for n in shape) for shape in shapes
    ):
        raise DataValidationError(f"{path}: malformed parameter shapes in checkpoint header")
    off = nl + 1
    params = []
    for shape in shapes:
        nbytes = math.prod(shape) * 4  # Python ints: a huge shape cannot wrap around
        if off + nbytes > len(data):
            raise DataValidationError(f"{path}: truncated parameter blob")
        params.append(
            np.frombuffer(data[off : off + nbytes], dtype="<f4").astype(np.float64).reshape(shape)
        )
        off += nbytes
    if off != len(data):
        raise DataValidationError(f"{path}: trailing bytes after parameter blob")
    return header, params


def _expect_blocks(path, params: list[np.ndarray], count: int) -> None:
    if len(params) != count:
        raise DataValidationError(
            f"{path}: expected {count} parameter blocks, got {len(params)}"
        )


def _number(path, value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DataValidationError(f"{path}: {what} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, +-Infinity, an int beyond the float range
        raise DataValidationError(f"{path}: {what} must be a finite number")
    return float(value)


def save_adapter(adapter: FusionAdapter, path: str | Path, seed: int | None = None) -> None:
    header = {"kind": _KIND_ADAPTER, "temperature": adapter.temperature}
    if seed is not None:
        header["seed"] = seed
    _write(Path(path), header, [adapter.w1, adapter.b1, adapter.w2, adapter.b2])


def load_adapter(path: str | Path) -> FusionAdapter:
    header, params = _read(Path(path))
    if header.get("kind") != _KIND_ADAPTER:
        raise DataValidationError(f"{path}: not a fusion adapter checkpoint")
    _expect_blocks(path, params, 4)
    w1, b1, w2, b2 = params
    temperature = _number(path, header.get("temperature"), "temperature")
    return FusionAdapter(w1, b1, w2, b2, temperature=temperature)


def save_expert(head: ExpertHead, path: str | Path, seed: int | None = None) -> None:
    header = {"kind": _KIND_EXPERT}
    if seed is not None:
        header["seed"] = seed
    _write(Path(path), header, [head.w, head.b])


def load_expert(path: str | Path) -> ExpertHead:
    """The head of an expert checkpoint; the margin and loss weights in the
    header of one written by the retired trainer are ignored."""
    header, params = _read(Path(path))
    if header.get("kind") != _KIND_EXPERT:
        raise DataValidationError(f"{path}: not an expert head checkpoint")
    _expect_blocks(path, params, 2)
    return ExpertHead(*params)

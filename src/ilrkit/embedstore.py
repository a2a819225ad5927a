"""Load, validate, index, and persist embedding sets and token feature maps.

Two interchange formats are supported for embedding sets:

* JSONL: one record per line,
  ``{"image_id": str, "instance_id": str, "category": str, "vector": [float, ...]}``
* Binary "EMB1": magic ``EMB1``, little-endian u32 dimension, u32 record
  count, then per record three length-prefixed (u32) UTF-8 strings
  (image_id, instance_id, category) followed by ``dimension`` raw 32-bit
  little-endian floats.

Token maps are JSONL only: ``{"image_id": str, "tokens": [[float, ...], ...]}``.

Both loaders take ``only=``, a set of image ids, for commands that use a few
images of a large file. A JSONL line is parsed only if it may hold one of
those ids (see ``_record_lines``); an EMB1 file has every record header
walked and checked, but only the selected records' vectors decoded. Every
parsed line and every decoded record is validated as in a full load; the
records in between are not.

Vectors are stored un-normalized, exactly as the encoder produced them;
normalization is the similarity layer's job. Sets are immutable once
loaded and safe to share across threads.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Collection, Iterable, Iterator, Sequence

import numpy as np

from .errors import DataValidationError

MAGIC = b"EMB1"
FORMATS = ("jsonl", "bin")


@dataclass(frozen=True)
class EmbeddingRecord:
    """One image's identity metadata plus its feature vector."""

    image_id: str
    instance_id: str
    category: str
    vector: np.ndarray  # float32, shape (dimension,)

    def __post_init__(self):
        if not (isinstance(self.image_id, str) and isinstance(self.instance_id, str)
                and isinstance(self.category, str)):
            raise DataValidationError(
                f"record {self.image_id!r}: image_id, instance_id and category must be strings"
            )
        vec = np.asarray(self.vector, dtype=np.float32)
        object.__setattr__(self, "vector", vec)
        if vec.ndim != 1 or vec.size == 0:
            raise DataValidationError(
                f"record {self.image_id!r}: vector must be a non-empty 1-d array"
            )
        if not self.instance_id:
            raise DataValidationError(f"record {self.image_id!r}: empty instance_id")
        if not np.isfinite(vec).all():
            raise DataValidationError(f"record {self.image_id!r} contains non-finite values")


@dataclass
class EmbeddingSet:
    """A validated collection of embedding records under one encoder view."""

    encoder_name: str
    dimension: int
    records: list[EmbeddingRecord]
    instance_index: dict[str, list[str]] = field(default_factory=dict)

    def __post_init__(self):
        # a set is empty only when a filtered load selected nothing; a
        # dimension < 1 fails the check below, since vectors are non-empty
        seen: set[str] = set()
        index: dict[str, list[str]] = {}
        for i, rec in enumerate(self.records):
            if rec.vector.shape[0] != self.dimension:
                raise DataValidationError(
                    f"record {i} ({rec.image_id!r}): dimension "
                    f"{rec.vector.shape[0]} != declared {self.dimension}"
                )
            if rec.image_id in seen:
                raise DataValidationError(f"duplicate image_id {rec.image_id!r}")
            seen.add(rec.image_id)
            index.setdefault(rec.instance_id, []).append(rec.image_id)
        self.instance_index = index
        self._row_of = {rec.image_id: i for i, rec in enumerate(self.records)}
        self._matrix = None

    @classmethod
    def from_records(cls, encoder_name: str, records: Iterable[EmbeddingRecord]) -> "EmbeddingSet":
        records = list(records)
        if not records:
            raise DataValidationError("embedding set must contain at least one record")
        return cls(encoder_name, records[0].vector.shape[0], records)

    @property
    def image_ids(self) -> list[str]:
        return [rec.image_id for rec in self.records]

    def row_of(self, image_id: str) -> int:
        return self._row_of[image_id]

    def record(self, image_id: str) -> EmbeddingRecord:
        return self.records[self._row_of[image_id]]

    def vector(self, image_id: str) -> np.ndarray:
        return self.records[self._row_of[image_id]].vector

    def matrix(self) -> np.ndarray:
        """All vectors stacked as an (n, dimension) float32 array."""
        if self._matrix is None:
            self._matrix = np.stack([rec.vector for rec in self.records])
        return self._matrix


@dataclass(frozen=True)
class TokenFeatureMap:
    """The N-token x d feature matrix of one image."""

    image_id: str
    tokens: np.ndarray  # float32, shape (N, d)

    def __post_init__(self):
        if not isinstance(self.image_id, str):
            raise DataValidationError(f"token map {self.image_id!r}: image_id must be a string")
        tok = np.asarray(self.tokens, dtype=np.float32)
        object.__setattr__(self, "tokens", tok)
        if tok.ndim != 2 or tok.shape[0] < 1 or tok.shape[1] < 1:
            raise DataValidationError(
                f"token map {self.image_id!r}: tokens must be a non-empty 2-d matrix"
            )
        if not np.all(np.isfinite(tok)):
            raise DataValidationError(
                f"token map {self.image_id!r} contains non-finite values"
            )


def _check_format(fmt: str) -> None:
    if fmt not in FORMATS:
        raise DataValidationError(f"unknown format {fmt!r}, expected one of {FORMATS}")


def load_embedding_set(
    path: str | Path, fmt: str = "jsonl", only: Collection[str] | None = None
) -> EmbeddingSet:
    """Load and validate an embedding set from ``path``, named after the file stem.

    Raises DataValidationError on dimension mismatch, duplicate ids,
    malformed records, or empty files, naming the offending line or byte
    offset. With ``only``, the set holds just the records whose image_id is
    in it, in file order, and is empty (dimension 0) when the file has none
    of them.
    """
    _check_format(fmt)
    path = Path(path)
    if fmt == "jsonl":
        records = _read_jsonl_records(path, only)
    else:
        records = _read_bin_records(path, only)
    if not records and only is None:
        raise DataValidationError(f"{path}: empty embedding file")
    return EmbeddingSet(path.stem, records[0].vector.shape[0] if records else 0, records)


def _unreadable(path, exc: OSError) -> DataValidationError:
    return DataValidationError(f"cannot read input file {path}: {exc.strerror or exc}")


def read_input(path: str | Path) -> bytes:
    """All bytes of an input file; a missing or unreadable one raises
    DataValidationError naming the path."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise _unreadable(path, exc) from exc


def jsonl_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(line number, text) of every non-blank line of a UTF-8 JSONL file.

    A missing or unreadable file and bytes that are not UTF-8 raise
    DataValidationError.
    """
    lineno = 0
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise _unreadable(path, exc) from exc
    with fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if line.strip():
                    yield lineno, line
        except UnicodeDecodeError as exc:
            # text is decoded in chunks, so only the last good line is known
            raise DataValidationError(
                f"{path}: not UTF-8 text after line {lineno}: {exc.reason}"
            ) from exc


def _record_lines(path: Path, only: Collection[str] | None) -> Iterator[tuple[int, str]]:
    """The jsonl_lines of ``path`` that may hold a record whose image_id is in
    ``only``; all of them when ``only`` is None.

    JSON spells a string other than literally only with a backslash escape,
    so a line that holds neither a backslash nor ``"<id>"`` for any of the
    ids cannot hold one of them, and is skipped without being parsed.
    """
    lines = jsonl_lines(path)
    if only is None:
        return lines
    needles = [f'"{image_id}"' for image_id in only]
    return (
        (lineno, line) for lineno, line in lines
        if "\\" in line or any(needle in line for needle in needles)
    )


_NUMBER_TYPES = frozenset((float, int))


def _numbers(values, field: str) -> np.ndarray:
    """The float32 array of a parsed ``field``: a list of JSON numbers, or a
    list of such lists. numpy would read a numeric string, true, false or
    null as a number, so the element types of each list are checked first
    (json gives exact types, and bool is not int here)."""
    rows = values if type(values) is list and values and type(values[0]) is list else (values,)
    for row in rows:
        if type(row) is not list or not _NUMBER_TYPES.issuperset(map(type, row)):
            raise ValueError(f"{field} components must be numbers")
    return np.asarray(values, dtype=np.float32)


def _read_jsonl_records(path: Path, only: Collection[str] | None) -> list[EmbeddingRecord]:
    records = []
    first_dim = None
    for lineno, line in _record_lines(path, only):
        try:
            obj = json.loads(line)
            rec = EmbeddingRecord(
                image_id=obj["image_id"],
                instance_id=obj["instance_id"],
                category=obj["category"],
                vector=_numbers(obj["vector"], "vector"),
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise DataValidationError(f"{path}: line {lineno}: malformed record: {exc}") from exc
        if first_dim is None:
            first_dim = rec.vector.shape[0]
        elif rec.vector.shape[0] != first_dim:
            raise DataValidationError(
                f"{path}: line {lineno}: dimension {rec.vector.shape[0]} "
                f"!= {first_dim} of first record"
            )
        if only is None or rec.image_id in only:
            records.append(rec)
    return records


def _read_bin_records(path: Path, only: Collection[str] | None) -> list[EmbeddingRecord]:
    data = read_input(path)
    if len(data) == 0:
        raise DataValidationError(f"{path}: empty embedding file")
    if data[:4] != MAGIC:
        raise DataValidationError(f"{path}: bad magic, not an EMB1 file")
    if len(data) < 12:
        raise DataValidationError(f"{path}: truncated header")
    dim, count = struct.unpack_from("<II", data, 4)
    off = 12
    records = []

    def read_str(off: int) -> tuple[str, int]:
        if off + 4 > len(data):
            raise DataValidationError(f"{path}: truncated at offset {off}")
        (n,) = struct.unpack_from("<I", data, off)
        off += 4
        if off + n > len(data):
            raise DataValidationError(f"{path}: truncated string at offset {off}")
        try:
            return data[off : off + n].decode("utf-8"), off + n
        except UnicodeDecodeError as exc:
            raise DataValidationError(f"{path}: string at offset {off} is not UTF-8") from exc

    for i in range(count):
        image_id, off = read_str(off)
        instance_id, off = read_str(off)
        category, off = read_str(off)
        nbytes = dim * 4
        if off + nbytes > len(data):
            raise DataValidationError(f"{path}: record {i}: truncated vector at offset {off}")
        if only is None or image_id in only:
            vec = np.frombuffer(data[off : off + nbytes], dtype="<f4").astype(np.float32)
            records.append(EmbeddingRecord(image_id, instance_id, category, vec))
        off += nbytes
    if off != len(data):
        raise DataValidationError(f"{path}: {len(data) - off} trailing bytes after last record")
    return records


def save_embedding_set(eset: EmbeddingSet, path: str | Path, fmt: str = "jsonl") -> None:
    """Write ``eset`` so that load_embedding_set reads it back bit-exactly."""
    _check_format(fmt)
    path = Path(path)
    if fmt == "jsonl":
        with open(path, "w", encoding="utf-8") as fh:
            for rec in eset.records:
                fh.write(
                    json.dumps(
                        {
                            "image_id": rec.image_id,
                            "instance_id": rec.instance_id,
                            "category": rec.category,
                            # a float32 widened to float64 is its exact value,
                            # so json round-trips the 32-bit payload exactly
                            "vector": rec.vector.astype(np.float64).tolist(),
                        }
                    )
                    + "\n"
                )
    else:
        parts = [MAGIC, struct.pack("<II", eset.dimension, len(eset.records))]
        for rec in eset.records:
            for s in (rec.image_id, rec.instance_id, rec.category):
                b = s.encode("utf-8")
                parts.append(struct.pack("<I", len(b)))
                parts.append(b)
            parts.append(rec.vector.astype("<f4").tobytes())
        Path(path).write_bytes(b"".join(parts))


def load_token_maps(
    path: str | Path, only: Collection[str] | None = None
) -> list[TokenFeatureMap]:
    """Load token maps from JSONL, enforcing constant N and d across the file
    and unique image ids.

    With ``only``, returns just the maps whose image_id is in it, in file
    order, and possibly none; N and d are enforced across the parsed lines.
    """
    path = Path(path)
    maps: list[TokenFeatureMap] = []
    seen: set[str] = set()
    shape: tuple[int, int] | None = None
    for lineno, line in _record_lines(path, only):
        try:
            obj = json.loads(line)
            tokens = _numbers(obj["tokens"], "tokens")
            tmap = TokenFeatureMap(obj["image_id"], tokens)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise DataValidationError(f"{path}: line {lineno}: malformed token map: {exc}") from exc
        if shape is None:
            shape = tmap.tokens.shape
        elif tmap.tokens.shape != shape:
            raise DataValidationError(
                f"{path}: line {lineno}: token map shape {tmap.tokens.shape} != {shape}"
            )
        if only is None or tmap.image_id in only:
            if tmap.image_id in seen:
                raise DataValidationError(
                    f"{path}: line {lineno}: duplicate image_id {tmap.image_id!r}"
                )
            seen.add(tmap.image_id)
            maps.append(tmap)
    if not maps and only is None:
        raise DataValidationError(f"{path}: empty token-map file")
    return maps


def save_token_maps(maps: Sequence[TokenFeatureMap], path: str | Path) -> None:
    """Write token maps as JSONL, one map per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for tmap in maps:
            fh.write(
                json.dumps(
                    {
                        "image_id": tmap.image_id,
                        "tokens": tmap.tokens.astype(np.float64).tolist(),
                    }
                )
                + "\n"
            )

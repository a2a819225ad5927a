"""Load, validate, index, and persist embedding sets and token feature maps.

Two interchange formats are supported for embedding sets:

* JSONL: one record per line,
  ``{"image_id": str, "instance_id": str, "category": str, "vector": [float, ...]}``
* Binary "EMB1": magic ``EMB1``, little-endian u32 dimension, u32 record
  count, then per record three length-prefixed (u32) UTF-8 strings
  (image_id, instance_id, category) followed by ``dimension`` raw 32-bit
  little-endian floats.

Token maps are JSONL only: ``{"image_id": str, "tokens": [[float, ...], ...]}``.

Every JSON input of ilrkit is decoded here: task, prediction and caption
lines by ``load_jsonl`` (with ``typed_fields``), the split, manifest,
checkpoint header and config by ``parse_json_object``, and the array files
by their loaders. All catch one error tuple, so bytes that are not UTF-8 or
text that is not JSON, nests too deeply or is not an object raise
DataValidationError naming the file and line. Each text goes through
``_json_value``, which gives what ``json.loads`` gives (the same value or
the same error) without its per-call layers on the common path.

The JSONL writers print each float32 component with 9 significant digits
(``%.9g``), the fewest that read back into every finite float32 exactly;
negative zero is written ``-0.0``, since JSON reads ``-0`` as the integer 0.
The loaders take any JSON number, so files of earlier versions, which hold
the 17-digit float64 repr of each component, load to the same arrays. A
set with a non-finite component is refused before anything is written.

An EmbeddingSet is stored as columns: the image, instance and category ids
as lists, and the vectors as float32 blocks of consecutive rows. The JSONL
loader is a column loader: each line is parsed into the id columns and a
list of vectors, and every ``_CHUNK`` lines the chunk's vectors become one
block through one ``np.asarray``. The component-type, dimension and
finiteness checks run on the whole chunk, the string-field and
empty-instance_id checks as passes over its columns, and duplicate ids are
checked last, over the whole set. Only when a chunk fails a check are its
lines checked one at a time, to raise the error of its first faulty line
with the message a per-line check gives. The token-map loader builds and
checks (rows, N, d) blocks the same way. The EMB1 loader decodes all
selected vectors as one block and checks it the same way.

Both loaders take ``only=``, a set of image ids, for commands that use a few
images of a large file. A JSONL line is parsed only if it may hold one of
those ids (see ``_record_lines``); an EMB1 file has every record header
walked and checked, but only the selected records' vectors decoded. Every
parsed line and every decoded record is validated as in a full load; the
records in between are not.

Within ``split_reads`` (the CLI enters it when --threads is above 1), the
JSONL loaders read a file of at least SPLIT_BYTES in two halves at once; a
load with ``only`` parses few of its lines and stays serial. The file is
split just past the first line feed at or after its middle byte. A forked
worker (``stage.fork_job``) runs the column reader on the second half,
streamed from a seeked binary file and numbered from the line it begins,
while the parent reads the first half; the parent joins the halves' columns
in file order. Each half keeps the chunks and the whole-chunk checks of a
serial read. The parent reads the whole file serially when no worker can be
forked, and again when either half raises (bytes that are not UTF-8 and a
line holding a carriage return are errors of a half), when the halves'
first records differ in shape, or when an id is in both halves. So the
value, or the error and its message, is always a serial read's.

Vectors are stored un-normalized, exactly as the encoder produced them;
normalization is the similarity layer's job. Sets are immutable once
loaded and safe to share across threads.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import io
import itertools
import json
import operator
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Collection, Iterable, Iterator, Sequence

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


def _check_unique(image_ids: Sequence[str]) -> None:
    seen: set[str] = set()
    for image_id in image_ids:
        if image_id in seen:
            raise DataValidationError(f"duplicate image_id {image_id!r}")
        seen.add(image_id)


class EmbeddingSet:
    """A validated collection of embedding records under one encoder view.

    The set holds columns: ``image_ids``, ``instance_ids``, ``categories``
    and the vectors as (rows, dimension) float32 blocks, in record order.
    ``vector``, ``row_of`` and ``matrix`` read them; ``records`` builds an
    EmbeddingRecord per row on first use. ``EmbeddingSet(name, dimension,
    records)`` and ``from_records`` take records; the loaders and
    ``expert.embed_set`` build through ``from_columns``.
    """

    def __init__(self, encoder_name: str, dimension: int, records: Iterable[EmbeddingRecord]):
        records = list(records)
        image_ids = [rec.image_id for rec in records]
        for i, rec in enumerate(records):
            if rec.vector.shape[0] != dimension:
                _check_unique(image_ids[:i])
                raise DataValidationError(
                    f"record {i} ({rec.image_id!r}): dimension "
                    f"{rec.vector.shape[0]} != declared {dimension}"
                )
        blocks = [np.stack([rec.vector for rec in records])] if records else []
        self._set_columns(
            encoder_name, dimension, image_ids, [rec.instance_id for rec in records],
            [rec.category for rec in records], blocks,
        )
        self._records = records

    @classmethod
    def from_columns(
        cls,
        encoder_name: str,
        dimension: int,
        image_ids: list[str],
        instance_ids: list[str],
        categories: list[str],
        blocks: list[np.ndarray],
    ) -> "EmbeddingSet":
        """A set over validated columns and float32 (rows, dimension) blocks
        that hold one row per id, in order; repeated image ids are rejected.
        The set keeps the lists and blocks without copying them."""
        eset = cls.__new__(cls)
        eset._set_columns(encoder_name, dimension, image_ids, instance_ids, categories, blocks)
        return eset

    def _set_columns(self, encoder_name, dimension, image_ids, instance_ids, categories, blocks):
        # a set is empty only when a filtered load selected nothing
        self.encoder_name = encoder_name
        self.dimension = dimension
        self._image_ids = image_ids
        self._instance_ids = instance_ids
        self._categories = categories
        self._blocks = blocks
        self._row_of = dict(zip(image_ids, range(len(image_ids))))
        if len(self._row_of) != len(image_ids):
            _check_unique(image_ids)
        self._starts = list(itertools.accumulate(map(len, blocks), initial=0))
        # a view of a row is made when vector() first asks for it: a command
        # that scores a few tiers asks for a fraction of the rows
        self._vectors: list[np.ndarray | None] = [None] * len(image_ids)
        self._records: list[EmbeddingRecord] | None = None
        self._matrix: np.ndarray | None = None

    @classmethod
    def from_records(cls, encoder_name: str, records: Iterable[EmbeddingRecord]) -> "EmbeddingSet":
        records = list(records)
        if not records:
            raise DataValidationError("embedding set must contain at least one record")
        return cls(encoder_name, records[0].vector.shape[0], records)

    @property
    def image_ids(self) -> list[str]:
        return list(self._image_ids)

    @property
    def instance_ids(self) -> list[str]:
        return list(self._instance_ids)

    @property
    def categories(self) -> list[str]:
        return list(self._categories)

    @functools.cached_property
    def instance_index(self) -> dict[str, list[str]]:
        """The image ids of each instance, in record order."""
        index: dict[str, list[str]] = {}
        for image_id, instance_id in zip(self._image_ids, self._instance_ids):
            index.setdefault(instance_id, []).append(image_id)
        return index

    @property
    def records(self) -> list[EmbeddingRecord]:
        if self._records is None:
            self._records = list(map(
                EmbeddingRecord, self._image_ids, self._instance_ids, self._categories,
                itertools.chain.from_iterable(self._blocks),
            ))
        return self._records

    def row_of(self, image_id: str) -> int:
        return self._row_of[image_id]

    def record(self, image_id: str) -> EmbeddingRecord:
        return self.records[self._row_of[image_id]]

    def vector(self, image_id: str) -> np.ndarray:
        row = self._row_of[image_id]
        vec = self._vectors[row]
        if vec is None:
            block = bisect.bisect_right(self._starts, row) - 1
            vec = self._vectors[row] = self._blocks[block][row - self._starts[block]]
        return vec

    def matrix(self) -> np.ndarray:
        """All vectors stacked as an (n, dimension) float32 array: the one
        block itself, or the blocks concatenated on first use."""
        if self._matrix is None:
            if len(self._blocks) == 1:
                self._matrix = self._blocks[0]
            elif self._blocks:
                self._matrix = np.concatenate(self._blocks)
            else:
                self._matrix = np.empty((0, self.dimension), dtype=np.float32)
        return self._matrix

    def subset(self, instances: Collection[str]) -> "EmbeddingSet":
        """The records whose instance_id is in ``instances``, in order, as a
        set of the same name; one that selects nothing is rejected."""
        rows = [i for i, inst in enumerate(self._instance_ids) if inst in instances]
        if not rows:
            raise DataValidationError("embedding set must contain at least one record")
        columns = [[column[i] for i in rows]
                   for column in (self._image_ids, self._instance_ids, self._categories)]
        return EmbeddingSet.from_columns(
            self.encoder_name, self.dimension, *columns, [self.matrix()[rows]]
        )

    def _column_rows(self) -> Iterator[tuple[str, str, str, np.ndarray]]:
        """(image_id, instance_id, category, vector) of every record, in order."""
        return zip(self._image_ids, self._instance_ids, self._categories,
                   itertools.chain.from_iterable(self._blocks))


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
        image_ids, instance_ids, categories, blocks = _read_jsonl(_read_jsonl_columns, path, only)
    else:
        image_ids, instance_ids, categories, blocks = _read_bin_columns(path, only)
    if not image_ids and only is None:
        raise DataValidationError(f"{path}: empty embedding file")
    dimension = blocks[0].shape[1] if blocks else 0
    return EmbeddingSet.from_columns(
        path.stem, dimension, image_ids, instance_ids, categories, blocks
    )


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


# what decoding JSON and taking its fields raise; JSONDecodeError and
# UnicodeDecodeError are ValueErrors, RecursionError is nesting too deep
_MALFORMED = (ValueError, KeyError, TypeError, RecursionError)


_raw_decode = json.JSONDecoder().raw_decode
_JSON_SPACE = " \t\n\r"  # the whitespace json.loads skips, narrower than str.strip's


def _json_value(text: str):
    """``json.loads(text)``: the same value, or the same exception with the
    same message. A value that starts the text and is followed by JSON
    whitespace alone is taken from ``raw_decode`` as is; anything else
    (leading whitespace, trailing data, a BOM, any error) is left to
    ``json.loads`` itself."""
    try:
        obj, end = _raw_decode(text)
    except Exception:  # noqa: BLE001 - json.loads raises it again, as its own
        return json.loads(text)
    if end == len(text) or not text[end:].strip(_JSON_SPACE):
        return obj
    return json.loads(text)


def _json_object(text: str) -> dict:
    obj = _json_value(text)
    if type(obj) is not dict:
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    return obj


def parse_json_object(data: bytes, where: str) -> dict:
    """The JSON object that the UTF-8 bytes ``data`` hold. Bytes that are
    not UTF-8, text that is not JSON or nests too deeply, and a value other
    than an object raise DataValidationError, its message led by ``where``."""
    try:
        return _json_object(data.decode("utf-8"))
    except _MALFORMED as exc:
        raise DataValidationError(f"{where}: {exc}") from exc


def load_jsonl(path: str | Path, build: Callable[[dict], object]) -> list:
    """``build`` of the JSON object on each non-blank line of ``path``. A line
    that is not one, or that ``build`` rejects with ValueError, KeyError or
    TypeError, raises DataValidationError naming the line."""
    items = []
    for lineno, line in jsonl_lines(path):
        try:
            items.append(build(_json_object(line)))
        except _MALFORMED as exc:
            raise DataValidationError(f"{path}: line {lineno}: {exc}") from exc
    return items


def typed_fields(types: dict[str, tuple[type, ...]]) -> Callable[[dict], tuple]:
    """A ``build`` for load_jsonl: the values of an object's ``types``
    fields (two or more), in order; a field of another type raises
    ValueError naming it. json gives exact types, and bool is not int here,
    so a valid line costs one set lookup of its field types."""
    values_of = operator.itemgetter(*types)
    valid = set(itertools.product(*types.values()))

    def values(o: dict) -> tuple:
        vals = values_of(o)
        if tuple(map(type, vals)) not in valid:
            for (key, kinds), value in zip(types.items(), vals):
                if type(value) not in kinds:
                    names = " or ".join(kind.__name__ for kind in kinds)
                    raise ValueError(f"{key} must be of type {names}, got {value!r}")
        return vals

    return values


def _span_lines(path: Path, start: int, lineno: int,
                stop: int | None) -> Iterator[tuple[int, str]]:
    """jsonl_lines of lines ``lineno`` up to ``stop`` (the end of the file
    when None) of ``path``, where byte ``start`` begins line ``lineno``,
    streamed from a seeked binary file and split at line feeds alone. Bytes
    that are not UTF-8, and a line holding a carriage return, which
    jsonl_lines would take as a line break, raise DataValidationError."""
    try:
        raw = open(path, "rb")
    except OSError as exc:
        raise _unreadable(path, exc) from exc
    with raw:
        raw.seek(start)
        fh = io.TextIOWrapper(raw, encoding="utf-8", newline="\n")
        n = lineno - 1
        try:
            for n, line in enumerate(fh, start=lineno):
                if n == stop:
                    return
                if "\r" in line:
                    raise DataValidationError(f"{path}: line {n}: carriage return")
                if line.strip():
                    yield n, line
        except UnicodeDecodeError as exc:
            raise DataValidationError(
                f"{path}: not UTF-8 text after line {n}: {exc.reason}"
            ) from exc


def _record_lines(path: Path, only: Collection[str] | None,
                  span: tuple[int, int, int | None] | None = None) -> Iterator[tuple[int, str]]:
    """The jsonl_lines of ``path`` (of its ``span``, the ``_span_lines``
    arguments ``start, lineno, stop``) that may hold a record whose image_id
    is in ``only``; all of them when ``only`` is None.

    JSON spells a string other than literally only with a backslash escape,
    so a line that holds neither a backslash nor ``"<id>"`` for any of the
    ids cannot hold one of them, and is skipped without being parsed.
    """
    lines = jsonl_lines(path) if span is None else _span_lines(path, *span)
    if only is None:
        return lines
    needles = [f'"{image_id}"' for image_id in only]
    return (
        (lineno, line) for lineno, line in lines
        if "\\" in line or any(needle in line for needle in needles)
    )


_NUMBER_TYPES = frozenset((float, int))


def _float32(values) -> np.ndarray:
    """``np.asarray(values, dtype=np.float32)``. A number beyond the float32
    range becomes inf without a warning, for the finiteness check to reject;
    an integer beyond the float64 range raises OverflowError."""
    with np.errstate(over="ignore"):
        return np.asarray(values, dtype=np.float32)


def _numbers(values, field: str) -> np.ndarray:
    """The float32 array of a parsed ``field``: a list of JSON numbers, or a
    list of such lists. numpy would read a numeric string, true, false or
    null as a number, so the element types of each list are checked first
    (json gives exact types, and bool is not int here)."""
    rows = values if type(values) is list and values and type(values[0]) is list else (values,)
    for row in rows:
        if type(row) is not list or not _NUMBER_TYPES.issuperset(map(type, row)):
            raise ValueError(f"{field} components must be numbers")
    try:
        return _float32(values)
    except OverflowError as exc:
        raise ValueError(f"{field} component out of range: {exc}") from exc


def _only_type(kind: type, *columns: Sequence) -> bool:
    return all({type(x) for x in column} == {kind} for column in columns)


def _records_valid(ids: Sequence, instance_ids: Sequence, categories: Sequence,
                   block: np.ndarray) -> bool:
    """Whether every row passes EmbeddingRecord's checks, as column passes."""
    return (block.shape[1] > 0 and _only_type(str, ids, instance_ids, categories)
            and "" not in instance_ids and bool(np.isfinite(block).all()))


_CHUNK = 64  # JSONL lines whose vectors become one float32 block
_record_fields = operator.itemgetter("image_id", "instance_id", "category", "vector")


def _malformed(path: Path, lineno: int, exc: Exception) -> DataValidationError:
    return DataValidationError(f"{path}: line {lineno}: malformed record: {exc}")


def _read_jsonl_columns(path: Path, only: Collection[str] | None, span=None):
    """The id columns and float32 blocks of the records of a JSONL file (of
    those in ``only``; of the lines in ``span``, see ``_record_lines``),
    ``_CHUNK`` lines at a time, and the dimension of the first parsed record
    (None if no line was parsed)."""
    image_ids: list[str] = []
    instance_ids: list[str] = []
    categories: list[str] = []
    blocks: list[np.ndarray] = []
    dim = None
    lines = _record_lines(path, only, span)
    while True:
        linenos, rows, stop = [], [], None
        for lineno, line in itertools.islice(lines, _CHUNK):
            try:
                rows.append(_record_fields(_json_value(line)))
            except _MALFORMED as exc:  # raised once the lines before it are checked
                stop = _malformed(path, lineno, exc)
                break
            linenos.append(lineno)
        if rows:
            ids, insts, cats, vectors = zip(*rows)
            if dim is None:  # the first record's, as every later one's is checked against it
                dim = len(vectors[0]) if type(vectors[0]) is list else 0
            block = _chunk_block(path, linenos, ids, insts, cats, vectors, dim)
            if only is not None:
                keep = [i for i, image_id in enumerate(ids) if image_id in only]
                ids, insts, cats = ([col[i] for i in keep] for col in (ids, insts, cats))
                block = block[keep]
            if ids:
                image_ids += ids
                instance_ids += insts
                categories += cats
                blocks.append(block)
        if stop is not None:
            raise stop
        if len(rows) < _CHUNK:
            return image_ids, instance_ids, categories, blocks, dim


def _chunk_block(path: Path, linenos: list[int], ids: tuple, insts: tuple, cats: tuple,
                 vectors: tuple, dim: int) -> np.ndarray:
    """The chunk's vectors as one (rows, dim) float32 block, once the whole
    chunk passes every check. Otherwise its lines are checked one at a time,
    in the order of a per-line load, and the first faulty line's error raised.
    """
    if (_only_type(list, vectors) and set(map(len, vectors)) == {dim}
            and _NUMBER_TYPES.issuperset(map(type, itertools.chain.from_iterable(vectors)))):
        try:
            block = _float32(vectors)
        except OverflowError:  # an integer beyond float64, named below
            pass
        else:
            if _records_valid(ids, insts, cats, block):
                return block
    for lineno, image_id, instance_id, category, vector in zip(linenos, ids, insts, cats,
                                                                vectors):
        try:
            vec = _numbers(vector, "vector")
        except ValueError as exc:
            raise _malformed(path, lineno, exc) from exc
        EmbeddingRecord(image_id, instance_id, category, vec)
        if vec.shape[0] != dim:
            raise DataValidationError(
                f"{path}: line {lineno}: dimension {vec.shape[0]} != {dim} of first record"
            )
    raise AssertionError(f"{path}: a chunk failed its checks but none of its lines did")


# The smallest JSONL input a split read decodes in two halves.
SPLIT_BYTES = 1 << 20
_split = False  # whether split reads are on; see split_reads


@contextlib.contextmanager
def split_reads(enabled: bool = True):
    """Within the block, with ``enabled`` and where ``os.fork`` exists, the
    JSONL embedding-set and token-map loaders read a file of at least
    SPLIT_BYTES in two halves at once, the second in a forked worker; a load
    with ``only`` stays serial. The value, or the exception and its message,
    is that of a serial read."""
    global _split
    previous, _split = _split, enabled and hasattr(os, "fork")
    try:
        yield
    finally:
        _split = previous


def _read_jsonl(read, path: Path, only: Collection[str] | None) -> list:
    """The columns ``read`` (``_read_jsonl_columns`` or
    ``_read_token_columns``) gives for all of ``path``, without the first
    parsed line's shape. They are the two halves' columns joined in file
    order when a split read gives both, their first parsed lines agree on
    the shape and no id is in both; otherwise those of one serial read,
    which raises the error of a whole-file read. A load with ``only`` parses
    few of the lines it reads and is never split."""
    halves = _halves(read, path) if only is None else None
    if halves is not None:
        (ids, *first, shape), (more_ids, *second, more_shape) = halves
        if (None in (shape, more_shape) or shape == more_shape) and set(ids).isdisjoint(more_ids):
            return [ids + more_ids, *(a + b for a, b in zip(first, second))]
    return read(path, only)[:-1]


def _halves(read, path: Path) -> tuple | None:
    """``read(path, None, span)`` of the two halves of ``path`` (see
    ``_split_point``): the first read here while a forked worker reads the
    second. None when split reads are off, ``path`` has no split point, no
    worker can be forked, or either half raises."""
    point = _split_point(path, SPLIT_BYTES) if _split else None
    if point is None:
        return None
    mid, lineno = point
    from .stage import fork_job  # here: stage imports this module

    try:
        second = fork_job(lambda: read(path, None, (mid, lineno, None)),
                          f"second half of {path.name}")
    except OSError:  # no process or memory to fork: the serial read
        return None
    try:
        return read(path, None, (0, 1, lineno)), second.result()
    except Exception:  # noqa: BLE001 - any fault: the serial read raises the right error
        return None
    finally:
        second.kill()  # a worker still running when the first half failed


def _split_point(path: Path, limit: int = 0) -> tuple[int, int] | None:
    """The first byte of the second half of ``path``, just past the first
    line feed at or after its middle byte, and the number of the line it
    begins. None when the file is smaller than ``limit``, has no line
    past that point, or cannot be read (the serial read names the error)."""
    try:
        with open(path, "rb") as fh:
            size = fh.seek(0, os.SEEK_END)
            if size < limit:
                return None
            fh.seek(size // 2)
            mid = size // 2 + len(fh.readline())
            if mid >= size:
                return None
            fh.seek(0)
            lineno, left = 1, mid
            while left > 0 and (block := fh.read(min(left, 1 << 16))):
                lineno += block.count(b"\n")
                left -= len(block)
            return mid, lineno
    except OSError:
        return None


def _read_bin_columns(path: Path, only: Collection[str] | None):
    """The id columns and one float32 block of the records of an EMB1 file
    (of those in ``only``)."""
    data = read_input(path)
    if len(data) == 0:
        raise DataValidationError(f"{path}: empty embedding file")
    if data[:4] != MAGIC:
        raise DataValidationError(f"{path}: bad magic, not an EMB1 file")
    if len(data) < 12:
        raise DataValidationError(f"{path}: truncated header")
    dim, count = struct.unpack_from("<II", data, 4)
    nbytes = dim * 4
    off = 12
    image_ids: list[str] = []
    instance_ids: list[str] = []
    categories: list[str] = []
    offsets: list[int] = []

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

    stop = None  # raised once the records before it are checked
    try:
        for i in range(count):
            image_id, off = read_str(off)
            instance_id, off = read_str(off)
            category, off = read_str(off)
            if off + nbytes > len(data):
                raise DataValidationError(f"{path}: record {i}: truncated vector at offset {off}")
            if only is None or image_id in only:
                image_ids.append(image_id)
                instance_ids.append(instance_id)
                categories.append(category)
                offsets.append(off)
            off += nbytes
        if off != len(data):
            raise DataValidationError(
                f"{path}: {len(data) - off} trailing bytes after last record"
            )
    except DataValidationError as exc:
        stop = exc
    view = memoryview(data)
    raw = b"".join(view[o : o + nbytes] for o in offsets)
    block = np.frombuffer(raw, dtype="<f4").astype(np.float32).reshape(len(offsets), dim)
    if offsets and not _records_valid(image_ids, instance_ids, categories, block):
        for fields in zip(image_ids, instance_ids, categories, block):
            EmbeddingRecord(*fields)
    if stop is not None:
        raise stop
    return image_ids, instance_ids, categories, [block] if offsets else []


_COMPONENT = "%.9g"  # 9 significant digits round-trip every finite float32


@functools.lru_cache(maxsize=None)
def _list_format(shape: tuple[int, ...]) -> str:
    """The %-format that writes the components of a float32 array of
    ``shape``, in C order, as nested JSON lists spaced as json.dumps spaces
    them."""
    text = ", ".join([_COMPONENT] * shape[-1]).join("[]")
    for n in reversed(shape[:-1]):
        text = ", ".join([text] * n).join("[]")
    return text


def _float_text(fmt: str, components: list[float]) -> str:
    """``components`` written by ``fmt`` of ``_list_format``. ``%g`` spells
    negative zero ``-0``, which JSON reads as the integer 0, so it becomes
    ``-0.0``; no other component text ends in ``-0``."""
    return (fmt % tuple(components)).replace("-0,", "-0.0,").replace("-0]", "-0.0]")


def _check_finite(eset: EmbeddingSet) -> None:
    """Reject a set with a non-finite component, naming its first such record."""
    if all(np.isfinite(block).all() for block in eset._blocks):
        return
    for image_id, _, _, vector in eset._column_rows():
        if not np.isfinite(vector).all():
            raise DataValidationError(f"record {image_id!r} contains non-finite values")


def save_embedding_set(eset: EmbeddingSet, path: str | Path, fmt: str = "jsonl") -> None:
    """Write ``eset`` so that load_embedding_set reads it back bit-exactly;
    a set with a non-finite component is rejected before anything is written."""
    _check_format(fmt)
    _check_finite(eset)
    path = Path(path)
    if fmt == "jsonl":
        vector_format = _list_format((eset.dimension,))
        with open(path, "w", encoding="utf-8") as fh:
            for image_id, instance_id, category, vector in eset._column_rows():
                fh.write(
                    '{"image_id": %s, "instance_id": %s, "category": %s, "vector": %s}\n'
                    % (json.dumps(image_id), json.dumps(instance_id), json.dumps(category),
                       _float_text(vector_format, vector.tolist()))
                )
    else:
        parts = [MAGIC, struct.pack("<II", eset.dimension, len(eset.image_ids))]
        for *strings, vector in eset._column_rows():
            for s in strings:
                b = s.encode("utf-8")
                parts.append(struct.pack("<I", len(b)))
                parts.append(b)
            parts.append(vector.astype("<f4").tobytes())
        Path(path).write_bytes(b"".join(parts))


def load_token_maps(
    path: str | Path, only: Collection[str] | None = None
) -> list[TokenFeatureMap]:
    """Load token maps from JSONL, enforcing constant N and d across the file
    and unique image ids.

    With ``only``, returns just the maps whose image_id is in it, in file
    order, and possibly none; N and d are enforced across the parsed lines.
    Like the embedding-set loader, every ``_CHUNK`` lines become one float32
    (rows, N, d) block, checked as a whole; the maps hold views of its rows.
    A chunk that fails a check has its lines checked one at a time, so the
    first faulty line raises the error a per-line load gives.
    """
    path = Path(path)
    image_ids, blocks = _read_jsonl(_read_token_columns, path, only)
    if not image_ids and only is None:
        raise DataValidationError(f"{path}: empty token-map file")
    return list(map(_token_map, image_ids, itertools.chain.from_iterable(blocks)))


def _read_token_columns(path: Path, only: Collection[str] | None, span=None):
    """The image ids and float32 (rows, N, d) blocks of the maps of a JSONL
    file (of those in ``only``; of the lines in ``span``, see
    ``_record_lines``), ``_CHUNK`` lines at a time, and the (N, d) of the
    first parsed map (None if no line was parsed)."""
    image_ids: list[str] = []
    blocks: list[np.ndarray] = []
    seen: set[str] = set()
    shape: tuple[int, int] | None = None
    lines = _record_lines(path, only, span)
    while True:
        linenos, objs, tokens, stop = [], [], [], None
        for lineno, line in itertools.islice(lines, _CHUNK):
            try:
                obj = _json_value(line)
                tokens.append(obj["tokens"])
            except _MALFORMED as exc:  # raised once the lines before it are checked
                stop = _malformed_map(path, lineno, exc)
                break
            linenos.append(lineno)
            objs.append(obj)
        if objs:
            ids = [obj.get("image_id") for obj in objs]
            if shape is None and type(tokens[0]) is list and tokens[0]:
                first = tokens[0][0]
                shape = (len(tokens[0]), len(first) if type(first) is list else 0)
            block = _token_block(ids, tokens, shape)
            if block is None:
                _check_token_lines(path, linenos, objs, shape, only, seen)
            keep = []
            for row, (lineno, image_id) in enumerate(zip(linenos, ids)):
                if only is None or image_id in only:
                    if image_id in seen:
                        raise _duplicate_map(path, lineno, image_id)
                    seen.add(image_id)
                    keep.append(row)
            if keep:
                image_ids += [ids[row] for row in keep]
                blocks.append(block if len(keep) == len(ids) else block[keep])
        if stop is not None:
            raise stop
        if len(objs) < _CHUNK:
            return image_ids, blocks, shape


def _malformed_map(path: Path, lineno: int, exc: Exception) -> DataValidationError:
    return DataValidationError(f"{path}: line {lineno}: malformed token map: {exc}")


def _duplicate_map(path: Path, lineno: int, image_id: str) -> DataValidationError:
    return DataValidationError(f"{path}: line {lineno}: duplicate image_id {image_id!r}")


def _token_block(ids: list, tokens: list, shape: tuple[int, int] | None) -> np.ndarray | None:
    """The chunk's tokens as one (rows, N, d) float32 block when every line
    holds a string image_id and an N x d list of finite numbers, N and d
    both at least 1; otherwise None."""
    if shape is None or 0 in shape:
        return None
    n, d = shape
    if not (_only_type(str, ids) and _only_type(list, tokens) and set(map(len, tokens)) == {n}):
        return None
    rows = list(itertools.chain.from_iterable(tokens))
    if not (_only_type(list, rows) and set(map(len, rows)) == {d}
            and _NUMBER_TYPES.issuperset(map(type, itertools.chain.from_iterable(rows)))):
        return None
    try:
        block = _float32(tokens)
    except OverflowError:  # an integer beyond float64, named line by line
        return None
    return block if np.isfinite(block).all() else None


def _check_token_lines(path: Path, linenos: list[int], objs: list[dict],
                       shape: tuple[int, int] | None, only: Collection[str] | None,
                       seen: set[str]) -> None:
    """Check a chunk that failed ``_token_block`` one line at a time, as a
    per-line load does, and raise the first faulty line's error."""
    for lineno, obj in zip(linenos, objs):
        try:
            tokens = _numbers(obj["tokens"], "tokens")
            tmap = TokenFeatureMap(obj["image_id"], tokens)
        except _MALFORMED as exc:
            raise _malformed_map(path, lineno, exc) from exc
        if shape is None:
            shape = tmap.tokens.shape
        elif tmap.tokens.shape != shape:
            raise DataValidationError(
                f"{path}: line {lineno}: token map shape {tmap.tokens.shape} != {shape}"
            )
        if only is None or tmap.image_id in only:
            if tmap.image_id in seen:
                raise _duplicate_map(path, lineno, tmap.image_id)
            seen.add(tmap.image_id)
    raise AssertionError(f"{path}: a chunk failed its checks but none of its lines did")


def _token_map(image_id: str, tokens: np.ndarray) -> TokenFeatureMap:
    """A TokenFeatureMap of tokens already checked as part of a block."""
    tmap = object.__new__(TokenFeatureMap)
    object.__setattr__(tmap, "image_id", image_id)
    object.__setattr__(tmap, "tokens", tokens)
    return tmap


def save_token_maps(maps: Sequence[TokenFeatureMap], path: str | Path) -> None:
    """Write token maps as JSONL, one map per line, so that load_token_maps
    reads them back bit-exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        for tmap in maps:
            fh.write('{"image_id": %s, "tokens": %s}\n' % (
                json.dumps(tmap.image_id),
                _float_text(_list_format(tmap.tokens.shape), tmap.tokens.ravel().tolist()),
            ))

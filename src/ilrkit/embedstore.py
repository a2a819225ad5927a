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
DataValidationError naming the file and line. ``load_jsonl`` also rejects
a line that repeats the key (task_id or query_id) of an earlier line; of
all faulty lines, it reports the first.

Every value and every error is the one ``json.loads`` gives. A document
(``parse_json_object``) is decoded by ``_json_value``, which is
``json.loads``. A JSONL line is decoded by ``orjson.loads`` first
(``_orjson_value``), 2 to 3 times faster, unless it may nest deeper than
orjson reads safely (``_too_deep``, counted for a whole chunk of lines
from one byte mask). The readers reach orjson only through
``_orjson_values``, which runs that guard before it decodes. json's value of the line is taken instead where
orjson rejects the line (NaN, Infinity, a number beyond the double range,
a lone surrogate escape and malformed text; its messages are not json's),
where a line or a chunk fails a reader's check, so that every error comes
from json's value, and in ``load_jsonl`` where a field holds a float of
magnitude at least 2**63, which orjson makes of an integer beyond 64 bits
(``orjson_exact``; the column task loader checks its tau column so). The
array loaders need no such check: the float32 of that float is the float32
of json's integer.

The JSONL writers print each float32 component as orjson prints a numpy
float32: the shortest decimal that reads back to it (``0.1``, ``-0.0``,
``1e-45``, ``3.4028235e38``), 8 to 9 % fewer bytes than the 9 significant
digits of ``%.9g``. Lists are spaced as json.dumps spaces them. The loaders
take any JSON number, so files of earlier versions, which hold ``%.9g``
text or the 17-digit float64 repr of each component, load to the same
arrays. A set or map with a non-finite component, which orjson would write
as ``null``, is refused before anything is written.

An EmbeddingSet is stored as columns: the image, instance and category ids
as lists, and the vectors as one (n, dimension) float32 array. Both JSONL
loaders are one column reader (``_read_columns``), told by a ``_Kind``
which fields a line holds and how they are checked. Every ``_CHUNK`` lines
the chunk's numbers become one block (``_number_block``): a chunk of
floats through one inferred float64 ``np.array``, with the element types
checked only where it holds exactly 0 or 1 (numpy reads true and false as
those), any other chunk through a type scan and one float32 ``np.asarray``.
The shape and finiteness checks run on the whole chunk and the string
checks as passes over its columns; each block is then written into one
array that grows as the file is read. Repeated ids of an embedding set are
checked last, over the whole set; those of token maps line by line. Only
when a chunk fails a check are its lines decoded again by json and checked
one at a time, as a per-line load checks them, so the first faulty line
raises the error it gives. The EMB1 loader decodes all selected vectors as
one block and checks it the same way.

Both loaders take ``only=``, a set of image ids, for commands that use a few
images of a large file. A JSONL line is parsed only if it may hold one of
those ids (see ``_record_lines``): the lines are found by a search of
the file's bytes, and only those lines are decoded to text
(``_id_lines``). An EMB1 file has every record header walked and checked,
but only the selected records' vectors decoded. Every parsed line and
every decoded record is validated as in a full load; the records in
between are not.

Vectors are stored un-normalized, exactly as the encoder produced them;
normalization is the similarity layer's job. Sets are immutable once
loaded and safe to share across threads.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Collection, Hashable, Iterable, Iterator, Mapping, Sequence

import numpy as np
import orjson

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
    and the vectors as one (n, dimension) float32 array, in record order.
    ``vector``, ``row_of``, ``row_index`` and ``matrix`` read them;
    ``records`` builds an EmbeddingRecord per row on first use.
    ``EmbeddingSet(name, dimension, records)`` and ``from_records`` take
    records; the loaders and ``expert.embed_set`` build through
    ``from_columns``.
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
        matrix = (np.stack([rec.vector for rec in records]) if records
                  else np.empty((0, dimension), dtype=np.float32))
        self._set_columns(
            encoder_name, dimension, image_ids, [rec.instance_id for rec in records],
            [rec.category for rec in records], matrix,
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
        matrix: np.ndarray,
    ) -> "EmbeddingSet":
        """A set over validated columns and a float32 (n, dimension) matrix
        that holds one row per id, in order; repeated image ids are rejected.
        The set keeps the lists and the matrix without copying them."""
        eset = cls.__new__(cls)
        eset._set_columns(encoder_name, dimension, image_ids, instance_ids, categories, matrix)
        return eset

    def _set_columns(self, encoder_name, dimension, image_ids, instance_ids, categories, matrix):
        # a set is empty only when a filtered load selected nothing
        self.encoder_name = encoder_name
        self.dimension = dimension
        self._image_ids = image_ids
        self._instance_ids = instance_ids
        self._categories = categories
        self._matrix = matrix
        self._row_of = dict(zip(image_ids, range(len(image_ids))))
        if len(self._row_of) != len(image_ids):
            _check_unique(image_ids)
        self._records: list[EmbeddingRecord] | None = None

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
            self._records = list(itertools.starmap(EmbeddingRecord, self._column_rows()))
        return self._records

    def row_of(self, image_id: str) -> int:
        return self._row_of[image_id]

    @property
    def row_index(self) -> Mapping[str, int]:
        """The row of each image id: the set's own index, which callers only read."""
        return self._row_of

    def record(self, image_id: str) -> EmbeddingRecord:
        return self.records[self._row_of[image_id]]

    def vector(self, image_id: str) -> np.ndarray:
        return self._matrix[self._row_of[image_id]]

    def matrix(self) -> np.ndarray:
        """All vectors as the set's (n, dimension) float32 array itself."""
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
            self.encoder_name, self.dimension, *columns, self._matrix[rows]
        )

    def _column_rows(self) -> Iterator[tuple[str, str, str, np.ndarray]]:
        """(image_id, instance_id, category, vector) of every record, in order."""
        return zip(self._image_ids, self._instance_ids, self._categories, self._matrix)


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
        (image_ids, instance_ids, categories), matrix = _read_columns(_RECORDS, path, only)
    else:
        image_ids, instance_ids, categories, matrix = _read_bin_columns(path, only)
    if not image_ids:
        if only is None:
            raise DataValidationError(f"{path}: empty embedding file")
        matrix = np.empty((0, 0), dtype=np.float32)
    return EmbeddingSet.from_columns(
        path.stem, matrix.shape[1], image_ids, instance_ids, categories, matrix
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


# json decodes the documents, and the JSONL lines that orjson leaves to it
_json_value = json.loads


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


_LONG_LINE = 512  # characters: a closed value this short nests at most 256 deep
_MAX_OPEN = 256  # "[" and "{" of a longer line that orjson may read


def _too_deep(texts: Sequence[str]) -> bool:
    """Whether one of the JSONL lines ``texts`` may nest deeper than orjson
    reads safely: it is longer than _LONG_LINE and holds more than _MAX_OPEN
    ``[`` and ``{``. orjson parses nesting that json refuses as too deep,
    and on deeper nesting it crashes the process, so no such line may reach
    ``_orjson_value`` (see ``_orjson_values``).

    The long lines are counted together, from one byte mask of their ``[``
    and ``{``: each line's count is the number of marked bytes before its
    end less those before its start. (A total over the lines would not do:
    a token-map line holds 17 ``[``.) Lines that are not ASCII, where a
    character may take several bytes, are counted one at a time."""
    long = [text for text in texts if len(text) > _LONG_LINE]
    if not long:
        return False
    joined = "".join(long)
    if not joined.isascii():
        return any(text.count("[") + text.count("{") > _MAX_OPEN for text in long)
    # "[" and "{" differ in bit 0x20 alone, and no other byte sets it to "{"
    opens = np.flatnonzero((np.frombuffer(joined.encode(), np.uint8) | 0x20) == ord("{"))
    if len(opens) <= _MAX_OPEN:
        return False
    before_end = np.searchsorted(opens, np.cumsum(list(map(len, long))))
    return bool(np.diff(before_end, prepend=0).max() > _MAX_OPEN)


def _orjson_value(text: str):
    """orjson's value of the JSONL line ``text``, which ``_too_deep`` has
    cleared; every JSONL line goes to orjson through here, called by
    ``_orjson_values`` alone. orjson reads a text as json does or raises
    its JSONDecodeError, a ValueError, but for two kinds of text: nesting,
    which ``_too_deep`` keeps from it, and an integer beyond 64 bits, which
    it reads as a float (see ``orjson_exact``)."""
    return orjson.loads(text)


def _orjson_values(texts: Sequence[str]) -> Iterator:
    """``_orjson_value`` of each of the JSONL lines ``texts``, in order. A
    ValueError is raised first, and no line decoded, when one of them is
    ``_too_deep``: the readers decode JSONL lines only through here, so no
    line that may crash orjson reaches it."""
    if _too_deep(texts):
        raise ValueError("left to json: nested too deeply for orjson")
    return map(_orjson_value, texts)


_INT64 = 2.0 ** 63  # orjson reads an integer beyond 64 bits as a float at least this large


def orjson_exact(numbers: Iterable) -> bool:
    """Whether json reads the JSON numbers whose orjson values are
    ``numbers`` as orjson does: no magnitude is 2**63 or more. (orjson
    reads an integer beyond 64 bits as a float of such a magnitude; an
    integer or a float that large is refused too, so json decides.)"""
    return max(map(abs, numbers), default=0) < _INT64


def _json_decides(obj) -> bool:
    """Whether json's value of a line must be taken instead of orjson's
    ``obj``: ``obj`` is not an object, or one of its fields holds a float
    that json may read as an integer."""
    return type(obj) is not dict or not orjson_exact(
        value for value in obj.values() if type(value) is float)


def load_jsonl(path: str | Path, build: Callable[[dict], object],
               key: Callable[[object], Hashable], name: str) -> list:
    """``build`` of the JSON object on each non-blank line of ``path``. The
    first line that is not one, that ``build`` rejects with ValueError,
    KeyError or TypeError, or whose item repeats the ``key`` of an earlier
    item (called ``name`` in the message) raises DataValidationError naming
    the line.

    A line is decoded by ``_orjson_values``. json's value is built instead
    where the line is ``_too_deep`` for orjson, orjson rejects it,
    ``_json_decides`` on its value, or ``build`` rejects it, so every item
    and error is json's. The builds take numbers only from the object's own
    fields, which ``_json_decides`` checks."""
    items = []
    seen = set()
    for lineno, line in jsonl_lines(path):
        try:
            (obj,) = _orjson_values((line,))
            if _json_decides(obj):
                raise ValueError("left to json")
            item = build(obj)
        except _MALFORMED:
            try:
                item = build(_json_object(line))
            except _MALFORMED as exc:
                raise DataValidationError(f"{path}: line {lineno}: {exc}") from exc
        k = key(item)
        if k in seen:
            raise DataValidationError(f"{path}: line {lineno}: duplicate {name} {k!r}")
        seen.add(k)
        items.append(item)
    return items


def jsonl_values(path: str | Path, values: Callable[[dict], tuple]) -> list[tuple] | None:
    """``values`` (a ``typed_fields``) of orjson's value of each non-blank
    line of ``path``, in order, for loaders that check the values as
    columns; None when the file cannot be read, a line is not UTF-8, is
    ``_too_deep``, is not JSON to orjson or lacks a field of a type
    ``values`` takes. The caller then runs ``load_jsonl``, which raises the
    first faulty line's error, and must itself check with ``orjson_exact``
    every column that takes floats."""
    rows: list[tuple] = []
    lines = jsonl_lines(path)
    try:
        while chunk := list(itertools.islice(lines, _CHUNK)):
            got = _orjson_rows(chunk, values)
            if got is None:
                return None
            rows += got
    except DataValidationError:
        return None
    return rows


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


_LEADING_ID = '{"image_id": "'  # how save_embedding_set and save_token_maps begin a line


_SCAN_BYTES = 256 << 10  # bytes searched at once; more than a jsonl_lines decoding step (8 KiB)


def _record_lines(path: Path, only: Collection[str] | None) -> Iterator[tuple[int, str]]:
    """The jsonl_lines of ``path`` that may hold a record whose image_id is
    in ``only`` (see ``_keeps``), found in its bytes (``_id_lines``); a
    skipped line is not parsed. When ``only`` is None, all of them."""
    return jsonl_lines(path) if only is None else _id_lines(path, only)


def _keeps(only: Collection[str]) -> Callable[[str], bool]:
    """Whether a line may hold a record whose image_id is in ``only``.

    JSON spells a string other than literally only with a backslash escape,
    so a line with a backslash is always kept. A line without one that
    starts as the writers start a record, ``{"image_id": "<id>"``, and has
    no other ``"image_id"`` before its last quote, holds the record of that
    id, and is kept when the id is in ``only``: one set lookup a line. (The
    numbers after the last quote are not searched: they hold no quote.) Any
    other line is kept when it holds ``"<id>"`` for one of the ids. So a
    kept line holds ``"<id>"`` for an id of ``only``, or a backslash.
    """
    wanted = set(only)
    needles = [f'"{image_id}"' for image_id in wanted]
    start = len(_LEADING_ID)
    return lambda line: "\\" in line or (
        line[start:line.find('"', start)] in wanted
        if line.startswith(_LEADING_ID)
        and line.find('"image_id"', start, line.rfind('"') + 1) < 0
        else any(needle in line for needle in needles)
    )


def _id_lines(path: Path, only: Collection[str]) -> Iterator[tuple[int, str]]:
    """The jsonl_lines of ``path`` that ``_keeps(only)`` keeps, found in
    its bytes: only the lines that hold ``"<id>"`` for an id of ``only``, or
    a backslash, are decoded and tested. The file is read into one buffer
    _SCAN_BYTES at a time, the unfinished last line of a block kept at the
    buffer's start for the next, and each line is numbered from the line
    feeds before it.

    A line feed ends a line of ASCII text alone, as in jsonl_lines. A file
    that holds a byte beyond ASCII or a carriage return is read by
    jsonl_lines from that block on, which decodes, splits and rejects such
    text its own way: a block's lines are given out only once the next
    block is known to be ASCII without a carriage return, so the lines
    given out end more than one decoding step of jsonl_lines (8 KiB) before
    any such byte, and jsonl_lines reads the lines after them again."""
    keeps = _keeps(only)
    needles = [f'"{image_id}"'.encode() for image_id in set(only)] + [b"\\"]
    try:
        fh = open(path, "rb", buffering=0)
    except OSError as exc:
        raise _unreadable(path, exc) from exc
    with fh:
        buf = bytearray(_SCAN_BYTES)
        feeds = np.empty(len(buf), bool)  # where buf holds a line feed
        held: list[tuple[int, str]] = []
        held_from = lineno = 1  # the numbers of the first held line and of the buffer's first
        kept = 0  # bytes of the unfinished line at the buffer's start
        while True:
            if kept == len(buf):  # one line fills the buffer
                buf, feeds = buf + bytes(len(buf)), np.empty(2 * len(buf), bool)
            got = fh.readinto(memoryview(buf)[kept:])
            filled = kept + got
            if got and (np.frombuffer(buf, np.uint8, got, kept).max() > 0x7F
                        or buf.find(b"\r", kept, filled) >= 0):
                yield from ((n, line) for n, line in jsonl_lines(path)
                            if n >= held_from and keeps(line))
                return
            yield from held
            end = buf.rfind(b"\n", 0, filled) + 1 if got else filled
            held, held_from = [], lineno
            np.equal(np.frombuffer(buf, np.uint8, end), ord("\n"), out=feeds[:end])
            counted = 0  # the bytes whose line feeds lineno counts
            for start, stop in _lines_holding(buf, end, needles):
                lineno += int(np.count_nonzero(feeds[counted:start]))
                counted = start
                line = buf[start:stop].decode("ascii")
                if keeps(line):
                    held.append((lineno, line))
            lineno += int(np.count_nonzero(feeds[counted:end]))
            if not got:
                yield from held
                return
            kept = filled - end
            buf[:kept] = buf[end:filled]


def _lines_holding(buf: bytearray, end: int, needles: list[bytes]) -> list[tuple[int, int]]:
    """The (start, stop) byte spans, in order, of the lines of ``buf[:end]``
    that hold one of ``needles``; a line ends with its line feed, or at
    ``end``."""
    spans = set()
    for needle in needles:
        at = buf.find(needle, 0, end)
        while at >= 0:
            stop = buf.find(b"\n", at, end) + 1 or end
            spans.add((buf.rfind(b"\n", 0, at) + 1, stop))
            at = buf.find(needle, stop, end)
    return sorted(spans)


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


def _record_strings_valid(ids: Sequence, instance_ids: Sequence, categories: Sequence) -> bool:
    """Whether the string fields of every row pass EmbeddingRecord's checks,
    as column passes."""
    return _only_type(str, ids, instance_ids, categories) and "" not in instance_ids


_CHUNK = 64  # JSONL lines whose numbers become one float32 block


def _orjson_rows(chunk: list[tuple[int, str]], fields: Callable) -> list | None:
    """``fields`` of ``_orjson_values`` of the lines of ``chunk``, or None
    when a line is ``_too_deep``, orjson rejects it or it lacks a field."""
    try:
        return list(map(fields, _orjson_values([line for _, line in chunk])))
    except _MALFORMED:
        return None


@dataclass(frozen=True)
class _Kind:
    """A kind of JSONL record file, as ``_read_columns`` reads it."""

    fields: tuple[str, ...]  # the string fields, image_id first, then the numbers
    build: Callable  # the checked item of json's value of a line, as a per-line load builds it
    first_shape: Callable  # the shape of every line's numbers, from the first parsed line's
    strings_valid: Callable[..., bool]  # whether a chunk's string columns pass the item's checks
    name: str  # what a line holds, in the error of a line that does not
    mismatch: str  # the error of numbers of another shape: format(theirs, the first line's)
    repeats_by_line: bool  # a repeated image_id is an error of its line (else of the whole set)

    @functools.cached_property
    def values(self) -> Callable[[dict], tuple]:
        return operator.itemgetter(*self.fields)

    @functools.cached_property
    def parts(self) -> Callable[[object], tuple]:
        return operator.attrgetter(*self.fields)


def _record(obj) -> EmbeddingRecord:
    return EmbeddingRecord(obj["image_id"], obj["instance_id"], obj["category"],
                           _numbers(obj["vector"], "vector"))


def _map(obj) -> TokenFeatureMap:
    tokens = _numbers(obj["tokens"], "tokens")  # a per-line load checks these first
    return TokenFeatureMap(obj["image_id"], tokens)


def _first_shape(tokens) -> tuple[int, int] | None:
    """The (N, d) of the first parsed map: d is 0 when its first row is not a
    list, and there is none when its tokens are not a non-empty list."""
    if type(tokens) is not list or not tokens:
        return None
    return len(tokens), len(tokens[0]) if type(tokens[0]) is list else 0


_RECORDS = _Kind(
    fields=("image_id", "instance_id", "category", "vector"), build=_record,
    first_shape=lambda vector: (len(vector) if type(vector) is list else 0,),
    strings_valid=_record_strings_valid, name="record",
    mismatch="dimension {0[0]} != {1[0]} of first record", repeats_by_line=False,
)
_MAPS = _Kind(
    fields=("image_id", "tokens"), build=_map, first_shape=_first_shape,
    strings_valid=functools.partial(_only_type, str), name="token map",
    mismatch="token map shape {0} != {1}", repeats_by_line=True,
)


def _read_columns(kind: _Kind, path: Path, only: Collection[str] | None):
    """The string columns of the records of a JSONL file of ``kind`` (of
    those in ``only``), in file order, and their numbers as one float32
    array (None when no record is kept), read ``_CHUNK`` lines at a time.

    A chunk is taken from orjson's values when all its lines have them and
    it passes the whole-chunk checks (``_chunk_block``); otherwise its lines
    are decoded by json and checked one at a time (``_json_rows``). Each
    chunk's kept rows are written into one array, which is doubled when
    full (see ``_first_rows``)."""
    columns: list[list] = [[] for _ in kind.fields[:-1]]
    seen: set[str] | None = set() if kind.repeats_by_line else None
    shape = out = None
    used = 0
    lines = _record_lines(path, only)
    while chunk := list(itertools.islice(lines, _CHUNK)):
        rows, block = _orjson_rows(chunk, kind.values), None
        if rows:
            *strings, numbers = zip(*rows)
            if shape is None:
                shape = kind.first_shape(numbers[0])
            block = _chunk_block(kind, strings, numbers, shape)
        if block is not None:
            keep = _kept_rows(path, chunk, strings[0], only, seen)
            if keep is not None and len(keep) < len(block):
                strings, block = [[column[i] for i in keep] for column in strings], block[keep]
        else:
            kept, shape = _json_rows(kind, path, chunk, shape, only, seen)
            if not kept:
                continue
            *strings, numbers = zip(*kept)
            block = np.stack(numbers)
        if len(block):
            for column, values in zip(columns, strings):
                column += values
            if out is None:
                out = np.empty((_first_rows(path, chunk, only, block[0].size), *block.shape[1:]),
                               dtype=np.float32)
            elif used + len(block) > len(out):
                grown = np.empty((2 * len(out), *out.shape[1:]), dtype=np.float32)
                grown[:used] = out[:used]
                out = grown
            out[used:used + len(block)] = block
            used += len(block)
    return columns, None if out is None else out[:used]


def _first_rows(path: Path, chunk: list[tuple[int, str]], only: Collection[str] | None,
                size: int) -> int:
    """The rows of a read's array when its first rows, of ``size`` numbers
    each, are kept from ``chunk``: for a read of ``only``, one chunk's; for
    a whole file, one chunk's more than it holds lines as long as the
    chunk's are on average, but no more than its bytes can hold at two a
    number (a digit and a comma). The pages of rows never written are
    never touched."""
    if only is not None:
        return _CHUNK
    nbytes = path.stat().st_size
    per_line = sum(len(line) for _, line in chunk) / len(chunk)
    return _CHUNK + min(int(nbytes / per_line), nbytes // (2 * size))


def _chunk_block(kind: _Kind, strings: list[tuple], numbers: tuple,
                 shape: tuple[int, ...] | None) -> np.ndarray | None:
    """The chunk's numbers as one (rows, *shape) float32 block when every
    line passes the item's checks: string fields, numbers of ``shape`` (no
    side of it 0) and finite; otherwise None."""
    if shape is None or 0 in shape or not kind.strings_valid(*strings):
        return None
    block = _number_block(numbers, (len(numbers), *shape))
    return block if block is not None and np.isfinite(block).all() else None


def _json_rows(kind: _Kind, path: Path, chunk: list[tuple[int, str]],
               shape: tuple[int, ...] | None, only: Collection[str] | None,
               seen: set[str] | None) -> tuple[list[tuple], tuple[int, ...]]:
    """The fields of the kept records on the lines of ``chunk``, each decoded
    by json and checked as a per-line load checks it, and the shape of the
    first parsed line's numbers; the first faulty line raises its error."""
    kept = []
    for lineno, line in chunk:
        try:
            row = kind.parts(kind.build(_json_value(line)))
        except _MALFORMED as exc:
            raise DataValidationError(f"{path}: line {lineno}: malformed {kind.name}: {exc}") from exc
        if shape is None:
            shape = row[-1].shape
        elif row[-1].shape != shape:
            raise DataValidationError(
                f"{path}: line {lineno}: " + kind.mismatch.format(row[-1].shape, shape))
        if _kept_row(path, lineno, row[0], only, seen):
            kept.append(row)
    return kept, shape


def _kept_row(path: Path, lineno: int, image_id: str, only: Collection[str] | None,
              seen: set[str] | None) -> bool:
    """Whether the record of line ``lineno`` is kept: its image_id is in
    ``only``, or ``only`` is None. With ``seen``, the ids kept before it, a
    kept id seen already raises DataValidationError naming the line."""
    if only is not None and image_id not in only:
        return False
    if seen is not None:
        if image_id in seen:
            raise DataValidationError(f"{path}: line {lineno}: duplicate image_id {image_id!r}")
        seen.add(image_id)
    return True


def _kept_rows(path: Path, chunk: list[tuple[int, str]], ids: Sequence[str],
               only: Collection[str] | None, seen: set[str] | None) -> list[int] | None:
    """The rows of the records of ``chunk`` that ``_kept_row`` keeps, in
    order; None when it keeps every row unchecked."""
    if only is None and seen is None:
        return None
    return [row for row, ((lineno, _), image_id) in enumerate(zip(chunk, ids))
            if _kept_row(path, lineno, image_id, only, seen)]


def _number_block(rows: Sequence, shape: tuple[int, ...]) -> np.ndarray | None:
    """``rows``, nested lists of JSON numbers of ``shape``, as one float32
    array; None when they are not such lists, or a number is an integer
    beyond the float64 range (named line by line).

    A chunk of floats converts in one inferred float64 array. numpy reads
    true and false in it as 1.0 and 0.0, so the element types are checked
    where it holds exactly 0 or 1. Any other chunk (integers alone are
    int64, integers beyond 64 bits object, strings text) has the types of
    its lists and numbers scanned and converts through ``_float32``. Either
    way each number becomes the float32 of its float64, and a number beyond
    the float32 range becomes inf."""
    try:
        inferred = np.array(rows)
    except (ValueError, OverflowError):  # ragged lists, or an integer beyond float64
        inferred = None
    if inferred is not None and inferred.dtype == np.float64 and inferred.shape == shape:
        flat = inferred.reshape(-1)
        at = np.flatnonzero((flat == 0.0) | (flat == 1.0))
        for index in zip(*np.unravel_index(at, shape)):
            if type(functools.reduce(operator.getitem, index, rows)) is bool:
                return None
        with np.errstate(over="ignore"):
            return inferred.astype(np.float32)
    level = rows
    for size in shape[1:]:
        if not (_only_type(list, level) and set(map(len, level)) == {size}):
            return None
        level = list(itertools.chain.from_iterable(level))
    if not _NUMBER_TYPES.issuperset(map(type, level)):
        return None
    try:
        return _float32(rows)
    except OverflowError:  # an integer beyond float64, named line by line
        return None


def _read_bin_columns(path: Path, only: Collection[str] | None):
    """The id columns and the float32 (rows, dimension) array of the records
    of an EMB1 file (of those in ``only``)."""
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
    if offsets and not (dim > 0 and _record_strings_valid(image_ids, instance_ids, categories)
                        and np.isfinite(block).all()):
        for fields in zip(image_ids, instance_ids, categories, block):
            EmbeddingRecord(*fields)
    if stop is not None:
        raise stop
    return image_ids, instance_ids, categories, block


def _string_text(text: str) -> bytes:
    """``text`` as a JSON string, escaped to ASCII as json.dumps writes it."""
    return json.dumps(text).encode()


def _array_text(block: np.ndarray) -> bytes:
    """The float32 components of the finite array ``block``, in C order, as
    nested JSON lists spaced as json.dumps spaces them. orjson writes each
    component as the shortest decimal that reads back to it, and negative
    zero as ``-0.0``."""
    return orjson.dumps(np.ascontiguousarray(block, dtype=np.float32),
                        option=orjson.OPT_SERIALIZE_NUMPY).replace(b",", b", ")


def _check_finite(eset: EmbeddingSet) -> None:
    """Reject a set with a non-finite component, naming its first such record."""
    if np.isfinite(eset.matrix()).all():
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
        with open(path, "wb") as fh:
            for image_id, instance_id, category, vector in eset._column_rows():
                fh.write(b'{"image_id": %s, "instance_id": %s, "category": %s, "vector": %s}\n'
                         % (_string_text(image_id), _string_text(instance_id),
                            _string_text(category), _array_text(vector)))
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
    The embedding-set loader's column reader reads the file into one float32
    (n, N, d) array, checked a chunk at a time; the maps hold views of its
    rows. A chunk that fails a check has its lines checked one at a time,
    so the first faulty line raises the error a per-line load gives.
    """
    path = Path(path)
    (image_ids,), tokens = _read_columns(_MAPS, path, only)
    if not image_ids:
        if only is None:
            raise DataValidationError(f"{path}: empty token-map file")
        return []
    return token_maps_of(image_ids, tokens)


def token_maps_of(image_ids: Sequence[str], tokens: np.ndarray) -> list[TokenFeatureMap]:
    """One TokenFeatureMap per id, holding a view of its row of the float32
    (n, N, d) array ``tokens``, which holds one row per id, in order, and
    has been checked already (string ids, finite tokens, N and d at least 1)."""
    return list(map(_unchecked_map, image_ids, tokens))


def _unchecked_map(image_id: str, tokens: np.ndarray) -> TokenFeatureMap:
    tmap = object.__new__(TokenFeatureMap)
    object.__setattr__(tmap, "image_id", image_id)
    object.__setattr__(tmap, "tokens", tokens)
    return tmap


def save_token_maps(maps: Sequence[TokenFeatureMap], path: str | Path) -> None:
    """Write token maps as JSONL, one map per line, so that load_token_maps
    reads them back bit-exactly; a map with a non-finite component is
    rejected before anything is written."""
    for tmap in maps:
        if not np.isfinite(tmap.tokens).all():
            raise DataValidationError(f"token map {tmap.image_id!r} contains non-finite values")
    with open(path, "wb") as fh:
        for tmap in maps:
            fh.write(b'{"image_id": %s, "tokens": %s}\n'
                     % (_string_text(tmap.image_id), _array_text(tmap.tokens)))

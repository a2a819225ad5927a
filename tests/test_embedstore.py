import ast
import json
import math
import re
import struct
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ilrkit import cli, dataengine, embedstore
from ilrkit.embedstore import (
    EmbeddingRecord,
    EmbeddingSet,
    TokenFeatureMap,
    load_embedding_set,
    load_token_maps,
    save_embedding_set,
    save_token_maps,
)
from ilrkit.errors import DataValidationError


@pytest.fixture
def sample_set():
    rng = np.random.default_rng(5)
    records = [
        EmbeddingRecord(f"img{i:03d}", f"inst{i % 4:02d}", "pet",
                        rng.standard_normal(12).astype(np.float32))
        for i in range(10)
    ]
    return EmbeddingSet.from_records("enc", records)


class TestEmbeddingSet:
    def test_indexing(self, sample_set):
        assert sample_set.dimension == 12
        assert sample_set.row_of("img003") == 3
        assert sample_set.record("img007").instance_id == "inst03"
        assert sample_set.instance_index["inst01"] == ["img001", "img005", "img009"]
        assert sample_set.matrix().shape == (10, 12)

    def test_columns_of_one_matrix(self, sample_set):
        m = sample_set.matrix().copy()
        eset = EmbeddingSet.from_columns("enc", 12, sample_set.image_ids,
                                         sample_set.instance_ids, sample_set.categories, m)
        assert eset.matrix() is m  # kept, not copied
        for i, image_id in enumerate(sample_set.image_ids):
            assert eset.vector(image_id).tobytes() == m[i].tobytes()
            assert np.shares_memory(eset.vector(image_id), m)
        assert [r.vector.tobytes() for r in eset.records] == [row.tobytes() for row in m]
        sub = eset.subset({"inst01"})
        assert sub.image_ids == ["img001", "img005", "img009"]
        assert sub.matrix().tobytes() == m[[1, 5, 9]].tobytes()
        with pytest.raises(DataValidationError, match="at least one record"):
            eset.subset({"nope"})
        with pytest.raises(DataValidationError, match="duplicate image_id 'a'"):
            EmbeddingSet.from_columns("enc", 12, ["a", "a"], ["i", "i"], ["c", "c"], m[:2])

    def test_duplicate_image_id_rejected(self):
        rec = EmbeddingRecord("a", "i", "pet", np.ones(3, dtype=np.float32))
        with pytest.raises(DataValidationError, match="duplicate"):
            EmbeddingSet.from_records("enc", [rec, rec])

    def test_dimension_mismatch_rejected(self):
        records = [
            EmbeddingRecord("a", "i", "pet", np.ones(3, dtype=np.float32)),
            EmbeddingRecord("b", "i", "pet", np.ones(4, dtype=np.float32)),
        ]
        with pytest.raises(DataValidationError, match="dimension"):
            EmbeddingSet.from_records("enc", records)

    def test_empty_set_rejected(self):
        with pytest.raises(DataValidationError):
            EmbeddingSet.from_records("enc", [])

    def test_record_validation(self):
        with pytest.raises(DataValidationError):
            EmbeddingRecord("a", "", "pet", np.ones(3))
        with pytest.raises(DataValidationError):
            EmbeddingRecord("a", "i", "pet", np.ones((2, 2)))
        with pytest.raises(DataValidationError):
            EmbeddingRecord("a", "i", "pet", np.empty(0))


@pytest.mark.parametrize("fmt", ["jsonl", "bin"])
def test_round_trip_bit_exact(sample_set, tmp_path, fmt):
    path = tmp_path / f"emb.{fmt}"
    save_embedding_set(sample_set, path, fmt)
    loaded = load_embedding_set(path, fmt)
    assert loaded.dimension == sample_set.dimension
    assert loaded.image_ids == sample_set.image_ids
    for got, want in zip(loaded.records, sample_set.records):
        assert got.instance_id == want.instance_id
        assert got.category == want.category
        assert got.vector.dtype == np.float32
        assert np.array_equal(got.vector, want.vector)


def test_jsonl_dimension_error_names_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    lines = [
        {"image_id": "a", "instance_id": "i", "category": "c", "vector": [1.0, 2.0]},
        {"image_id": "b", "instance_id": "i", "category": "c", "vector": [1.0, 2.0]},
        {"image_id": "c", "instance_id": "i", "category": "c", "vector": [1.0]},
    ]
    path.write_text("\n".join(json.dumps(o) for o in lines) + "\n")
    with pytest.raises(DataValidationError, match="line 3"):
        load_embedding_set(path)


def test_jsonl_malformed_record_names_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"image_id": "a"}\n')
    with pytest.raises(DataValidationError, match="line 1"):
        load_embedding_set(path)


def test_jsonl_blank_lines_skipped(sample_set, tmp_path):
    path = tmp_path / "emb.jsonl"
    save_embedding_set(sample_set, path)
    padded = tmp_path / "padded.jsonl"
    padded.write_text("\n" + path.read_text() + "\n\n")
    assert load_embedding_set(padded).image_ids == sample_set.image_ids


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(DataValidationError, match="empty"):
        load_embedding_set(path)


class TestBinaryFormat:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(DataValidationError, match="magic"):
            load_embedding_set(path, "bin")

    def test_truncated_vector(self, sample_set, tmp_path):
        path = tmp_path / "x.bin"
        save_embedding_set(sample_set, path, "bin")
        data = path.read_bytes()
        path.write_bytes(data[:-6])
        with pytest.raises(DataValidationError, match="truncated"):
            load_embedding_set(path, "bin")

    def test_trailing_bytes(self, sample_set, tmp_path):
        path = tmp_path / "x.bin"
        save_embedding_set(sample_set, path, "bin")
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(DataValidationError, match="trailing"):
            load_embedding_set(path, "bin")

    def test_unknown_format_rejected(self, sample_set, tmp_path):
        with pytest.raises(DataValidationError):
            save_embedding_set(sample_set, tmp_path / "x", "parquet")


class TestTokenMaps:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        maps = [
            TokenFeatureMap(f"img{i}", rng.standard_normal((4, 6)).astype(np.float32))
            for i in range(5)
        ]
        path = tmp_path / "tokens.jsonl"
        save_token_maps(maps, path)
        loaded = load_token_maps(path)
        assert [m.image_id for m in loaded] == [m.image_id for m in maps]
        for got, want in zip(loaded, maps):
            assert np.array_equal(got.tokens, want.tokens)

    def test_inconsistent_shape_rejected(self, tmp_path):
        path = tmp_path / "tokens.jsonl"
        path.write_text(
            json.dumps({"image_id": "a", "tokens": [[1.0, 2.0]]}) + "\n"
            + json.dumps({"image_id": "b", "tokens": [[1.0, 2.0], [3.0, 4.0]]}) + "\n"
        )
        with pytest.raises(DataValidationError, match="line 2"):
            load_token_maps(path)

    def test_non_finite_rejected(self):
        with pytest.raises(DataValidationError, match="non-finite"):
            TokenFeatureMap("a", np.array([[1.0, np.nan]]))

    def test_shape_validation(self):
        with pytest.raises(DataValidationError):
            TokenFeatureMap("a", np.ones(3))

    def test_duplicate_image_id_rejected(self, tmp_path):
        path = tmp_path / "tokens.jsonl"
        line = json.dumps({"image_id": "a", "tokens": [[1.0, 2.0]]}) + "\n"
        path.write_text(line + json.dumps({"image_id": "b", "tokens": [[1.0, 2.0]]}) + "\n" + line)
        for only in (None, {"a"}):
            with pytest.raises(DataValidationError, match="line 3: duplicate image_id 'a'"):
                load_token_maps(path, only=only)
        assert [m.image_id for m in load_token_maps(path, only={"b"})] == ["b"]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "tokens.jsonl"
        path.write_text("\n")
        with pytest.raises(DataValidationError, match="empty"):
            load_token_maps(path)


# float32 values whose text is hard to get right: signed zero, subnormals,
# 1e-05-scale values and exponents near both ends of the float32 range
_AWKWARD = np.array(
    [-0.0, 0.0, 1e-45, -1.4e-45, 1.17e-38, 3e-39, 1e-05, -2.5e-05, 3.4e38, -1.7e38,
     0.1, 1.0 / 3.0, 12345.678, -7.0],
    dtype=np.float32,
)


_F32_MAX = np.finfo(np.float32).max


def _float32_values(seed: int, n: int = 6000) -> np.ndarray:
    """Finite float32 values: random bit patterns (subnormals among them),
    the smallest and largest subnormals, the smallest normal, signed zeros,
    the extremes, integers and _AWKWARD, shuffled."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2 ** 32, size=n, dtype=np.uint64).astype(np.uint32)
    special = np.array([0x00000001, 0x807FFFFF, 0x00800000, 0x80000000, 0x00000000],
                       dtype=np.uint32).view(np.float32)
    integers = np.array([1, -7, 3, 2 ** 24, -(2 ** 24 + 2), 123456792, 3e9, 2.0 ** 100],
                        dtype=np.float32)
    values = np.concatenate([bits.view(np.float32), special, [_F32_MAX, -_F32_MAX],
                             integers, _AWKWARD]).astype(np.float32)
    return rng.permutation(values[np.isfinite(values)])


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float32).view(np.uint32)


def _digits(text: str) -> tuple:
    """The sign, significant digits and exponent of a decimal's text."""
    return Decimal(text).normalize().as_tuple()


def _component_texts(line: str, key: str) -> list[str]:
    """The text of every number of ``key`` in a written JSONL line."""
    return re.split(r"[\[\], ]+", line.split(f'"{key}": ', 1)[1].rstrip("}\n"))[1:-1]


class TestWriterText:
    """Both JSONL writers print each float32 component as the shortest
    decimal that reads back to it (``-0.0`` for negative zero), which loads
    back bit-equal."""

    def _set(self, values, d=16):
        values = values[: len(values) // d * d].reshape(-1, d)
        n = len(values)
        return EmbeddingSet.from_columns(
            "enc", d, [f"img{i}" for i in range(n)], [f"inst{i % 7}" for i in range(n)],
            ["pet"] * n, values,
        )

    def _maps(self, values, shape=(3, 5)):
        size = shape[0] * shape[1]
        return [TokenFeatureMap(f"img{i}", values[i * size : (i + 1) * size].reshape(shape))
                for i in range(len(values) // size)]

    def test_embedding_set_round_trip(self, tmp_path):
        for seed, d in ((1, 1), (2, 7), (3, 64)):
            eset = self._set(_float32_values(seed), d)
            save_embedding_set(eset, tmp_path / "e.jsonl")
            loaded = load_embedding_set(tmp_path / "e.jsonl")
            assert loaded.image_ids == eset.image_ids
            assert np.array_equal(_bits(loaded.matrix()), _bits(eset.matrix()))

    def test_token_maps_round_trip(self, tmp_path):
        for seed, shape in ((4, (1, 1)), (5, (3, 5)), (6, (16, 16))):
            maps = self._maps(_float32_values(seed), shape)
            save_token_maps(maps, tmp_path / "t.jsonl")
            loaded = load_token_maps(tmp_path / "t.jsonl")
            assert [m.image_id for m in loaded] == [m.image_id for m in maps]
            for got, want in zip(loaded, maps):
                assert np.array_equal(_bits(got.tokens), _bits(want.tokens))

    def test_spelling(self, tmp_path):
        """Every component is the shortest decimal that reads back to its
        float32: the digits and exponent of ``np.format_float_scientific(x,
        unique=True)``. Negative zero is ``-0.0`` (``-0`` would read back
        as +0), and every line is strict JSON."""
        values = _float32_values(7)
        eset, maps = self._set(values, 4), self._maps(values, (2, 3))
        save_embedding_set(eset, tmp_path / "e.jsonl")
        save_token_maps(maps, tmp_path / "t.jsonl")
        files = (("e.jsonl", "vector", [list(v) for v in eset.matrix()]),
                 ("t.jsonl", "tokens", [list(m.tokens.ravel()) for m in maps]))
        negative_zeros = 0
        for name, key, rows in files:
            lines = (tmp_path / name).read_text().splitlines(keepends=True)
            assert len(lines) == len(rows)
            for line, row in zip(lines, rows):
                json.loads(line, parse_constant=pytest.fail)  # no NaN or Infinity
                texts = _component_texts(line, key)
                assert [_digits(t) for t in texts] == [
                    _digits(np.format_float_scientific(x, unique=True)) for x in row
                ]
                zeros = [t for t, x in zip(texts, row) if x == 0]
                assert zeros == ["-0.0" if np.signbit(x) else "0.0" for x in row if x == 0]
                negative_zeros += zeros.count("-0.0")
        assert negative_zeros >= 2

    def test_random_bit_patterns_round_trip(self, tmp_path):
        """Over 10**6 random finite float32 bit patterns, with subnormals and
        the extremes among them, read back bit-equal through the loader and
        through json.loads."""
        maps = self._maps(_float32_values(9, 2 ** 20), (16, 16))
        want = np.stack([m.tokens for m in maps])
        assert want.size >= 10 ** 6
        assert np.isin([_F32_MAX, -_F32_MAX, np.float32(1e-45)], want).all()
        save_token_maps(maps, tmp_path / "t.jsonl")
        loaded = np.stack([m.tokens for m in load_token_maps(tmp_path / "t.jsonl")])
        assert np.array_equal(_bits(loaded), _bits(want))
        with open(tmp_path / "t.jsonl", encoding="utf-8") as fh:
            by_json = np.array([json.loads(line)["tokens"] for line in fh], dtype=np.float32)
        assert np.array_equal(_bits(by_json), _bits(want))

    def test_non_contiguous_blocks_round_trip(self, tmp_path):
        """Transposed views are written in their own C order."""
        values = _float32_values(10, 1200)
        block = values[:1200].reshape(40, 30)
        eset = EmbeddingSet.from_columns("enc", 40, [f"img{i}" for i in range(30)],
                                         ["inst"] * 30, ["pet"] * 30, block.T)
        tokens = block.reshape(8, 5, 30).transpose(0, 2, 1)  # (8, 30, 5) views
        maps = [TokenFeatureMap(f"img{i}", t) for i, t in enumerate(tokens)]
        assert not (eset.matrix().flags.c_contiguous or maps[0].tokens.flags.c_contiguous)
        save_embedding_set(eset, tmp_path / "e.jsonl")
        save_token_maps(maps, tmp_path / "t.jsonl")
        loaded = load_embedding_set(tmp_path / "e.jsonl")
        assert np.array_equal(_bits(loaded.matrix()), _bits(block.T))
        loaded_maps = load_token_maps(tmp_path / "t.jsonl")
        assert np.array_equal(_bits([m.tokens for m in loaded_maps]), _bits(tokens))

    def test_float64_repr_files_load_bit_equal(self, tmp_path):
        """A file in the float64-repr spelling of earlier versions loads to the
        same arrays as the new file."""
        values = _float32_values(8, 2000)
        eset, maps = self._set(values, 8), self._maps(values, (4, 4))
        save_embedding_set(eset, tmp_path / "new_e.jsonl")
        save_token_maps(maps, tmp_path / "new_t.jsonl")
        with open(tmp_path / "old_e.jsonl", "w", encoding="utf-8") as fh:
            for rec in eset.records:
                fh.write(json.dumps({
                    "image_id": rec.image_id, "instance_id": rec.instance_id,
                    "category": rec.category, "vector": [float(x) for x in rec.vector],
                }) + "\n")
        with open(tmp_path / "old_t.jsonl", "w", encoding="utf-8") as fh:
            for tmap in maps:
                fh.write(json.dumps({
                    "image_id": tmap.image_id,
                    "tokens": [[float(x) for x in row] for row in tmap.tokens],
                }) + "\n")
        assert (tmp_path / "old_e.jsonl").stat().st_size > (tmp_path / "new_e.jsonl").stat().st_size
        old, new = (load_embedding_set(tmp_path / f"{n}_e.jsonl") for n in ("old", "new"))
        assert old.image_ids == new.image_ids
        assert np.array_equal(_bits(old.matrix()), _bits(new.matrix()))
        old, new = (load_token_maps(tmp_path / f"{n}_t.jsonl") for n in ("old", "new"))
        assert [m.image_id for m in old] == [m.image_id for m in new]
        for a, b in zip(old, new):
            assert np.array_equal(_bits(a.tokens), _bits(b.tokens))

    @pytest.mark.parametrize("fmt", ["jsonl", "bin"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_component_rejected(self, tmp_path, fmt, value):
        block = np.ones((70, 3), dtype=np.float32)
        block[66, 1] = value
        eset = EmbeddingSet.from_columns("enc", 3, [f"img{i}" for i in range(70)],
                                         ["inst"] * 70, ["pet"] * 70, block)
        with pytest.raises(DataValidationError, match="record 'img66' contains non-finite"):
            save_embedding_set(eset, tmp_path / "e", fmt)
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_token_map_rejected(self, tmp_path, value):
        # token_maps_of skips TokenFeatureMap's own finiteness check
        tokens = np.ones((70, 2, 3), dtype=np.float32)
        tokens[66, 1, 2] = value
        maps = embedstore.token_maps_of([f"img{i}" for i in range(70)], tokens)
        with pytest.raises(DataValidationError, match="token map 'img66' contains non-finite"):
            save_token_maps(maps, tmp_path / "t")
        assert not (tmp_path / "t").exists()


def test_magic_constant():
    assert embedstore.MAGIC == b"EMB1"


_JSON_MODULES = ("json", "orjson")


def _json_decodes(path: Path) -> list[int]:
    """The lines of ``path`` that use ``load`` or ``loads`` of ``json`` or
    ``orjson``, or import either of them from one of those modules."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module in _JSON_MODULES:
            lines += [node.lineno for alias in node.names if alias.name in ("load", "loads")]
        elif (isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
              and isinstance(node.value, ast.Name) and node.value.id in _JSON_MODULES):
            lines.append(node.lineno)
    return lines


def test_json_is_decoded_in_embedstore_only():
    """Every reader of JSON text goes through embedstore, which turns bad text
    into one set of errors; no other module of the package decodes JSON."""
    package = Path(embedstore.__file__).parent
    assert _json_decodes(package / "embedstore.py")
    elsewhere = {path.name: _json_decodes(path) for path in sorted(package.glob("*.py"))
                 if path.name != "embedstore.py"}
    assert len(elsewhere) >= 10
    assert {name: lines for name, lines in elsewhere.items() if lines} == {}


# ids that JSON writers may spell with escapes: quotes, backslashes, slashes
# and non-ASCII text, which ensure_ascii=True writes as \uXXXX
_ID_TEXT = st.text(alphabet='ab"\\/é猫 :', min_size=1, max_size=4)
_ORACLE = settings(derandomize=True, database=None, deadline=None, max_examples=60,
                   suppress_health_check=[HealthCheck.function_scoped_fixture])


def _write_jsonl(path, objects, ensure_ascii, separator, reverse):
    """JSONL in one of several spellings: ASCII or UTF-8 text, any whitespace
    around ``:`` and either key order."""
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objects:
            items = list(obj.items())[::-1] if reverse else obj.items()
            fh.write(json.dumps(dict(items), ensure_ascii=ensure_ascii,
                                separators=(", ", separator)) + "\n")


@st.composite
def _files(draw):
    """Distinct image ids, the instance id of each (sometimes another
    record's image id, so that lines holding a requested id's text are
    parsed and then dropped) and a requested subset with some absent ids."""
    ids = draw(st.lists(_ID_TEXT, min_size=1, max_size=8, unique=True))
    instances = [draw(st.sampled_from(ids)) for _ in ids]
    only = draw(st.sets(st.one_of(st.sampled_from(ids), _ID_TEXT), max_size=4))
    return ids, instances, only


class TestOnlyAgainstFullLoad:
    """A load with ``only`` equals a full load followed by filtering."""

    @_ORACLE
    @given(files=_files(), ensure_ascii=st.booleans(),
           separator=st.sampled_from([":", ": ", " : ", "\t:  "]), reverse=st.booleans())
    def test_embedding_set_jsonl(self, tmp_path, files, ensure_ascii, separator, reverse):
        ids, instances, only = files
        rng = np.random.default_rng(len(ids))
        path = tmp_path / "emb.jsonl"
        _write_jsonl(path, [
            {"image_id": i, "instance_id": inst, "category": "pet",
             "vector": rng.standard_normal(3).astype(np.float32).astype(float).tolist()}
            for i, inst in zip(ids, instances)
        ], ensure_ascii, separator, reverse)
        self._assert_sets_equal(path, "jsonl", only)

    @_ORACLE
    @given(files=_files())
    def test_embedding_set_bin(self, tmp_path, files):
        ids, instances, only = files
        rng = np.random.default_rng(len(ids))
        records = [EmbeddingRecord(i, inst, "pet", rng.standard_normal(3).astype(np.float32))
                   for i, inst in zip(ids, instances)]
        path = tmp_path / "emb.bin"
        save_embedding_set(EmbeddingSet.from_records("emb", records), path, "bin")
        self._assert_sets_equal(path, "bin", only)

    @_ORACLE
    @given(files=_files(), ensure_ascii=st.booleans(),
           separator=st.sampled_from([":", ": ", " : ", "\t:  "]), reverse=st.booleans())
    def test_token_maps(self, tmp_path, files, ensure_ascii, separator, reverse):
        ids, _, only = files
        rng = np.random.default_rng(len(ids))
        path = tmp_path / "tokens.jsonl"
        _write_jsonl(path, [
            {"image_id": i,
             "tokens": rng.standard_normal((2, 3)).astype(np.float32).astype(float).tolist()}
            for i in ids
        ], ensure_ascii, separator, reverse)
        want = [m for m in load_token_maps(path) if m.image_id in only]
        got = load_token_maps(path, only=only)
        assert [m.image_id for m in got] == [m.image_id for m in want]
        for g, w in zip(got, want):
            assert g.tokens.tobytes() == w.tokens.tobytes()

    @staticmethod
    def _assert_sets_equal(path, fmt, only):
        full = load_embedding_set(path, fmt)
        want = [r for r in full.records if r.image_id in only]
        got = load_embedding_set(path, fmt, only=only)
        assert got.encoder_name == full.encoder_name
        assert got.dimension == (full.dimension if want else 0)
        assert [(r.image_id, r.instance_id, r.category) for r in got.records] == [
            (r.image_id, r.instance_id, r.category) for r in want
        ]
        for g, w in zip(got.records, want):
            assert g.vector.tobytes() == w.vector.tobytes()
        assert got.instance_index == {
            inst: [i for i in ids if i in only] for inst, ids in full.instance_index.items()
            if any(i in only for i in ids)
        }


class TestOnlyValidation:
    def _lines(self):
        return [
            {"image_id": "a", "instance_id": "i", "category": "c", "vector": [1.0, 2.0]},
            {"image_id": "b", "instance_id": "i", "category": "c", "vector": [3.0, 4.0]},
        ]

    def test_skipped_line_is_not_validated(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text("not json\n" + "".join(json.dumps(o) + "\n" for o in self._lines()))
        assert load_embedding_set(path, only={"b"}).image_ids == ["b"]
        with pytest.raises(DataValidationError, match="line 1"):
            load_embedding_set(path)

    def test_parsed_line_is_validated(self, tmp_path):
        # the line of "b" names "a" too; in a key order other than the
        # writers' it is parsed, and its bad vector found
        lines = self._lines()
        lines[1].update(category="a", vector=[1.0])
        path = tmp_path / "emb.jsonl"
        reordered = [lines[0], dict(reversed(lines[1].items()))]
        path.write_text("".join(json.dumps(o) + "\n" for o in reordered))
        with pytest.raises(DataValidationError, match="line 2: dimension 1 != 2"):
            load_embedding_set(path, only={"a"})
        # in the writers' order it starts with its own id, "b", and is skipped
        path.write_text("".join(json.dumps(o) + "\n" for o in lines))
        assert load_embedding_set(path, only={"a"}).image_ids == ["a"]

    def test_selected_duplicate_rejected(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        lines = self._lines() + [self._lines()[1]]
        path.write_text("".join(json.dumps(o) + "\n" for o in lines))
        assert load_embedding_set(path, only={"a"}).image_ids == ["a"]
        with pytest.raises(DataValidationError, match="duplicate image_id 'b'"):
            load_embedding_set(path, only={"b"})

    @pytest.mark.parametrize("fmt", ["jsonl", "bin"])
    def test_empty_selection_is_an_empty_set(self, sample_set, tmp_path, fmt):
        path = tmp_path / "emb"
        save_embedding_set(sample_set, path, fmt)
        eset = load_embedding_set(path, fmt, only={"nope"})
        assert eset.records == [] and eset.instance_index == {}

    def test_empty_token_map_selection(self, tmp_path):
        path = tmp_path / "tokens.jsonl"
        save_token_maps([TokenFeatureMap("a", np.ones((2, 2)))], path)
        assert load_token_maps(path, only={"nope"}) == []

    def test_bin_skips_unselected_vectors(self, sample_set, tmp_path):
        # a NaN in an unselected record is not decoded; the truncation and
        # trailing-byte checks still walk every record
        path = tmp_path / "emb.bin"
        save_embedding_set(sample_set, path, "bin")
        blob = path.read_bytes()
        path.write_bytes(blob[:-4] + np.float32("nan").tobytes())
        assert load_embedding_set(path, "bin", only={"img000"}).image_ids == ["img000"]
        with pytest.raises(DataValidationError, match="non-finite"):
            load_embedding_set(path, "bin", only={"img009"})
        path.write_bytes(blob + b"\x00")
        with pytest.raises(DataValidationError, match="trailing"):
            load_embedding_set(path, "bin", only={"img000"})
        path.write_bytes(blob[:-1])
        with pytest.raises(DataValidationError, match="truncated"):
            load_embedding_set(path, "bin", only={"img000"})

    @pytest.mark.parametrize("line", [
        '{"image_id": ["x"], "instance_id": "i", "category": "c", "vector": [1.0]}',
        '{"image_id": "x", "instance_id": {"i": 1}, "category": "c", "vector": [1.0]}',
    ])
    def test_non_string_ids_rejected(self, tmp_path, line):
        path = tmp_path / "emb.jsonl"
        path.write_text(line + "\n")
        for only in (None, {"x"}):
            with pytest.raises(DataValidationError, match="must be strings"):
                load_embedding_set(path, only=only)
        path.write_text('{"image_id": {"x": 1}, "tokens": [[1.0]]}\n')
        for only in (None, {"x"}):
            with pytest.raises(DataValidationError, match="must be a string"):
                load_token_maps(path, only=only)


# ---------------------------------------------------------------------------
# The column loader against the per-line loader it replaced. The reference
# below is that loader, kept verbatim apart from its names: it parsed each
# line with json.loads, converted its vector with _numbers and built an
# EmbeddingRecord, then checked the dimension against the first record's, and
# the set checked duplicate image ids once every line was read.

_REF_NUMBER_TYPES = frozenset((float, int))


def _reference_numbers(values, field):
    rows = values if type(values) is list and values and type(values[0]) is list else (values,)
    for row in rows:
        if type(row) is not list or not _REF_NUMBER_TYPES.issuperset(map(type, row)):
            raise ValueError(f"{field} components must be numbers")
    return np.asarray(values, dtype=np.float32)


def _reference_load(path, only=None):
    records = []
    first_dim = None
    for lineno, line in embedstore._record_lines(path, only):
        try:
            obj = json.loads(line)
            rec = EmbeddingRecord(
                image_id=obj["image_id"],
                instance_id=obj["instance_id"],
                category=obj["category"],
                vector=_reference_numbers(obj["vector"], "vector"),
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
    if not records and only is None:
        raise DataValidationError(f"{path}: empty embedding file")
    seen = set()
    for rec in records:
        if rec.image_id in seen:
            raise DataValidationError(f"duplicate image_id {rec.image_id!r}")
        seen.add(rec.image_id)
    return records


def _outcome(load, path, only=None):
    """What a load gives: every record's ids and vector bytes, or the
    exception's type and message."""
    try:
        with np.errstate(over="ignore"):  # the reference warned on a float32 overflow
            result = load(path, only)
    except Exception as exc:  # noqa: BLE001 - the exception itself is compared
        return type(exc), str(exc)
    if isinstance(result, EmbeddingSet):
        result = result.records
    return [(r.image_id, r.instance_id, r.category, r.vector.dtype, r.vector.tobytes())
            for r in result]


def _new_load(path, only):
    return load_embedding_set(path, only=only)


def _assert_same_as_reference(path, only=None):
    want = _outcome(_reference_load, path, only)
    assert _outcome(_new_load, path, only) == want
    return want


def _valid_objects(rng, n, dim, ids=None):
    """``n`` records of dimension ``dim``: float64 components (rounded to
    float32 on load) and now and then an integer one."""
    objects = []
    for i in range(n):
        vector = rng.standard_normal(dim).tolist()
        if i % 7 == 3:
            vector[i % dim] = int(rng.integers(-5, 6))
        objects.append({"image_id": ids[i] if ids else f"img{i:04d}",
                        "instance_id": f"inst{i % 5}", "category": "pet", "vector": vector})
    return objects


def _damage(mutate):
    def apply(objects, at):
        mutate(objects, at)
        return None
    return apply


def _set(field, value):
    return _damage(lambda objects, at: objects[at].__setitem__(field, value))


def _vector_damage(edit):
    """A damage that edits the vector of record ``at``, if it still has one."""
    def mutate(objects, at):
        vector = objects[at].get("vector")
        if type(vector) is list and vector:
            edit(vector)
    return _damage(mutate)


def _set_component(value, index=0):
    return _vector_damage(lambda vector: vector.__setitem__(min(index, len(vector) - 1), value))


def _drop(field):
    return _damage(lambda objects, at: objects[at].pop(field, None))


# each damage edits record ``at`` in place, or returns the text of its line
_DAMAGE = {
    "decode": lambda objects, at: json.dumps(objects[at])[:-7],
    "not_object": lambda objects, at: json.dumps(objects[at].get("vector")),
    "missing_image_id": _drop("image_id"),
    "missing_instance_id": _drop("instance_id"),
    "missing_category": _drop("category"),
    "missing_vector": _drop("vector"),
    "component_string": _set_component("0.5", 1),
    "component_bool": _set_component(True, -1),
    "component_null": _set_component(None),
    "component_list": _set_component([0.5], 1),
    "vector_not_list": _set("vector", 5),
    "vector_string": _set("vector", "0.5"),
    "nested_ragged": _set("vector", [[1.0, 2.0], [3.0]]),
    "nested_matrix": _set("vector", [[1.0, 2.0], [3.0, 4.0]]),
    "empty_vector": _set("vector", []),
    "id_not_string": _set("image_id", 7),
    "instance_not_string": _set("instance_id", None),
    "category_not_string": _set("category", ["c"]),
    "empty_instance": _set("instance_id", ""),
    "nan": _set_component(float("nan"), -1),
    "inf": _set_component(float("-inf"), 2),
    "beyond_float32": _set_component(1e39),
    "dimension": _vector_damage(lambda vector: vector.append(0.5)),
    "duplicate": _damage(lambda objects, at: objects[at].__setitem__(
        "image_id", objects[at - 1]["image_id"] if at else objects[1 % len(objects)]["image_id"])),
}


class TestColumnLoaderAgainstReference:
    """The column loader gives the per-line loader's records bit for bit, and
    the same exception and message for a damaged file."""

    @_ORACLE
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 3 * embedstore._CHUNK + 5),
           dim=st.sampled_from([1, 3, 16, 64]), escaped=st.booleans(),
           blank=st.sets(st.integers(0, 400), max_size=6), ensure_ascii=st.booleans(),
           subset=st.one_of(st.none(), st.integers(0, 3)))
    def test_valid_files(self, tmp_path, seed, n, dim, escaped, blank, ensure_ascii, subset):
        rng = np.random.default_rng(seed)
        ids = [f'i{i}"\\/é猫' if escaped and i % 3 == 0 else f"img{i}" for i in range(n)]
        lines = [json.dumps(obj, ensure_ascii=ensure_ascii)
                 for obj in _valid_objects(rng, n, dim, ids)]
        for at in sorted(blank, reverse=True):
            lines.insert(min(at, len(lines)), "  ")
        path = tmp_path / "emb.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        only = None if subset is None else {i for i in ids[subset::4]} | {"absent"}
        records = _assert_same_as_reference(path, only)
        assert len(records) == (n if only is None else len(ids[subset::4]))
        eset = load_embedding_set(path, only=only)
        assert eset.dimension == (dim if records else 0)
        assert eset.matrix().tobytes() == b"".join(r[4] for r in records)

    @_ORACLE
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 2 * embedstore._CHUNK + 20),
           damages=st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(sorted(_DAMAGE))),
                            min_size=1, max_size=3),
           only=st.booleans())
    def test_damaged_files(self, tmp_path, seed, n, damages, only):
        rng = np.random.default_rng(seed)
        objects = _valid_objects(rng, n, 3)
        texts = {}
        for at, kind in damages:
            text = _DAMAGE[kind](objects, at % n)
            if text is not None:
                texts[at % n] = text
        lines = [texts.get(i) or json.dumps(obj) for i, obj in enumerate(objects)]
        path = tmp_path / "emb.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        _assert_same_as_reference(path, {"img0000", f"img{n - 1:04d}"} if only else None)

    @pytest.mark.parametrize("faults", [
        # one kind alone, in the first and in a later chunk
        *([(at, kind)] for kind in sorted(_DAMAGE) for at in (0, 5, embedstore._CHUNK + 9)),
        # two kinds in one chunk, either one first
        [(4, "id_not_string"), (9, "decode")],
        [(4, "decode"), (9, "id_not_string")],
        [(3, "nan"), (8, "component_string")],
        [(3, "dimension"), (8, "empty_instance")],
        [(2, "duplicate"), (6, "decode")],
        # two kinds on one line, ranked as the per-line checks ran
        [(5, "nan"), (5, "empty_instance")],
        [(5, "dimension"), (5, "nan")],
        [(5, "component_string"), (5, "id_not_string")],
        [(5, "empty_vector"), (5, "empty_instance")],
        [(5, "nested_ragged"), (5, "category_not_string")],
        # across chunks: the earlier line wins, and duplicates are found last
        [(embedstore._CHUNK + 3, "decode"), (10, "dimension")],
        [(3, "duplicate"), (2 * embedstore._CHUNK + 1, "decode")],
        [(embedstore._CHUNK - 1, "inf"), (embedstore._CHUNK, "missing_vector")],
    ])
    def test_fault_order(self, tmp_path, faults):
        objects = _valid_objects(np.random.default_rng(3), 2 * embedstore._CHUNK + 10, 4)
        texts = {at: _DAMAGE[kind](objects, at) for at, kind in faults}
        path = tmp_path / "emb.jsonl"
        path.write_text("".join((texts.get(i) or json.dumps(o)) + "\n"
                                for i, o in enumerate(objects)))
        outcome = _assert_same_as_reference(path)
        assert outcome[0] is DataValidationError

    def test_beyond_float32_is_non_finite_without_warning(self, tmp_path):
        objects = _valid_objects(np.random.default_rng(4), 3, 4)
        objects[1]["vector"][2] = 1e39
        path = tmp_path / "emb.jsonl"
        path.write_text("".join(json.dumps(o) + "\n" for o in objects))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataValidationError, match="'img0001' contains non-finite"):
                load_embedding_set(path)

    @pytest.mark.parametrize("target", ["vector", "tokens"])
    def test_integer_beyond_float64_is_malformed(self, tmp_path, target):
        path = tmp_path / "x.jsonl"
        huge = 10 ** 400
        if target == "vector":
            objects = _valid_objects(np.random.default_rng(5), 3, 4)
            objects[2]["vector"][0] = huge
            load = load_embedding_set
        else:
            objects = [{"image_id": f"m{i}", "tokens": [[1.0, 2.0], [3.0, 4.0]]} for i in range(3)]
            objects[2]["tokens"][1][0] = huge
            load = load_token_maps
        path.write_text("".join(json.dumps(o) + "\n" for o in objects))
        with pytest.raises(DataValidationError,
                           match=f"line 3: malformed .*: {target} component out of range"):
            load(path)


# The token-map loader as it was before it loaded by chunk: it parsed each
# line with json.loads, converted its tokens with _numbers and built a
# TokenFeatureMap, then checked the shape against the first parsed line's
# and the image id against those seen before.

def _reference_tokens(values):
    try:
        return _reference_numbers(values, "tokens")
    except OverflowError as exc:
        raise ValueError(f"tokens component out of range: {exc}") from exc


def _reference_token_maps(path, only=None):
    maps, seen, shape = [], set(), None
    for lineno, line in embedstore._record_lines(path, only):
        try:
            obj = json.loads(line)
            tokens = _reference_tokens(obj["tokens"])
            tmap = TokenFeatureMap(obj["image_id"], tokens)
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
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


def _token_outcome(load, path, only=None):
    """What a token-map load gives: every map's id, dtype, shape and bytes,
    or the exception's type and message."""
    try:
        with np.errstate(over="ignore"):
            maps = load(path, only)
    except Exception as exc:  # noqa: BLE001 - the exception itself is compared
        return type(exc), str(exc)
    return [(m.image_id, m.tokens.dtype, m.tokens.shape, m.tokens.tobytes()) for m in maps]


def _assert_tokens_as_reference(path, only=None):
    want = _token_outcome(_reference_token_maps, path, only)
    assert _token_outcome(load_token_maps, path, only) == want
    return want


def _valid_token_objects(rng, n, shape):
    objects = []
    for i in range(n):
        tokens = rng.standard_normal(shape).tolist()
        if i % 5 == 2:
            tokens[i % shape[0]][i % shape[1]] = int(rng.integers(-5, 6))
        objects.append({"image_id": f"map{i:04d}", "tokens": tokens})
    return objects


def _token_damage(mutate):
    """A damage that edits the tokens of map ``at``, if it still has a
    matrix of them."""
    def apply(objects, at):
        tokens = objects[at].get("tokens")
        if type(tokens) is list and tokens and all(type(r) is list and r for r in tokens):
            mutate(tokens)
    return _damage(apply)


def _set_token(value, row=0, col=0):
    return _token_damage(lambda tokens: tokens[min(row, len(tokens) - 1)].__setitem__(
        min(col, len(tokens[0]) - 1), value))


# each damage edits map ``at`` in place, or returns the text of its line
_TOKEN_DAMAGE = {
    "decode": lambda objects, at: json.dumps(objects[at])[:-5],
    "trailing_data": lambda objects, at: json.dumps(objects[at]) + " x",
    "not_object": lambda objects, at: json.dumps(objects[at].get("tokens")),
    "bare_number": lambda objects, at: "17",
    "missing_image_id": _drop("image_id"),
    "missing_tokens": _drop("tokens"),
    "id_not_string": _set("image_id", 7),
    "tokens_not_list": _set("tokens", 5),
    "tokens_string": _set("tokens", "0.5"),
    "tokens_empty": _set("tokens", []),
    "tokens_empty_row": _set("tokens", [[]]),
    "tokens_flat": _set("tokens", [1.0, 2.0]),
    "tokens_cube": _set("tokens", [[[1.0]]]),
    "component_string": _set_token("0.5", 1, 1),
    "component_bool": _set_token(True, -1, -1),
    "component_null": _set_token(None),
    "component_list": _set_token([0.5], 0, 1),
    "ragged": _token_damage(lambda tokens: tokens[-1].pop()),
    "extra_row": _token_damage(lambda tokens: tokens.append(list(tokens[0]))),
    "wider": _token_damage(lambda tokens: tokens.__setitem__(
        slice(None), [row + [0.5] for row in tokens])),
    "nan": _set_token(float("nan"), 1, 0),
    "inf": _set_token(float("-inf"), 0, 1),
    "beyond_float32": _set_token(1e39),
    "beyond_float64": _set_token(10 ** 400, 1, 1),
    "duplicate": _damage(lambda objects, at: objects[at].__setitem__(
        "image_id", objects[at - 1]["image_id"] if at else objects[1 % len(objects)]["image_id"])),
}


class TestTokenMapsAgainstReference:
    """The chunk loader gives the per-line loader's maps bit for bit, and the
    same exception and message for a damaged file."""

    @_ORACLE
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 2 * embedstore._CHUNK + 9),
           shape=st.sampled_from([(1, 1), (2, 3), (3, 2), (16, 4)]),
           blank=st.sets(st.integers(0, 200), max_size=4), subset=st.none() | st.integers(0, 3))
    def test_valid_files(self, tmp_path, seed, n, shape, blank, subset):
        objects = _valid_token_objects(np.random.default_rng(seed), n, shape)
        lines = [json.dumps(o) for o in objects]
        for at in sorted(blank, reverse=True):
            lines.insert(at % (n + 1), " \t")
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        ids = [o["image_id"] for o in objects]
        only = None if subset is None else set(ids[subset::3]) | {"absent"}
        maps = _assert_tokens_as_reference(path, only)
        assert len(maps) == (n if only is None else len(ids[subset::3]))
        loaded = load_token_maps(path, only)
        assert all(m.tokens.dtype == np.float32 and m.tokens.flags.c_contiguous
                   for m in loaded)

    @_ORACLE
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 2 * embedstore._CHUNK + 9),
           damages=st.lists(st.tuples(st.integers(0, 10**6),
                                      st.sampled_from(sorted(_TOKEN_DAMAGE))),
                            min_size=1, max_size=3),
           only=st.booleans())
    def test_damaged_files(self, tmp_path, seed, n, damages, only):
        objects = _valid_token_objects(np.random.default_rng(seed), n, (2, 3))
        texts = {}
        for at, kind in damages:
            text = _TOKEN_DAMAGE[kind](objects, at % n)
            if text is not None:
                texts[at % n] = text
        lines = [texts.get(i) or json.dumps(o) for i, o in enumerate(objects)]
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        _assert_tokens_as_reference(path, {"map0000", f"map{n - 1:04d}"} if only else None)

    @pytest.mark.parametrize("faults", [
        # one kind alone, on the first line, early and in a later chunk
        *([(at, kind)] for kind in sorted(_TOKEN_DAMAGE) for at in (0, 5, embedstore._CHUNK + 9)),
        # two kinds in one chunk, either one first
        [(4, "id_not_string"), (9, "decode")],
        [(4, "decode"), (9, "id_not_string")],
        [(3, "nan"), (8, "component_string")],
        [(3, "wider"), (8, "missing_image_id")],
        [(2, "duplicate"), (6, "decode")],
        [(2, "duplicate"), (6, "extra_row")],
        # two kinds on one line, ranked as the per-line checks ran
        [(5, "nan"), (5, "missing_image_id")],
        [(5, "component_string"), (5, "missing_image_id")],
        [(5, "component_string"), (5, "id_not_string")],
        [(5, "wider"), (5, "nan")],
        [(5, "tokens_empty"), (5, "id_not_string")],
        # the first line sets the shape, even when a later chunk disagrees
        [(0, "extra_row"), (embedstore._CHUNK + 2, "nan")],
        # across chunks: the earlier line wins
        [(embedstore._CHUNK + 3, "decode"), (10, "wider")],
        [(3, "duplicate"), (2 * embedstore._CHUNK + 1, "decode")],
        [(embedstore._CHUNK - 1, "inf"), (embedstore._CHUNK, "missing_tokens")],
    ])
    def test_fault_order(self, tmp_path, faults):
        objects = _valid_token_objects(np.random.default_rng(3), 2 * embedstore._CHUNK + 10,
                                       (3, 2))
        texts = {}
        for at, kind in faults:
            texts[at] = _TOKEN_DAMAGE[kind](objects, at) or texts.get(at)
        path = tmp_path / "t.jsonl"
        path.write_text("".join((texts.get(i) or json.dumps(o)) + "\n"
                                for i, o in enumerate(objects)))
        outcome = _assert_tokens_as_reference(path)
        assert outcome[0] is DataValidationError

    def test_only_selects_after_checking_the_parsed_lines(self, tmp_path):
        objects = _valid_token_objects(np.random.default_rng(5), 4, (2, 2))
        objects[2]["tokens"].append([1.0, 2.0])
        path = tmp_path / "t.jsonl"
        path.write_text("".join(json.dumps(o) + "\n" for o in objects))
        # map0002 holds the text of no requested id, so it is not parsed
        assert [m.image_id for m in load_token_maps(path, {"map0003"})] == ["map0003"]
        with pytest.raises(DataValidationError,
                           match=r"line 4: token map shape \(2, 2\) != \(3, 2\)"):
            load_token_maps(path, {"map0002", "map0003"})


# orjson decodes every JSONL line first and json's value decides where they
# may differ. Each reader is checked against itself with every line left to
# json, that is, decoded by json.loads alone as before orjson, on lines that
# hold what the two decoders read differently or might: integers beyond 64
# bits, decimal strings of up to 25 digits, NaN, Infinity, 1e400, more
# digits than int() converts, repeated keys, lone and paired surrogate
# escapes, and nesting at orjson's limit, one below and one above it.

def _left_to_json(text):
    raise ValueError("left to json")


def _as_with_json_alone(monkeypatch, outcome, load, path):
    """Assert that ``outcome(load, path)`` is what it is when json.loads
    decodes every line."""
    got = outcome(load, path)
    with monkeypatch.context() as patch:
        patch.setattr(embedstore, "_orjson_value", _left_to_json)
        assert got == outcome(load, path)


def _repr_outcome(load, path):
    """The repr of what ``load(path)`` gives (it tells 1 from 1.0, -0.0 from
    0.0 and shows NaN), or the exception's type and message."""
    try:
        return repr(load(path))
    except Exception as exc:  # noqa: BLE001 - the exception itself is compared
        return type(exc), str(exc)


@st.composite
def _decimal_text(draw, max_exponent=345):
    digits = st.text(alphabet="0123456789", min_size=1, max_size=25)
    text = draw(st.sampled_from(["", "-"])) + (draw(digits).lstrip("0") or "0")
    if draw(st.booleans()):
        text += "." + draw(digits)
    if draw(st.booleans()):
        text += (draw(st.sampled_from("eE")) + draw(st.sampled_from(["", "+", "-"]))
                 + str(draw(st.integers(0, max_exponent))))
    return text


_BIG_INTEGER_TEXT = st.one_of(
    st.sampled_from([2**63 - 1, 2**63, 2**64 - 1, 2**64, -2**63, -2**63 - 1, 10**30, 10**400]),
    st.integers(2**64, 2**70), st.integers(-2**70, -2**63 - 1), st.integers(),
).map(str)
_NUMBER_TEXT = st.one_of(
    _BIG_INTEGER_TEXT, _decimal_text(), st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "-0", "1" * 4301]),
)
_COMPONENT_TEXT = st.one_of(_decimal_text(38), _NUMBER_TEXT)
_STRING_TEXT = st.sampled_from(['"\\ud800"', '"a\\udfff"', '"\\ud83d\\ude00"', '"\\ude00\\ud83d"',
                                '"\\u00e9\\""', '"猫"'])
_VALUE_TEXT = st.one_of(_NUMBER_TEXT, _STRING_TEXT,
                        st.sampled_from(["true", "false", "null", "[]", "{}"]))


def _object_text(fields) -> str:
    return "{" + ", ".join(f"{json.dumps(key)}: {value}" for key, value in fields) + "}"


@st.composite
def _odd_line(draw, fields: dict) -> str:
    """An object with ``fields`` (name: strategy of a valid value's text),
    up to two of them holding another value's text instead, maybe one field
    twice, and maybe padded past 512 characters with an extra field nested
    so that the line holds one fewer, exactly as many or one more ``[`` and
    ``{`` than orjson may read."""
    odd = draw(st.sets(st.sampled_from(list(fields)), max_size=2))
    items = [(name, draw(_VALUE_TEXT if name in odd else valid))
             for name, valid in fields.items()]
    if draw(st.booleans()):
        name = draw(st.sampled_from(list(fields)))
        items.insert(draw(st.integers(0, len(items))), (name, draw(_VALUE_TEXT)))
    delta = draw(st.sampled_from([None, -1, 0, 1]))
    if delta is not None:
        items.append(("pad", json.dumps("x" * embedstore._LONG_LINE)))
        text = _object_text(items)
        depth = embedstore._MAX_OPEN + delta - text.count("[") - text.count("{")
        if depth > 0:
            items.append(("deep", "[" * depth + "]" * depth))
    return _object_text(items)


def _list_text(strategy, size):
    return st.lists(strategy, min_size=size, max_size=size).map(lambda xs: f"[{', '.join(xs)}]")


_RECORD_FIELDS = {"image_id": st.just('"odd"'), "instance_id": st.just('"inst0"'),
                  "category": st.just('"pet"'), "vector": _list_text(_COMPONENT_TEXT, 3)}
_MAP_FIELDS = {"image_id": st.just('"odd"'),
               "tokens": _list_text(_list_text(_COMPONENT_TEXT, 2), 2)}
_TASK_FIELDS = {
    "task_id": st.just('"odd"'), "category": st.just('"pet"'), "query_id": st.just('"q"'),
    "gallery_ids": st.just('["a", "b", "c"]'), "answer_index": st.just("1"),
    "tau": st.one_of(_decimal_text(), _BIG_INTEGER_TEXT), "relaxed": st.just("false"),
    "seed": _BIG_INTEGER_TEXT,
}
_PREDICTION_FIELDS = {"task_id": st.just('"odd"'),
                      "response": st.one_of(st.just('"Image 2"'), _BIG_INTEGER_TEXT)}


@st.composite
def _odd_file(draw, fields: dict, valid_line) -> list[str]:
    """The lines of a file of valid lines (``valid_line(i)``), up to three of
    them replaced by an ``_odd_line`` of ``fields``, in one chunk or two."""
    lines = [valid_line(i) for i in range(draw(st.integers(1, embedstore._CHUNK + 6)))]
    for _ in range(draw(st.integers(1, 3))):
        lines[draw(st.integers(0, len(lines) - 1))] = draw(_odd_line(fields))
    return lines


def _write_lines(tmp_path, lines):
    path = tmp_path / "odd.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


_DIFFERENTIAL = settings(derandomize=True, database=None, deadline=None, max_examples=150,
                         suppress_health_check=[HealthCheck.function_scoped_fixture,
                                                HealthCheck.too_slow])


class TestOrjsonAgainstJson:
    """Each JSONL reader gives what it gives when json.loads decodes every
    line, value for value, or the same exception and message."""

    @_DIFFERENTIAL
    @given(lines=_odd_file(_RECORD_FIELDS, lambda i: _object_text([
        ("image_id", f'"img{i}"'), ("instance_id", '"inst0"'), ("category", '"pet"'),
        ("vector", f"[0.5, -1.25, {i}]")])))
    def test_embedding_lines(self, tmp_path, monkeypatch, lines):
        _as_with_json_alone(monkeypatch, _outcome, _new_load, _write_lines(tmp_path, lines))

    @_DIFFERENTIAL
    @given(lines=_odd_file(_MAP_FIELDS, lambda i: _object_text([
        ("image_id", f'"map{i}"'), ("tokens", f"[[0.5, {i}], [1e-3, -2]]")])))
    def test_token_map_lines(self, tmp_path, monkeypatch, lines):
        _as_with_json_alone(monkeypatch, _token_outcome, load_token_maps,
                            _write_lines(tmp_path, lines))

    @_DIFFERENTIAL
    @given(lines=_odd_file(_TASK_FIELDS, lambda i: _object_text([
        ("task_id", f'"t{i}"'), ("category", '"pet"'), ("query_id", '"q"'),
        ("gallery_ids", '["a", "b"]'), ("answer_index", "0"), ("tau", "0.5"),
        ("relaxed", "true"), ("seed", str(i))])))
    def test_task_lines(self, tmp_path, monkeypatch, lines):
        _as_with_json_alone(monkeypatch, _repr_outcome, dataengine.load_gallery_tasks,
                            _write_lines(tmp_path, lines))

    @_DIFFERENTIAL
    @given(lines=_odd_file(_PREDICTION_FIELDS, lambda i: _object_text([
        ("task_id", f'"t{i}"'), ("response", '"Image 1"')])))
    def test_prediction_lines(self, tmp_path, monkeypatch, lines):
        _as_with_json_alone(monkeypatch, _repr_outcome,
                            lambda p: cli._load_keyed(p, cli._prediction_fields, "task_id"),
                            _write_lines(tmp_path, lines))

    @pytest.mark.parametrize("number", [2**64, -2**63 - 1, 10**30])
    def test_integer_beyond_64_bits_is_an_integer(self, tmp_path, number):
        # orjson reads it as a float, which the tau field would take
        line = _object_text([
            ("task_id", '"t"'), ("category", '"pet"'), ("query_id", '"q"'),
            ("gallery_ids", '["a", "b"]'), ("answer_index", "0"), ("tau", str(number)),
            ("relaxed", "true"), ("seed", "0")])
        (task,) = dataengine.load_gallery_tasks(_write_lines(tmp_path, [line]))
        assert type(task.tau) is int and task.tau == number

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_nesting_limit(self, delta):
        """A line past 512 characters goes to orjson only while it holds at
        most _MAX_OPEN ``[`` and ``{``, alone or among other long lines,
        ASCII or not; a shorter one always does."""
        depth = embedstore._MAX_OPEN + delta
        deep = "[" * depth + "]" * depth
        line = f'[{json.dumps("x" * embedstore._LONG_LINE)}, {deep[1:-1]}]'
        assert len(line) > embedstore._LONG_LINE
        below = f'[{json.dumps("y" * embedstore._LONG_LINE)}, {"[0], " * 250}0]'  # 251 each
        for text in (line, line.replace("x", "é", 1)):
            assert embedstore._too_deep([text]) is (delta > 0)
            assert embedstore._too_deep([below, text, below, "[" * embedstore._LONG_LINE]) is (
                delta > 0)
            if delta <= 0:
                assert embedstore._orjson_value(text) == json.loads(text)
        assert not embedstore._too_deep([below] * 64)
        short = "[" * embedstore._LONG_LINE  # cannot nest deeper than orjson reads safely
        assert not embedstore._too_deep([short])
        with pytest.raises(ValueError):  # orjson's own error: the text is not closed
            embedstore._orjson_value(short)

    def test_decode_entry_guards_before_it_decodes(self, monkeypatch):
        """``_orjson_values`` refuses a chunk with a line nested too deeply
        for orjson before any line of it reaches ``_orjson_value``."""
        decoded = []
        monkeypatch.setattr(embedstore, "_orjson_value", decoded.append)
        deep = "[" * (embedstore._MAX_OPEN + 1) + "]" * (embedstore._MAX_OPEN + 1)
        with pytest.raises(ValueError):
            embedstore._orjson_values(["[1]", deep, "[2]"])
        assert decoded == []
        list(embedstore._orjson_values(["[1]", "[2]"]))
        assert decoded == ["[1]", "[2]"]


def _assert_as_reference(load, path, only=None):
    """``load`` of ``path`` gives what its per-line reference gives; returns that."""
    if load is load_token_maps:
        return _assert_tokens_as_reference(path, only)
    return _assert_same_as_reference(path, only)


class TestSplitReads:
    """Files of several chunks, read in one pass: a fault in the first or
    the second half of a file gives the per-line reference's exception and
    message, and a valid file its values bit for bit."""

    @_ORACLE
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 3 * embedstore._CHUNK + 5),
           dim=st.sampled_from([1, 3, 16]), blank=st.sets(st.integers(0, 400), max_size=6),
           last_newline=st.booleans(),
           subset=st.sampled_from([None, "every third", "first half", "second half", "none"]))
    def test_valid_embedding_sets(self, tmp_path, seed, n, dim, blank, last_newline, subset):
        rng = np.random.default_rng(seed)
        objects = _valid_objects(rng, n, dim)
        lines = [json.dumps(obj) for obj in objects]
        for at in sorted(blank, reverse=True):
            lines.insert(min(at, len(lines)), "  ")
        path = tmp_path / "emb.jsonl"
        path.write_text("\n".join(lines) + ("\n" if last_newline else ""), encoding="utf-8")
        ids = [obj["image_id"] for obj in objects]
        only = {
            None: None, "every third": set(ids[::3]), "first half": set(ids[: n // 2]),
            "second half": set(ids[n // 2 :]), "none": {"absent"},
        }[subset]
        records = _assert_same_as_reference(path, only)
        if only is None:
            assert len(records) == n

    @_ORACLE
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 2 * embedstore._CHUNK + 9),
           shape=st.sampled_from([(1, 1), (2, 3), (16, 4)]),
           blank=st.sets(st.integers(0, 200), max_size=4), last_newline=st.booleans(),
           subset=st.sampled_from([None, "every third", "first half", "second half", "none"]))
    def test_valid_token_maps(self, tmp_path, seed, n, shape, blank, last_newline, subset):
        objects = _valid_token_objects(np.random.default_rng(seed), n, shape)
        lines = [json.dumps(o) for o in objects]
        for at in sorted(blank, reverse=True):
            lines.insert(at % (n + 1), " \t")
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join(lines) + ("\n" if last_newline else ""), encoding="utf-8")
        ids = [o["image_id"] for o in objects]
        only = {
            None: None, "every third": set(ids[::3]), "first half": set(ids[: n // 2]),
            "second half": set(ids[n // 2 :]), "none": {"absent"},
        }[subset]
        maps = _assert_tokens_as_reference(path, only)
        if only is None:
            assert len(maps) == n

    @pytest.mark.parametrize("half", ["first", "second"])
    @pytest.mark.parametrize("kind", sorted(_DAMAGE))
    def test_damaged_embedding_sets(self, tmp_path, kind, half):
        # the fault sits in the first chunk, or in the last of three
        n = 2 * embedstore._CHUNK + 10
        objects = _valid_objects(np.random.default_rng(7), n, 3)
        at = 5 if half == "first" else n - 5
        assert at // embedstore._CHUNK == (0 if half == "first" else 2)
        text = _DAMAGE[kind](objects, at)
        path = tmp_path / "emb.jsonl"
        path.write_text("".join((text if i == at and text else json.dumps(o)) + "\n"
                                for i, o in enumerate(objects)))
        assert _assert_same_as_reference(path)[0] is DataValidationError

    @pytest.mark.parametrize("half", ["first", "second"])
    @pytest.mark.parametrize("kind", sorted(_TOKEN_DAMAGE))
    def test_damaged_token_maps(self, tmp_path, kind, half):
        n = 2 * embedstore._CHUNK + 10
        objects = _valid_token_objects(np.random.default_rng(7), n, (2, 3))
        at = 5 if half == "first" else n - 5
        assert at // embedstore._CHUNK == (0 if half == "first" else 2)
        text = _TOKEN_DAMAGE[kind](objects, at)
        path = tmp_path / "t.jsonl"
        path.write_text("".join((text if i == at and text else json.dumps(o)) + "\n"
                                for i, o in enumerate(objects)))
        assert _assert_tokens_as_reference(path)[0] is DataValidationError

    @pytest.mark.parametrize("load", [_new_load, load_token_maps])
    @pytest.mark.parametrize("half", ["first", "second"])
    @pytest.mark.parametrize("damage", [
        b"\xff", b"\xc3(", b"\xed\xa0\x80",  # not UTF-8
        b"\r", b" \r ",  # a line break to a text reader, inside the line
    ])
    def test_damaged_bytes(self, tmp_path, load, half, damage):
        n = 40
        if load is load_token_maps:
            objects = _valid_token_objects(np.random.default_rng(2), n, (2, 2))
        else:
            objects = _valid_objects(np.random.default_rng(2), n, 3)
        lines = [json.dumps(o).encode() + b"\n" for o in objects]
        at = 3 if half == "first" else n - 3
        lines[at] = lines[at][:20] + damage + lines[at][20:]
        path = tmp_path / "x.jsonl"
        path.write_bytes(b"".join(lines))
        assert _assert_as_reference(load, path)[0] is DataValidationError

    @pytest.mark.parametrize("load", [_new_load, load_token_maps])
    @pytest.mark.parametrize("half", ["first", "second", "both"])
    def test_crlf_lines(self, tmp_path, load, half):
        # a text reader takes \r\n for \n: the value is the reference's
        n = 40
        if load is load_token_maps:
            objects = _valid_token_objects(np.random.default_rng(2), n, (2, 2))
        else:
            objects = _valid_objects(np.random.default_rng(2), n, 3)
        ends = {"first": range(n // 4), "second": range(3 * n // 4, n), "both": range(n)}[half]
        path = tmp_path / "x.jsonl"
        path.write_bytes(b"".join(json.dumps(o).encode() + (b"\r\n" if i in ends else b"\n")
                                  for i, o in enumerate(objects)))
        assert len(_assert_as_reference(load, path)) == n

    @pytest.mark.parametrize("load", [_new_load, load_token_maps])
    def test_shape_change_in_the_second_half(self, tmp_path, load):
        # each chunk is valid alone: the shape changes at the second chunk's
        # first line, so only a check across chunks finds the fault
        n = 2 * embedstore._CHUNK
        change = embedstore._CHUNK
        if load is load_token_maps:
            objects = _valid_token_objects(np.random.default_rng(3), n, (2, 2))
            for o in objects[change:]:
                o["tokens"].append([0.5, 0.5])
            message = r"token map shape \(3, 2\) != \(2, 2\)"
        else:
            objects = _valid_objects(np.random.default_rng(3), n, 3)
            for o in objects[change:]:
                o["vector"].append(0.5)
            message = "dimension 4 != 3 of first record"
        path = tmp_path / "x.jsonl"
        path.write_text("".join(json.dumps(o) + "\n" for o in objects))
        outcome = _assert_as_reference(load, path)
        assert outcome[0] is DataValidationError
        assert re.search(f"line {change + 1}: {message}", outcome[1])

    @pytest.mark.parametrize("load", [_new_load, load_token_maps])
    def test_filtered_loads_stay_serial(self, tmp_path, load):
        if load is load_token_maps:
            objects = _valid_token_objects(np.random.default_rng(5), 40, (2, 2))
        else:
            objects = _valid_objects(np.random.default_rng(5), 40, 4)
        path = tmp_path / "x.jsonl"
        path.write_text("".join(json.dumps(o) + "\n" for o in objects))
        only = {objects[0]["image_id"], objects[-1]["image_id"]}
        assert len(_assert_as_reference(load, path, only)) == 2
        assert len(_assert_as_reference(load, path)) == 40


class TestFilteredReads:
    """A load with ``only`` gives what a full load of the lines that hold a
    selected record gives, blank lines in place of the others: the same
    records, or the same exception and message."""

    @_ORACLE
    @given(seed=st.integers(0, 2**16), n=st.integers(1, embedstore._CHUNK + 9),
           kind=st.sampled_from(["embeddings", "token maps"]),
           subset=st.sampled_from(["every third", "first half", "all", "none"]),
           fault=st.sampled_from([None, "non-finite", "second image_id key", "escaped id"]),
           at=st.integers(0, 2**16))
    def test_same_as_a_full_load_of_the_selected_lines(self, tmp_path, seed, n, kind, subset,
                                                        fault, at):
        rng = np.random.default_rng(seed)
        if kind == "embeddings":
            objects, load, outcome = _valid_objects(rng, n, 3), _new_load, _outcome
        else:
            objects, load, outcome = _valid_token_objects(rng, n, (2, 3)), load_token_maps, _token_outcome
        held = [obj["image_id"] for obj in objects]  # the image id of each line's record
        only = {
            "every third": set(held[::3]), "first half": set(held[: n // 2]), "all": set(held),
            "none": {"absent"},
        }[subset]
        at %= n
        if fault == "non-finite":
            (objects[at]["vector"] if kind == "embeddings" else objects[at]["tokens"][0])[0] = math.nan
        lines = [json.dumps(obj) for obj in objects]
        if fault == "second image_id key":  # the last key wins: the line does not start with it
            lines[at] = lines[at][:-1] + ', "image_id": "late"}'
            held[at] = "late"
            only.add("late")
        elif fault == "escaped id":  # the same id, its first letter spelled as \uXXXX
            lines[at] = lines[at].replace(
                f'"image_id": "{held[at][0]}', f'"image_id": "\\u{ord(held[at][0]):04x}', 1)
        path = tmp_path / "data.jsonl"
        path.write_text("".join((line if image_id in only else "") + "\n"
                                for line, image_id in zip(lines, held)))
        want = outcome(load, path) if only.intersection(held) else []
        path.write_text("".join(line + "\n" for line in lines))
        assert outcome(load, path, only) == want


    @_ORACLE
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 30),
           kind=st.sampled_from(["embeddings", "token maps"]),
           block=st.sampled_from([1, 5, 40, 200, 1 << 16]),
           faults=st.lists(st.sampled_from(["crlf", "lone cr", "non-ASCII", "escaped id",
                                            "repeated id", "no final feed", "blank"]),
                           max_size=3),
           at=st.lists(st.integers(0, 2**16), min_size=3, max_size=3),
           picks=st.lists(st.integers(0, 2**16), min_size=1, max_size=12),
           absent=st.booleans())
    def test_bytes_search_as_the_line_filter(self, tmp_path, monkeypatch, seed, n, kind, block,
                                             faults, at, picks, absent):
        """The lines found in the bytes, in blocks of any size, are the
        lines the filter keeps when it decodes and tests every line, and
        the loads give the same records or error."""
        monkeypatch.setattr(embedstore, "_SCAN_BYTES", block)
        rng = np.random.default_rng(seed)
        if kind == "embeddings":
            objects, load, outcome = _valid_objects(rng, n, 3), _new_load, _outcome
        else:
            objects, load, outcome = _valid_token_objects(rng, n, (2, 3)), load_token_maps, _token_outcome
        held = [obj["image_id"] for obj in objects]
        only = {held[p % n] for p in picks} | ({"absent"} if absent else set())
        lines = [json.dumps(obj) for obj in objects]
        for fault, a in zip(faults, at):
            a %= len(lines)
            if fault == "crlf":
                lines[a] += "\r"
            elif fault == "lone cr":  # a line break to jsonl_lines
                lines[a] = lines[a].replace(", ", ",\r ", 1)
            elif fault == "non-ASCII":
                lines[a] = lines[a][:-1] + ', "note": "\u00e9t\u00e9"}'
            elif fault == "escaped id" and lines[a].startswith('{"image_id": "'):
                first = lines[a][14]
                lines[a] = lines[a].replace(f'"image_id": "{first}',
                                            f'"image_id": "\\u{ord(first):04x}', 1)
            elif fault == "repeated id":
                lines.insert(a, lines[a])
            elif fault == "blank":
                lines.insert(a, "  ")
        text = "".join(line + "\n" for line in lines)
        if "no final feed" in faults:
            text = text[:-1]
        path = tmp_path / "data.jsonl"
        path.write_bytes(text.encode())
        assert _filtered(path, only) == _line_filter_reference(path, only)
        want = outcome(load, path, only)
        monkeypatch.setattr(embedstore, "_record_lines",  # every line decoded and tested
                            lambda path, only, span=None: _line_filter_lines(path, only))
        assert outcome(load, path, only) == want

    @pytest.mark.parametrize("cut", range(-2, 16))
    def test_id_split_across_blocks(self, tmp_path, monkeypatch, cut):
        objects = _valid_objects(np.random.default_rng(3), 9, 3)
        path = tmp_path / "data.jsonl"
        path.write_text("".join(json.dumps(obj) + "\n" for obj in objects))
        target = objects[5]["image_id"]
        # the first block ends ``cut`` bytes into the quoted id of line 6
        monkeypatch.setattr(embedstore, "_SCAN_BYTES",
                            path.read_bytes().index(f'"{target}"'.encode()) + cut)
        assert _filtered(path, {target}) == _line_filter_reference(path, {target})
        assert [line for line, _ in _filtered(path, {target})] == [6]
        assert load_embedding_set(path, only={target}).image_ids == [target]

    @_ORACLE
    @given(at=st.integers(0, 2**20), damage=st.sampled_from([b"\xff", b"\xc3", b"\xe2\x82"]))
    def test_bytes_beyond_utf8(self, tmp_path, monkeypatch, at, damage):
        """jsonl_lines decodes 8 KiB at a time and names the line before the
        step that failed; the bytes search gives out the lines it gives
        before that, and its error."""
        monkeypatch.setattr(embedstore, "_SCAN_BYTES", 9000)
        objects = _valid_objects(np.random.default_rng(4), 400, 4)
        data = "".join(json.dumps(obj) + "\n" for obj in objects).encode()
        at %= len(data) + 1
        path = tmp_path / "data.jsonl"
        path.write_bytes(data[:at] + damage + data[at:])
        only = {objects[i]["image_id"] for i in (0, 150, 399)}
        assert _filtered(path, only) == _line_filter_reference(path, only)


def _line_filter_lines(path, only):
    """The (line number, text) of each line of jsonl_lines that the filter
    keeps when it decodes and tests every line, written out as it was before
    the bytes search."""
    wanted = set(only)
    needles = [f'"{image_id}"' for image_id in wanted]
    start = len('{"image_id": "')
    for lineno, line in embedstore.jsonl_lines(path):
        if "\\" in line or (
            line[start:line.find('"', start)] in wanted
            if line.startswith('{"image_id": "')
            and line.find('"image_id"', start, line.rfind('"') + 1) < 0
            else any(needle in line for needle in needles)
        ):
            yield lineno, line


def _line_filter_reference(path, only):
    """``_line_filter_lines``, then the type and message of the error that
    ended the read, if one did."""
    out = []
    try:
        out.extend(_line_filter_lines(path, only))
    except DataValidationError as exc:
        out.append((type(exc), str(exc)))
    return out


def _filtered(path, only):
    """What ``_record_lines`` gives out, then the error's type and message."""
    out = []
    try:
        out.extend(embedstore._record_lines(path, only))
    except DataValidationError as exc:
        out.append((type(exc), str(exc)))
    return out


def _emb1_bytes(records, dim, count=None):
    """EMB1 bytes of (image_id, instance_id, category, floats) records, with a
    record count of ``count`` when given."""
    parts = [embedstore.MAGIC, struct.pack("<II", dim, len(records) if count is None else count)]
    for *strings, floats in records:
        for s in strings:
            parts += [struct.pack("<I", len(s.encode())), s.encode()]
        parts.append(np.asarray(floats, dtype="<f4").tobytes())
    return b"".join(parts)


class TestBinaryBlockChecks:
    """EMB1 records are checked as one block, with the first faulty record's
    error, before a truncation or trailing bytes found further on."""

    @pytest.mark.parametrize("faults, count, only, expected", [
        ({1: ("i", [np.nan, 0.0])}, None, None, "record 'r1' contains non-finite"),
        ({1: ("", [np.nan, 0.0])}, None, None, "record 'r1': empty instance_id"),
        ({2: ("", [1.0, 0.0]), 1: ("i", [np.inf, 0.0])}, None, None, "'r1' contains non-finite"),
        ({1: ("i", [np.nan, 0.0])}, 5, None, "record 'r1' contains non-finite"),
        ({}, 5, None, "truncated at offset"),
        ({3: ("i", [np.nan, 0.0])}, 2, None, "trailing bytes"),
        ({1: ("i", [np.nan, 0.0])}, 5, {"r2"}, "truncated at offset"),
        ({2: ("", [1.0, 1.0])}, None, {"r2"}, "record 'r2': empty instance_id"),
    ])
    def test_first_fault_wins(self, tmp_path, faults, count, only, expected):
        records = [(f"r{i}", *faults.get(i, ("i", [1.0, float(i)]))[:1], "c",
                    faults.get(i, ("i", [1.0, float(i)]))[1]) for i in range(4)]
        path = tmp_path / "x.bin"
        path.write_bytes(_emb1_bytes(records, 2, count))
        with pytest.raises(DataValidationError, match=re.escape(expected)):
            load_embedding_set(path, "bin", only=only)

    def test_zero_dimension_rejected(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(_emb1_bytes([("r0", "i", "c", []), ("r1", "i", "c", [])], 0))
        with pytest.raises(DataValidationError, match="'r0': vector must be a non-empty"):
            load_embedding_set(path, "bin")
        assert load_embedding_set(path, "bin", only={"x"}).dimension == 0


def _decoded(decode, text):
    """What decoding ``text`` gives: the value's type and repr (which tells
    NaN, -0.0, 1 and 1.0 apart), or the exception's type and message."""
    try:
        value = decode(text)
    except Exception as exc:  # noqa: BLE001 - the exception itself is compared
        return type(exc), str(exc)
    return type(value), repr(value)


def _assert_decodes_as_loads(text):
    assert _decoded(embedstore._json_value, text) == _decoded(json.loads, text)


# json.loads skips " \t\n\r" around a value; the rest are whitespace to
# str.strip but not to JSON
_SPACES = " \t\n\r\x0b\x0c\x1c\x85\u00a0\u2028\u3000\ufeff"
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=4),
    max_leaves=12,
)
_DECODER = settings(derandomize=True, database=None, deadline=None, max_examples=200)


class TestJsonValue:
    """``_json_value`` gives what ``json.loads`` gives: an equal value, or an
    exception of the same type with the same message."""

    @_DECODER
    @given(text=st.text(alphabet=st.characters(codec="utf-8") | st.sampled_from('{}[]":,0e-.'
                                                                           + _SPACES)))
    def test_any_text(self, text):
        _assert_decodes_as_loads(text)

    @_DECODER
    @given(value=_JSON_VALUES, before=st.text(alphabet=_SPACES, max_size=3),
           after=st.text(alphabet=_SPACES, max_size=3), indent=st.none() | st.integers(0, 2),
           tail=st.sampled_from(["", "x", "{}", "0", "]", "\x00"]))
    def test_json_in_whitespace(self, value, before, after, indent, tail):
        _assert_decodes_as_loads(before + json.dumps(value, indent=indent) + after + tail)

    @pytest.mark.parametrize("text", [
        '\ufeff{"a": 1}', '\ufeff{"a": 1}\n', ' {"a": 1}', '{"a": 1}\x0b', '{"a": 1}\u00a0\n',
        '{"a": 1}\u2028', '{"a": 1} \t\r\n', '{"a": 1}{"b": 2}', '{"a": 1} x', "",
        "\n", "NaN", "Infinity", "-Infinity", '{"v": [NaN, Infinity, -Infinity, -0.0, 1e400]}',
        "nan", '{"a": 1, "a": 2}', '{"a": {"b": 1}, "a": [2]}\n', "17", "[1, 2]\n", '"s"',
        "null", "true", '"\\ud800"', '{"id": "\\ud800\\udc00\\udfff\\ud800"}', '"\\ud800',
        '{"a": 1', "[" * 100_000 + "]" * 100_000, '{"a": ' * 50_000 + "1" + "}" * 50_000,
        '{"a": "\x01"}', '{"a": 1}\n\n', "0" * 5000, "1" * 5000, "-" + "1" * 4301,
    ], ids=lambda text: ascii(text[:24]))
    def test_cases(self, text):
        _assert_decodes_as_loads(text)

    def test_values(self):
        value = embedstore._json_value('{"v": [NaN, Infinity, -Infinity], "k": 1, "k": 2}\n')
        assert math.isnan(value["v"][0]) and value["v"][1:] == [math.inf, -math.inf]
        assert value["k"] == 2
        assert embedstore._json_value('"\\ud800"') == "\ud800"
        with pytest.raises(RecursionError):
            embedstore._json_value("[" * 100_000)

    @pytest.mark.parametrize("text, kind", [("17", "int"), ("[1, 2]\n", "list"),
                                            ("null", "NoneType"), ('"x"', "str")])
    def test_non_object_line(self, tmp_path, text, kind):
        path = tmp_path / "x.jsonl"
        path.write_text(text + "\n")
        with pytest.raises(DataValidationError) as info:
            embedstore.load_jsonl(path, dict, lambda o: o["image_id"], "image_id")
        assert str(info.value) == f"{path}: line 1: expected a JSON object, got {kind}"

    def test_readers_decode_through_it(self, tmp_path, monkeypatch):
        # a JSONL line goes to orjson first, and to _json_value too where
        # orjson leaves it to json (a NaN here); a document goes to
        # _json_value alone
        calls = []
        for name in ("_orjson_value", "_json_value"):
            def counted(text, name=name, decode=getattr(embedstore, name)):
                calls.append(name)
                return decode(text)

            monkeypatch.setattr(embedstore, name, counted)
        path = tmp_path / "x.jsonl"
        record = '{"image_id": "a", "instance_id": "i", "category": "c", "vector": [1]%s}\n'
        tmap = '{"image_id": "a", "tokens": [[1.0]]%s}\n'
        readers = [(record, load_embedding_set), (tmap, load_token_maps),
                   (tmap, lambda p: embedstore.load_jsonl(p, dict, lambda o: o["image_id"],
                                                          "image_id"))]
        for extra, decoders in (("", ["_orjson_value"]),
                                (', "x": NaN', ["_orjson_value", "_json_value"])):
            for line, load in readers:
                path.write_text(line % extra)
                calls.clear()
                load(path)
                assert calls == decoders
        calls.clear()
        embedstore.parse_json_object(b'{"a": 1}', "x")
        assert calls == ["_json_value"]

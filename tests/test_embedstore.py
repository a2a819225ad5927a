import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ilrkit import embedstore
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


class TestWriterBytes:
    """The writers' bytes equal those of the per-element writers they replaced."""

    def test_embedding_set_jsonl(self, tmp_path):
        rng = np.random.default_rng(11)
        records = [
            EmbeddingRecord(f"img{i}", f"inst{i % 3}", "pet",
                            rng.permutation(_AWKWARD) * np.float32(rng.choice([1, -1])))
            for i in range(6)
        ]
        eset = EmbeddingSet.from_records("enc", records)
        save_embedding_set(eset, tmp_path / "new.jsonl")
        with open(tmp_path / "old.jsonl", "w", encoding="utf-8") as fh:
            for rec in eset.records:
                fh.write(json.dumps({
                    "image_id": rec.image_id,
                    "instance_id": rec.instance_id,
                    "category": rec.category,
                    "vector": [float(x) for x in rec.vector],
                }) + "\n")
        assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "old.jsonl").read_bytes()
        loaded = load_embedding_set(tmp_path / "new.jsonl")
        for got, want in zip(loaded.records, records):
            assert got.vector.tobytes() == want.vector.tobytes()

    def test_token_maps(self, tmp_path):
        rng = np.random.default_rng(12)
        maps = [
            TokenFeatureMap(f"img{i}", rng.permutation(np.tile(_AWKWARD, 3)).reshape(3, -1))
            for i in range(4)
        ]
        save_token_maps(maps, tmp_path / "new.jsonl")
        with open(tmp_path / "old.jsonl", "w", encoding="utf-8") as fh:
            for tmap in maps:
                fh.write(json.dumps({
                    "image_id": tmap.image_id,
                    "tokens": [[float(x) for x in row] for row in tmap.tokens],
                }) + "\n")
        assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "old.jsonl").read_bytes()
        for got, want in zip(load_token_maps(tmp_path / "new.jsonl"), maps):
            assert got.tokens.tobytes() == want.tokens.tobytes()


def test_magic_constant():
    assert embedstore.MAGIC == b"EMB1"


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
        # the line of "b" names "a" too, so it is parsed, and its bad vector found
        lines = self._lines()
        lines[1].update(category="a", vector=[1.0])
        path = tmp_path / "emb.jsonl"
        path.write_text("".join(json.dumps(o) + "\n" for o in lines))
        with pytest.raises(DataValidationError, match="line 2: dimension 1 != 2"):
            load_embedding_set(path, only={"a"})

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

import json

import numpy as np
import pytest

import reference
from ilrkit import checkpoint, synthgen
from ilrkit.embedstore import EmbeddingRecord, EmbeddingSet
from ilrkit.errors import DataValidationError, DivergenceError
from ilrkit.expert import ExpertConfig, ExpertHead, embed_set, fit_expert

# the small bundle's 40 instances span 39 between-instance directions
_SMALL_RANK = 39


def _scatters(raw_set):
    """The mean of a raw set's images, and the covariances of each image
    about its instance's mean and of each image's instance mean about
    theirs, summed instance by instance."""
    x = raw_set.matrix().astype(np.float64)
    mu = x.mean(axis=0)
    s_w, s_b = np.zeros((x.shape[1],) * 2), np.zeros((x.shape[1],) * 2)
    for image_ids in raw_set.instance_index.values():
        rows = x[[raw_set.row_of(i) for i in image_ids]] - mu
        mean = rows.mean(axis=0)
        s_w += (rows - mean).T @ (rows - mean)
        s_b += len(rows) * np.outer(mean, mean)
    return mu, s_w / len(x), s_b / len(x)


def _raw_set(vectors, instances):
    return EmbeddingSet.from_records("raw", [
        EmbeddingRecord(f"im{i}", instance, "object", vector)
        for i, (vector, instance) in enumerate(zip(vectors, instances))
    ])


class TestEmbed:
    def test_unit_norm_and_formula(self):
        rng = np.random.default_rng(21)
        head = ExpertHead(rng.standard_normal((6, 4)), rng.standard_normal(4))
        v = rng.standard_normal(6)
        raw_set = EmbeddingSet.from_columns(
            "raw", 6, ["i0"], ["n0"], ["pet"], v[None, :].astype(np.float32)
        )
        got = embed_set(head, raw_set).vector("i0")
        raw = v.astype(np.float32).astype(np.float64) @ head.w + head.b
        np.testing.assert_allclose(got, raw / np.linalg.norm(raw), atol=1e-6)
        assert np.linalg.norm(got) == pytest.approx(1.0, abs=1e-6)

    def test_embed_set_matches_embed(self, small_bundle):
        rng = np.random.default_rng(22)
        head = ExpertHead(rng.standard_normal((64, 8)), rng.standard_normal(8))
        eset = embed_set(head, small_bundle.raw_set)
        assert eset.dimension == 8
        assert eset.image_ids == small_bundle.raw_set.image_ids
        raw = small_bundle.raw_set.matrix().astype(np.float64) @ head.w + head.b
        want = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        np.testing.assert_allclose(eset.matrix(), want, atol=1e-6)

    def test_shape_mismatch_rejected(self):
        head = ExpertHead(np.ones((4, 2)), np.zeros(2))
        raw_set = EmbeddingSet.from_columns(
            "raw", 5, ["i0"], ["n0"], ["pet"], np.ones((1, 5), dtype=np.float32)
        )
        with pytest.raises(DataValidationError, match="head expects 4"):
            embed_set(head, raw_set)


class TestFitExpert:
    @pytest.mark.parametrize("d_out", [8, 64, 70])
    def test_equals_loop_reference(self, small_bundle, d_out):
        raw = small_bundle.raw_set
        got, want = fit_expert(raw, ExpertConfig(d_out)), reference.fit_expert(raw, d_out)
        # past the between-instance rank the eigenvalues are all zero, and any
        # basis of theirs is one: those columns are held through the metric
        # w w^T, which they span with the others, and through b w^T = -mu w w^T
        k = min(d_out, _SMALL_RANK)
        scale = np.abs(want.w).max()
        np.testing.assert_allclose(got.w[:, :k], want.w[:, :k], rtol=0, atol=1e-9 * scale)
        np.testing.assert_allclose(got.b[:k], want.b[:k], rtol=0, atol=1e-9 * scale)
        metric = want.w @ want.w.T
        tolerance = 1e-9 * np.abs(metric).max()
        np.testing.assert_allclose(got.w @ got.w.T, metric, rtol=0, atol=tolerance)
        np.testing.assert_allclose(got.b @ got.w.T, want.b @ want.w.T, rtol=0, atol=tolerance)

    def test_deterministic(self, small_bundle):
        a, b = fit_expert(small_bundle.raw_set), fit_expert(small_bundle.raw_set)
        assert np.array_equal(a.w, b.w) and np.array_equal(a.b, b.b)

    def test_whitened_within_scatter_is_identity(self, small_bundle, default_bundle,
                                                 default_split):
        train_side = default_bundle.raw_set.subset(default_split.train_instances)
        for raw in (small_bundle.raw_set, train_side):
            mu, s_w, _ = _scatters(raw)
            head = fit_expert(raw, ExpertConfig(raw.dimension))
            np.testing.assert_allclose(head.w.T @ s_w @ head.w, np.eye(raw.dimension),
                                       rtol=0, atol=1e-10)
            np.testing.assert_allclose(head.b, -(mu @ head.w), rtol=1e-12, atol=1e-12)

    def test_directions_fall_and_are_signed(self, small_bundle):
        raw = small_bundle.raw_set
        _, _, s_b = _scatters(raw)
        head = fit_expert(raw)
        between = head.w.T @ s_b @ head.w
        spread = np.diag(between)
        # the whitened between-instance scatter is diagonal in these
        # directions, by falling variance, and zero past its rank
        np.testing.assert_allclose(between, np.diag(spread), rtol=0, atol=1e-9 * spread[0])
        assert np.all(np.diff(spread) <= 1e-9 * spread[0])
        assert spread[_SMALL_RANK - 1] > 1e-3 * spread[0]
        assert np.all(spread[_SMALL_RANK:] < 1e-9 * spread[0])
        # each column's entry of largest magnitude is positive
        assert np.all(head.w[np.abs(head.w).argmax(axis=0), np.arange(head.w.shape[1])] > 0)

    def test_fewer_directions_are_the_leading_ones(self, small_bundle):
        raw = small_bundle.raw_set
        _, s_w, s_b = _scatters(raw)
        full, top = fit_expert(raw, ExpertConfig(64)), fit_expert(raw, ExpertConfig(8))
        scale = np.abs(full.w).max()
        np.testing.assert_allclose(top.w, full.w[:, :8], rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(top.b, full.b[:8], rtol=0, atol=1e-12 * scale)
        # they hold the most between-instance variance per within-instance variance
        ratio = np.diag(full.w.T @ s_b @ full.w) / np.diag(full.w.T @ s_w @ full.w)
        assert ratio[:8].min() >= ratio[8:].max()

    def test_more_directions_than_raw_dimensions_are_zero(self, small_bundle):
        raw = small_bundle.raw_set
        full, wide = fit_expert(raw, ExpertConfig(64)), fit_expert(raw, ExpertConfig(70))
        assert wide.w.shape == (64, 70)
        assert not wide.w[:, 64:].any() and not wide.b[64:].any()
        assert np.array_equal(wide.w[:, :64], full.w)
        np.testing.assert_allclose(wide.b[:64], full.b, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(embed_set(wide, raw).matrix()[:, :64],
                                   embed_set(full, raw).matrix(), rtol=0, atol=1e-6)


class TestTrainExpert:
    def test_training_improves_separation(self, small_bundle):
        head = fit_expert(small_bundle.raw_set, ExpertConfig(d_out=16))
        trained = synthgen.recall_at_1(embed_set(head, small_bundle.raw_set))
        assert trained >= 0.9


class TestDegenerateFits:
    """Inputs that leave a scatter singular give a finite head; those with
    nothing to fit raise DataValidationError. Never a NaN."""

    @staticmethod
    def _assert_finite_fit(raw):
        head = fit_expert(raw)
        assert np.isfinite(head.w).all() and np.isfinite(head.b).all()
        assert np.isfinite(embed_set(head, raw).matrix()).all()
        return head

    def test_identical_images_per_instance(self):
        # a zero within-instance scatter: the regulariser alone whitens
        rng = np.random.default_rng(5)
        vectors = np.repeat(rng.standard_normal((5, 8)), 3, axis=0)
        raw = _raw_set(vectors, np.repeat([f"n{k}" for k in range(5)], 3))
        head = self._assert_finite_fit(raw)
        assert synthgen.recall_at_1(embed_set(head, raw)) == 1.0

    def test_fewer_images_than_dimensions(self):
        rng = np.random.default_rng(6)
        raw = _raw_set(rng.standard_normal((6, 64)), ["a", "a", "b", "b", "c", "c"])
        self._assert_finite_fit(raw)

    def test_single_image_instance_is_fitted(self, small_bundle):
        # it adds between-instance scatter and no within-instance scatter
        records = small_bundle.raw_set.records
        raw = EmbeddingSet.from_records("raw", [
            r for r in records if r.instance_id != records[0].instance_id or r is records[0]])
        assert min(len(ids) for ids in raw.instance_index.values()) == 1
        head = self._assert_finite_fit(raw)
        want = reference.fit_expert(raw, 64)
        scale = np.abs(want.w).max()
        np.testing.assert_allclose(head.w[:, :8], want.w[:, :8], rtol=0, atol=1e-9 * scale)

    @pytest.mark.parametrize("instances", [["a"] * 4, []], ids=["one", "none"])
    def test_fewer_than_two_instances_refused(self, instances):
        rng = np.random.default_rng(7)
        raw = EmbeddingSet.from_columns("raw", 8, [f"im{i}" for i in range(len(instances))],
                                        instances, ["object"] * len(instances),
                                        rng.standard_normal((len(instances), 8)).astype(np.float32))
        with pytest.raises(DataValidationError, match="needs >= 2 training instances"):
            fit_expert(raw)

    def test_equal_images_refused(self):
        raw = _raw_set(np.ones((4, 8)), ["a", "a", "b", "b"])
        with pytest.raises(DataValidationError, match="training images that differ"):
            fit_expert(raw)


def test_cosine_and_euclidean_argmax_agree_on_unit_vectors():
    # |a - b|^2 = 2 - 2 cos(a, b) on the unit sphere, so the nearest
    # neighbor under Euclidean distance is the cosine argmax.
    rng = np.random.default_rng(26)
    for _ in range(200):
        gallery = rng.standard_normal((8, 5))
        gallery /= np.linalg.norm(gallery, axis=1, keepdims=True)
        q = rng.standard_normal(5)
        q /= np.linalg.norm(q)
        by_cos = int(np.argmax(gallery @ q))
        by_dist = int(np.argmin(np.linalg.norm(gallery - q, axis=1)))
        assert by_cos == by_dist


def test_expert_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(27)
    head = ExpertHead(rng.standard_normal((6, 4)), rng.standard_normal(4))
    path = tmp_path / "head.ckpt"
    checkpoint.save_expert(head, path, seed=9)
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    assert header == {"kind": "expert_head", "params": [[6, 4], [4]], "seed": 9}
    loaded = checkpoint.load_expert(path)
    np.testing.assert_array_equal(loaded.w, head.w.astype(np.float32))
    np.testing.assert_array_equal(loaded.b, head.b.astype(np.float32))


@pytest.mark.parametrize("margin", [0.3, "NaN"])
def test_expert_checkpoint_of_the_sgd_trainer_loads(tmp_path, margin):
    # the trainer's header carried its margin and loss weights, which act on nothing
    rng = np.random.default_rng(28)
    w, b = rng.standard_normal((6, 4)).astype("<f4"), rng.standard_normal(4).astype("<f4")
    header = {"kind": "expert_head", "loss_weights": [1.0, 1.0], "margin": margin,
              "params": [[6, 4], [4]], "seed": 0}
    path = tmp_path / "head.ckpt"
    text = json.dumps(header, sort_keys=True).replace('"NaN"', "NaN")
    path.write_bytes(text.encode() + b"\n" + w.tobytes() + b.tobytes())
    loaded = checkpoint.load_expert(path)
    assert np.array_equal(loaded.w, w) and np.array_equal(loaded.b, b)


@pytest.mark.parametrize("value", [1e39, np.inf, np.nan])
def test_checkpoint_refuses_a_parameter_non_finite_as_float32(tmp_path, value):
    # 1e39 is finite as float64 but beyond the float32 range
    head = ExpertHead(np.ones((3, 2)), np.zeros(2))
    head.w[1, 1] = value  # after the constructor, which refuses inf and nan
    path = tmp_path / "head.ckpt"
    with pytest.raises(DivergenceError, match="head.ckpt: parameter block 0 is not finite"):
        checkpoint.save_expert(head, path)
    assert not path.exists()


def test_expert_checkpoint_kind_checked(tmp_path):
    path = tmp_path / "adapter.ckpt"
    checkpoint.save_adapter(reference.init_adapter(3, 2), path)
    with pytest.raises(DataValidationError, match="not an expert head"):
        checkpoint.load_expert(path)

"""The expert and adapter trainers against reference copies of their steps
(tests/reference.py): list mining with a 2-D scatter, Adam through fresh
temporaries, and a flat gradient concatenated per gallery size. The
trainers reuse buffers and update in place, but every floating-point
operation keeps its operands and its order, so the trained parameters must
be bit-equal."""

import numpy as np
import pytest

import reference
from ilrkit import dataengine, expert, fusion
from ilrkit.dataengine import GalleryTask
from ilrkit.embedstore import EmbeddingSet, TokenFeatureMap
from ilrkit.errors import DataValidationError


def _assert_same_head(got, want):
    assert np.array_equal(got.w, want.w)
    assert np.array_equal(got.b, want.b)


def _assert_same_adapter(got, want):
    for name in ("w1", "b1", "w2", "b2"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def _ragged(raw_set):
    """The set with images dropped so instances hold 2, 3 or all 4 images."""
    keep, seen = [], {}
    for record in raw_set.records:
        n = seen.get(record.instance_id, 0)
        seen[record.instance_id] = n + 1
        if n < 2 + len(seen) % 3:
            keep.append(record)
    return EmbeddingSet.from_records("raw", keep)


class TestTrainExpertOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("overrides", [
        {},
        {"loss_weights": (0.7, 1.3)},
        {"margin": 0.0},
        {"margin": 2.0, "loss_weights": (0.0, 1.0)},
    ])
    def test_bit_equal_to_reference(self, small_bundle, seed, overrides):
        config = expert.ExpertTrainConfig(d_out=8, epochs=3, seed=seed, **overrides)
        raw = small_bundle.raw_set
        _assert_same_head(expert.train_expert(raw, config), reference.train_expert(raw, config))

    @pytest.mark.parametrize("seed", [3, 4])
    def test_instances_with_fewer_images_than_q(self, small_bundle, seed):
        raw = _ragged(small_bundle.raw_set)
        assert {len(ids) for ids in raw.instance_index.values()} == {2, 3, 4}
        config = expert.ExpertTrainConfig(d_out=8, epochs=3, q_images=3, p_instances=5,
                                           seed=seed)
        _assert_same_head(expert.train_expert(raw, config), reference.train_expert(raw, config))

    def test_default_shapes_one_epoch(self, default_bundle, default_split):
        # 32-image batches into 64 outputs and one prototype per training instance
        raw = default_bundle.raw_set.subset(default_split.train_instances)
        config = expert.ExpertTrainConfig(epochs=1, seed=7)
        _assert_same_head(expert.train_expert(raw, config), reference.train_expert(raw, config))

    def test_step_bit_equal_with_ties(self):
        rng = np.random.default_rng(41)
        labels = np.repeat(np.arange(8), 4)
        for trial in range(20):
            head = expert.ExpertHead(rng.standard_normal((24, 16)), rng.standard_normal(16),
                                     margin=0.3 * (trial % 3), loss_weights=(0.7, 1.3))
            protos = rng.standard_normal((16, 8))
            # a coarse grid repeats embeddings: distance ties and zero distances
            x = rng.integers(-1, 2, size=(32, 24)).astype(np.float64)
            x[rng.integers(32, size=8)] = x[0]
            x[np.all(x == 0, axis=1)] = 1.0
            got = expert.combined_loss_and_grads(head, protos, x, labels)
            want = reference.combined_loss_and_grads(head, protos, x, labels)
            assert got[0] == want[0]
            for g, w in zip(got[1:], want[1:]):
                assert np.array_equal(g, w)

    def test_mining_is_the_reference_mining(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            labels = [f"L{i}" for i in rng.permutation(np.repeat(np.arange(4), 3))]
            emb = rng.integers(-1, 2, size=(12, 3)).astype(np.float64)
            assert expert.batch_hard_mine(emb, labels) == reference.batch_hard_mine(emb, labels)

    @pytest.mark.parametrize("labels", [[0, 0, 1, 1, 2], [3, 3, 3, 5], [4, 4, 4, 4]])
    def test_step_rejects_a_singleton_or_single_instance_batch(self, labels):
        rng = np.random.default_rng(43)
        head = expert.ExpertHead(rng.standard_normal((6, 4)), rng.standard_normal(4))
        x = rng.standard_normal((len(labels), 6))
        with pytest.raises(DataValidationError, match=">= 2 instances with >= 2 samples"):
            expert.combined_loss_and_grads(head, rng.standard_normal((4, 6)), x, labels)


def _adapter_setup(rng, n_tasks, sizes=(4,)):
    images = [f"im{i}" for i in range(12)]
    token_maps = {
        i: TokenFeatureMap(i, rng.standard_normal((int(rng.integers(1, 5)), 4)).astype(np.float32))
        for i in images
    }
    vectors = {i: rng.standard_normal(5) for i in images}
    tasks = []
    for t in range(n_tasks):
        k = sizes[t % len(sizes)]
        picks = rng.choice(len(images), size=k + 1, replace=False)
        tasks.append(GalleryTask(
            task_id=f"t{t}", category="object", query_id=images[picks[0]],
            gallery_ids=tuple(images[i] for i in picks[1:]),
            answer_index=int(rng.integers(k)), tau=0.5, relaxed=False, seed=0,
        ))
    return tasks, token_maps, vectors


class TestTrainAdapterOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("sizes", [(4,), (2, 4, 3)], ids=["one size", "mixed sizes"])
    def test_bit_equal_to_reference(self, seed, sizes):
        rng = np.random.default_rng(50 + seed)
        tasks, token_maps, vectors = _adapter_setup(rng, 23, sizes)
        init = fusion.init_adapter(5, 4, seed=seed)
        config = fusion.AdapterTrainConfig(epochs=4, batch_size=5, seed=seed, step_size=0.05)
        got = fusion.train_adapter(init, tasks, token_maps, vectors, config)
        want = reference.train_adapter(init, tasks, token_maps, vectors, config)
        _assert_same_adapter(got, want)

    def test_best_epoch_return_is_bit_equal(self, caplog):
        # a step this large overshoots, so training returns its best epoch
        rng = np.random.default_rng(4)
        tasks, token_maps, vectors = _adapter_setup(rng, 16, (3, 4))
        init = fusion.init_adapter(5, 4, seed=1)
        config = fusion.AdapterTrainConfig(epochs=1, batch_size=4, seed=1, step_size=3.0)
        got = fusion.train_adapter(init, tasks, token_maps, vectors, config)
        assert "returning best checkpoint" in caplog.text
        want = reference.train_adapter(init, tasks, token_maps, vectors, config)
        _assert_same_adapter(got, want)

    def test_default_shapes(self, default_bundle, default_split, token_map_index,
                            expert_vectors):
        tasks = dataengine.build_gallery_tasks(
            default_bundle.general_set, default_split.train_instances,
            n_tasks=200, seed=8, task_prefix="a-",
        )
        init = fusion.init_adapter(64, 16, seed=0)
        config = fusion.AdapterTrainConfig(epochs=2, seed=7)
        got = fusion.train_adapter(init, tasks, token_map_index, expert_vectors, config)
        want = reference.train_adapter(init, tasks, token_map_index, expert_vectors, config)
        _assert_same_adapter(got, want)

    def test_step_into_a_buffer_is_the_reference_step(self):
        rng = np.random.default_rng(54)
        adapter = fusion.init_adapter(5, 4, seed=2)
        views = fusion.matching_views(
            adapter, [rng.standard_normal((n, 4)) for n in (1, 2, 3, 4, 5, 6)],
            [rng.standard_normal(5) for _ in range(6)],
        )
        rows = np.array([[0, 1, 2, 3], [1, 0, 4, 5], [5, 2, 3, 0]])
        answers = np.array([0, 2, 1])
        out = np.full(sum(p.size for p in (adapter.w1, adapter.b1, adapter.w2, adapter.b2)),
                      np.nan)
        losses, grads = fusion.batch_matching_loss_and_grads(
            adapter, views, rows, answers, out=out
        )
        want_losses, want = reference.batch_matching_loss_and_grads(adapter, views, rows, answers)
        assert np.array_equal(losses, want_losses)
        _assert_same_adapter(grads, want)
        flat = np.concatenate([want.w1.ravel(), want.b1, want.w2.ravel(), want.b2])
        assert np.array_equal(out, flat)
        for name in ("w1", "b1", "w2", "b2"):
            assert np.shares_memory(getattr(grads, name), out)

    def test_adam_is_the_reference_adam(self):
        rng = np.random.default_rng(55)
        got, want = fusion._Adam(50, 0.01), reference.Adam(50, 0.01)
        p_got, p_want = np.zeros(50), np.zeros(50)
        for _ in range(20):
            grad = rng.standard_normal(50) * 10.0 ** rng.integers(-6, 3)
            got.update(p_got, grad.copy())
            want.update(p_want, grad)
        assert np.array_equal(p_got, p_want)
        assert np.array_equal(got.m, want.m) and np.array_equal(got.v, want.v)


import math

import numpy as np
import pytest

from ilrkit import checkpoint, fusion
from ilrkit.dataengine import GalleryTask
from ilrkit.embedstore import TokenFeatureMap
from ilrkit.errors import DataValidationError, DivergenceError
from ilrkit.fusion import (
    AdapterTrainConfig,
    FusionAdapter,
    batch_matching_loss_and_grads,
    fuse,
    init_adapter,
    matching_loss_and_grads,
    matching_views,
    pooled_fused,
    project_expert,
    train_adapter,
)


def _random_adapter(rng, d_e=5, h=7, d=4, temperature=1.0):
    return FusionAdapter(
        w1=rng.standard_normal((d_e, h)),
        b1=rng.standard_normal(h),
        w2=rng.standard_normal((h, d)),
        b2=rng.standard_normal(d),
        temperature=temperature,
    )


def _zero_projection_adapter(d_e=5, h=7, d=4):
    rng = np.random.default_rng(0)
    return FusionAdapter(
        w1=rng.standard_normal((d_e, h)),
        b1=rng.standard_normal(h),
        w2=np.zeros((h, d)),
        b2=np.zeros(d),
    )


class TestProjectExpert:
    def test_matches_manual_mlp(self):
        rng = np.random.default_rng(1)
        adapter = _random_adapter(rng)
        v = rng.standard_normal(5)
        got = project_expert(adapter, v)
        hidden = np.maximum(0.0, v @ adapter.w1 + adapter.b1)
        np.testing.assert_allclose(got, hidden @ adapter.w2 + adapter.b2, atol=1e-12)

    def test_relu_kills_negative_preactivations(self):
        adapter = FusionAdapter(
            w1=np.array([[1.0]]), b1=np.array([-2.0]),
            w2=np.array([[3.0]]), b2=np.array([0.5]),
        )
        # pre-activation 1 - 2 < 0, so only the bias survives
        np.testing.assert_allclose(project_expert(adapter, [1.0]), [0.5])

    def test_shape_mismatch_rejected(self):
        adapter = _random_adapter(np.random.default_rng(0))
        with pytest.raises(DataValidationError):
            project_expert(adapter, np.ones(3))


class TestFuse:
    def test_single_token_gets_full_attention(self):
        rng = np.random.default_rng(2)
        adapter = _random_adapter(rng)
        out = fuse(adapter, rng.standard_normal((1, 4)), rng.standard_normal(5))
        np.testing.assert_allclose(out.attention, [1.0])

    def test_hand_computed_attention_two_thirds(self):
        # projected == [1], tokens chosen so scores are (ln 2, 0):
        # softmax gives exactly (2/3, 1/3).
        adapter = FusionAdapter(
            w1=np.array([[0.0]]), b1=np.array([1.0]),
            w2=np.array([[1.0]]), b2=np.array([0.0]),
        )
        tokens = np.array([[math.log(2.0)], [0.0]])
        out = fuse(adapter, tokens, [0.0])
        np.testing.assert_allclose(out.projected, [1.0], atol=1e-15)
        np.testing.assert_allclose(out.attention, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)
        np.testing.assert_allclose(
            out.fused, tokens + out.attention[:, None], atol=1e-12
        )

    def test_attention_simplex_randomized(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            adapter = _random_adapter(rng, temperature=float(rng.uniform(0.1, 3.0)))
            out = fuse(adapter, rng.standard_normal((6, 4)), rng.standard_normal(5))
            assert np.all(out.attention >= 0.0)
            assert abs(out.attention.sum() - 1.0) <= 1e-9

    def test_zero_projection_is_exactly_neutral(self):
        rng = np.random.default_rng(4)
        adapter = _zero_projection_adapter()
        tokens = rng.standard_normal((6, 4))
        out = fuse(adapter, tokens, rng.standard_normal(5))
        assert np.array_equal(out.fused, tokens)

    def test_update_is_rank_one_along_projection(self):
        rng = np.random.default_rng(5)
        adapter = _random_adapter(rng)
        tokens = rng.standard_normal((6, 4))
        out = fuse(adapter, tokens, rng.standard_normal(5))
        delta = out.fused - tokens
        np.testing.assert_allclose(
            delta, np.outer(out.attention, out.projected), atol=1e-12
        )

    def test_temperature_flattens_attention(self):
        rng = np.random.default_rng(6)
        base = _random_adapter(rng, temperature=1.0)
        hot = FusionAdapter(base.w1, base.b1, base.w2, base.b2, temperature=100.0)
        tokens = rng.standard_normal((8, 4))
        expert_vec = rng.standard_normal(5)
        sharp = fuse(base, tokens, expert_vec).attention
        flat = fuse(hot, tokens, expert_vec).attention
        assert flat.max() - flat.min() < sharp.max() - sharp.min() + 1e-12
        np.testing.assert_allclose(flat, 1.0 / 8.0, atol=1e-2)

    def test_accepts_token_feature_map(self):
        rng = np.random.default_rng(7)
        adapter = _random_adapter(rng)
        tokens = rng.standard_normal((3, 4)).astype(np.float32)
        expert_vec = rng.standard_normal(5)
        a = fuse(adapter, TokenFeatureMap("x", tokens), expert_vec)
        b = fuse(adapter, tokens, expert_vec)
        np.testing.assert_allclose(a.fused, b.fused, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        adapter = _random_adapter(np.random.default_rng(0))
        with pytest.raises(DataValidationError):
            fuse(adapter, np.ones((3, 9)), np.ones(5))


def test_pooled_fused_identity():
    # attention sums to 1, so pooling the fused map reduces to the closed
    # form mean(tokens) + projected/N; compare it with the attention path
    rng = np.random.default_rng(10)
    for _ in range(100):
        d_e, h, d, n = (int(x) for x in rng.integers(1, 9, size=4))
        adapter = _random_adapter(
            rng, d_e=d_e, h=h, d=d, temperature=float(rng.uniform(0.1, 3.0))
        )
        tokens = rng.standard_normal((n, d))
        expert_vec = rng.standard_normal(d_e)
        got = pooled_fused(adapter, tokens, expert_vec)
        expected = fuse(adapter, tokens, expert_vec).fused.mean(axis=0)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("shape", [(4,), (0, 4), (3, 9), (2, 3, 4)])
def test_pooled_fused_rejects_token_shape(shape):
    adapter = _random_adapter(np.random.default_rng(0))
    with pytest.raises(DataValidationError, match="tokens have shape"):
        pooled_fused(adapter, np.ones(shape), np.ones(5))


def test_pooled_fused_overflow_diverges():
    # finite weights around 1e300 whose MLP output overflows to inf
    adapter = FusionAdapter(
        w1=np.full((5, 7), 1e300), b1=np.zeros(7),
        w2=np.full((7, 4), 1e300), b2=np.zeros(4),
    )
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(project_expert(adapter, np.ones(5))).any()
        with pytest.raises(DivergenceError, match="non-finite pooled"):
            pooled_fused(adapter, np.ones((3, 4)), np.ones(5))


class TestMatchingLoss:
    def _case(self, rng, n_gallery=3, d_e=5, d=4, n_tok=3):
        adapter = _random_adapter(rng, d_e=d_e, d=d)
        q_tok = rng.standard_normal((n_tok, d))
        g_toks = [rng.standard_normal((n_tok, d)) for _ in range(n_gallery)]
        q_vec = rng.standard_normal(d_e)
        g_vecs = [rng.standard_normal(d_e) for _ in range(n_gallery)]
        return adapter, q_tok, g_toks, q_vec, g_vecs

    def test_symmetric_gallery_gives_log_k(self):
        rng = np.random.default_rng(11)
        adapter, q_tok, _, q_vec, _ = self._case(rng)
        g_tok = rng.standard_normal((3, 4))
        g_vec = rng.standard_normal(5)
        loss, _ = matching_loss_and_grads(
            adapter, q_tok, [g_tok] * 4, q_vec, [g_vec] * 4, answer_index=2
        )
        assert loss == pytest.approx(math.log(4.0), abs=1e-12)

    def test_saturated_correct_match_near_zero_loss(self):
        adapter = _zero_projection_adapter(d_e=2, d=3)
        e1 = np.array([[1.0, 0.0, 0.0]])
        e2 = np.array([[0.0, 1.0, 0.0]])
        e3 = np.array([[0.0, 0.0, 1.0]])
        loss, _ = matching_loss_and_grads(
            adapter, e1, [e1, e2, e3], np.ones(2), [np.ones(2)] * 3,
            answer_index=0, readout_temperature=0.1,
        )
        assert loss < 1e-3

    def test_gallery_permutation_equivariance(self):
        rng = np.random.default_rng(12)
        adapter, q_tok, g_toks, q_vec, g_vecs = self._case(rng, n_gallery=4)
        loss_a, _ = matching_loss_and_grads(adapter, q_tok, g_toks, q_vec, g_vecs, 1)
        perm = [2, 1, 3, 0]
        loss_b, _ = matching_loss_and_grads(
            adapter, q_tok, [g_toks[i] for i in perm], q_vec,
            [g_vecs[i] for i in perm], perm.index(1),
        )
        assert loss_a == pytest.approx(loss_b, abs=1e-12)

    def test_finite_difference_gradients(self):
        rng = np.random.default_rng(13)
        step = 1e-4
        checked = 0
        while checked < 20:
            adapter, q_tok, g_toks, q_vec, g_vecs = self._case(rng)
            answer = int(rng.integers(3))
            # skip cases with a ReLU pre-activation near zero: the loss has a
            # genuine kink there and central differences straddle it
            z = np.abs(np.stack([v @ adapter.w1 + adapter.b1
                                 for v in (q_vec, *g_vecs)]))
            if z.min() < 50 * step:
                continue
            checked += 1
            _, grads = matching_loss_and_grads(
                adapter, q_tok, g_toks, q_vec, g_vecs, answer
            )
            for name in ("w1", "b1", "w2", "b2"):
                analytic = getattr(grads, name)
                numeric = np.zeros_like(analytic)
                param = getattr(adapter, name)
                it = np.nditer(param, flags=["multi_index"])
                for _value in it:
                    idx = it.multi_index
                    orig = param[idx]
                    param[idx] = orig + step
                    up, _ = matching_loss_and_grads(
                        adapter, q_tok, g_toks, q_vec, g_vecs, answer
                    )
                    param[idx] = orig - step
                    down, _ = matching_loss_and_grads(
                        adapter, q_tok, g_toks, q_vec, g_vecs, answer
                    )
                    param[idx] = orig
                    numeric[idx] = (up - down) / (2.0 * step)
                scale = max(float(np.max(np.abs(numeric))), 1e-8)
                assert float(np.max(np.abs(analytic - numeric))) / scale < 1e-4

    def test_input_validation(self):
        rng = np.random.default_rng(14)
        adapter, q_tok, g_toks, q_vec, g_vecs = self._case(rng)
        with pytest.raises(DataValidationError):
            matching_loss_and_grads(adapter, q_tok, g_toks[:1], q_vec, g_vecs[:1], 0)
        with pytest.raises(DataValidationError):
            matching_loss_and_grads(adapter, q_tok, g_toks, q_vec, g_vecs, 7)
        with pytest.raises(DataValidationError):
            matching_loss_and_grads(adapter, q_tok, g_toks, q_vec, g_vecs[:2], 0)


class TestBatchMatchingLoss:
    def test_batch_equals_sum_of_single_task_calls(self):
        rng = np.random.default_rng(19)
        adapter = _random_adapter(rng)
        # six images with 1..6 tokens each, shared between the tasks
        tokens = [rng.standard_normal((n, 4)) for n in (1, 2, 3, 4, 5, 6)]
        experts = [rng.standard_normal(5) for _ in tokens]
        rows = np.array([
            [0, 1, 2, 3],
            [1, 0, 4, 5],  # image 1 is the query here, a gallery item above
            [5, 2, 3, 0],
            [2, 2, 4, 1],  # one image twice in one task
        ])
        answers = np.array([0, 2, 1, 0])
        views = matching_views(adapter, tokens, experts)
        losses, grads = batch_matching_loss_and_grads(adapter, views, rows, answers)

        expected = {name: np.zeros_like(getattr(adapter, name))
                    for name in ("w1", "b1", "w2", "b2")}
        for b, row in enumerate(rows):
            loss, single = matching_loss_and_grads(
                adapter, tokens[row[0]], [tokens[i] for i in row[1:]],
                experts[row[0]], [experts[i] for i in row[1:]], int(answers[b]),
            )
            assert losses[b] == pytest.approx(loss, rel=1e-12)
            for name in expected:
                expected[name] += getattr(single, name)
        for name, total in expected.items():
            np.testing.assert_allclose(getattr(grads, name), total, rtol=1e-12, atol=0)

    def test_losses_only_pass_matches(self):
        rng = np.random.default_rng(20)
        adapter = _random_adapter(rng)
        views = matching_views(
            adapter, [rng.standard_normal((3, 4)) for _ in range(5)],
            [rng.standard_normal(5) for _ in range(5)],
        )
        rows = np.array([[0, 1, 2], [3, 4, 0]])
        answers = np.array([1, 0])
        with_grads, _ = batch_matching_loss_and_grads(adapter, views, rows, answers)
        only, grads = batch_matching_loss_and_grads(
            adapter, views, rows, answers, need_grads=False
        )
        assert grads is None
        assert np.array_equal(with_grads, only)

    def test_zero_pooled_vector_rejected(self):
        adapter = _zero_projection_adapter()
        zero, one = np.zeros((2, 4)), np.ones((2, 4))
        with pytest.raises(DataValidationError, match="zero pooled query"):
            matching_loss_and_grads(adapter, zero, [one, one], np.ones(5), [np.ones(5)] * 2, 0)
        with pytest.raises(DataValidationError, match="zero pooled gallery"):
            matching_loss_and_grads(adapter, one, [one, zero], np.ones(5), [np.ones(5)] * 2, 0)

    def test_view_shapes_checked(self):
        adapter = _random_adapter(np.random.default_rng(21))
        with pytest.raises(DataValidationError, match="expert vector"):
            matching_views(adapter, [np.ones((2, 4))], [np.ones(3)])
        with pytest.raises(DataValidationError, match="tokens"):
            matching_views(adapter, [np.ones((2, 3))], [np.ones(5)])

    @pytest.mark.parametrize("tokens, vecs, message", [
        ([np.ones((2, 4)), np.ones((2, 3))], [np.ones(5)] * 2,
         "tokens have shape (2, 3), adapter expects (N, 4)"),
        ([np.ones((2, 4)), np.ones((0, 4))], [np.ones(5)] * 2,
         "tokens have shape (0, 4), adapter expects (N, 4)"),
        ([np.ones((2, 4)), np.ones(4)], [np.ones(5)] * 2,
         "tokens have shape (4,), adapter expects (N, 4)"),
        ([np.ones((2, 4))] * 2, [np.ones(5), np.ones((1, 5))],
         "expert vector has shape (1, 5), adapter expects (5,)"),
        # the first faulty image wins, its tokens checked before its vector
        ([np.ones((2, 4)), np.ones((2, 4)), np.ones((2, 3))],
         [np.ones(5), np.ones(4), np.ones(5)],
         "expert vector has shape (4,), adapter expects (5,)"),
        ([np.ones((2, 4)), np.ones((2, 3))], [np.ones(5), np.ones(4)],
         "tokens have shape (2, 3), adapter expects (N, 4)"),
    ])
    def test_view_errors_name_the_first_faulty_image(self, tokens, vecs, message):
        adapter = _random_adapter(np.random.default_rng(22))
        with pytest.raises(DataValidationError) as info:
            matching_views(adapter, tokens, vecs)
        assert str(info.value) == message


def _per_image_views(adapter, tokens, vecs):
    """The views as one image at a time builds them: each image's float64
    tokens and their ``mean(axis=0)``."""
    mats = [np.asarray(t.tokens if isinstance(t, TokenFeatureMap) else t, dtype=np.float64)
            for t in tokens]
    return (np.array([m.mean(axis=0) for m in mats]), np.array([m.shape[0] for m in mats],
            dtype=np.float64), np.array(vecs, dtype=np.float64))


class TestMatchingViewsMeans:
    """The stacked token means are bit-equal to each image's own mean."""

    def _assert_bit_equal(self, adapter, tokens, vecs):
        views = matching_views(adapter, tokens, vecs)
        means, counts, experts = _per_image_views(adapter, tokens, vecs)
        assert views.token_means.dtype == np.float64
        assert views.token_means.tobytes() == means.tobytes()
        assert np.array_equal(views.token_counts, counts)
        assert views.experts.tobytes() == experts.tobytes()

    def test_default_shapes(self, default_bundle, expert_vectors):
        # every image of the default bundle: 16 float32 tokens of 16
        # dimensions, more images than one stacking call takes
        maps = default_bundle.token_maps
        assert len(maps) > 2 * fusion._MEAN_ROWS
        vecs = [expert_vectors[m.image_id] for m in maps]
        adapter = fusion.init_adapter(len(vecs[0]), maps[0].tokens.shape[1], seed=3)
        self._assert_bit_equal(adapter, maps, vecs)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mixed_token_counts(self, seed):
        rng = np.random.default_rng(seed)
        adapter = _random_adapter(rng)
        counts = rng.choice([1, 2, 3, 7, 16, 33], size=fusion._MEAN_ROWS + 40)
        tokens = []
        for i, n in enumerate(counts):
            t = rng.standard_normal((n, 4)) * 10.0 ** rng.integers(-3, 4)
            # a float32 map, or a float64 array that float32 cannot hold
            tokens.append(TokenFeatureMap(f"im{i}", t) if i % 3 else t)
        vecs = [rng.standard_normal(5) for _ in tokens]
        self._assert_bit_equal(adapter, tokens, vecs)


def _toy_training_setup(rng, n_tasks=6):
    token_maps, expert_vectors, tasks = {}, {}, []
    images = [f"im{i}" for i in range(8)]
    for image_id in images:
        token_maps[image_id] = TokenFeatureMap(
            image_id, rng.standard_normal((3, 4)).astype(np.float32)
        )
        expert_vectors[image_id] = rng.standard_normal(5)
    for t in range(n_tasks):
        picks = rng.choice(len(images), size=4, replace=False)
        tasks.append(
            GalleryTask(
                task_id=f"t{t}", category="object", query_id=images[picks[0]],
                gallery_ids=tuple(images[i] for i in picks[1:]),
                answer_index=int(rng.integers(3)), tau=0.5, relaxed=False, seed=0,
            )
        )
    return tasks, token_maps, expert_vectors


class TestTrainAdapter:
    def test_zero_epochs_is_identity(self):
        rng = np.random.default_rng(15)
        tasks, token_maps, vecs = _toy_training_setup(rng)
        init = init_adapter(5, 4, seed=0)
        out = train_adapter(init, tasks, token_maps, vecs,
                            AdapterTrainConfig(epochs=0))
        assert np.array_equal(out.w1, init.w1)
        assert np.array_equal(out.b2, init.b2)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(16)
        tasks, token_maps, vecs = _toy_training_setup(rng)
        init = init_adapter(5, 4, seed=0)
        cfg = AdapterTrainConfig(epochs=2, seed=3)
        a = train_adapter(init, tasks, token_maps, vecs, cfg)
        b = train_adapter(init, tasks, token_maps, vecs, cfg)
        assert np.array_equal(a.w1, b.w1)
        assert np.array_equal(a.w2, b.w2)

    def test_missing_views_rejected(self):
        rng = np.random.default_rng(17)
        tasks, token_maps, vecs = _toy_training_setup(rng)
        init = init_adapter(5, 4, seed=0)
        del token_maps[tasks[0].query_id]
        with pytest.raises(DataValidationError, match="token map"):
            train_adapter(init, tasks, token_maps, vecs)
        with pytest.raises(DataValidationError, match="no training tasks"):
            train_adapter(init, [], {}, {})

    def test_mixed_gallery_sizes_train(self):
        rng = np.random.default_rng(22)
        tasks, token_maps, vecs = _toy_training_setup(rng)
        tasks += [
            GalleryTask(
                task_id=f"short{i}", category="object", query_id=task.query_id,
                gallery_ids=task.gallery_ids[:2], answer_index=i % 2, tau=0.5,
                relaxed=False, seed=0,
            )
            for i, task in enumerate(tasks)
        ]
        init = init_adapter(5, 4, seed=0)
        step = 1e-4
        out = train_adapter(init, tasks, token_maps, vecs,
                            AdapterTrainConfig(step_size=step, epochs=1,
                                               batch_size=len(tasks)))
        # one Adam step from zero state moves each parameter by
        # -step * g / (|g| + eps), g the mean gradient over all tasks
        for name in ("w1", "b1", "w2", "b2"):
            g = sum(
                getattr(matching_loss_and_grads(
                    init, token_maps[t.query_id], [token_maps[i] for i in t.gallery_ids],
                    vecs[t.query_id], [vecs[i] for i in t.gallery_ids], t.answer_index,
                )[1], name)
                for t in tasks
            ) / len(tasks)
            expected = getattr(init, name) - step * g / (np.abs(g) + 1e-8)
            np.testing.assert_allclose(getattr(out, name), expected, rtol=0, atol=1e-12)


class TestAdapterValidation:
    def test_shape_consistency(self):
        with pytest.raises(DataValidationError):
            FusionAdapter(np.ones((2, 3)), np.ones(4), np.ones((3, 2)), np.ones(2))
        with pytest.raises(DataValidationError, match="matrices"):
            FusionAdapter(np.ones(3), np.ones(3), np.ones((3, 2)), np.ones(2))

    def test_temperature_positive(self):
        with pytest.raises(DataValidationError):
            FusionAdapter(np.ones((2, 3)), np.ones(3), np.ones((3, 2)), np.ones(2),
                          temperature=0.0)

    def test_init_is_seeded(self):
        a = init_adapter(5, 4, seed=1)
        b = init_adapter(5, 4, seed=1)
        c = init_adapter(5, 4, seed=2)
        assert np.array_equal(a.w1, b.w1)
        assert not np.array_equal(a.w1, c.w1)


def test_adapter_checkpoint_round_trip(tmp_path):
    adapter = _random_adapter(np.random.default_rng(18), temperature=0.7)
    path = tmp_path / "adapter.ckpt"
    checkpoint.save_adapter(adapter, path, seed=5)
    loaded = checkpoint.load_adapter(path)
    assert loaded.temperature == pytest.approx(0.7)
    np.testing.assert_allclose(loaded.w1, adapter.w1, atol=1e-6)
    np.testing.assert_allclose(loaded.b2, adapter.b2, atol=1e-6)


def test_adapter_checkpoint_kind_checked(tmp_path):
    from ilrkit.expert import ExpertHead

    path = tmp_path / "head.ckpt"
    checkpoint.save_expert(ExpertHead(np.ones((3, 2)), np.zeros(2)), path)
    with pytest.raises(DataValidationError, match="not a fusion adapter"):
        checkpoint.load_adapter(path)

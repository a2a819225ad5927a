"""The adapter trainer against a reference copy of its step
(tests/reference.py), whose Adam runs over one flat vector of all the
parameters. Every floating-point operation keeps its operands and its
order, so the trained parameters must be bit-equal. The adapter step is
also held within rounding of the quotient-rule formula it replaced."""

import numpy as np
import pytest

import reference
from ilrkit import dataengine, fusion
from ilrkit.dataengine import GalleryTask
from ilrkit.embedstore import TokenFeatureMap


def _assert_same_adapter(got, want):
    for name in ("w1", "b1", "w2", "b2"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


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
        init = reference.init_adapter(5, 4, seed=seed)
        config = fusion.AdapterTrainConfig(epochs=4, batch_size=5, seed=seed, step_size=0.05)
        got = fusion.train_adapter(init, fusion.stack_tasks(tasks, token_maps, vectors), config)
        want = reference.train_adapter(init, tasks, token_maps, vectors, config)
        _assert_same_adapter(got, want)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_fine_tuning_from_the_closed_form(self, seed):
        # the start fine-tuning takes in train-adapter and pipeline: the fit
        # of the same stacked tasks, whose 2 * d hidden units leave some
        # dead; the fine-tune then trains on the stack the fit read
        rng = np.random.default_rng(57 + seed)
        tasks, token_maps, vectors = _adapter_setup(rng, 23, (2, 4, 3))
        stack = fusion.stack_tasks(tasks, token_maps, vectors)
        init = fusion.fit_adapter(stack).adapter
        config = fusion.AdapterTrainConfig(epochs=3, batch_size=5, seed=seed, step_size=0.05)
        got = fusion.train_adapter(init, stack, config)
        want = reference.train_adapter(init, tasks, token_maps, vectors, config)
        _assert_same_adapter(got, want)
        assert not np.array_equal(got.w1, init.w1)

    def test_best_epoch_return_is_bit_equal(self, caplog):
        # a step this large overshoots, so training returns its best epoch
        rng = np.random.default_rng(4)
        tasks, token_maps, vectors = _adapter_setup(rng, 16, (3, 4))
        init = reference.init_adapter(5, 4, seed=1)
        config = fusion.AdapterTrainConfig(epochs=1, batch_size=4, seed=1, step_size=3.0)
        got = fusion.train_adapter(init, fusion.stack_tasks(tasks, token_maps, vectors), config)
        assert "returning best checkpoint" in caplog.text
        want = reference.train_adapter(init, tasks, token_maps, vectors, config)
        _assert_same_adapter(got, want)

    def test_default_shapes(self, default_bundle, default_split, token_map_index,
                            expert_vectors):
        tasks = dataengine.build_gallery_tasks(
            default_bundle.general_set, default_split.train_instances,
            n_tasks=200, seed=8, task_prefix="a-",
        )
        init = reference.init_adapter(64, 16, seed=0)
        config = fusion.AdapterTrainConfig(epochs=2, seed=7)
        got = fusion.train_adapter(
            init, fusion.stack_tasks(tasks, token_map_index, expert_vectors), config)
        want = reference.train_adapter(init, tasks, token_map_index, expert_vectors, config)
        _assert_same_adapter(got, want)

    @pytest.mark.parametrize("d_e, d, k, b", [(5, 4, 3, 3), (7, 3, 2, 5), (64, 16, 5, 8)],
                             ids=["small", "two items", "default shapes"])
    def test_step_is_the_quotient_rule_within_rounding(self, d_e, d, k, b):
        # the unit-vector step against the quotient-rule formula it replaced
        rng = np.random.default_rng(56 + d_e)
        for trial in range(10):
            adapter = reference.init_adapter(d_e, d, seed=trial)
            adapter.w2 *= 10.0 ** rng.uniform(0, 1.5)
            views = fusion.matching_views(
                adapter, [rng.standard_normal((int(rng.integers(1, 9)), d)) for _ in range(40)],
                [rng.standard_normal(d_e) for _ in range(40)],
            )
            rows = np.array([rng.permutation(40)[: k + 1] for _ in range(b)])
            answers = rng.integers(k, size=b)
            losses, grads = fusion.batch_matching_loss_and_grads(adapter, views, rows, answers)
            want_losses, want = reference.quotient_rule_batch_matching_loss_and_grads(
                adapter, views, rows, answers
            )
            np.testing.assert_allclose(losses, want_losses, rtol=1e-12, atol=0)
            for name in ("w1", "b1", "w2", "b2"):
                # an entry that cancels to near zero is held to its array's scale
                w = getattr(want, name)
                np.testing.assert_allclose(getattr(grads, name), w, rtol=1e-12,
                                           atol=1e-12 * np.abs(w).max(), err_msg=name)

    def test_adam_is_the_reference_adam(self):
        rng = np.random.default_rng(55)
        # one parameter array of the adapter against the reference's flat vector
        got, want = fusion._Adam((5, 10), 0.01), reference.Adam(50, 0.01)
        p_got, p_want = np.zeros((5, 10)), np.zeros(50)
        for _ in range(20):
            grad = rng.standard_normal(50) * 10.0 ** rng.integers(-6, 3)
            got.update(p_got, grad.reshape(5, 10).copy())
            want.update(p_want, grad)
        assert np.array_equal(p_got.ravel(), p_want)
        assert np.array_equal(got.m.ravel(), want.m) and np.array_equal(got.v.ravel(), want.v)


import math

import numpy as np
import pytest

import reference
from ilrkit import checkpoint, expert, synthgen
from ilrkit.embedstore import EmbeddingSet
from ilrkit.errors import DataValidationError, DivergenceError
from ilrkit.expert import (
    ExpertHead,
    ExpertTrainConfig,
    combined_loss_and_grads,
    embed_set,
    train_expert,
)


def _unit(deg):
    return np.array([math.cos(math.radians(deg)), math.sin(math.radians(deg))])


def _mine(embeddings, labels):
    """The (anchor, positive, negative) triplets that ``expert._hard_indices``
    mines, with ``labels`` coded in order of first appearance."""
    code_of: dict = {}
    codes = np.array([code_of.setdefault(lab, len(code_of)) for lab in labels], dtype=np.intp)
    pos, neg = expert._hard_indices(np.asarray(embeddings, dtype=np.float64), codes)
    return list(zip(range(len(labels)), pos.tolist(), neg.tolist()))


def _list_batch_hard_mine(embeddings, labels):
    """Reference: the per-anchor list scan that the masked argmax replaced."""
    dist = expert._pairwise_dist(np.asarray(embeddings, dtype=np.float64))
    triplets = []
    for i in range(len(labels)):
        same = [j for j in range(len(labels)) if labels[j] == labels[i] and j != i]
        diff = [j for j in range(len(labels)) if labels[j] != labels[i]]
        pos = max(same, key=lambda j: (dist[i, j], -j))
        neg = min(diff, key=lambda j: (dist[i, j], j))
        triplets.append((i, pos, neg))
    return triplets


def _triplet_term(rows, labels=(0, 0, 1, 1), margin=0.3):
    """The loss of combined_loss_and_grads with the classification term
    weighted 0, on an identity head: the batch-hard hinge of each row,
    normalized, averaged over the rows."""
    rows = np.asarray(rows, dtype=np.float64)
    d = rows.shape[1]
    head = ExpertHead(np.eye(d), np.zeros(d), margin=margin, loss_weights=(0.0, 1.0))
    return combined_loss_and_grads(head, np.zeros((d, 2)), rows, np.asarray(labels))[0]


def _symmetric_batch(theta):
    """Two instances of two images each, ``theta`` degrees apart, the second
    instance opposite the first: every anchor's hardest positive is at chord
    2 sin(theta / 2) and its hardest negative at chord 2 cos(theta / 2)."""
    return [_unit(0.0), _unit(theta), _unit(180.0), _unit(180.0 + theta)]


class TestTripletLoss:
    """The batch-hard triplet term that training computes."""

    def test_perfect_triplet_is_zero(self):
        # d_ap = 0, d_an = sqrt(2): hinge well below zero
        assert _triplet_term([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]) == 0.0

    def test_inverted_triplet_formula(self):
        # every anchor: d_ap = sqrt(2), d_an = 0 -> loss = sqrt(2) + margin
        got = _triplet_term([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]], margin=0.3)
        assert got == pytest.approx(math.sqrt(2.0) + 0.3, abs=1e-12)

    def test_chord_distance_cases(self):
        # unit-circle chord length is 2 sin(angle / 2); 60 degrees is inactive
        for theta in (60.0, 80.0, 120.0):
            d_ap = 2.0 * math.sin(math.radians(theta / 2.0))
            d_an = 2.0 * math.cos(math.radians(theta / 2.0))
            assert _triplet_term(_symmetric_batch(theta), margin=0.3) == pytest.approx(
                max(0.0, d_ap - d_an + 0.3), abs=1e-12
            )

    def test_inputs_are_normalized_first(self):
        rows = np.array(_symmetric_batch(100.0))
        base = _triplet_term(rows)
        scaled = _triplet_term(rows * np.array([[7.0], [0.2], [3.0], [1.5]]))
        assert base > 0.0
        assert scaled == pytest.approx(base, abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(DataValidationError, match="zero embedding"):
            _triplet_term([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])


class TestBatchHardMine:
    def test_against_exhaustive_oracle(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            n_labels = int(rng.integers(2, 5))
            labels = []
            for lab in range(n_labels):
                labels += [f"L{lab}"] * int(rng.integers(2, 5))
            emb = rng.standard_normal((len(labels), 6))
            triplets = _mine(emb, labels)
            assert len(triplets) == len(labels)
            for a, p, n in triplets:
                assert labels[p] == labels[a] and p != a
                assert labels[n] != labels[a]
                d = np.linalg.norm(emb - emb[a], axis=1)
                for j in range(len(labels)):
                    if labels[j] == labels[a] and j != a:
                        assert d[j] <= d[p] + 1e-12
                    if labels[j] != labels[a]:
                        assert d[j] >= d[n] - 1e-12

    def test_ties_break_to_lowest_index(self):
        emb = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [2.0, 0.0], [2.0, 1.0]])
        labels = ["a", "a", "a", "b", "b"]
        triplets = _mine(emb, labels)
        # anchor 0: both positives at distance 1 -> index 1 wins
        assert triplets[0] == (0, 1, 3)

    def test_matches_list_reference_with_ties(self):
        # Duplicated rows and a coarse integer grid make exact distance ties
        # common; the masked argmax/argmin must break them as the list
        # reference (lowest index) does.
        rng = np.random.default_rng(21)
        ties = 0
        for _ in range(100):
            labels = []
            for lab in range(int(rng.integers(2, 6))):
                labels += [lab] * int(rng.integers(2, 6))
            labels = [labels[i] for i in rng.permutation(len(labels))]
            emb = rng.integers(-1, 2, size=(len(labels), 3)).astype(np.float64)
            dup = rng.choice(len(labels), size=len(labels) // 2, replace=False)
            emb[dup] = emb[rng.integers(len(labels), size=len(dup))]
            got = _mine(emb, labels)
            assert got == _list_batch_hard_mine(emb, labels)
            assert got == reference.batch_hard_mine(emb, labels)
            dist = expert._pairwise_dist(emb)
            ties += sum(len(set(row)) < len(row) for row in dist.tolist())
        assert ties > 0

    def test_degenerate_batches_rejected(self):
        for labels in (["a", "a", "a"], ["a", "a", "b"]):
            with pytest.raises(DataValidationError, match=">= 2 instances with >= 2 samples"):
                _mine(np.ones((3, 2)), labels)


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


def _loop_combined_loss_and_grads(head, prototypes, x, labels):
    """Reference: combined_loss_and_grads with the per-triplet loop that the
    array triplet term replaced."""
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels)
    batch = x.shape[0]
    cw, tw = head.loss_weights
    y = x @ head.w + head.b
    norms = np.linalg.norm(y, axis=1, keepdims=True)
    e = y / norms
    logits = e @ prototypes
    logits -= logits.max(axis=1, keepdims=True)
    expl = np.exp(logits)
    probs = expl / expl.sum(axis=1, keepdims=True)
    rows = np.arange(batch)
    ce = -np.mean(np.log(np.maximum(probs[rows, labels], 1e-300)))
    dlogits = probs.copy()
    dlogits[rows, labels] -= 1.0
    dlogits /= batch
    grad_protos = cw * (e.T @ dlogits)
    de = cw * (dlogits @ prototypes.T)
    triplets = reference.batch_hard_mine(e, labels)
    tri_loss = 0.0
    for a, p, n in triplets:
        d_ap = np.linalg.norm(e[a] - e[p])
        d_an = np.linalg.norm(e[a] - e[n])
        hinge = d_ap - d_an + head.margin
        if hinge > 0:
            tri_loss += hinge
            coef = tw / len(triplets)
            if d_ap > expert._NORM_EPS:
                g = coef * (e[a] - e[p]) / d_ap
                de[a] += g
                de[p] -= g
            if d_an > expert._NORM_EPS:
                g = coef * (e[a] - e[n]) / d_an
                de[a] -= g
                de[n] += g
    tri_loss /= len(triplets)
    dy = (de - np.sum(de * e, axis=1, keepdims=True) * e) / norms
    return cw * ce + tw * tri_loss, x.T @ dy, dy.sum(axis=0), grad_protos


class TestCombinedLoss:
    def _case(self, rng, d_raw=5, d_out=4, n_protos=3):
        head = ExpertHead(
            rng.standard_normal((d_raw, d_out)), rng.standard_normal(d_out),
            margin=0.3,
        )
        protos = rng.standard_normal((d_out, n_protos))
        x = rng.standard_normal((6, d_raw))
        labels = np.array([0, 0, 1, 1, 2, 2])
        return head, protos, x, labels

    def test_finite_difference_gradients(self):
        rng = np.random.default_rng(23)
        step = 1e-4
        for _ in range(10):
            head, protos, x, labels = self._case(rng)
            _, gw, gb, gp = combined_loss_and_grads(head, protos, x, labels)
            for param, analytic in ((head.w, gw), (head.b, gb), (protos, gp)):
                numeric = np.zeros_like(param)
                it = np.nditer(param, flags=["multi_index"])
                for _v in it:
                    idx = it.multi_index
                    orig = param[idx]
                    param[idx] = orig + step
                    up = combined_loss_and_grads(head, protos, x, labels)[0]
                    param[idx] = orig - step
                    down = combined_loss_and_grads(head, protos, x, labels)[0]
                    param[idx] = orig
                    numeric[idx] = (up - down) / (2.0 * step)
                scale = max(float(np.max(np.abs(numeric))), 1e-8)
                assert float(np.max(np.abs(analytic - numeric))) / scale < 1e-4

    @pytest.mark.parametrize("margin", [0.0, 0.3, 5.0])
    def test_equals_loop_reference_bit_for_bit(self, margin):
        # default batch shape; margin 0 leaves few hinges live, 5 all of them
        rng = np.random.default_rng(31)
        labels = np.repeat(np.arange(8), 4)
        for trial in range(20):
            head = ExpertHead(rng.standard_normal((24, 64)), rng.standard_normal(64),
                              margin=margin, loss_weights=(0.7, 1.3))
            protos = rng.standard_normal((64, 8))
            x = rng.standard_normal((32, 24))
            if trial % 2:
                x[1:4] = x[0]  # anchors 0-3 have positives at distance 0: no gradient
            got = combined_loss_and_grads(head, protos, x, labels)
            want = _loop_combined_loss_and_grads(head, protos, x, labels)
            assert got[0] == want[0]
            for g, w in zip(got[1:], want[1:]):
                assert np.array_equal(g, w)

    @pytest.mark.parametrize("loss_weights", [(1.0, 1.0), (0.7, 1.3), (0.0, 1.0)])
    def test_default_shapes_bit_equal_to_reference(self, loss_weights):
        # a default run's step: 32 rows of 64 raw dims into 64 outputs, scored
        # against 560 prototypes, with fresh weights and labels per batch
        rng = np.random.default_rng(37)
        for _ in range(4):
            head = ExpertHead(rng.uniform(-0.125, 0.125, (64, 64)), rng.uniform(-0.1, 0.1, 64),
                              loss_weights=loss_weights)
            protos = rng.uniform(-0.125, 0.125, (64, 560))
            x = rng.standard_normal((32, 64))
            labels = np.repeat(rng.choice(560, size=8, replace=False), 4)
            got = combined_loss_and_grads(head, protos, x, labels)
            want = reference.combined_loss_and_grads(head, protos, x, labels)
            assert got[0] == want[0]
            for g, w in zip(got[1:], want[1:]):
                assert np.array_equal(g, w)

    def test_zero_loss_weights_zero_gradients(self):
        rng = np.random.default_rng(24)
        head, protos, x, labels = self._case(rng)
        head.loss_weights = (0.0, 0.0)
        loss, gw, gb, gp = combined_loss_and_grads(head, protos, x, labels)
        assert loss == 0.0
        assert not np.any(gw) and not np.any(gb) and not np.any(gp)

    def test_classification_only_matches_ce(self):
        rng = np.random.default_rng(25)
        head, protos, x, labels = self._case(rng)
        head.loss_weights = (1.0, 0.0)
        loss, *_ = combined_loss_and_grads(head, protos, x, labels)
        e = (x @ head.w + head.b)
        e = e / np.linalg.norm(e, axis=1, keepdims=True)
        logits = e @ protos
        log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        expected = -np.mean(log_probs[np.arange(6), labels])
        assert loss == pytest.approx(expected, abs=1e-10)


class TestTrainExpert:
    def test_deterministic_per_seed(self, small_bundle):
        cfg = ExpertTrainConfig(d_out=8, epochs=2, seed=5)
        a = train_expert(small_bundle.raw_set, config=cfg)
        b = train_expert(small_bundle.raw_set, config=cfg)
        assert np.array_equal(a.w, b.w)
        assert np.array_equal(a.b, b.b)

    def test_training_improves_separation(self, small_bundle):
        cfg = ExpertTrainConfig(d_out=16, epochs=6, seed=0)
        head = train_expert(small_bundle.raw_set, config=cfg)
        trained = synthgen.recall_at_1(embed_set(head, small_bundle.raw_set))
        assert trained >= 0.9

    def test_a_head_that_overflows_on_the_last_step_diverges(self):
        # one batch, one step: no later loss would see the infinite head
        from ilrkit.embedstore import EmbeddingRecord

        rng = np.random.default_rng(3)
        records = [EmbeddingRecord(f"{inst}{i}", inst, "x", rng.standard_normal(6))
                   for inst in "AB" for i in range(2)]
        config = ExpertTrainConfig(d_out=4, epochs=1, p_instances=2, q_images=2,
                                   step_size=1.7e308)
        with np.errstate(over="ignore"), pytest.raises(
                DivergenceError, match="expert head diverged at epoch 0"):
            train_expert(EmbeddingSet.from_records("raw", records), config=config)

    def test_rejects_singleton_instance(self):
        from ilrkit.embedstore import EmbeddingRecord

        records = [
            EmbeddingRecord("a0", "A", "x", np.ones(4)),
            EmbeddingRecord("a1", "A", "x", np.ones(4) * 2),
            EmbeddingRecord("b0", "B", "x", -np.ones(4)),
        ]
        eset = EmbeddingSet.from_records("raw", records)
        with pytest.raises(DataValidationError, match="single image"):
            train_expert(eset, config=ExpertTrainConfig(d_out=2, epochs=1))


def _ragged_raw_set(n_instances):
    """Instances of 2 to 6 images, their records interleaved."""
    from ilrkit.embedstore import EmbeddingRecord

    rng = np.random.default_rng(n_instances)
    sizes = 2 + np.arange(n_instances) % 5
    records = [
        EmbeddingRecord(f"im{k}-{j}", f"inst{k:03d}", "x", rng.standard_normal(4))
        for j in range(sizes.max()) for k in range(n_instances) if j < sizes[k]
    ]
    return EmbeddingSet.from_records("raw", records)


class _CountingGenerator:
    """A Generator that records the name of every method called on it."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.calls = []

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def call(*args, **kwargs):
            self.calls.append(name)
            return method(*args, **kwargs)

        return call


class TestBatchSampler:
    """Properties of an epoch of ``expert._BatchSampler`` at P = 8, Q = 4;
    17 and 25 instances leave one trailing instance over."""

    @staticmethod
    def _epoch(n_instances, seed=0):
        raw = _ragged_raw_set(n_instances)
        sampler = expert._BatchSampler(raw, p_instances=8, q_images=4)
        return raw, sampler.epoch_batches(np.random.default_rng(seed))

    @pytest.mark.parametrize("n_instances", [2, 9, 16, 17, 23, 25])
    def test_each_instance_once_per_epoch_but_a_lone_trailing_one(self, n_instances):
        _, (_, labels, _) = self._epoch(n_instances)
        runs = labels[np.r_[True, labels[1:] != labels[:-1]]]
        assert len(set(runs.tolist())) == len(runs)  # one run of rows per instance
        assert len(runs) == n_instances - (n_instances % 8 == 1)

    @pytest.mark.parametrize("n_instances", [2, 9, 16, 17, 23, 25])
    def test_every_batch_holds_two_to_p_instances(self, n_instances):
        _, (rows, labels, edges) = self._epoch(n_instances)
        assert edges[0] == 0 and edges[-1] == len(rows) == len(labels)
        for start, end in zip(edges[:-1], edges[1:]):
            assert 2 <= len(np.unique(labels[start:end])) <= 8

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_an_instance_gives_min_q_distinct_rows_of_its_own(self, seed):
        raw, (rows, labels, _) = self._epoch(23, seed)
        instances = sorted(raw.instance_index)
        owner = raw.instance_ids
        for label in np.unique(labels):
            inst = instances[label]
            own = rows[labels == label]
            assert len(set(own.tolist())) == len(own)
            assert len(own) == min(4, len(raw.instance_index[inst]))
            assert {owner[row] for row in own.tolist()} == {inst}

    def test_epochs_are_identical_per_seed(self):
        raw = _ragged_raw_set(23)
        epochs = []
        for _ in range(2):
            sampler = expert._BatchSampler(raw, p_instances=8, q_images=4)
            rng = np.random.default_rng(5)
            epochs.append([sampler.epoch_batches(rng) for _ in range(3)])
        for got, want in zip(*epochs):
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
        assert not np.array_equal(epochs[0][0][0], epochs[0][1][0])

    @pytest.mark.parametrize("n_instances", [2, 17, 120])
    def test_an_epoch_is_two_generator_calls(self, n_instances):
        sampler = expert._BatchSampler(_ragged_raw_set(n_instances), p_instances=8,
                                       q_images=4)
        rng = _CountingGenerator(3)
        for _ in range(2):
            sampler.epoch_batches(rng)
        assert rng.calls == ["permutation", "random"] * 2


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
    head = ExpertHead(rng.standard_normal((6, 4)), rng.standard_normal(4),
                      margin=0.25, loss_weights=(1.0, 0.5))
    path = tmp_path / "head.ckpt"
    checkpoint.save_expert(head, path, seed=9)
    loaded = checkpoint.load_expert(path)
    assert loaded.margin == pytest.approx(0.25)
    assert loaded.loss_weights == (1.0, 0.5)
    np.testing.assert_allclose(loaded.w, head.w, atol=1e-6)


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

import math

import numpy as np
import pytest

from ilrkit import checkpoint, expert, synthgen
from ilrkit.embedstore import EmbeddingSet
from ilrkit.errors import DataValidationError
from ilrkit.expert import (
    ExpertHead,
    ExpertTrainConfig,
    batch_hard_mine,
    combined_loss_and_grads,
    embed,
    embed_set,
    train_expert,
    triplet_loss,
)


def _unit(deg):
    return np.array([math.cos(math.radians(deg)), math.sin(math.radians(deg))])


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


class TestTripletLoss:
    def test_perfect_triplet_is_zero(self):
        # d_ap = 0, d_an = sqrt(2): hinge well below zero
        assert triplet_loss([1.0, 0.0], [1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_inverted_triplet_formula(self):
        # d_ap = sqrt(2), d_an = 0 -> loss = sqrt(2) + margin
        got = triplet_loss([1.0, 0.0], [0.0, 1.0], [1.0, 0.0], margin=0.3)
        assert got == pytest.approx(math.sqrt(2.0) + 0.3, abs=1e-12)

    def test_chord_distance_cases(self):
        # unit-circle chord length is 2 sin(theta / 2)
        a, p, n = _unit(0.0), _unit(30.0), _unit(90.0)
        d_ap = 2.0 * math.sin(math.radians(15.0))
        d_an = 2.0 * math.sin(math.radians(45.0))
        assert triplet_loss(a, p, n, margin=0.3) == pytest.approx(
            max(0.0, d_ap - d_an + 0.3), abs=1e-12
        )
        assert triplet_loss(a, n, p, margin=0.3) == pytest.approx(
            max(0.0, d_an - d_ap + 0.3), abs=1e-12
        )

    def test_inputs_are_normalized_first(self):
        base = triplet_loss(_unit(0), _unit(40), _unit(10), margin=0.3)
        scaled = triplet_loss(7.0 * _unit(0), 0.2 * _unit(40), 3.0 * _unit(10),
                              margin=0.3)
        assert scaled == pytest.approx(base, abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(DataValidationError):
            triplet_loss([0.0, 0.0], [1.0, 0.0], [0.0, 1.0])


class TestBatchHardMine:
    def test_against_exhaustive_oracle(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            n_labels = int(rng.integers(2, 5))
            labels = []
            for lab in range(n_labels):
                labels += [f"L{lab}"] * int(rng.integers(2, 5))
            emb = rng.standard_normal((len(labels), 6))
            triplets = batch_hard_mine(emb, labels)
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
        triplets = batch_hard_mine(emb, labels)
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
            assert batch_hard_mine(emb, labels) == _list_batch_hard_mine(emb, labels)
            dist = expert._pairwise_dist(emb)
            ties += sum(len(set(row)) < len(row) for row in dist.tolist())
        assert ties > 0

    def test_degenerate_batches_rejected(self):
        with pytest.raises(DataValidationError):
            batch_hard_mine(np.ones((3, 2)), ["a", "a", "a"])
        with pytest.raises(DataValidationError):
            batch_hard_mine(np.ones((3, 2)), ["a", "a", "b"])
        with pytest.raises(DataValidationError):
            batch_hard_mine(np.ones((3, 2)), ["a", "a"])


class TestEmbed:
    def test_unit_norm_and_formula(self):
        rng = np.random.default_rng(21)
        head = ExpertHead(rng.standard_normal((6, 4)), rng.standard_normal(4))
        v = rng.standard_normal(6)
        got = embed(head, v)
        raw = v @ head.w + head.b
        np.testing.assert_allclose(got, raw / np.linalg.norm(raw), atol=1e-12)
        assert np.linalg.norm(got) == pytest.approx(1.0, abs=1e-12)

    def test_embed_set_matches_embed(self, small_bundle):
        rng = np.random.default_rng(22)
        head = ExpertHead(rng.standard_normal((64, 8)), rng.standard_normal(8))
        eset = embed_set(head, small_bundle.raw_set)
        assert eset.dimension == 8
        assert eset.image_ids == small_bundle.raw_set.image_ids
        for rec in eset.records[:10]:
            np.testing.assert_allclose(
                rec.vector,
                embed(head, small_bundle.raw_set.vector(rec.image_id)),
                atol=1e-6,
            )

    def test_shape_mismatch_rejected(self):
        head = ExpertHead(np.ones((4, 2)), np.zeros(2))
        with pytest.raises(DataValidationError):
            embed(head, np.ones(5))


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
    triplets = batch_hard_mine(e, labels)
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


def test_expert_checkpoint_kind_checked(tmp_path):
    from ilrkit.fusion import init_adapter

    path = tmp_path / "adapter.ckpt"
    checkpoint.save_adapter(init_adapter(3, 2), path)
    with pytest.raises(DataValidationError, match="not an expert head"):
        checkpoint.load_expert(path)

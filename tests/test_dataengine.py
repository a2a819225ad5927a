import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ilrkit import dataengine, kernels
from ilrkit.dataengine import (
    ConversationRecord,
    DetectionTask,
    GalleryTask,
    SplitManifest,
    build_detection_tasks,
    build_gallery_tasks,
    build_gallery_tasks_per_category,
    check_gallery_task,
    emit_conversations,
    load_detection_tasks,
    load_gallery_tasks,
    load_split,
    make_split,
    parse_answer,
    save_jsonl,
    save_split,
)
from ilrkit.embedstore import EmbeddingRecord, EmbeddingSet, load_jsonl
from ilrkit.errors import DataValidationError


def _angle_set(entries):
    """entries: (image_id, instance_id, degrees) on the unit circle."""
    records = [
        EmbeddingRecord(
            image_id, instance_id, "object",
            np.array([math.cos(math.radians(deg)), math.sin(math.radians(deg))]),
        )
        for image_id, instance_id, deg in entries
    ]
    return EmbeddingSet.from_records("toy", records)


@pytest.fixture
def toy_pool():
    return _angle_set([
        ("a0", "A", 0.0),
        ("a1", "A", 5.0),
        ("b0", "B", 20.0),
        ("c0", "C", 45.0),
        ("d0", "D", 80.0),
        ("e0", "E", 170.0),
    ])


class TestMakeSplit:
    def test_arithmetic(self, toy_pool):
        ten = _angle_set([(f"i{j}", f"inst{j}", 3.0 * j) for j in range(10)])
        split = make_split(ten, 0.3, 1)
        assert len(split.test_instances) == 3
        assert len(split.train_instances) == 7
        assert split.train_instances | split.test_instances == set(ten.instance_index)

    def test_disjoint_and_deterministic(self, small_bundle):
        a = make_split(small_bundle.general_set, 0.3, 9)
        b = make_split(small_bundle.general_set, 0.3, 9)
        assert a == b
        assert not (a.train_instances & a.test_instances)
        c = make_split(small_bundle.general_set, 0.3, 10)
        assert c != a

    def test_extreme_fractions_clamped(self, toy_pool):
        tiny = make_split(toy_pool, 0.001, 0)
        assert len(tiny.test_instances) == 1
        huge = make_split(toy_pool, 0.999, 0)
        assert len(huge.train_instances) == 1

    def test_invalid_inputs(self, toy_pool):
        with pytest.raises(DataValidationError):
            make_split(toy_pool, 0.0, 0)
        with pytest.raises(DataValidationError):
            make_split(toy_pool, 1.0, 0)
        one = _angle_set([("a", "A", 0.0), ("b", "A", 1.0)])
        with pytest.raises(DataValidationError):
            make_split(one, 0.5, 0)

    def test_overlap_rejected(self):
        with pytest.raises(DataValidationError):
            SplitManifest(frozenset({"x"}), frozenset({"x", "y"}))


class TestGalleryTasks:
    def test_toy_pool_strict_distractors(self, toy_pool):
        # At tau=0.5 exactly {b0, c0} clear the threshold for either query
        # of instance A, so K=3 must use both, never relaxed.
        instances = set(toy_pool.instance_index)
        for seed in range(200):
            (task,) = build_gallery_tasks(toy_pool, instances, k=3, tau=0.5,
                                          n_tasks=1, seed=seed)
            assert not task.relaxed
            assert task.query_id in ("a0", "a1")
            distractors = set(task.gallery_ids) - {"a0", "a1"}
            assert distractors == {"b0", "c0"}
            check_gallery_task(task, toy_pool)

    def test_toy_pool_relaxed_fallback_order(self, toy_pool):
        # K=4 needs 3 distractors but only 2 clear tau: the third must be
        # the most similar below-threshold image (d0, not e0).
        instances = set(toy_pool.instance_index)
        for seed in range(50):
            (task,) = build_gallery_tasks(toy_pool, instances, k=4, tau=0.5,
                                          n_tasks=1, seed=seed)
            assert task.relaxed
            assert "d0" in task.gallery_ids
            assert "e0" not in task.gallery_ids

    def test_negative_tau_never_relaxed(self, toy_pool):
        tasks = build_gallery_tasks(toy_pool, set(toy_pool.instance_index),
                                    k=2, tau=-1.0, n_tasks=50, seed=0)
        assert not any(t.relaxed for t in tasks)
        for t in tasks:
            check_gallery_task(t, toy_pool)

    def test_hardest_takes_most_similar(self, toy_pool):
        instances = set(toy_pool.instance_index)
        for seed in range(20):
            (task,) = build_gallery_tasks(toy_pool, instances, k=2, tau=-1.0,
                                          n_tasks=1, seed=seed, hardest=True)
            # the single hardest distractor for either A-query is always b0
            assert set(task.gallery_ids) - {"a0", "a1"} == {"b0"}

    def test_invariants_and_determinism(self, small_bundle):
        side = set(small_bundle.general_set.instance_index)
        a = build_gallery_tasks(small_bundle.general_set, side, n_tasks=50, seed=4)
        b = build_gallery_tasks(small_bundle.general_set, side, n_tasks=50, seed=4)
        assert a == b
        for task in a:
            check_gallery_task(task, small_bundle.general_set)
            assert len(task.gallery_ids) == 5
        assert len({t.task_id for t in a}) == 50

    def test_pool_too_small_rejected(self):
        pool = _angle_set([("a0", "A", 0.0), ("a1", "A", 5.0), ("b0", "B", 30.0)])
        with pytest.raises(DataValidationError):
            build_gallery_tasks(pool, {"A", "B"}, k=3, tau=-1.0, n_tasks=1, seed=0)

    def test_k_one_rejected(self, toy_pool):
        with pytest.raises(DataValidationError, match="k must be >= 2"):
            build_gallery_tasks(toy_pool, set(toy_pool.instance_index), k=1)

    def test_split_side_restriction(self, small_bundle):
        split = make_split(small_bundle.general_set, 0.3, 2)
        tasks = build_gallery_tasks(small_bundle.general_set,
                                    split.test_instances, n_tasks=40, seed=1)
        for task in tasks:
            for image_id in (task.query_id, *task.gallery_ids):
                rec = small_bundle.general_set.record(image_id)
                assert rec.instance_id in split.test_instances

    def test_per_category_pools(self, small_bundle):
        side = set(small_bundle.general_set.instance_index)
        tasks = build_gallery_tasks_per_category(
            small_bundle.general_set, side, n_per_category=20, seed=1, tau=-1.0, k=3
        )
        assert len(tasks) == 40  # 2 categories x 20
        for task in tasks:
            for image_id in task.gallery_ids:
                assert small_bundle.general_set.record(image_id).category == task.category


# ---------------------------------------------------------------------------
# Reference: one task at a time, in plain Python over the same block
# uniforms: a per-image loop pool, a list-sorted ranking, Floyd's algorithm
# over lists and a sorted gallery order. The array builders must build the
# same tasks.


def _uniform_row(entropy, columns, t):
    """Task t's row of its block's uniforms: block t // 64 draws a
    (64, columns) array from the stream ``default_rng(entropy)``."""
    return np.random.default_rng(entropy).random((64, columns))[t % 64].tolist()


def _index(u, n):
    return min(int(u * n), n - 1)


def _floyd(us, size):
    picks = []
    for d, u in enumerate(us):
        hi = size - len(us) + d
        r = min(int(u * (hi + 1)), hi)
        picks.append(hi if r in picks else r)
    return picks


class _LoopSampler:
    def __init__(self, general, split_side):
        side = set(split_side)
        rows = [i for i, rec in enumerate(general.records) if rec.instance_id in side]
        matrix = np.asarray(general.matrix()[rows], dtype=np.float64)
        self.unit = matrix / np.linalg.norm(matrix, axis=1)[:, None]
        self.image_ids = [general.records[i].image_id for i in rows]
        self.instance_ids = [general.records[i].instance_id for i in rows]
        self.categories = [general.records[i].category for i in rows]
        self.by_instance = {}
        for local, inst in enumerate(self.instance_ids):
            self.by_instance.setdefault(inst, []).append(local)
        self.eligible = [
            local
            for inst, locals_ in sorted(self.by_instance.items())
            for local in locals_
            if len(locals_) >= 2
        ]

    def sims_to(self, local):
        return self.unit @ self.unit[local]

    def pick_query(self, row):
        query = self.eligible[_index(row[0], len(self.eligible))]
        siblings = [l for l in self.by_instance[self.instance_ids[query]] if l != query]
        return query, siblings[_index(row[1], len(siblings))]

    def distractor_pool(self, query, tau):
        """The other-instance images above tau, in local order, and the rest
        of them by (similarity desc, image_id asc)."""
        sims = self.sims_to(query)
        inst = self.instance_ids[query]
        above, below = [], []
        for local in range(len(self.image_ids)):
            if self.instance_ids[local] == inst:
                continue
            (above if sims[local] > tau else below).append(local)
        below.sort(key=lambda l: (-sims[l], self.image_ids[l]))
        return above, below

    def ranked(self, query, images):
        sims = self.sims_to(query)
        return sorted(images, key=lambda l: (-sims[l], self.image_ids[l]))


def _loop_gallery_tasks(general, split_side, k, tau, n_tasks, seed, hardest, prefix="g"):
    sampler = _LoopSampler(general, split_side)
    tasks = []
    for t in range(n_tasks):
        row = _uniform_row([seed, t // 64], 2 * k + 1, t)
        query, positive = sampler.pick_query(row)
        above, below = sampler.distractor_pool(query, tau)
        relaxed = len(above) < k - 1
        if relaxed or hardest:
            distractors = sampler.ranked(query, above + below)[:k - 1]
        else:
            distractors = [above[i] for i in _floyd(row[2:k + 1], len(above))]
        gallery = distractors + [positive]
        gallery = [gallery[i] for i in sorted(range(k), key=row[k + 1:].__getitem__)]
        tasks.append(GalleryTask(
            task_id=f"{prefix}{seed:08x}-{t:05d}",
            category=sampler.categories[query],
            query_id=sampler.image_ids[query],
            gallery_ids=tuple(sampler.image_ids[l] for l in gallery),
            answer_index=gallery.index(positive),
            tau=tau, relaxed=relaxed, seed=seed,
        ))
    return tasks


def _loop_detection_tasks(general, split_side, tau, n_tasks, positive_rate, seed):
    sampler = _LoopSampler(general, split_side)
    tasks = []
    for t in range(n_tasks):
        row = _uniform_row([seed, t // 64, 0xDE7], 4, t)
        query, positive = sampler.pick_query(row)
        is_match = row[2] < positive_rate
        if is_match:
            gallery = positive
        else:
            above, below = sampler.distractor_pool(query, tau)
            gallery = above[_index(row[3], len(above))] if above else below[0]
        tasks.append(DetectionTask(
            task_id=f"d{seed:08x}-{t:05d}",
            category=sampler.categories[query],
            query_id=sampler.image_ids[query],
            gallery_id=sampler.image_ids[gallery],
            is_match=is_match, tau=tau, seed=seed,
        ))
    return tasks


@pytest.fixture
def tied_pool():
    # y0 and z0 have identical vectors; record order (z0 first) differs from
    # image_id order (y0 first), so a row-index tie-break picks z0.
    return _angle_set([
        ("a0", "A", 0.0),
        ("a1", "A", 0.0),
        ("z0", "Z", 30.0),
        ("y0", "Y", 30.0),
        ("e0", "E", 90.0),
    ])


class TestAgainstLoopReference:
    @pytest.mark.parametrize("hardest", [False, True])
    @pytest.mark.parametrize("k", [2, 5])
    @pytest.mark.parametrize("tau", [-1.0, 0.2, 0.5, 0.8, 0.95])
    def test_gallery_tasks_equal(self, small_bundle, tau, k, hardest):
        general = small_bundle.general_set
        side = set(general.instance_index)
        got = build_gallery_tasks(general, side, k=k, tau=tau, n_tasks=80, seed=3,
                                  hardest=hardest)
        assert got == _loop_gallery_tasks(general, side, k, tau, 80, 3, hardest)

    @pytest.mark.parametrize("hardest", [False, True])
    @pytest.mark.parametrize("k", [2, 5])
    def test_one_call_builds_every_tier_as_one_build_per_tau(self, small_bundle, k, hardest):
        # strict, mixed and fully relaxed tiers at k 5, the mixed one first;
        # 80 tasks are two blocks of queries
        general = small_bundle.general_set
        side = set(general.instance_index)
        taus = (0.5, -1.0, 0.95)
        got = dataengine.build_gallery_tiers(general, side, {tau: f"s{tau:g}-" for tau in taus},
                                             k=k, n_tasks=80, seed=3, hardest=hardest)
        assert list(got) == list(taus)
        for tau in taus:
            assert got[tau] == _loop_gallery_tasks(general, side, k, tau, 80, 3, hardest,
                                                   prefix=f"s{tau:g}-")

    @pytest.mark.parametrize("hardest", [False, True])
    def test_per_category_tiers_equal_one_build_per_category_and_tau(self, small_bundle,
                                                                     hardest):
        general = small_bundle.general_set
        side = set(general.instance_index)
        taus = (0.8, 0.2)
        got = dataengine.build_gallery_tiers_per_category(
            general, side, {tau: f"t{tau:g}-" for tau in taus}, k=3, n_per_category=70,
            seed=5, hardest=hardest,
        )
        categories = sorted(dataengine._category_sides(general, side).items())
        assert len(categories) == 2
        for tau in taus:
            assert got[tau] == [
                task
                for category, instances in categories
                for task in _loop_gallery_tasks(
                    general, instances, 3, tau, 70, dataengine._category_seed(5, category),
                    hardest, prefix=f"t{tau:g}-{category}-",
                )
            ]
        assert 0 < sum(t.relaxed for t in got[0.8]) < len(got[0.8])

    @pytest.mark.parametrize("tau", [-1.0, 0.2, 0.5, 0.8, 0.95])
    def test_detection_tasks_equal(self, small_bundle, tau):
        general = small_bundle.general_set
        side = set(general.instance_index)
        got = build_detection_tasks(general, side, tau=tau, n_tasks=80, seed=3)
        assert got == _loop_detection_tasks(general, side, tau, 80, 0.5, 3)

    def test_grid_covers_strict_mixed_and_relaxed_tiers(self, small_bundle):
        # so the comparisons above exercise sampling, top-up and fallback alike
        general = small_bundle.general_set
        side = set(general.instance_index)
        relaxed = [
            sum(t.relaxed for t in build_gallery_tasks(general, side, k=5, tau=tau,
                                                       n_tasks=80, seed=3))
            for tau in (-1.0, 0.5, 0.95)
        ]
        assert relaxed[0] == 0 and 0 < relaxed[1] < 80 and relaxed[2] == 80

    def test_equal_similarities_break_by_image_id(self, tied_pool):
        instances = set(tied_pool.instance_index)
        sampler = dataengine._TaskSampler(tied_pool, instances)
        (sims,) = sampler.similarity_rows([0])
        assert sims[2] == sims[3]  # z0 and y0 tie exactly
        for seed in range(20):
            (relaxed,) = build_gallery_tasks(tied_pool, instances, k=2, tau=0.99,
                                             n_tasks=1, seed=seed)
            (hardest,) = build_gallery_tasks(tied_pool, instances, k=2, tau=-1.0,
                                             n_tasks=1, seed=seed, hardest=True)
            (negative,) = build_detection_tasks(tied_pool, instances, tau=0.99, n_tasks=1,
                                                positive_rate=0.0, seed=seed)
            assert relaxed.relaxed
            assert set(relaxed.gallery_ids) - {"a0", "a1"} == {"y0"}
            assert set(hardest.gallery_ids) - {"a0", "a1"} == {"y0"}
            assert negative.gallery_id == "y0"
            assert relaxed == _loop_gallery_tasks(tied_pool, instances, 2, 0.99, 1, seed,
                                                  False)[0]

    @pytest.mark.parametrize("hardest", [False, True])
    @pytest.mark.parametrize("k", [2, 3])
    def test_tied_tiers_equal_one_build_per_tau(self, tied_pool, k, hardest):
        # relaxed (0.99), all-above (-1.0) and tie-only (0.2) pools in one call
        instances = set(tied_pool.instance_index)
        taus = (0.99, -1.0, 0.2)
        for seed in range(20):
            got = dataengine.build_gallery_tiers(tied_pool, instances, {tau: "g" for tau in taus},
                                                 k=k, n_tasks=3, seed=seed, hardest=hardest)
            for tau in taus:
                assert got[tau] == _loop_gallery_tasks(tied_pool, instances, k, tau, 3, seed,
                                                       hardest)

    def test_similarity_rows_are_dot_scores_rows_bit_for_bit(self, default_bundle,
                                                             default_split):
        # one matrix product over a block of queries differs from a
        # matrix-vector product per query in the last bits (up to 4.4e-16 on
        # this side), which could flip a comparison with tau or a tie
        sampler = dataengine._TaskSampler(default_bundle.general_set,
                                          default_split.train_instances)
        assert len(sampler.rows) == 3360
        queries = list(range(0, len(sampler.rows), 53))[:dataengine._BLOCK]
        rows = sampler.similarity_rows(queries)
        want = np.stack([kernels.dot_scores(sampler.unit, sampler.unit[q]) for q in queries])
        assert rows.shape == (dataengine._BLOCK, 3360)
        assert rows.tobytes() == want.tobytes()


class TestBlockDraws:
    @pytest.mark.parametrize("side", ["train", "test"])
    def test_a_build_is_the_prefix_of_a_longer_one(self, small_bundle, side):
        general = small_bundle.general_set
        instances = getattr(make_split(general, 0.3, 2), f"{side}_instances")
        tiers = {0.2: "a-", 0.5: "b-", 0.8: "c-"}
        short, long = (dataengine.build_gallery_tiers(general, instances, tiers, k=4,
                                                      n_tasks=n, seed=6) for n in (100, 200))
        assert {tau: tasks[:100] for tau, tasks in long.items()} == short
        short, long = (build_detection_tasks(general, instances, n_tasks=n, seed=6)
                       for n in (100, 200))
        assert long[:100] == short

    def test_a_per_category_build_is_the_prefix_of_a_longer_one(self, small_bundle):
        general = small_bundle.general_set
        side = set(general.instance_index)
        short, long = (dataengine.build_gallery_tiers_per_category(
            general, side, {0.5: "t-"}, k=3, n_per_category=n, seed=6)[0.5] for n in (100, 200))
        categories = sorted({t.category for t in long})
        assert len(categories) == 2
        for category in categories:
            assert ([t for t in long if t.category == category][:100]
                    == [t for t in short if t.category == category])

    def test_relaxed_distractors_are_the_most_similar_other_instance_images(self,
                                                                           small_bundle):
        general = small_bundle.general_set
        side = set(general.instance_index)
        tasks = build_gallery_tasks(general, side, k=5, tau=0.8, n_tasks=150, seed=8)
        relaxed = [t for t in tasks if t.relaxed]
        assert len(relaxed) > 50
        ids, instances = general.image_ids, general.instance_ids
        matrix = np.asarray(general.matrix(), dtype=np.float64)
        unit = matrix / np.linalg.norm(matrix, axis=1)[:, None]
        for task in relaxed:
            q = ids.index(task.query_id)
            sims = unit @ unit[q]
            others = [i for i in range(len(ids)) if instances[i] != instances[q]]
            top = sorted(others, key=lambda i: (-sims[i], ids[i]))[:4]
            distractors = set(task.gallery_ids) - {task.gallery_ids[task.answer_index]}
            assert distractors == {ids[i] for i in top}

    def test_answers_and_picks_are_uniform(self):
        # one instance with two images, so every query is a0 or a1, and a
        # pool of the 8 other-instance images (tau -1): each of the 4 answer
        # places, and each pool image among a0's 3 distractors, must take
        # its uniform share within 4 standard deviations
        pool = _angle_set([("a0", "A", 0.0), ("a1", "A", 1.0)]
                          + [(f"x{j}", f"X{j}", 10.0 * (j + 1)) for j in range(8)])
        k, n = 4, 6400
        tasks = build_gallery_tasks(pool, set(pool.instance_index), k=k, tau=-1.0, n_tasks=n,
                                    seed=11)
        places = np.bincount([t.answer_index for t in tasks], minlength=k)
        assert np.all(abs(places - n / k) <= 4 * math.sqrt(n * (1 / k) * (1 - 1 / k))), places
        a0 = [t for t in tasks if t.query_id == "a0"]
        assert abs(len(a0) - n / 2) <= 4 * math.sqrt(n / 4)
        picks = [g for t in a0 for g in t.gallery_ids if g != "a1"]
        p = (k - 1) / 8
        for j in range(8):
            count = picks.count(f"x{j}")
            assert abs(count - len(a0) * p) <= 4 * math.sqrt(len(a0) * p * (1 - p)), (j, count)
        for task in tasks:
            check_gallery_task(task, pool)


class TestCheckGalleryTask:
    def _task(self, **overrides):
        base = dict(task_id="t0", category="object", query_id="a0",
                    gallery_ids=("b0", "a1", "c0"), answer_index=1,
                    tau=0.5, relaxed=False, seed=0)
        return GalleryTask(**{**base, **overrides})

    def test_clean_task_passes(self, toy_pool):
        check_gallery_task(self._task(), toy_pool)

    def test_wrong_answer_index(self, toy_pool):
        with pytest.raises(DataValidationError, match="positive"):
            check_gallery_task(self._task(answer_index=0), toy_pool)

    def test_query_in_gallery(self, toy_pool):
        with pytest.raises(DataValidationError, match="own gallery"):
            check_gallery_task(
                self._task(gallery_ids=("a0", "a1", "c0")), toy_pool
            )

    def test_duplicate_gallery(self, toy_pool):
        with pytest.raises(DataValidationError, match="duplicate"):
            check_gallery_task(
                self._task(gallery_ids=("b0", "a1", "b0")), toy_pool
            )

    def test_below_threshold_distractor(self, toy_pool):
        with pytest.raises(DataValidationError, match="<= tau"):
            check_gallery_task(
                self._task(gallery_ids=("b0", "a1", "e0")), toy_pool
            )


class TestDetectionTasks:
    def test_labels_match_identity(self, small_bundle):
        side = set(small_bundle.general_set.instance_index)
        tasks = build_detection_tasks(small_bundle.general_set, side,
                                      n_tasks=200, seed=5)
        for task in tasks:
            same = (
                small_bundle.general_set.record(task.query_id).instance_id
                == small_bundle.general_set.record(task.gallery_id).instance_id
            )
            assert same == task.is_match
            assert task.query_id != task.gallery_id

    def test_positive_rate_extremes(self, small_bundle):
        side = set(small_bundle.general_set.instance_index)
        all_pos = build_detection_tasks(small_bundle.general_set, side,
                                        n_tasks=50, positive_rate=1.0, seed=0)
        assert all(t.is_match for t in all_pos)
        all_neg = build_detection_tasks(small_bundle.general_set, side,
                                        n_tasks=50, positive_rate=0.0, seed=0)
        assert not any(t.is_match for t in all_neg)

    def test_positive_rate_binomial(self, small_bundle):
        side = set(small_bundle.general_set.instance_index)
        tasks = build_detection_tasks(small_bundle.general_set, side,
                                      n_tasks=5000, positive_rate=0.5, seed=1)
        rate = sum(t.is_match for t in tasks) / len(tasks)
        assert abs(rate - 0.5) <= 0.02

    def test_invalid_rate(self, toy_pool):
        with pytest.raises(DataValidationError):
            build_detection_tasks(toy_pool, set(toy_pool.instance_index),
                                  positive_rate=1.5)


class TestConversations:
    def _task(self, answer_index=2, category="person", query_id="q"):
        return GalleryTask(task_id="t0", category=category, query_id=query_id,
                           gallery_ids=("g1", "g2", "g3", "g4", "g5"),
                           answer_index=answer_index, tau=0.5, relaxed=False, seed=0)

    def test_mcq_target_and_images(self):
        (rec,) = emit_conversations([self._task()], "match_mcq")
        assert rec.target == "Image 3"
        assert rec.images == ("g1", "g2", "g3", "g4", "g5", "q")
        assert "Image 1 through Image 5" in rec.prompt

    def test_caption_subject_substitution(self):
        captions = {"q": "[SUBJECT] walks into the room wearing a blue shirt."}
        (rec,) = emit_conversations([self._task()], "caption", captions=captions)
        assert rec.target == "[Person 3] walks into the room wearing a blue shirt."

    def test_caption_label_word_per_category(self):
        captions = {"q": "[SUBJECT] sits."}
        (rec,) = emit_conversations(
            [self._task(answer_index=0, category="pet")], "caption", captions=captions
        )
        assert rec.target == "[Pet 1] sits."
        (rec,) = emit_conversations(
            [self._task(answer_index=0, category="statue")], "caption", captions=captions
        )
        assert rec.target == "[Statue 1] sits."

    def test_caption_placeholder_count_enforced(self):
        with pytest.raises(DataValidationError, match="exactly one"):
            emit_conversations([self._task()], "caption", captions={"q": "no marker"})
        with pytest.raises(DataValidationError, match="exactly one"):
            emit_conversations(
                [self._task()], "caption",
                captions={"q": "[SUBJECT] and [SUBJECT]"},
            )

    def test_missing_caption_rejected(self):
        with pytest.raises(DataValidationError, match="missing caption"):
            emit_conversations([self._task()], "caption", captions={})

    def test_unknown_stage_rejected(self):
        with pytest.raises(DataValidationError, match="stage"):
            emit_conversations([self._task()], "vqa")

    def test_template_captions_have_one_placeholder(self):
        captions = dataengine.template_captions([self._task()])
        assert captions["q"].count("[SUBJECT]") == 1


class TestParseAnswer:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("Image 3", 2),
            ("image2", 1),
            ("  The answer is Image 4.", 3),
            ("IMAGE 1", 0),
            ("5", 4),
            (" 2 ", 1),
            ("Image 2 or Image 3", 1),
            ("Image 7", None),
            ("0", None),
            ("no match", None),
            ("3 photos", None),
            ("", None),
        ],
    )
    def test_cases(self, text, expected):
        assert parse_answer(text, 5) == expected

    def test_invalid_k(self):
        with pytest.raises(DataValidationError):
            parse_answer("Image 1", 0)

    def test_round_trip_through_emitted_targets(self, small_bundle):
        side = set(small_bundle.general_set.instance_index)
        tasks = build_gallery_tasks(small_bundle.general_set, side,
                                    n_tasks=30, seed=2)
        for rec in emit_conversations(tasks, "match_mcq"):
            assert parse_answer(rec.target, 5) == rec.answer_index


class TestSerialization:
    def test_gallery_round_trip(self, toy_pool, tmp_path):
        tasks = build_gallery_tasks(toy_pool, set(toy_pool.instance_index),
                                    k=3, tau=0.5, n_tasks=10, seed=0)
        path = tmp_path / "tasks.jsonl"
        save_jsonl(tasks, path)
        assert load_gallery_tasks(path) == tasks

    def test_detection_round_trip(self, toy_pool, tmp_path):
        tasks = build_detection_tasks(toy_pool, set(toy_pool.instance_index),
                                      tau=-1.0, n_tasks=10, seed=0)
        path = tmp_path / "det.jsonl"
        save_jsonl(tasks, path)
        assert load_detection_tasks(path) == tasks

    def test_conversation_round_trip_fields(self, toy_pool, tmp_path):
        tasks = build_gallery_tasks(toy_pool, set(toy_pool.instance_index),
                                    k=3, tau=0.5, n_tasks=5, seed=0)
        records = emit_conversations(tasks, "match_mcq")
        path = tmp_path / "conv.jsonl"
        save_jsonl(records, path)
        loaded = load_jsonl(
            path, lambda o: ConversationRecord(**{**o, "images": tuple(o["images"])}),
            lambda record: record.task_id, "task_id",
        )
        assert loaded == records

    def test_bytes_match_asdict_writer(self, toy_pool, tmp_path):
        def asdict_writer(items, path):
            """Reference: the dataclasses.asdict writer that vars() replaced."""
            with open(path, "w", encoding="utf-8") as fh:
                for item in items:
                    obj = dataclasses.asdict(item)
                    for key, val in obj.items():
                        if isinstance(val, tuple):
                            obj[key] = list(val)
                        elif isinstance(val, frozenset):
                            obj[key] = sorted(val)
                    fh.write(json.dumps(obj, sort_keys=True) + "\n")

        tasks = build_gallery_tasks(toy_pool, set(toy_pool.instance_index),
                                    k=3, tau=0.5, n_tasks=10, seed=0)
        detection = build_detection_tasks(toy_pool, set(toy_pool.instance_index),
                                          tau=-1.0, n_tasks=10, seed=0)
        for items in (tasks, detection, emit_conversations(tasks, "match_mcq")):
            save_jsonl(items, tmp_path / "new.jsonl")
            asdict_writer(items, tmp_path / "old.jsonl")
            assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "old.jsonl").read_bytes()

    @settings(derandomize=True, database=None, deadline=None, max_examples=300,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_each_line_is_json_dumps_of_its_fields(self, tmp_path, data):
        text = st.text(st.one_of(st.sampled_from('"\\/\x00\x08\x1f\x7f\u2028é€😀'),
                                 st.characters()))
        number = st.one_of(st.sampled_from([1e-05, -0.0, 0.0, 0.5, 1e300, 2**64, -3]),
                           st.floats(), st.integers())
        seed = st.one_of(st.sampled_from([2**63, 2**64 + 1, -2**63 - 1]), st.integers())
        kind = data.draw(st.sampled_from([GalleryTask, DetectionTask, ConversationRecord]))
        fields = {
            GalleryTask: dict(task_id=text, category=text, query_id=text,
                              gallery_ids=st.lists(text, max_size=6).map(tuple),
                              answer_index=st.integers(), tau=number, relaxed=st.booleans(),
                              seed=seed),
            DetectionTask: dict(task_id=text, category=text, query_id=text, gallery_id=text,
                                is_match=st.booleans(), tau=number, seed=seed),
            ConversationRecord: dict(task_id=text, stage=text,
                                     images=st.lists(text, max_size=6).map(tuple), prompt=text,
                                     target=text, answer_index=st.integers(), category=text),
        }[kind]
        record = data.draw(st.builds(kind, **fields))
        save_jsonl([record, record], tmp_path / "lines.jsonl")
        obj = {key: list(v) if isinstance(v, tuple) else v for key, v in vars(record).items()}
        line = json.dumps(obj, sort_keys=True) + "\n"
        assert (tmp_path / "lines.jsonl").read_bytes() == 2 * line.encode()

    def test_a_type_without_a_line_format_is_an_error(self, tmp_path):
        split = SplitManifest(frozenset({"a"}), frozenset({"b"}))
        with pytest.raises(TypeError, match="no line format for SplitManifest"):
            save_jsonl([split], tmp_path / "split.jsonl")

    def test_split_round_trip(self, small_bundle, tmp_path):
        split = make_split(small_bundle.general_set, 0.3, 3)
        path = tmp_path / "split.json"
        save_split(split, path)
        assert load_split(path) == split

    def test_malformed_task_line_reported(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"task_id": "t0"}\n')
        with pytest.raises(DataValidationError, match="line 1"):
            load_gallery_tasks(path)


def test_tasks_are_frozen(toy_pool):
    (task,) = build_gallery_tasks(toy_pool, set(toy_pool.instance_index),
                                  k=3, tau=0.5, n_tasks=1, seed=0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        task.answer_index = 0


# The column task loader against the per-line one it falls back on:
# ``load_jsonl`` with ``_gallery_task``, which read every task file before
# the columns were checked at once. Each drawn file holds valid lines and
# at most one fault, in any line; the two must give the same tasks, or the
# same exception and message.

_FAULTS = {
    "task_id type": ("task_id", 5),
    "category type": ("category", None),
    "gallery type": ("gallery_ids", "g0"),
    "gallery element type": ("gallery_ids", ["g0", 3]),
    "answer type": ("answer_index", 1.0),
    "answer bool": ("answer_index", True),
    "tau type": ("tau", "0.5"),
    "relaxed type": ("relaxed", 1),
    "seed type": ("seed", 0.5),
    "one image": ("gallery_ids", ["g0"]),
    "no image": ("gallery_ids", []),
    "repeated image": ("gallery_ids", ["g0", "g1", "g0"]),
    "query in gallery": ("gallery_ids", ["g0", "q", "g1"]),
    "answer too large": ("answer_index", 3),
    "answer negative": ("answer_index", -1),
    "big tau": ("tau", 2**64 + 1),
    "negative big tau": ("tau", -2**63 - 5),
    "big seed": ("seed", 2**70),
    "big answer": ("answer_index", 2**64),
    "tau 2**63": ("tau", 2**63),
}
_TEXT_FAULTS = ["malformed", "not an object", "missing field", "non-UTF-8", "NaN tau",
                "repeated task_id", "blank line"]


def _task_object(i: int) -> dict:
    return {"task_id": f"t{i}", "category": "pet", "query_id": "q",
            "gallery_ids": ["g0", "g1", "g2"], "answer_index": i % 3, "tau": 0.5 + i / 1000,
            "relaxed": i % 2 == 0, "seed": i}


def _task_file_bytes(n, fault, at, reverse) -> bytes:
    objects = [_task_object(i) for i in range(n)]
    if fault in _FAULTS:
        field, value = _FAULTS[fault]
        objects[at][field] = value
    elif fault == "missing field":
        del objects[at]["seed"]
    elif fault == "repeated task_id":  # a copy of another line's task_id, with another seed
        objects.insert(at, dict(objects[at * 7 % n], seed=n))
    lines = [json.dumps(dict(list(o.items())[::-1] if reverse else o.items())).encode()
             for o in objects]
    if fault == "malformed":
        lines[at] = lines[at][:-1]
    elif fault == "not an object":
        lines[at] = b"[1, 2]"
    elif fault == "non-UTF-8":
        lines[at] = lines[at].replace(b'"pet"', b'"p\xffet"')
    elif fault == "NaN tau":
        lines[at] = lines[at].replace(b'"tau": ', b'"tau": NaN, "x": ')
    elif fault == "blank line":
        lines.insert(at, b"  ")
    return b"".join(line + b"\n" for line in lines)


def _repr_or_error(load, path):
    try:
        return repr(load(path))
    except Exception as exc:  # noqa: BLE001 - the exception itself is compared
        return type(exc), str(exc)


def _per_line_tasks(path):
    return load_jsonl(path, dataengine._gallery_task, dataengine._task_id, "task_id")


class TestColumnTaskLoader:
    @settings(derandomize=True, database=None, deadline=None, max_examples=150,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.integers(1, 150), fault=st.sampled_from([None, *_FAULTS, *_TEXT_FAULTS]),
           at=st.integers(0, 2**16), reverse=st.booleans())
    def test_same_as_the_per_line_loader(self, tmp_path, monkeypatch, n, fault, at, reverse):
        path = tmp_path / "tasks.jsonl"
        path.write_bytes(_task_file_bytes(n, fault, at % n, reverse))
        want = _repr_or_error(_per_line_tasks, path)
        per_line = []
        monkeypatch.setattr(dataengine, "load_jsonl",
                            lambda *args: per_line.append(args) or load_jsonl(*args))
        assert _repr_or_error(load_gallery_tasks, path) == want
        # a file without a fault is read once, as columns; one whose numbers
        # json may read otherwise than orjson is read again, line by line
        assert bool(per_line) is (fault not in (None, "blank line"))

    def test_tasks_are_the_dataclass(self, tmp_path):
        path = tmp_path / "tasks.jsonl"
        path.write_bytes(_task_file_bytes(70, None, 0, False))
        tasks = load_gallery_tasks(path)
        assert tasks == [GalleryTask(**{**_task_object(i), "gallery_ids": ("g0", "g1", "g2")})
                         for i in range(70)]
        assert all(type(t.gallery_ids) is tuple for t in tasks)
        assert len(set(tasks)) == 70  # hashable, as the frozen dataclass is
        with pytest.raises(dataclasses.FrozenInstanceError):
            tasks[0].tau = 0.1

    def test_empty_file(self, tmp_path):
        path = tmp_path / "tasks.jsonl"
        path.write_text("\n \n")
        assert load_gallery_tasks(path) == []

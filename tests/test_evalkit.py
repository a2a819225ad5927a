import dataclasses

import numpy as np
import pytest

from ilrkit import evalkit, fusion, simcore
from ilrkit.dataengine import DetectionTask, GalleryTask, build_gallery_tasks
from ilrkit.embedstore import EmbeddingRecord, EmbeddingSet
from ilrkit.errors import DataValidationError
from ilrkit.evalkit import (
    PredictionLog,
    macro_average,
    matcher_accuracy,
    score_captions,
    score_detection,
    score_matching,
    similarity_matcher,
    sweep_difficulty,
)
from reference import score_gallery


def _tasks(per_category_counts):
    """per_category_counts: {category: n} -> n K=5 tasks each, answer 0."""
    tasks = []
    for category, n in per_category_counts.items():
        for i in range(n):
            tasks.append(
                GalleryTask(
                    task_id=f"{category}-{i:04d}", category=category, query_id="q",
                    gallery_ids=("g1", "g2", "g3", "g4", "g5"), answer_index=0,
                    tau=0.5, relaxed=False, seed=0,
                )
            )
    return tasks


def _log_with_accuracy(tasks, n_correct_per_category):
    entries, seen = {}, {}
    for task in tasks:
        hit = seen.get(task.category, 0) < n_correct_per_category[task.category]
        seen[task.category] = seen.get(task.category, 0) + 1
        entries[task.task_id] = "Image 1" if hit else "Image 2"
    return PredictionLog(entries=entries, model_name="synthetic")


class TestScoreMatching:
    def test_reference_macro_average(self):
        # 89.8 / 75.4 / 72.8 / 79.6 per category -> macro mean 79.4
        tasks = _tasks({"person": 500, "face": 500, "pet": 500, "object": 500})
        log = _log_with_accuracy(
            tasks, {"person": 449, "face": 377, "pet": 364, "object": 398}
        )
        report = score_matching(tasks, log)
        assert report.per_category["person"].accuracy == pytest.approx(0.898)
        assert report.per_category["face"].accuracy == pytest.approx(0.754)
        assert report.per_category["pet"].accuracy == pytest.approx(0.728)
        assert report.per_category["object"].accuracy == pytest.approx(0.796)
        assert 100.0 * report.average == pytest.approx(79.4, abs=0.05)

    def test_parse_failures_count_as_incorrect(self):
        tasks = _tasks({"pet": 4})
        entries = {t.task_id: r for t, r in zip(tasks, ["Image 1", "Image 1", "???", "Image 9"])}
        report = score_matching(tasks, PredictionLog(entries=entries))
        assert report.per_category["pet"].accuracy == pytest.approx(0.5)
        assert report.per_category["pet"].parse_failures == 2

    def test_integer_responses_accepted(self):
        tasks = _tasks({"pet": 2})
        report = score_matching(
            tasks, PredictionLog(entries={tasks[0].task_id: 0, tasks[1].task_id: 4})
        )
        assert report.per_category["pet"].accuracy == pytest.approx(0.5)

    def test_missing_response_rejected(self):
        tasks = _tasks({"pet": 2})
        with pytest.raises(DataValidationError, match="no logged response"):
            score_matching(tasks, PredictionLog(entries={tasks[0].task_id: "Image 1"}))

    def test_empty_tasks_rejected(self):
        with pytest.raises(DataValidationError):
            score_matching([], PredictionLog(entries={}))

    def test_macro_not_sample_weighted(self):
        # 100 easy person tasks all correct, 2 pet tasks all wrong:
        # macro average is 50%, not ~98%
        tasks = _tasks({"person": 100, "pet": 2})
        log = _log_with_accuracy(tasks, {"person": 100, "pet": 0})
        assert score_matching(tasks, log).average == pytest.approx(0.5)


def test_macro_average():
    assert macro_average([0.898, 0.754, 0.728, 0.796]) == pytest.approx(0.794)
    with pytest.raises(DataValidationError):
        macro_average([])


def _detection_tasks(n_pos, n_neg):
    tasks = []
    for i in range(n_pos):
        tasks.append(DetectionTask(f"p{i:04d}", "person", "q", "g", True, 0.5, 0))
    for i in range(n_neg):
        tasks.append(DetectionTask(f"n{i:04d}", "person", "q", "g", False, 0.5, 0))
    return tasks


def _detection_log(tasks, correct_pos, correct_neg):
    entries, cp, cn = {}, 0, 0
    for task in tasks:
        if task.is_match:
            right = cp < correct_pos
            cp += 1
            entries[task.task_id] = "yes" if right else "no"
        else:
            right = cn < correct_neg
            cn += 1
            entries[task.task_id] = "no" if right else "yes"
    return PredictionLog(entries=entries)


class TestScoreDetection:
    def test_reference_equal_count_weighted(self):
        # 96.6 positive / 90.9 negative at equal counts -> 93.75 weighted
        tasks = _detection_tasks(1000, 1000)
        log = _detection_log(tasks, 966, 909)
        score = score_detection(tasks, log)
        assert score.positive == pytest.approx(0.966)
        assert score.negative == pytest.approx(0.909)
        assert score.weighted == pytest.approx(0.9375)
        assert f"{100 * score.weighted:.1f}" == "93.8"

    def test_sample_weighting_vs_equal_weight_flag(self):
        tasks = _detection_tasks(300, 100)
        log = _detection_log(tasks, 300, 0)
        weighted = score_detection(tasks, log)
        assert weighted.weighted == pytest.approx(0.75)
        equal = score_detection(tasks, log, equal_weight=True)
        assert equal.weighted == pytest.approx(0.5)

    def test_response_parsing_variants(self):
        tasks = _detection_tasks(2, 2)
        entries = {
            tasks[0].task_id: "Yes, it is the same pet.",
            tasks[1].task_id: "NO",
            tasks[2].task_id: "No.",
            tasks[3].task_id: "maybe",
        }
        score = score_detection(tasks, PredictionLog(entries=entries))
        assert score.positive == pytest.approx(0.5)
        assert score.negative == pytest.approx(0.5)

    def test_boolean_responses(self):
        tasks = _detection_tasks(1, 1)
        entries = {tasks[0].task_id: True, tasks[1].task_id: False}
        score = score_detection(tasks, PredictionLog(entries=entries))
        assert score.weighted == pytest.approx(1.0)


class TestScoreCaptions:
    def test_identical_embeddings_score_100(self):
        v = [0.3, 0.4, 0.5]
        pairs = [{"caption_embedding": v, "image_embedding": v, "reference_embedding": v}]
        score = score_captions(pairs)
        assert score.image_alignment == pytest.approx(100.0)
        assert score.text_alignment == pytest.approx(100.0)

    def test_orthogonal_and_negative_clamp_to_zero(self):
        pairs = [{
            "caption_embedding": [1.0, 0.0],
            "image_embedding": [0.0, 1.0],
            "reference_embedding": [-1.0, 0.0],
        }]
        score = score_captions(pairs)
        assert score.image_alignment == pytest.approx(0.0)
        assert score.text_alignment == pytest.approx(0.0)

    def test_three_pair_mean(self):
        e1, e2 = [1.0, 0.0], [1.0, 1.0]
        pairs = [
            {"caption_embedding": e1, "image_embedding": e1, "reference_embedding": e1},
            {"caption_embedding": e1, "image_embedding": e2, "reference_embedding": e1},
            {"caption_embedding": e1, "image_embedding": [0.0, 1.0], "reference_embedding": e1},
        ]
        score = score_captions(pairs)
        expected = (100.0 + 100.0 / np.sqrt(2.0) + 0.0) / 3.0
        assert score.image_alignment == pytest.approx(expected, abs=1e-9)
        assert score.text_alignment == pytest.approx(100.0)

    def test_empty_rejected(self):
        with pytest.raises(DataValidationError):
            score_captions([])


class TestMatchers:
    def test_similarity_matcher_is_eq2_argmax(self, small_bundle):
        side = set(small_bundle.general_set.instance_index)
        tasks = build_gallery_tasks(small_bundle.general_set, side, n_tasks=30, seed=6)
        matcher = similarity_matcher(small_bundle.general_set)
        from ilrkit import simcore

        for task in tasks:
            q = small_bundle.general_set.vector(task.query_id)
            best, score = 0, -np.inf
            for i, gid in enumerate(task.gallery_ids):
                s = simcore.similarity(q, small_bundle.general_set.vector(gid))
                if s > score:
                    best, score = i, s
            assert matcher(task) == best

    def test_matcher_accuracy_oracle(self, small_bundle):
        side = set(small_bundle.general_set.instance_index)
        tasks = build_gallery_tasks(small_bundle.general_set, side, n_tasks=20, seed=7)
        assert matcher_accuracy(tasks, lambda t: t.answer_index) == 1.0
        always_wrong = lambda t: (t.answer_index + 1) % len(t.gallery_ids)
        assert matcher_accuracy(tasks, always_wrong) == 0.0


def _loop_predictions(tasks, vector, kind):
    """The per-task reference: score_gallery over float64 vectors, then argmax."""
    preds = []
    for task in tasks:
        query = np.asarray(vector(task.query_id), dtype=np.float64)
        gallery = np.asarray([vector(g) for g in task.gallery_ids], dtype=np.float64)
        preds.append(int(np.argmax(score_gallery(query, gallery, kind))))
    return preds


def _mixed_tasks(general, n_tasks):
    """Every tier at K = 2, 3 and 5, interleaved, plus copies whose gallery
    repeats the answer image in front of it. BLAS rounds a row's dot product
    differently at different row positions, so a repeated image need not
    score the same twice; batched scoring must round exactly as the loop."""
    side = set(general.instance_index)
    built = [
        build_gallery_tasks(general, side, k=k, tau=tau, n_tasks=n_tasks, seed=5,
                            task_prefix=f"k{k}t{tau:g}-")
        for tau in (0.2, 0.5, 0.8) for k in (2, 3, 5)
    ]
    tasks = [t for group in zip(*built) for t in group]
    tied = [
        dataclasses.replace(t, task_id=f"repeat-{t.task_id}",
                            gallery_ids=(t.gallery_ids[t.answer_index], *t.gallery_ids),
                            answer_index=0)
        for t in tasks[::4]
    ]
    return tasks + tied


def _fused_views(bundle):
    """An untrained adapter with the raw view standing in for the expert vectors."""
    maps = {t.image_id: t for t in bundle.token_maps}
    vectors = {r.image_id: np.asarray(r.vector, dtype=np.float64)
               for r in bundle.raw_set.records}
    adapter = fusion.init_adapter(bundle.raw_set.dimension,
                                  bundle.token_maps[0].tokens.shape[1], seed=3)
    return adapter, maps, vectors


class TestBatchedAgainstLoopReference:
    @pytest.mark.parametrize("chunk", [1, 7, 256])
    @pytest.mark.parametrize("kind", ["cosine", "dot"])
    @pytest.mark.parametrize("view", ["general", "raw"])
    def test_embedding_view(self, small_bundle, monkeypatch, chunk, kind, view):
        monkeypatch.setattr(simcore, "_CHUNK", chunk)
        eset = getattr(small_bundle, f"{view}_set")
        tasks = _mixed_tasks(small_bundle.general_set, 40)
        matcher = evalkit.similarity_matcher(eset, kind)
        expected = _loop_predictions(tasks, eset.vector, kind)
        assert matcher.predict(tasks) == expected
        assert [matcher(t) for t in tasks[:50]] == expected[:50]
        assert evalkit.matcher_accuracy(tasks, matcher) == pytest.approx(
            np.mean([p == t.answer_index for p, t in zip(expected, tasks)])
        )

    @pytest.mark.parametrize("chunk", [1, 7, 256])
    def test_fused_view(self, small_bundle, monkeypatch, chunk):
        monkeypatch.setattr(simcore, "_CHUNK", chunk)
        adapter, maps, vectors = _fused_views(small_bundle)
        tasks = _mixed_tasks(small_bundle.general_set, 40)
        expected = _loop_predictions(
            tasks, lambda i: fusion.pooled_fused(adapter, maps[i], vectors[i]), "cosine"
        )
        assert evalkit.fused_matcher(adapter, maps, vectors).predict(tasks) == expected

    def test_grid_covers_sizes_and_chunk_boundaries(self, small_bundle):
        # so the comparisons above cross chunk edges inside each size group
        tasks = _mixed_tasks(small_bundle.general_set, 40)
        sizes = {len(t.gallery_ids) for t in tasks}
        assert sizes == {2, 3, 4, 5, 6}
        assert all(sum(len(t.gallery_ids) == s for t in tasks) > 7 for s in sizes)
        assert len(tasks) > 256

    @pytest.mark.parametrize("kind", ["cosine", "dot"])
    def test_exact_ties_go_to_the_lowest_index(self, kind):
        # small integers: every product and sum is exact, so equal vectors
        # score exactly the same wherever they stand
        rng = np.random.default_rng(9)
        base = rng.integers(-3, 4, size=(6, 8)).astype(np.float32)
        base[base.sum(axis=1) == 0, 0] = 5.0  # no zero vectors
        view = EmbeddingSet.from_records("ints", [
            EmbeddingRecord(f"v{i}c{c}", f"v{i}", "object", base[i])
            for i in range(6) for c in range(3)
        ])
        tasks = []
        for n in range(60):
            ids = rng.permutation([f"v{i}c{c}" for i in range(6) for c in range(3)])
            size = 2 + n % 5
            tasks.append(GalleryTask(f"t{n}", "object", str(ids[0]),
                                     tuple(str(i) for i in ids[1 : 1 + size]), 0, 0.5,
                                     False, 0))
        preds = evalkit.similarity_matcher(view, kind).predict(tasks)
        assert preds == _loop_predictions(tasks, view.vector, kind)
        ties = 0
        for task, pred in zip(tasks, preds):
            scores = score_gallery(view.vector(task.query_id),
                                           [view.vector(g) for g in task.gallery_ids], kind)
            assert pred == int(np.flatnonzero(scores == scores.max())[0])
            ties += int((scores == scores.max()).sum() > 1)
        assert ties > 10

    def test_scores_are_bit_equal_to_score_gallery(self):
        rng = np.random.default_rng(5)
        for kind in ("cosine", "dot"):
            for d in (3, 16, 64, 100):
                for _ in range(50):
                    query, gallery = rng.standard_normal(d), rng.standard_normal((6, d))
                    got = simcore.match_by_similarity(query, gallery, kind).scores
                    assert np.array_equal(got, score_gallery(query, gallery, kind))

    def test_fused_matcher_one_task_at_a_time(self, small_bundle, monkeypatch):
        adapter, maps, vectors = _fused_views(small_bundle)
        tasks = _mixed_tasks(small_bundle.general_set, 10)
        expected = evalkit.fused_matcher(adapter, maps, vectors).predict(tasks)
        pooled = []
        pooled_fused = fusion.pooled_fused

        def counting(adapter, tokens, expert_vec):
            pooled.append(tokens.image_id)
            return pooled_fused(adapter, tokens, expert_vec)

        monkeypatch.setattr(fusion, "pooled_fused", counting)
        matcher = evalkit.fused_matcher(adapter, maps, vectors)
        assert [matcher(t) for t in tasks] == expected
        # each image is pooled once per matcher, however it is called
        assert len(pooled) == len(set(pooled)) == len(
            {i for t in tasks for i in (t.query_id, *t.gallery_ids)}
        )
        assert evalkit.matcher_accuracy(tasks, matcher) == pytest.approx(
            np.mean([p == t.answer_index for p, t in zip(expected, tasks)])
        )
        assert len(pooled) == len(set(pooled))  # the batched pass reused the pooled images


def _view_with_zero(general, image_id):
    """``general`` with the vector of ``image_id`` replaced by zeros."""
    return EmbeddingSet.from_records("general", [
        EmbeddingRecord(r.image_id, r.instance_id, r.category, np.zeros_like(r.vector))
        if r.image_id == image_id else r
        for r in general.records
    ])


class TestErrorOrder:
    """Errors come in task order, as if every task were scored alone."""

    def _tasks(self, small_bundle):
        side = set(small_bundle.general_set.instance_index)
        return build_gallery_tasks(small_bundle.general_set, side, n_tasks=30, seed=4)

    def _missing(self, task, name="nope"):
        return dataclasses.replace(task, gallery_ids=(*task.gallery_ids[:-1], name))

    def test_missing_image_names_the_first_such_task(self, small_bundle, monkeypatch):
        monkeypatch.setattr(simcore, "_CHUNK", 4)
        tasks = self._tasks(small_bundle)
        tasks[21] = self._missing(tasks[21], "late")
        tasks[9] = self._missing(tasks[9], "early")
        matcher = evalkit.similarity_matcher(small_bundle.general_set)
        for call in (matcher.predict, lambda ts: evalkit.matcher_accuracy(ts, matcher)):
            with pytest.raises(DataValidationError) as info:
                call(tasks)
            assert str(info.value) == (
                f"task {tasks[9].task_id!r}: image 'early' is not in the "
                "'general' embedding set"
            )

    def test_zero_vector_before_a_missing_image_wins(self, small_bundle):
        tasks = self._tasks(small_bundle)
        view = _view_with_zero(small_bundle.general_set, tasks[3].query_id)
        tasks[12] = self._missing(tasks[12])
        with pytest.raises(DataValidationError,
                           match="^cosine similarity is undefined for zero vectors$"):
            evalkit.similarity_matcher(view).predict(tasks)
        # under dot a zero vector is no error, so the missing image is reported
        with pytest.raises(DataValidationError, match=tasks[12].task_id):
            evalkit.similarity_matcher(view, "dot").predict(tasks)

    def test_missing_image_before_a_zero_vector_wins(self, small_bundle):
        tasks = self._tasks(small_bundle)
        zero = next(i for i in tasks[20].gallery_ids
                    if i not in {x for t in tasks[:20] for x in (t.query_id, *t.gallery_ids)})
        view = _view_with_zero(small_bundle.general_set, zero)
        tasks[5] = self._missing(tasks[5])
        with pytest.raises(DataValidationError, match=tasks[5].task_id):
            evalkit.similarity_matcher(view).predict(tasks)
        with pytest.raises(DataValidationError, match="zero vectors"):
            evalkit.similarity_matcher(view).predict(tasks[6:])

    @pytest.mark.parametrize("diverging, missing", [(5, 15), (15, 5)])
    def test_fused_view_errors_come_in_task_order(self, small_bundle, diverging, missing):
        adapter, maps, vectors = _fused_views(small_bundle)
        maps, vectors = dict(maps), dict(vectors)
        tasks = self._tasks(small_bundle)

        def first_used_by(i):  # an image no task before task i uses
            seen = {x for t in tasks[:i] for x in (t.query_id, *t.gallery_ids)}
            return next(x for x in (tasks[i].query_id, *tasks[i].gallery_ids) if x not in seen)

        bad = first_used_by(diverging)
        vectors[bad] = np.full_like(vectors[bad], np.inf)  # its pooled vector is not finite
        gone = first_used_by(missing)
        del maps[gone]
        matcher = evalkit.fused_matcher(adapter, maps, vectors)
        if diverging < missing:
            with pytest.raises(fusion.DivergenceError), np.errstate(invalid="ignore"):
                matcher.predict(tasks)
        else:
            with pytest.raises(DataValidationError,
                               match=f"^task '{tasks[missing].task_id}': image '{gone}' "
                                     "is not in the token maps or expert vectors$"):
                matcher.predict(tasks)


class TestSweep:
    def test_identical_matchers_zero_gap(self, small_bundle):
        side = set(small_bundle.general_set.instance_index)
        matcher = similarity_matcher(small_bundle.general_set)
        result = sweep_difficulty(
            small_bundle.general_set, side,
            {"general": matcher, "clone": matcher},
            taus=(0.2, 0.5), n_tasks=20, seed=1,
        )
        assert result.baseline == "general"
        assert result.gaps["clone"] == {0.2: 0.0, 0.5: 0.0}
        assert result.accuracies["clone"] == result.accuracies["general"]

    def test_missing_baseline_rejected(self, small_bundle):
        side = set(small_bundle.general_set.instance_index)
        with pytest.raises(DataValidationError, match="baseline"):
            sweep_difficulty(small_bundle.general_set, side, {"x": lambda t: 0},
                             taus=(0.2, 0.5), n_tasks=5)

    def test_to_dict_structure(self, small_bundle):
        side = set(small_bundle.general_set.instance_index)
        matcher = similarity_matcher(small_bundle.general_set)
        result = sweep_difficulty(small_bundle.general_set, side,
                                  {"general": matcher}, taus=(0.2, 0.5),
                                  n_tasks=10, seed=2)
        obj = result.to_dict()
        assert set(obj["accuracies"]["general"]) == {"0.2", "0.5"}


class TestReportRendering:
    def test_table_shows_percentages(self):
        tasks = _tasks({"person": 10, "pet": 10})
        log = _log_with_accuracy(tasks, {"person": 9, "pet": 5})
        report = score_matching(tasks, log)
        text = report.render_table()
        assert "90.0" in text and "50.0" in text and "70.0" in text

    def test_json_round_trip(self):
        import json

        tasks = _tasks({"person": 10})
        log = _log_with_accuracy(tasks, {"person": 7})
        report = score_matching(tasks, log)
        obj = json.loads(report.to_json())
        assert obj["per_category"]["person"]["accuracy"] == pytest.approx(0.7)
        assert obj["average"] == pytest.approx(0.7)

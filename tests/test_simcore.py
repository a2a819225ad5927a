import math

import numpy as np
import pytest

from ilrkit import simcore
from ilrkit.errors import DataValidationError
from reference import score_gallery


class TestSimilarity:
    def test_identical_unit_vectors(self):
        assert simcore.similarity([1.0, 0.0], [1.0, 0.0]) == 1.0

    def test_orthogonal(self):
        assert simcore.similarity([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_opposite(self):
        assert simcore.similarity([1.0, 0.0], [-1.0, 0.0]) == -1.0

    def test_forty_five_degrees(self):
        got = simcore.similarity([1.0, 0.0], [1.0, 1.0])
        assert got == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)

    def test_scale_invariance_of_cosine(self):
        a, b = [0.3, -1.2, 0.7], [2.0, 0.1, -0.4]
        base = simcore.similarity(a, b)
        assert simcore.similarity([5 * x for x in a], b) == pytest.approx(base, abs=1e-12)
        assert simcore.similarity(a, [0.01 * x for x in b]) == pytest.approx(base, abs=1e-12)

    def test_dot_kind(self):
        assert simcore.similarity([1.0, 2.0], [3.0, 4.0], "dot") == 11.0

    def test_clamped_to_unit_interval(self):
        v = [0.1] * 64
        assert simcore.similarity(v, v) <= 1.0

    def test_zero_vector_rejected(self):
        with pytest.raises(DataValidationError):
            simcore.similarity([0.0, 0.0], [1.0, 0.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataValidationError):
            simcore.similarity([1.0], [1.0, 2.0])

    def test_unknown_kind_rejected(self):
        with pytest.raises(DataValidationError):
            simcore.similarity([1.0], [1.0], "euclid")


class TestMatchBySimilarity:
    def test_against_linear_scan_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            gallery = rng.standard_normal((10, 8))
            query = rng.standard_normal(8)
            result = simcore.match_by_similarity(query, gallery)
            oracle_best, oracle_score = 0, -np.inf
            for i, row in enumerate(gallery):
                s = float(query @ row) / (np.linalg.norm(query) * np.linalg.norm(row))
                if s > oracle_score:
                    oracle_best, oracle_score = i, s
            assert result.best_index == oracle_best
            assert result.scores[oracle_best] == pytest.approx(oracle_score, abs=1e-12)

    def test_ties_break_to_lowest_index(self):
        gallery = [[0.0, 1.0], [0.0, 2.0], [1.0, 0.0]]
        result = simcore.match_by_similarity([0.0, 3.0], gallery)
        assert result.best_index == 0

    def test_query_scaling_does_not_change_match(self):
        rng = np.random.default_rng(7)
        gallery = rng.standard_normal((6, 5))
        query = rng.standard_normal(5)
        base = simcore.match_by_similarity(query, gallery).best_index
        assert simcore.match_by_similarity(2.0 * query, gallery).best_index == base
        assert simcore.match_by_similarity(0.001 * query, gallery).best_index == base

    def test_dot_kind_prefers_magnitude(self):
        gallery = [[1.0, 0.0], [10.0, 0.0]]
        assert simcore.match_by_similarity([1.0, 0.0], gallery, "dot").best_index == 1
        assert simcore.match_by_similarity([1.0, 0.0], gallery, "cosine").best_index == 0

    def test_empty_gallery_rejected(self):
        with pytest.raises(DataValidationError):
            simcore.match_by_similarity([1.0, 0.0], [])


def test_score_gallery_dimension_mismatch():
    with pytest.raises(DataValidationError):
        score_gallery(np.ones(3), np.ones((4, 2)))

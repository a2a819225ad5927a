import numpy as np
import pytest

from ilrkit import kernels


@pytest.fixture
def rng():
    return np.random.default_rng(123)


def test_backend_is_known():
    # perfbench records BACKEND and traces only functions defined in this module
    assert kernels.BACKEND == "numpy"
    assert kernels.dot_scores.__module__ == "ilrkit.kernels"


def test_dot_scores_matches_numpy(rng):
    matrix = rng.standard_normal((200, 33))
    query = rng.standard_normal(33)
    got = kernels.dot_scores(matrix, query)
    assert got.dtype == np.float64
    np.testing.assert_allclose(got, matrix @ query, rtol=0, atol=1e-12)


def test_dimension_mismatch_raises(rng):
    with pytest.raises(ValueError):
        kernels.dot_scores(rng.standard_normal((5, 4)), rng.standard_normal(3))


def test_float32_input_accumulates_in_float64(rng):
    matrix = rng.standard_normal((50, 8)).astype(np.float32)
    query = rng.standard_normal(8).astype(np.float32)
    got = kernels.dot_scores(matrix, query)
    expected = matrix.astype(np.float64) @ query.astype(np.float64)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

"""Reference computations the tests check the batched program paths against."""

import numpy as np

from ilrkit.errors import DataValidationError


def score_gallery(query, gallery, kind: str = "cosine") -> np.ndarray:
    """Scores of ``query`` (d,) against every row of ``gallery`` (n, d), in
    float64, one row set at a time: a matrix-vector product, divided for the
    cosine kind by the query norm and the row norms as ``np.linalg.norm``
    computes them. ``simcore.match_batch`` must give bit-equal scores."""
    if kind not in ("cosine", "dot"):
        raise DataValidationError(f"unknown similarity kind {kind!r}")
    query = np.ascontiguousarray(query, dtype=np.float64)
    gallery = np.ascontiguousarray(gallery, dtype=np.float64)
    if gallery.ndim != 2 or gallery.shape[0] == 0 or gallery.shape[1] != query.shape[0]:
        raise DataValidationError(
            f"gallery {gallery.shape} does not match query {query.shape}"
        )
    scores = gallery @ query
    if kind == "cosine":
        nq = float(np.linalg.norm(query))
        ng = np.linalg.norm(gallery, axis=1)
        if nq == 0.0 or np.any(ng == 0.0):
            raise DataValidationError("cosine similarity is undefined for zero vectors")
        scores = scores / (nq * ng)
    return scores

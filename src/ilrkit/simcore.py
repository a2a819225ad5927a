"""Exact similarity computation and brute-force instance matching.

Supports cosine and dot-product similarity. Scores are always accumulated
in 64-bit floats so that ranking and tie behavior are stable even over
32-bit inputs. Everything here is a pure function over immutable inputs;
callers may parallelize over queries freely.

Gallery matching is batched: ``match_batch`` scores many (query, gallery)
rows in chunks of stacked float64 blocks, and ``match_by_similarity`` is its
one-row case. A chunk goes through the float64 operations of scoring each
row alone (a matrix-vector product per row, the query norm as a dot
product, the gallery norms as ``np.linalg.norm`` computes them), so every
score is bit-equal to scoring that row alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DataValidationError

KINDS = ("cosine", "dot")
DEFAULT_KIND = "cosine"

_ZERO_TOL = 0.0  # exact zero norm is the error condition


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise DataValidationError(f"unknown similarity kind {kind!r}, expected one of {KINDS}")


@dataclass(frozen=True)
class MatchResult:
    """Argmax match over a gallery plus the full score list for diagnostics."""

    best_index: int
    scores: np.ndarray  # float64, one score per gallery item


def similarity(a: Sequence[float], b: Sequence[float], kind: str = DEFAULT_KIND) -> float:
    """Similarity of two vectors; cosine lies in [-1, 1], dot is unbounded."""
    _check_kind(kind)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise DataValidationError(f"vector length mismatch: {a.shape} vs {b.shape}")
    dot = float(a @ b)
    if kind == "dot":
        return dot
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == _ZERO_TOL or nb == _ZERO_TOL:
        raise DataValidationError("cosine similarity is undefined for zero vectors")
    return min(1.0, max(-1.0, dot / (na * nb)))


def _check_gallery(query: np.ndarray, gallery: np.ndarray) -> None:
    if gallery.ndim != 2 or gallery.shape[0] == 0:
        raise DataValidationError("gallery must be a non-empty (n, d) matrix")
    if gallery.shape[1] != query.shape[0]:
        raise DataValidationError(
            f"dimension mismatch: query {query.shape[0]}, gallery {gallery.shape[1]}"
        )


def _stacked_scores(queries: np.ndarray, galleries: np.ndarray, kind: str) -> np.ndarray:
    """Scores (c, k) of each query (c, d) against its gallery (c, k, d), for
    C-contiguous float64 arrays; the cosine kind overwrites ``galleries``.

    Per row these are the operations of scoring that row alone: the stacked
    products are BLAS matrix-vector and dot products of the same operands,
    and the gallery norms are np.linalg.norm's square root of the row sums
    of squares, with the squares taken in place instead of in two
    temporaries.
    """
    scores = (galleries @ queries[:, :, None])[:, :, 0]
    if kind == "cosine":
        nq = np.sqrt((queries[:, None, :] @ queries[:, :, None])[:, 0, 0])
        ng = np.sqrt(np.add.reduce(np.multiply(galleries, galleries, out=galleries), axis=-1))
        if np.any(nq == 0.0) or np.any(ng == 0.0):
            raise DataValidationError("cosine similarity is undefined for zero vectors")
        scores = scores / (nq[:, None] * ng)
    return scores


_CHUNK = 64  # rows per scored chunk: (64, d) queries and (64, k, d) galleries


def _match_chunk(chunk: list[Sequence[np.ndarray]], kind: str) -> list[int]:
    by_size: dict[int, list[int]] = {}
    for i, row in enumerate(chunk):
        by_size.setdefault(len(row), []).append(i)
    best = [0] * len(chunk)
    for size, members in by_size.items():
        if size < 2:
            raise DataValidationError("gallery must be a non-empty (n, d) matrix")
        try:
            queries = np.array([chunk[i][0] for i in members], dtype=np.float64)
            galleries = np.array([v for i in members for v in chunk[i][1:]], dtype=np.float64)
        except ValueError as exc:  # vectors of differing lengths
            raise DataValidationError(f"vectors of differing lengths in one chunk: {exc}") from exc
        if galleries.shape[1:] != queries.shape[1:]:
            raise DataValidationError(
                f"dimension mismatch: query {queries.shape[1]}, gallery {galleries.shape[1]}"
            )
        galleries = galleries.reshape(len(members), size - 1, -1)
        scores = _stacked_scores(queries, galleries, kind)
        for i, b in zip(members, np.argmax(scores, axis=1).tolist()):
            best[i] = b
    return best


def match_batch(rows: Iterable[Sequence[np.ndarray]], kind: str = DEFAULT_KIND) -> list[int]:
    """The best gallery index of every row ``(query, g_1, ..., g_k)`` of
    vectors, in order; of exactly equal scores the lowest index wins. BLAS
    rounds a dot product by the row's position, so two copies of one vector
    in a gallery need not score equally.

    ``rows`` is consumed lazily, ``_CHUNK`` rows at a time; the rows of a
    chunk are grouped by length and each group is widened to float64, so
    no more than one chunk of rows and vectors is held at once. A zero
    vector under cosine raises DataValidationError.
    """
    _check_kind(kind)
    rows = iter(rows)
    best: list[int] = []
    while chunk := list(itertools.islice(rows, _CHUNK)):
        best.extend(_match_chunk(chunk, kind))
    return best


def match_by_similarity(
    query: Sequence[float],
    gallery: Iterable[Sequence[float]],
    kind: str = DEFAULT_KIND,
) -> MatchResult:
    """Match a query against a gallery; of exactly equal scores the lowest
    index wins. The one-row case of match_batch, returning the scores as well."""
    _check_kind(kind)
    gallery = np.asarray(list(gallery), dtype=np.float64)
    query = np.asarray(query, dtype=np.float64)
    _check_gallery(query, gallery)
    scores = _stacked_scores(np.ascontiguousarray(query[None]), np.array(gallery[None]), kind)[0]
    return MatchResult(best_index=int(np.argmax(scores)), scores=scores)


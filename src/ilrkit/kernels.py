"""The exact similarity scan: row dot products in float64.

One numpy path. ``BACKEND`` names it in benchmark records.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def dot_scores(matrix: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Dot product of each row of ``matrix`` (n, d) with ``query`` (d,), in
    float64. A dimension mismatch raises ValueError."""
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    query = np.ascontiguousarray(query, dtype=np.float64)
    return matrix @ query

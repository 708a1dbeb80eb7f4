"""Selects the girth kernel at import: compiled if available, else pure."""

from __future__ import annotations

import numpy as np

try:
    from . import _girth_c as _impl

    BACKEND = "c"
except ImportError:
    from . import _girth_py as _impl  # type: ignore[no-redef]

    BACKEND = "python"


def girth_of_images(images, m: int) -> int | None:
    """Girth of the bipartite graph of the given permutation images.

    Returns None when the graph has no cycle (only possible for r < 2).
    """
    flat = np.array(images, dtype=np.int32).ravel()
    g = int(girth_batch(flat, 1, m, len(images), 0)[0])
    return g if g else None


def girth_batch(flat, n_graphs: int, m: int, r: int, cutoff: int) -> np.ndarray:
    """Girths of n_graphs (m, r) graphs packed back to back in flat, a
    buffer of 1-based 4-byte ints, as an int32 array.

    Entry i is the exact girth when that exceeds cutoff, and otherwise
    some value v with girth <= v <= cutoff; 0 means a forest.  Cutoff 0
    makes every entry exact.
    """
    out = np.zeros(n_graphs, dtype=np.int32)
    _impl.girth_batch(flat, n_graphs, m, r, out, cutoff)
    return out

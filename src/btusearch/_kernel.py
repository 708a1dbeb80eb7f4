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
    """Girth of the bipartite graph of the given 1-based permutation
    images, scored as a one-graph table.

    Returns None when the graph has no cycle (only possible for r < 2).
    """
    table = np.asarray(images, dtype=np.int32).reshape(-1, m) - 1
    index = np.arange(len(table), dtype=np.int32)
    g = int(girth_batch(table, index[None], m, 0)[0])
    return g if g else None


def girth_batch(
    table: np.ndarray, index: np.ndarray, m: int, cutoff: int, slack: int = 0, stop: int = 0
) -> np.ndarray:
    """Girths of the graphs of an (n_graphs, r) int32 row index into a
    table of 0-based images, m to a row, as an int32 array with one entry
    per graph the kernel scored: every graph, or with stop > 0 those up to
    the first entry >= stop.

    The cutoff of each graph is the larger of `cutoff` and the largest
    entry before it minus `slack`.  An entry is the exact girth when that
    exceeds the graph's cutoff, and otherwise some value v with girth <= v
    <= cutoff; 0 means a forest.  Cutoff 0 makes every entry exact; slack
    0 leaves exact every entry above all before it, and slack 1 every
    entry that ties them too.
    """
    n_graphs, r = index.shape
    out = np.empty(n_graphs, dtype=np.int32)
    done = _impl.girth_batch(table, index, n_graphs, m, r, out, cutoff, slack, stop)
    return out[:done]

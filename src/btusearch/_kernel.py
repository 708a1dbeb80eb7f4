"""Selects the girth kernel at import: compiled if available, else pure."""

from __future__ import annotations

from array import array

try:
    from . import _girth_c as _impl

    BACKEND = "c"
except ImportError:
    from . import _girth_py as _impl  # type: ignore[no-redef]

    BACKEND = "python"


def flatten_images(images) -> array:
    """Pack r one-line image tuples into the kernel's flat int layout."""
    flat = array("i")
    for img in images:
        flat.extend(img)
    return flat


def girth_of_images(images, m: int) -> int | None:
    """Girth of the bipartite graph of the given permutation images.

    Returns None when the graph has no cycle (only possible for r < 2).
    """
    r = len(images)
    g = _impl.girth_from_images(flatten_images(images), m, r)
    return g if g else None


def girth_batch(flat: array, n_graphs: int, m: int, r: int, cutoff: int) -> array:
    """Girths of n_graphs (m, r) graphs packed back to back in flat.

    Entry i is the exact girth when that exceeds cutoff, and otherwise
    some value v with girth <= v <= cutoff; 0 means a forest.
    """
    out = array("i", bytes(4 * n_graphs))
    _impl.girth_batch(flat, n_graphs, m, r, out, cutoff)
    return out

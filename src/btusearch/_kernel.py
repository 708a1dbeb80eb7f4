"""Selects the kernel at import: compiled if available, else pure.

One module holds the four calls: `girth_batch`, the girth of each
graph of a batch; `split_slots`, the slots of a BTU read from a file;
`grow_cycles`, the candidate cycles a stage >= 4 search keeps for its
replaced slot; and `pair_codes`, the cycle type of inv(a).b for pairs
of table rows, which the oracle's census groups tuples by.  The
compiled module `_girth_c` holds all four in C (the grower
depth-first); `_girth_py` is the pure-Python reference of each (the
grower breadth-first and the pair coder over all pairs at once, with
numpy).
"""

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


def split_slots(cols: np.ndarray) -> np.ndarray:
    """The r perfect matchings of an (m, r) table of 0-based columns,
    row i's columns in the order the matcher scans them, as an (r, m)
    int32 array: slot t joins row i to column out[t, i].

    r-1 rounds each match the rows in order, every row taking its first
    free column or else augmenting depth-first over its unseen columns;
    the last slot is read off the 1-regular residual.  ValueError when a
    column is out of range or the table is not regular.
    """
    m, r = cols.shape
    out = np.empty((r, m), dtype=np.int32)
    _impl.split_slots(np.ascontiguousarray(cols, dtype=np.int32), m, r, out)
    return out


def grow_cycles(
    barred: np.ndarray, heads: np.ndarray, digits: list[int] | None, n: int, length: int
) -> np.ndarray:
    """The n-cycles w of 0..n-1, in the lexicographic order of their
    words and in the narrowest signed int type that holds n-1, with no
    barred[x, w(x)] set, every cycle of x -> heads[w(x)] of `length`
    points, and, when digits is given, a word rank below the limit whose
    n-1 factorial-base digits they are (digit j in 0..n-2-j).  The word
    W of w is its visiting order from n-1: w(n-1) = W[0], w(W[i]) =
    W[i+1] and w(W[-1]) = n-1.  ValueError for a head out of 0..n-1 or
    a digit out of its range.
    """
    dtype = np.min_scalar_type(-n)
    rows = _impl.grow_cycles(
        np.ascontiguousarray(barred, dtype=bool),
        np.ascontiguousarray(heads, dtype=np.int32),
        None if digits is None else np.array(digits, dtype=np.int32),
        n,
        length,
        dtype.itemsize,
    )
    return np.frombuffer(rows, dtype=dtype).reshape(-1, n)


def pair_codes(table: np.ndarray, pairs: np.ndarray, m: int) -> np.ndarray:
    """The int64 code of each row (a, b) of an (n_pairs, 2) array of row
    indices into a table of 0-based images, m to a row: with c_L the
    points on cycles of length L of x -> inv(a)[b[x]], the code is
    sum_L c_L (m+1)^(L-1), whose base-(m+1) digits give the union-cycle
    partition back.  ValueError for m above 15, whose codes overflow
    int64, a row index outside the table or a row that is not a
    permutation.
    """
    pairs = np.ascontiguousarray(pairs, dtype=np.int32)
    out = np.empty(len(pairs), dtype=np.int64)
    _impl.pair_codes(table, pairs, len(pairs), m, out)
    return out

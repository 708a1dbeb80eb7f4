"""Selects the kernel at import: compiled if available, else pure.

One module holds the five calls: `girth_batch`, the girth of each
graph of a batch; `girth_pairs`, the girths of the (final, word) pairs
of a search unit whose rows differ at every point; `split_slots`, the
slots of a BTU read from a file; `grow_cycles`, the single cycles that
a search stage keeps for its replaced slot and its level-2 finals, the
family enumeration for each slot and the `candidates` command lists;
and `pair_codes`, the cycle type of inv(a).b for pairs of table rows,
which the oracle's census groups tuples by.  The compiled module
`_girth_c` holds all five in C; `_girth_py` is the pure-Python
reference of each (the grower the same depth-first walk, and the pair
coder over all pairs at once, with numpy).

A compiled module built from another revision of `_girth_c.c` (an
in-place build is not redone when the source changes) could take other
arguments or keep another contract, so it is used only when its `ABI`
equals this module's; otherwise the pure kernel is selected, with one
RuntimeWarning that names the file and the rebuild command.
"""

from __future__ import annotations

import importlib
import warnings

import numpy as np

# The revision of the five calls' signatures and contracts; `_girth_c.c`
# holds the same number.
ABI = 5


def _select():
    """The kernel module to use and its BACKEND name: `_girth_c` when it
    imports and its ABI is this module's, else `_girth_py`."""
    try:
        compiled = importlib.import_module(f"{__package__}._girth_c")
    except ImportError:
        compiled = None
    if compiled is not None:
        if getattr(compiled, "ABI", None) == ABI:
            return compiled, "c"
        warnings.warn(
            f"{compiled.__file__} was built from another revision of _girth_c.c "
            f"(ABI {getattr(compiled, 'ABI', 'missing')}, expected {ABI}); using the pure "
            "kernel.  Rebuild it with `python setup.py build_ext --inplace --force`, "
            "or delete it.",
            RuntimeWarning,
            stacklevel=2,
        )
    from . import _girth_py

    return _girth_py, "python"


_impl, BACKEND = _select()


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
    table: np.ndarray, index: np.ndarray, m: int, cutoff: int, slack: int = 0
) -> np.ndarray:
    """Girths of the graphs of an (n_graphs, r) int32 row index into a
    table of 0-based images, m to a row, as an int32 array with one entry
    per graph.

    The cutoff of each graph is the larger of `cutoff` and the largest
    entry before it minus `slack`.  An entry is the exact girth when that
    exceeds the graph's cutoff, and otherwise some value v with girth <= v
    <= cutoff; 0 means a forest.  Cutoff 0 makes every entry exact; slack
    0 leaves exact every entry above all before it, and slack 1 every
    entry that ties them too.
    """
    n_graphs, r = index.shape
    out = np.empty(n_graphs, dtype=np.int32)
    _impl.girth_batch(table, index, n_graphs, m, r, out, cutoff, slack)
    return out


def girth_pairs(
    table: np.ndarray, r: int, at: int, finals: slice, words: slice, cutoff: int,
    slack: int = 0, stop: int = 0, period: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """The scored (final, word) pairs of a C-contiguous table of 0-based
    images and their girths, as an int64 array of positions
    (final - finals.start) * len(words) + (word - words.start) and an
    int32 array of girths, in (final, word) order: the pairs of the two
    row ranges whose rows differ at every point, as graphs whose slot t
    is table row t but slot `at` the word and slot r-1 the final.  The
    cutoff and slack rules are those of `girth_batch`; with stop > 0 the
    call ends after the first entry >= stop.  A period
    p > 0 promises that every slot commutes with x -> x + p, and must
    divide the row length.
    """
    size = max(0, finals.stop - finals.start) * max(0, words.stop - words.start)
    pairs = np.empty(size, dtype=np.int64)
    out = np.empty(size, dtype=np.int32)
    done = _impl.girth_pairs(
        table, table.shape[1], r, at, finals.start, finals.stop, words.start, words.stop,
        pairs, out, cutoff, slack, stop, period,
    )
    return pairs[:done], out[:done]


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
    avoid: np.ndarray, heads: np.ndarray, digits: list[int] | None, n: int, length: int,
    twins: bool = False,
) -> np.ndarray:
    """The n-cycles w of 0..n-1, in the lexicographic order of their
    words and in the narrowest signed int type that holds n-1, that
    differ at every point from each row of the (t, n) array `avoid`
    (values in 0..n-1, t >= 0), with every cycle of x -> heads[w(x)] of
    `length` points, and, when digits is given, a word rank below the
    limit whose n-1 factorial-base digits they are (digit j in
    0..n-2-j).  The word W of w is its visiting order from n-1: w(n-1) =
    W[0], w(W[i]) = W[i+1] and w(W[-1]) = n-1.  With twins, a row is
    kept only when W is not lexicographically after the word W' of its
    twin rho.inv(w).rho, rho: x -> n-1-x, read off w as W'[i] = n-1 -
    w^-(i+1)(0): of each pair of rows the map swaps, the first.  Memory
    is O(n) besides the rows kept: no n x n table of barred values is
    built.  ValueError for an avoid value or head out of 0..n-1 or a
    digit out of its range.
    """
    dtype = np.min_scalar_type(-n)
    rows = _impl.grow_cycles(
        np.ascontiguousarray(avoid, dtype=np.int32),
        np.ascontiguousarray(heads, dtype=np.int32),
        None if digits is None else np.array(digits, dtype=np.int32),
        n,
        length,
        dtype.itemsize,
        twins,
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

"""The BTU aggregate: an ordered tuple of pairwise-compatible permutations
of common degree m, equivalently an m x m 0/1 matrix with r ones in every
row and column, equivalently an r-regular bipartite graph on m+m vertices.

Slot numbering is 1-based to match the permutation conventions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _kernel
from .parameters import Factorization, optimal_partitions
from .perms import (
    CompatibilityError,
    PartitionP2,
    Permutation,
    compose,
    identity,
    invert,
    union_cycle_partition,
    unscale_permutation,
)


@dataclass(frozen=True)
class BTU:
    m: int
    r: int
    perms: tuple[Permutation, ...]


@dataclass(frozen=True)
class GirthReport:
    girth: int | None  # None: no cycle (forest, only possible for r < 2)
    witness_cycle: tuple[str, ...] | None = None


def make_btu(perms: Sequence[Permutation]) -> BTU:
    """Validate pairwise compatibility and build the aggregate.

    Raises CompatibilityError naming the first conflicting slot pair
    (in slot order) and the 1-based position where they agree.
    """
    perms = tuple(perms)
    if not perms:
        raise ValueError("a BTU needs at least one permutation")
    m = perms[0].n
    for p in perms:
        if p.n != m:
            raise ValueError(f"degree mismatch: {p.n} != {m}")
    r = len(perms)
    for a in range(r):
        for b in range(a + 1, r):
            for pos, (x, y) in enumerate(
                zip(perms[a].image, perms[b].image), start=1
            ):
                if x == y:
                    raise CompatibilityError(a + 1, b + 1, pos)
    return BTU(m=m, r=r, perms=perms)


def to_biadjacency(b: BTU) -> np.ndarray:
    """The m x m 0/1 matrix: cell (i, p_t(i)) = 1 for every slot t."""
    mat = np.zeros((b.m, b.m), dtype=np.int8)
    rows = np.arange(b.m)
    for p in b.perms:
        mat[rows, np.array(p.image) - 1] = 1
    return mat


def _cells(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the nonzero cells, in row-major order.

    One boolean scan: np.nonzero on the int8 matrix is over ten times
    slower than np.flatnonzero on the boolean one.
    """
    mat = np.asarray(mat)
    return np.divmod(np.flatnonzero(mat != 0), mat.shape[1])


def _ones(mat: np.ndarray, cells=None) -> tuple[np.ndarray, np.ndarray]:
    """The cells of _cells (`cells`, when the caller has them), after
    checking that every one of them holds 1.

    The check reads only the nonzero cells, and it is exact for any
    dtype: 0.5, NaN, inf, -1 and 2 are all nonzero and not 1.
    """
    mat = np.asarray(mat)
    rows, cols = _cells(mat) if cells is None else cells
    if not (mat[rows, cols] == 1).all():
        raise ValueError("matrix entries must be 0 or 1")
    return rows, cols


def _regular_cells(mat: np.ndarray, cells=None) -> tuple[int, np.ndarray]:
    """r, and the column of each one in row-major order, of a square 0/1
    matrix with r >= 1 ones in every row and column; ValueError for any
    other matrix.

    The m*m cells are scanned once, unless the caller passes their
    `_cells`; the 0/1 check and the row and column sums then read only
    the O(m*r) ones.
    """
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"matrix must be square, got shape {mat.shape}")
    m = mat.shape[0]
    rows, cols = _ones(mat, cells)
    row_sums = np.bincount(rows, minlength=m)
    col_sums = np.bincount(cols, minlength=m)
    r = int(row_sums[0]) if m else 0
    if not ((row_sums == r).all() and (col_sums == r).all()):
        raise ValueError("matrix is not regular: row/column sums differ")
    if r == 0:
        raise ValueError("a BTU needs at least one permutation")
    return r, cols


def _augment(
    adj: list[list[int]], col_owner: list[int], root: int, seen: list[int]
) -> bool:
    """Depth-first augmenting-path search from `root`, on an explicit stack.

    Each row on the path first takes its lowest free column; failing
    that, it descends into its unseen columns in ascending order.  On
    success every column along the path passes to the row above it.
    A column counts as seen in this search when `seen` holds `root`
    for it, so one array serves every root of a matching.  Augmenting
    paths can be as long as m, hence no recursion.
    """
    frames = []  # (row, iterator over the columns it has yet to descend into)
    path = []  # (row, column) of each descent between consecutive frames
    row = root
    while True:
        for j in adj[row]:
            if col_owner[j] == -1:
                col_owner[j] = row
                for owner, col in path:
                    col_owner[col] = owner
                return True
        frames.append((row, iter(adj[row])))
        while frames:
            row, cols = frames[-1]
            for j in cols:
                if seen[j] != root:
                    break
            else:
                frames.pop()
                if path:
                    path.pop()
                continue
            seen[j] = root
            path.append((row, j))
            row = col_owner[j]
            break
        else:
            return False


def _extract_matching(adj: list[list[int]], m: int) -> list[int]:
    """One perfect matching, rows greedily then by augmenting paths.

    Rows are processed in order; each row first takes its lowest free
    column, and only augments (again scanning columns in ascending
    order) when none of its columns is free.  Regularity of the residual
    matrix guarantees a perfect matching exists.
    """
    col_owner = [-1] * m
    seen = [-1] * m
    for i in range(m):
        for j in adj[i]:
            if col_owner[j] == -1:
                col_owner[j] = i
                break
        else:
            if not _augment(adj, col_owner, i, seen):
                raise ValueError("matrix is not regular: no perfect matching")
    row_to_col = [-1] * m
    for j, i in enumerate(col_owner):
        row_to_col[i] = j
    return row_to_col


def regular_degree(mat: np.ndarray, cells=None) -> int:
    """The common row and column sum r >= 1 of a square 0/1 matrix, read
    from its `_cells` when the caller passes them.

    Raises ValueError for any other matrix.  By Konig's theorem every
    matrix it accepts splits into r permutation matrices, so it decides
    whether decompose_matrix succeeds without running it.
    """
    return _regular_cells(mat, cells)[0]


def decompose_matrix(mat: np.ndarray) -> BTU:
    """Split a regular 0/1 matrix into permutations summing back to it.

    The inverse of to_biadjacency for file import; slot order is the
    deterministic matching-extraction order.
    """
    r, cols = _regular_cells(mat)
    m = len(mat)
    # Row-major cells of a matrix with r ones in every row: row i's
    # columns, ascending, are the i-th run of r.
    remaining = cols.reshape(m, r).tolist()
    perms = []
    for _ in range(r):
        row_to_col = _extract_matching(remaining, m)
        perms.append(Permutation(tuple(j + 1 for j in row_to_col)))
        for i, j in enumerate(row_to_col):
            remaining[i].remove(j)
    return make_btu(perms)


def girth(b: BTU, witness: bool = False) -> GirthReport:
    """Shortest-cycle length of the bipartite graph (always even, >= 4).

    r = 1 gives a perfect matching, hence no cycle and girth None.
    The number comes from the BFS kernel; the optional witness is found
    separately by an exact per-edge search.
    """
    g = _kernel.girth_of_images([p.image for p in b.perms], b.m)
    if not witness or g is None:
        return GirthReport(girth=g)
    return GirthReport(girth=g, witness_cycle=_witness_cycle(b, g))


def _neighbours(b: BTU) -> list[list[int]]:
    """Adjacency lists over vertices 0..m-1 (rows) and m..2m-1 (columns)."""
    m = b.m
    adj: list[list[int]] = [[] for _ in range(2 * m)]
    for p in b.perms:
        for i, x in enumerate(p.image):
            adj[i].append(m + x - 1)
            adj[m + x - 1].append(i)
    return adj


def _witness_cycle(b: BTU, g: int) -> tuple[str, ...]:
    """A simple cycle of length g: shortest path around a deleted edge."""
    m = b.m
    adj = _neighbours(b)
    for u in range(2 * m):
        for v in adj[u]:
            if v < u:
                continue
            # shortest u -> v path avoiding the edge (u, v) itself
            prev = {u: -1}
            queue = deque([u])
            while queue:
                x = queue.popleft()
                if x == v:
                    break
                for y in adj[x]:
                    if y in prev or (x == u and y == v):
                        continue
                    prev[y] = x
                    queue.append(y)
            if v not in prev:
                continue
            path = [v]
            while path[-1] != u:
                path.append(prev[path[-1]])
            if len(path) == g:
                labels = tuple(
                    f"l{x + 1}" if x < m else f"r{x - m + 1}" for x in path
                )
                return labels
    raise AssertionError("girth kernel reported a cycle the edge scan cannot find")


def rebase(b: BTU, slot: int) -> BTU:
    """Right-multiply every slot by the inverse of the given slot.

    The chosen slot becomes the identity; the graph is relabelled (rows
    permuted), so girth and all pairwise union-cycle partitions are
    preserved.
    """
    if not 1 <= slot <= b.r:
        raise ValueError(f"slot must be in 1..{b.r}, got {slot}")
    inv = invert(b.perms[slot - 1])
    return BTU(m=b.m, r=b.r, perms=tuple(compose(p, inv) for p in b.perms))


def adjacent_partitions(b: BTU) -> tuple[PartitionP2, ...]:
    """The r-1 union-cycle partitions of consecutive slot pairs."""
    return tuple(
        union_cycle_partition(b.perms[i], b.perms[i + 1]) for i in range(b.r - 1)
    )


def canonicalize_order(b: BTU) -> BTU:
    """Reorder slots so first images ascend (the family's canonical order)."""
    perms = tuple(sorted(b.perms, key=lambda p: p.image[0]))
    return BTU(m=b.m, r=b.r, perms=perms)


def in_phi(b: BTU, betas: Sequence[PartitionP2]) -> bool:
    """True when the stored-order adjacent partitions equal betas."""
    betas = tuple(betas)
    if len(betas) != b.r - 1:
        raise ValueError(f"expected {b.r - 1} partitions, got {len(betas)}")
    return adjacent_partitions(b) == betas


def in_Z(b: BTU, f: Factorization) -> bool:
    """Membership in the fully scaled family:

    - adjacent partitions equal the optimal sequence for (b, k, r);
    - slot r-1 is the identity;
    - slot j (j <= r-2) is a k^(r-1-j)-fold diagonal replication of some
      permutation of degree b*k^j.
    """
    if f.m != b.m or f.r != b.r:
        raise ValueError("factorization does not match the BTU's (m, r)")
    k = f.k
    if b.perms[b.r - 2] != identity(b.m):
        return False
    for j in range(1, b.r - 1):
        if unscale_permutation(b.perms[j - 1], f.b * k**j) is None:
            return False
    return in_phi(b, optimal_partitions(f).betas)

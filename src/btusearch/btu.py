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


def to_cells(b: BTU) -> np.ndarray:
    """The cells of the biadjacency matrix, (i, p_t(i)) for every slot t,
    as the sorted row-major flat indices i*m + j.

    Row i's columns are the r images of i, which differ, so sorting the
    images along the slot axis lists each row's cells in order.
    """
    cols = np.sort(np.array([p.image for p in b.perms], dtype=np.int64), axis=0) - 1
    return (cols + np.arange(0, b.m * b.m, b.m)).T.reshape(-1)


def to_biadjacency(b: BTU) -> np.ndarray:
    """The m x m 0/1 matrix: cell (i, p_t(i)) = 1 for every slot t."""
    return cells_to_matrix(b.m, to_cells(b))


def cells_to_matrix(m: int, cells: np.ndarray) -> np.ndarray:
    """The m x m int8 matrix with a 1 at each of the flat cells."""
    mat = np.zeros((m, m), dtype=np.int8)
    mat.reshape(-1)[cells] = 1
    return mat


def _square_cells(mat: np.ndarray) -> tuple[int, np.ndarray]:
    """m and the sorted row-major flat cells of the ones of a square 0/1
    matrix; ValueError for any other.

    One boolean scan finds the nonzero cells: np.nonzero on the int8
    matrix is over ten times slower than np.flatnonzero on the boolean
    one.  The 0/1 check then reads only those cells, and it is exact for
    any dtype: 0.5, NaN, inf, -1 and 2 are all nonzero and not 1.
    """
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"matrix must be square, got shape {mat.shape}")
    cells = np.flatnonzero(mat != 0)
    if not (mat.reshape(-1)[cells] == 1).all():
        raise ValueError("matrix entries must be 0 or 1")
    return mat.shape[0], cells


def cell_degree(m: int, cells: np.ndarray) -> int:
    """The common row and column count r >= 1 of the sorted row-major
    cells of an m x m 0/1 matrix; ValueError when the counts differ or
    there is no cell.

    By Konig's theorem every such matrix splits into r permutation
    matrices, so this decides whether decompose succeeds without
    running it.
    """
    rows, cols = np.divmod(cells, m)
    row_sums = np.bincount(rows, minlength=m)
    col_sums = np.bincount(cols, minlength=m)
    r = int(row_sums[0]) if m else 0
    if not ((row_sums == r).all() and (col_sums == r).all()):
        raise ValueError("matrix is not regular: row/column sums differ")
    if r == 0:
        raise ValueError("a BTU needs at least one permutation")
    return r


def decompose(m: int, cells: np.ndarray) -> BTU:
    """Split the m x m 0/1 matrix of the sorted row-major cells into
    permutations summing back to it.

    The inverse of to_cells for file import; slot order is the
    deterministic matching order of `_kernel.split_slots`, compiled or
    pure.  ValueError when a cell comes after a larger one.  The slots
    are permutations by construction, so only whether two agree at some
    row is checked, one whole-row comparison a pair: with a cell listed
    twice they do, and make_btu names the first such pair and row as it
    always has.
    """
    descents = np.flatnonzero(np.diff(cells) < 0)
    if len(descents):
        at = descents[0]
        raise ValueError(
            f"cells must be in row-major order: cell {cells[at + 1]} comes after {cells[at]}"
        )
    r = cell_degree(m, cells)
    # Row i's columns, ascending, are the i-th run of r cells.
    slots = _kernel.split_slots((cells % m).reshape(m, r))
    perms = tuple(map(Permutation.unchecked, map(tuple, (slots + 1).tolist())))
    if any((slots[a] == slots[b]).any() for a in range(r) for b in range(a + 1, r)):
        make_btu(perms)  # raises CompatibilityError
    return BTU(m=m, r=r, perms=perms)


def decompose_matrix(mat: np.ndarray) -> BTU:
    """decompose of a square 0/1 matrix; ValueError for any other."""
    return decompose(*_square_cells(mat))


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

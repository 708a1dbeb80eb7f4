"""Pure-Python girth kernel.

Same contract as the compiled kernel in _girth_c: a batch is a table of
rows of m 0-based one-line images, in unsigned ints of 1, 2 or 4 bytes,
and a row index of 4-byte ints whose n_graphs * r entries name each
graph's r slots in turn.  Row vertex i of a graph is joined to column
vertex row[i] of each of its slots, and its girth is the length of the
shortest cycle (2 for a double edge), or 0 for a forest.  Input that
would make the BFS index out of range raises ValueError, as it does
there.
"""

from __future__ import annotations

from collections import deque

# Unsigned struct format per item size: the kernels read every table as
# unsigned, so a negative value is out of range in both.
_UNSIGNED = {1: "B", 2: "H", 4: "I"}


def _ints(obj, what: str, sizes: tuple[int, ...], need: int | None, exact: bool) -> memoryview:
    """A flat view of obj's items, of one of the given sizes, with at least
    `need` of them, or exactly that many when `exact`."""
    view = memoryview(obj)
    if view.itemsize not in sizes:
        widths = "1-, 2- or 4" if len(sizes) > 1 else "4"
        raise ValueError(
            f"{what} must hold {widths}-byte ints, not {view.itemsize}-byte items"
        )
    view = view.cast("B").cast(_UNSIGNED[view.itemsize] if len(sizes) > 1 else "i")
    if need is not None and (len(view) != need if exact else len(view) < need):
        qualifier = "" if exact else "at least "
        raise ValueError(f"{what} has {len(view)} items, needs {qualifier}{need}")
    return view


def girth_batch(
    table, index, n_graphs: int, m: int, r: int, out, cutoff: int, slack: int = 0, stop: int = 0
) -> int:
    """Writes the girths of graphs 0, 1, ... to out in order and returns
    how many it wrote: all n_graphs, or with stop > 0 those up to the
    first girth >= stop.  They are all exact, which meets the compiled
    kernel's rising-cutoff contract whatever cutoff and slack are."""
    if m < 1 or r < 1 or n_graphs < 0 or slack < 0:
        raise ValueError(
            f"need m, r >= 1, n_graphs >= 0 and slack >= 0, "
            f"got m={m}, r={r}, n_graphs={n_graphs}, slack={slack}"
        )
    items = _ints(table, "table", (1, 2, 4), None, exact=False)
    rows = _ints(index, "index", (4,), n_graphs * r, exact=True).tolist()
    out_view = _ints(out, "out", (4,), n_graphs, exact=False)
    if len(items) % m:
        raise ValueError(f"table has {len(items)} items, not a multiple of m={m}")
    if not all(0 <= row < len(items) // m for row in rows):
        raise ValueError(f"each row index must be in 0..{len(items) // m - 1}")
    for g in range(n_graphs):
        images = [items[row * m : row * m + m].tolist() for row in rows[g * r : g * r + r]]
        out_view[g] = _girth(images, m)
        if 0 < stop <= out_view[g]:
            return g + 1
    return n_graphs


def _girth(images: list[list[int]], m: int) -> int:
    # Inverse images: for column vertex j, its row neighbours.
    values = list(range(m))
    inv = []
    for image in images:
        if sorted(image) != values:
            raise ValueError(f"each image must be a permutation of 0..{m - 1}")
        inverse = [0] * m
        for i, v in enumerate(image):
            inverse[v] = i
        inv.append(inverse)
    if any(len(set(column)) < len(images) for column in zip(*images)):
        return 2  # two slots agree at a row: a double edge

    nv = 2 * m
    dist = [-1] * nv
    parent = [-1] * nv
    best = 0  # 0 = no cycle found yet

    for s in range(m):  # every cycle passes through a row vertex
        if best == 4:  # the shortest cycle without double edges
            break
        for v in range(nv):
            dist[v] = -1
        dist[s] = 0
        parent[s] = -1
        queue = deque([s])
        while queue:
            u = queue.popleft()
            du = dist[u]
            if best and 2 * du >= best:
                continue
            if u < m:
                neighbours = [image[u] + m for image in images]
            else:
                neighbours = [inverse[u - m] for inverse in inv]
            for w in neighbours:
                if dist[w] < 0:
                    dist[w] = du + 1
                    parent[w] = u
                    queue.append(w)
                elif w != parent[u]:
                    cycle = du + dist[w] + 1
                    if best == 0 or cycle < best:
                        best = cycle
    return best

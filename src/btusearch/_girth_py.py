"""Pure-Python girth kernel.

Same contract as the compiled kernel in _girth_c: given the r one-line
images of each of n (m, r) incidences flattened into one 1-based buffer
of 4-byte ints, write the length of the shortest cycle of each bipartite
row/column graph, or 0 for a forest.  Input that would make
the BFS index out of range raises ValueError, as it does there.
"""

from __future__ import annotations

from collections import deque


def _ints(obj, what: str, need: int, exact: bool) -> memoryview:
    view = memoryview(obj)
    if view.itemsize != 4:
        raise ValueError(
            f"{what} must hold 4-byte ints, not {view.itemsize}-byte items"
        )
    if len(view) != need if exact else len(view) < need:
        qualifier = "" if exact else "at least "
        raise ValueError(f"{what} has {len(view)} items, needs {qualifier}{need}")
    return view


def girth_batch(flat, n_graphs: int, m: int, r: int, out, cutoff: int) -> None:
    """Writes the girths of n_graphs graphs, packed back to back in flat,
    to out[0:n_graphs].  They are all exact, which meets the compiled
    kernel's cutoff contract."""
    out_view = _ints(out, "out", n_graphs, exact=False)
    if m < 1 or r < 1 or n_graphs < 0:
        raise ValueError(
            f"need m, r >= 1 and n_graphs >= 0, got m={m}, r={r}, n_graphs={n_graphs}"
        )
    images = _ints(flat, "flat", n_graphs * r * m, exact=True).tolist()
    size = r * m
    for g in range(n_graphs):
        out_view[g] = _girth(images, g * size, m, r)


def _girth(flat: list[int], start: int, m: int, r: int) -> int:
    # Inverse images: for column vertex j, its row neighbours.
    inv = [0] * (r * m)
    values = list(range(1, m + 1))
    for t in range(r):
        base = t * m
        image = flat[start + base : start + base + m]
        if sorted(image) != values:
            raise ValueError(f"each image must be a permutation of 1..{m}")
        for i, v in enumerate(image):
            inv[base + v - 1] = i

    nv = 2 * m
    dist = [-1] * nv
    parent = [-1] * nv
    best = 0  # 0 = no cycle found yet

    for s in range(m):  # every cycle passes through a row vertex
        if best == 4:
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
                base_u = start + u
                neighbours = [flat[t * m + base_u] - 1 + m for t in range(r)]
            else:
                base_u = u - m
                neighbours = [inv[t * m + base_u] for t in range(r)]
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

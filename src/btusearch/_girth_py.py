"""Pure-Python girth kernel, pair scorer, slot matcher, cycle grower and
pair coder.

Same contract as the compiled kernel in _girth_c: a batch is a table of
rows of m 0-based one-line images, in unsigned ints of 1, 2 or 4 bytes,
and a row index of 4-byte ints whose n_graphs * r entries name each
graph's r slots in turn.  Row vertex i of a graph is joined to column
vertex row[i] of each of its slots, and its girth is the length of the
shortest cycle (2 for a double edge), or 0 for a forest.  An r = 2
graph is scored in O(m) by the cycle walk the compiled kernel takes;
larger r by a BFS from every row vertex, or from rows 0..p-1 when the
caller promises that every slot commutes with x -> x + p.  Input that
would make the kernel index out of range raises ValueError, as it does
there.

`girth_pairs` is the reference of the compiled pair scorer: the same
pairs in the same order, each final row tested against the words one
word at a time, so no array grows with words x m.
`split_slots` is the reference of the compiled matcher: the same r
perfect matchings of an r-regular bipartite graph, slot for slot, and
ValueError for the same inputs.  `grow_cycles` is the reference of the
compiled grower: the same rows in the same order, grown breadth-first
with numpy where the compiled one grows them depth-first.  `pair_codes`
is the reference of the compiled pair coder: the same int64 cycle-type
codes, taken for every pair at once by an m-step numpy orbit loop.
"""

from __future__ import annotations

from array import array
from collections import deque

import numpy as np

# Unsigned struct format per item size: the kernels read every table as
# unsigned, so a negative value is out of range in both.
_UNSIGNED = {1: "B", 2: "H", 4: "I"}

_NOT_REGULAR = "matrix is not regular: no perfect matching"


def _ints(obj, what: str, sizes: tuple[int, ...], need: int | None, exact: bool) -> memoryview:
    """A flat view of obj's items, of one of the given sizes, with at least
    `need` of them, or exactly that many when `exact`."""
    view = memoryview(obj)
    if view.itemsize not in sizes:
        widths = "1-, 2- or 4" if len(sizes) > 1 else sizes[0]
        raise ValueError(
            f"{what} must hold {widths}-byte ints, not {view.itemsize}-byte items"
        )
    fmt = {(4,): "i", (8,): "q"}.get(sizes) or _UNSIGNED[view.itemsize]
    # memoryview casts no view with a 0 in its shape, so an empty buffer
    # becomes an empty writable one.
    view = (view.cast("B") if view.nbytes else memoryview(bytearray())).cast(fmt)
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
        images = [
            _permutation(items[row * m : row * m + m].tolist(), m) for row in rows[g * r : g * r + r]
        ]
        out_view[g] = _girth(images, m)
        if 0 < stop <= out_view[g]:
            return g + 1
    return n_graphs


def girth_pairs(
    table, m: int, r: int, at: int, f0: int, f1: int, w0: int, w1: int, pairs, out,
    cutoff: int, slack: int = 0, stop: int = 0, period: int = 0,
) -> int:
    """Scores the graphs of the (final, word) pairs of table rows f0..f1-1
    and w0..w1-1, finals outer, whose rows differ at every point: slot t
    is table row t, but slot `at` is the word and slot r-1 the final.  The
    k-th scored pair's position (final-f0)*(w1-w0) + (word-w0) goes to
    pairs[k] (8-byte ints) and its girth to out[k]; returns how many were
    scored: every such pair, or with stop > 0 those up to the first girth
    >= stop.  The girths are exact, which meets the compiled kernel's
    rising-cutoff contract whatever cutoff and slack are.  The fixed rows
    are checked once, each final row as its pass starts, and a word row
    when a pair of it is scored.  A period p > 0 must divide m: see
    `_girth`."""
    if not (1 <= m and 2 <= r and 0 <= at <= r - 2 and slack >= 0 and period >= 0) or (
        period and m % period
    ):
        raise ValueError(
            f"need m >= 1, r >= 2, 0 <= at <= r-2, slack >= 0 and a period >= 0 that "
            f"divides m if not 0, got m={m}, r={r}, at={at}, slack={slack}, period={period}"
        )
    items = _ints(table, "table", (1, 2, 4), None, exact=False)
    if len(items) % m:
        raise ValueError(f"table has {len(items)} items, not a multiple of m={m}")
    rows = len(items) // m
    if not (r - 1 <= rows and 0 <= f0 <= f1 <= rows and 0 <= w0 <= w1 <= rows):
        raise ValueError(
            f"need r-1 fixed rows and row ranges 0 <= f0 <= f1 <= {rows} and "
            f"0 <= w0 <= w1 <= {rows} in a table of {rows} rows, got r={r}, f0={f0}, "
            f"f1={f1}, w0={w0}, w1={w1}"
        )
    words = w1 - w0
    pairs_view = _ints(pairs, "pairs", (8,), (f1 - f0) * words, exact=False)
    out_view = _ints(out, "out", (4,), (f1 - f0) * words, exact=False)

    def row(t: int) -> list[int]:
        return _permutation(items[t * m : t * m + m].tolist(), m)

    images = [row(t) if t != at else [] for t in range(r - 1)] + [[]]
    done = 0
    for f in range(f0, f1):
        images[-1] = final = row(f)
        for w in range(w0, w1):
            word = items[w * m : w * m + m].tolist()
            if any(x == y for x, y in zip(final, word)):
                continue
            images[at] = _permutation(word, m)
            girth = _girth(images, m, period)
            pairs_view[done], out_view[done] = (f - f0) * words + (w - w0), girth
            done += 1
            if 0 < stop <= girth:
                return done
    return done


def _permutation(image: list[int], m: int) -> list[int]:
    """The image, once checked to be a permutation of 0..m-1."""
    if sorted(image) != list(range(m)):
        raise ValueError(f"each image must be a permutation of 0..{m - 1}")
    return image


def _girth(images: list[list[int]], m: int, period: int = 0) -> int:
    """The girth of the graph of the given 0-based images, permutations
    of 0..m-1, by a BFS from every row vertex, or from rows 0..period-1
    when every slot commutes with x -> x + period: the shift then maps a
    shortest cycle through any row onto one through a row below period."""
    # Inverse images: for column vertex j, its row neighbours.
    inv = []
    for image in images:
        inverse = [0] * m
        for i, v in enumerate(image):
            inverse[v] = i
        inv.append(inverse)
    if len(images) == 2:
        return 2 * _shortest_cycle([inv[0][v] for v in images[1]])
    if any(len(set(column)) < len(images) for column in zip(*images)):
        return 2  # two slots agree at a row: a double edge

    nv = 2 * m
    dist = [-1] * nv
    parent = [-1] * nv
    best = 0  # 0 = no cycle found yet

    for s in range(period or m):  # every cycle passes through a row vertex
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


def _shortest_cycle(step: list[int]) -> int:
    """The fewest points on a cycle of the permutation `step`.  With r = 2
    the graph is a union of cycles: row i reaches row inv0[img1[i]]
    through two edges, so its girth is twice this for that map, whose
    fixed points are the double edges."""
    seen = [False] * len(step)
    best = 0
    for s in range(len(step)):
        length, x = 0, s
        while not seen[x]:
            seen[x] = True
            x = step[x]
            length += 1
        if length and (not best or length < best):
            best = length
            if best == 1:
                break
    return best


def split_slots(cols, m: int, r: int, out) -> None:
    """Writes to out[t*m + i] row i's column in slot t of the r perfect
    matchings that split cols, m rows of r 0-based columns in 4-byte
    ints, each row's list in the order the matcher scans it.

    Each of r-1 rounds is one `_extract_matching`, after which every
    row's matched column (its first copy) leaves its list; the last slot
    is the one column each row has left.  ValueError when a column is out
    of range or the lists do not split into perfect matchings.
    """
    if m < 1 or r < 1:
        raise ValueError(f"need m, r >= 1, got m={m}, r={r}")
    items = _ints(cols, "cols", (4,), m * r, exact=True).tolist()
    out_view = _ints(out, "out", (4,), m * r, exact=False)
    if not all(0 <= j < m for j in items):
        raise ValueError(f"each column must be in 0..{m - 1}")
    remaining = [items[i * r : i * r + r] for i in range(m)]
    slots = []
    for _ in range(r - 1):
        row_to_col = _extract_matching(remaining, m)
        slots.append(row_to_col)
        for i, j in enumerate(row_to_col):
            remaining[i].remove(j)
    last = [row[0] for row in remaining]
    if sorted(last) != list(range(m)):
        raise ValueError(_NOT_REGULAR)
    slots.append(last)
    out_view[: m * r] = array("i", [j for slot in slots for j in slot])


def _augment(
    adj: list[list[int]], col_owner: list[int], root: int, seen: list[int]
) -> bool:
    """Depth-first augmenting-path search from `root`, on an explicit stack.

    Each row on the path first takes its first free column, in list
    order (ascending for a BTU read from a file); failing that, it
    descends into its unseen columns in that order.  On success every
    column along the path passes to the row above it.  A column counts
    as seen in this search when `seen` holds `root` for it, so one array
    serves every root of a matching.  Augmenting paths can be as long as
    m, hence no recursion.
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

    Rows are processed in order; each row first takes its first free
    column, and only augments (again scanning columns in list order)
    when none of its columns is free.  Regularity of the residual
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
                raise ValueError(_NOT_REGULAR)
    row_to_col = [-1] * m
    for j, i in enumerate(col_owner):
        row_to_col[i] = j
    return row_to_col


def grow_cycles(avoid, heads, digits, n: int, length: int, itemsize: int):
    """The n-cycles w of 0..n-1 that pass the grower's filters, in the
    lexicographic order of their words, as an (rows, n) int array of
    `itemsize` bytes an entry: w(n-1) = W[0], w(W[i]) = W[i+1] and
    w(W[-1]) = n-1 for the word W, a permutation of 0..n-2.  A row is
    kept when it differs from every avoid row at every point, every
    cycle of x -> heads[w(x)] has `length` points, and, when digits is
    not None, the word's rank is below the limit whose n-1
    factorial-base digits they are.  avoid holds t rows of n 4-byte ints
    in 0..n-1 (t >= 0), heads n 4-byte ints in 0..n-1 and digits n-1
    4-byte ints, digit j in 0..n-2-j.

    The words are grown one entry at a time, breadth-first: a prefix
    fixes w on the points it has visited, so a child that adds value v
    adds one edge x -> v from the last point x, and the last level adds
    the closing edge W[-1] -> n-1.  A child is dropped when an avoid row
    holds v at x, or when its edge x -> heads[v] closes a cycle of other
    than `length` points or joins two paths into one of more.  The paths
    are kept as each end's other end and size, so a child costs O(1)
    besides its copy.  The digits of a prefix can equal the limit's
    leading digits for at most one prefix, the tight one, and only its
    children are cut, with no rank arithmetic.
    """
    signed = 8 * itemsize - 1
    if n < 2 or length < 1 or itemsize not in (1, 2, 4) or (itemsize < 4 and (n - 1) >> signed):
        raise ValueError(
            f"need n >= 2, length >= 1 and a signed item size of 1, 2 or 4 bytes "
            f"that holds n-1, got n={n}, length={length}, itemsize={itemsize}"
        )
    avoid = np.frombuffer(_ints(avoid, "avoid", (4,), None, exact=False), np.int32)
    if len(avoid) % n:
        raise ValueError(f"avoid has {len(avoid)} items, not a multiple of n={n}")
    heads = np.frombuffer(_ints(heads, "heads", (4,), n, exact=True), np.int32)
    if digits is not None:
        digits = _ints(digits, "digits", (4,), n - 1, exact=True).tolist()
    if not ((heads >= 0) & (heads < n)).all():
        raise ValueError(f"each head must be in 0..{n - 1}")
    for j, digit in enumerate(digits or ()):
        if not 0 <= digit <= n - 2 - j:
            raise ValueError(f"digits[{j}] must be in 0..{n - 2 - j}")
    if not ((avoid >= 0) & (avoid < n)).all():
        raise ValueError(f"each avoid value must be in 0..{n - 1}")
    avoid = avoid.reshape(-1, n)
    heads = heads[: n - 1]
    tight = 0 if digits is not None else None  # the row whose prefix is the limit's
    point = np.min_scalar_type(-2 * n).type  # holds two sizes' sum
    words = np.zeros((1, n - 1), dtype=np.min_scalar_type(-n))
    free = np.ones((1, n - 1), dtype=bool)  # values not yet in the prefix
    other = np.arange(n, dtype=point)[None]  # the other end of a path end
    size = np.ones((1, n), dtype=point)  # the points of the path at an end
    for j in range(n - 1):
        rows = np.arange(len(words))
        x = words[:, j - 1] if j else np.full(len(words), n - 1)
        tail, at_x = other[rows, x], size[rows, x]
        ok = free.copy()
        bars = avoid[:, x]  # the values each row's last point may not take
        hit = bars < n - 1
        ok[np.broadcast_to(rows, bars.shape)[hit], bars[hit]] = False
        ok &= np.where(
            tail[:, None] == heads, at_x[:, None] == length, at_x[:, None] + size[:, heads] <= length
        )
        if tight is not None:
            # The tight prefix's children past the limit's digit are past it.
            cut = np.flatnonzero(free[tight])[digits[j]]
            ok[tight, cut + 1 :] = False
        parent, v = np.nonzero(ok)
        if tight is not None:
            tight = next(iter(np.flatnonzero((parent == tight) & (v == cut))), None)
        start, end = tail[parent], other[parent, heads[v]]
        joined = at_x[parent] + size[parent, heads[v]]
        words, free, other, size = words[parent], free[parent], other[parent], size[parent]
        rows = np.arange(len(words))
        words[:, j] = v
        free[rows, v] = False
        other[rows, start], other[rows, end] = end, start
        size[rows, start], size[rows, end] = joined, joined
    # The closing edge meets the one open path, from heads[n-1] to W[-1].
    x = words[:, -1]
    keep = (avoid[:, x] != n - 1).all(axis=0) & (size[np.arange(len(words)), x] == length)
    if tight is not None:
        keep[tight] = False  # its rank is the limit's
    words = words[keep]
    # w maps n-1 to W[0], each entry to the next, and the last back to n-1.
    visits = np.column_stack((np.full(len(words), n - 1, words.dtype), words))
    images = np.empty(visits.shape, dtype=f"i{itemsize}")
    images[np.arange(len(visits))[:, None], visits] = np.roll(visits, -1, axis=1)
    return images


# The largest m whose pair codes fit in int64: m (m+1)^(m-1), the code of
# one m-cycle, is below 2^63 for m = 15 and above it for m = 16.
MAX_CODED = 15


def pair_codes(table, index, n_pairs: int, m: int, out) -> None:
    """Writes to out[k] (8-byte ints) the code of pair k, table rows a =
    index[2k] and b = index[2k+1]: with c_L the points on cycles of
    length L of x -> inv(a)[b[x]], the code is sum_L c_L (m+1)^(L-1),
    whose base-(m+1) digits give the partition back.  ValueError for m
    outside 1..MAX_CODED, a row index outside the table or a row that is
    not a permutation of 0..m-1.

    One m-step numpy loop codes every pair at once: step t marks the
    points that x -> inv(a)[b[x]] first brings home after t steps.
    """
    if not 1 <= m <= MAX_CODED or n_pairs < 0:
        raise ValueError(
            f"need 1 <= m <= {MAX_CODED} and n_pairs >= 0, got m={m}, n_pairs={n_pairs}"
        )
    items = _ints(table, "table", (1, 2, 4), None, exact=False)
    rows = np.asarray(_ints(index, "index", (4,), 2 * n_pairs, exact=True))
    out_view = _ints(out, "out", (8,), n_pairs, exact=False)
    if len(items) % m:
        raise ValueError(f"table has {len(items)} items, not a multiple of m={m}")
    table = np.asarray(items).reshape(-1, m)
    if not ((rows >= 0) & (rows < len(table))).all():
        raise ValueError(f"each row index must be in 0..{len(table) - 1}")
    if not (np.sort(table[np.unique(rows)], axis=1) == np.arange(m)).all():
        raise ValueError(f"each image must be a permutation of 0..{m - 1}")
    images = table[rows].reshape(n_pairs, 2, m)
    # Point x of pair k sits at x + shift[k] of the flattened block, so
    # one gather applies each pair's own permutation.
    shift = np.arange(0, n_pairs * m, m)[:, None]
    home = np.arange(m) + shift
    weights = (m + 1) ** np.arange(m, dtype=np.int64)
    inverse = np.empty(n_pairs * m, dtype=np.intp)
    inverse[images[:, 0] + shift] = home
    sigma = inverse[images[:, 1] + shift]
    lengths = np.zeros((n_pairs, m), dtype=np.intp)
    power = sigma
    for t in range(1, m + 1):
        lengths[(power == home) & (lengths == 0)] = t
        power = sigma.ravel()[power]
    np.asarray(out_view)[:n_pairs] = weights[lengths - 1].sum(axis=1)

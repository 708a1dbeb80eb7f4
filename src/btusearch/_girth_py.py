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
compiled grower: the same depth-first walk over a ring of the unused
values, in plain Python, so the same rows in the same order.  `pair_codes`
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
# Signed array type per item size: the grower's rows.
_SIGNED = {1: "b", 2: "h", 4: "i"}

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
    table, index, n_graphs: int, m: int, r: int, out, cutoff: int, slack: int = 0
) -> int:
    """Writes the girths of graphs 0, 1, ... to out in order and returns
    how many it wrote, n_graphs.  They are all exact, which meets the
    compiled kernel's rising-cutoff contract whatever cutoff and slack
    are."""
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


def grow_cycles(avoid, heads, digits, n: int, length: int, itemsize: int, twins=False):
    """The n-cycles w of 0..n-1 that pass the grower's filters, in the
    lexicographic order of their words, as one array of `itemsize`-byte
    signed ints, n to a row: w(n-1) = W[0], w(W[i]) = W[i+1] and
    w(W[-1]) = n-1 for the word W, a permutation of 0..n-2.  A row is
    kept when it differs from every avoid row at every point, every
    cycle of x -> heads[w(x)] has `length` points, and, when digits is
    not None, the word's rank is below the limit whose n-1
    factorial-base digits they are, and, with twins, the word W is not
    after the word W' of the twin rho.inv(w).rho, rho: x -> n-1-x:
    W[i] = w^(i+1)(n-1) against W'[i] = n-1 - w^-(i+1)(0), compared at
    the leaf.  avoid holds t rows of n 4-byte ints
    in 0..n-1 (t >= 0), heads n 4-byte ints in 0..n-1 and digits n-1
    4-byte ints, digit j in 0..n-2-j.

    The walk is the compiled grower's, step for step: depth-first over
    the word entries, each stepping only over the unused values, a ring
    that an entry unlinks its value from and relinks it to when it
    leaves it; a path kept as each end's other end and size; and a join
    that records x's path, so that leaving its entry splits it back.
    The state is O(n) ints, and the rows kept go to one array of the row
    type.
    """
    signed = 8 * itemsize - 1
    if n < 2 or length < 1 or itemsize not in (1, 2, 4) or (itemsize < 4 and (n - 1) >> signed):
        raise ValueError(
            f"need n >= 2, length >= 1 and a signed item size of 1, 2 or 4 bytes "
            f"that holds n-1, got n={n}, length={length}, itemsize={itemsize}"
        )
    items = _ints(avoid, "avoid", (4,), None, exact=False)
    if len(items) % n:
        raise ValueError(f"avoid has {len(items)} items, not a multiple of n={n}")
    heads = _ints(heads, "heads", (4,), n, exact=True)
    if digits is not None:
        digits = _ints(digits, "digits", (4,), n - 1, exact=True)
    if not all(0 <= h < n for h in heads):
        raise ValueError(f"each head must be in 0..{n - 1}")
    for j, digit in enumerate(digits or ()):
        if not 0 <= digit <= n - 2 - j:
            raise ValueError(f"digits[{j}] must be in 0..{n - 2 - j}")
    if not all(0 <= v < n for v in items):
        raise ValueError(f"each avoid value must be in 0..{n - 1}")
    avoid = [items[s : s + n] for s in range(0, len(items), n)]
    closes = {at % n for at, v in enumerate(items) if v == n - 1}  # the points barred from n-1
    rows = array(_SIGNED[itemsize])
    img = array(_SIGNED[itemsize], bytes(itemsize * n))  # w's image so far
    inv = [0] * n  # per value: the point w takes to it so far
    # Lists index faster than arrays.  Every int they hold is one of
    # `ints`, so no item holds an int object of its own.
    ints = list(range(n + 1))
    heads = [ints[h] for h in heads]
    other, size = ints[:n], [1] * n  # per point: the path ends
    after, before = ints[1:n] + ints[:1], ints[n - 1 : n] + ints[: n - 1]  # per value: the ring
    # Per entry: its value (n-1 before its first), the largest it may
    # take, whether its prefix is tight, and the start of x's path and
    # that path's size before the entry's join (start -1: a close).
    value, top, tight = [n - 1] * (n - 1), [0] * (n - 1), [digits is not None] * (n - 1)
    start, kept = [-1] * (n - 1), [0] * (n - 1)
    j, last = 0, n - 2
    while True:
        x = value[j - 1] if j else n - 1
        v = value[j]
        if v == n - 1:  # a new entry: its range of values
            top[j] = last
            if tight[j]:
                top[j] = after[n - 1]
                for _ in range(digits[j]):
                    top[j] = after[top[j]]
        else:  # leave the entry's last value
            after[before[v]] = before[after[v]] = v
            s = start[j]
            if s >= 0:  # split s..e back into s..x and heads[v]..e
                e, joined = other[s], size[s]
                other[s], other[e] = x, heads[v]
                size[s], size[e] = kept[j], ints[joined - kept[j]]
        tail, at_x, cap = other[x], size[x], top[j]
        v = after[v]
        while v <= cap:  # the head n-1 is above every top
            for row in avoid:
                if row[x] == v:
                    break
            else:
                h = heads[v]
                if at_x == length if tail == h else at_x + size[h] <= length:
                    break
            v = after[v]
        if v > cap:  # no value left: back to the entry before
            if not j:
                return rows
            j -= 1
            continue
        value[j] = v
        after[before[v]], before[after[v]] = after[v], before[v]
        img[x] = v
        inv[v] = x
        h = heads[v]
        start[j] = -1
        if tail != h:  # join x's path to the path that starts at h
            e = other[h]
            start[j], kept[j] = tail, at_x
            other[tail], other[e] = e, tail
            size[tail] = size[e] = ints[at_x + size[h]]
        if j < last:
            tight[j + 1] = tight[j] and v == cap
            j += 1
            value[j] = n - 1
        elif v not in closes and size[v] == length and not (tight[j] and v == cap):
            # The closing edge v -> n-1 meets the one open path, whose
            # other end is heads[n-1].
            img[v] = n - 1
            inv[n - 1] = v
            if twins:
                a, b = n - 1, 0
                for _ in range(n - 1):
                    a, b = img[a], inv[b]
                    if a + b != n - 1:
                        break
                if a + b > n - 1:  # W[i] > W'[i]: the twin's row comes first
                    continue
            rows += img


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

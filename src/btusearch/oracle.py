"""Exhaustive ground truth at desk scale.

Covers every labeled (m, r) BTU (optionally with the first slot pinned
to the identity, which loses no girth values because any BTU can be
relabelled to that form), computes the true maximum girth, groups the
family by partition signature, and compares the staged engine against
the exhaustive answer.

When a free slot follows the first free slot, the m! permutations form
one lexicographic int array, the universe
(`searchspace.lex_permutations`).  The free slots take their rows from
the pool: the rows that disagree everywhere with the identity, row 0,
when the first slot is fixed, and every row when it is free.  Where a
slot must be checked against an earlier free slot (r >= 3 fixed, r >= 2
free), it reads rows of the pool x pool "disagree everywhere" matrix K,
each built, by one equality pass per position, the first time a join
reads it.  The tuples then grow one slot at a time by a join: the AND
of the K rows of a prefix's free slots (none for the first free slot)
marks its choices, and one flat scan of the marks lists the (prefix,
choice) pairs in row-major, which is lexicographic, order.  Every level
but the last is joined whole; the last is joined a chunk of at most
BLOCK cells at a time, and its tuples come out as blocks of at most
BLOCK rows.

`enumerate_btus` lists every tuple.  `max_girth` and `phi_census` score
only the tuples with the identity first and the lex-first derangement
of its cycle type second, each counted with the number of tuples its
relabellings give (`_tuple_blocks` has the argument), so their output
is that of the full stream: (6, 3) fixed scores 322 graphs for its
21,280 tuples, (6, 2) free 4 for 190,800 and (8, 2) fixed 7 for 14,833.
Those slot-2 rows, one per partition of m into parts >= 2, are built in
closed form (`_class_representatives`), so r = 2 builds no universe:
its table is the identity and the representatives.

The census takes the partition code of each (previous slot, new slot)
pair once, at the join that forms it, by one `_kernel.pair_codes` call
on the pairs' universe row indices (in closed form for slot 2 when
weighted), and carries it with the prefix; a block's codes become one
dense key per tuple, which one np.unique counts.  Girths are computed a
block per kernel call, which reads each tuple's images from the table
itself, so the memory in use is the universe plus the K rows read plus
about one block; K is only built where the budget admits the sweep, so
it is at most 720 x 720 booleans, when every tuple of (6, 2) free is
listed, and a weighted r = 3 sweep builds only its <= p(m) slot-2 rows.

A run is refused up front, with BudgetExceededError (a
perms.TooLargeError), when its cost estimate (the universe rows plus the
compatibility checks, or at weighted r = 2 the p(m) class rows)
exceeds DEFAULT_BUDGET; an oracle that silently samples would not be
an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial, lgamma, log, log10

import numpy as np

from . import _kernel
from .btu import BTU
from .engine import SearchConfig, StageDeadEndError, search
from .parameters import DegenerateFactorizationError
from .perms import BTUError, PartitionP2, Permutation, TooLargeError, refuse_oversize
from .searchspace import lex_permutations

DEFAULT_BUDGET = 10_000_000
# Tuples per block, and (prefix, choice) cells per join of the last
# slot: bounds the index block, the kernel buffer and the census keys,
# whatever the number of tuples.
BLOCK = 4096


class BudgetExceededError(TooLargeError):
    """An exhaustive sweep whose estimated cost is over DEFAULT_BUDGET."""

    @property
    def budget(self) -> int:
        return self.limit


@dataclass(frozen=True)
class OracleReport:
    m: int
    r: int
    max_girth: int | None  # None: every graph is a forest (r = 1)
    maximizer_count: int
    witness: BTU
    enumerated: int
    first_slot_fixed: bool


@dataclass(frozen=True)
class VerifyReport:
    m: int
    r: int
    oracle: OracleReport
    engine_girth: int | None
    engine_btu: BTU | None
    equal: bool | None
    engine_note: str | None


def _estimate_checks(m: int, r: int, fixed: bool, weighted: bool = False) -> int:
    """Upper bound on the sweep's cost.  A weighted r = 2 sweep builds no
    universe, only one row per cycle type, so it is charged the p(m)
    partitions of m, where its int64 codes and weights hold (see
    `_class_rows_only`).  Any other sweep is charged the m! rows of the
    universe, plus every slot extension costed as if all m! permutations
    were tried against every prior slot."""
    if _class_rows_only(m, r, fixed, weighted):
        return sum(1 for _ in _partitions(m, 1))
    free = r - 1 if fixed else r
    prior0 = 1 if fixed else 0
    return factorial(m) + sum(
        factorial(m) ** t * (t - 1 + prior0) for t in range(1, free + 1)
    )


def _log10_estimate(m: int, r: int, fixed: bool, weighted: bool = False) -> float:
    """log10 of _estimate_checks(m, r, fixed, weighted) to within its
    largest term, sized from lgamma, so no huge factorial is computed."""
    if _class_rows_only(m, r, fixed, weighted):
        return log10(_estimate_checks(m, r, fixed, weighted))
    free = r - 1 if fixed else r
    last = free if fixed else free - 1  # the factor of the largest term
    rows = lgamma(m + 1) / log(10)
    return free * rows + log10(last) if last > 0 else rows


def _class_rows_only(m: int, r: int, fixed: bool, weighted: bool) -> bool:
    """Whether the sweep is a weighted r = 2 one whose class codes, up to
    m (m+1)^(m-1), and tuple counts, up to m!^2 with the first slot free,
    fit in int64: m <= 15, and m <= 12 when free."""
    return weighted and r == 2 and m <= 15 and factorial(m) ** (2 - fixed) < 2**63


def _disagree(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) bool: whether row i of `a` disagrees everywhere
    with row j of `b`, by one equality pass per position, so no
    (len(a), len(b), m) array is made."""
    out = np.ones((len(a), len(b)), dtype=bool)
    for x in range(a.shape[1]):
        out &= a[:, x, None] != b[:, x]
    return out


def _join(universe, pool, compatible, heads, codes, fixed, coded, c0, c1):
    """Each row of `heads` (the pool positions of the free slots chosen so
    far, in lexicographic order, with `codes` the codes of their adjacent
    pairs) followed by each pool position in c0:c1 compatible with all
    of its slots, in lexicographic order: the set cells of the AND of the
    prefix's K rows (none for the first free slot), listed by one flat
    scan in row-major order.  When
    `coded`, the code of each new (previous slot, new slot) pair, from
    their universe row indices, is appended to its codes; the first free
    slot's previous slot is the fixed identity, row 0, or none.
    """
    mask = np.ones((len(heads), c1 - c0), dtype=bool)
    for column in heads.T:
        mask &= compatible[column, c0:c1]
    at, choice = np.divmod(np.flatnonzero(mask), c1 - c0)
    choice += c0
    pair = []
    if coded:
        # Each prefix's slots as universe rows, the fixed identity first.
        before = np.column_stack((np.zeros((len(heads), int(fixed)), np.intp), pool[heads]))
        for last in before.T[-1:]:
            rows = np.column_stack((last[at], pool[choice]))
            pair.append(_kernel.pair_codes(universe, rows, universe.shape[1]))
    return np.column_stack((heads[at], choice)), np.column_stack((codes[at], *pair))


def _partitions(n: int, least: int):
    """The partitions of n into parts >= least, each a tuple of its parts
    in ascending order."""
    if not n:
        yield ()
    for part in range(least, n + 1):
        for rest in _partitions(n - part, part):
            yield (part, *rest)


def _code(parts: tuple[int, ...], m: int) -> int:
    """The `_kernel.pair_codes` code of a cycle type of degree m: a part L
    adds L (m+1)^(L-1)."""
    return sum(part * (m + 1) ** (part - 1) for part in parts)


@lru_cache(maxsize=None)
def _class_representatives(m: int):
    """The lex-first derangement of each cycle type, in lexicographic
    order, as (rows, sizes, codes, ranks): an (n, m) array of 0-based
    images in the universe's dtype, and int64 arrays of the number m!/z
    of derangements of each type (z the product of L^c c! over its parts
    L of multiplicity c), the `_kernel.pair_codes` code of each row
    against the identity, and each row's lex rank, its universe row.
    Computed once per m; the arrays are read-only.

    A derangement's cycle type is a partition of m with every part
    >= 2.  The lex-first permutation of a type puts its parts in
    ascending order, each on consecutive points, mapping x to x+1 and
    the part's last point back to its first.  Build the least row
    position by position, each taking the least value it can: the
    points so far lie on closed cycles and one open cycle, whose first
    point is the least unused value, and closing the open cycle maps to
    it.  Closing is allowed exactly when the cycle's length is a
    remaining part (a part of 1 is none), and otherwise the next point,
    the least value left, extends it; so the smallest remaining part
    closes first.  The lex rank sums (m-1-x)! times the count of later
    values below value x: one, the cycle's first point, when x maps to
    x+1, and none when x closes its cycle.
    """
    classes = []
    for parts in _partitions(m, 2):
        row, z = [], 1
        for length in set(parts):
            z *= length ** parts.count(length) * factorial(parts.count(length))
        for length in parts:
            row += [*range(len(row) + 1, len(row) + length), len(row)]
        rank = sum(factorial(m - 1 - x) for x, y in enumerate(row) if y == x + 1)
        classes.append((rank, row, factorial(m) // z, _code(parts, m)))
    ranks, rows, sizes, codes = zip(*sorted(classes))
    columns = (
        np.array(rows, dtype=np.min_scalar_type(-m)),
        *(np.array(column, dtype=np.int64) for column in (sizes, codes, ranks)),
    )
    for column in columns:
        column.flags.writeable = False
    return columns


def _tuple_blocks(m: int, r: int, fixed: bool, coded: bool = False, weighted: bool = False):
    """The ordered pairwise-compatible r-tuples, in lexicographic order,
    as (table, tuples, codes, weights): a table of 0-based images, m to a
    row, an int32 array of shape (at most BLOCK, r) of its rows, the int64
    `_kernel.pair_codes` of each tuple's r-1 adjacent pairs when `coded`
    (otherwise no columns), and the number of tuples each listed one
    stands for: 1 for the whole block unless `weighted`, and otherwise an
    int64 array with one entry per tuple.  The table is the universe,
    shape (m!, m), except at weighted r = 2, where it is the identity and
    slot 2's class representatives.

    Unless `weighted`, every tuple is listed, with weight 1.  When
    `weighted`, a subsequence of that stream is listed:
    - with the first slot free, relabelling the columns by inv(a) maps
      (a, b, ...) one-to-one onto (id, inv(a).b, ...), so only the tuples
      with the identity first are listed, the fixed sweep with every
      weight times m!;
    - with the identity first, slot 2 takes only the lex-first pool row
      of each cycle type, in closed form (`_class_representatives`),
      weighted by the pool rows of that type: conjugating every slot by
      one sigma keeps the identity and maps the completions of a row
      one-to-one onto those of any row of its type.  At r = 2 these are
      the whole block; at r >= 3 each is found in the pool by its lex
      rank, its universe row.
    Both relabellings keep compatibility, the graph up to isomorphism and
    the cycle type of inv(p).q of every slot pair, so each girth and
    signature has the weighted count it has in the full stream.  And the
    full stream's first tuple with a given girth or signature is listed:
    a tuple without the identity first, or with a slot 2 that is not the
    first of its type, has a relabelled copy that comes before it.

    At the first next() it checks m and r, ends at once for r > m (no r
    permutations can pairwise disagree at a position with only m values
    available), and refuses a sweep over DEFAULT_BUDGET, estimated as
    for the full stream; only then is a table built.  The free slots
    take pool rows; every slot but the last is joined for all prefixes at
    once, and the last a chunk of at most BLOCK (prefix, choice) cells at
    a time, after the K rows of every slot the prefixes hold are built.
    Chunks are pooled, so every block but the last holds exactly BLOCK
    tuples.
    """
    if m < 1 or r < 1:
        raise ValueError("need m >= 1 and r >= 1")
    if r > m:
        return
    refuse_oversize(
        DEFAULT_BUDGET, _log10_estimate(m, r, fixed, weighted),
        lambda: _estimate_checks(m, r, fixed, weighted),
        f"exhaustive sweep of ({m}, {r}) needs an estimated {{count}} "
        "universe rows and compatibility checks, over the budget of {limit}",
        BudgetExceededError,
    )
    scale = 1
    if weighted and not fixed:
        fixed, scale = True, factorial(m)
    free = r - fixed
    if weighted and free:
        reps, sizes, rep_codes, ranks = _class_representatives(m)
        sizes = sizes * scale
        rep_codes = rep_codes[:, None] if coded else np.empty((len(reps), 0), dtype=np.int64)
        if free == 1:  # r = 2: every class is one tuple
            table = np.concatenate((np.arange(m, dtype=reps.dtype)[None], reps))
            tuples = np.zeros((len(reps), 2), dtype=np.int32)
            tuples[:, 1] = np.arange(1, len(table))
            yield table, tuples, rep_codes, sizes
            return
    universe = lex_permutations(m)
    if not free:  # r = 1 with the identity fixed
        weights = np.array([scale], dtype=np.int64) if weighted else 1
        yield universe, np.zeros((1, 1), dtype=np.int32), np.empty((1, 0), dtype=np.int64), weights
        return
    if fixed:
        pool = np.flatnonzero(_disagree(universe, universe[:1])[:, 0])
    else:
        pool = np.arange(len(universe))
    # K, read once a slot is checked against an earlier free slot; a row
    # is built when a prefix first holds its pool row.
    compatible = np.zeros((len(pool), len(pool)), dtype=bool) if free > 1 else None
    built = np.zeros(len(pool), dtype=bool)

    def build_rows(heads):
        held = np.zeros(len(pool), dtype=bool)
        held[heads] = True
        new = np.flatnonzero(held & ~built)
        if len(new):
            compatible[new] = _disagree(universe[pool[new]], universe[pool])
            built[new] = True

    heads, codes = np.empty((1, 0), dtype=np.intp), np.empty((1, 0), dtype=np.int64)
    levels = free - 1
    if weighted:  # the first free slot: each class representative's pool position
        heads, codes = np.searchsorted(pool, ranks)[:, None], rep_codes
        levels -= 1
    for _ in range(levels):
        build_rows(heads)
        heads, codes = _join(universe, pool, compatible, heads, codes, fixed, coded, 0, len(pool))
    build_rows(heads)

    def block(tuples, tuple_codes):
        weights = sizes[np.searchsorted(ranks, tuples[:, 1])] if weighted else 1
        return universe, tuples, tuple_codes, weights

    width = min(len(pool), BLOCK)
    rows = BLOCK // width
    pending, pending_codes, pooled = [], [], 0
    for p0 in range(0, len(heads), rows):
        for c0 in range(0, len(pool), width):
            leaves, leaf_codes = _join(
                universe, pool, compatible, heads[p0 : p0 + rows], codes[p0 : p0 + rows],
                fixed, coded, c0, min(c0 + width, len(pool)),
            )
            piece = np.zeros((len(leaves), r), dtype=np.int32)
            piece[:, int(fixed) :] = pool[leaves]
            pending.append(piece)
            pending_codes.append(leaf_codes)
            pooled += len(piece)
            if pooled >= BLOCK:
                tuples, tuple_codes = np.concatenate(pending), np.concatenate(pending_codes)
                yield block(tuples[:BLOCK], tuple_codes[:BLOCK])
                pending, pending_codes = [tuples[BLOCK:]], [tuple_codes[BLOCK:]]
                pooled -= BLOCK
    if pooled:
        yield block(np.concatenate(pending), np.concatenate(pending_codes))


def _btu(images: np.ndarray) -> BTU:
    """The BTU of one tuple's 0-based images, shape (r, m)."""
    r, m = images.shape
    return BTU(
        m=m, r=r, perms=tuple(Permutation(tuple(img)) for img in (images + 1).tolist())
    )


def enumerate_btus(m: int, r: int, fix_first_identity: bool):
    """All ordered pairwise-compatible r-tuples, lexicographically.

    Yields BTU values.  Empty for r > m (no r permutations can pairwise
    disagree at a position with only m values available).
    """
    for table, tuples, _, _ in _tuple_blocks(m, r, fix_first_identity):
        for one in table[tuples]:
            yield _btu(one)


def max_girth(m: int, r: int, fix_first_identity: bool = True) -> OracleReport:
    """Exact maximum girth over the exhaustive stream.

    The stream is swept weighted (see `_tuple_blocks`): one tuple per
    relabelling class of slot 2, counted with its class size, so
    `enumerated` and the maximiser count, the sums of the weights, are
    those of the full stream, and the witness, the first tuple at the
    maximum, is the full stream's, which the sweep lists.  At r = 2 the
    sweep is one block of one graph per cycle type (7 at (8, 2)).  Each
    block goes to the girth kernel as one call on its table and tuples,
    with slack 1, so the cutoff stays one below the running best: a girth at
    or under the cutoff comes back at most the cutoff, so it can neither
    reach the best nor tie it, and a tie comes back exact, so the
    maximiser count is exact too.  The kernel's 0 for a forest is
    reported as None, as btu.girth reports it.
    """
    best, count, enumerated = -1, 0, 0
    witness: np.ndarray | None = None
    for table, tuples, _, weights in _tuple_blocks(m, r, fix_first_identity, weighted=True):
        girths = _kernel.girth_batch(table, tuples, m, best - 1, slack=1)
        enumerated += int(weights.sum())
        top = int(girths.max())
        if top > best:
            best, count, witness = top, 0, table[tuples[int(girths.argmax())]]
        if top == best:
            count += int(weights[girths == best].sum())
    if witness is None:
        raise BTUError(f"no ({m}, {r}) BTU exists")
    return OracleReport(
        m=m,
        r=r,
        max_girth=best or None,
        maximizer_count=count,
        witness=_btu(witness),
        enumerated=enumerated,
        first_slot_fixed=fix_first_identity,
    )


def _known_codes(m: int) -> np.ndarray:
    """The sorted `_kernel.pair_codes` of the p(m) partitions of m, one
    for each partition."""
    return np.sort(np.fromiter((_code(parts, m) for parts in _partitions(m, 1)), dtype=np.int64))


def _partition(code: int, m: int) -> PartitionP2:
    """The partition a `_kernel.pair_codes` entry stands for."""
    parts = []
    for length in range(1, m + 1):
        points = code // (m + 1) ** (length - 1) % (m + 1)
        parts += [length] * (points // length)
    return PartitionP2(tuple(parts))


def phi_census(
    m: int, r: int, fix_first_identity: bool = True
) -> dict[tuple[PartitionP2, ...], int]:
    """Counts of enumerated BTUs grouped by adjacent-partition signature.

    The stream is swept weighted, as in `max_girth`, which keeps the
    counts and the dict order of the full stream.  A tuple's slot-2 code
    comes with its class representative, and each later pair code from
    the join that formed the pair.  Each code becomes the rank of its
    partition among the p(m) partitions of m, by a searchsorted into
    their sorted codes, and a tuple's ranks become one int64 key in base
    p(m) (the budget keeps p(m)^(r-1) far below 2^63), which one
    np.unique counts per block.  A tuple's weight (an int64 array entry,
    as for every weighted block) depends only on the cycle type of its
    first free slot, its first code, so every tuple of a key has the
    weight of the key's first.  Signatures enter the dict in the order
    the stream first meets them, and each distinct one is decoded once,
    at the end.
    """
    counts: dict[tuple[int, ...], int] = {}
    known = None
    for _, _, codes, weights in _tuple_blocks(m, r, fix_first_identity, coded=True, weighted=True):
        if known is None:  # only once the sweep is admitted
            known = _known_codes(m)
        key = np.zeros(len(codes), dtype=np.int64)
        for column in np.searchsorted(known, codes).T:
            key = key * len(known) + column
        _, first, block_counts = np.unique(key, return_index=True, return_counts=True)
        block_counts *= weights[first]
        for i in np.argsort(first):
            sig = tuple(codes[first[i]].tolist())
            counts[sig] = counts.get(sig, 0) + int(block_counts[i])
    return {tuple(_partition(code, m) for code in sig): n for sig, n in counts.items()}


def verify_search(m: int, r: int, config: SearchConfig | None = None) -> VerifyReport:
    """Engine girth vs exhaustive maximum.

    The engine runs first, as it is the cheap side.  A size the engine
    does not apply to (k = 1, r < 2, m <= r, or a stage dead end) gets an
    engine_note instead of a girth, and an inequality is reported, never
    raised: a disagreement is data about the staged construction at that
    size.
    """
    engine_girth: int | None = None
    engine_btu: BTU | None = None
    note: str | None = None
    try:
        result = search(m, r, config)
        engine_girth, engine_btu = result.girth, result.btu
    except (DegenerateFactorizationError, StageDeadEndError, ValueError) as exc:
        if isinstance(exc, ValueError) and r >= 2 and m > r:
            raise  # factorize's ValueError is for r < 2 or m <= r only
        note = f"engine inapplicable: {exc}"
    report = max_girth(m, r)
    equal = None if engine_girth is None else engine_girth == report.max_girth
    return VerifyReport(
        m=m,
        r=r,
        oracle=report,
        engine_girth=engine_girth,
        engine_btu=engine_btu,
        equal=equal,
        engine_note=note,
    )

"""Exhaustive ground truth at desk scale.

Enumerates every labeled (m, r) BTU (optionally with the first slot
pinned to the identity, which loses no girth values because any BTU can
be relabelled to that form), computes the true maximum girth, groups
the family by partition signature, and compares the staged engine
against the exhaustive answer.

The m! permutations form one lexicographic int array, the universe
(`searchspace.lex_permutations`).  The free slots take their rows from
the pool: the rows that disagree everywhere with the identity, row 0,
when the first slot is fixed, and every row when it is free.  Where a
slot must be checked against an earlier free slot (r >= 3 fixed, r >= 2
free), the pool x pool "disagree everywhere" matrix K is built once, by
one equality pass per position.  The tuples then grow one slot at a
time by a join: the AND of the K rows of a prefix's slots marks its
choices, and np.nonzero lists the (prefix, choice) pairs in row-major,
which is lexicographic, order.  Every level but the last is joined
whole; the last is joined a chunk of at most BLOCK cells at a time, and
its tuples come out as blocks of at most BLOCK rows.  The census takes
the partition code of each (previous slot, new slot) pair once, at the
join that forms it, by one `_kernel.pair_codes` call on the pairs'
universe row indices, and carries it with the prefix; a block's codes
become one dense key per tuple, which one np.unique counts.  Girths are
computed a block per kernel call, which reads each tuple's images from
the universe itself, so the memory in use is the universe plus K plus
about one block; K is only built where the budget admits the sweep, so
it is at most 720 x 720 booleans, at (6, 2) free.

A run is refused up front, with BudgetExceededError (a
perms.TooLargeError), when its cost estimate (the universe rows plus the
compatibility checks) exceeds DEFAULT_BUDGET; an oracle that silently
samples would not be an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _estimate_checks(m: int, r: int, fixed: bool) -> int:
    """Upper bound on the sweep's cost: the m! rows of the universe, plus
    every slot extension costed as if all m! permutations were tried
    against every prior slot."""
    free = r - 1 if fixed else r
    prior0 = 1 if fixed else 0
    return factorial(m) + sum(
        factorial(m) ** t * (t - 1 + prior0) for t in range(1, free + 1)
    )


def _log10_estimate(m: int, r: int, fixed: bool) -> float:
    """log10 of _estimate_checks(m, r, fixed) to within its largest term,
    sized from lgamma, so no huge factorial is computed."""
    free = r - 1 if fixed else r
    last = free if fixed else free - 1  # the factor of the largest term
    rows = lgamma(m + 1) / log(10)
    return free * rows + log10(last) if last > 0 else rows


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
    of its slots, in lexicographic order: the rows of np.nonzero of the
    AND of the prefix's K rows.  When `coded`, the code of each new
    (previous slot, new slot) pair is appended to its codes: the kernel
    takes the pairs as universe row indices; the previous slot of the
    first free slot is the fixed identity, row 0, or none.
    """
    if heads.shape[1]:
        mask = compatible[heads[:, 0], c0:c1]
        for column in heads.T[1:]:
            mask &= compatible[column, c0:c1]
        at, choice = np.nonzero(mask)
        choice += c0
    else:  # the first free slot: any pool row
        at, choice = np.zeros(c1 - c0, dtype=np.intp), np.arange(c0, c1)
    pair = ()
    if coded and (fixed or heads.shape[1]):
        prev = pool[heads[at, -1]] if heads.shape[1] else np.zeros_like(choice)
        rows = np.column_stack((prev, pool[choice]))
        pair = (_kernel.pair_codes(universe, rows, universe.shape[1]),)
    return np.column_stack((heads[at], choice)), np.column_stack((codes[at], *pair))


def _tuple_blocks(m: int, r: int, fixed: bool, coded: bool = False):
    """Every ordered pairwise-compatible r-tuple, in lexicographic order,
    as (universe, tuples, codes): the universe of 0-based images, shape
    (m!, m), an int32 array of shape (at most BLOCK, r) of its rows, and
    the int64 `_kernel.pair_codes` of each tuple's r-1 adjacent pairs when
    `coded` (otherwise no columns).

    At the first next() it checks m and r, ends at once for r > m (no r
    permutations can pairwise disagree at a position with only m values
    available), and refuses a sweep over DEFAULT_BUDGET; only then is the
    universe built.  The free slots take pool rows; every slot but the
    last is joined for all prefixes at once, and the last a chunk of at
    most BLOCK (prefix, choice) cells at a time.  Chunks are pooled, so
    every block but the last holds exactly BLOCK tuples.
    """
    if m < 1 or r < 1:
        raise ValueError("need m >= 1 and r >= 1")
    if r > m:
        return
    refuse_oversize(
        DEFAULT_BUDGET, _log10_estimate(m, r, fixed), lambda: _estimate_checks(m, r, fixed),
        f"exhaustive sweep of ({m}, {r}) needs an estimated {{count}} "
        "universe rows and compatibility checks, over the budget of {limit}",
        BudgetExceededError,
    )
    universe = lex_permutations(m)
    if fixed:
        pool = np.flatnonzero(_disagree(universe, universe[:1])[:, 0])
    else:
        pool = np.arange(len(universe))
    free = r - fixed
    if not free:  # r = 1 with the identity fixed
        yield universe, np.zeros((1, 1), dtype=np.int32), np.empty((1, 0), dtype=np.int64)
        return
    # K, needed once a slot is checked against an earlier free slot.
    compatible = _disagree(universe[pool], universe[pool]) if free > 1 else None
    heads, codes = np.empty((1, 0), dtype=np.intp), np.empty((1, 0), dtype=np.int64)
    for _ in range(free - 1):
        heads, codes = _join(universe, pool, compatible, heads, codes, fixed, coded, 0, len(pool))
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
                yield universe, tuples[:BLOCK], tuple_codes[:BLOCK]
                pending, pending_codes = [tuples[BLOCK:]], [tuple_codes[BLOCK:]]
                pooled -= BLOCK
    if pooled:
        yield universe, np.concatenate(pending), np.concatenate(pending_codes)


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
    for universe, tuples, _ in _tuple_blocks(m, r, fix_first_identity):
        for one in universe[tuples]:
            yield _btu(one)


def max_girth(m: int, r: int, fix_first_identity: bool = True) -> OracleReport:
    """Exact maximum girth over the exhaustive stream.

    Each block goes to the girth kernel as one call on the universe and
    its tuples, with slack 1, so the cutoff stays one below the running
    best: a girth at or under the cutoff comes back at most the cutoff,
    so it can neither reach the best nor tie it, and a tie comes back
    exact, so the maximiser count is exact too.  The
    witness is the first tuple that reaches the maximum.  The kernel's 0
    for a forest is reported as None, as btu.girth reports it.
    """
    best, count, enumerated = -1, 0, 0
    witness: np.ndarray | None = None
    for universe, tuples, _ in _tuple_blocks(m, r, fix_first_identity):
        girths = _kernel.girth_batch(universe, tuples, m, best - 1, slack=1)
        enumerated += len(tuples)
        top = int(girths.max())
        if top > best:
            best, count, witness = top, 0, universe[tuples[int(girths.argmax())]]
        if top == best:
            count += int(np.count_nonzero(girths == best))
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
    for each partition: a part L adds L (m+1)^(L-1)."""

    def codes(n: int, top: int):
        if not n:
            yield 0
            return
        for part in range(min(n, top), 0, -1):
            for rest in codes(n - part, part):
                yield part * (m + 1) ** (part - 1) + rest

    return np.sort(np.fromiter(codes(m, m), dtype=np.int64))


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

    Each tuple's pair codes come from the joins that formed it.  Each
    code becomes the rank of its partition among the p(m) partitions of
    m, by a searchsorted into their sorted codes, and a tuple's ranks
    become one int64 key in base p(m) (the budget keeps p(m)^(r-1) far
    below 2^63), which one np.unique counts per block.  Signatures enter
    the dict in the order the stream first meets them, and each distinct
    one is decoded once, at the end.
    """
    counts: dict[tuple[int, ...], int] = {}
    known = None
    for _, _, codes in _tuple_blocks(m, r, fix_first_identity, coded=True):
        if known is None:  # only once the sweep is admitted
            known = _known_codes(m)
        key = np.zeros(len(codes), dtype=np.int64)
        for column in np.searchsorted(known, codes).T:
            key = key * len(known) + column
        _, first, block_counts = np.unique(key, return_index=True, return_counts=True)
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

"""Exhaustive ground truth at desk scale.

Enumerates every labeled (m, r) BTU (optionally with the first slot
pinned to the identity, which loses no girth values because any BTU can
be relabelled to that form), computes the true maximum girth, groups
the family by partition signature, and compares the staged engine
against the exhaustive answer.

The m! permutations form one lexicographic int array, the universe
(`searchspace.lex_permutations`).
Each slot's choices are the universe rows that disagree everywhere with
every earlier slot, found by one vectorised mask per chosen row, and
the resulting tuples of universe rows come out in lexicographic order
as blocks of at most BLOCK rows.  Girths are computed a block per
kernel call, which reads each tuple's images from the universe itself,
and partition signatures a block at a time by index arithmetic, so the
memory in use is the universe plus one block.

A run is refused up front when its cost estimate (the universe rows
plus the compatibility checks) exceeds the budget; an oracle that
silently samples would not be an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, lgamma, log, log10

import numpy as np

from . import _kernel
from .btu import BTU
from .engine import SearchConfig, StageDeadEndError, search
from .parameters import DegenerateFactorizationError
from .perms import BTUError, PartitionP2, Permutation, spell_count
from .searchspace import lex_permutations

DEFAULT_BUDGET = 10_000_000
# Tuples per block: bounds the index block, the kernel buffer and the
# census keys, whatever the number of tuples.
BLOCK = 4096


class BudgetExceededError(BTUError):
    def __init__(self, m: int, r: int, estimate: int | float, budget: int, text: str):
        self.estimate = estimate
        self.budget = budget
        super().__init__(
            f"exhaustive sweep of ({m}, {r}) needs an estimated {text} "
            f"universe rows and compatibility checks, over the budget of {budget}"
        )


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


def _leaves(
    universe: np.ndarray,
    compatible: np.ndarray,
    choices: np.ndarray,
    prefix: tuple[int, ...],
    r: int,
):
    """(prefix, choices for slot r) for every way to fill slots 1..r-1,
    in lexicographic order.  `compatible` are the universe rows that
    disagree everywhere with every slot of `prefix`, and `choices` those
    of them the next slot may take.

    A plain generator with explicit arguments: a self-referencing inner
    function would form a reference cycle that keeps the universe alive
    until the cyclic garbage collector runs.
    """
    if len(prefix) == r - 1:
        if len(choices):
            yield prefix, choices
        return
    images = universe[compatible]
    for c in choices.tolist():
        rest = compatible[(images != universe[c]).all(axis=1)]
        yield from _leaves(universe, rest, rest, (*prefix, c), r)


def _tuple_blocks(m: int, r: int, fixed: bool, budget: int):
    """Every ordered pairwise-compatible r-tuple, in lexicographic order,
    as (universe, tuples): the universe of 0-based images, shape (m!, m),
    and an int32 array of shape (at most BLOCK, r) of its rows.

    At the first next() it checks m and r, ends at once for r > m (no r
    permutations can pairwise disagree at a position with only m values
    available), and refuses a sweep over the budget; only then is the
    universe built.  Tuples of consecutive prefixes are pooled into one
    block, and a long run of choices for the last slot is split, so a
    block never holds more than BLOCK tuples.
    """
    if m < 1 or r < 1:
        raise ValueError("need m >= 1 and r >= 1")
    if r > m:
        return
    estimate, text = spell_count(
        _log10_estimate(m, r, fixed), lambda: _estimate_checks(m, r, fixed)
    )
    if estimate > budget:
        raise BudgetExceededError(m, r, estimate, budget, text)
    universe = lex_permutations(m)
    everything = np.arange(len(universe))
    first = everything[:1] if fixed else everything
    pending, pooled = [], 0
    for prefix, choices in _leaves(universe, everything, first, (), r):
        for start in range(0, len(choices), BLOCK):
            piece = np.empty((min(BLOCK, len(choices) - start), r), dtype=np.int32)
            piece[:, :-1] = prefix
            piece[:, -1] = choices[start : start + BLOCK]
            pending.append(piece)
            pooled += len(piece)
            if pooled >= BLOCK:
                tuples = np.concatenate(pending)
                yield universe, tuples[:BLOCK]
                pending, pooled = [tuples[BLOCK:]], pooled - BLOCK
    if pooled:
        yield universe, np.concatenate(pending)


def _btu(images: np.ndarray) -> BTU:
    """The BTU of one tuple's 0-based images, shape (r, m)."""
    r, m = images.shape
    return BTU(
        m=m, r=r, perms=tuple(Permutation(tuple(img)) for img in (images + 1).tolist())
    )


def enumerate_btus(
    m: int,
    r: int,
    fix_first_identity: bool,
    budget: int = DEFAULT_BUDGET,
):
    """All ordered pairwise-compatible r-tuples, lexicographically.

    Yields BTU values.  Empty for r > m (no r permutations can pairwise
    disagree at a position with only m values available).
    """
    for universe, tuples in _tuple_blocks(m, r, fix_first_identity, budget):
        for one in universe[tuples]:
            yield _btu(one)


def max_girth(
    m: int,
    r: int,
    fix_first_identity: bool = True,
    budget: int = DEFAULT_BUDGET,
) -> OracleReport:
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
    for universe, tuples in _tuple_blocks(m, r, fix_first_identity, budget):
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


def _partition_codes(images: np.ndarray) -> np.ndarray:
    """Per tuple, one int64 code for the union-cycle partition of each of
    its r-1 adjacent slot pairs: with c_L the points on cycles of length
    L under inv(p_i)[p_(i+1)], the code is sum_L c_L (m+1)^(L-1), whose
    base-(m+1) digits give the partition back."""
    count, r, m = images.shape
    # Point x of tuple t sits at x + shift[t] of the flattened block, so
    # one gather applies each tuple's own permutation.
    shift = np.arange(0, count * m, m)[:, None]
    home = np.arange(m) + shift
    weights = (m + 1) ** np.arange(m, dtype=np.int64)
    codes = np.zeros((count, r - 1), dtype=np.int64)
    inverse = np.empty(count * m, dtype=np.intp)
    for i in range(r - 1):
        inverse[images[:, i] + shift] = home
        sigma = inverse[images[:, i + 1] + shift]
        lengths = np.zeros((count, m), dtype=np.intp)
        power = sigma
        for t in range(1, m + 1):
            lengths[(power == home) & (lengths == 0)] = t
            power = sigma.ravel()[power]
        codes[:, i] = weights[lengths - 1].sum(axis=1)
    return codes


def _partition(code: int, m: int) -> PartitionP2:
    """The partition a `_partition_codes` entry stands for."""
    parts = []
    for length in range(1, m + 1):
        points = code // (m + 1) ** (length - 1) % (m + 1)
        parts += [length] * (points // length)
    return PartitionP2(tuple(parts))


def phi_census(
    m: int,
    r: int,
    fix_first_identity: bool = True,
    budget: int = DEFAULT_BUDGET,
) -> dict[tuple[PartitionP2, ...], int]:
    """Counts of enumerated BTUs grouped by adjacent-partition signature.

    A block's tuples get a dense signature number, pair by pair, that
    np.unique counts; signatures enter the dict in the order the stream
    first meets them.
    """
    census: dict[tuple[PartitionP2, ...], int] = {}
    for universe, tuples in _tuple_blocks(m, r, fix_first_identity, budget):
        codes = _partition_codes(universe[tuples])
        key = np.zeros(len(codes), dtype=np.int64)
        for column in codes.T:
            _, ids = np.unique(column, return_inverse=True)
            _, key = np.unique(key * (ids.max() + 1) + ids, return_inverse=True)
        _, first, counts = np.unique(key, return_index=True, return_counts=True)
        for i in np.argsort(first):
            sig = tuple(_partition(code, m) for code in codes[first[i]].tolist())
            census[sig] = census.get(sig, 0) + int(counts[i])
    return census


def verify_search(
    m: int,
    r: int,
    config: SearchConfig | None = None,
    budget: int = DEFAULT_BUDGET,
) -> VerifyReport:
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
    report = max_girth(m, r, budget=budget)
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

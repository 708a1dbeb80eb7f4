"""Exhaustive ground truth at desk scale.

Enumerates every labeled (m, r) BTU (optionally with the first slot
pinned to the identity, which loses no girth values because any BTU can
be relabelled to that form), computes the true maximum girth, groups
the family by partition signature, and compares the staged engine
against the exhaustive answer.

A run is refused up front when its cost estimate exceeds the
compatibility-check budget; an oracle that silently samples would not
be an oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial

from . import _kernel
from .btu import BTU, adjacent_partitions
from .engine import SearchConfig, StageDeadEndError, search
from .parameters import DegenerateFactorizationError
from .perms import BTUError, PartitionP2, Permutation

DEFAULT_BUDGET = 10_000_000


class BudgetExceededError(BTUError):
    def __init__(self, m: int, r: int, estimate: int, budget: int):
        self.estimate = estimate
        self.budget = budget
        super().__init__(
            f"exhaustive sweep of ({m}, {r}) needs an estimated {estimate} "
            f"compatibility checks, over the budget of {budget}"
        )


@dataclass(frozen=True)
class OracleReport:
    m: int
    r: int
    max_girth: int
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
    """Upper bound on pairwise checks: every slot extension is costed as
    if all m! permutations were tried against every prior slot."""
    free = r - 1 if fixed else r
    prior0 = 1 if fixed else 0
    return sum(factorial(m) ** t * (t - 1 + prior0) for t in range(1, free + 1))


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
    if m < 1 or r < 1:
        raise ValueError("need m >= 1 and r >= 1")
    if r > m:
        return
    estimate = _estimate_checks(m, r, fix_first_identity)
    if estimate > budget:
        raise BudgetExceededError(m, r, estimate, budget)

    universe = list(itertools.permutations(range(1, m + 1)))
    chosen: list[tuple[int, ...]] = []
    if fix_first_identity:
        chosen.append(tuple(range(1, m + 1)))
    yield from _extend(universe, chosen, m, r)


def _extend(universe, chosen, m, r):
    """Every way to fill the slots after `chosen` from `universe`.

    A plain generator with explicit arguments: a self-referencing inner
    function would form a reference cycle that keeps the m! universe
    alive until the cyclic garbage collector runs.
    """
    if len(chosen) == r:
        yield BTU(m=m, r=r, perms=tuple(Permutation(img) for img in chosen))
        return
    for img in universe:
        ok = True
        for prev in chosen:
            for x, y in zip(prev, img):
                if x == y:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            chosen.append(img)
            yield from _extend(universe, chosen, m, r)
            chosen.pop()


def max_girth(
    m: int,
    r: int,
    fix_first_identity: bool = True,
    budget: int = DEFAULT_BUDGET,
) -> OracleReport:
    """Exact maximum girth over the exhaustive stream."""
    best = -1
    count = 0
    witness: BTU | None = None
    enumerated = 0
    for b in enumerate_btus(m, r, fix_first_identity, budget=budget):
        enumerated += 1
        g = _kernel.girth_of_images([p.image for p in b.perms], m)
        g = 0 if g is None else g
        if g > best:
            best = g
            count = 1
            witness = b
        elif g == best:
            count += 1
    if witness is None:
        raise BTUError(f"no ({m}, {r}) BTU exists")
    return OracleReport(
        m=m,
        r=r,
        max_girth=best,
        maximizer_count=count,
        witness=witness,
        enumerated=enumerated,
        first_slot_fixed=fix_first_identity,
    )


def phi_census(
    m: int,
    r: int,
    fix_first_identity: bool = True,
    budget: int = DEFAULT_BUDGET,
) -> dict[tuple[PartitionP2, ...], int]:
    """Counts of enumerated BTUs grouped by adjacent-partition signature."""
    census: dict[tuple[PartitionP2, ...], int] = {}
    for b in enumerate_btus(m, r, fix_first_identity, budget=budget):
        sig = adjacent_partitions(b)
        census[sig] = census.get(sig, 0) + 1
    return census


def verify_search(
    m: int,
    r: int,
    config: SearchConfig | None = None,
    budget: int = DEFAULT_BUDGET,
) -> VerifyReport:
    """Engine girth vs exhaustive maximum.

    An inequality is reported, never raised: a disagreement is data
    about the staged construction at that size.
    """
    report = max_girth(m, r, budget=budget)
    engine_girth: int | None = None
    engine_btu: BTU | None = None
    note: str | None = None
    try:
        result = search(m, r, config)
        engine_girth = result.girth
        engine_btu = result.btu
    except (DegenerateFactorizationError, StageDeadEndError) as exc:
        note = f"engine inapplicable: {exc}"
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

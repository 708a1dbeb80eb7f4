"""Factor (m, r) into m = b * k^(r-1) with minimal b, and build the
target partition sequence beta_1 .. beta_(r-1) that a girth-maximum
construction aims for (beta_i = k^(r-1-i) parts of size b*k^i)."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .perms import BTUError, PartitionP2


class AssumptionWarning(UserWarning):
    """Input is outside the regime the search theory assumes (r < m/2)."""


class DegenerateFactorizationError(BTUError):
    """k = 1: scaled-enumeration machinery does not apply."""


@dataclass(frozen=True)
class Factorization:
    m: int
    r: int
    b: int
    k: int

    @property
    def degenerate(self) -> bool:
        return self.k == 1


@dataclass(frozen=True)
class OptimalPartitionSet:
    factorization: Factorization
    betas: tuple[PartitionP2, ...]


def _floor_root(x: int, e: int) -> int:
    """The largest integer k with k**e <= x, for x >= 1.  Pure integer
    arithmetic."""
    lo, hi = 1, 1 << (x.bit_length() // e + 1)  # hi**e > x
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**e <= x:
            lo = mid
        else:
            hi = mid
    return lo


def factorize(m: int, r: int) -> Factorization:
    """Minimal b >= 1 with m = b * k^(r-1) for an exact integer k.

    The smallest b has the largest k, so k is tried downward from the
    integer (r-1)-th root of m: at most m^(1/(r-1)) tries.  k = 1 (b = m)
    always qualifies, so the result is degenerate exactly when no larger
    k works.
    """
    if r < 2:
        raise ValueError(f"row weight must be >= 2, got r={r}")
    if m <= r:
        raise ValueError(f"need m > r, got m={m}, r={r}")
    if r * 2 >= m:
        warnings.warn(
            f"r={r} is not < m/2 (m={m}); outside the assumed search regime",
            AssumptionWarning,
            stacklevel=2,
        )
    k = _floor_root(m, r - 1)
    while m % k ** (r - 1):
        k -= 1
    return Factorization(m=m, r=r, b=m // k ** (r - 1), k=k)


def closed_form_partitions(b: int, k: int, r: int) -> tuple[PartitionP2, ...]:
    """beta_i = k^(r-1-i) parts of b*k^i, for i = 1..r-1."""
    return tuple(
        PartitionP2(tuple([b * k**i] * k ** (r - 1 - i))) for i in range(1, r)
    )


def scale_partition(beta: PartitionP2, k: int) -> PartitionP2:
    """k copies of every part (total multiplied by k)."""
    if k < 1:
        raise ValueError("scale factor must be >= 1")
    parts = []
    for p in beta.parts:
        parts.extend([p] * k)
    return PartitionP2(tuple(parts))


def optimal_partitions(f: Factorization) -> OptimalPartitionSet:
    """Generate beta_1 .. beta_(r-1) by the iterative construction.

    Start from the single-part partition (b*k); at each later stage
    append the new single-part partition (b*k^i) and scale all earlier
    partitions by k.  The result is checked against the closed form.
    """
    if f.degenerate:
        raise DegenerateFactorizationError(
            f"m={f.m}, r={f.r}: k=1 (b={f.b}); no optimal partition sequence"
        )
    if f.r < 2:
        raise ValueError("need r >= 2")
    b, k, r = f.b, f.k, f.r
    betas: list[PartitionP2] = []
    z = b * k
    for _ in range(1, r):
        betas = [scale_partition(beta, k) for beta in betas]
        betas.append(PartitionP2((z,)))
        z *= k
    result = tuple(betas)
    if result != closed_form_partitions(b, k, r):
        raise AssertionError("partition loop disagrees with closed form")
    return OptimalPartitionSet(factorization=f, betas=result)

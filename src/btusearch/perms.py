"""Permutation algebra on 1-based one-line words.

A permutation of degree n is stored as the tuple (image(1), ..., image(n))
with values in {1..n}.  Positions and values are 1-based everywhere,
including the text form ("3 4 1 2").

Two permutations of equal degree are *compatible* when they disagree at
every position; equivalently their permutation matrices share no cell.
The multiset of cycle lengths of inverse(p) . q (all lengths >= 2 for
compatible p, q) is the *union-cycle partition* between them, and equals
the half-lengths of the alternating cycles in the union of the two
perfect matchings.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Callable

# Refusals spell counts in full up to this many digits.  Past them an exact
# count may take seconds to compute and, past 4,300 digits, cannot be text.
EXACT_DIGITS = 30


class BTUError(Exception):
    """Base class for domain errors raised by this package."""


class TooLargeError(BTUError):
    """A run refused up front: its estimated count is over its limit.
    Keywords become attributes, the fields a subclass declares."""

    def __init__(self, message: str, estimate: int | float, limit: int, **fields):
        super().__init__(message)
        self.estimate, self.limit = estimate, limit
        vars(self).update(fields)


def spell_count(log10: float, exact: Callable[[], int] | None = None) -> tuple[int | float, str]:
    """A refusal's count and its text, from the count's log10: the int
    `exact` computes and its digits while they are at most EXACT_DIGITS,
    else the nearest float (inf past the float range) and `about 1.2e3456`."""
    if exact is not None and log10 < EXACT_DIGITS:
        count = exact()
        return count, str(count)
    mantissa, power = round(10 ** (log10 % 1), 1), int(log10)
    if mantissa == 10:  # 9.96e5 is about 1.0e6
        mantissa, power = 1.0, power + 1
    return (10.0**log10 if log10 < 308 else inf), f"about {mantissa:.1f}e{power}"


def refuse_oversize(
    limit: int, log10: float, exact: Callable[[], int] | None, message: str,
    error: type[TooLargeError] = TooLargeError, **fields
) -> None:
    """The one size gate: raises `error` when the count spell_count gives
    for (log10, exact) is over `limit`, with `message` naming the spelled
    count as {count} and the limit as {limit}, and `fields` passed on."""
    estimate, text = spell_count(log10, exact)
    if estimate > limit:
        raise error(message.format(count=text, limit=limit), estimate, limit, **fields)


class CompatibilityError(BTUError):
    """Two permutations (or two slots of a BTU) agree at some position."""

    def __init__(self, slot_a: int, slot_b: int, position: int):
        self.slot_a = slot_a
        self.slot_b = slot_b
        self.position = position
        super().__init__(
            f"permutations {slot_a} and {slot_b} agree at position {position}"
        )


@dataclass(frozen=True)
class Permutation:
    """A permutation in one-line form; ``image[i-1]`` is the image of i."""

    image: tuple[int, ...]

    def __post_init__(self):
        image = tuple(map(int, self.image))
        object.__setattr__(self, "image", image)
        n = len(image)
        if n < 1:
            raise ValueError("permutation degree must be >= 1")
        # n distinct ints from 1 to n are 1..n, without a sort.
        if len(set(image)) != n or min(image) != 1 or max(image) != n:
            raise ValueError(f"not a permutation of 1..{n}: {image}")

    @classmethod
    def unchecked(cls, image: tuple[int, ...]) -> "Permutation":
        """The permutation of a tuple of ints the caller knows to be one
        of 1..n, built without converting or checking it."""
        p = object.__new__(cls)
        object.__setattr__(p, "image", image)
        return p

    @property
    def n(self) -> int:
        return len(self.image)

    def __call__(self, i: int) -> int:
        """Image of the 1-based position i."""
        return self.image[i - 1]

    def to_text(self) -> str:
        return " ".join(str(x) for x in self.image)

    @classmethod
    def from_text(cls, text: str) -> "Permutation":
        return cls(tuple(int(tok) for tok in text.split()))


@dataclass(frozen=True)
class PartitionP2:
    """A partition of a positive integer, parts stored non-increasing."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(sorted((int(x) for x in self.parts), reverse=True))
        object.__setattr__(self, "parts", parts)
        if not parts or any(p < 1 for p in parts):
            raise ValueError(f"parts must be positive: {self.parts}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    def to_text(self) -> str:
        return "+".join(str(p) for p in self.parts)

    @classmethod
    def from_text(cls, text: str) -> "PartitionP2":
        return cls(tuple(int(tok) for tok in text.split("+")))


def identity(n: int) -> Permutation:
    """The identity permutation of degree n."""
    if n < 1:
        raise ValueError("identity degree must be >= 1")
    return Permutation(tuple(range(1, n + 1)))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """p after q: result(i) = p(q(i))."""
    if p.n != q.n:
        raise ValueError(f"degree mismatch: {p.n} != {q.n}")
    qi = q.image
    pi = p.image
    return Permutation(tuple(pi[x - 1] for x in qi))


def invert(p: Permutation) -> Permutation:
    """The inverse permutation: compose(p, invert(p)) is the identity."""
    inv = [0] * p.n
    for i, x in enumerate(p.image, start=1):
        inv[x - 1] = i
    return Permutation(tuple(inv))


def is_compatible(p: Permutation, q: Permutation) -> bool:
    """True when p and q disagree at every position."""
    if p.n != q.n:
        raise ValueError(f"degree mismatch: {p.n} != {q.n}")
    return all(x != y for x, y in zip(p.image, q.image))


def union_cycle_partition(p: Permutation, q: Permutation) -> PartitionP2:
    """Cycle-length multiset of inverse(p).q, as a partition of n.

    Requires compatible inputs; a shared fixed position would contribute
    a length-1 cycle, which the partition semantics exclude.
    """
    if p.n != q.n:
        raise ValueError(f"degree mismatch: {p.n} != {q.n}")
    at = [0] * (p.n + 1)  # at[x]: the 0-based position p maps to x
    for i, x in enumerate(p.image):
        at[x] = i
    step = [at[y] for y in q.image]  # inv(p).q on 0-based positions
    for i, s in enumerate(step):
        if s == i:  # p and q share position i + 1
            raise CompatibilityError(1, 2, i + 1)
    lengths = []
    for start in range(p.n):  # a cycle's points are marked -1 as it is walked
        length, x = 0, start
        while step[x] >= 0:
            step[x], x = -1, step[x]
            length += 1
        if length:
            lengths.append(length)
    return PartitionP2(tuple(lengths))


def cycle_type(p: Permutation) -> list[int]:
    """Cycle lengths of p, unsorted (in order of smallest cycle member)."""
    seen = [False] * p.n
    lengths = []
    for start in range(1, p.n + 1):
        if seen[start - 1]:
            continue
        length = 0
        x = start
        while not seen[x - 1]:
            seen[x - 1] = True
            x = p(x)
            length += 1
        lengths.append(length)
    return lengths


def circular_rotation(n: int, j: int) -> Permutation:
    """The permutation whose matrix is I_n with its last j rows on top.

    One-line form: image(i) = ((i + n - j - 1) mod n) + 1.

    >>> circular_rotation(4, 1).image
    (4, 1, 2, 3)
    """
    if not 1 <= j < n:
        raise ValueError(f"rotation offset must satisfy 1 <= j < n, got j={j}, n={n}")
    return Permutation(tuple((i + n - j - 1) % n + 1 for i in range(1, n + 1)))


def scale_permutation(q: Permutation, k: int) -> Permutation:
    """Block-diagonal replication: k diagonal copies of q's matrix.

    The result has degree n*k and maps t*n + i to q(i) + t*n for each
    block t in {0..k-1}.  Written k*q in the search-engine code.

    >>> scale_permutation(Permutation((3, 4, 1, 2)), 2).image
    (3, 4, 1, 2, 7, 8, 5, 6)
    """
    if k < 1:
        raise ValueError("scale factor must be >= 1")
    n = q.n
    image = []
    for t in range(k):
        off = t * n
        image.extend(x + off for x in q.image)
    return Permutation(tuple(image))


def unscale_permutation(p: Permutation, block: int) -> Permutation | None:
    """Inverse of scaling: the degree-`block` permutation q with p = c*q.

    Returns None unless p consists of p.n/block identical diagonal copies
    of a single degree-`block` permutation.
    """
    n = p.n
    if block < 1 or n % block != 0:
        return None
    copies = n // block
    head = p.image[:block]
    if any(not 1 <= x <= block for x in head):
        return None
    for t in range(1, copies):
        off = t * block
        if p.image[off : off + block] != tuple(x + off for x in head):
            return None
    return Permutation(head)

"""The per-stage candidate space: permutations whose union-cycle
partition against a fixed base is the single part (n).

Composing the base with an n-cycle through all points produces exactly
these candidates, and reading the cycle as the visiting order after n
indexes them by words of degree n-1.  That bijection gives the count
(n-1)! and a deterministic lexicographic enumeration.  The cycles come
as int arrays from one source, `grown_cycle_images`, grown word entry by
word entry in that order and only where they pass the caller's filters:
every search stage, the level-2 finals, the family enumeration and the
`candidates` command, which filters nothing, list them there.  The
exhaustive oracle's universe is the other array, every permutation of
0..m-1 in lexicographic order (`lex_permutations`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial, lgamma, log, log10
from typing import Callable, Iterator

import numpy as np

from . import _kernel
from .parameters import DegenerateFactorizationError, Factorization
from .perms import (
    BTUError,
    Permutation,
    compose,
    cycle_type,
    invert,
    spell_count,
)


class NotACandidateError(BTUError):
    """The permutation's partition against the base is not single-part."""


@dataclass(frozen=True)
class CandidateWord:
    """An element of the degree-(n-1) symmetric group naming a candidate."""

    n: int
    word: Permutation

    def __post_init__(self):
        if self.word.n != self.n - 1:
            raise ValueError(
                f"word degree {self.word.n} does not index degree-{self.n} candidates"
            )


@dataclass(frozen=True)
class CayleyStats:
    degree_sym: int
    order: int | float  # a float past EXACT_DIGITS digits
    node_degree: int
    transition_bound: int


def candidate_count(n: int) -> int:
    """(n-1)!: the number of candidates against any base of degree n."""
    if n < 2:
        raise ValueError(f"need degree >= 2, got {n}")
    return factorial(n - 1)


def listed_count(n: int, limit: int | None = None) -> tuple[float, Callable[[], int]]:
    """log10 of min(candidate_count(n), limit) and a thunk for its exact
    value, as perms.spell_count takes them: no huge factorial is computed."""
    digits = lgamma(max(n, 1)) / log(10)  # below 2, candidate_count refuses n
    if limit is None:
        return digits, lambda: candidate_count(n)
    return min(digits, log10(limit)), lambda: min(candidate_count(n), limit)


def _cycle_from_word(word: tuple[int, ...], n: int) -> Permutation:
    """The n-cycle visiting n, word[0], word[1], ..., word[-1], n."""
    image = [0] * n
    image[n - 1] = word[0]
    for t in range(len(word) - 1):
        image[word[t] - 1] = word[t + 1]
    image[word[-1] - 1] = n
    return Permutation(tuple(image))


def unrank_candidate(w: CandidateWord, base: Permutation) -> Permutation:
    """The candidate indexed by w: base composed with w's n-cycle."""
    n = base.n
    if w.n != n:
        raise ValueError(f"degree mismatch: word indexes degree {w.n}, base {n}")
    return compose(base, _cycle_from_word(w.word.image, n))


def rank_candidate(q: Permutation, base: Permutation) -> CandidateWord:
    """The unique word with unrank_candidate(word, base) == q."""
    if q.n != base.n:
        raise ValueError(f"degree mismatch: {q.n} != {base.n}")
    n = base.n
    sigma = compose(invert(base), q)
    if cycle_type(sigma) != [n]:
        raise NotACandidateError(
            f"partition against base is not ({n}): cycle type {sorted(cycle_type(sigma), reverse=True)}"
        )
    word = []
    x = sigma(n)
    while x != n:
        word.append(x)
        x = sigma(x)
    return CandidateWord(n=n, word=Permutation(tuple(word)))


def enumerate_candidates(
    base: Permutation, limit: int | None = None
) -> Iterator[Permutation]:
    """Candidates in word-lexicographic order; the first `limit` only
    when a limit is given."""
    n = base.n
    if n < 2:
        raise ValueError(f"need degree >= 2, got {n}")
    for word in itertools.islice(itertools.permutations(range(1, n)), limit):
        yield compose(base, _cycle_from_word(word, n))


def lex_permutations(n: int) -> np.ndarray:
    """The permutations of 0..n-1 as the rows of an int array of the
    narrowest signed type that holds n-1, in lexicographic order.

    The rows of degree s are, for each first value v in turn, v followed
    by the rows of degree s-1 with every value >= v shifted up by one;
    the shift keeps their order.  Each degree is written in place into
    the one result array, whole rows at a time: its (s-1)! rows of degree
    s-1 are copied once, shifted for v = 0, and each later v puts back
    only the value v-1.  Places left of the degree's first hold scratch
    until a later degree writes them.
    """
    dtype = np.min_scalar_type(-n).type  # holds -n, so n-1 as well
    out = np.zeros((factorial(n), n), dtype=dtype)
    for size in range(1, n + 1):
        col, block = n - size, factorial(size - 1)
        rest = out[:block] + 1
        for v in range(size):
            if v:
                rest[rest == v] = v - 1
            rest[:, col] = v
            out[v * block : (v + 1) * block] = rest
    return out


def grown_cycle_images(
    n: int, avoid: np.ndarray, left: np.ndarray, length: int, limit: int | None = None,
    twins: bool = False,
) -> np.ndarray:
    """The n-cycles w of 0..n-1 among the first `limit` words (every
    word without a limit), as 0-based images in word order and in the
    narrowest signed int type that holds n-1, that differ from every row
    of `avoid` (values in 0..n-1) at every point and for which every
    cycle of inv(left).w, the permutation x -> inv(left)[w[x]], has
    `length` points.  Against the identity alone, as `avoid` and `left`,
    with `length` n, every row passes: row i is the i-th image of
    enumerate_candidates(identity(n), limit) minus 1, as at a search's
    stage 3, the family's slot 1 and the `candidates` command.  With
    `left` the identity and `length` n, the rows are those compatible
    with `avoid`, as the search's level-2 finals.  With `twins`, a row w
    is kept only when its word is not lexicographically after that of
    its twin rho.inv(w).rho, rho: x -> n-1-x: against the identity alone
    the map is an involution on the rows, and the rows kept are those
    whose index is at most their twin's, as at a best-mode stage 3.

    `_kernel.grow_cycles` grows the word W of a row one entry at a time,
    depth-first: a prefix fixes w on the points it has visited, w(n-1) =
    W[0] and w(W[i]) = W[i+1], so a child that adds value v adds one edge
    x -> v from the last point x, and the last entry also closes W[-1]
    -> n-1.  A prefix is dropped as soon as an `avoid` row has v at x,
    or its edge x -> inv(left)[v] closes a cycle of other than `length`
    points or joins two paths into one of more, so no failing row is
    built, and memory is O(n) besides the rows kept.  Under a limit, a
    row is kept when its rank, read in the factorial base, is below the
    limit's (`_factorial_digits`), compared along the one prefix whose
    digits equal the limit's, with no rank arithmetic.
    """
    if n < 2:
        raise ValueError(f"need degree >= 2, got {n}")
    # The edge x -> v of w is x -> heads[v] of inv(left).w.
    return _kernel.grow_cycles(
        avoid, np.argsort(left), _factorial_digits(limit, n), n, length, twins
    )


def _factorial_digits(limit: int | None, n: int) -> list[int] | None:
    """The n-1 digits of limit in the factorial base, digit j of weight
    (n-2-j)! and in 0..n-2-j, or None when no limit is given or it is at
    least (n-1)!, so cuts no word of degree n-1.  Python ints keep a
    limit past 2^63 exact.  The digits come from the low end, dividing by
    1, 2, 3, ... until the quotient is 0: one division per digit up to
    the limit's highest, and no factorial is computed.

    >>> _factorial_digits(5, 4), _factorial_digits(6, 4), _factorial_digits(None, 4)
    ([2, 1, 0], None, None)
    """
    if limit is None:
        return None
    digits = [0] * (n - 1)
    radix = 1
    while limit and radix < n:
        limit, digits[n - 1 - radix] = divmod(limit, radix)
        radix += 1
    return None if limit else digits


def cayley_stats(f: Factorization, i: int) -> CayleyStats:
    """Size/degree statistics of the stage-i candidate search space.

    Stage i (1 <= i <= r-2) searches degree b*k^i; the candidate set maps
    onto the symmetric group of degree b*k^i - 1, viewed as a Cayley
    graph whose every node touches b*k^i - 2 others, any node reachable
    within b*k^i optimal transitions.  Its order is the count
    listed_count gives: exact up to EXACT_DIGITS digits, else a float.
    """
    if f.degenerate:
        raise DegenerateFactorizationError(f"k=1 for m={f.m}, r={f.r}")
    if not 1 <= i <= f.r - 2:
        raise ValueError(f"stage index must be in 1..{f.r - 2}, got {i}")
    d = f.b * f.k**i
    return CayleyStats(
        degree_sym=d - 1,
        order=spell_count(*listed_count(d))[0],
        node_degree=d - 2,
        transition_bound=d,
    )

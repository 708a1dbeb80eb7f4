"""The per-stage candidate space: permutations whose union-cycle
partition against a fixed base is the single part (n).

Composing the base with an n-cycle through all points produces exactly
these candidates, and reading the cycle as the visiting order after n
indexes them by words of degree n-1.  That bijection gives the count
(n-1)! and a deterministic lexicographic enumeration.  The words, and
the cycles they name against the identity, also come as lexicographic
int arrays (`lex_permutations`, `cycle_images`), through which the
staged search and the exhaustive oracle both enumerate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial, lgamma, log, log10
from typing import Iterator

import numpy as np

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


def listed_count(n: int, limit: int | None = None) -> tuple[int | float, str]:
    """min(candidate_count(n), limit) and its text, as perms.spell_count
    gives them: sized in log space, so no huge factorial is computed."""
    digits = lgamma(max(n, 1)) / log(10)  # below 2, candidate_count refuses n
    if limit is None:
        return spell_count(digits, lambda: candidate_count(n))
    return spell_count(min(digits, log10(limit)), lambda: min(candidate_count(n), limit))


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


def word_at_index(n: int, index: int) -> tuple[int, ...]:
    """The index-th (0-based) word of degree n-1 in lexicographic order."""
    elems = list(range(1, n))
    word = []
    for pos in range(n - 1, 0, -1):
        f = factorial(pos - 1)
        word.append(elems.pop(index // f))
        index %= f
    return tuple(word)


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


def lex_permutations(n: int, limit: int | None = None) -> np.ndarray:
    """The permutations of 0..n-1 as the rows of an int array of the
    narrowest signed type that holds n-1, in lexicographic order; the
    first `limit` only when a limit is given.

    The rows of degree t are, for each first value v in turn, v followed
    by the rows of degree t-1 with every value >= v shifted up by one; the
    shift keeps their order.  The first `limit` rows permute only the
    last t places, for the least t with t! >= limit, so only t! are built.
    """
    dtype = np.min_scalar_type(-n).type  # holds -n, so n-1 as well
    t = n if limit is None else next((s for s in range(n) if factorial(s) >= limit), n)
    rows = np.zeros((1, 0), dtype=dtype)
    for size in range(1, t + 1):
        rest = np.concatenate([rows + (rows >= v) for v in range(size)])
        rows = np.column_stack((np.repeat(np.arange(size, dtype=dtype), len(rows)), rest))
    head = np.broadcast_to(np.arange(n - t, dtype=dtype), (len(rows[:limit]), n - t))
    return np.hstack((head, rows[:limit] + dtype(n - t)))


def cycle_images(n: int, limit: int | None = None) -> np.ndarray:
    """Row i is the i-th image of enumerate_candidates(identity(n), limit)
    minus 1, in the narrowest signed int type that holds n-1.

    With S = [n-1 | word], the cycle maps S[j] to S[j+1] and the last
    point back to n-1, so one scatter writes every row.
    """
    if n < 2:
        raise ValueError(f"need degree >= 2, got {n}")
    words = lex_permutations(n - 1, limit)
    visits = np.column_stack((np.full(len(words), n - 1, np.min_scalar_type(-n)), words))
    images = np.empty_like(visits)
    images[np.arange(len(visits))[:, None], visits] = np.roll(visits, -1, axis=1)
    return images


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
        order=listed_count(d)[0],
        node_degree=d - 2,
        transition_bound=d,
    )

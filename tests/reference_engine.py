"""The staged search of the `btusearch.engine` module docstring, written
out directly on `Permutation` objects: the model that the differential
tests hold the array engine to.

Nothing here is shared with the engine's array code, and nothing is
fast.  Each stage graph is built, filtered and scored on its own.  The
slots are scaled with scale_permutation, then rebased with compose and
invert so that the previous stage's last slot is the identity.  A graph
is kept when make_btu finds its slots pairwise compatible and its
adjacent partitions are the stage's optimal sequence, and btu.girth
scores it.  Every final is scanned (no reflection half scan), and no
scan stops at the Moore bound.
"""

from __future__ import annotations

from math import gcd

from btusearch.btu import girth, in_phi, make_btu
from btusearch.engine import StageDeadEndError, StageTrace
from btusearch.parameters import DegenerateFactorizationError, closed_form_partitions, factorize
from btusearch.perms import (
    CompatibilityError,
    Permutation,
    circular_rotation,
    compose,
    identity,
    invert,
    scale_permutation,
)
from btusearch.searchspace import enumerate_candidates, rank_candidate

Graph = tuple[Permutation, ...]


class OverLimit(Exception):
    """The attempted product passed the caller's limit."""


def finals(n: int, threshold: int, level: int, cap: int | None) -> list[tuple[int | str, Permutation]]:
    """(marker, final) pairs a policy level offers the newest slot, in
    order: the rotations j with min(j, n-j) > threshold and gcd(j, n) = 1;
    at level 1 every rotation coprime to n; at level 2 every single-cycle
    candidate of degree n, the first `cap` only."""
    if level == 2:
        return [("enum", q) for q in enumerate_candidates(identity(n), cap)]
    floor = threshold if level == 0 else 0
    return [
        (j if level == 0 else f"relaxed-gcd:{j}", circular_rotation(n, j))
        for j in range(1, n)
        if min(j, n - j) > floor and gcd(j, n) == 1
    ]


def stage_two(b: int, k: int, policy: str) -> tuple[list[Graph], StageTrace]:
    """[identity, the first rotation of the first level offering one]."""
    n = b * k
    for level in [0] if policy == "strict" else [0, 1]:
        offered = finals(n, b, level, None)
        if offered:
            marker, final = offered[0]
            graph = (identity(n), final)
            return [graph], StageTrace(2, n, marker, 1, girth(make_btu(graph)).girth)
    raise StageDeadEndError(2, f"no admissible rotation at n={n}")


def stage(
    beam: list[Graph], i: int, b: int, k: int, mode: str, policy: str, cap: int | None,
    limit: int,
) -> tuple[list[Graph], StageTrace]:
    """Stage i: every (member, final, word) in that order, at the first
    policy level that keeps any graph.  Returns the first maximum, or in
    exhaustive mode every co-maximum in scan order without repeated
    graphs, and the stage's trace.  Raises OverLimit before a level
    whose attempted product would pass `limit`."""
    n, d = b * k ** (i - 1), b * k ** (i - 2)
    at = i - 3  # slot i-2, the one the word replaces
    words = list(enumerate_candidates(identity(d), cap))
    scaled_words = [scale_permutation(q, k) for q in words]
    betas = closed_form_partitions(b, k, i)
    attempted = 0
    for level in [0] if policy == "strict" else [0, 1, 2]:
        offered = finals(n, d, level, cap)
        if not offered:
            continue
        attempted += len(beam) * len(offered) * len(words)
        if attempted > limit:
            raise OverLimit
        best, first, co_maxima = -1, None, {}
        for member in beam:
            scaled = [scale_permutation(p, k) for p in member]
            back = invert(scaled[-1])
            slots = [compose(p, back) for p in scaled]
            for marker, final in offered:
                for q, word in zip(words, scaled_words):
                    graph = (*slots[:at], word, *slots[at + 1 :], final)
                    try:
                        btu = make_btu(graph)
                    except CompatibilityError:
                        continue
                    if not in_phi(btu, betas):
                        continue
                    g = girth(btu).girth
                    if g > best:
                        best, first, co_maxima = g, (marker, q), {}
                    if g == best:
                        co_maxima.setdefault(graph)
        if first is None:
            continue
        marker, q = first
        trace = StageTrace(i, n, marker, attempted, best, rank_candidate(q, identity(d)))
        return list(co_maxima)[: None if mode == "exhaustive" else 1], trace
    raise StageDeadEndError(i, f"no compatible configuration at n={n}")


def search(
    m: int, r: int, mode: str = "best", policy: str = "relaxed", cap: int | None = None,
    limit: int = 10**4,
) -> tuple[list[list[Graph]], tuple[StageTrace, ...]]:
    """Every stage's beam and trace; the winning BTU is the first graph of
    the last beam.  Raises OverLimit once the attempted products of the
    stages so far would pass `limit`."""
    f = factorize(m, r)
    if r >= 3 and f.degenerate:
        raise DegenerateFactorizationError(f"m={m}, r={r}: k=1")
    beam, trace = stage_two(f.b, f.k, policy)
    beams, traces = [beam], [trace]
    for i in range(3, r + 1):
        spent = sum(t.candidates_evaluated for t in traces)
        beam, trace = stage(beam, i, f.b, f.k, mode, policy, cap, limit - spent)
        beams.append(beam)
        traces.append(trace)
    return beams, tuple(traces)

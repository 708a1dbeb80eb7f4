"""Staged enumeration search for a girth-maximum (m, r) BTU.

With m = b * k^(r-1), the construction grows a BTU one slot at a time:

  stage 2   [identity, rotation] at degree b*k
  stage i   scale every slot by k (degree becomes b*k^(i-1)), rebase so
            slot i-1 is the identity, then jointly pick a rotation for
            slot i and a k-scaled single-cycle candidate for slot i-2
            that maximise the girth of the stage BTU.

Rotations are drawn from the offsets j with min(j, n-j) above the stage
threshold and gcd(j, n) = 1.  Because that set is often empty at small
n, the relaxed policy widens in two recorded steps: first to all
coprime offsets, then to the full single-cycle candidate set (of which
rotations are the circulant members, so the single-part partition for
the final slot pair is preserved either way).

Scaling commutes with compose and invert, and it keeps compatibility
and scales union-cycle partitions part by part.  So each beam member is
rebased at the previous degree d before scaling, and the stage's
degree-d candidates are filtered once per member there: compatibility
with every slot but the replaced one, and for stage >= 4 the partition
against the left neighbour.  Only the check against the newest slot
needs degree n.

Each member's surviving candidates then meet the finals in one ordered
scan over (final, word), split into contiguous blocks for the workers;
blocks come back in order, so the first maximum found is the
lexicographic winner of (member, final, word), and the co-maximal list
(exhaustive mode) is already in that order.  A block sends its graphs to
the girth kernel in fixed-size batches with a cutoff at its running
best, and in best mode ends at the bipartite Moore bound; neither can
change which graph wins.  Results are identical for any worker count
and either kernel.

Candidates and level-2 finals are held in lists, so a run whose stage
would list more than MAX_LISTED of them ((d-1)! candidates, or (n-1)!
finals) is refused with StageTooLargeError before the list is built,
unless the candidate cap bounds it: up front for the candidates, on
reaching level 2 for the finals.
"""

from __future__ import annotations

import itertools
from array import array
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from math import factorial, gcd
from operator import eq
from typing import Iterator

from . import _kernel
from .btu import BTU, in_Z, in_phi, make_btu
from .parameters import (
    DegenerateFactorizationError,
    Factorization,
    closed_form_partitions,
    factorize,
    optimal_partitions,
)
from .perms import (
    BTUError,
    CompatibilityError,
    Permutation,
    circular_rotation,
    compose,
    identity,
    invert,
    scale_permutation,
    union_cycle_partition,
)
from .searchspace import CandidateWord, enumerate_candidates, word_at_index

ENUM_FALLBACK = "enum"  # rotation_j marker: final slot was enumerated
# Graphs per girth kernel call: bounds the packed buffer, and lets the
# cutoff rise between calls.
SUB_BATCH = 256
# Most candidates or finals a stage may hold in a list.  Above it a run
# is refused before the list is built: 9! = 362,880 candidates of degree
# 10, as at (20, 3), are admitted; 10! would take gigabytes.
MAX_LISTED = 1_000_000


class StageDeadEndError(BTUError):
    def __init__(self, stage: int, detail: str):
        self.stage = stage
        super().__init__(f"stage {stage} dead end: {detail}")


class StageTooLargeError(BTUError):
    """A stage would list more candidates or finals than MAX_LISTED."""

    def __init__(self, stage: int, what: str, degree: int, estimate: int):
        self.stage = stage
        self.estimate = estimate
        self.limit = MAX_LISTED
        super().__init__(
            f"stage {stage} would list {estimate} {what} of degree {degree}, "
            f"over the limit of {MAX_LISTED}; a candidate cap (--cap) bounds it"
        )


def _refuse_unlisted(stage: int, what: str, degree: int, cap: int | None) -> None:
    """Raises StageTooLargeError when the (degree-1)! single-cycle
    candidates of that degree, cut to cap, are more than MAX_LISTED."""
    estimate = factorial(degree - 1)
    if cap is not None:
        estimate = min(estimate, cap)
    if estimate > MAX_LISTED:
        raise StageTooLargeError(stage, what, degree, estimate)


@dataclass(frozen=True)
class SearchConfig:
    mode: str = "best"  # "best" | "exhaustive"
    rotation_policy: str = "relaxed"  # "strict" | "relaxed"
    worker_count: int = 1
    candidate_cap: int | None = None

    def __post_init__(self):
        if self.mode not in ("best", "exhaustive"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.rotation_policy not in ("strict", "relaxed"):
            raise ValueError(f"unknown rotation policy {self.rotation_policy!r}")
        if self.worker_count < 1:
            raise ValueError("worker_count must be >= 1")
        if self.candidate_cap is not None and self.candidate_cap < 1:
            raise ValueError("candidate_cap must be >= 1")


@dataclass(frozen=True)
class StageTrace:
    stage: int
    n: int
    rotation_j: int | str | None
    candidates_evaluated: int
    best_girth: int
    best_candidate_word: CandidateWord | None = None


@dataclass(frozen=True)
class SearchResult:
    factorization: Factorization
    btu: BTU
    girth: int
    traces: tuple[StageTrace, ...]
    config_echo: SearchConfig


def admissible_rotations(n: int, threshold: int) -> list[int]:
    """Offsets j in [1, n-1] with min(j, n-j) > threshold and gcd(j, n) = 1.

    Coprimality of j and n forces gcd(j, n-j) = gcd(n-j, n) = 1 as well,
    so the whole triple (j, n, n-j) is pairwise coprime.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return [
        j for j in range(1, n) if min(j, n - j) > threshold and gcd(j, n) == 1
    ]


def _coprime_rotations(n: int) -> list[int]:
    return [j for j in range(1, n) if gcd(j, n) == 1]


def _compatible_images(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return not any(map(eq, a, b))


def _scaled_image(img: tuple[int, ...], k: int) -> tuple[int, ...]:
    """The one-line image of scale_permutation, without validation."""
    d = len(img)
    return tuple(x + off for off in range(0, d * k, d) for x in img)


def _stage2(
    f: Factorization, config: SearchConfig
) -> tuple[tuple[Permutation, ...], StageTrace]:
    n = f.b * f.k
    adm = admissible_rotations(n, f.b)
    if adm:
        j = adm[0]
        marker: int | str = j
    elif config.rotation_policy == "strict":
        raise StageDeadEndError(2, f"no admissible rotation at n={n}, threshold={f.b}")
    else:
        j = _coprime_rotations(n)[0]
        marker = f"relaxed-gcd:{j}"
    perms = (identity(n), circular_rotation(n, j))
    g = _kernel.girth_of_images([p.image for p in perms], n)
    trace = StageTrace(
        stage=2, n=n, rotation_j=marker, candidates_evaluated=1, best_girth=g
    )
    return perms, trace


def _finals_for_level(
    n: int, threshold: int, level: int, cap: int | None, stage: int
) -> list[tuple[int | str, tuple[int, ...]]]:
    """(marker, image) choices for the newest slot at a policy level."""
    if level == 0:
        return [
            (j, circular_rotation(n, j).image)
            for j in admissible_rotations(n, threshold)
        ]
    if level == 1:
        return [
            (f"relaxed-gcd:{j}", circular_rotation(n, j).image)
            for j in _coprime_rotations(n)
        ]
    _refuse_unlisted(stage, "finals", n, cap)
    return [
        (ENUM_FALLBACK, q.image)
        for q in enumerate_candidates(identity(n), limit=cap)
    ]


def _moore_girth(n: int, r: int) -> int:
    """The bipartite Moore bound for r >= 2: the largest girth 2L an
    r-regular bipartite graph on n + n vertices can have, the largest L
    with n >= sum_{i<L} (r-1)^i."""
    half, reach = 1, 1
    while reach + (r - 1) ** half <= n:
        reach += (r - 1) ** half
        half += 1
    return 2 * half


def _evaluate_chunk(
    head: list[tuple[int, ...]],
    tail: list[tuple[int, ...]],
    finals: list[tuple[int | str, tuple[int, ...]]],
    survivors: list[tuple[int, tuple[int, ...]]],
    n: int,
    lo: int,
    hi: int,
    exhaustive: bool,
) -> tuple[int, int, list[tuple[int | str, int, tuple]]]:
    """Girths over positions lo..hi-1 of the finals x survivors grid.

    Positions run in row-major order, so the block is scanned in (final,
    word) order, SUB_BATCH compatible graphs per kernel call.  Between
    calls the cutoff rises to the block's running best (minus 1 in
    exhaustive mode, so ties stay exact): a graph at or below it cannot
    change the block's result.  In best mode the scan ends at the first
    graph that reaches the Moore bound, since nothing after it can beat
    it.  Returns (graphs sent to the kernel, best girth, the block's
    co-maximal (marker, word index, images) in scan order; in best mode
    only the first).
    """
    r = len(head) + len(tail) + 2
    moore = _moore_girth(n, r)
    before, after = _kernel.flatten_images(head), _kernel.flatten_images(tail)
    width = len(survivors)
    first_row = lo // width
    grid = itertools.product(finals[first_row : (hi - 1) // width + 1], survivors)
    compatible = (
        (marker, widx, cand, final)
        for (marker, final), (widx, cand) in itertools.islice(
            grid, lo - first_row * width, hi - first_row * width
        )
        if _compatible_images(cand, final)
    )
    count, best_g, best = 0, -1, []
    while keys := list(itertools.islice(compatible, SUB_BATCH)):
        flat = array("i")
        for _, _, cand, final in keys:
            flat.extend(before)
            flat.extend(cand)
            flat.extend(after)
            flat.extend(final)
        cutoff = best_g - 1 if exhaustive else best_g
        girths = _kernel.girth_batch(flat, len(keys), n, r, cutoff)
        count += len(keys)
        for (marker, widx, cand, final), g in zip(keys, girths):
            if g > best_g:
                best_g, best = g, []
            elif not exhaustive or g < best_g:
                continue
            best.append((marker, widx, (*head, cand, *tail, final)))
            if not exhaustive and g >= moore:
                return count, best_g, best
    return count, best_g, best


def _run_stage(
    beam: list[tuple[Permutation, ...]],
    stage: int,
    f: Factorization,
    config: SearchConfig,
) -> tuple[list[tuple[Permutation, ...]], StageTrace]:
    b, k = f.b, f.k
    n = b * k ** (stage - 1)
    d = b * k ** (stage - 2)
    replace_at = stage - 3  # 0-based index of slot stage-2
    # For stage >= 4 the replaced slot also has a left neighbour whose
    # pair partition must stay on the stage-optimal sequence.  Partitions
    # scale with their permutations, so the degree-d check targets the
    # previous stage's sequence.
    required_left_beta = (
        closed_form_partitions(b, k, stage - 1)[stage - 4] if stage >= 4 else None
    )
    candidates = list(
        enumerate_candidates(identity(d), limit=config.candidate_cap)
    )

    # Per member: the scaled slots before and after the replaced one, and
    # the (word index, scaled image) of every candidate the degree-d
    # filters keep.  Rebasing before scaling gives the same slots, since
    # scale(p) . scale(q)^-1 = scale(p . q^-1).
    prepared = []
    for perms in beam:
        inv = invert(perms[-1])
        rebased = [compose(p, inv) for p in perms]
        others = [p.image for t, p in enumerate(rebased) if t != replace_at]
        left = rebased[replace_at - 1] if stage >= 4 else None
        survivors = [
            (widx, _scaled_image(q.image, k))
            for widx, q in enumerate(candidates)
            if all(_compatible_images(q.image, img) for img in others)
            and (left is None or union_cycle_partition(left, q) == required_left_beta)
        ]
        scaled = [_scaled_image(p.image, k) for p in rebased]
        prepared.append((scaled[:replace_at], scaled[replace_at + 1 :], survivors))

    levels = [0] if config.rotation_policy == "strict" else [0, 1, 2]
    exhaustive = config.mode == "exhaustive"
    attempted = 0
    with ThreadPoolExecutor(max_workers=config.worker_count) as pool:
        for level in levels:
            finals = _finals_for_level(n, d, level, config.candidate_cap, stage)
            if not finals:
                continue
            attempted += len(beam) * len(finals) * len(candidates)
            evaluated, best_g, winners = 0, -1, []
            for head, tail, survivors in prepared:
                rows = [
                    (marker, final)
                    for marker, final in finals
                    if all(_compatible_images(final, img) for img in head + tail)
                ]
                size = len(rows) * len(survivors)
                step = max(1, size // (4 * config.worker_count))
                starts = range(0, size, step)
                stops = [min(size, lo + step) for lo in starts]
                scan = partial(
                    _evaluate_chunk, head, tail, rows, survivors, n, exhaustive=exhaustive
                )
                for count, g, found in pool.map(scan, starts, stops):
                    evaluated += count
                    if g > best_g:
                        best_g, winners = g, []
                    if g == best_g:
                        winners.extend(found)
            if evaluated == 0:
                continue

            marker, widx, _ = winners[0]
            if config.mode == "best":
                kept = [winners[0][2]]
            else:
                kept = list(dict.fromkeys(images for _, _, images in winners))
            trace = StageTrace(
                stage=stage,
                n=n,
                rotation_j=marker,
                candidates_evaluated=attempted,
                best_girth=best_g,
                best_candidate_word=CandidateWord(
                    n=d, word=Permutation(word_at_index(d, widx))
                ),
            )
            return [tuple(Permutation(img) for img in images) for images in kept], trace

    raise StageDeadEndError(
        stage,
        f"no compatible (rotation, candidate) configuration at n={n} "
        f"under {config.rotation_policy} policy",
    )


def search(m: int, r: int, config: SearchConfig | None = None) -> SearchResult:
    """Run the staged search; see the module docstring for the plan."""
    config = config or SearchConfig()
    f = factorize(m, r)
    if r >= 3 and f.degenerate:
        raise DegenerateFactorizationError(
            f"m={m}, r={r}: k=1, enumeration search inapplicable"
        )
    for stage in range(3, r + 1):
        _refuse_unlisted(stage, "candidates", f.b * f.k ** (stage - 2), config.candidate_cap)
    perms, trace = _stage2(f, config)
    beam = [perms]
    traces = [trace]
    for stage in range(3, r + 1):
        beam, trace = _run_stage(beam, stage, f, config)
        traces.append(trace)
    result_btu = make_btu(beam[0])
    betas = optimal_partitions(f).betas
    if not in_phi(result_btu, betas):
        raise AssertionError(
            "search produced a BTU off the optimal partition sequence"
        )
    return SearchResult(
        factorization=f,
        btu=result_btu,
        girth=traces[-1].best_girth,
        traces=tuple(traces),
        config_echo=config,
    )


def enumerate_Z(m: int, r: int, cap: int | None = None) -> Iterator[BTU]:
    """All BTUs of the fully scaled family, in lexicographic order.

    Slot j <= r-2 ranges over k^(r-1-j)-fold scalings of single-cycle
    candidates of degree b*k^j, slot r-1 is the identity, and slot r
    ranges over single-cycle candidates of degree m; combinations that
    fail pairwise compatibility or leave the optimal partition sequence
    are dropped, so every yielded BTU is a family member.
    """
    f = factorize(m, r)
    if f.degenerate:
        raise DegenerateFactorizationError(
            f"m={m}, r={r}: k=1, family enumeration inapplicable"
        )
    b, k = f.b, f.k
    scaled_slots = [
        [
            scale_permutation(q, k ** (r - 1 - j))
            for q in enumerate_candidates(identity(b * k**j))
        ]
        for j in range(1, r - 1)
    ]
    yielded = 0
    for combo in itertools.product(*scaled_slots):
        for last in enumerate_candidates(identity(m)):
            perms = (*combo, identity(m), last)
            try:
                candidate = make_btu(perms)
            except CompatibilityError:
                continue
            if not in_Z(candidate, f):
                continue
            yield candidate
            yielded += 1
            if cap is not None and yielded >= cap:
                return

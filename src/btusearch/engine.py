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
scan over (final, word), one member at a time, so memory does not grow
with the beam.  The scan is cut once, into units of a final range by a
word range, finals outer, of at most BLOCK pairs and PAIR_CELLS mask
cells.  A unit builds its own pair mask and kernel index and is one
girth kernel call: the kernel raises its cutoff after every graph to
the running best (minus 1 in exhaustive mode, so ties stay exact), and
in best mode it ends the call at the bipartite Moore bound; neither can
change which graph wins.  Each unit starts from the best girth of the
units returned before it was started, minus 1.  With one worker, or a
member of one unit, the units run in turn on the calling thread;
otherwise the worker pool runs them, masks included, at most one per
worker at a time.  Units come back in order, each in (final, word)
order, so the first maximum found is the lexicographic winner of
(member, final, word), and the co-maximal list (exhaustive mode) is
already in that order; in best mode no unit starts once one has
returned a graph at the Moore bound.  Results are identical for any
worker count, unit size and either kernel.

Best mode at stage 3 scans half of the rotation finals.  The reflection
rho: x -> n-1-x relabels a graph's points, so it keeps the girth.  The
stage has one member, and its scan never reads the replaced slot, so
each graph is [scale(w), identity, rotation j].  Conjugating by rho
fixes the identity, sends rotation j to rotation n-j, and sends scale(w)
to scale(rho w rho), with rho at degree d inside: a single-cycle
candidate again, so an uncapped word list is closed under the map, and
so is the compatibility of word and final.  The level-0 and level-1
finals are closed under j <-> n-j and run in ascending j, so a maximum,
or a graph at the Moore bound, with j > n/2 has a twin of the same girth
that the scan meets first: the finals with j <= n/2 give the same
winner, and the same first graph at the Moore bound.  The attempted
product still counts every final.  The argument fails for a capped word
list, which the map need not keep; for level-2 finals, which run in
word order; and for exhaustive mode, which lists every co-maximum.
Those scans stay whole.

The stage runs on int arrays of 0-based images: the beam is one array
of shape (members, slots, n), the candidates are the rows of
searchspace.cycle_images(d, cap), the finals are rotations or, at level
2, the cycle_images of degree n, the filters are boolean masks over them
(the partition check asks that every cycle of inv(left).q has the one
length the required partition holds).  Each member's graphs are rows of
one image table, its scaled slots, the finals compatible with them and
its kept words scaled to degree n, and a unit's pairs are the (final
row, word row) pairs of its ranges that differ at every point.  A scan
never reads the replaced slot, so a member whose other rebased slots
repeat an earlier member's would repeat its graphs in order: it is
skipped, and the exhaustive beam holds no duplicate.  The candidates and
the level-2 finals are listed in full, so a run whose stage would list
more than MAX_LISTED of them ((d-1)! candidates, or (n-1)! finals) is
refused with StageTooLargeError before the list is built, unless the
candidate cap bounds it: up front for the candidates, on reaching level
2 for the finals.
"""

from __future__ import annotations

import itertools
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from math import gcd
from typing import Iterator

import numpy as np

from . import _kernel
from .btu import BTU, in_phi, make_btu
from .parameters import (
    DegenerateFactorizationError,
    Factorization,
    closed_form_partitions,
    factorize,
    optimal_partitions,
)
from .perms import (
    BTUError,
    Permutation,
    TooLargeError,
    compose,  # noqa: F401  read as engine.compose by perfbench/test_perfbench.py
    identity,
    refuse_oversize,
)
from .searchspace import CandidateWord, cycle_images, listed_count, word_at_index

ENUM_FALLBACK = "enum"  # rotation_j marker: final slot was enumerated
# Most booleans one unit's (final, word, point) compatibility mask may hold.
PAIR_CELLS = 1 << 22
# Most pairs in one unit, so most graphs one girth kernel call scores: it
# bounds the call's index and result arrays, and is a pool worker's share.
BLOCK = 65536
# Most candidates or finals a stage may hold in a list.  Above it a run
# is refused before the list is built: 9! = 362,880 candidates of degree
# 10, as at (20, 3), are admitted; 10! would take gigabytes.
MAX_LISTED = 1_000_000


class StageDeadEndError(BTUError):
    def __init__(self, stage: int, detail: str):
        self.stage = stage
        super().__init__(f"stage {stage} dead end: {detail}")


class StageTooLargeError(TooLargeError):
    """A stage would list more candidates or finals than MAX_LISTED."""

    stage: int


def _refuse_unlisted(stage: int, what: str, degree: int, cap: int | None) -> None:
    """Refuses a list of the (degree-1)! candidates, cut to cap, over MAX_LISTED."""
    refuse_oversize(
        MAX_LISTED, *listed_count(degree, cap),
        f"stage {stage} would list {{count}} {what} of degree {degree}, "
        "over the limit of {limit}; a candidate cap (--cap) bounds it",
        StageTooLargeError, stage=stage,
    )


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


def _rotations(n: int, threshold: int, level: int) -> tuple[list[int | str], list[int]]:
    """(markers, offsets) of the rotations policy level 0 or 1 offers the
    newest slot: the admissible offsets, or at level 1 every offset
    coprime to n, which is every offset admissible at threshold 0."""
    offsets = admissible_rotations(n, threshold if level == 0 else 0)
    return [j if level == 0 else f"relaxed-gcd:{j}" for j in offsets], offsets


def _stage2(f: Factorization, config: SearchConfig) -> tuple[np.ndarray, StageTrace]:
    """The one-member beam [identity, rotation] at degree b*k, its rotation
    the first that the first policy level offering any gives."""
    n = f.b * f.k
    for level in [0] if config.rotation_policy == "strict" else [0, 1]:
        markers, offsets = _rotations(n, f.b, level)
        if offsets:
            break
    else:
        raise StageDeadEndError(2, f"no admissible rotation at n={n}, threshold={f.b}")
    beam = np.array([[np.arange(n), (np.arange(n) - offsets[0]) % n]], dtype=np.min_scalar_type(n))
    g = _kernel.girth_of_images(beam[0] + 1, n)
    return beam, StageTrace(2, n, rotation_j=markers[0], candidates_evaluated=1, best_girth=g)


def _finals_for_level(n: int, threshold: int, level: int, cap: int | None, stage: int):
    """(markers, finals) for the newest slot at a policy level: one marker
    and one row of 0-based images per final.  At levels 0 and 1 the row of
    offset j is the rotation (i - j) mod n; at level 2 the finals are every
    single-cycle candidate of degree n, cut to cap."""
    if level < 2:
        markers, offsets = _rotations(n, threshold, level)
        return markers, (np.arange(n) - np.array(offsets, dtype=np.intp)[:, None]) % n
    _refuse_unlisted(stage, "finals", n, cap)
    finals = cycle_images(n, cap)
    return [ENUM_FALLBACK] * len(finals), finals


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
    table: np.ndarray, r: int, at: int, unit: tuple[slice, slice], moore: int,
    exhaustive: bool, cutoff: int = -1,
) -> tuple[int, np.ndarray]:
    """Girths, in one kernel call, of the graphs of the compatible (final,
    word) pairs of the table rows unit = (finals, words), in that order:
    slot t is table row t, but slot `at` takes the word and slot r-1 the
    final.

    A graph's cutoff is `cutoff` or, if higher, the unit's running best
    (minus 1 in exhaustive mode, so ties stay exact): a graph at or below
    it cannot change the result.  In best mode the call ends once a graph
    reaches the Moore bound, since nothing after it can beat it.  Returns
    the best girth and the index rows of the co-maximal graphs in order
    (in best mode only the first), or -1 and none without a compatible
    pair.  A best girth at or below `cutoff` only bounds the unit's girths.
    """
    finals, words = unit
    final, word = np.nonzero((table[finals, None] != table[words]).all(axis=2))
    index = np.tile(np.arange(r, dtype=np.int32), (len(final), 1))
    if not len(index):
        return -1, index
    index[:, at] = word + words.start
    index[:, -1] = final + finals.start
    girths = _kernel.girth_batch(
        table, index, table.shape[1], cutoff, slack=int(exhaustive), stop=0 if exhaustive else moore
    )
    best_g = int(girths.max())
    hits = np.flatnonzero(girths == best_g)
    return best_g, index[hits if exhaustive else hits[:1]]


def _uniform_cycles(sigma: np.ndarray, length: int) -> np.ndarray:
    """Per row of sigma (a permutation of 0..d-1), whether all its cycles
    have `length` points: no power below `length` fixes a point, and that
    power is the identity."""
    home = np.arange(sigma.shape[1])
    power, ok = sigma, np.ones(len(sigma), dtype=bool)
    for _ in range(1, length):
        ok &= (power != home).all(axis=1)
        power = np.take_along_axis(sigma, power, axis=1)
    return ok & (power == home).all(axis=1)


def _run_stage(
    beam: np.ndarray, stage: int, f: Factorization, config: SearchConfig
) -> tuple[np.ndarray, StageTrace]:
    b, k = f.b, f.k
    n = b * k ** (stage - 1)
    d = b * k ** (stage - 2)
    at = stage - 3  # 0-based index of slot stage-2, the replaced one
    words = cycle_images(d, config.candidate_cap)
    # For stage >= 4 the replaced slot also has a left neighbour whose
    # pair partition must stay on the stage-optimal sequence.  Partitions
    # scale with their permutations, so the degree-d check targets the
    # previous stage's sequence, whose parts are all equal.
    if stage >= 4:
        (cycle,) = set(closed_form_partitions(b, k, stage - 1)[stage - 4].parts)
    offsets = np.arange(0, n, d)[:, None]
    dtype = np.min_scalar_type(n)  # of the new beam

    def prepare(slots: np.ndarray, finals: np.ndarray):
        """The member's image table, and the finals and words it holds.

        Rows 0..stage-2 are the member's rebased slots scaled, then come
        the finals compatible with the other scaled slots, then the words
        that pass the degree-d filters, scaled."""
        keep = np.flatnonzero((words[:, None, :] != np.delete(slots, at, 0)).all(axis=(1, 2)))
        if stage >= 4:
            keep = keep[_uniform_cycles(np.argsort(slots[at - 1])[words[keep]], cycle)]
        slots = (slots[:, None, :] + offsets).reshape(len(slots), n)
        rows = np.flatnonzero((finals[:, None, :] != np.delete(slots, at, 0)).all(axis=(1, 2)))
        first_word = stage - 1 + len(rows)
        table = np.empty((first_word + len(keep), n), dtype=dtype)
        table[: stage - 1] = slots
        table[stage - 1 : first_word] = finals[rows]
        scaled = table[first_word:].reshape(len(keep), k, d)
        scaled[:] = words[keep, None, :]
        scaled += np.arange(0, n, d, dtype=dtype)[:, None]
        return table, rows, keep

    levels = [0] if config.rotation_policy == "strict" else [0, 1, 2]
    exhaustive = config.mode == "exhaustive"
    # Best mode at stage 3 scans one final of each reflection pair (see
    # the module docstring).
    halve = stage == 3 and not exhaustive and config.candidate_cap is None
    moore = _moore_girth(n, stage)
    cells = max(1, min(BLOCK, PAIR_CELLS // n))  # most pairs in one unit
    attempted = 0

    def in_order(scan, units):
        """The units' results, in order.  Each unit starts from the best
        girth of the units returned before it was started, minus 1: it
        reads best_g as the scan loop below raises it."""
        if config.worker_count == 1 or len(units) == 1:
            for unit in units:
                yield scan(unit, cutoff=best_g - 1)
            return
        ahead = deque()  # at most one unit per worker in flight
        for unit in units:
            ahead.append(pool.submit(scan, unit, cutoff=best_g - 1))
            if len(ahead) == config.worker_count:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()

    with ThreadPoolExecutor(max_workers=config.worker_count) as pool:
        for level in levels:
            markers, finals = _finals_for_level(n, d, level, config.candidate_cap, stage)
            if not len(finals):
                continue
            attempted += len(beam) * len(finals) * len(words)
            if halve and level < 2:
                # The offsets ascend and pair up as j <-> n-j (n/2 is
                # coprime to n only at n = 2): the first half is j <= n/2.
                finals = finals[: (len(finals) + 1) // 2]
            best_g, winners, seen = -1, [], set()
            for member in beam:
                rebased = member[:, np.argsort(member[-1])]
                others = np.delete(rebased, at, 0).tobytes()
                if others in seen:
                    continue  # its graphs are an earlier member's, in order
                seen.add(others)
                table, rows, keep = prepare(rebased, finals)
                first_word = len(table) - len(keep)
                wstep = max(1, min(len(keep), cells))
                fstep = max(1, cells // wstep)  # finals outer, words inner
                units = [
                    (slice(f0, min(f0 + fstep, first_word)), slice(w0, w0 + wstep))
                    for f0 in range(stage - 1, first_word, fstep)
                    for w0 in range(first_word, len(table), wstep)
                ]
                scan = partial(
                    _evaluate_chunk, table, stage, at, moore=moore, exhaustive=exhaustive
                )
                found = []
                for g, hits in in_order(scan, units):
                    if g > best_g:
                        best_g, winners, found = g, [], []
                    if g == best_g and len(hits):
                        found.append(hits)
                    if g == moore and not exhaustive:
                        break  # nothing later can beat it
                if found:
                    hits = np.concatenate(found)
                    if not winners:
                        final, word = hits[0, -1] - (stage - 1), hits[0, at] - first_word
                        first = int(rows[final]), int(keep[word])
                    winners.append(table[hits])
            if not winners:
                continue

            word = CandidateWord(n=d, word=Permutation(word_at_index(d, first[1])))
            trace = StageTrace(stage, n, markers[first[0]], attempted, best_g, word)
            return np.concatenate(winners)[: None if exhaustive else 1], trace

    raise StageDeadEndError(
        stage, f"no compatible (rotation, candidate) configuration at n={n} "
        f"under {config.rotation_policy} policy"
    )


def search(m: int, r: int, config: SearchConfig | None = None) -> SearchResult:
    """Run the staged search; see the module docstring for the plan."""
    config = config or SearchConfig()
    f = factorize(m, r)
    if r >= 3 and f.degenerate:
        raise DegenerateFactorizationError(f"m={m}, r={r}: k=1, enumeration search inapplicable")
    for stage in range(3, r + 1):
        _refuse_unlisted(stage, "candidates", f.b * f.k ** (stage - 2), config.candidate_cap)
    beam, trace = _stage2(f, config)
    traces = [trace]
    for stage in range(3, r + 1):
        beam, trace = _run_stage(beam, stage, f, config)
        traces.append(trace)
    result_btu = make_btu([Permutation(tuple(image)) for image in (beam[0] + 1).tolist()])
    if not in_phi(result_btu, optimal_partitions(f).betas):
        raise AssertionError("search produced a BTU off the optimal partition sequence")
    return SearchResult(f, result_btu, traces[-1].best_girth, tuple(traces), config)


def enumerate_Z(m: int, r: int, cap: int | None = None) -> Iterator[BTU]:
    """All BTUs of the fully scaled family, in lexicographic order.

    Slot j <= r-2 ranges over k^(r-1-j)-fold scalings of single-cycle
    candidates of degree b*k^j, slot r-1 is the identity, and slot r
    ranges over single-cycle candidates of degree m; combinations that
    fail pairwise compatibility or leave the optimal partition sequence
    are dropped, so every yielded BTU is a family member.  Slot pairs
    that involve slot r-1 or r hold both by construction but for the
    compatibility of slot r, one mask over the cycle_images(m) rows per
    prefix of scaled candidates.

    A run whose prod_{j=1}^{r-2} (b*k^j - 1)! * (m-1)! combinations are
    more than MAX_LISTED is refused with TooLargeError before the first,
    whatever the cap.
    """
    f = factorize(m, r)
    if f.degenerate:
        raise DegenerateFactorizationError(f"m={m}, r={r}: k=1, family enumeration inapplicable")
    b, k = f.b, f.k
    degrees = (m, *(b * k**j for j in range(1, r - 1)))
    refuse_oversize(
        MAX_LISTED, sum(listed_count(d)[0] for d in degrees), None,
        f"m={m}, r={r}: the family enumeration would try {{count}} slot combinations, "
        "over the limit of {limit}; a cap bounds only the members listed",
    )
    scaled = [
        (cycle_images(d)[:, None, :] + np.arange(0, m, d)[:, None]).reshape(-1, m)
        for d in degrees[1:]
    ]
    lasts, middle = cycle_images(m), identity(m)
    yielded = 0
    for combo in itertools.product(*map(range, map(len, scaled))):
        prefix = np.array([q[i] for q, i in zip(scaled, combo)]).reshape(-1, m)
        meet = itertools.combinations(range(r - 2), 2)
        if not all((prefix[i] != prefix[j]).all() for i, j in meet):
            continue
        # Slots i+1 and i+2 (1-based) need cycles of b*k^(i+1) points.
        sigmas = [np.argsort(p)[q] for p, q in zip(prefix, prefix[1:])]
        if not all(_uniform_cycles(s[None], d)[0] for s, d in zip(sigmas, degrees[1:])):
            continue
        head = tuple(Permutation(tuple(image)) for image in (prefix + 1).tolist())
        rows = np.flatnonzero((lasts[:, None, :] != prefix).all(axis=(1, 2)))
        for image in (lasts[rows[: None if cap is None else cap - yielded]] + 1).tolist():
            yield BTU(m=m, r=r, perms=(*head, middle, Permutation(tuple(image))))
            yielded += 1
        if cap is not None and yielded >= cap:
            return

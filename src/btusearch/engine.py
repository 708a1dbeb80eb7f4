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
degree-d candidates are grown there once per member, at its first
policy level with finals, and kept for the later levels.  They are
filtered by compatibility with every slot but the replaced one, and by
the partition against the left neighbour.  Only the check against the
newest slot needs degree n.  At stage 3 the identity is both the only other rebased slot and the
left neighbour, and a candidate against the identity is a single
d-cycle (d >= 2), which has no fixed point: it passes both filters, so
stage 3 keeps every candidate.

Each member's surviving candidates then meet the finals in one ordered scan
over (final, word), one member's table at a time, so the tables do not grow
with the beam.  The scan is cut once, into units of a final range by a word
range, finals outer, of at most BLOCK pairs.  A unit is one `girth_pairs`
kernel call, which scores the pairs whose rows differ at every point and
returns their positions, from which the unit rebuilds its hits' graphs: the
kernel raises its cutoff after every graph to the running best (minus 1 in
exhaustive mode, so ties stay exact), and in best mode it ends the call at
the bipartite Moore bound; neither can change which graph wins.  Each unit
starts from the best girth of the units returned before it was started,
minus 1.  With one worker, or a member of one unit, the units run in turn on
the calling thread; otherwise the worker pool runs them, at most one per
worker at a time.  A unit returns its co-maximal graphs (in best mode the
first), and units come back in order, each in (final, word) order, so the
first winner, which the trace is read off, is the lexicographic first
maximum of (member, final, word), and the co-maximal list is in that order;
in best mode no unit starts once one has returned a graph at the Moore
bound.  Results are identical for any worker count, unit size and either
kernel.

At levels 0 and 1 every slot commutes with the shift x -> x + d (scaled
slots and words repeat their block every d points; rotations commute
with every shift), so a stage graph is a cyclic cover (Gross & Tucker,
Topological Graph Theory, 1987) and the kernel's BFS runs from rows
0..d-1 only, one per shift orbit.  Level-2 finals keep every source.

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

The stage runs on int arrays of 0-based images in the type of
searchspace.cycle_images: the beam, of shape (members, slots, n), the
candidates, rows of cycle_images(d, cap), and the finals, rotations or
at level 2 rows of cycle_images(n, cap).  The candidates and the level-2
finals are grown by grown_cycle_images one word entry at a time, so no
row that fails the member's filters is built: both must differ from its
other slots at every point, and a candidate's cycles against its left
neighbour must have the one length the required partition holds.  A
member's graphs are rows of one image table, its scaled slots, the
finals compatible with them and its candidates scaled to degree n.  A
scan never reads the replaced slot, so a member whose other rebased
slots repeat an earlier member's would repeat its graphs in order: it is
dropped, and the exhaustive beam holds no duplicate.  A stage that would
list more than MAX_LISTED candidates ((d-1)!), rotations (n-1) or
level-2 finals ((n-1)!) is refused with StageTooLargeError before any is
built, unless the candidate cap bounds it (it does not bound rotations):
up front, but on reaching level 2 for the level-2 finals.  The refusals
count the listed rows, though only the grown rows are built.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from math import gcd, log10
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
from .searchspace import (
    CandidateWord,
    grown_cycle_images,
    listed_count,
    rank_candidate,
)

ENUM_FALLBACK = "enum"  # rotation_j marker: final slot was enumerated
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
    return list(_rotation_offsets(n, threshold))


def _rotation_offsets(n: int, threshold: int) -> Iterator[int]:
    """admissible_rotations(n, threshold), ascending, one at a time."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return (j for j in range(1, n) if min(j, n - j) > threshold and gcd(j, n) == 1)


def _marker(level: int, final_row: np.ndarray) -> int | str:
    """A final row's rotation_j: j for the rotation whose first image is
    n-j (relaxed at level 1), or ENUM_FALLBACK at level 2.

    >>> [_marker(level, np.array([2, 0, 1])) for level in (0, 1, 2)]
    [1, 'relaxed-gcd:1', 'enum']
    """
    j = len(final_row) - int(final_row[0])
    return [j, f"relaxed-gcd:{j}", ENUM_FALLBACK][level]


def _stage2(f: Factorization, config: SearchConfig) -> tuple[np.ndarray, StageTrace]:
    """The one-member beam [identity, rotation] at degree b*k, its rotation
    the first that the first policy level offering any gives."""
    n = f.b * f.k
    for level in [0] if config.rotation_policy == "strict" else [0, 1]:
        j = next(_rotation_offsets(n, f.b if level == 0 else 0), None)
        if j is not None:
            break
    else:
        raise StageDeadEndError(2, f"no admissible rotation at n={n}, threshold={f.b}")
    beam = np.array([[np.arange(n), (np.arange(n) - j) % n]], dtype=np.min_scalar_type(n))
    g = _kernel.girth_of_images(beam[0] + 1, n)
    return beam, StageTrace(2, n, _marker(level, beam[0, 1]), candidates_evaluated=1, best_girth=g)


def _finals_for_level(n: int, threshold: int, level: int):
    """The rotation finals (i - j) mod n, in cycle_images(n)'s type, of the
    offsets j, ascending, admissible at level 0, or at level 1 of every j coprime to n."""
    dt = np.min_scalar_type(-n)
    offsets = np.array(admissible_rotations(n, threshold if level == 0 else 0), dtype=dt)
    # (j - i) mod -n lies in (-n, 0], and -n fits dt where n need not.
    return -((offsets[:, None] - np.arange(n, dtype=dt)) % -n)


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
    exhaustive: bool, period: int, cutoff: int = -1,
) -> tuple[int, np.ndarray]:
    """Girths, in one kernel call, of the graphs of the compatible (final,
    word) pairs of the table rows unit = (finals, words), in that order:
    slot t is table row t, but slot `at` takes the word and slot r-1 the
    final; a period p > 0 promises that all commute with x -> x + p.

    A graph's cutoff is `cutoff` or, if higher, the unit's running best
    (minus 1 in exhaustive mode, so ties stay exact): a graph at or below
    it cannot change the result.  In best mode the call ends once a graph
    reaches the Moore bound, since nothing after it can beat it.  Returns
    the best girth and the images of the co-maximal graphs in order (in
    best mode only the first), or -1 and none without a compatible pair;
    a best girth at or below `cutoff` only bounds the unit's, and has none.
    """
    finals, words = unit
    pairs, girths = _kernel.girth_pairs(
        table, r, at, finals, words, cutoff, int(exhaustive), 0 if exhaustive else moore, period
    )
    best_g = int(girths.max()) if len(girths) else -1
    hits = pairs[girths == max(best_g, cutoff + 1)]  # none if it only bounds
    final, word = np.divmod(hits if exhaustive else hits[:1], words.stop - words.start)
    index = np.tile(np.arange(r), (len(final), 1))
    index[:, [at, -1]] = np.column_stack((word + words.start, final + finals.start))
    return best_g, table[index]


def _run_stage(
    beam: np.ndarray, stage: int, f: Factorization, config: SearchConfig
) -> tuple[np.ndarray, StageTrace]:
    b, k = f.b, f.k
    n = b * k ** (stage - 1)
    d = b * k ** (stage - 2)
    at = stage - 3  # 0-based index of slot stage-2, the replaced one
    cap = config.candidate_cap
    # The replaced slot's pair with its left neighbour must stay on the
    # stage-optimal sequence; partitions scale with their permutations,
    # so at degree d it is the previous stage's, whose parts are equal.
    # At stage 3, at - 1 and stage - 4 are -1: the neighbour is the last
    # slot, the identity, and the part is d, which every d-cycle meets.
    (cycle,) = set(closed_form_partitions(b, k, stage - 1)[stage - 4].parts)
    dtype = np.min_scalar_type(n)  # of the new beam
    offsets = np.arange(0, n, d, dtype=dtype)[:, None]

    def prepare(member: list, finals: np.ndarray | None):
        """The image table of member = [rebased slots, words or None], and
        the row of its first word: the slots, the finals compatible with
        the other slots (grown if None) and the words, scaled to degree n."""
        slots, kept = member
        if kept is None:
            kept = member[1] = grown_cycle_images(d, np.delete(slots, at, 0), slots[at - 1], cycle, cap)
        slots = (slots[:, None, :] + offsets).reshape(len(slots), n)
        others = np.delete(slots, at, 0)
        if finals is None:
            finals = grown_cycle_images(n, others, np.arange(n), n, cap)
        else:
            finals = finals[(finals[:, None, :] != others).all(axis=(1, 2))]
        first_word = stage - 1 + len(finals)
        table = np.empty((first_word + len(kept), n), dtype=dtype)
        table[: stage - 1] = slots
        table[stage - 1 : first_word] = finals
        scaled = table[first_word:].reshape(len(kept), k, d)
        scaled[:] = kept[:, None, :]
        scaled += offsets
        return table, first_word

    levels = [0] if config.rotation_policy == "strict" else [0, 1, 2]
    exhaustive = config.mode == "exhaustive"
    # Best mode at stage 3 scans one final of each reflection pair (see
    # the module docstring).
    halve = stage == 3 and not exhaustive and cap is None
    moore = _moore_girth(n, stage)
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

    members = {}  # the first member of each set of other rebased slots
    for member in beam:
        rebased = member[:, np.argsort(member[-1])]
        members.setdefault(np.delete(rebased, at, 0).tobytes(), [rebased, None])

    with ThreadPoolExecutor(max_workers=config.worker_count) as pool:
        for level in levels:
            if level == 2:
                _refuse_unlisted(stage, "finals", n, cap)
            finals = _finals_for_level(n, d, level) if level < 2 else None  # None: grown
            count = len(finals) if level < 2 else listed_count(n, cap)[1]()
            if not count:
                continue
            attempted += len(beam) * count * listed_count(d, cap)[1]()
            if halve and level < 2:
                # The offsets ascend and pair up as j <-> n-j (n/2 is
                # coprime to n only at n = 2): the first half is j <= n/2.
                finals = finals[: (count + 1) // 2]
            best_g, winners = -1, []
            for member in members.values():
                table, first_word = prepare(member, finals)
                wstep = max(1, min(len(table) - first_word, BLOCK))
                fstep = max(1, BLOCK // wstep)  # finals outer, words inner
                units = [
                    (slice(f0, min(f0 + fstep, first_word)),
                     slice(w0, min(w0 + wstep, len(table))))
                    for f0 in range(stage - 1, first_word, fstep)
                    for w0 in range(first_word, len(table), wstep)
                ]
                scan = partial(
                    _evaluate_chunk, table, stage, at, moore=moore, exhaustive=exhaustive,
                    period=d if level < 2 else 0,
                )
                for g, graphs in in_order(scan, units):
                    if g > best_g:
                        best_g, winners = g, []
                    if g == best_g and len(graphs) and (exhaustive or not winners):
                        winners.append(graphs)
                    if g == moore and not exhaustive:
                        break  # nothing later can beat it
            if not winners:
                continue

            first = winners[0][0]  # its replaced slot's first block is the word
            word = rank_candidate(Permutation(tuple(first[at, :d] + 1)), identity(d))
            trace = StageTrace(stage, n, _marker(level, first[-1]), attempted, best_g, word)
            return np.concatenate(winners), trace

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
        n = f.b * f.k ** (stage - 1)
        _refuse_unlisted(stage, "candidates", n // f.k, config.candidate_cap)
        refuse_oversize(
            MAX_LISTED, log10(n - 1), lambda: n - 1, f"stage {stage} would list up to {{count}} "
            f"rotation finals of degree {n}, over the limit of {{limit}}; a candidate cap "
            "(--cap) does not bound them", StageTooLargeError, stage=stage,
        )
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
    """All BTUs of the fully scaled family, in lexicographic order; the
    first `cap` only when a cap is given.

    Slot j <= r-2 ranges over k^(r-1-j)-fold scalings of single-cycle
    candidates of degree d_j = b*k^j, slot r-1 is the identity, and slot r
    ranges over single-cycle candidates of degree m; combinations that
    fail pairwise compatibility or leave the optimal partition sequence
    are dropped, so every yielded BTU is a family member.  Each slot is
    grown at its own degree by searchspace.grown_cycle_images, one
    subtree per choice of the slots before it, under their filters: it
    differs from the identity and each of them at every point, and every
    cycle of inv(slot j).(slot j+1) has d_j points; slot 1, against the
    identity alone, keeps every row of cycle_images(d_1).  A slot scaled
    from degree d repeats its block every d points, so at degree d_{j+1}
    the filters on the first d_{j+1} points decide them on all m.  Slot
    r is grown at degree m against the earlier slots and the identity,
    with cycles of m points.

    A run whose prod_{j=1}^{r-2} (b*k^j - 1)! * (m-1)! combinations are
    more than MAX_LISTED is refused with TooLargeError before the first,
    whatever the cap.
    """
    f = factorize(m, r)
    if f.degenerate:
        raise DegenerateFactorizationError(f"m={m}, r={r}: k=1, family enumeration inapplicable")
    degrees = [f.b * f.k**j for j in range(1, r - 1)]
    refuse_oversize(
        MAX_LISTED, sum(listed_count(d)[0] for d in (m, *degrees)), None,
        f"m={m}, r={r}: the family enumeration would try {{count}} slot combinations, "
        "over the limit of {limit}; a cap bounds only the members listed",
    )

    def prefixes(slots: np.ndarray, length: int) -> Iterator[np.ndarray]:
        """Each choice of slots 1..r-2 whose first are the rows of `slots`
        after the identity, behind the identity, 0-based images at degree
        m.  The next slot's cycles against the last row have `length`
        points."""
        j = len(slots) - 1
        if j == r - 2:
            yield slots
            return
        d = degrees[j]
        rows = grown_cycle_images(d, slots[:, :d], slots[-1, :d], length)
        blocks = np.arange(0, m, d)[:, None]
        for row in rows:
            yield from prefixes(np.vstack([slots, (row + blocks).reshape(1, m)]), d)

    home, middle = np.arange(m), identity(m)
    yielded = 0
    for slots in prefixes(home[None], f.b * f.k):
        head = tuple(Permutation(tuple(image)) for image in (slots[1:] + 1).tolist())
        lasts = grown_cycle_images(m, slots, home, m)
        for image in (lasts[: None if cap is None else cap - yielded] + 1).tolist():
            yield BTU(m=m, r=r, perms=(*head, middle, Permutation(tuple(image))))
            yielded += 1
        if cap is not None and yielded >= cap:
            return

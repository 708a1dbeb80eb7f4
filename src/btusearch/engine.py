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
scan over (final, word), split into contiguous blocks for the workers
(one member at a time, so memory does not grow with the beam);
blocks come back in order, so the first maximum found is the
lexicographic winner of (member, final, word), and the co-maximal list
(exhaustive mode) is already in that order.  A block is one girth kernel
call: the kernel raises its cutoff after every graph to the block's
running best (minus 1 in exhaustive mode, so ties stay exact), and in
best mode it ends the block at the bipartite Moore bound; neither can
change which graph wins.  Results are identical for any worker count
and either kernel.

The stage runs on int arrays of 0-based images: the beam is one array
of shape (members, slots, n), the candidates are the rows of
searchspace.cycle_images(d, cap), the finals are rotations or, at level
2, the cycle_images of degree n, the filters are boolean masks over them
(the partition check asks that every cycle of inv(left).q has the one
length the required partition holds).  Each member's graphs are rows of
one image table, its scaled slots, the finals compatible with them and
its kept words scaled to degree n, and its (final, word) pairs form one
ordered array of table rows that the workers take in slices.  A scan
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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from math import gcd, lgamma, log, log10
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
    compose,  # noqa: F401  read as engine.compose by perfbench/test_perfbench.py
    identity,
    spell_count,
)
from .searchspace import CandidateWord, cycle_images, listed_count, word_at_index

ENUM_FALLBACK = "enum"  # rotation_j marker: final slot was enumerated
# Most booleans one (final, word) compatibility mask may hold.
PAIR_CELLS = 1 << 22
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

    def __init__(self, stage: int, what: str, degree: int, estimate: int | float, text: str):
        self.stage = stage
        self.estimate = estimate
        self.limit = MAX_LISTED
        super().__init__(
            f"stage {stage} would list {text} {what} of degree {degree}, "
            f"over the limit of {MAX_LISTED}; a candidate cap (--cap) bounds it"
        )


def _refuse_unlisted(stage: int, what: str, degree: int, cap: int | None) -> None:
    """Refuses a list of the (degree-1)! candidates, cut to cap, over MAX_LISTED."""
    estimate, text = listed_count(degree, cap)
    if estimate > MAX_LISTED:
        raise StageTooLargeError(stage, what, degree, estimate, text)


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


def _index(pairs: np.ndarray, at: int, r: int) -> np.ndarray:
    """The kernel's row index of (final row, word row) table pairs: slot
    t is table row t, the member's scaled slot, but slot `at` takes the
    word and slot r-1 the final."""
    index = np.empty((len(pairs), r), dtype=np.int32)
    index[:] = np.arange(r, dtype=np.int32)
    index[:, at] = pairs[:, 1]
    index[:, -1] = pairs[:, 0]
    return index


def _evaluate_chunk(
    table: np.ndarray, r: int, at: int, pairs: np.ndarray, lo: int, hi: int, moore: int,
    exhaustive: bool,
) -> tuple[int, int, list[int]]:
    """Girths of the r-slot graphs that the table pairs[lo:hi] name, in one
    kernel call.

    After every graph the cutoff rises to the block's running best (minus
    1 in exhaustive mode, so ties stay exact): a graph at or below it
    cannot change the block's result.  In best mode the call ends once a
    graph reaches the Moore bound, since nothing after it can beat it.
    Returns (graphs the kernel scored, best girth, the positions in pairs
    of the block's co-maximal graphs in order; in best mode only the
    first).
    """
    index = _index(pairs[lo:hi], at, r)
    if exhaustive:
        girths = _kernel.girth_batch(table, index, table.shape[1], -1, slack=1)
        best_g = int(girths.max())
        return len(girths), best_g, (np.flatnonzero(girths == best_g) + lo).tolist()
    girths = _kernel.girth_batch(table, index, table.shape[1], -1, stop=moore)
    return len(girths), int(girths.max()), [lo + int(girths.argmax())]


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

    def prepare(slots: np.ndarray, finals: np.ndarray, blocks: np.ndarray):
        """The member's image table, its ordered (final, word) pairs of
        table rows, and the finals and words the table holds.

        Rows 0..stage-2 are the member's rebased slots scaled, then come
        the finals compatible with the other scaled slots, then the words
        that pass the degree-d filters, scaled.  As scaling adds j*d to
        block j, a scaled word meets a final wherever the word meets the
        final's block j minus j*d, which `blocks` holds."""
        keep = np.flatnonzero((words[:, None, :] != np.delete(slots, at, 0)).all(axis=(1, 2)))
        if stage >= 4:
            keep = keep[_uniform_cycles(np.argsort(slots[at - 1])[words[keep]], cycle)]
        slots = (slots[:, None, :] + offsets).reshape(len(slots), n)
        rows = np.flatnonzero((finals[:, None, :] != np.delete(slots, at, 0)).all(axis=(1, 2)))
        first_word = stage - 1 + len(rows)
        table = np.empty((first_word + len(keep), n), dtype=dtype)
        table[: stage - 1] = slots
        table[stage - 1 : first_word] = finals[rows]
        kept = words[keep, None, :]
        scaled = table[first_word:].reshape(len(keep), k, d)
        scaled[:] = kept
        scaled += np.arange(0, n, d, dtype=dtype)[:, None]
        step = max(1, PAIR_CELLS // max(1, len(keep) * n))
        pairs = [np.empty((0, 2), dtype=np.int32)]
        for lo in range(0, len(rows), step):
            final, word = np.nonzero((kept != blocks[rows[lo : lo + step], None]).all(axis=(2, 3)))
            chunk = np.empty((len(final), 2), dtype=np.int32)
            chunk[:, 0] = final
            chunk[:, 0] += stage - 1 + lo
            chunk[:, 1] = word
            chunk[:, 1] += first_word
            pairs.append(chunk)
        return table, np.concatenate(pairs), rows, keep

    levels = [0] if config.rotation_policy == "strict" else [0, 1, 2]
    exhaustive = config.mode == "exhaustive"
    moore = _moore_girth(n, stage)
    attempted = 0
    with ThreadPoolExecutor(max_workers=config.worker_count) as pool:
        for level in levels:
            markers, finals = _finals_for_level(n, d, level, config.candidate_cap, stage)
            if not len(finals):
                continue
            attempted += len(beam) * len(finals) * len(words)
            blocks = finals.reshape(len(finals), k, d) - offsets
            evaluated, best_g, winners, seen = 0, -1, [], set()
            for member in beam:
                rebased = member[:, np.argsort(member[-1])]
                others = np.delete(rebased, at, 0).tobytes()
                if others in seen:
                    continue  # its graphs are an earlier member's, in order
                seen.add(others)
                table, pairs, rows, keep = prepare(rebased, finals, blocks)
                step = max(1, len(pairs) // (4 * config.worker_count))
                starts = range(0, len(pairs), step)
                stops = [min(len(pairs), lo + step) for lo in starts]
                scan = partial(
                    _evaluate_chunk, table, stage, at, pairs, moore=moore, exhaustive=exhaustive
                )
                found = []
                for count, g, block in pool.map(scan, starts, stops):
                    evaluated += count
                    if g > best_g:
                        best_g, winners, found = g, [], []
                    if g == best_g:
                        found.extend(block)
                if found:
                    hits = pairs[found]
                    if not winners:
                        final, word = hits[0] - (stage - 1, stage - 1 + len(rows))
                        first = int(rows[final]), int(keep[word])
                    winners.append(table[_index(hits, at, stage)])
            if evaluated == 0:
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
    more than MAX_LISTED is refused with BTUError before the first,
    whatever the cap.
    """
    f = factorize(m, r)
    if f.degenerate:
        raise DegenerateFactorizationError(f"m={m}, r={r}: k=1, family enumeration inapplicable")
    b, k = f.b, f.k
    # log10 of the attempts; lgamma(n) is ln((n-1)!)
    degrees = (m, *(b * k**j for j in range(1, r - 1)))
    attempts = sum(map(lgamma, degrees)) / log(10)
    if attempts > log10(MAX_LISTED):
        raise BTUError(
            f"m={m}, r={r}: the family enumeration would try "
            f"{spell_count(attempts)[1]} slot combinations, "
            f"over the limit of {MAX_LISTED}; a cap bounds only the members listed"
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

"""Staged search and family enumeration."""

import hashlib
import itertools
import json
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from math import factorial, gcd

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from strategies import regular_matrices

from btusearch import _kernel, engine
from btusearch.btu import (
    adjacent_partitions,
    decompose_matrix,
    girth,
    in_Z,
    in_phi,
    make_btu,
)
from btusearch.cli import main
from btusearch.engine import (
    SearchConfig,
    StageDeadEndError,
    StageTooLargeError,
    StageTrace,
    _moore_girth,
    admissible_rotations,
    enumerate_Z,
    search,
)
from btusearch.parameters import (
    AssumptionWarning,
    DegenerateFactorizationError,
    factorize,
    optimal_partitions,
)
from btusearch.perms import (
    BTUError,
    CompatibilityError,
    PartitionP2,
    Permutation,
    circular_rotation,
    identity,
    scale_permutation,
    union_cycle_partition,
)
from btusearch.searchspace import CandidateWord, cycle_images, enumerate_candidates


@pytest.fixture(autouse=True)
def _silence_regime_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AssumptionWarning)
        yield


class TestAdmissibleRotations:
    def test_examples(self):
        assert admissible_rotations(9, 3) == [4, 5]
        assert admissible_rotations(8, 2) == [3, 5]
        assert admissible_rotations(4, 1) == []

    def test_coprimality_of_triple(self):
        from math import gcd

        for n in range(2, 20):
            for j in admissible_rotations(n, 1):
                assert gcd(j, n) == 1
                assert gcd(j, n - j) == 1
                assert gcd(n - j, n) == 1


class TestSearchWeightTwo:
    def test_single_cycle_girth(self):
        for m in range(3, 11):
            result = search(m, 2)
            assert result.girth == 2 * m
            assert result.btu.perms[0] == identity(m)

    def test_4_2_example(self):
        assert search(4, 2).girth == 8

    def test_strict_dead_end(self):
        with pytest.raises(StageDeadEndError):
            search(4, 2, SearchConfig(rotation_policy="strict"))

    def test_strict_when_rotation_exists(self):
        result = search(5, 2, SearchConfig(rotation_policy="strict"))
        assert result.girth == 10
        assert result.traces[0].rotation_j == 2


class TestSearchWeightThree:
    def test_4_3_needs_enumeration_fallback(self):
        result = search(4, 3)
        assert result.girth == 4  # exhaustive maximum; see test_oracle
        assert [p.image for p in result.btu.perms] == [
            (2, 1, 4, 3),
            (1, 2, 3, 4),
            (3, 4, 2, 1),
        ]
        assert result.traces[-1].rotation_j == "enum"

    def test_9_3_candidate_loop_size(self):
        result = search(9, 3)
        assert result.girth == 6
        final = result.traces[-1]
        assert final.candidates_evaluated == 4  # (k-1)! words x 2 rotations
        assert final.rotation_j == 4

    def test_9_3_matches_full_family_sweep(self):
        best = max(girth(b).girth for b in enumerate_Z(9, 3))
        assert search(9, 3).girth == best

    def test_result_is_on_optimal_partitions(self):
        for m, r in [(4, 3), (8, 3), (9, 3), (12, 3)]:
            result = search(m, r)
            f = factorize(m, r)
            assert in_phi(result.btu, optimal_partitions(f).betas)
            assert result.btu.perms[r - 2] == identity(m)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateFactorizationError):
            search(6, 3)

    def test_8_3_family_beats_rotation_final_slots(self):
        # The scaled family holds girth-6 members at (8,3), but none of
        # them has a circulant final slot, so the rotation-constrained
        # staged search tops out at 4.  Kept as data: the rotation
        # restriction is a genuine loss here, not just a convenience.
        from btusearch.perms import as_rotation

        found = None
        for member in enumerate_Z(8, 3):
            if girth(member).girth == 6:
                found = member
                break
        assert found is not None
        assert as_rotation(found.perms[2]) is None
        assert search(8, 3).girth == 4


class TestSearchWeightFour:
    def test_8_4_runs_and_lands_on_optimal_partitions(self):
        result = search(8, 4)
        f = factorize(8, 4)
        assert in_phi(result.btu, optimal_partitions(f).betas)
        assert result.girth >= 4
        assert len(result.traces) == 3

    def test_16_4_with_cap(self):
        result = search(16, 4, SearchConfig(candidate_cap=60))
        f = factorize(16, 4)
        assert in_phi(result.btu, optimal_partitions(f).betas)


class TestDeterminism:
    def test_worker_counts_agree(self):
        lone = search(9, 3, SearchConfig(worker_count=1))
        four = search(9, 3, SearchConfig(worker_count=4))
        assert lone.btu == four.btu
        assert lone.traces == four.traces

    def test_repeat_runs_agree(self):
        a = search(12, 3)
        b = search(12, 3)
        assert a.btu == b.btu and a.traces == b.traces

    def test_exhaustive_mode_same_winner_at_r3(self):
        best = search(9, 3, SearchConfig(mode="best"))
        full = search(9, 3, SearchConfig(mode="exhaustive"))
        assert best.btu == full.btu
        assert best.girth == full.girth


class TestEnumerateZ:
    def test_4_3_members(self):
        members = list(enumerate_Z(4, 3))
        assert len(members) == 2
        for b in members:
            assert b.perms[0].image == (2, 1, 4, 3)  # the lone scaled slot choice
            assert b.perms[1] == identity(4)
            assert in_Z(b, factorize(4, 3))
        assert members[0].perms[2].image == (3, 4, 2, 1)
        assert members[1].perms[2].image == (4, 3, 1, 2)

    def test_cap(self):
        capped = list(enumerate_Z(9, 3, cap=5))
        assert len(capped) == 5
        assert all(in_Z(b, factorize(9, 3)) for b in capped)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateFactorizationError):
            list(enumerate_Z(6, 3))

    def test_9_3_listed_in_full(self):
        # 2! x 8! = 80,640 combinations tried: under the listing limit.
        assert sum(1 for _ in enumerate_Z(9, 3)) == 26640

    @pytest.mark.parametrize("cap", [None, 1])
    def test_refused_up_front_whatever_the_cap(self, cap):
        members = enumerate_Z(12, 3, cap=cap)
        with pytest.raises(BTUError, match=r"about 4\.8e9 .* limit of 1000000"):
            next(members)

    def test_partitions_always_optimal(self):
        betas = optimal_partitions(factorize(9, 3)).betas
        for b in list(enumerate_Z(9, 3, cap=50)):
            assert adjacent_partitions(b) == betas

    @pytest.mark.parametrize("m,r", [(4, 2), (7, 2), (4, 3), (8, 3), (8, 4)])
    def test_members_are_the_per_attempt_loop(self, m, r):
        assert list(enumerate_Z(m, r)) == list(per_attempt_Z(m, r))

    @pytest.mark.parametrize("cap", [1, 5])
    def test_capped_members_are_the_per_attempt_loop(self, cap):
        assert list(enumerate_Z(9, 3, cap=cap)) == list(per_attempt_Z(9, 3, cap))


def per_attempt_Z(m, r, cap=None):
    """The family enumeration as one make_btu and in_Z check per slot
    combination: the reference the array filter is tested against."""
    f = factorize(m, r)
    scaled_slots = [
        [
            scale_permutation(q, f.k ** (r - 1 - j))
            for q in enumerate_candidates(identity(f.b * f.k**j))
        ]
        for j in range(1, r - 1)
    ]
    yielded = 0
    for combo in itertools.product(*scaled_slots):
        for last in enumerate_candidates(identity(m)):
            try:
                candidate = make_btu((*combo, identity(m), last))
            except CompatibilityError:
                continue
            if in_Z(candidate, f):
                yield candidate
                yielded += 1
                if yielded == cap:
                    return


# Regression pins for r >= 4, exhaustive and capped runs included: the
# winning BTU and every StageTrace field.  Trace rows are (stage, n,
# rotation_j, candidates_evaluated, best_girth, best candidate word or
# None).
GOLDEN = {
    (8, 4, "exhaustive", None): (
        [
            (3, 4, 2, 1, 7, 8, 6, 5),
            (4, 3, 1, 2, 8, 7, 5, 6),
            (1, 2, 3, 4, 5, 6, 7, 8),
            (2, 5, 6, 7, 3, 4, 8, 1),
        ],
        [
            (2, 2, "relaxed-gcd:1", 1, 4, None),
            (3, 4, "enum", 8, 4, (1,)),
            (4, 8, "enum", 60528, 4, (2, 3, 1)),
        ],
    ),
    (16, 4, "best", None): (
        [
            (3, 4, 1, 6, 7, 8, 5, 2, 11, 12, 9, 14, 15, 16, 13, 10),
            (2, 3, 4, 5, 6, 7, 8, 1, 10, 11, 12, 13, 14, 15, 16, 9),
            (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16),
            (16, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
        ],
        [
            (2, 4, "relaxed-gcd:1", 1, 8, None),
            (3, 8, "relaxed-gcd:1", 24, 4, (1, 2, 3)),
            (4, 16, "relaxed-gcd:1", 40320, 4, (1, 2, 3, 4, 5, 6, 7)),
        ],
    ),
    (16, 4, "exhaustive", 60): (
        [
            (3, 4, 1, 6, 7, 8, 5, 2, 11, 12, 9, 14, 15, 16, 13, 10),
            (2, 3, 4, 5, 6, 7, 8, 1, 10, 11, 12, 13, 14, 15, 16, 9),
            (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16),
            (16, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
        ],
        [
            (2, 4, "relaxed-gcd:1", 1, 8, None),
            (3, 8, "relaxed-gcd:1", 24, 4, (1, 2, 3)),
            (4, 16, "relaxed-gcd:1", 5760, 4, (1, 2, 3, 4, 5, 6, 7)),
        ],
    ),
    (16, 5, "best", None): (
        [
            (5, 3, 7, 8, 4, 2, 1, 6, 13, 11, 15, 16, 12, 10, 9, 14),
            (6, 4, 8, 7, 3, 1, 2, 5, 14, 12, 16, 15, 11, 9, 10, 13),
            (4, 1, 6, 5, 7, 8, 3, 2, 12, 9, 14, 13, 15, 16, 11, 10),
            (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16),
            (10, 11, 12, 13, 14, 15, 16, 1, 2, 3, 4, 5, 6, 7, 8, 9),
        ],
        [
            (2, 2, "relaxed-gcd:1", 1, 4, None),
            (3, 4, "enum", 8, 4, (1,)),
            (4, 8, "enum", 30264, 4, (2, 3, 1)),
            (5, 16, "relaxed-gcd:7", 40320, 4, (2, 1, 4, 5, 7, 3, 6)),
        ],
    ),
}


class TestGoldenTraces:
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("case", list(GOLDEN), ids=lambda c: "-".join(map(str, c)))
    def test_winner_and_traces(self, case, workers):
        m, r, mode, cap = case
        images, rows = GOLDEN[case]
        result = search(
            m, r, SearchConfig(mode=mode, worker_count=workers, candidate_cap=cap)
        )
        assert [p.image for p in result.btu.perms] == images
        assert result.traces == tuple(
            StageTrace(
                stage=stage,
                n=n,
                rotation_j=rotation_j,
                candidates_evaluated=attempted,
                best_girth=best,
                best_candidate_word=None
                if word is None
                else CandidateWord(n=len(word) + 1, word=Permutation(word)),
            )
            for stage, n, rotation_j, attempted, best, word in rows
        )
        assert result.girth == rows[-1][4]


# SHA-256 of `btusearch search -m M -r R --mode MODE --no-timing` taken
# with the pure kernel before the batched kernel calls, the cutoff and the
# Moore-bound stop existed; (20,3) best and (16,5) exhaustive with the
# compiled kernel before the stages ran on int arrays.
LADDER = {
    (12, 3, "best"): "c279c485f4ac2099cc4053a92e00d782e1909b8d007f1d5ce7324251ed908fe4",
    (18, 3, "best"): "afe678882677ba5a20b397a9f762db6c3379d1673bef7744a4a8983dce1f661b",
    (32, 3, "best"): "e5579587197afd2240d773e6469dee87036f910cf28555c4f734875c54a339a9",
    (27, 4, "best"): "4efd9ca94c17a253d11c497aeb1fbb7d43982595cd07c6d9b397e8940120877b",
    (16, 5, "best"): "f78f5c2943b36ba3919e8772c075a2f9ac1be853e78d79375986b0d5ea9354a2",
    (12, 3, "exhaustive"): "49b42199da392f111bdee85a7bd374457116edea825ef14c8d08cf114943badc",
    (18, 3, "exhaustive"): "1d5102f178ea5cd3f5d615ce7573d0edd987ccfbb1578da6ec952e3d9f664a72",
    (32, 3, "exhaustive"): "30486e0881df446b16cd8bf26d5ec47618e6a24a17c810619e0a258792f951ac",
    (27, 4, "exhaustive"): "de35217c3a05d350e6c4c13e1bba4c8e5bc7e5c8fdbd37a2d63411b263902170",
    (20, 3, "best"): "a6b7dfe835731022d162f96779cf8c4a62814798a101130098c3085773fbe471",
    (16, 5, "exhaustive"): "334533926531bc9bf0fe8fcaa7247a909167da284a4f9ebc9678d34718644885",
}
# Rungs the pure kernels skip, as each takes them seconds ((32,3): ~8 s
# per search) or minutes ((20,3), 9! candidates) per search.  They run the
# other rungs with one worker; the compiled kernel runs every rung with 1
# and 3.
COMPILED_ONLY = {(32, 3, "best"), (32, 3, "exhaustive"), (20, 3, "best"), (16, 5, "exhaustive")}
LADDER_RUNS = [
    (kernel, m, r, mode, 1)
    for kernel in ("python", "loose")
    for m, r, mode in LADDER
    if (m, r, mode) not in COMPILED_ONLY
] + [("c", m, r, mode, workers) for m, r, mode in LADDER for workers in (1, 3)]


class TestBackendsAgree:
    """Batched kernel calls, the cutoff and the Moore-bound stop leave
    every answer as it was, on either kernel and for any worker count,
    and also on a kernel that answers at the edge of the cutoff contract
    (conftest.LooseKernel)."""

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("case", list(GOLDEN), ids=lambda c: "-".join(map(str, c)))
    @pytest.mark.parametrize("kernel", ["python", "c", "loose"], indirect=True)
    def test_golden_traces(self, backend, case, workers):
        TestGoldenTraces().test_winner_and_traces(case, workers)

    @pytest.mark.parametrize("kernel,m,r,mode,workers", LADDER_RUNS, indirect=["kernel"])
    def test_ladder_json(self, backend, capsys, m, r, mode, workers):
        code = main(
            ["search", "-m", str(m), "-r", str(r), "--mode", mode,
             "--workers", str(workers), "--no-timing"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == LADDER[(m, r, mode)]


# SHA-256 of the JSON list of the last stage's beam in exhaustive mode
# (every co-maximal BTU, in scan order), taken with the pure kernel before
# batching.  The report shows only the first of them.
EXHAUSTIVE_BEAMS = {
    (12, 3): "c3a76f6a465806a38d3dc1bc1258d93d4182c9f0d31526b3e882f13dd8012645",
    (18, 3): "74da7538b43906047451669b605491e70ddec127525f2ef6cefcae9ca428ea59",
    (27, 4): "4705a7597c6c58448b7965d7c5614cbe08255d98f46901595e574af9acf807ba",
    (8, 4): "cd8d9d1fb090318116f57e963fe3ef02e1b444c255e85f1998260cd7dda4c6f3",
    (32, 3): "19d03c79f052123273d793b13e92ebd71805b077cdac93602192b6abc791a0b0",
    # Full co-maximal beams in which members repeat: 11,700 and 70,746
    # BTUs.  At (16, 5) stage 5, 80 of the 736 members repeat an earlier
    # member's slots but the replaced one.
    (16, 4): "47ee69d51d33db7f74f375ca7a8ab030f7733d40b8fb4d551a51e501efabdf76",
    (16, 5): "ebf224628b83558dce0909df6af92fac3d6c3260fc12f59d124a90091984fd3f",
}
COMPILED_ONLY = {(32, 3), (16, 4), (16, 5)}
BEAM_RUNS = [
    (kernel, m, r, 1)
    for kernel in ("python", "loose")
    for m, r in EXHAUSTIVE_BEAMS
    if (m, r) not in COMPILED_ONLY
] + [("c", m, r, workers) for m, r in EXHAUSTIVE_BEAMS for workers in (1, 3)]


class TestExhaustiveBeams:
    @pytest.mark.parametrize("kernel,m,r,workers", BEAM_RUNS, indirect=["kernel"])
    def test_co_maxima_and_order(self, backend, m, r, workers):
        f = factorize(m, r)
        config = SearchConfig(mode="exhaustive", worker_count=workers)
        beam = engine._stage2(f, config)[0]
        for stage in range(3, r + 1):
            beam, _ = engine._run_stage(beam, stage, f, config)
        text = json.dumps((beam.astype(int) + 1).tolist())
        assert hashlib.sha256(text.encode()).hexdigest() == EXHAUSTIVE_BEAMS[(m, r)]


class TestFinalsForLevel:
    def test_level_two_is_the_candidate_array(self):
        markers, finals = engine._finals_for_level(7, 3, 2, None, 3)
        assert markers == ["enum"] * 720
        assert np.array_equal(finals, cycle_images(7))
        markers, finals = engine._finals_for_level(7, 3, 2, 5, 3)
        assert markers == ["enum"] * 5 and np.array_equal(finals, cycle_images(7, 5))

    @pytest.mark.parametrize("n,threshold", [(9, 3), (12, 2), (16, 8), (7, 1)])
    @pytest.mark.parametrize("level", [0, 1])
    def test_rotation_rows(self, n, threshold, level):
        markers, finals = engine._finals_for_level(n, threshold, level, None, 3)
        assert len(markers) == len(finals)
        for marker, row in zip(markers, finals):
            j = marker if level == 0 else int(marker.removeprefix("relaxed-gcd:"))
            assert row.tolist() == [x - 1 for x in circular_rotation(n, j).image]
        assert markers == (
            admissible_rotations(n, threshold)
            if level == 0
            else [f"relaxed-gcd:{j}" for j in admissible_rotations(n, 0)]
        )


def _reflect(p: np.ndarray) -> np.ndarray:
    """rho.p.rho for the reflection rho: x -> n-1-x, on 0-based images."""
    return len(p) - 1 - p[::-1]


class TestReflectionHalfScan:
    """Best mode at stage 3 scans only the rotation finals j <= n/2: the
    reflection maps [scale(w), identity, rotation j] to a graph of the
    same girth, [scale(rho.w.rho), identity, rotation n-j]."""

    @staticmethod
    def stage_three_graphs(monkeypatch, kernel, m, config):
        """Graphs the kernel scores at stage 3 of search(m, 3, config)."""
        monkeypatch.setattr(_kernel, "_impl", kernel)
        batch, scored = _kernel.girth_batch, []

        def counting(table, index, *args, **kwargs):
            girths = batch(table, index, *args, **kwargs)
            if index.shape[1] == 3:
                scored.append(len(girths))
            return girths

        monkeypatch.setattr(_kernel, "girth_batch", counting)
        search(m, 3, config)
        return sum(scored)

    @pytest.mark.parametrize(
        "config,graphs",
        [
            (SearchConfig(), 20160),
            (SearchConfig(worker_count=2), 20160),
            (SearchConfig(candidate_cap=5040), 40320),
            (SearchConfig(mode="exhaustive"), 40320),
        ],
        ids=["best", "best-2-workers", "capped", "exhaustive"],
    )
    def test_graphs_scored_at_32_3(self, compiled_kernel, monkeypatch, config, graphs):
        # 8 rotation finals of degree 32 times 7! = 5,040 words of degree 8,
        # every pair compatible; the cap lists all 5,040 but is a cap.
        assert self.stage_three_graphs(monkeypatch, compiled_kernel, 32, config) == graphs

    @settings(
        max_examples=100, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        bk=st.sampled_from([(1, 2), (1, 3), (2, 2), (3, 2), (1, 4), (2, 3), (4, 2)]),
        data=st.data(),
    )
    def test_twins_have_equal_girth(self, kernel, bk, data):
        b, k = bk
        d, n = b * k, b * k * k
        words = cycle_images(d)
        w = words[data.draw(st.integers(0, len(words) - 1), label="word")].astype(np.intp)
        j = data.draw(st.sampled_from([j for j in range(1, n) if gcd(j, n) == 1]), label="j")

        def rotation(j):
            return (np.arange(n) - j) % n

        def scale(w):
            return (w[None, :] + np.arange(0, n, d)[:, None]).reshape(n)

        twin = _reflect(w)
        assert (words == twin).all(axis=1).any()
        assert np.array_equal(_reflect(rotation(j)), rotation(n - j))
        assert np.array_equal(_reflect(scale(w)), scale(twin))
        table = np.array(
            [scale(w), np.arange(n), rotation(j), scale(twin), rotation(n - j)], dtype=np.int32
        )
        index = np.array([[0, 1, 2], [3, 1, 4]], dtype=np.int32)
        out = np.empty(2, dtype=np.int32)
        # Slack 2n keeps the second graph's cutoff at 0: both are exact.
        assert kernel.girth_batch(table, index, 2, n, 3, out, 0, 2 * n, 0) == 2
        assert out[0] == out[1]


class TestCallingThread:
    """A member of one unit is scanned on the calling thread, and so is
    every member when there is one worker."""

    @pytest.mark.parametrize("m,r,workers", [(18, 3, 2), (27, 4, 1)])
    def test_no_pool_task(self, monkeypatch, capsys, m, r, workers):
        def refuse(*args, **kwargs):
            raise AssertionError("a task went to the worker pool")

        monkeypatch.setattr(ThreadPoolExecutor, "submit", refuse)
        code = main(
            ["search", "-m", str(m), "-r", str(r), "--workers", str(workers), "--no-timing"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == LADDER[(m, r, "best")]

    def test_a_member_of_several_blocks_goes_to_the_pool(self, compiled_kernel, monkeypatch):
        # (32,3) scans 4 finals x 5,040 words: one unit, or at most 4,096
        # pairs to a unit, each final in word ranges 0:4096 and 4096:5040.
        monkeypatch.setattr(_kernel, "_impl", compiled_kernel)
        submit, tasks = ThreadPoolExecutor.submit, []

        def counting(pool, *args, **kwargs):
            tasks.append(args)
            return submit(pool, *args, **kwargs)

        monkeypatch.setattr(ThreadPoolExecutor, "submit", counting)
        assert search(32, 3, SearchConfig(worker_count=2)).girth == 8
        assert tasks == []
        monkeypatch.setattr(engine, "BLOCK", 4096)
        assert search(32, 3, SearchConfig(worker_count=2)).girth == 8
        assert len(tasks) == 8


class TestSmallBlocks:
    """Members cut into many units of at most BLOCK = 97 pairs give the
    same answers.  On the calling thread and on the pool, each unit starts
    from the best girth of the units returned before it was started, and
    in best mode no unit starts after one at the Moore bound.  The loose
    kernel answers at the edge of the cutoff contract."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(engine, "BLOCK", 97)

    @pytest.mark.parametrize(
        "kernel,m,r,mode,workers",
        [("loose", m, r, mode, w) for m, r, mode in [(18, 3, "best"), (27, 4, "best"),
                                                    (18, 3, "exhaustive")] for w in (1, 3)]
        + [("c", m, r, mode, w) for m, r, mode in [(32, 3, "best"), (20, 3, "best"),
                                                  (32, 3, "exhaustive")] for w in (1, 3)],
        indirect=["kernel"],
    )
    def test_ladder_json(self, backend, capsys, m, r, mode, workers):
        TestBackendsAgree().test_ladder_json(backend, capsys, m, r, mode, workers)

    @pytest.mark.parametrize(
        "kernel,m,r,workers",
        [("loose", m, r, w) for m, r in [(12, 3), (18, 3), (27, 4), (8, 4)] for w in (1, 3)]
        + [("c", m, r, w) for m, r in [(32, 3), (16, 4)] for w in (1, 3)],
        indirect=["kernel"],
    )
    def test_exhaustive_beams(self, backend, m, r, workers):
        TestExhaustiveBeams().test_co_maxima_and_order(backend, m, r, workers)

    @pytest.mark.parametrize(
        "kernel,m,r,mode",
        [("c", 32, 3, "exhaustive"), ("c", 20, 3, "best"), ("c", 27, 4, "best"),
         ("c", 16, 4, "exhaustive")],
        indirect=["kernel"],
    )
    def test_no_call_exceeds_a_unit(self, backend, monkeypatch, m, r, mode):
        batch, calls = _kernel.girth_batch, []

        def counting(table, index, *args, **kwargs):
            calls.append((len(index), table.shape[1]))
            return batch(table, index, *args, **kwargs)

        monkeypatch.setattr(_kernel, "girth_batch", counting)
        search(m, r, SearchConfig(mode=mode))
        assert calls
        assert all(0 < g <= max(1, min(engine.BLOCK, engine.PAIR_CELLS // n)) for g, n in calls)


class TestSmallPairCells(TestSmallBlocks):
    """The same runs with units that PAIR_CELLS sets rather than BLOCK:
    40 pairs to a unit at degree 32, 71 at degree 18."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(engine, "PAIR_CELLS", 40 * 32)


class TestStageTwoMemory:
    def test_only_the_used_rotation_is_built(self, compiled_kernel, monkeypatch):
        # Every admissible rotation of degree 4096 is 2,046 rows of 4,096.
        # The pure kernel's BFS scores the one 4096-cycle in O(m^2) time.
        monkeypatch.setattr(_kernel, "_impl", compiled_kernel)
        tracemalloc.start()
        try:
            assert search(4096, 2).girth == 2 * 4096
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestStageThreeMemory:
    def test_exhaustive_20_3(self, compiled_kernel, monkeypatch):
        # 9! words of degree 10 against 8 rotation finals of degree 20.
        # Each unit builds its own mask and index, so the peak holds the
        # words, the table and one unit (45 MiB with a member-wide pair list).
        monkeypatch.setattr(_kernel, "_impl", compiled_kernel)
        tracemalloc.start()
        try:
            assert search(20, 3, SearchConfig(mode="exhaustive")).girth == 8
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 28 * 2**20


class TestUniformCycles:
    """The stage >= 4 partition filter: every cycle of inv(left).q has
    the same length, as union_cycle_partition(left, q) == beta asks."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_agrees_with_union_cycle_partition(self, data):
        d = data.draw(st.integers(2, 16))
        length = data.draw(st.sampled_from([t for t in range(2, d + 1) if d % t == 0]))
        left = data.draw(st.permutations(range(d)))
        order = data.draw(st.permutations(range(d)))
        if data.draw(st.booleans()):
            # sigma walks `order` in cycles of `length` points.
            sigma = list(range(d))
            for lo in range(0, d, length):
                cycle = order[lo : lo + length]
                for x, y in zip(cycle, cycle[1:] + cycle[:1]):
                    sigma[x] = y
        else:
            sigma = order
        assume(all(sigma[x] != x for x in range(d)))  # q compatible with left
        q = [left[x] for x in sigma]
        expected = union_cycle_partition(
            Permutation(tuple(x + 1 for x in left)), Permutation(tuple(x + 1 for x in q))
        ) == PartitionP2((length,) * (d // length))
        got = engine._uniform_cycles(np.argsort(left)[np.array([q])], length)
        assert got.tolist() == [expected]


class TestMooreGirth:
    def test_values(self):
        # r = 2: a single 2n-cycle; (32, 3): 1 + 2 + 4 + 8 + 16 = 31 <= 32.
        assert [_moore_girth(n, 2) for n in (2, 5, 9)] == [4, 10, 18]
        assert _moore_girth(32, 3) == 10 and _moore_girth(30, 3) == 8
        assert _moore_girth(14, 3) == 6 and _moore_girth(15, 3) == 8
        assert _moore_girth(20, 5) == 4 and _moore_girth(21, 5) == 6


def moore_bound_holds(m, r, g):
    """Bipartite Moore bound: girth g = 2L needs m >= sum_{i<L} (r-1)^i."""
    return g is None or m >= sum((r - 1) ** i for i in range(g // 2))


class TestMooreBoundHolds:
    @settings(max_examples=100, deadline=None)
    @given(mat=regular_matrices(max_m=40))
    def test_random_btus(self, mat):
        b = decompose_matrix(mat)
        assert moore_bound_holds(b.m, b.r, girth(b).girth)

    @pytest.mark.parametrize("m,r", [(12, 3), (18, 3), (27, 4), (16, 5)])
    def test_search_ladder(self, m, r):
        result = search(m, r)
        assert moore_bound_holds(m, r, girth(result.btu).girth)
        for t in result.traces:
            assert moore_bound_holds(t.n, t.stage, t.best_girth)


class TestStageTooLarge:
    """A stage that would list more candidates or finals than MAX_LISTED
    is refused before the list is built."""

    @pytest.mark.parametrize(
        "m,r,stage,degree", [(24, 3, 3, 12), (64, 4, 4, 16)]
    )
    def test_refused_up_front(self, m, r, stage, degree):
        started = time.perf_counter()
        with pytest.raises(StageTooLargeError) as err:
            search(m, r)
        assert time.perf_counter() - started < 1
        assert err.value.stage == stage
        assert err.value.estimate == factorial(degree - 1) > err.value.limit

    def test_cap_bounds_the_stage(self):
        result = search(64, 4, SearchConfig(candidate_cap=5))
        assert result.btu.m == 64 and result.girth >= 4

    def test_cap_above_the_limit_is_still_refused(self):
        with pytest.raises(StageTooLargeError) as err:
            search(24, 3, SearchConfig(candidate_cap=engine.MAX_LISTED + 1))
        assert err.value.estimate == engine.MAX_LISTED + 1

    def test_largest_listed_stage_is_admitted(self):
        # (20, 3) lists 9! candidates of degree 10, the most of any size
        # the tests, the README or the benchmark run.
        engine._refuse_unlisted(3, "candidates", 10, None)
        assert factorial(9) <= engine.MAX_LISTED < factorial(10)

    def test_level_two_finals_refused_unless_capped(self):
        with pytest.raises(StageTooLargeError) as err:
            engine._finals_for_level(16, 8, 2, None, 5)
        assert "finals of degree 16" in str(err.value)
        assert len(engine._finals_for_level(16, 8, 2, 10, 5)[1]) == 10

    def test_cli_exits_one(self, capsys):
        assert main(["search", "-m", "24", "-r", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: stage 3 would list")

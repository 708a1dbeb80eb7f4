"""Staged search and family enumeration."""

import warnings

import pytest

from btusearch.btu import adjacent_partitions, girth, in_Z, in_phi
from btusearch.engine import (
    SearchConfig,
    StageDeadEndError,
    StageTrace,
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
from btusearch.perms import Permutation, identity
from btusearch.searchspace import CandidateWord


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

    def test_partitions_always_optimal(self):
        betas = optimal_partitions(factorize(9, 3)).betas
        for b in list(enumerate_Z(9, 3, cap=50)):
            assert adjacent_partitions(b) == betas


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

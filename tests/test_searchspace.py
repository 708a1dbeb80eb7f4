"""Candidate space: counts, the word bijection, enumeration, stats."""

import itertools
import tracemalloc
from math import factorial

import numpy as np
import pytest
from helpers import candidate_images, uniform_cycles, word_at_index
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from btusearch import _girth_py, _kernel
from btusearch.parameters import Factorization
from btusearch.perms import (
    Permutation,
    circular_rotation,
    identity,
    is_compatible,
    union_cycle_partition,
)
from btusearch.searchspace import (
    CandidateWord,
    _factorial_digits,
    NotACandidateError,
    candidate_count,
    cayley_stats,
    enumerate_candidates,
    grown_cycle_images,
    lex_permutations,
    rank_candidate,
    unrank_candidate,
)


def brute_force_candidates(base: Permutation) -> set[tuple[int, ...]]:
    """All q with no agreement against base and one full alternating cycle."""
    n = base.n
    found = set()
    for img in itertools.permutations(range(1, n + 1)):
        q = Permutation(img)
        if not is_compatible(base, q):
            continue
        if union_cycle_partition(base, q).parts == (n,):
            found.add(img)
    return found


class TestCandidateCount:
    def test_values(self):
        assert candidate_count(3) == 2
        assert candidate_count(5) == 24

    def test_matches_brute_force(self):
        assert len(brute_force_candidates(identity(4))) == candidate_count(4)

    def test_degree_too_small(self):
        with pytest.raises(ValueError):
            candidate_count(1)


class TestUnrank:
    def test_degree_three_full_set(self):
        base = identity(3)
        images = {
            unrank_candidate(CandidateWord(3, Permutation(w)), base).image
            for w in [(1, 2), (2, 1)]
        }
        assert images == {(2, 3, 1), (3, 1, 2)}

    def test_degree_four_example(self):
        q = unrank_candidate(CandidateWord(4, Permutation((1, 2, 3))), identity(4))
        assert q.image == (2, 3, 4, 1)

    def test_output_is_single_cycle(self):
        for base in (identity(5), circular_rotation(5, 2)):
            for w in itertools.permutations(range(1, 5)):
                q = unrank_candidate(CandidateWord(5, Permutation(w)), base)
                assert union_cycle_partition(base, q).parts == (5,)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            unrank_candidate(CandidateWord(3, Permutation((1, 2))), identity(4))


class TestRank:
    def test_example(self):
        w = rank_candidate(Permutation((3, 1, 2)), identity(3))
        assert w.word.image == (2, 1)

    def test_not_a_candidate(self):
        with pytest.raises(NotACandidateError):
            rank_candidate(Permutation((2, 1, 4, 3)), identity(4))

    def test_round_trip_exhaustive(self):
        for n in range(2, 7):
            for base in (identity(n), circular_rotation(n, 1)):
                for w in itertools.permutations(range(1, n)):
                    word = CandidateWord(n, Permutation(w))
                    q = unrank_candidate(word, base)
                    assert rank_candidate(q, base) == word


class TestEnumerate:
    def test_stream_is_exactly_the_candidate_set(self):
        for n in range(2, 7):
            for base in (identity(n), circular_rotation(n, 1)):
                stream = [q.image for q in enumerate_candidates(base)]
                assert len(stream) == candidate_count(n)
                assert len(set(stream)) == len(stream)
                assert set(stream) == brute_force_candidates(base)

    def test_limit_takes_lexicographic_head(self):
        first = list(enumerate_candidates(identity(5), limit=1))
        expected = unrank_candidate(
            CandidateWord(5, Permutation((1, 2, 3, 4))), identity(5)
        )
        assert first == [expected]

    def test_word_at_index_matches_lex_order(self):
        words = list(itertools.permutations(range(1, 5)))
        assert [word_at_index(5, i) for i in range(len(words))] == words

    def test_count_base_invariance(self):
        for n in (3, 4):
            counts = {
                len(list(enumerate_candidates(Permutation(img))))
                for img in itertools.permutations(range(1, n + 1))
            }
            assert counts == {candidate_count(n)}


def unfiltered_rows(kernel, monkeypatch, n, limit):
    """The grower's rows of degree n against the identity alone, on the
    given kernel's grower: every n-cycle, under the limit."""
    monkeypatch.setattr(_kernel, "_impl", kernel)
    home = np.arange(n)
    return grown_cycle_images(n, home[None], home, n, limit)


class TestArrays:
    """The int arrays: the oracle's universe, and the cycle images that
    the grower keeps against the identity alone, on both growers."""

    @pytest.mark.parametrize("n", range(8))
    def test_lex_permutations_is_the_lexicographic_head(self, n):
        rows = lex_permutations(n)
        assert rows.shape == (factorial(n), n)
        assert [tuple(row) for row in rows.tolist()] == list(itertools.permutations(range(n)))

    def test_lex_permutations_holds_one_universe(self):
        # Each degree is written into the result in place; concatenating
        # and stacking copies of the rows peaked at 3.9 times the result.
        tracemalloc.start()
        try:
            rows = lex_permutations(9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.shape == (factorial(9), 9)
        assert peak <= 1.5 * rows.nbytes

    @pytest.mark.parametrize("n", range(2, 8))
    def test_cycle_images_are_the_candidates_minus_one(self, n, compiled_kernel, monkeypatch):
        for kernel in (_girth_py, compiled_kernel):
            for limit in (None, 1, 5, factorial(n - 1)):
                images = unfiltered_rows(kernel, monkeypatch, n, limit) + 1
                stream = [q.image for q in enumerate_candidates(identity(n), limit)]
                assert [tuple(row) for row in images.tolist()] == stream

    @pytest.mark.parametrize("n", [128, 129, 256])
    def test_no_wrap_at_large_degree(self, n, compiled_kernel, monkeypatch):
        stream = [q.image for q in enumerate_candidates(identity(n), 7)]
        for kernel in (_girth_py, compiled_kernel):
            rows = unfiltered_rows(kernel, monkeypatch, n, 7)
            assert np.iinfo(rows.dtype).max >= n - 1
            assert [tuple(row) for row in (rows.astype(np.int64) + 1).tolist()] == stream

    @pytest.mark.parametrize("n", [128, 129, 32768])
    def test_first_row_at_large_degree(self, n, compiled_kernel, monkeypatch):
        # At degree 128 and 32768 the type holds n-1 but not n.
        for kernel in (_girth_py, compiled_kernel):
            for degree in (n, n + 1):
                rows = unfiltered_rows(kernel, monkeypatch, degree, 1)
                assert rows.dtype == np.min_scalar_type(-degree)
                assert rows.tolist() == [[*range(1, degree), 0]]


class TestGrownCycleImages:
    """The grown rows are the candidates of enumerate_candidates that the
    filters of engine._run_stage keep, in order and type."""

    @staticmethod
    def masked(d, avoid, left, length, limit):
        words = candidate_images(d, limit)
        words = words[(words[:, None, :] != avoid).all(axis=(1, 2))]
        return words[uniform_cycles(np.argsort(left)[words], length)]

    # TestGrownCycleImagesOnEachGrower runs this with a function-scoped
    # fixture, which holds no state between examples.
    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=st.data())
    def test_is_the_masked_list(self, data):
        d = data.draw(st.integers(2, 9), label="d")
        length = data.draw(st.sampled_from([t for t in range(1, d + 1) if d % t == 0]))
        row = st.lists(st.integers(0, d - 1), min_size=d, max_size=d)
        avoid = np.array(data.draw(st.lists(row, min_size=1, max_size=3), label="avoid"))
        left = np.array(data.draw(st.permutations(range(d)), label="left"))
        # (d-2-j)! rows follow each choice of word entry j.
        boundary = factorial(d - 2 - data.draw(st.integers(0, d - 2)))
        limit = data.draw(
            st.sampled_from(
                [None, 1, boundary - 1, boundary, boundary + 1, factorial(d - 1) + 1, 2**64]
            ),
            label="limit",
        )
        got = grown_cycle_images(d, avoid, left, length, limit)
        expected = self.masked(d, avoid, left, length, limit)
        assert got.dtype == expected.dtype
        assert got.tolist() == expected.tolist()

    @pytest.mark.parametrize("limit", [None, 1000])
    def test_keeps_rows_at_stage_four(self, limit):
        # (27, 4): stage 4 keeps the 9-cycles w of degree 9 with every
        # cycle of inv(left).w of 3 points, compatible with the others.
        left = (np.arange(9) + 4) % 9
        avoid = np.array([np.arange(9), (np.arange(9) + 2) % 9])
        got = grown_cycle_images(9, avoid, left, 3, limit)
        expected = self.masked(9, avoid, left, 3, limit)
        assert len(got) and got.tolist() == expected.tolist()

    @staticmethod
    def one_row_at(n, rank):
        # Only w = left passes cycles of 1 point, so one prefix grows at
        # each level while the limit, and the row's rank, pass 2^63.
        word = Permutation(word_at_index(n, rank))
        left = np.array(unrank_candidate(CandidateWord(n, word), identity(n)).image) - 1
        avoid = ((left + 1) % n)[None]
        for limit in (None, rank, rank + 1, 2**64, factorial(n - 1) - 1, factorial(n - 1)):
            got = grown_cycle_images(n, avoid, left, 1, limit)
            expected = [left.tolist()] if limit is None or rank < limit else []
            assert got.tolist() == expected
            assert got.dtype == candidate_images(n, 1).dtype

    @pytest.mark.parametrize("rank", [0, 2**63 + 5, factorial(26) - 1])
    def test_limits_past_int64(self, rank):
        self.one_row_at(27, rank)

    @pytest.mark.parametrize("rank", [0, 2**63 + 5, factorial(129) - 1],
                             ids=["first", "past-2^63", "last"])
    def test_two_byte_rows_past_int64(self, rank):
        # At degree 130 the rows are int16.
        self.one_row_at(130, rank)


@pytest.mark.usefixtures("backend")
class TestGrownCycleImagesOnEachGrower(TestGrownCycleImages):
    """TestGrownCycleImages on the pure grower and on the compiled one."""


def spelled_digits(limit, n):
    """limit's factorial-base digits for degree n, spelled from the high
    end as limit // (n-2-j)! in turn; None when no limit cuts the rows."""
    if limit is None or limit >= factorial(n - 1):
        return None
    digits = []
    for j in range(n - 1):
        digit, limit = divmod(limit, factorial(n - 2 - j))
        digits.append(digit)
    return digits


class TestFactorialDigits:
    """_factorial_digits spells the limit from the low end, in time
    linear in its digits, as the quotients from the high end did."""

    @pytest.mark.parametrize("n", range(2, 13))
    def test_is_the_quotient_formula(self, n):
        # Every limit below 8!, which is every limit that cuts the rows up
        # to degree 9; above it each a * t! - 1, a * t! and a * t! + 1 for
        # each digit place t and digit a, and 1,000 more at random.
        rng = np.random.default_rng(n)
        limits = set(range(min(factorial(n - 1), factorial(8)) + 2))
        limits |= {a * factorial(t) + e for t in range(n) for a in range(1, t + 2) for e in (-1, 0, 1)}
        limits |= {int(x) for x in rng.integers(0, factorial(n - 1) + 2, 1000)}
        for limit in (None, *sorted(limit for limit in limits if limit >= 0)):
            assert _factorial_digits(limit, n) == spelled_digits(limit, n), limit

    @pytest.mark.parametrize("n", [27, 130])
    def test_limits_past_int64(self, n):
        for limit in (2**63 - 1, 2**63, 2**63 + 5, 2**64, factorial(n - 1) - 1, factorial(n - 1)):
            assert _factorial_digits(limit, n) == spelled_digits(limit, n), limit

    def test_small_limit_at_large_degree(self):
        # From the high end this computed 10^5 factorials of up to 10^5.
        n = 100_000
        assert _factorial_digits(1, n) == [0] * (n - 3) + [1, 0]
        assert _factorial_digits(7, n)[-4:] == [1, 0, 1, 0]


class TestCayleyStats:
    def test_examples(self):
        s = cayley_stats(Factorization(m=9, r=3, b=1, k=3), 1)
        assert (s.degree_sym, s.order, s.node_degree, s.transition_bound) == (2, 2, 1, 3)
        s = cayley_stats(Factorization(m=8, r=4, b=1, k=2), 2)
        assert (s.degree_sym, s.order) == (3, 6)
        s = cayley_stats(Factorization(m=12, r=3, b=3, k=2), 1)
        assert (s.degree_sym, s.order) == (5, 120)

    def test_consistency(self):
        s = cayley_stats(Factorization(m=16, r=5, b=1, k=2), 3)
        assert s.order == factorial(s.degree_sym)
        assert s.node_degree == s.degree_sym - 1

    def test_stage_bounds(self):
        f = Factorization(m=9, r=3, b=1, k=3)
        with pytest.raises(ValueError):
            cayley_stats(f, 0)
        with pytest.raises(ValueError):
            cayley_stats(f, 2)

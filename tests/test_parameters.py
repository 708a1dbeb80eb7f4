"""Factorization m = b*k^(r-1) and the optimal partition sequence."""

import time
import warnings

import pytest

from btusearch.parameters import (
    AssumptionWarning,
    DegenerateFactorizationError,
    Factorization,
    closed_form_partitions,
    factorize,
    optimal_partitions,
    scale_partition,
)
from btusearch.perms import PartitionP2


def brute_force_min_b(m: int, r: int) -> tuple[int, int]:
    """Independent sweep: smallest b whose cofactor is an exact power."""
    for b in range(1, m + 1):
        if m % b:
            continue
        for k in range(1, m + 1):
            if b * k ** (r - 1) == m:
                return b, k
    raise AssertionError


def walk_b(m: int, r: int) -> tuple[int, int]:
    """The former factorize loop: b from 1 upward, the first whose
    cofactor m // b is an exact (r-1)-th power."""
    for b in range(1, m + 1):
        if m % b:
            continue
        lo, hi = 1, m // b
        while lo <= hi:
            mid = (lo + hi) // 2
            if mid ** (r - 1) == m // b:
                return b, mid
            lo, hi = (mid + 1, hi) if mid ** (r - 1) < m // b else (lo, mid - 1)
    raise AssertionError


@pytest.fixture(autouse=True)
def _silence_regime_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AssumptionWarning)
        yield


class TestFactorize:
    def test_examples(self):
        f = factorize(12, 3)
        assert (f.b, f.k, f.degenerate) == (3, 2, False)
        f = factorize(9, 3)
        assert (f.b, f.k, f.degenerate) == (1, 3, False)
        f = factorize(7, 3)
        assert (f.b, f.k, f.degenerate) == (7, 1, True)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            factorize(12, 1)
        with pytest.raises(ValueError):
            factorize(3, 3)

    def test_regime_warning(self):
        with pytest.warns(AssumptionWarning):
            warnings.simplefilter("always")
            factorize(5, 3)

    def test_exact_and_minimal_exhaustively(self):
        for r in range(2, 6):
            for m in range(r + 1, 257):
                f = factorize(m, r)
                assert f.b * f.k ** (r - 1) == m
                assert (f.b, f.k) == brute_force_min_b(m, r)

    def test_agrees_with_walking_b_upward(self):
        for r in range(2, 8):
            for m in range(r + 1, 3001):
                f = factorize(m, r)
                assert (f.b, f.k) == walk_b(m, r), (m, r)

    @pytest.mark.parametrize(
        "m,r,b,k",
        [(10**9 + 7, 3, 10**9 + 7, 1), (2 * 99991**2, 3, 2, 99991), (3**40, 5, 1, 3**10),
         (2**64, 2, 1, 2**64)],
    )
    def test_large_m_at_once(self, m, r, b, k):
        started = time.perf_counter()
        f = factorize(m, r)
        assert time.perf_counter() - started < 1
        assert (f.b, f.k) == (b, k)

    def test_no_float_root_confusion(self):
        # 5**3 = 125; a naive float cube root of 125 can land on 4.9999...
        f = factorize(125, 4)
        assert (f.b, f.k) == (1, 5)


class TestOptimalPartitions:
    def test_spot_values(self):
        betas = optimal_partitions(Factorization(m=9, r=3, b=1, k=3)).betas
        assert [b.parts for b in betas] == [(3, 3, 3), (9,)]
        betas = optimal_partitions(Factorization(m=8, r=4, b=1, k=2)).betas
        assert [b.parts for b in betas] == [(2, 2, 2, 2), (4, 4), (8,)]
        betas = optimal_partitions(Factorization(m=12, r=3, b=3, k=2)).betas
        assert [b.parts for b in betas] == [(6, 6), (12,)]

    def test_loop_equals_closed_form(self):
        for b in range(1, 5):
            for k in range(2, 5):
                for r in range(2, 6):
                    m = b * k ** (r - 1)
                    betas = optimal_partitions(
                        Factorization(m=m, r=r, b=b, k=k)
                    ).betas
                    assert betas == closed_form_partitions(b, k, r)
                    for i, beta in enumerate(betas, start=1):
                        assert beta.n == m
                        assert len(beta.parts) == k ** (r - 1 - i)
                        assert set(beta.parts) == {b * k**i}

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateFactorizationError):
            optimal_partitions(factorize(7, 3))


class TestScalePartition:
    def test_examples(self):
        assert scale_partition(PartitionP2((2,)), 2) == PartitionP2((2, 2))
        assert scale_partition(PartitionP2((4,)), 2) == PartitionP2((4, 4))

    def test_noop_at_one(self):
        beta = PartitionP2((5, 3, 3))
        assert scale_partition(beta, 1) == beta

    def test_total_multiplied(self):
        beta = PartitionP2((4, 2, 1))
        scaled = scale_partition(beta, 3)
        assert scaled.n == beta.n * 3
        assert scaled.parts == (4, 4, 4, 2, 2, 2, 1, 1, 1)

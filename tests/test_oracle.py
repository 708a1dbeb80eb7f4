"""Exhaustive enumeration, true maxima, census, engine comparison."""

import gc
import tracemalloc
import warnings
from math import factorial

import pytest

from btusearch.btu import adjacent_partitions, make_btu, to_biadjacency
from btusearch.oracle import (
    BudgetExceededError,
    enumerate_btus,
    max_girth,
    phi_census,
    verify_search,
)
from btusearch.parameters import AssumptionWarning
from btusearch.perms import PartitionP2


@pytest.fixture(autouse=True)
def _silence_regime_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AssumptionWarning)
        yield


class TestEnumerate:
    def test_3_3_fixed_stream(self):
        stream = list(enumerate_btus(3, 3, fix_first_identity=True))
        assert [[p.image for p in b.perms] for b in stream] == [
            [(1, 2, 3), (2, 3, 1), (3, 1, 2)],
            [(1, 2, 3), (3, 1, 2), (2, 3, 1)],
        ]
        for b in stream:
            assert (to_biadjacency(b) == 1).all()

    def test_4_2_fixed_is_derangements(self):
        stream = list(enumerate_btus(4, 2, fix_first_identity=True))
        assert len(stream) == 9

    def test_r_above_m_is_empty(self):
        assert list(enumerate_btus(3, 4, fix_first_identity=True)) == []

    def test_every_tuple_validates(self):
        for b in enumerate_btus(4, 2, fix_first_identity=True):
            assert make_btu(b.perms) == b

    def test_budget_refusal_with_estimate(self):
        with pytest.raises(BudgetExceededError) as err:
            list(enumerate_btus(9, 3, fix_first_identity=True))
        assert err.value.estimate > err.value.budget

    def test_single_cycle_count_matches_factorial(self):
        n_cycles = sum(
            1
            for b in enumerate_btus(4, 2, fix_first_identity=True)
            if adjacent_partitions(b)[0].parts == (4,)
        )
        assert n_cycles == factorial(3)


class TestMaxGirth:
    def test_4_2(self):
        report = max_girth(4, 2)
        assert report.max_girth == 8
        assert adjacent_partitions(report.witness)[0] == PartitionP2((4,))

    def test_3_3(self):
        report = max_girth(3, 3)
        assert report.max_girth == 4
        assert report.enumerated == 2

    def test_4_3(self):
        # every (4,3) BTU carries a 4-cycle: two weight-3 rows in 4
        # columns always share two columns
        report = max_girth(4, 3)
        assert report.max_girth == 4
        assert report.maximizer_count == report.enumerated

    def test_fixing_first_slot_does_not_change_max(self):
        for m, r in [(3, 3), (4, 2)]:
            assert (
                max_girth(m, r, fix_first_identity=True).max_girth
                == max_girth(m, r, fix_first_identity=False).max_girth
            )

    def test_witness_attains_max(self):
        from btusearch.btu import girth

        report = max_girth(5, 2)
        assert girth(report.witness).girth == report.max_girth

    def test_universe_freed_without_cyclic_gc(self):
        # The 7! universe (about 0.6 MB) must go with its last reference.
        # With automatic collection off, everything the call allocated is
        # in the youngest generation, and collecting just that generation
        # leaves the interpreter's free lists alone, so the difference
        # below is exactly what only the cyclic collector could free.
        gc.disable()
        tracemalloc.start()
        try:
            max_girth(7, 2)
            held, _ = tracemalloc.get_traced_memory()
            gc.collect(0)
            baseline, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        assert held - baseline < 10_000


class TestCensus:
    def test_4_2_signature_counts(self):
        census = phi_census(4, 2)
        assert census[(PartitionP2((4,)),)] == 6
        assert census[(PartitionP2((2, 2)),)] == 3
        assert sum(census.values()) == 9

    def test_4_3_optimal_signature_nonempty(self):
        census = phi_census(4, 3)
        assert census[(PartitionP2((2, 2)), PartitionP2((4,)))] > 0

    def test_signature_lengths(self):
        for sig in phi_census(4, 3):
            assert len(sig) == 2


class TestVerify:
    def test_4_3(self):
        report = verify_search(4, 3)
        assert report.equal is True
        assert report.engine_girth == report.oracle.max_girth == 4

    def test_weight_two_range(self):
        for m in range(3, 9):
            report = verify_search(m, 2)
            assert report.equal is True
            assert report.engine_girth == 2 * m

    def test_engine_inapplicable_is_reported_not_raised(self):
        report = verify_search(6, 3)
        assert report.engine_girth is None
        assert report.equal is None
        assert "inapplicable" in report.engine_note
        assert report.oracle.max_girth == 4

    def test_engine_never_beats_oracle(self):
        for m, r in [(4, 2), (5, 2), (4, 3)]:
            report = verify_search(m, r)
            assert report.engine_girth <= report.oracle.max_girth

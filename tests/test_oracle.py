"""Exhaustive enumeration, true maxima, census, engine comparison."""

import gc
import itertools
import tracemalloc
import warnings
from functools import lru_cache
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btusearch import _kernel, oracle
from btusearch.btu import BTU, adjacent_partitions, make_btu, to_biadjacency
from btusearch.cli import main
from btusearch.oracle import (
    BudgetExceededError,
    enumerate_btus,
    max_girth,
    phi_census,
    verify_search,
)
from btusearch.parameters import AssumptionWarning
from btusearch.perms import BTUError, PartitionP2, Permutation, union_cycle_partition
from btusearch.searchspace import lex_permutations


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

    @pytest.mark.parametrize(
        "m,r,reason,oracle_girth",
        [(9, 1, "row weight must be >= 2", None), (4, 4, "need m > r", 4)],
    )
    def test_factorize_refusal_is_reported_not_raised(self, m, r, reason, oracle_girth):
        report = verify_search(m, r)
        assert report.engine_girth is None and report.engine_btu is None
        assert report.equal is None
        assert report.engine_note == f"engine inapplicable: {reason}, got " + (
            f"r={r}" if r < 2 else f"m={m}, r={r}"
        )
        assert report.oracle.max_girth == oracle_girth

    def test_engine_never_beats_oracle(self):
        for m, r in [(4, 2), (5, 2), (4, 3)]:
            report = verify_search(m, r)
            assert report.engine_girth <= report.oracle.max_girth


class TestBudget:
    @pytest.mark.parametrize("fixed", [True, False])
    def test_13_1_refused_before_the_universe(self, fixed):
        # r = 1 needs no compatibility check, but 13! universe rows would
        # not fit in memory; the estimate counts them.  Checked first, so
        # that an estimate that forgets them fails here instead of
        # building the universe.
        assert oracle._estimate_checks(13, 1, fixed) > oracle.DEFAULT_BUDGET
        with pytest.raises(BudgetExceededError) as err:
            max_girth(13, 1, fix_first_identity=fixed)
        assert err.value.estimate >= factorial(13) > err.value.budget

    def test_13_1_refused_by_the_cli(self, capsys):
        assert oracle._estimate_checks(13, 1, False) > oracle.DEFAULT_BUDGET
        assert main(["oracle", "-m", "13", "-r", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "budget" in captured.err

    @pytest.mark.parametrize("m,r", [(6, 3), (5, 4), (8, 2), (9, 1)])
    def test_benchmark_and_test_sizes_admitted(self, m, r):
        assert oracle._estimate_checks(m, r, True) <= oracle.DEFAULT_BUDGET

    def test_r_above_m_is_empty_before_the_budget(self):
        assert list(enumerate_btus(13, 14, fix_first_identity=False)) == []


class TestBlocks:
    @pytest.mark.parametrize(
        "m,r,fixed",
        [(8, 2, True), (6, 3, True), (5, 4, True), (6, 2, False)],
        ids=["8-2-fixed", "6-3-fixed", "5-4-fixed", "6-2-free"],
    )
    def test_blocks_are_bounded_and_cover_the_stream(self, m, r, fixed):
        blocks = list(oracle._tuple_blocks(m, r, fixed))
        coded = list(oracle._tuple_blocks(m, r, fixed, coded=True))
        assert all(len(tuples) <= oracle.BLOCK for _, tuples, _ in blocks)
        assert all(len(tuples) == oracle.BLOCK for _, tuples, _ in blocks[:-1])
        got = [tuple(map(tuple, one)) for u, tuples, _ in blocks for one in (u[tuples] + 1).tolist()]
        assert got == [_images(b) for b in _ref_enumerate_btus(m, r, fixed)]
        # the codes taken at each join are the codes of the finished tuples
        assert len(coded) == len(blocks)
        for (_, tuples, uncoded), (u, same, codes) in zip(blocks, coded):
            assert uncoded.shape == (len(tuples), 0)
            assert (same == tuples).all()
            pairs = [_kernel.pair_codes(u, tuples[:, i : i + 2], m) for i in range(r - 1)]
            assert (codes == np.column_stack(pairs)).all()


@st.composite
def _compatible_rows(draw):
    """A row p of the degree-m universe, m = 7..10, and up to eight rows
    q that disagree everywhere with p (q = p . sigma, sigma a derangement),
    in the universe's dtype."""
    m = draw(st.integers(7, 10))
    p = draw(st.permutations(range(m)))
    sigmas = draw(
        st.lists(
            st.permutations(range(m)).filter(lambda s: all(x != i for i, x in enumerate(s))),
            min_size=1,
            max_size=8,
        )
    )
    dtype = lex_permutations(m, 1).dtype
    return np.array([p, *([p[x] for x in s] for s in sigmas)], dtype=dtype)


class TestJoinCodes:
    # Beyond CROSS_CHECK: at m = 10 a code reaches 10 * 11**9, past int32.
    @settings(max_examples=100, deadline=None)
    @given(rows=_compatible_rows(), fixed=st.booleans())
    def test_join_code_is_the_union_cycle_partition(self, rows, fixed):
        m = rows.shape[1]
        # Row 0 is the previous slot: the fixed first slot, or a free slot
        # chosen at the level before, whose K row admits every other row.
        pool = np.arange(1, len(rows)) if fixed else np.arange(len(rows))
        heads = np.empty((1, 0), dtype=np.intp) if fixed else np.zeros((1, 1), dtype=np.intp)
        compatible = None if fixed else oracle._disagree(rows, rows)
        joined, codes = oracle._join(
            rows, pool, compatible, heads, np.empty((1, 0), dtype=np.int64), fixed, True, 0, len(pool)
        )
        assert pool[joined[:, -1]].tolist() == list(range(1, len(rows)))
        left, *rights = (Permutation(tuple(row)) for row in (rows + 1).tolist())
        for right, code in zip(rights, codes[:, 0].tolist()):
            assert oracle._partition(code, m) == union_cycle_partition(left, right)


# The recursive enumeration the array code replaced, kept as the
# reference it is checked against; only the budget check is left out,
# since the grid below is chosen by the current budget.


def _ref_enumerate_btus(m, r, fix_first_identity):
    if m < 1 or r < 1:
        raise ValueError("need m >= 1 and r >= 1")
    if r > m:
        return
    universe = list(itertools.permutations(range(1, m + 1)))
    chosen = []
    if fix_first_identity:
        chosen.append(tuple(range(1, m + 1)))
    yield from _ref_extend(universe, chosen, m, r)


def _ref_extend(universe, chosen, m, r):
    if len(chosen) == r:
        yield BTU(m=m, r=r, perms=tuple(Permutation(img) for img in chosen))
        return
    for img in universe:
        ok = True
        for prev in chosen:
            for x, y in zip(prev, img):
                if x == y:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            chosen.append(img)
            yield from _ref_extend(universe, chosen, m, r)
            chosen.pop()


def _ref_max_girth(m, r, fix_first_identity=True):
    best = -1
    count = 0
    witness = None
    enumerated = 0
    for b in _ref_enumerate_btus(m, r, fix_first_identity):
        enumerated += 1
        g = _kernel.girth_of_images([p.image for p in b.perms], m)
        g = 0 if g is None else g
        if g > best:
            best = g
            count = 1
            witness = b
        elif g == best:
            count += 1
    if witness is None:
        raise BTUError(f"no ({m}, {r}) BTU exists")
    return best, count, enumerated, witness


def _ref_phi_census(m, r, fix_first_identity=True):
    census = {}
    for b in _ref_enumerate_btus(m, r, fix_first_identity):
        sig = adjacent_partitions(b)
        census[sig] = census.get(sig, 0) + 1
    return census


@lru_cache(maxsize=None)
def _reference_census(m, r, fixed):
    """`_ref_phi_census` as its (signature, count) items, in order."""
    return list(_ref_phi_census(m, r, fixed).items())


@lru_cache(maxsize=None)
def _reference_report(m, r, fixed):
    """(max, count, enumerated, witness images), or the error text, with
    None for the maximum of forests.  The reference takes exact
    single-graph girths, so it does not depend on the kernel it runs on."""
    try:
        best, count, enumerated, witness = _ref_max_girth(m, r, fixed)
    except BTUError as exc:
        return str(exc)
    return best or None, count, enumerated, _images(witness)


def _images(b):
    return tuple(p.image for p in b.perms)


def _report(m, r, fixed):
    try:
        rep = max_girth(m, r, fix_first_identity=fixed)
    except BTUError as exc:
        return str(exc)
    assert rep.first_slot_fixed is fixed
    return rep.max_girth, rep.maximizer_count, rep.enumerated, _images(rep.witness)


# Every (m, r, fixed) with m <= 6 and r <= 4 that the budget admits (r > m
# among them), plus (7, 1), (7, 2) and (8, 2).
CROSS_CHECK = [
    pytest.param(m, r, fixed, id=f"{m}-{r}-{'fixed' if fixed else 'free'}")
    for m, r in [*itertools.product(range(1, 7), range(1, 5)), (7, 1), (7, 2), (8, 2)]
    for fixed in (True, False)
    if r > m or oracle._estimate_checks(m, r, fixed) <= oracle.DEFAULT_BUDGET
]
# 190,800 graphs: about 9 s per pass on the pure kernel, so this case's
# girths are cross-checked on the compiled kernel only; its stream and
# census are checked below like every other case.
COMPILED_ONLY = {(6, 2, False)}


class TestMatchesRecursiveReference:
    @pytest.mark.parametrize("m,r,fixed", CROSS_CHECK)
    def test_stream(self, m, r, fixed):
        got = [_images(b) for b in enumerate_btus(m, r, fix_first_identity=fixed)]
        assert got == [_images(b) for b in _ref_enumerate_btus(m, r, fixed)]

    @pytest.mark.parametrize("m,r,fixed", CROSS_CHECK)
    def test_census(self, m, r, fixed):
        got = phi_census(m, r, fix_first_identity=fixed)
        # same counts, and signatures in the order the stream meets them
        assert list(got.items()) == list(_ref_phi_census(m, r, fixed).items())

    @pytest.mark.parametrize("m,r,fixed", CROSS_CHECK)
    def test_census_on_either_kernel(self, backend, m, r, fixed):
        # the pair codes come from the kernel: the same dict, in the same
        # order, whichever kernel codes them
        got = phi_census(m, r, fix_first_identity=fixed)
        assert list(got.items()) == _reference_census(m, r, fixed)

    @pytest.mark.parametrize("kernel", ["python", "c", "loose"], indirect=True)
    @pytest.mark.parametrize("m,r,fixed", CROSS_CHECK)
    def test_max_girth(self, backend, kernel, m, r, fixed):
        if (m, r, fixed) in COMPILED_ONLY and kernel.__name__ != "btusearch._girth_c":
            pytest.skip("kernel-bound case, checked on the compiled kernel")
        assert _report(m, r, fixed) == _reference_report(m, r, fixed)

"""The engine against reference_engine.py, the transcription of its
module docstring on Permutation objects.  Drawn sizes, modes, policies,
caps, worker counts and unit sizes give the same beam and trace at every
stage, or the same dead end, and search returns the same BTU."""

import warnings
from math import factorial

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import reference_engine
from btusearch import engine
from btusearch.engine import SearchConfig, StageDeadEndError, StageTooLargeError, search
from btusearch.parameters import AssumptionWarning, factorize
from btusearch.perms import Permutation

# Most graphs, over all stages, that one drawn run may attempt.
LIMIT = 10**4

with warnings.catch_warnings():
    warnings.simplefilter("ignore", AssumptionWarning)
    # The non-degenerate sizes m <= 64 of each r.
    SIZES = {r: [m for m in range(r + 1, 65) if not factorize(m, r).degenerate] for r in range(2, 6)}


@pytest.fixture(autouse=True)
def _silence_regime_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AssumptionWarning)
        yield


def engine_stages(m, r, config):
    """Every stage's beam, as lists of 1-based images, and its trace; or
    the stage of a dead end."""
    f = factorize(m, r)
    try:
        beam, trace = engine._stage2(f, config)
        beams, traces = [beam], [trace]
        for stage in range(3, r + 1):
            beam, trace = engine._run_stage(beam, stage, f, config)
            beams.append(beam)
            traces.append(trace)
    except StageDeadEndError as err:
        return "dead end", err.stage
    return [(beam.astype(int) + 1).tolist() for beam in beams], tuple(traces)


def reference_stages(m, r, mode, policy, cap):
    """engine_stages of the reference."""
    try:
        beams, traces = reference_engine.search(m, r, mode, policy, cap, LIMIT)
    except StageDeadEndError as err:
        return "dead end", err.stage
    return [[[list(p.image) for p in graph] for graph in beam] for beam in beams], traces


@pytest.mark.parametrize("mode", ["best", "exhaustive"])
@pytest.mark.parametrize("kernel", ["c"], indirect=True)
@settings(
    max_examples=100, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.filter_too_much],
)
@given(
    size=st.sampled_from([2, 3, 3, 4, 4, 5]).flatmap(
        lambda r: st.tuples(st.sampled_from(SIZES[r]), st.just(r))
    ),
    policy=st.sampled_from(["relaxed", "relaxed", "strict"]),
    cap=st.none() | st.integers(1, 40),
    workers=st.integers(1, 3),
    block=st.none() | st.integers(1, 64),
)
# (8,3) tops out below the oracle's girth 6; (4,3) falls back to level-2
# finals, and the capped (16,5) dead-ends there; (9,3) strict dead-ends
# at stage 2.  (9,3) shows a wrong Moore stop or pair order, with one pair
# to a unit a wrong word offset, and the capped (32,4) exhaustive run an
# exhaustive cutoff that loses ties.
@example(size=(8, 3), policy="relaxed", cap=None, workers=1, block=None)
@example(size=(4, 3), policy="relaxed", cap=None, workers=2, block=1)
@example(size=(16, 5), policy="relaxed", cap=7, workers=1, block=None)
@example(size=(9, 3), policy="strict", cap=None, workers=1, block=None)
@example(size=(9, 3), policy="relaxed", cap=None, workers=1, block=1)
@example(size=(32, 4), policy="relaxed", cap=3, workers=3, block=5)
def test_engine_is_the_reference(backend, mode, size, policy, cap, workers, block):
    m, r = size
    f = factorize(m, r)
    # Cheap runs only: at most 7! words listed at any stage.
    listed = [factorial(f.b * f.k ** (i - 2) - 1) for i in range(3, r + 1)]
    assume(min(max(listed, default=1), cap or LIMIT) <= factorial(7))
    config = SearchConfig(mode=mode, rotation_policy=policy, candidate_cap=cap)
    try:
        got = engine_stages(m, r, config)
    except StageTooLargeError:
        assume(False)
    if got[0] != "dead end":
        assume(sum(t.candidates_evaluated for t in got[1]) <= LIMIT)
    try:
        expected = reference_stages(m, r, mode, policy, cap)
    except reference_engine.OverLimit:
        assume(False)
    assert got == expected
    if r >= 3 and expected[0] != "dead end":
        # The last stage again, each member followed by a copy whose
        # replaced slot is its last slot: no scan reads the replaced slot,
        # so the copy's graphs are the member's and must add nothing.
        at = r - 3
        beam = [x for g in expected[0][-2] for x in (g, [*g[:at], g[-1], *g[at + 1 :]])]
        twice = engine._run_stage(np.array(beam) - 1, r, f, config)
        beam = [tuple(map(Permutation, map(tuple, g))) for g in beam]
        graphs, trace = reference_engine.stage(beam, r, f.b, f.k, mode, policy, cap, 2 * LIMIT)
        assert (twice[0].astype(int) + 1).tolist() == [[list(p.image) for p in g] for g in graphs]
        assert twice[1] == trace

    config = SearchConfig(mode=mode, rotation_policy=policy, worker_count=workers, candidate_cap=cap)
    with pytest.MonkeyPatch.context() as patch:
        if block is not None:
            patch.setattr(engine, "BLOCK", block)
        assert engine_stages(m, r, config) == expected
        if expected[0] == "dead end":
            with pytest.raises(StageDeadEndError) as err:
                search(m, r, config)
            assert err.value.stage == expected[1]
        else:
            result = search(m, r, config)
            assert [list(p.image) for p in result.btu.perms] == expected[0][-1][0]
            assert result.traces == expected[1]

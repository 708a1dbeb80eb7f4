"""Acceptance suite: one test per criterion, exact tolerances.

Run `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion.  Expected values are either closed forms or values computed
by the independent oracles coded inline here (brute-force filters,
alternating-cycle traversal, exhaustive sweeps).
"""

import itertools
import json
import warnings
from math import factorial, gcd

import pytest
from helpers import matrix_cells

from btusearch.btu import decompose_matrix, girth, make_btu, to_biadjacency
from btusearch.engine import SearchConfig, admissible_rotations, enumerate_Z, search
from btusearch.io_formats import (
    alist_to_matrix,
    cells_to_alist,
    cells_to_text,
    search_result_to_dict,
    text_to_matrix,
    to_json,
)
from btusearch.oracle import phi_census, verify_search
from btusearch.parameters import (
    AssumptionWarning,
    Factorization,
    closed_form_partitions,
    factorize,
    optimal_partitions,
)
from btusearch.perms import (
    PartitionP2,
    Permutation,
    circular_rotation,
    identity,
    is_compatible,
    scale_permutation,
    union_cycle_partition,
)
from btusearch.searchspace import (
    CandidateWord,
    enumerate_candidates,
    rank_candidate,
    unrank_candidate,
)

warnings.simplefilter("ignore", AssumptionWarning)


def traversal_parts(p, q):
    """Walk alternating cycles of the two matchings directly."""
    qinv = {q(i): i for i in range(1, q.n + 1)}
    unseen = set(range(1, p.n + 1))
    parts = []
    while unseen:
        start = min(unseen)
        row, steps = start, 0
        while True:
            unseen.discard(row)
            row = qinv[p(row)]
            steps += 1
            if row == start:
                break
        parts.append(steps)
    return tuple(sorted(parts, reverse=True))


def test_c01_candidate_count_law():
    for n in (3, 4, 5, 6):
        for base in (identity(n), circular_rotation(n, 1)):
            stream = [q.image for q in enumerate_candidates(base)]
            assert len(stream) == factorial(n - 1)
            assert len(set(stream)) == len(stream)
            brute = set()
            for img in itertools.permutations(range(1, n + 1)):
                q = Permutation(img)
                if is_compatible(base, q) and traversal_parts(base, q) == (n,):
                    brute.add(img)
            assert set(stream) == brute
            for img in stream:
                q = Permutation(img)
                assert is_compatible(base, q)
                assert union_cycle_partition(base, q).parts == (n,)


def test_c02_bijection_round_trip():
    for n in range(2, 7):
        for base in (identity(n), circular_rotation(n, 1)):
            for w in itertools.permutations(range(1, n)):
                word = CandidateWord(n, Permutation(w))
                assert rank_candidate(unrank_candidate(word, base), base) == word


def test_c03_rotation_partition_law():
    for n in range(2, 13):
        for j in range(1, n):
            g = gcd(j, n)
            expected = tuple([n // g] * g)
            rot = circular_rotation(n, j)
            assert union_cycle_partition(identity(n), rot).parts == expected
            assert traversal_parts(identity(n), rot) == expected


def test_c04_scaling_golden_case():
    scaled = scale_permutation(Permutation((3, 4, 1, 2)), 2)
    assert scaled.image == (3, 4, 1, 2, 7, 8, 5, 6)
    expected_matrix = [
        [0, 0, 1, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 0],
    ]
    mat = to_biadjacency(make_btu([scaled]))
    assert mat.tolist() == expected_matrix


def test_c05_optimal_partitions():
    for b in range(1, 5):
        for k in range(2, 5):
            for r in range(2, 6):
                f = Factorization(m=b * k ** (r - 1), r=r, b=b, k=k)
                assert optimal_partitions(f).betas == closed_form_partitions(b, k, r)
    spot = optimal_partitions(Factorization(m=9, r=3, b=1, k=3)).betas
    assert [beta.parts for beta in spot] == [(3, 3, 3), (9,)]
    spot = optimal_partitions(Factorization(m=8, r=4, b=1, k=2)).betas
    assert [beta.parts for beta in spot] == [(2, 2, 2, 2), (4, 4), (8,)]


def test_c06_oracle_equivalence():
    # (4,3): the exhaustive oracle gives 4 (two weight-3 rows in four
    # columns always share two columns, so a 4-cycle is unavoidable)
    for m, r, expected_girth in [(4, 2, 8), (5, 2, 10), (6, 2, 12), (8, 2, 16), (4, 3, 4)]:
        report = verify_search(m, r)
        assert report.equal is True
        assert report.engine_girth == report.oracle.max_girth == expected_girth


def test_c07_family_census_consistency():
    from helpers import as_rotation

    f = factorize(9, 3)
    assert (f.b, f.k) == (1, 3)
    rotations = admissible_rotations(9, 3)
    result = search(9, 3)
    final = result.traces[-1]
    assert final.candidates_evaluated == factorial(f.k - 1) * len(rotations)

    engine_space = set()
    for q in enumerate_candidates(identity(f.b * f.k)):
        slot1 = scale_permutation(q, f.k)
        for j in rotations:
            engine_space.add(
                (slot1.image, identity(9).image, circular_rotation(9, j).image)
            )
    z_restricted = set()
    for member in enumerate_Z(9, 3):
        if as_rotation(member.perms[2]) in rotations:
            z_restricted.add(tuple(p.image for p in member.perms))
    assert z_restricted == engine_space

    slot1_choices = list(enumerate_candidates(identity(factorize(4, 3).b * factorize(4, 3).k)))
    assert len(slot1_choices) == factorial(factorize(4, 3).k - 1) == 1


def test_c08_derangement_census():
    census = phi_census(4, 2)
    assert census[(PartitionP2((4,)),)] == 6
    assert census[(PartitionP2((2, 2)),)] == 3
    assert sum(census.values()) == 9


@pytest.mark.parametrize("m,r", [(4, 3), (8, 3), (9, 3)])
def test_c09_format_round_trips(m, r):
    result = search(m, r)
    mat = to_biadjacency(result.btu)
    matrix_text = cells_to_text(*matrix_cells(mat))
    alist_text = cells_to_alist(*matrix_cells(mat))

    via_alist = cells_to_text(*matrix_cells(alist_to_matrix(alist_text)))
    assert via_alist == matrix_text

    recomposed = to_biadjacency(decompose_matrix(text_to_matrix(matrix_text)))
    assert cells_to_text(*matrix_cells(recomposed)) == matrix_text

    g = result.girth
    assert girth(decompose_matrix(alist_to_matrix(alist_text))).girth == g
    assert girth(decompose_matrix(text_to_matrix(matrix_text))).girth == g


def test_c10_determinism_under_parallelism():
    lone = search(9, 3, SearchConfig(worker_count=1))
    four = search(9, 3, SearchConfig(worker_count=4))
    json_lone = to_json(search_result_to_dict(lone))
    json_four = to_json(search_result_to_dict(four))
    assert json_lone == json_four
    json.loads(json_lone)  # stays valid JSON

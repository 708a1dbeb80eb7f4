"""BTU validation, matrix views, girth, rebasing, family membership."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from strategies import regular_matrices

from btusearch.btu import (
    _square_cells,
    adjacent_partitions,
    canonicalize_order,
    cell_degree,
    decompose,
    decompose_matrix,
    girth,
    in_Z,
    in_phi,
    make_btu,
    rebase,
    to_biadjacency,
    to_cells,
)
from btusearch.io_formats import cells_to_text
from btusearch.parameters import Factorization
from btusearch.perms import (
    CompatibilityError,
    PartitionP2,
    Permutation,
    circular_rotation,
    identity,
    is_compatible,
)

FIG_SCALED_MATRIX = np.array(
    [
        [0, 0, 1, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 0],
    ],
    dtype=np.int8,
)


def square_cell_degree(mat):
    """cell_degree of the cells decompose_matrix reads of a matrix."""
    return cell_degree(*_square_cells(mat))


def square_cell_text(mat):
    """The matrix text written from the cells decompose_matrix reads of
    a matrix."""
    m, cells = _square_cells(mat)
    return cells_to_text((m, m), cells)


def random_btu(m, r, seed):
    """Rejection-sample an (m, r) BTU with the first slot fixed."""
    rng = random.Random(seed)
    base = list(range(1, m + 1))
    while True:
        perms = [identity(m)]
        for _ in range(r - 1):
            for _ in range(200):
                img = base[:]
                rng.shuffle(img)
                p = Permutation(tuple(img))
                if all(is_compatible(p, q) for q in perms):
                    perms.append(p)
                    break
            else:
                break
        if len(perms) == r:
            return make_btu(perms)


class TestMakeBtu:
    def test_all_ones_triple(self):
        b = make_btu([identity(3), Permutation((2, 3, 1)), Permutation((3, 1, 2))])
        assert (b.m, b.r) == (3, 3)
        assert to_biadjacency(b).sum() == 9

    def test_conflict_named(self):
        with pytest.raises(CompatibilityError) as err:
            make_btu([identity(3), Permutation((2, 1, 3))])
        assert (err.value.slot_a, err.value.slot_b, err.value.position) == (1, 2, 3)

    def test_valid_4_3(self):
        b = make_btu(
            [identity(4), Permutation((2, 1, 4, 3)), Permutation((3, 4, 2, 1))]
        )
        assert b.r == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            make_btu([])


class TestBiadjacency:
    def test_two_by_two(self):
        b = make_btu([identity(2), Permutation((2, 1))])
        assert (to_biadjacency(b) == 1).all()

    def test_figure_matrix(self):
        b = make_btu([Permutation((3, 4, 1, 2, 7, 8, 5, 6))])
        assert (to_biadjacency(b) == FIG_SCALED_MATRIX).all()

    def test_row_col_sums(self):
        b = random_btu(6, 3, seed=1)
        mat = to_biadjacency(b)
        assert (mat.sum(axis=0) == 3).all()
        assert (mat.sum(axis=1) == 3).all()


def ref_augment(adj, col_owner, root, visited):
    """_augment as it was before the plain loops and the stamped visited
    array: the reference its matchings are checked against."""
    frames = []
    path = []
    row = root
    while True:
        free = next((j for j in adj[row] if col_owner[j] == -1), None)
        if free is not None:
            col_owner[free] = row
            for r, j in path:
                col_owner[j] = r
            return True
        frames.append((row, iter(adj[row])))
        while frames:
            row, cols = frames[-1]
            j = next((j for j in cols if not visited[j]), None)
            if j is not None:
                visited[j] = True
                path.append((row, j))
                row = col_owner[j]
                break
            frames.pop()
            if path:
                path.pop()
        else:
            return False


def ref_extract_matching(adj, m):
    """_extract_matching as it was, with a fresh visited list per root."""
    col_owner = [-1] * m
    for i in range(m):
        taken = False
        for j in adj[i]:
            if col_owner[j] == -1:
                col_owner[j] = i
                taken = True
                break
        if not taken and not ref_augment(adj, col_owner, i, [False] * m):
            raise ValueError("matrix is not regular: no perfect matching")
    row_to_col = [-1] * m
    for j, i in enumerate(col_owner):
        row_to_col[i] = j
    return row_to_col


def ref_decompose_matrix(mat):
    """decompose_matrix as it was before the row lists came from one cell
    scan (one flatnonzero per row) and before the matching loops were
    rewritten."""
    r = square_cell_degree(mat)
    m = mat.shape[0]
    remaining = [np.flatnonzero(row).tolist() for row in mat]
    perms = []
    for _ in range(r):
        row_to_col = ref_extract_matching(remaining, m)
        perms.append(Permutation(tuple(j + 1 for j in row_to_col)))
        for i, j in enumerate(row_to_col):
            remaining[i].remove(j)
    return make_btu(perms)


class TestDecompose:
    def test_all_ones(self):
        b = decompose_matrix(np.ones((3, 3), dtype=int))
        assert [p.image for p in b.perms] == [(1, 2, 3), (2, 3, 1), (3, 1, 2)]

    def test_identity_matrix(self):
        b = decompose_matrix(np.eye(4, dtype=int))
        assert b.perms == (identity(4),)

    def test_irregular_rejected(self):
        mat = np.array([[1, 1], [1, 0]])
        with pytest.raises(ValueError):
            decompose_matrix(mat)

    def test_round_trip(self):
        for seed in range(5):
            b = random_btu(6, 3, seed=seed)
            mat = to_biadjacency(b)
            again = decompose_matrix(mat)
            assert (to_biadjacency(again) == mat).all()

    def test_m2000_circulant_round_trip(self):
        # Augmenting paths here run deeper than the default recursion limit.
        m = 2000
        b = make_btu([identity(m), circular_rotation(m, 1), circular_rotation(m, 3)])
        mat = to_biadjacency(b)
        again = decompose_matrix(mat)
        assert again.m == m and again.r == 3
        assert (to_biadjacency(again) == mat).all()

    # TestDecomposeOnEachMatcher runs this with a function-scoped fixture,
    # which holds no state between examples.
    @settings(
        max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(mat=regular_matrices())
    def test_same_slots_as_the_row_list_construction(self, mat):
        assert decompose_matrix(mat) == ref_decompose_matrix(mat)

    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_same_slots_at_low_degree(self, r, seed):
        # The last slot is read off the 1-regular residual, at r = 1 the
        # whole matrix.
        rows = np.random.default_rng(seed).permutation(40)
        mat = to_biadjacency(random_btu(40, r, seed))[rows]
        assert decompose_matrix(mat) == ref_decompose_matrix(mat)

    @pytest.mark.parametrize("kind", ["m2048-random", "m2000-circulant"])
    def test_same_slots_as_the_reference_at_full_size(self, kind):
        # The random matrix sends a few hundred rows down augmenting
        # paths; the circulant's paths are among the longest.
        if kind == "m2048-random":
            b = random_btu(2048, 3, seed=7)
        else:
            m = 2000
            b = make_btu([identity(m), circular_rotation(m, 1), circular_rotation(m, 3)])
        mat = to_biadjacency(b)
        assert decompose_matrix(mat) == ref_decompose_matrix(mat)

    @pytest.mark.parametrize(
        "m,cells,error,text",
        [
            # A cell listed twice: the slots that both take it are named,
            # with its row.
            (4, [0, 0, 2, 5, 5, 7, 10, 10, 11, 12, 13, 15], CompatibilityError,
             "permutations 1 and 2 agree at position 2"),
            (5, [0, 3, 4, 5, 6, 9, 10, 11, 13, 17, 17, 19, 21, 22, 23], CompatibilityError,
             "permutations 1 and 3 agree at position 4"),
            (3, [1, 2, 2, 3, 4, 4, 6, 6, 8], CompatibilityError,
             "permutations 2 and 3 agree at position 1"),
            (3, [0, 1, 4], ValueError, "matrix is not regular: row/column sums differ"),
            (0, [], ValueError, "a BTU needs at least one permutation"),
            (3, [], ValueError, "a BTU needs at least one permutation"),  # r = 0
        ],
        ids=["dup-1-2", "dup-1-3", "dup-2-3", "irregular", "empty", "r0"],
    )
    def test_refusals_as_before(self, m, cells, error, text):
        # Exception types and texts recorded from decompose before the
        # matcher was compiled.
        with pytest.raises(error) as err:
            decompose(m, np.array(cells, dtype=np.int64))
        assert type(err.value) is error
        assert str(err.value) == text

    @pytest.mark.parametrize(
        "m,cells,text",
        [
            # The swap matrix listed backwards once read as the identity.
            (2, [2, 1], "cell 1 comes after 2"),
            (3, [0, 4, 8, 1, 5, 6], "cell 1 comes after 8"),
            # Each row's run in order, the rows not.
            (3, [3, 4, 0, 1, 6, 8], "cell 0 comes after 4"),
            # A repeat next to a descent: the order is checked first.
            (2, [0, 0, 3, 2], "cell 2 comes after 3"),
        ],
        ids=["swap-backwards", "rows-interleaved", "rows-swapped", "repeat-and-descent"],
    )
    def test_cells_out_of_order_refused(self, m, cells, text):
        with pytest.raises(ValueError, match=f"^cells must be in row-major order: {text}$"):
            decompose(m, np.array(cells, dtype=np.int64))

    def test_repeated_cells_still_incompatible(self):
        # Cells in order but listed twice keep the slot-pair message.
        with pytest.raises(CompatibilityError, match="^permutations 1 and 2 agree at position 1$"):
            decompose(2, np.array([0, 0, 3, 3], dtype=np.int64))


@pytest.mark.usefixtures("backend")
class TestDecomposeOnEachMatcher(TestDecompose):
    """TestDecompose on the pure slot matcher and on the compiled one."""


class TestRegularDegree:
    """`cell_degree` accepts exactly the cells `decompose` can split, and
    refuses the rest with the same message; the dense reading of a
    matrix refuses any entry but 0 and 1."""

    @settings(max_examples=300, deadline=None)
    @given(
        entries=st.integers(0, 5).flatmap(
            lambda n: st.lists(st.integers(0, 1), min_size=n * n, max_size=n * n)
        ),
    )
    def test_agrees_with_decompose(self, entries):
        m = int(round(len(entries) ** 0.5))
        cells = np.flatnonzero(entries)
        try:
            b = decompose(m, cells)
        except ValueError as exc:
            with pytest.raises(ValueError) as err:
                cell_degree(m, cells)
            assert str(err.value) == str(exc)
        else:
            assert cell_degree(m, cells) == b.r
            assert to_cells(b).tolist() == cells.tolist()

    def test_zero_matrix_refused(self):
        with pytest.raises(ValueError, match="at least one permutation"):
            cell_degree(3, np.flatnonzero(np.zeros((3, 3), dtype=np.int8)))

    @pytest.mark.parametrize("shape", [(3, 2), (2, 3), (4,), (2, 2, 2)])
    def test_non_square_matrix_refused(self, shape):
        with pytest.raises(ValueError, match=r"^matrix must be square, got shape"):
            decompose_matrix(np.ones(shape, dtype=np.int8))

    @pytest.mark.parametrize(
        "dtype, value",
        [(np.float64, v) for v in (0.5, np.nan, np.inf, -1, 2)]
        + [(np.int64, v) for v in (-1, 2)],
    )
    @pytest.mark.parametrize("cell", [(0, 0), (0, 1)], ids=["on-a-one", "on-a-zero"])
    # The ids keep the names of the dense readers these routes replaced.
    @pytest.mark.parametrize(
        "read",
        [square_cell_degree, decompose_matrix, square_cell_text],
        ids=["regular_degree", "decompose_matrix", "matrix_to_text"],
    )
    def test_non_binary_entries_refused(self, read, cell, dtype, value):
        mat = np.eye(3, dtype=dtype)
        mat[cell] = value
        with pytest.raises(ValueError, match="^matrix entries must be 0 or 1$"):
            read(mat)

    @pytest.mark.parametrize("dtype", [bool, np.float64, np.int64])
    def test_other_dtypes_of_0_and_1_accepted(self, dtype):
        mat = to_biadjacency(random_btu(6, 3, seed=2))
        cast = mat.astype(dtype)
        assert square_cell_degree(cast) == 3
        assert decompose_matrix(cast) == decompose_matrix(mat)
        assert square_cell_text(cast) == square_cell_text(mat)


class TestGirth:
    def test_single_cycle_pairs(self):
        for m in range(3, 9):
            b = make_btu([identity(m), circular_rotation(m, 1)])
            assert girth(b).girth == 2 * m

    def test_k33(self):
        b = make_btu([identity(3), Permutation((2, 3, 1)), Permutation((3, 1, 2))])
        assert girth(b).girth == 4

    def test_4_3_example(self):
        # exhaustive oracle value: every (4,3) BTU holds a 4-cycle
        b = make_btu(
            [Permutation((2, 1, 4, 3)), identity(4), Permutation((3, 4, 2, 1))]
        )
        assert girth(b).girth == 4

    def test_matching_has_no_cycle(self):
        b = make_btu([Permutation((2, 3, 1))])
        assert girth(b).girth is None

    def test_r2_equals_twice_smallest_part(self):
        for m in range(2, 9):
            for img in itertools.permutations(range(1, m + 1)):
                p = Permutation(img)
                if not is_compatible(identity(m), p):
                    continue
                b = make_btu([identity(m), p])
                parts = adjacent_partitions(b)[0].parts
                assert girth(b).girth == 2 * min(parts)

    def test_even_and_at_least_four(self):
        for seed in range(6):
            g = girth(random_btu(6, 3, seed=seed)).girth
            assert g >= 4 and g % 2 == 0

    def test_witness_is_a_shortest_cycle(self):
        for seed in range(4):
            b = random_btu(6, 3, seed=seed)
            report = girth(b, witness=True)
            cycle = report.witness_cycle
            assert len(cycle) == report.girth
            mat = to_biadjacency(b)
            for a, c in zip(cycle, cycle[1:] + cycle[:1]):
                # consecutive witness vertices alternate sides and share a cell
                assert a[0] != c[0]
                row, col = (a, c) if a[0] == "l" else (c, a)
                assert mat[int(row[1:]) - 1, int(col[1:]) - 1] == 1
            assert len(set(cycle)) == len(cycle)


class TestRebase:
    def test_noop_on_identity_slot(self):
        b = make_btu([identity(4), circular_rotation(4, 1)])
        assert rebase(b, 1).perms == b.perms

    def test_girth_preserved(self):
        b = make_btu([circular_rotation(4, 1), identity(4)])
        moved = rebase(b, 1)
        assert moved.perms[0] == identity(4)
        assert girth(moved).girth == girth(b).girth

    def test_partitions_preserved_on_random(self):
        for seed in range(5):
            b = random_btu(5, 3, seed=seed)
            for slot in range(1, 4):
                moved = rebase(b, slot)
                assert moved.perms[slot - 1] == identity(5)
                assert adjacent_partitions(moved) == adjacent_partitions(b)
                assert girth(moved).girth == girth(b).girth

    def test_bad_slot(self):
        b = make_btu([identity(4), circular_rotation(4, 1)])
        with pytest.raises(ValueError):
            rebase(b, 3)

    def test_girth_invariant_under_relabeling(self):
        rng = random.Random(7)
        for seed in range(4):
            b = random_btu(6, 3, seed=seed)
            mat = to_biadjacency(b)
            rows = list(range(6))
            cols = list(range(6))
            rng.shuffle(rows)
            rng.shuffle(cols)
            shuffled = mat[np.ix_(rows, cols)]
            assert girth(decompose_matrix(shuffled)).girth == girth(b).girth


class TestAdjacentPartitions:
    def test_examples(self):
        b = make_btu([identity(4), circular_rotation(4, 1)])
        assert adjacent_partitions(b) == (PartitionP2((4,)),)
        b = make_btu(
            [Permutation((2, 1, 4, 3)), identity(4), Permutation((3, 4, 2, 1))]
        )
        assert adjacent_partitions(b) == (PartitionP2((2, 2)), PartitionP2((4,)))
        b = make_btu([identity(6), circular_rotation(6, 2)])
        assert adjacent_partitions(b) == (PartitionP2((3, 3)),)


class TestFamilies:
    def test_in_phi_examples(self):
        b = make_btu(
            [Permutation((3, 4, 1, 2)), identity(4), Permutation((2, 3, 4, 1))]
        )
        assert in_phi(b, [PartitionP2((2, 2)), PartitionP2((4,))])
        b = make_btu([identity(4), circular_rotation(4, 2)])
        assert not in_phi(b, [PartitionP2((4,))])
        b = make_btu([identity(5), circular_rotation(5, 2)])
        assert in_phi(b, adjacent_partitions(b))

    def test_in_Z_examples(self):
        f = Factorization(m=4, r=3, b=1, k=2)
        member = make_btu(
            [Permutation((2, 1, 4, 3)), identity(4), Permutation((3, 4, 2, 1))]
        )
        assert in_Z(member, f)
        unscaled_slot = make_btu(
            [Permutation((3, 4, 1, 2)), identity(4), Permutation((2, 3, 4, 1))]
        )
        assert not in_Z(unscaled_slot, f)
        moved_identity = make_btu(
            [identity(4), Permutation((2, 1, 4, 3)), Permutation((3, 4, 2, 1))]
        )
        assert not in_Z(moved_identity, f)

    def test_in_Z_implies_in_phi_with_optimal(self):
        from btusearch.parameters import optimal_partitions

        f = Factorization(m=4, r=3, b=1, k=2)
        member = make_btu(
            [Permutation((2, 1, 4, 3)), identity(4), Permutation((3, 4, 2, 1))]
        )
        assert in_Z(member, f)
        assert in_phi(member, optimal_partitions(f).betas)

    def test_canonicalize_order(self):
        b = make_btu([circular_rotation(4, 1), identity(4)])
        assert [p.image[0] for p in canonicalize_order(b).perms] == [1, 4]

"""Permutation algebra: construction, composition, compatibility,
union-cycle partitions, rotations, scaling."""

from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from btusearch.perms import (
    CompatibilityError,
    PartitionP2,
    Permutation,
    circular_rotation,
    compose,
    identity,
    invert,
    is_compatible,
    scale_permutation,
    union_cycle_partition,
    unscale_permutation,
)


def alternating_parts(p: Permutation, q: Permutation) -> tuple[int, ...]:
    """Independent oracle: walk the alternating cycles of the two
    matchings directly (row --p--> column --q--> row), no group algebra."""
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


perm_strategy = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
).map(lambda img: Permutation(tuple(img)))


def perm_pair(min_n=1, max_n=8):
    return st.integers(min_value=min_n, max_value=max_n).flatmap(
        lambda n: st.tuples(
            st.permutations(list(range(1, n + 1))),
            st.permutations(list(range(1, n + 1))),
        )
    ).map(lambda pair: (Permutation(tuple(pair[0])), Permutation(tuple(pair[1]))))


class TestConstruction:
    def test_identity_values(self):
        assert identity(1).image == (1,)
        assert identity(4).image == (1, 2, 3, 4)

    def test_identity_rejects_zero(self):
        with pytest.raises(ValueError):
            identity(0)

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))
        with pytest.raises(ValueError):
            Permutation((0, 1))
        with pytest.raises(ValueError):
            Permutation(())

    @given(
        image=st.integers(1, 9).flatmap(
            lambda n: st.one_of(
                st.lists(st.integers(-2, n + 2), min_size=n, max_size=n),
                st.permutations(range(1, n + 1)).flatmap(
                    lambda p: st.tuples(st.integers(0, n - 1), st.sampled_from([0, -1, 1, n, n + 1]))
                    .map(lambda edit: p[: edit[0]] + [edit[1]] + p[edit[0] + 1 :])
                ),
                st.permutations(range(1, n + 1)),
            )
        )
    )
    def test_accepts_what_the_sorted_check_accepts(self, image):
        # The check without a sort accepts exactly the images whose sorted
        # values are 1..n, and refuses the rest with the same text.
        n = len(image)
        if sorted(image) == list(range(1, n + 1)):
            assert Permutation(tuple(image)).image == tuple(image)
        else:
            with pytest.raises(ValueError) as err:
                Permutation(tuple(image))
            assert str(err.value) == f"not a permutation of 1..{n}: {tuple(image)}"

    def test_unchecked_equals_checked(self):
        assert Permutation.unchecked((3, 1, 2)) == Permutation((3, 1, 2))
        assert hash(Permutation.unchecked((3, 1, 2))) == hash(Permutation((3, 1, 2)))

    def test_text_round_trip(self):
        p = Permutation((3, 4, 1, 2))
        assert p.to_text() == "3 4 1 2"
        assert Permutation.from_text("3 4 1 2") == p


class TestComposeInvert:
    def test_identity_law(self):
        p = Permutation((2, 3, 1))
        assert compose(identity(3), p) == p
        assert compose(p, identity(3)) == p

    def test_inverse_law(self):
        p = Permutation((2, 3, 1))
        assert compose(p, invert(p)) == identity(3)

    def test_involution(self):
        swap = Permutation((2, 1))
        assert compose(swap, swap) == identity(2)

    def test_invert_examples(self):
        assert invert(identity(5)) == identity(5)
        assert invert(Permutation((2, 3, 1))) == Permutation((3, 1, 2))

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            compose(identity(3), identity(4))

    @given(perm_strategy)
    def test_invert_is_involutive(self, p):
        assert invert(invert(p)) == p

    @given(perm_pair())
    def test_compose_with_inverse_cancels(self, pair):
        p, q = pair
        assert compose(compose(p, q), invert(q)) == p


class TestCompatibility:
    def test_examples(self):
        assert is_compatible(identity(3), Permutation((2, 3, 1)))
        assert not is_compatible(identity(3), Permutation((2, 1, 3)))

    @given(perm_strategy)
    def test_self_incompatible(self, p):
        assert not is_compatible(p, p)

    @given(perm_pair())
    def test_symmetric(self, pair):
        p, q = pair
        assert is_compatible(p, q) == is_compatible(q, p)


class TestUnionCyclePartition:
    def test_rotation_single_cycle(self):
        assert union_cycle_partition(
            identity(4), circular_rotation(4, 1)
        ) == PartitionP2((4,))

    def test_rotation_divisor_case(self):
        assert union_cycle_partition(
            identity(6), circular_rotation(6, 2)
        ) == PartitionP2((3, 3))

    def test_two_swaps(self):
        assert union_cycle_partition(
            identity(4), Permutation((2, 1, 4, 3))
        ) == PartitionP2((2, 2))

    def test_incompatible_rejected(self):
        with pytest.raises(CompatibilityError):
            union_cycle_partition(identity(3), Permutation((2, 1, 3)))

    @given(perm_pair(min_n=2))
    def test_symmetric_and_matches_traversal(self, pair):
        p, q = pair
        if not is_compatible(p, q):
            return
        parts = union_cycle_partition(p, q)
        assert parts == union_cycle_partition(q, p)
        assert parts.parts == alternating_parts(p, q)
        assert parts.n == p.n
        assert min(parts.parts) >= 2


class TestCircularRotation:
    def test_move_one_row(self):
        assert circular_rotation(4, 1).image == (4, 1, 2, 3)

    def test_matches_figure_matrix(self):
        # matrix with first row "0 0 1 0": row i has its 1 in column image(i)
        p = circular_rotation(4, 2)
        assert p.image == (3, 4, 1, 2)

    def test_bounds(self):
        with pytest.raises(ValueError):
            circular_rotation(4, 0)
        with pytest.raises(ValueError):
            circular_rotation(4, 4)

    def test_always_compatible_with_identity(self):
        for n in range(2, 10):
            for j in range(1, n):
                assert is_compatible(identity(n), circular_rotation(n, j))

    def test_gcd_partition_law(self):
        # gcd(j, n) parts of size n/gcd(j, n), against the traversal oracle
        for n in range(2, 13):
            for j in range(1, n):
                g = gcd(j, n)
                expected = tuple([n // g] * g)
                rot = circular_rotation(n, j)
                assert union_cycle_partition(identity(n), rot).parts == expected
                assert alternating_parts(identity(n), rot) == expected


class TestScaling:
    def test_figure_example(self):
        assert scale_permutation(Permutation((3, 4, 1, 2)), 2).image == (
            3, 4, 1, 2, 7, 8, 5, 6,
        )

    def test_identity_scales_to_identity(self):
        for n in range(1, 6):
            for k in range(1, 4):
                assert scale_permutation(identity(n), k) == identity(n * k)

    def test_swap_scaled(self):
        assert scale_permutation(Permutation((2, 1)), 2) == Permutation((2, 1, 4, 3))

    def _compatible_pairs(self, n, cap=None):
        import itertools
        import random

        perms = [Permutation(t) for t in itertools.permutations(range(1, n + 1))]
        pairs = [
            (p, q)
            for p, q in itertools.combinations(perms, 2)
            if is_compatible(p, q)
        ]
        if cap is not None and len(pairs) > cap:
            pairs = random.Random(n).sample(pairs, cap)
        return pairs

    def test_partition_scaling_law(self):
        # partition of the scaled pair = k concatenated copies
        for n in range(2, 7):
            for p, q in self._compatible_pairs(n, cap=40):
                base = union_cycle_partition(p, q).parts
                for k in (2, 3):
                    scaled = union_cycle_partition(
                        scale_permutation(p, k), scale_permutation(q, k)
                    ).parts
                    assert scaled == tuple(sorted(base * k, reverse=True))

    def test_scale_composition(self):
        import itertools

        for n in range(1, 7):
            for img in itertools.islice(itertools.permutations(range(1, n + 1)), 8):
                q = Permutation(img)
                for k in (1, 2, 3):
                    for k2 in (1, 2, 3):
                        assert scale_permutation(
                            scale_permutation(q, k), k2
                        ) == scale_permutation(q, k * k2)

    @given(perm_pair(), st.integers(min_value=1, max_value=3))
    def test_scaling_preserves_compatibility(self, pair, k):
        p, q = pair
        assert is_compatible(
            scale_permutation(p, k), scale_permutation(q, k)
        ) == is_compatible(p, q)

    def test_unscale_inverts_scale(self):
        q = Permutation((3, 1, 2))
        assert unscale_permutation(scale_permutation(q, 3), 3) == q
        assert unscale_permutation(Permutation((3, 4, 1, 2)), 2) is None


class TestPartitionType:
    def test_canonical_order(self):
        assert PartitionP2((3, 9, 3)).parts == (9, 3, 3)
        assert PartitionP2((3, 9, 3)) == PartitionP2((9, 3, 3))

    def test_text_forms(self):
        beta = PartitionP2((3, 3))
        assert beta.to_text() == "3+3"
        assert PartitionP2.from_text("3+3") == beta

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            PartitionP2((0, 3))
        with pytest.raises(ValueError):
            PartitionP2(())

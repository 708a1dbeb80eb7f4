"""Both girth kernels agree with each other and with networkx.

The compiled kernel comes from the `compiled_kernel` fixture in
conftest.py, which builds it from this checkout's C source.
"""

import random
from array import array

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from btusearch import _girth_py
from btusearch.btu import to_biadjacency
from btusearch.perms import Permutation, identity, is_compatible


def flatten_images(images):
    """Packs one-line image tuples into the kernels' flat 4-byte int layout."""
    return array("i", [x for img in images for x in img])


def random_images(m, r, seed):
    rng = random.Random(seed)
    base = list(range(1, m + 1))
    while True:
        perms = [identity(m)]
        while len(perms) < r:
            img = base[:]
            rng.shuffle(img)
            p = Permutation(tuple(img))
            if all(is_compatible(p, q) for q in perms):
                perms.append(p)
        return [p.image for p in perms]


def nx_girth(images, m):
    from btusearch.btu import BTU

    mat = to_biadjacency(BTU(m=m, r=len(images), perms=tuple(Permutation(i) for i in images)))
    graph = nx.Graph()
    graph.add_nodes_from(range(2 * m))
    for i in range(m):
        for j in range(m):
            if mat[i, j]:
                graph.add_edge(i, m + j)
    g = nx.girth(graph)
    return 0 if g == float("inf") else g


def single(kernel, flat, m, r):
    """One graph's girth through `girth_batch` with cutoff 0, which the
    contract makes exact."""
    out = array("i", [-1])
    kernel.girth_batch(flat, 1, m, r, out, 0)
    return out[0]


CASES = [(4, 2), (5, 2), (4, 3), (6, 3), (9, 3), (5, 4), (8, 3)]


class TestPureKernel:
    @pytest.mark.parametrize("m,r", CASES)
    def test_matches_networkx(self, m, r):
        for seed in range(4):
            images = random_images(m, r, seed)
            got = single(_girth_py, flatten_images(images), m, r)
            assert got == nx_girth(images, m)

    def test_forest(self):
        images = [(2, 3, 1)]
        assert single(_girth_py, flatten_images(images), 3, 1) == 0


class TestCompiledKernel:
    @pytest.mark.parametrize("m,r", CASES)
    def test_matches_pure(self, compiled_kernel, m, r):
        for seed in range(6):
            images = random_images(m, r, seed)
            flat = flatten_images(images)
            assert single(compiled_kernel, flat, m, r) == single(_girth_py, flat, m, r)

    def test_forest(self, compiled_kernel):
        images = [(2, 3, 1)]
        assert single(compiled_kernel, flatten_images(images), 3, 1) == 0


class TestBatch:
    # `kernel` yields a module and holds no state between examples.
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        m=st.integers(4, 16),
        r=st.integers(1, 4),
        seeds=st.lists(st.integers(0, 2**32), min_size=1, max_size=5),
    )
    def test_cutoff_contract(self, kernel, m, r, seeds):
        batch = [random_images(m, r, seed) for seed in seeds]
        flat = flatten_images([img for images in batch for img in images])
        exact = [
            single(_girth_py, flatten_images(images), m, r) for images in batch
        ]
        for cutoff in (0, 4, 6, 8):
            out = array("i", [-1]) * (len(batch) + 1)
            kernel.girth_batch(flat, len(batch), m, r, out, cutoff)
            assert out[-1] == -1  # only n_graphs entries are written
            for girth, got in zip(exact, out):
                if girth > cutoff:
                    assert got == girth
                else:
                    assert girth <= got <= cutoff


    @pytest.mark.parametrize("cutoff,allowed", [(0, {4}), (4, {4}), (6, {4, 6}), (8, {4, 6, 8})])
    def test_long_cycle_found_first(self, kernel, cutoff, allowed):
        # Rows 1-4 lie on an 8-cycle, found first; rows 5-6 on a 4-cycle.
        images = [(1, 2, 3, 4, 5, 6), (2, 3, 4, 1, 6, 5)]
        out = array("i", [-1])
        kernel.girth_batch(flatten_images(images), 1, 6, 2, out, cutoff)
        assert out[0] in allowed


GOOD = [(1, 2, 3), (2, 3, 1)]  # m = 3, r = 2: one 6-cycle


def _out(n=1):
    return array("i", [0]) * n


class TestInputChecks:
    @pytest.mark.parametrize(
        "flat,n,m,r,out",
        [
            (array("h", [1, 2, 3, 2, 3, 1]), 1, 3, 2, _out()),  # 2-byte items
            (array("q", [1, 2, 3, 2, 3, 1]), 1, 3, 2, _out()),  # 8-byte items
            (flatten_images(GOOD), 1, 3, 2, array("q", [0])),
            (flatten_images(GOOD), 2, 3, 2, _out(2)),  # too few items
            (flatten_images(GOOD + GOOD), 1, 3, 2, _out(2)),  # too many
            (flatten_images(GOOD + GOOD), 2, 3, 2, _out(1)),  # out too short
            (array("i"), 1, 0, 2, _out()),
            (array("i"), 1, 3, 0, _out()),
            (array("i"), -1, 3, 2, _out()),
            (flatten_images([(1, 2, 3), (2, 3, 0)]), 1, 3, 2, _out()),
            (flatten_images([(1, 2, 3), (2, 4, 1)]), 1, 3, 2, _out()),
            (flatten_images([(1, 2, 3), (2, 2, 1)]), 1, 3, 2, _out()),
            (flatten_images(GOOD + [(1, 2, 3), (-5, 3, 1)]), 2, 3, 2, _out(2)),
        ],
    )
    def test_batch_rejects(self, kernel, flat, n, m, r, out):
        with pytest.raises(ValueError):
            kernel.girth_batch(flat, n, m, r, out, 0)

    @pytest.mark.parametrize(
        "flat,m,r",
        [
            (array("h", [1, 2, 3, 2, 3, 1]), 3, 2),
            (flatten_images(GOOD), 3, 1),
            (flatten_images(GOOD), 2, 2),
            (flatten_images([(1, 2, 3), (2, 3, 4)]), 3, 2),
            (flatten_images([(0, 2, 3), (2, 3, 1)]), 3, 2),
            (flatten_images([(3, 2, 3), (2, 3, 1)]), 3, 2),
        ],
    )
    def test_single_rejects(self, kernel, flat, m, r):
        with pytest.raises(ValueError):
            kernel.girth_batch(flat, 1, m, r, _out(), 0)

    def test_empty_batch(self, kernel):
        out = _out()
        kernel.girth_batch(array("i"), 0, 3, 2, out, 0)
        assert out[0] == 0

    def test_valid_input_still_accepted(self, kernel):
        out = _out(2)
        kernel.girth_batch(flatten_images(GOOD + GOOD), 2, 3, 2, out, 0)
        assert list(out) == [6, 6]
        assert single(kernel, flatten_images(GOOD), 3, 2) == 6

"""Both girth kernels agree with each other and with networkx, and keep
the `girth_batch` contract: the cutoff that rises after every graph, the
stop, and the input checks.

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


def pack(images):
    """A table of the given 1-based one-line images as 0-based 4-byte
    rows, and the index that names the rows in order: with r slots to a
    graph, graph g is images g*r .. g*r + r - 1."""
    return array("i", [x - 1 for img in images for x in img]), array("i", range(len(images)))


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


def single(kernel, images, m):
    """One graph's girth through `girth_batch` with cutoff 0, which the
    contract makes exact."""
    out = array("i", [-1])
    assert kernel.girth_batch(*pack(images), 1, m, len(images), out, 0) == 1
    return out[0]


def cutoffs(out, cutoff, slack):
    """Each entry's cutoff under the contract: the larger of `cutoff` and
    the largest entry before it minus slack."""
    edges = []
    for value in out:
        edges.append(cutoff)
        cutoff = max(cutoff, value - slack)
    return edges


def meets_contract(exact, out, cutoff, slack):
    return all(
        got == girth if girth > edge else girth <= got <= edge
        for girth, got, edge in zip(exact, out, cutoffs(out, cutoff, slack))
    )


CASES = [(4, 2), (5, 2), (4, 3), (6, 3), (9, 3), (5, 4), (8, 3)]


class TestPureKernel:
    @pytest.mark.parametrize("m,r", CASES)
    def test_matches_networkx(self, m, r):
        for seed in range(4):
            images = random_images(m, r, seed)
            assert single(_girth_py, images, m) == nx_girth(images, m)

    def test_forest(self):
        assert single(_girth_py, [(2, 3, 1)], 3) == 0


class TestCompiledKernel:
    @pytest.mark.parametrize("m,r", CASES)
    def test_matches_pure(self, compiled_kernel, m, r):
        for seed in range(6):
            images = random_images(m, r, seed)
            assert single(compiled_kernel, images, m) == single(_girth_py, images, m)

    def test_forest(self, compiled_kernel):
        assert single(compiled_kernel, [(2, 3, 1)], 3) == 0


# `kernel` yields a module and holds no state between examples.
FIXTURE_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
BATCHES = dict(
    m=st.integers(4, 16),
    r=st.integers(1, 4),
    seeds=st.lists(st.integers(0, 2**32), min_size=1, max_size=5),
)


def batch_of(m, r, seeds):
    batch = [random_images(m, r, seed) for seed in seeds]
    exact = [single(_girth_py, images, m) for images in batch]
    return pack([img for images in batch for img in images]), exact


class TestBatch:
    @FIXTURE_SETTINGS
    @given(**BATCHES)
    def test_cutoff_contract(self, kernel, m, r, seeds):
        # A slack of 2m is above every girth, so the cutoff never rises:
        # the fixed cutoff of a kernel without the rising one.
        (table, index), exact = batch_of(m, r, seeds)
        for cutoff in (0, 4, 6, 8):
            out = array("i", [-1]) * (len(seeds) + 1)
            assert kernel.girth_batch(table, index, len(seeds), m, r, out, cutoff, 2 * m) == len(seeds)
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
        kernel.girth_batch(*pack(images), 1, 6, 2, out, cutoff)
        assert out[0] in allowed


class TestRisingCutoff:
    @FIXTURE_SETTINGS
    @given(**BATCHES, cutoff=st.sampled_from([-1, 0, 4, 6]), slack=st.sampled_from([0, 1]))
    @pytest.mark.parametrize("kernel", ["python", "c", "loose"], indirect=True)
    def test_contract(self, kernel, m, r, seeds, cutoff, slack):
        (table, index), exact = batch_of(m, r, seeds)
        out = array("i", [-1]) * (len(seeds) + 1)
        assert kernel.girth_batch(table, index, len(seeds), m, r, out, cutoff, slack) == len(seeds)
        assert out[-1] == -1
        out = out[:-1]
        assert meets_contract(exact, out, cutoff, slack)
        if cutoff < 0:
            # What the search reads: slack 0 keeps the first maximum where
            # it is, and slack 1 every tie of it.
            top = max(exact)
            assert max(out) == top
            assert out.index(top) == exact.index(top)
            if slack:
                assert [g == top for g in out] == [g == top for g in exact]


class TestStop:
    @FIXTURE_SETTINGS
    @given(**BATCHES, stop=st.integers(1, 10), slack=st.sampled_from([0, 1]))
    @pytest.mark.parametrize("kernel", ["python", "c", "loose"], indirect=True)
    def test_ends_after_the_first_entry_at_stop(self, kernel, m, r, seeds, stop, slack):
        (table, index), exact = batch_of(m, r, seeds)
        out = array("i", [-1]) * len(seeds)
        done = kernel.girth_batch(table, index, len(seeds), m, r, out, -1, slack, stop)
        reached = [g for g, girth in enumerate(exact) if girth >= stop]
        assert done == (reached[0] + 1 if reached else len(seeds))
        assert meets_contract(exact[:done], out[:done], -1, slack)
        assert list(out[done:]) == [-1] * (len(seeds) - done)


class TestTableWidths:
    @pytest.mark.parametrize("code", ["b", "B", "h", "H", "i", "I"])
    def test_any_one_two_or_four_byte_table(self, kernel, code):
        images = random_images(9, 3, 7)
        table, index = pack(images)
        out = array("i", [-1])
        assert kernel.girth_batch(array(code, table), index, 1, 9, 3, out, 0) == 1
        assert out[0] == single(_girth_py, images, 9)

    def test_rows_repeat_and_skip(self, kernel):
        # Graph 0 is rows (0, 1), graph 1 rows (0, 2); row 3 is never read.
        table = array("B", [0, 1, 2, 1, 2, 0, 2, 0, 1, 9, 9, 9])
        out = array("i", [-1, -1])
        assert kernel.girth_batch(table, array("i", [0, 1, 0, 2]), 2, 3, 2, out, 0) == 2
        assert list(out) == [6, 6]


class TestRTwo:
    """The compiled kernel scores r = 2 in O(m) by the cycles of
    inv(p1).p2; the pure one runs its BFS.  Slots drawn independently
    meet in double edges, which both score 2."""

    @settings(max_examples=200, deadline=None)
    @given(
        m=st.integers(1, 24),
        r=st.integers(2, 3),
        data=st.data(),
        cutoff=st.sampled_from([-1, 0, 2, 4, 6, 10]),
        slack=st.sampled_from([0, 1]),
    )
    def test_matches_pure_bfs(self, compiled_kernel, m, r, data, cutoff, slack):
        batch = data.draw(
            st.lists(st.lists(st.permutations(range(1, m + 1)), min_size=r, max_size=r),
                     min_size=1, max_size=4)
        )
        table, index = pack([img for images in batch for img in images])
        exact = [single(_girth_py, images, m) for images in batch]
        out = array("i", [-1]) * len(batch)
        compiled_kernel.girth_batch(table, index, len(batch), m, r, out, cutoff, slack)
        assert meets_contract(exact, out, cutoff, slack)
        if r == 2:
            assert list(out) == exact  # exact whatever the cutoff

    def test_double_edge_is_two(self, kernel):
        # Rows 1-4 lie on an 8-cycle, found first; rows 5 and 6 each have
        # a double edge.
        images = [(1, 2, 3, 4, 5, 6), (2, 3, 4, 1, 5, 6)]
        assert single(kernel, images, 6) == 2
        assert single(kernel, [*images, (3, 4, 1, 2, 6, 5)], 6) == 2

    def test_long_cycle(self, compiled_kernel):
        # One cycle through all 40,000 vertices, as stage 2 of (20000, 2)
        # builds: seconds for a BFS from every vertex.
        m = 20000
        images = [tuple(range(1, m + 1)), tuple(range(2, m + 1)) + (1,)]
        assert single(compiled_kernel, images, m) == 2 * m


GOOD = [(1, 2, 3), (2, 3, 1)]  # m = 3, r = 2: one 6-cycle


def _out(n=1):
    return array("i", [0]) * n


class TestInputChecks:
    @pytest.mark.parametrize(
        "flat,n,m,r,out",
        [
            ((pack(GOOD)[0], array("h", [0, 1])), 1, 3, 2, _out()),  # 2-byte index
            ((array("q", [0, 1, 2, 1, 2, 0]), pack(GOOD)[1]), 1, 3, 2, _out()),  # 8-byte table
            (pack(GOOD), 1, 3, 2, array("q", [0])),
            (pack(GOOD), 2, 3, 2, _out(2)),  # too few index items
            (pack(GOOD + GOOD), 1, 3, 2, _out(2)),  # too many
            (pack(GOOD + GOOD), 2, 3, 2, _out(1)),  # out too short
            ((array("i"), array("i")), 1, 0, 2, _out()),
            ((array("i"), array("i")), 1, 3, 0, _out()),
            ((array("i"), array("i")), -1, 3, 2, _out()),
            (pack([(1, 2, 3), (2, 3, 0)]), 1, 3, 2, _out()),
            (pack([(1, 2, 3), (2, 4, 1)]), 1, 3, 2, _out()),
            (pack([(1, 2, 3), (2, 2, 1)]), 1, 3, 2, _out()),
            (pack(GOOD + [(1, 2, 3), (-5, 3, 1)]), 2, 3, 2, _out(2)),
        ],
    )
    def test_batch_rejects(self, kernel, flat, n, m, r, out):
        # flat: the batch's (table, index)
        with pytest.raises(ValueError):
            kernel.girth_batch(*flat, n, m, r, out, 0)

    @pytest.mark.parametrize(
        "flat,m,r",
        [
            ((pack(GOOD)[0], array("h", [0, 1])), 3, 2),
            (pack(GOOD), 3, 1),
            (pack(GOOD), 2, 2),
            (pack([(1, 2, 3), (2, 3, 4)]), 3, 2),
            (pack([(0, 2, 3), (2, 3, 1)]), 3, 2),
            (pack([(3, 2, 3), (2, 3, 1)]), 3, 2),
        ],
    )
    def test_single_rejects(self, kernel, flat, m, r):
        with pytest.raises(ValueError):
            kernel.girth_batch(*flat, 1, m, r, _out(), 0)

    def test_empty_batch(self, kernel):
        out = _out()
        assert kernel.girth_batch(array("i"), array("i"), 0, 3, 2, out, 0) == 0
        assert out[0] == 0

    def test_valid_input_still_accepted(self, kernel):
        out = _out(2)
        assert kernel.girth_batch(*pack(GOOD + GOOD), 2, 3, 2, out, 0) == 2
        assert list(out) == [6, 6]
        assert single(kernel, GOOD, 3) == 6

    def test_rows_not_whole(self, kernel):
        with pytest.raises(ValueError):
            kernel.girth_batch(array("i", [0, 1, 2]), array("i", [0, 0]), 1, 2, 2, _out(), 0)

    def test_negative_slack(self, kernel):
        with pytest.raises(ValueError):
            kernel.girth_batch(*pack(GOOD), 1, 3, 2, _out(), 0, -1)


class TestChecksBeforeAnyRead:
    """A bad row index or item size is refused before the kernel scores
    any graph: no out entry is written, even for the graphs before it."""

    @FIXTURE_SETTINGS
    @given(**BATCHES, data=st.data())
    def test_bad_row_index(self, kernel, m, r, seeds, data):
        (table, index), _ = batch_of(m, r, seeds)
        at = data.draw(st.integers(0, len(index) - 1))
        index[at] = data.draw(st.sampled_from([-1, len(table) // m, 2**31 - 1, -(2**31)]))
        out = array("i", [-1]) * len(seeds)
        with pytest.raises(ValueError):
            kernel.girth_batch(table, index, len(seeds), m, r, out, -1, 0, 0)
        assert list(out) == [-1] * len(seeds)

    @FIXTURE_SETTINGS
    @given(**BATCHES, table_code=st.sampled_from(["i", "q", "d"]),
           index_code=st.sampled_from(["i", "b", "h", "q"]))
    def test_bad_item_size(self, kernel, m, r, seeds, table_code, index_code):
        (table, index), _ = batch_of(m, r, seeds)
        if table_code == index_code == "i":
            index_code = "q"
        table = array(table_code, table)
        index = array(index_code, index)
        out = array("i", [-1]) * len(seeds)
        with pytest.raises(ValueError):
            kernel.girth_batch(table, index, len(seeds), m, r, out, -1)
        assert list(out) == [-1] * len(seeds)

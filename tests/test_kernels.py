"""Both girth kernels agree with each other and with networkx, and keep
the `girth_batch` contract: the cutoff that rises after every graph, the
stop, and the input checks.  Both slot matchers give the same slots and
refuse the same input, and so do both cycle growers with their rows and
both pair coders with their codes.

The compiled kernel comes from the `compiled_kernel` fixture in
conftest.py, which builds it from this checkout's C source.
"""

import random
import sys
import tracemalloc
import types
import warnings
from array import array
from math import factorial, gcd

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from strategies import regular_matrices

from btusearch import _girth_py, _kernel
from btusearch.btu import to_biadjacency
from btusearch.perms import Permutation, identity, is_compatible
from btusearch.searchspace import cycle_images, grown_cycle_images


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


class TestSelection:
    """`_kernel` uses a compiled module only when its ABI is `_kernel.ABI`."""

    def test_this_checkout_builds_the_current_abi(self, compiled_kernel):
        assert compiled_kernel.ABI == _kernel.ABI

    def test_matching_abi_is_selected(self, monkeypatch):
        current = types.ModuleType("btusearch._girth_c")
        current.ABI = _kernel.ABI
        monkeypatch.setitem(sys.modules, "btusearch._girth_c", current)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _kernel._select() == (current, "c")

    @pytest.mark.parametrize("abi", [None, _kernel.ABI + 1], ids=["missing", "other"])
    def test_stale_build_falls_back_with_one_warning(self, monkeypatch, abi):
        stale = types.ModuleType("btusearch._girth_c")
        stale.__file__ = "/somewhere/_girth_c.cpython-311-x86_64-linux-gnu.so"
        if abi is not None:
            stale.ABI = abi
        monkeypatch.setitem(sys.modules, "btusearch._girth_c", stale)
        with pytest.warns(RuntimeWarning) as record:
            assert _kernel._select() == (_girth_py, "python")
        assert len(record) == 1
        text = str(record[0].message)
        assert stale.__file__ in text
        assert "python setup.py build_ext --inplace --force" in text

    def test_no_compiled_module_falls_back_silently(self, monkeypatch):
        # A None entry makes the import raise ImportError.
        monkeypatch.setitem(sys.modules, "btusearch._girth_c", None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _kernel._select() == (_girth_py, "python")


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
    """Both kernels score r = 2 in O(m) by the cycles of inv(p1).p2, and
    larger r by a BFS.  Slots drawn independently meet in double edges,
    which both score 2."""

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

    @settings(max_examples=100, deadline=None)
    @given(m=st.integers(1, 24), data=st.data())
    def test_pure_matches_networkx(self, m, data):
        images = data.draw(st.lists(st.permutations(range(1, m + 1)), min_size=2, max_size=2))
        # networkx sees a simple graph, so a double edge is scored here
        double = any(a == b for a, b in zip(*images))
        assert single(_girth_py, images, m) == (2 if double else nx_girth(images, m))

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 100, 1000, 2000])
    def test_rings_match_compiled(self, compiled_kernel, m):
        # The rotation by k has gcd(m, k) cycles of m / gcd(m, k) points.
        for k in sorted({1, 2, 3, m // 2, m - 1} - {0}):
            images = [tuple(range(1, m + 1)), tuple((x + k) % m + 1 for x in range(m))]
            want = 2 * m // gcd(m, k)
            assert single(_girth_py, images, m) == single(compiled_kernel, images, m) == want

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


def pair_table(m, r, at, finals, words, seed, code="I"):
    """A pair scorer's table of random permutations of 0..m-1: r-1 fixed
    rows, but row `at` all zeros, which no call may read, then the final
    and word rows.  Returns the table and the two row ranges."""
    rng = np.random.default_rng(seed)
    rows = [rng.permutation(m) for _ in range(r - 1 + finals + words)]
    rows[at] = np.zeros(m, dtype=np.int64)
    first_word = r - 1 + finals
    table = array(code, np.concatenate(rows).tolist())
    return table, (r - 1, first_word), (first_word, first_word + words)


def masked_batch(kernel, table, m, r, at, fs, ws, cutoff, slack, stop):
    """What girth_pairs should give: the positions of the pairs whose rows
    differ at every point, and girth_batch's entries for their graphs."""
    rows = np.asarray(table).reshape(-1, m)
    positions, index = [], []
    for f in range(*fs):
        for w in range(*ws):
            if (rows[f] != rows[w]).all():
                positions.append((f - fs[0]) * (ws[1] - ws[0]) + w - ws[0])
                slots = list(range(r - 1)) + [f]
                slots[at] = w
                index += slots
    out = array("i", [0]) * len(positions)
    index = array("i", index)
    done = kernel.girth_batch(table, index, len(positions), m, r, out, cutoff, slack, stop)
    return positions[:done], list(out[:done])


def scored_pairs(kernel, table, m, r, at, fs, ws, cutoff, slack=0, stop=0, period=0):
    size = (fs[1] - fs[0]) * (ws[1] - ws[0])
    pairs, out = array("q", [-1]) * size, array("i", [-1]) * size
    done = kernel.girth_pairs(table, m, r, at, *fs, *ws, pairs, out, cutoff, slack, stop, period)
    return list(pairs[:done]), list(out[:done])


def shift_commuting(m, p, rng):
    """A random permutation of 0..m-1 that commutes with x -> x + p: rows
    0..p-1 go to values of distinct residues mod p, each block after
    them shifted by p."""
    heads = rng.permutation(p) + p * rng.integers(0, m // p, p)
    return (heads[np.arange(m) % p] + np.arange(m) // p * p) % m


class TestPairScorer:
    """girth_pairs scores the masked pairs of a unit as girth_batch scores
    their graphs, and a period changes no girth of a graph that commutes
    with the shift."""

    @FIXTURE_SETTINGS
    @given(
        m=st.integers(3, 12), r=st.integers(2, 4), finals=st.integers(0, 4),
        words=st.integers(0, 6), seed=st.integers(0, 2**32 - 1), data=st.data(),
        code=st.sampled_from(["B", "H", "I"]),
    )
    @pytest.mark.parametrize("kernel", ["python", "c", "loose"], indirect=True)
    def test_equals_batch_on_masked_pairs(self, kernel, m, r, finals, words, seed, data, code):
        at = data.draw(st.integers(0, r - 2), label="at")
        table, fs, ws = pair_table(m, r, at, finals, words, seed, code)
        for cutoff in (-1, 0, 4, 6):
            for slack in (0, 1, 2 * m):
                for stop in (0, 4, 6, 8):
                    want = masked_batch(kernel, table, m, r, at, fs, ws, cutoff, slack, stop)
                    got = scored_pairs(kernel, table, m, r, at, fs, ws, cutoff, slack, stop)
                    assert got == want

    @FIXTURE_SETTINGS
    @given(
        p=st.integers(1, 6), k=st.integers(1, 5), r=st.integers(2, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_period_keeps_the_girth(self, kernel, p, k, r, seed):
        m, rng = p * k, np.random.default_rng(seed)
        rows = [shift_commuting(m, p, rng) for _ in range(r - 1 + 2 + 4)]
        table = np.array(rows, dtype=np.int32)
        fs, ws = (r - 1, r + 1), (r + 1, r + 5)
        # Slack 2m keeps every cutoff at 0: every girth is exact.
        exact = scored_pairs(kernel, table, m, r, 0, fs, ws, 0, 2 * m)
        assert scored_pairs(kernel, table, m, r, 0, fs, ws, 0, 2 * m, period=p) == exact
        assert scored_pairs(_girth_py, table, m, r, 0, fs, ws, 0, 2 * m, period=p) == exact

    def test_the_zero_row_is_not_read(self, kernel):
        table, fs, ws = pair_table(5, 3, 0, 2, 3, 1)
        assert scored_pairs(kernel, table, 5, 3, 0, fs, ws, 0)[0]

    GOOD = np.array([[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]], dtype=np.int32)

    @pytest.mark.parametrize(
        "table,m,r,at,fs,ws,size,period",
        [
            (GOOD, 4, 3, 0, (2, 5), (3, 4), 3, 0),  # final range past the table
            (GOOD, 4, 3, 0, (3, 2), (3, 4), 1, 0),  # final range backwards
            (GOOD, 4, 3, 0, (2, 3), (-1, 4), 5, 0),  # word range before it
            (GOOD, 4, 3, 0, (2, 3), (3, 5), 2, 0),  # word range past it
            (GOOD[:1], 4, 3, 0, (0, 1), (0, 1), 1, 0),  # fewer than r-1 rows
            (GOOD, 4, 3, 2, (2, 3), (3, 4), 1, 0),  # at is the final's slot
            (GOOD, 4, 3, -1, (2, 3), (3, 4), 1, 0),
            (GOOD, 4, 1, 0, (0, 1), (1, 2), 1, 0),  # r below 2
            (GOOD, 4, 3, 0, (2, 3), (3, 4), 1, -2),  # negative period
            (GOOD, 4, 3, 0, (2, 3), (3, 4), 1, 3),  # period not dividing m
            (GOOD, 4, 3, 0, (2, 4), (3, 4), 1, 0),  # out too short
            (GOOD[:, :3].copy(), 4, 3, 0, (2, 3), (0, 1), 1, 0),  # rows not whole
            (GOOD.astype(np.int64), 4, 3, 0, (2, 3), (3, 4), 1, 0),  # 8-byte table
        ],
        ids=["finals-past", "finals-backwards", "words-before", "words-past", "few-rows",
             "at-final", "at-negative", "r1", "period-negative", "period-3-of-4",
             "out-short", "rows-not-whole", "table-8-byte"],
    )
    def test_rejects(self, kernel, table, m, r, at, fs, ws, size, period):
        pairs, out = array("q", [0]) * size, array("i", [0]) * size
        with pytest.raises(ValueError):
            kernel.girth_pairs(table, m, r, at, *fs, *ws, pairs, out, 0, 0, 0, period)

    @pytest.mark.parametrize("bad", [1, 2, 3], ids=["fixed", "final", "word"])
    def test_rejects_a_row_that_is_not_a_permutation(self, kernel, bad):
        # Rows: the unread slot 0, fixed slot 1, the final, the word; the
        # final and the word differ at every point.
        table = self.GOOD.copy()
        table[bad, 2] = table[bad, 0]
        pairs, out = array("q", [0]), array("i", [0])
        with pytest.raises(ValueError, match=r"^each image must be a permutation of 0\.\.3$"):
            kernel.girth_pairs(table, 4, 3, 0, 2, 3, 3, 4, pairs, out, 0)

    def test_an_incompatible_word_is_not_read(self, kernel):
        # The word agrees with the final at point 0, so it is never loaded.
        table = self.GOOD.copy()
        table[3] = [2, 2, 2, 2]
        pairs, out = array("q", [0]), array("i", [0])
        assert kernel.girth_pairs(table, 4, 3, 0, 2, 3, 3, 4, pairs, out, 0) == 0

    def test_empty_ranges(self, kernel):
        pairs, out = array("q"), array("i")
        assert kernel.girth_pairs(self.GOOD, 4, 3, 0, 2, 2, 3, 4, pairs, out, 0) == 0


def columns_of(mat):
    """The (m, r) int32 table of each row's columns, ascending."""
    m = len(mat)
    return (np.flatnonzero(mat) % m).astype(np.int32).reshape(m, -1)


def split(kernel, cols):
    """kernel.split_slots of an (m, r) table, as an (r, m) array."""
    m, r = cols.shape
    out = np.full((r, m), -1, dtype=np.int32)
    assert kernel.split_slots(np.ascontiguousarray(cols), m, r, out) is None
    return out


def circulant_columns(m, shifts=(0, 1, 3)):
    return np.sort((np.arange(m)[:, None] + np.array(shifts)) % m, axis=1).astype(np.int32)


class TestSlotMatcher:
    """The compiled matcher gives the pure one's slots, slot for slot, and
    refuses the same input."""

    @settings(max_examples=200, deadline=None)
    @given(mat=regular_matrices(max_m=40, max_r=6), data=st.data(), scramble=st.booleans())
    def test_matches_pure(self, compiled_kernel, mat, data, scramble):
        m = len(mat)
        rows = data.draw(st.permutations(range(m)))
        cols = columns_of(mat[np.ix_(rows, data.draw(st.permutations(range(m))))])
        if scramble:  # the matcher scans each row's list in its given order
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            cols = rng.permuted(cols, axis=1)
        slots = split(compiled_kernel, cols)
        assert (slots == split(_girth_py, cols)).all()
        assert (np.sort(slots, axis=1) == np.arange(m)).all()  # each slot a permutation
        assert (np.sort(slots, axis=0) == np.sort(cols.T, axis=0)).all()  # of the cells

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), m=st.integers(1, 30), r=st.integers(1, 6))
    def test_matches_pure_with_repeats(self, compiled_kernel, data, m, r):
        # Any table that lists every column r times splits, repeats in a
        # row included: those rows' slots agree, and the copy a round
        # removes decides the order of what is left.
        listed = data.draw(st.permutations([j for j in range(m) for _ in range(r)]))
        cols = np.array(listed, dtype=np.int32).reshape(m, r)
        assert (split(compiled_kernel, cols) == split(_girth_py, cols)).all()

    @pytest.mark.parametrize("r", range(1, 7))
    def test_every_degree(self, compiled_kernel, r):
        cols = circulant_columns(12, range(0, 2 * r, 2))[::-1].copy()
        assert (split(compiled_kernel, cols) == split(_girth_py, cols)).all()

    @pytest.mark.parametrize("a", [1, 17])
    def test_long_augmenting_paths(self, compiled_kernel, a):
        # The (2000, 3) circulant with column j renamed a*j mod 2000.  With
        # a = 1 no augmenting path passes more than one row; with a = 17
        # one passes 1,690 rows.
        cols = np.sort(a * circulant_columns(2000) % 2000, axis=1)
        assert (split(compiled_kernel, cols) == split(_girth_py, cols)).all()

    def test_random_full_size(self, compiled_kernel):
        # Its longest augmenting path passes 574 rows.
        images = random_images(2048, 3, 7)
        cols = np.sort(np.array(images, dtype=np.int32) - 1, axis=0).T.copy()
        assert (split(compiled_kernel, cols) == split(_girth_py, cols)).all()

    def test_repeated_column(self, kernel):
        # A column listed twice in a row lands in two slots at that row.
        cols = np.array([[0, 0], [1, 1]], dtype=np.int32)
        assert split(kernel, cols).tolist() == [[0, 1], [0, 1]]

    GOOD_COLS = np.array([[0, 1], [1, 2], [0, 2]], dtype=np.int32)

    @pytest.mark.parametrize(
        "cols,m,r,out",
        [
            (GOOD_COLS.astype(np.int64), 3, 2, np.zeros(6, np.int32)),  # 8-byte columns
            (GOOD_COLS.astype(np.int16), 3, 2, np.zeros(6, np.int32)),  # 2-byte columns
            (GOOD_COLS, 3, 2, np.zeros(6, np.int64)),  # 8-byte out
            (GOOD_COLS, 3, 2, np.zeros(5, np.int32)),  # out too short
            (GOOD_COLS, 2, 2, np.zeros(6, np.int32)),  # too many columns
            (GOOD_COLS, 4, 2, np.zeros(8, np.int32)),  # too few
            (GOOD_COLS, 6, 0, np.zeros(6, np.int32)),
            (GOOD_COLS, 0, 6, np.zeros(6, np.int32)),
            (np.array([[0, 1], [1, 3], [0, 2]], np.int32), 3, 2, np.zeros(6, np.int32)),
            (np.array([[0, 1], [1, -1], [0, 2]], np.int32), 3, 2, np.zeros(6, np.int32)),
            (np.array([[0, 1], [0, 1], [0, 1]], np.int32), 3, 2, np.zeros(6, np.int32)),
            (np.array([[0, 1], [0, 2], [0, 2]], np.int32), 3, 2, np.zeros(6, np.int32)),
            (np.array([[0], [0], [2]], np.int32), 3, 1, np.zeros(3, np.int32)),
        ],
        ids=["cols-8-byte", "cols-2-byte", "out-8-byte", "out-short", "cols-long",
             "cols-short", "r0", "m0", "column-m", "column-negative", "no-matching",
             "column-thrice", "residual-not-a-permutation"],
    )
    def test_rejects(self, kernel, cols, m, r, out):
        with pytest.raises(ValueError):
            kernel.split_slots(cols, m, r, out)

    def test_bad_lists_name_the_cause(self, kernel):
        out = np.zeros(6, np.int32)
        with pytest.raises(ValueError, match=r"^each column must be in 0\.\.2$"):
            kernel.split_slots(np.array([[0, 1], [1, 3], [0, 2]], np.int32), 3, 2, out)
        with pytest.raises(ValueError, match="^matrix is not regular: no perfect matching$"):
            kernel.split_slots(np.array([[0, 1], [0, 1], [0, 1]], np.int32), 3, 2, out)


def grown(kernel, monkeypatch, *args):
    """searchspace.grown_cycle_images(*args) on the given kernel's grower."""
    monkeypatch.setattr(_kernel, "_impl", kernel)
    return grown_cycle_images(*args)


class TestCycleGrower:
    """The compiled grower keeps the pure one's rows, in order and type,
    and refuses the same input."""

    @pytest.mark.parametrize("d", range(2, 13))
    def test_matches_pure(self, compiled_kernel, monkeypatch, d):
        rng = np.random.default_rng(d)
        for length in [t for t in range(1, d + 1) if d % t == 0]:
            for case in range(6):
                avoid = rng.integers(0, d, size=(int(rng.integers(1, 4)), d))
                left = rng.permutation(d)
                # t! words follow each choice of word entry d-2-t, whose
                # digit is at most t; above degree 9 the limit stays below
                # 8 * 7! words.
                t = int(rng.integers(0, min(d - 2, 7) + 1))
                limit = int(rng.integers(1, t + 2)) * factorial(t) + int(rng.integers(-1, 2))
                if d <= 9 and case == 0:
                    limit = None
                elif limit < 1:
                    limit = 1
                args = (d, avoid, left, length, limit)
                got = grown(compiled_kernel, monkeypatch, *args)
                expected = grown(_girth_py, monkeypatch, *args)
                assert got.dtype == expected.dtype
                assert got.tolist() == expected.tolist(), args

    @pytest.mark.parametrize("itemsize", [1, 2, 4])
    def test_any_item_size(self, compiled_kernel, itemsize):
        n, rng = 9, np.random.default_rng(1)
        # inv(left) for an n-cycle left: x -> heads[w(x)] is then even, as
        # an n-cycle of odd n must be.
        heads = np.argsort(cycle_images(n, 5000)[rng.integers(5000)]).astype(np.int32)
        kept = 0
        for t in range(4):
            avoid = rng.integers(0, n, size=(t, n), dtype=np.int32)
            for digits in (None, np.array([3, 0, 5, 1, 2, 0, 1, 0], np.int32)):
                got = compiled_kernel.grow_cycles(avoid, heads, digits, n, n, itemsize)
                expected = _girth_py.grow_cycles(avoid, heads, digits, n, n, itemsize)
                assert bytes(got) == bytes(expected)
                kept += len(got)
        assert kept

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_avoid_rows_are_the_barred_values(self, kernel, n):
        # Value v is barred at x when some avoid row holds v at x: the
        # rows kept are the unbarred rows' mask over every n-cycle.
        rng = np.random.default_rng(n)
        heads = np.arange(n, dtype=np.int32)
        every = np.frombuffer(kernel.grow_cycles(np.zeros(0, np.int32), heads, None, n, n, 4),
                              np.int32).reshape(-1, n)
        for t in range(4):
            avoid = rng.integers(0, n, size=(t, n), dtype=np.int32)
            got = np.frombuffer(kernel.grow_cycles(avoid, heads, None, n, n, 4), np.int32)
            mask = (every[:, None, :] != avoid).all(axis=(1, 2))
            assert got.tolist() == every[mask].ravel().tolist()

    GOOD = (np.zeros((1, 4), np.int32), np.arange(4, dtype=np.int32), None, 4, 2, 1)

    @pytest.mark.parametrize(
        "at,value",
        [
            (3, 1),  # n
            (4, 0),  # length
            (5, 3),  # itemsize
            (5, 8),
            (0, np.zeros((1, 4), np.int64)),  # 8-byte avoid
            (0, np.zeros(6, np.int32)),  # not whole rows of n
            (0, np.array([[0, 1, 4, 2]], np.int32)),
            (0, np.array([[0, 1, -1, 2]], np.int32)),
            (1, np.arange(4)),  # 8-byte heads
            (1, np.arange(3, dtype=np.int32)),
            (1, np.array([0, 1, 2, 4], np.int32)),
            (1, np.array([0, -1, 2, 3], np.int32)),
            (2, np.zeros(2, np.int32)),
            (2, np.zeros(3, np.int64)),
            (2, np.array([0, 3, 0], np.int32)),
            (2, np.array([-1, 0, 0], np.int32)),
        ],
        ids=["n1", "length0", "itemsize3", "itemsize8", "avoid-8-byte", "avoid-ragged",
             "avoid-value-n", "avoid-negative", "heads-8-byte", "heads-short", "head-n",
             "head-negative", "digits-short", "digits-8-byte", "digit-too-large",
             "digit-negative"],
    )
    def test_rejects(self, kernel, at, value):
        args = list(self.GOOD)
        args[at] = value
        with pytest.raises(ValueError):
            kernel.grow_cycles(*args)

    def test_one_byte_rows_hold_n_below_129(self, kernel):
        avoid = np.zeros((1, 129), np.int32)
        heads = np.arange(129, dtype=np.int32)
        with pytest.raises(ValueError, match="itemsize=1"):
            kernel.grow_cycles(avoid, heads, None, 129, 1, 1)
        assert len(kernel.grow_cycles(avoid, heads, None, 129, 1, 2)) == 0

    def test_bad_values_name_the_cause(self, kernel):
        avoid, heads = self.GOOD[:2]
        with pytest.raises(ValueError, match=r"^each head must be in 0\.\.3$"):
            kernel.grow_cycles(avoid, heads + 1, None, 4, 2, 1)
        with pytest.raises(ValueError, match=r"^digits\[1\] must be in 0\.\.1$"):
            kernel.grow_cycles(avoid, heads, np.array([0, 2, 0], np.int32), 4, 2, 1)
        with pytest.raises(ValueError, match=r"^each avoid value must be in 0\.\.3$"):
            kernel.grow_cycles(avoid + 4, heads, None, 4, 2, 1)
        with pytest.raises(ValueError, match=r"^avoid has 6 items, not a multiple of n=4$"):
            kernel.grow_cycles(np.zeros(6, np.int32), heads, None, 4, 2, 1)

    def test_holds_no_square_table(self, kernel, monkeypatch):
        # At n = 20,000 an n x n table of barred values would take 400 MB.
        # numpy reports its allocations to tracemalloc, so a square table
        # built in Python, or by the pure grower, would show in the peak.
        # The pure grower takes O(n) numpy steps per word entry, 16 s at
        # 20,000, so it runs at 3,000, where the table would take 9 MB.
        n = 20_000 if kernel is not _girth_py else 3_000
        monkeypatch.setattr(_kernel, "_impl", kernel)
        tracemalloc.start()
        try:
            rows = grown_cycle_images(n, np.arange(n)[None], np.arange(n), n, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.tolist() == [[*range(1, n), 0]]
        assert peak < 4 * 2**20


def coded(kernel, table, pairs, m):
    """The codes a kernel's `pair_codes` writes for an (n, 2) array of
    row indices into table."""
    pairs = np.ascontiguousarray(pairs, dtype=np.int32)
    out = np.full(len(pairs), -1, dtype=np.int64)
    kernel.pair_codes(table, pairs, len(pairs), m, out)
    return out.tolist()


def cycle_code(a, b):
    """The code of the pair by hand: sum_L c_L (m+1)^(L-1) over the cycles
    of x -> inv(a)[b[x]], c_L the points on cycles of length L."""
    m = len(a)
    inverse = {v: i for i, v in enumerate(a)}
    step = [inverse[v] for v in b]
    code, seen = 0, set()
    for x in range(m):
        length = 0
        while x not in seen:
            seen.add(x)
            x = step[x]
            length += 1
        code += length * (m + 1) ** (length - 1) if length else 0
    return code


class TestPairCoder:
    """Both pair coders write the code of the cycle type of inv(a).b for
    each pair, and refuse the same input with the same text."""

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32])
    @pytest.mark.parametrize("m", range(1, 13))
    def test_matches_pure(self, compiled_kernel, m, dtype):
        rng = np.random.default_rng(m)
        table = np.array([rng.permutation(m) for _ in range(8)], dtype=dtype)
        pairs = rng.integers(0, len(table), size=(300, 2))
        pairs[:20, 1] = pairs[:20, 0]  # a row with itself: m fixed points
        got = coded(compiled_kernel, table, pairs, m)
        assert got == coded(_girth_py, table, pairs, m)
        assert got == [cycle_code(table[a].tolist(), table[b].tolist()) for a, b in pairs]

    def test_one_m_cycle_at_the_largest_m(self, kernel):
        # 15 * 16**14 is below 2**63; at m = 16, 16 * 17**15 is not.
        m = 15
        table = np.array([np.arange(m), np.roll(np.arange(m), 1)], dtype=np.uint8)
        assert coded(kernel, table, [[0, 1], [1, 1]], m) == [15 * 16**14, 15]
        with pytest.raises(ValueError, match=r"^need 1 <= m <= 15 "):
            coded(kernel, np.zeros((2, 16), np.uint8), [[0, 1]], 16)

    def test_no_pairs(self, kernel):
        assert coded(kernel, np.zeros((0, 3), np.uint8), np.empty((0, 2)), 3) == []

    GOOD = (
        np.array([[0, 1, 2], [1, 2, 0]], np.uint8),
        np.array([0, 1, 1, 0], np.int32),
        2,
        3,
        np.zeros(2, np.int64),
    )

    @pytest.mark.parametrize(
        "at,value",
        [
            (3, 0),  # m
            (3, 16),
            (2, -1),  # n_pairs
            (2, 1),
            (0, np.array([[0, 1, 2], [1, 2, 0]], np.int64)),
            (0, np.array([0, 1, 2, 1], np.uint8)),
            (1, np.array([0, 1, 1, 0], np.int64)),
            (1, np.array([0, 2, 1, 0], np.int32)),
            (1, np.array([0, 1, -1, 0], np.int32)),
            (4, np.zeros(2, np.int32)),
            (4, np.zeros(1, np.int64)),
            (0, np.array([[0, 1, 2], [1, 1, 0]], np.uint8)),
            (0, np.array([[0, 1, 2], [1, 3, 0]], np.uint16)),
            (0, np.array([[0, 1, 2], [1, 2, 0]], np.int8) - 1),
        ],
        ids=["m0", "m16", "n-negative", "index-count", "table-8-byte",
             "table-not-whole-rows", "index-8-byte", "row-past-the-table", "row-negative",
             "out-4-byte", "out-short", "repeated-value", "value-past-m", "negative-value"],
    )
    def test_rejects_alike(self, compiled_kernel, at, value):
        args = list(self.GOOD)
        args[at] = value
        texts = []
        for kernel in (_girth_py, compiled_kernel):
            with pytest.raises(ValueError) as err:
                kernel.pair_codes(*args)
            texts.append(str(err.value))
        assert texts[0] == texts[1]

"""Small readers of package values that only the tests need."""

from functools import lru_cache
from math import factorial

import numpy as np

from btusearch import engine
from btusearch.perms import Permutation, circular_rotation, identity
from btusearch.searchspace import enumerate_candidates


def as_rotation(p: Permutation) -> int | None:
    """The j with p = circular_rotation(n, j), or None if p is not one."""
    n = p.n
    j = (n - p.image[0] + 1) % n
    if j == 0:
        return None  # identity is not a rotation (j must be >= 1)
    if p.image == circular_rotation(n, j).image:
        return j
    return None


def word_at_index(n: int, index: int) -> tuple[int, ...]:
    """The index-th (0-based) word of degree n-1 in lexicographic order,
    exact for any index below (n-1)!, past 2^63 too."""
    elems = list(range(1, n))
    word = []
    for pos in range(n - 1, 0, -1):
        f = factorial(pos - 1)
        word.append(elems.pop(index // f))
        index %= f
    return tuple(word)


@lru_cache(maxsize=None)
def candidate_images(n: int, limit: int | None = None) -> np.ndarray:
    """The images of enumerate_candidates(identity(n), limit) minus 1, one
    row each, in the narrowest signed int type that holds n-1: the
    reference for the grower's unfiltered rows.  Cached, so read-only."""
    if limit is not None and limit >= factorial(n - 1):
        return candidate_images(n)
    images = [q.image for q in enumerate_candidates(identity(n), limit)]
    rows = (np.array(images, dtype=np.int64).reshape(-1, n) - 1).astype(np.min_scalar_type(-n))
    rows.flags.writeable = False
    return rows


def twin_images(rows: np.ndarray) -> np.ndarray:
    """tau w = rho.inv(w).rho, rho: x -> d-1-x, of each row w, 0-based
    images of degree d, in the rows' type: the word twin of the search's
    best-mode stage 3."""
    return (rows.shape[1] - 1 - np.argsort(rows, axis=1)[:, ::-1]).astype(rows.dtype)


@lru_cache(maxsize=None)
def first_twin_images(d: int) -> np.ndarray:
    """The rows i of candidate_images(d) whose index is at most that of
    their twin's (twin_images), in order: the reference for the grower's
    rows with twins.  The twins' indices are found by sorting the rows'
    base-d keys.  Cached, so read-only."""
    rows = candidate_images(d)
    weights = d ** np.arange(d - 1, -1, -1, dtype=np.int64)
    keys, twin_keys = rows @ weights, twin_images(rows) @ weights
    order = np.argsort(keys)
    twin_at = order[np.searchsorted(keys, twin_keys, sorter=order)]
    first = rows[np.arange(len(rows)) <= twin_at]
    first.flags.writeable = False
    return first


def uniform_cycles(sigma: np.ndarray, length: int) -> np.ndarray:
    """Per row of sigma (a permutation of 0..d-1), whether all its cycles
    have `length` points: no power below `length` fixes a point, and that
    power is the identity.  The array partition filter the grower's path
    rule is checked against."""
    home = np.arange(sigma.shape[1])
    power, ok = sigma, np.ones(len(sigma), dtype=bool)
    for _ in range(1, length):
        ok &= (power != home).all(axis=1)
        power = np.take_along_axis(sigma, power, axis=1)
    return ok & (power == home).all(axis=1)


def matrix_cells(mat) -> tuple[tuple[int, int], np.ndarray]:
    """The shape of a 0/1 matrix and the sorted row-major flat cells of
    its ones, as the cell writers take them."""
    mat = np.asarray(mat)
    return mat.shape, np.flatnonzero(mat)


def beam_before(f, stage: int, config) -> np.ndarray:
    """The beam that search() hands to stage `stage` of factorization f."""
    beam, _ = engine._stage2(f, config)
    for earlier in range(3, stage):
        beam, _ = engine._run_stage(beam, earlier, f, config)
    return beam


def without_rotations(monkeypatch) -> None:
    """Leaves every later stage no rotation final at policy levels 0 and
    1, so each that does not end earlier reaches level 2."""
    monkeypatch.setattr(engine, "admissible_rotations", lambda n, threshold: [])

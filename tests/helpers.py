"""Small readers of package values that only the tests need."""

from btusearch.perms import Permutation, circular_rotation


def as_rotation(p: Permutation) -> int | None:
    """The j with p = circular_rotation(n, j), or None if p is not one."""
    n = p.n
    j = (n - p.image[0] + 1) % n
    if j == 0:
        return None  # identity is not a rotation (j must be >= 1)
    if p.image == circular_rotation(n, j).image:
        return j
    return None

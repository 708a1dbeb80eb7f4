"""Times the pure-Python girth kernel against the compiled one, the
compiled kernel's batch call against one call per graph (a batch of
one), and its batch call with the search's rising cutoff against exact
scoring.

Usage: PYTHONPATH=src python benchmarks/bench_girth.py [--calls N]

The compiled kernel is used when it is importable, e.g. after
`python setup.py build_ext --inplace`.  Workloads mimic the search/oracle
hot loop: many girth evaluations of small-to-medium BTUs, each batch one
table of image rows and a row index.  The exact runs use cutoff 0 and a
slack above every girth, so every girth is exact and the checksums
agree; the rising run (cutoff -1, slack 0) only keeps the maximum.
"""

import argparse
import random
import time
from array import array

from btusearch import _girth_py
from btusearch.perms import Permutation, circular_rotation, identity, is_compatible

try:
    from btusearch import _girth_c
except ImportError:
    _girth_c = None


def pack(images):
    """A table of the 1-based images as 0-based 4-byte rows, and the index
    that names them in order."""
    return array("i", [x - 1 for img in images for x in img]), array("i", range(len(images)))


def random_images(m, r, rng):
    base = list(range(1, m + 1))
    perms = [identity(m)]
    while len(perms) < r:
        img = base[:]
        rng.shuffle(img)
        p = Permutation(tuple(img))
        if all(is_compatible(p, q) for q in perms):
            perms.append(p)
    return [p.image for p in perms]


def build_cases(calls):
    rng = random.Random(20240917)
    cases = []
    for m in (32, 128):
        imgs = [identity(m).image, circular_rotation(m, 1).image]
        cases.append((f"ring (m={m}, r=2)", [imgs] * calls, m))
    for m, r in ((9, 3), (27, 3), (16, 4)):
        batch = [random_images(m, r, rng) for _ in range(calls)]
        cases.append((f"random (m={m}, r={r})", batch, m))
    return cases


def time_backend(kernel, batch, m):
    graphs = [(pack(imgs), len(imgs)) for imgs in batch]
    out = array("i", [0])
    started = time.perf_counter()
    checksum = 0
    for (table, index), r in graphs:
        kernel.girth_batch(table, index, 1, m, r, out, 0)
        checksum += out[0]
    return time.perf_counter() - started, checksum


def time_batch(kernel, batch, m, cutoff, slack):
    table, index = pack([img for imgs in batch for img in imgs])
    out = array("i", [0]) * len(batch)
    started = time.perf_counter()
    kernel.girth_batch(table, index, len(batch), m, len(batch[0]), out, cutoff, slack)
    return time.perf_counter() - started, out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--calls", type=int, default=300, help="girth calls per case")
    args = parser.parse_args()

    print(
        f"{'case':<24} {'calls':>6} {'pure':>10} {'compiled':>10} {'batch':>10} "
        f"{'rising':>10} {'speedup':>8} {'batch/1':>8}"
    )
    for name, batch, m in build_cases(args.calls):
        pure_s, pure_sum = time_backend(_girth_py, batch, m)
        if _girth_c is None:
            print(f"{name:<24} {len(batch):>6} {pure_s * 1e3:>8.2f}ms {'n/a':>10} {'n/a':>10}")
            continue
        fast_s, fast_sum = time_backend(_girth_c, batch, m)
        batch_s, exact = time_batch(_girth_c, batch, m, 0, 2 * m)
        rising_s, rising = time_batch(_girth_c, batch, m, -1, 0)
        assert pure_sum == fast_sum == sum(exact), "kernels disagree"
        assert max(rising) == max(exact), "the rising cutoff lost the maximum"
        print(
            f"{name:<24} {len(batch):>6} {pure_s * 1e3:>8.2f}ms {fast_s * 1e3:>8.2f}ms "
            f"{batch_s * 1e3:>8.2f}ms {rising_s * 1e3:>8.2f}ms {pure_s / fast_s:>7.1f}x "
            f"{fast_s / batch_s:>7.1f}x"
        )
    if _girth_c is None:
        print("\ncompiled kernel not importable; build it with "
              "`python setup.py build_ext --inplace`")


if __name__ == "__main__":
    main()

"""Hypothesis strategies shared by the test modules: regular 0/1
matrices, and text shaped like the matrix and alist file formats."""

import numpy as np
from helpers import matrix_cells
from hypothesis import strategies as st

from btusearch.io_formats import cells_to_alist, cells_to_text


@st.composite
def regular_matrices(draw, max_m=64, max_r=5):
    """An m x m int8 0/1 matrix with r ones in every row and column, the
    biadjacency matrix of some (m, r) BTU: r disjoint shifted diagonals
    under random row and column orders, mixed by degree-preserving
    switches so that it is not always a relabelled circulant."""
    m = draw(st.integers(1, max_m))
    r = draw(st.integers(1, min(max_r, m)))
    rng = draw(st.randoms(use_true_random=False))
    rows = rng.sample(range(m), m)
    cols = rng.sample(range(m), m)
    mat = np.zeros((m, m), dtype=np.int8)
    for s in rng.sample(range(m), r):
        mat[rows, [cols[(i + s) % m] for i in range(m)]] = 1
    for _ in range(draw(st.integers(0, 2 * m))):
        i1, i2 = rng.randrange(m), rng.randrange(m)
        j1 = rng.choice(np.flatnonzero(mat[i1]).tolist())
        j2 = rng.choice(np.flatnonzero(mat[i2]).tolist())
        if not mat[i1, j2] and not mat[i2, j1]:
            mat[i1, j1] = mat[i2, j2] = 0
            mat[i1, j2] = mat[i2, j1] = 1
    return mat


# Token edits the readers must survive.  The first four model a damaged
# file (dropped token, swapped indices, an index repeated, an index out
# of range); the rest add junk and reshape lines.
EDITS = ("drop", "swap", "duplicate", "out_of_range")
FUZZ_EDITS = EDITS + ("junk", "drop_line", "repeat_line", "split_line")
JUNK = ("2", "00", "+1", "-1", "300", "x", "1.0", "١", "1_0", "99999999999")


@st.composite
def edited(draw, text, edits=EDITS):
    """`text` with one edit, applied to a non-blank line."""
    lines = text.split("\n")
    at = draw(st.sampled_from([i for i, line in enumerate(lines) if line.split()]))
    tokens = lines[at].split()
    k = draw(st.integers(0, len(tokens) - 1))
    edit = draw(st.sampled_from(edits))
    if edit == "drop":
        del tokens[k]
    elif edit == "swap":
        tokens[k], tokens[k - 1] = tokens[k - 1], tokens[k]
    elif edit == "duplicate":
        tokens[k] = tokens[draw(st.integers(0, len(tokens) - 1))]
    elif edit == "out_of_range":
        tokens[k] = draw(st.sampled_from(["0", str(len(lines) + 1)]))
    elif edit == "junk":
        tokens.insert(k, draw(st.sampled_from(JUNK)))
    elif edit == "drop_line":
        tokens = []
    elif edit == "repeat_line":
        tokens = tokens + ["\n"] + tokens
    else:
        tokens.insert(k, "\n")
    lines[at] = " ".join(tokens)
    return "\n".join(lines)


@st.composite
def format_shaped_texts(draw):
    """Matrix or alist text of a small 0/1 matrix (regular or not),
    with up to three fuzzing edits."""
    if draw(st.booleans()):
        mat = draw(regular_matrices(max_m=8, max_r=3))
    else:
        n = draw(st.integers(1, 6))
        mat = np.array(
            draw(st.lists(st.integers(0, 1), min_size=n * n, max_size=n * n)),
            dtype=np.int8,
        ).reshape(n, n)
    write = draw(st.sampled_from([cells_to_text, cells_to_alist]))
    text = write(*matrix_cells(mat))
    for _ in range(draw(st.integers(0, 3))):
        if not text.split():
            break
        text = draw(edited(text, FUZZ_EDITS))
    return text

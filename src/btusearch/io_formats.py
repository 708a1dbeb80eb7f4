"""Text interchange forms: matrix, alist, DOT, and the JSON reports.

matrix layout: ASCII text of m non-blank lines of m whitespace-separated
tokens, each exactly "0" or "1" (written with single spaces, one trailing
newline).

alist layout (1-based, single spaces, one trailing newline):
  line 1: "N M"                 (both equal to m here)
  line 2: "maxcol maxrow"       (both equal to r)
  line 3: the N column degrees
  line 4: the M row degrees
  next N lines: row indices of each column's entries, ascending
  next M lines: column indices of each row's entries, ascending
"""

from __future__ import annotations

import itertools
import json
import re
from typing import Any, NoReturn

import numpy as np

from .btu import BTU, _cells, _ones, to_biadjacency
from .engine import SearchResult
from .oracle import OracleReport, VerifyReport
from .perms import PartitionP2

# The ASCII characters str.split() takes for whitespace are the line ends
# of str.splitlines(), here all mapped to "\n", and three blanks within
# a line.
_LINE_ENDS = bytes.maketrans(b"\r\x0b\x0c\x1c\x1d\x1e", b"\n" * 6)
_LINE_BLANKS = b" \t\x1f"

# The first non-blank line: what follows the leading whitespace, up to
# the first character at which str.splitlines() ends a line.
_FIRST_LINE = re.compile(r"\s*([^\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]*)")


def matrix_to_text(mat: np.ndarray) -> str:
    """Each row as its 0/1 digits joined by single spaces, one row a line.

    Built as one byte buffer: digits at even columns, spaces between,
    a newline in the last column.  Every digit starts as "0", and the
    ones found by the one scan of the matrix become "1".
    """
    mat = np.asarray(mat)
    rows, cols = _ones(mat)
    line = np.full(2 * mat.shape[1], ord(" "), dtype=np.uint8)
    line[0::2] = ord("0")
    line[-1] = ord("\n")
    buf = np.tile(line, (mat.shape[0], 1))
    buf[rows, 2 * cols] = ord("1")
    return str(buf, "ascii")


def text_to_matrix(text: str) -> np.ndarray:
    """Read m non-blank lines of m whitespace-separated tokens, each
    exactly "0" or "1".

    The text must be ASCII and is read as bytes.  Each token is one
    character exactly when no two non-blank bytes are adjacent; the line
    ends become newlines and the other blanks go, which leaves each line
    as its digits.
    """
    if not text.isascii():
        raise ValueError("matrix entries must be 0 or 1")
    data = text.encode("ascii")
    # Above " " is any byte but a blank or a control byte, and a control
    # byte fails the digit test below.
    above = np.frombuffer(data, dtype=np.uint8) > ord(" ")
    if (above[1:] & above[:-1]).any():
        raise ValueError("matrix entries must be 0 or 1")
    lines = data.translate(_LINE_ENDS, _LINE_BLANKS).split(b"\n")
    # uint8 wraps, so a byte below "0" also reads above 1.
    digits = np.frombuffer(b"".join(lines), dtype=np.uint8) - ord("0")
    if (digits > 1).any():
        raise ValueError("matrix entries must be 0 or 1")
    widths = [w for w in map(len, lines) if w]
    n = len(widths)
    if not n or any(w != n for w in widths):
        raise ValueError("matrix text must be square")
    return digits.reshape(n, n).astype(np.int8)


def _index_lines(major: np.ndarray, minor: np.ndarray, n: int) -> list[str]:
    """For each of 0..n-1 in turn, the 1-based minor indices of the cells
    whose major index it is, in the given order; major ascends."""
    bounds = np.searchsorted(major, np.arange(n + 1)).tolist()
    labels = list(map(str, (minor + 1).tolist()))
    return [" ".join(labels[a:b]) for a, b in zip(bounds, bounds[1:])]


def matrix_to_alist(mat: np.ndarray, cells=None) -> str:
    """The alist text of mat; `cells` are its `btu._cells`, when the
    caller has them."""
    mat = np.asarray(mat)
    n_cols, n_rows = mat.shape[1], mat.shape[0]
    rows, cols = _cells(mat) if cells is None else cells
    # The degrees are the column and row sums, also of a matrix not 0/1.
    values = mat[rows, cols]
    col_deg = np.bincount(cols, values, minlength=n_cols).astype(int)
    row_deg = np.bincount(rows, values, minlength=n_rows).astype(int)
    by_col = np.argsort(cols, kind="stable")  # rows stay ascending per column
    lines = [
        f"{n_cols} {n_rows}",
        f"{int(col_deg.max())} {int(row_deg.max())}",
        " ".join(map(str, col_deg.tolist())),
        " ".join(map(str, row_deg.tolist())),
        *_index_lines(cols[by_col], rows[by_col], n_cols),
        *_index_lines(rows, cols, n_rows),
    ]
    return "\n".join(lines) + "\n"


def alist_to_matrix(text: str) -> np.ndarray:
    """Read the alist layout of the module docstring, for a square matrix.

    The index lines are read as one integer array and checked with
    whole-array operations; the matrix is filled from the cells of the
    column lines.  Only when a check fails are the lines read again one
    at a time, to name the first damaged one.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) < 4:
        raise ValueError("alist needs at least 4 header lines")
    n_cols, n_rows = (int(tok) for tok in lines[0].split())
    if n_cols != n_rows:
        raise ValueError("alist header must describe a square matrix")
    col_deg = [int(tok) for tok in lines[2].split()]
    row_deg = [int(tok) for tok in lines[3].split()]
    if len(col_deg) != n_cols or len(row_deg) != n_rows:
        raise ValueError("alist degree lines disagree with the header")
    if len(lines) != 4 + n_cols + n_rows:
        raise ValueError("alist line count disagrees with the header")
    cells = _alist_cells(lines[4:], n_rows, col_deg)
    if cells is None:
        _raise_first_damage(lines[4:], n_rows, col_deg)
    mat = np.zeros((n_rows, n_cols), dtype=np.int8)
    mat.reshape(-1)[cells] = 1
    return mat


def _alist_cells(index_lines: list[str], n: int, col_deg: list[int]) -> np.ndarray | None:
    """The row-major flat indices of the cells that the n column lines of
    an n x n alist name, or None when the index lines fail any check of
    _raise_first_damage.  Every token is read with int(), as there.
    """
    tokens = [line.split() for line in index_lines]
    counts = np.fromiter(map(len, tokens), dtype=np.int64, count=2 * n)
    try:
        values = np.fromiter(
            map(int, itertools.chain.from_iterable(tokens)),
            dtype=np.int64,
            count=int(counts.sum()),
        )
        degrees_agree = (counts[:n] == np.array(col_deg, dtype=np.int64)).all()
    except (ValueError, OverflowError):  # int() refuses a token, or int64 a value
        return None
    if not (degrees_agree and 1 <= values.min() and values.max() <= n):
        return None
    by_col, by_row = np.split(values - 1, [int(counts[:n].sum())])
    cells = np.unique(by_col * n + np.repeat(np.arange(n), counts[:n]))
    # The row lines agree with the columns when their cells, sorted, are
    # the cells of the column lines: each row line then lists, in some
    # order, exactly the columns of that row's cells.
    claimed = np.sort(np.repeat(np.arange(n), counts[n:]) * n + by_row)
    if len(claimed) != len(cells) or (claimed != cells).any():
        return None
    return cells


def _raise_first_damage(index_lines: list[str], n: int, col_deg: list[int]) -> NoReturn:
    """Raises the ValueError of the first damaged index line of an n x n
    alist, in file order.  Within a line: a token int() refuses, then
    (column lines) the degree, then the index range, then (row lines)
    the disagreement with the cells the column lines name."""
    row_cols: list[set[int]] = [set() for _ in range(n)]
    for j, line in enumerate(index_lines[:n]):
        entries = [int(tok) for tok in line.split()]
        if len(entries) != col_deg[j]:
            raise ValueError(f"column {j + 1} degree mismatch")
        if not 1 <= min(entries) <= max(entries) <= n:
            raise ValueError(f"column {j + 1} has a row index outside 1..{n}")
        for i in entries:
            row_cols[i - 1].add(j + 1)
    for i, line in enumerate(index_lines[n:]):
        entries = [int(tok) for tok in line.split()]
        if not 1 <= min(entries) <= max(entries) <= n:
            raise ValueError(f"row {i + 1} has a column index outside 1..{n}")
        if sorted(entries) != sorted(row_cols[i]):
            raise ValueError(f"row {i + 1} entries disagree with columns")
    raise AssertionError("the whole-array alist checks refused valid lines")


def detect_and_parse(text: str) -> np.ndarray:
    """Parse file content as alist when its header says so, else as matrix.

    The header says alist when the first non-blank line has exactly two
    tokens and there are at least 4 non-blank lines.  A valid matrix
    whose first line has two tokens has only two lines, so no valid
    matrix reads as alist and no valid alist as matrix; the one reader
    chosen reports its own error.
    """
    first = _FIRST_LINE.match(text).group(1)
    if len(first.split()) == 2:
        if sum(1 for line in text.splitlines() if line.strip()) >= 4:
            return alist_to_matrix(text)
    return text_to_matrix(text)


def matrix_to_dot(mat: np.ndarray, cells=None) -> str:
    """One edge per nonzero cell, in row-major order; `cells` are the
    `btu._cells` of mat, when the caller has them."""
    rows, cols = _cells(mat) if cells is None else cells
    lines = ["graph btu {"]
    lines += [
        f"  l{i} -- r{j};" for i, j in zip((rows + 1).tolist(), (cols + 1).tolist())
    ]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _partition_list(betas) -> list[list[int]]:
    return [list(beta.parts) for beta in betas]


def _btu_images(b: BTU) -> list[list[int]]:
    return [list(p.image) for p in b.perms]


def search_result_to_dict(
    result: SearchResult, elapsed: float | None = None
) -> dict[str, Any]:
    from .btu import adjacent_partitions

    f = result.factorization
    data: dict[str, Any] = {
        "m": f.m,
        "r": f.r,
        "b": f.b,
        "k": f.k,
        "girth": result.girth,
        "permutations": _btu_images(result.btu),
        "partitions": _partition_list(adjacent_partitions(result.btu)),
        "traces": [
            {
                "stage": t.stage,
                "n": t.n,
                "rotation_j": t.rotation_j,
                "candidates_evaluated": t.candidates_evaluated,
                "best_girth": t.best_girth,
            }
            for t in result.traces
        ],
        "mode": result.config_echo.mode,
        "policy": result.config_echo.rotation_policy,
    }
    if elapsed is not None:
        data["elapsed_seconds"] = elapsed
    return data


def oracle_report_to_dict(
    report: OracleReport, elapsed: float | None = None
) -> dict[str, Any]:
    data: dict[str, Any] = {
        "m": report.m,
        "r": report.r,
        "max_girth": report.max_girth,
        "maximizer_count": report.maximizer_count,
        "witness": _btu_images(report.witness),
        "enumerated": report.enumerated,
        "first_slot_fixed": report.first_slot_fixed,
    }
    if elapsed is not None:
        data["elapsed_seconds"] = elapsed
    return data


def verify_report_to_dict(
    report: VerifyReport, elapsed: float | None = None
) -> dict[str, Any]:
    data: dict[str, Any] = {
        "m": report.m,
        "r": report.r,
        "engine_girth": report.engine_girth,
        "oracle_girth": report.oracle.max_girth,
        "equal": report.equal,
        "engine_note": report.engine_note,
        "engine_witness": None
        if report.engine_btu is None
        else _btu_images(report.engine_btu),
        "oracle_witness": _btu_images(report.oracle.witness),
        "oracle_enumerated": report.oracle.enumerated,
    }
    if elapsed is not None:
        data["elapsed_seconds"] = elapsed
    return data


def to_json(data: dict[str, Any]) -> str:
    return json.dumps(data, indent=2) + "\n"


def census_to_dict(census: dict[tuple[PartitionP2, ...], int]) -> dict[str, int]:
    """Keys are signature texts like "2+2|4", in descending-count order
    then signature order."""
    items = sorted(
        census.items(), key=lambda kv: (-kv[1], [b.parts for b in kv[0]])
    )
    return {"|".join(b.to_text() for b in sig): count for sig, count in items}


def btu_to_format(b: BTU, fmt: str) -> str:
    mat = to_biadjacency(b)
    if fmt == "matrix":
        return matrix_to_text(mat)
    if fmt == "alist":
        return matrix_to_alist(mat)
    if fmt == "dot":
        return matrix_to_dot(mat)
    raise ValueError(f"unknown format {fmt!r}")

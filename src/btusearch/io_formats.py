"""Text interchange forms: matrix, alist, DOT, and the JSON reports.

A 0/1 matrix travels as its cell list: the sorted row-major flat
indices i*n_cols + j of its ones, as `btu.to_cells` gives them for a
BTU.  Every reader returns (m, cells) and every writer takes a shape
and cells, so no m x m matrix lies between a file and a BTU.  Three
readers also return the dense int8 matrix (text_to_matrix,
alist_to_matrix, detect_and_parse); no writer takes one.

The readers take a file's bytes or a str.  ASCII bytes are read as
they are; other bytes are first decoded as Path.read_text() decodes
them, so a file reads the same either way.  The writers spell their
integers a whole array at a time, gathering rows of digit_table.

matrix layout: ASCII text of m non-blank lines of m whitespace-separated
tokens, each exactly "0" or "1" (written with single spaces, one trailing
newline).  The reader reads the written layout in one pass, as (digit,
separator) byte pairs; any other text goes to a general tokenizer.

alist layout (1-based, single spaces, one trailing newline):
  line 1: "N M"                 (both equal to m here)
  line 2: "maxcol maxrow"       (both equal to r)
  line 3: the N column degrees
  line 4: the M row degrees
  next N lines: row indices of each column's entries, ascending
  next M lines: column indices of each row's entries, ascending
The reader reads the index lines of bytes holding only ASCII digits,
spaces, tabs and line ends in one whole-array pass; any other text
reads each token with int().
"""

from __future__ import annotations

import io
import itertools
import json
import math
import re
from typing import Any, NoReturn

import numpy as np

from .btu import BTU, cells_to_matrix, to_cells
from .engine import SearchResult
from .oracle import OracleReport, VerifyReport
from .perms import PartitionP2

# The ASCII characters str.split() takes for whitespace are the line ends
# of str.splitlines(), here all mapped to "\n", and three blanks within
# a line.
_LINE_ENDS = bytes.maketrans(b"\r\x0b\x0c\x1c\x1d\x1e", b"\n" * 6)
_LINE_BLANKS = b" \t\x1f"

# The first non-blank line: what follows the leading whitespace, up to
# the first character at which str.splitlines() ends a line; the second
# pattern reads ASCII bytes as the first reads their str.
_FIRST_LINE = re.compile(r"\s*([^\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]*)")
_ASCII_FIRST_LINE = re.compile(rb"[\t-\r\x1c-\x1f ]*([^\n\r\x0b\x0c\x1c-\x1e]*)")

# The ASCII digits, and the blanks and line ends that bytes.split() and
# bytes.splitlines() take as str's methods do.
_DIGIT_PATH = b"0123456789\t\n\r "

# int64 holds every value of this many decimal digits.
_MAX_DIGITS = 18

# Pairs the matrix layout check reads at a time.  The buffers of one
# block of rows are reused by the next, where buffers of the whole text
# each fault in fresh pages: at m = 2048 that took three times as long.
_CHECK_PAIRS = 1 << 18


def _zero_row(n: int) -> np.ndarray:
    """The row "0 0 ... 0\n" of n zeros as n little-endian uint16 (digit,
    separator) pairs; a "1" in place of a "0" adds 1 to its pair."""
    row = np.full(n, ord("0") | ord(" ") << 8, dtype="<u2")
    row[-1] = ord("0") | ord("\n") << 8
    return row


def _decoded(data: bytes) -> str:
    """The str Path.read_text() reads from a file holding data."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="locale").read()


def digit_table(top: int, head: bytes = b"", tail: bytes = b"") -> np.ndarray:
    """Row v for each v in 0..top: head, zero bytes, the decimal digits
    of v, then tail, as ASCII bytes, the zero bytes bringing every row to
    one width.  Rows gathered from it and laid side by side spell text
    once their zero bytes are dropped (unpadded)."""
    width = len(str(top))
    rows = np.empty((top + 1, len(head) + width + len(tail)), dtype=np.uint8)
    rows[:, : len(head)] = np.frombuffer(head, dtype=np.uint8)
    rows[:, len(head) + width :] = np.frombuffer(tail, dtype=np.uint8)
    rest = np.arange(top + 1)
    for col in range(len(head) + width - 1, len(head) - 1, -1):
        rows[:, col] = np.where(rest > 0, rest % 10 + ord("0"), 0)
        rest //= 10
    rows[0, len(head) + width - 1] = ord("0")
    return rows


def unpadded(rows: np.ndarray) -> str:
    """The ASCII text of rows gathered from digit_table, without the
    zero bytes."""
    return str(rows[rows != 0].tobytes(), "ascii")


def cells_to_text(shape: tuple[int, int], cells: np.ndarray) -> str:
    """The matrix text of the shape's matrix with a 1 at each sorted
    row-major flat cell: each row as its 0/1 digits joined by single
    spaces, one row a line.

    Built as one buffer of (digit, separator) pairs, row after row of
    "0 " with "0\n" last, so cell c is pair c and becomes "1" by adding 1.
    The buffer is allocated 64 bytes longer than the text.  Once freed,
    it can then hold the text's encoded copy, which writing the str to a
    file makes: a bytes object of the same length plus a 33-byte header.
    An exact-size buffer leaves a hole too small for it, and at m = 2048
    the copy then took 8 MB of fresh memory.
    """
    n_rows, n_cols = shape
    buf = np.empty(n_rows * n_cols + 32, dtype="<u2")[:-32]
    buf.reshape(n_rows, n_cols)[:] = _zero_row(n_cols)
    buf[cells] += 1
    return str(buf, "ascii")


def text_cells(text: str | bytes) -> tuple[int, np.ndarray]:
    """m and the sorted row-major flat cells of the 1 entries of m
    non-blank lines of m whitespace-separated tokens, each exactly "0"
    or "1".

    Text in the exact layout cells_to_text writes is read in one pass,
    as (digit, separator) pairs compared with the rows of zeros, a block
    of rows at a time, on the buffer of the bytes given; any other text
    goes to the general tokenizer, _tokenized_cells.
    """
    if isinstance(text, str) and not text.isascii():
        raise ValueError("matrix entries must be 0 or 1")
    data = text.encode("ascii") if isinstance(text, str) else text
    m = math.isqrt(len(data) // 2)
    if m and 2 * m * m == len(data):
        pairs = np.frombuffer(data, dtype="<u2").reshape(m, m)
        zero, step = _zero_row(m), max(1, _CHECK_PAIRS // m)
        cells = []
        for start in range(0, m, step):
            ones = pairs[start : start + step] ^ zero
            if ones.max() > 1:
                break
            cells.append(np.flatnonzero(ones == 1) + start * m)
        else:
            return m, np.concatenate(cells)
    if not data.isascii():
        _decoded(data)  # bytes Path.read_text() cannot decode raise its error
        raise ValueError("matrix entries must be 0 or 1")
    return _tokenized_cells(data)


def _tokenized_cells(data: bytes) -> tuple[int, np.ndarray]:
    """text_cells of any ASCII text, as bytes.

    Each token is one character exactly when no two non-blank bytes are
    adjacent; the line ends become newlines and the other blanks go,
    which leaves each line as its digits.
    """
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
    return n, np.flatnonzero(digits == 1)


def text_to_matrix(text: str | bytes) -> np.ndarray:
    """The int8 matrix of text_cells."""
    return cells_to_matrix(*text_cells(text))


def _index_lines(major: np.ndarray, minor: np.ndarray, n: int) -> str:
    """For each of 0..n-1 in turn, a line of the 1-based minor indices of
    the cells whose major index it is, in the given order; major ascends.

    Each index is spelled with a space after it, the last of a line with
    a newline; an empty line is one token, label 0, which spells nothing
    but its separator.
    """
    bounds = np.searchsorted(major, np.arange(n + 1))
    sizes = np.diff(bounds)
    labels = np.insert(minor + 1, bounds[:-1][sizes == 0], 0)
    table = digit_table(int(labels.max()), tail=b" ")
    table[0, :-1] = 0
    spelled = table[labels]
    spelled[np.cumsum(np.maximum(sizes, 1)) - 1, -1] = ord("\n")
    return unpadded(spelled)


def cells_to_alist(shape: tuple[int, int], cells: np.ndarray) -> str:
    """The alist text of the shape's matrix with a 1 at each sorted
    row-major flat cell.  The degree lines count the cells."""
    n_rows, n_cols = shape
    rows, cols = np.divmod(cells, n_cols)
    col_deg = np.bincount(cols, minlength=n_cols)
    row_deg = np.bincount(rows, minlength=n_rows)
    by_col = np.argsort(cols, kind="stable")  # rows stay ascending per column
    header = [
        f"{n_cols} {n_rows}",
        f"{int(col_deg.max())} {int(row_deg.max())}",
        " ".join(map(str, col_deg.tolist())),
        " ".join(map(str, row_deg.tolist())),
    ]
    # The row lines follow the column lines as majors n_cols and up.
    index = _index_lines(
        np.concatenate([cols[by_col], rows + n_cols]),
        np.concatenate([rows[by_col], cols]),
        n_cols + n_rows,
    )
    return "\n".join(header) + "\n" + index


def _nonblank_lines(text: str | bytes) -> list[str] | list[bytes]:
    """The non-blank lines of text.  Bytes of _DIGIT_PATH alone stay
    bytes, which split as their str does; other ASCII bytes are read as
    str, and any other bytes as _decoded reads them."""
    if isinstance(text, bytes):
        if not text.isascii():
            text = _decoded(text)
        elif text.translate(None, _DIGIT_PATH):
            text = str(text, "ascii")
    return [line for line in text.splitlines() if line.strip()]


def alist_cells(text: str | bytes) -> tuple[int, np.ndarray]:
    """m and the sorted row-major flat cells of the square alist text of
    the module docstring."""
    return _alist_cells(_nonblank_lines(text))


def _alist_cells(lines: list[str] | list[bytes]) -> tuple[int, np.ndarray]:
    """alist_cells of the non-blank lines of the text.

    The index lines are read as one integer array and checked with
    whole-array operations.  Only when a check fails are the lines read
    again one at a time, to name the first damaged one.
    """
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
    cells = _index_cells(lines[4:], n_rows, col_deg + row_deg)
    if cells is None:
        _raise_first_damage(lines[4:], n_rows, col_deg + row_deg)
    return n_rows, cells


def alist_to_matrix(text: str | bytes) -> np.ndarray:
    """The int8 matrix of alist_cells."""
    return cells_to_matrix(*alist_cells(text))


def _digit_values(lines: list[bytes]) -> tuple[np.ndarray, np.ndarray] | None:
    """The token count of each line and every token's value, in order,
    of lines of ASCII digits, spaces and tabs; None when a token has
    more than _MAX_DIGITS digits.

    One pass over the lines joined: tokens start and end where a digit
    run does, the values are built one digit column at a time from the
    tokens' ends, and a line's count is the tokens started before its end.
    """
    buf = np.frombuffer(b"\n".join(lines) + b"\n", dtype=np.uint8)
    digit = buf - ord("0") < 10  # uint8 wraps, so a byte below "0" reads above
    edges = np.flatnonzero(np.diff(digit, prepend=False))
    starts, ends = edges[0::2], edges[1::2]  # the text ends in a non-digit
    lengths = ends - starts
    if lengths.max() > _MAX_DIGITS:
        return None
    values = np.zeros(len(starts), dtype=np.int64)
    for place in range(int(lengths.max())):
        column = buf[ends - 1 - place].astype(np.int64) - ord("0")
        values += np.where(lengths > place, column, 0) * 10**place
    line_ends = np.flatnonzero(buf == ord("\n"))
    counts = np.diff(np.searchsorted(starts, line_ends), prepend=0)
    return counts, values


def _int_values(lines: list[str] | list[bytes]) -> tuple[np.ndarray, np.ndarray] | None:
    """_digit_values of any lines, each token read with int(); None when
    int() refuses a token or int64 its value."""
    tokens = [line.split() for line in lines]
    counts = np.fromiter(map(len, tokens), dtype=np.int64, count=len(tokens))
    try:
        values = np.fromiter(
            map(int, itertools.chain.from_iterable(tokens)),
            dtype=np.int64,
            count=int(counts.sum()),
        )
    except (ValueError, OverflowError):
        return None
    return counts, values


def _index_cells(
    index_lines: list[str] | list[bytes], n: int, degrees: list[int]
) -> np.ndarray | None:
    """The row-major flat indices of the cells that the n column lines of
    an n x n alist name, or None when the index lines fail any check of
    _raise_first_damage; degrees holds the column degrees, then the row
    degrees.  Lines of bytes, digits and blanks alone (see
    _nonblank_lines), are read by _digit_values; other lines, and tokens
    too long for it, by _int_values, which reads them as there.
    """
    read = _digit_values(index_lines) if isinstance(index_lines[0], bytes) else None
    if read is None:
        read = _int_values(index_lines)
        if read is None:
            return None
    counts, values = read
    try:
        degrees_agree = (counts == np.array(degrees, dtype=np.int64)).all()
    except OverflowError:  # a degree beyond int64
        return None
    if not (degrees_agree and 1 <= values.min() and values.max() <= n):
        return None
    by_col, by_row = np.split(values - 1, [int(counts[:n].sum())])
    # A column line that names a row twice names a cell twice.
    cells = np.sort(by_col * n + np.repeat(np.arange(n), counts[:n]))
    if (cells[1:] == cells[:-1]).any():
        return None
    # The row lines agree with the columns when their cells, sorted, are
    # the cells of the column lines: each row line then lists, once each
    # and in some order, exactly the columns of that row's cells.
    claimed = np.sort(np.repeat(np.arange(n), counts[n:]) * n + by_row)
    if len(claimed) != len(cells) or (claimed != cells).any():
        return None
    return cells


def _raise_first_damage(index_lines: list[str], n: int, degrees: list[int]) -> NoReturn:
    """Raises the ValueError of the first damaged index line of an n x n
    alist, in file order; degrees holds the column degrees, then the row
    degrees.  Within a line: a token int() refuses, then the degree, then
    the index range, then an index named twice, then (row lines) the
    disagreement with the cells the column lines name."""
    row_cols: list[set[int]] = [set() for _ in range(n)]
    for at, line in enumerate(index_lines):
        kind, other = ("column", "row") if at < n else ("row", "column")
        entries = [int(tok) for tok in line.split()]
        if len(entries) != degrees[at]:
            raise ValueError(f"{kind} {at % n + 1} degree mismatch")
        if not 1 <= min(entries) <= max(entries) <= n:
            raise ValueError(f"{kind} {at % n + 1} has a {other} index outside 1..{n}")
        if len(set(entries)) < len(entries):
            raise ValueError(f"{kind} {at % n + 1} names a {other} twice")
        if at < n:
            for i in entries:
                row_cols[i - 1].add(at + 1)
        elif set(entries) != row_cols[at - n]:
            raise ValueError(f"row {at - n + 1} entries disagree with columns")
    raise AssertionError("the whole-array alist checks refused valid lines")


def _first_line(text: str | bytes) -> str:
    """The first non-blank line of text, bytes read as _decoded reads
    them.  Only the bytes up to its end are read when they are ASCII."""
    if isinstance(text, bytes):
        head = _ASCII_FIRST_LINE.match(text)
        if text[: head.end()].isascii():
            return str(head.group(1), "ascii")
        text = _decoded(text)
    return _FIRST_LINE.match(text).group(1)


def parse_cells(text: str | bytes) -> tuple[int, np.ndarray]:
    """alist_cells of file content when its header says alist, else
    text_cells.

    The header says alist when the first non-blank line has exactly two
    tokens and there are at least 4 non-blank lines.  A valid matrix
    whose first line has two tokens has only two lines, so no valid
    matrix reads as alist and no valid alist as matrix; the one reader
    chosen reports its own error.
    """
    if len(_first_line(text).split()) == 2:
        lines = _nonblank_lines(text)
        if len(lines) >= 4:
            return _alist_cells(lines)
    return text_cells(text)


def detect_and_parse(text: str | bytes) -> np.ndarray:
    """The int8 matrix of parse_cells."""
    return cells_to_matrix(*parse_cells(text))


def cells_to_dot(shape: tuple[int, int], cells: np.ndarray) -> str:
    """One edge per sorted row-major flat cell of the shape's matrix."""
    rows, cols = np.divmod(cells, shape[1])
    left = digit_table(shape[0], b"  l", b" -- r")[rows + 1]
    right = digit_table(shape[1], tail=b";\n")[cols + 1]
    edges = np.concatenate([left, right], axis=1)
    return "graph btu {\n" + unpadded(edges) + "}\n"


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
    writers = {"matrix": cells_to_text, "alist": cells_to_alist, "dot": cells_to_dot}
    if fmt not in writers:
        raise ValueError(f"unknown format {fmt!r}")
    return writers[fmt]((b.m, b.m), to_cells(b))

"""Text interchange forms: matrix, alist, DOT, and the JSON reports.

alist layout (1-based, single spaces, one trailing newline):
  line 1: "N M"                 (both equal to m here)
  line 2: "maxcol maxrow"       (both equal to r)
  line 3: the N column degrees
  line 4: the M row degrees
  next N lines: row indices of each column's entries, ascending
  next M lines: column indices of each row's entries, ascending
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .btu import BTU, to_biadjacency
from .engine import SearchResult
from .oracle import OracleReport, VerifyReport
from .perms import PartitionP2


def matrix_to_text(mat: np.ndarray) -> str:
    return "\n".join(" ".join(str(int(x)) for x in row) for row in mat) + "\n"


def text_to_matrix(text: str) -> np.ndarray:
    rows = [
        [int(tok) for tok in line.split()]
        for line in text.splitlines()
        if line.strip()
    ]
    if not rows or any(len(row) != len(rows) for row in rows):
        raise ValueError("matrix text must be square")
    mat = np.array(rows, dtype=np.int8)
    if not np.isin(mat, (0, 1)).all():
        raise ValueError("matrix entries must be 0 or 1")
    return mat


def matrix_to_alist(mat: np.ndarray) -> str:
    mat = np.asarray(mat)
    n_cols, n_rows = mat.shape[1], mat.shape[0]
    col_deg = mat.sum(axis=0).astype(int)
    row_deg = mat.sum(axis=1).astype(int)
    lines = [
        f"{n_cols} {n_rows}",
        f"{int(col_deg.max())} {int(row_deg.max())}",
        " ".join(str(d) for d in col_deg),
        " ".join(str(d) for d in row_deg),
    ]
    for j in range(n_cols):
        lines.append(" ".join(str(i + 1) for i in range(n_rows) if mat[i, j]))
    for i in range(n_rows):
        lines.append(" ".join(str(j + 1) for j in range(n_cols) if mat[i, j]))
    return "\n".join(lines) + "\n"


def alist_to_matrix(text: str) -> np.ndarray:
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) < 4:
        raise ValueError("alist needs at least 4 header lines")
    n_cols, n_rows = (int(tok) for tok in lines[0].split())
    col_deg = [int(tok) for tok in lines[2].split()]
    row_deg = [int(tok) for tok in lines[3].split()]
    if len(col_deg) != n_cols or len(row_deg) != n_rows:
        raise ValueError("alist degree lines disagree with the header")
    if len(lines) != 4 + n_cols + n_rows:
        raise ValueError("alist line count disagrees with the header")
    mat = np.zeros((n_rows, n_cols), dtype=np.int8)
    for j in range(n_cols):
        entries = [int(tok) for tok in lines[4 + j].split()]
        if len(entries) != col_deg[j]:
            raise ValueError(f"column {j + 1} degree mismatch")
        if not all(1 <= i <= n_rows for i in entries):
            raise ValueError(f"column {j + 1} has a row index outside 1..{n_rows}")
        for i in entries:
            mat[i - 1, j] = 1
    for i in range(n_rows):
        entries = [int(tok) for tok in lines[4 + n_cols + i].split()]
        if not all(1 <= j <= n_cols for j in entries):
            raise ValueError(f"row {i + 1} has a column index outside 1..{n_cols}")
        if sorted(entries) != [j + 1 for j in range(n_cols) if mat[i, j]]:
            raise ValueError(f"row {i + 1} entries disagree with columns")
    return mat


def detect_and_parse(text: str) -> np.ndarray:
    """Interpret file content as alist if it validates, else as matrix."""
    try:
        return alist_to_matrix(text)
    except ValueError:
        return text_to_matrix(text)


def matrix_to_dot(mat: np.ndarray) -> str:
    lines = ["graph btu {"]
    for i in range(mat.shape[0]):
        for j in range(mat.shape[1]):
            if mat[i, j]:
                lines.append(f"  l{i + 1} -- r{j + 1};")
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

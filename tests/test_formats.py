"""Matrix/alist/DOT text forms and the JSON report schema."""

import hashlib
import json

import numpy as np
import pytest
from helpers import matrix_cells
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import EDITS, FUZZ_EDITS, edited, format_shaped_texts, regular_matrices

from btusearch import io_formats
from btusearch.btu import decompose, decompose_matrix, girth, make_btu, to_biadjacency, to_cells
from btusearch.engine import search
from btusearch.io_formats import (
    alist_cells,
    alist_to_matrix,
    btu_to_format,
    cells_to_alist,
    cells_to_dot,
    cells_to_text,
    census_to_dict,
    detect_and_parse,
    parse_cells,
    search_result_to_dict,
    text_cells,
    text_to_matrix,
    to_json,
)
from btusearch.perms import PartitionP2, Permutation, circular_rotation, identity

ALIST_I4_C1 = """4 4
2 2
2 2 2 2
2 2 2 2
1 2
2 3
3 4
1 4
1 4
1 2
2 3
3 4
"""


@pytest.fixture
def small_btu():
    return make_btu([identity(4), circular_rotation(4, 1)])


class TestMatrixText:
    def test_round_trip(self, small_btu):
        mat = to_biadjacency(small_btu)
        assert (text_to_matrix(cells_to_text(*matrix_cells(mat))) == mat).all()

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            text_to_matrix("1 0\n1\n")

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            text_to_matrix("2 0\n0 2\n")


class TestAlist:
    def test_golden_layout(self, small_btu):
        assert cells_to_alist(*matrix_cells(to_biadjacency(small_btu))) == ALIST_I4_C1

    def test_round_trip_bytes(self, small_btu):
        mat = to_biadjacency(small_btu)
        text = cells_to_alist(*matrix_cells(mat))
        back = alist_to_matrix(text)
        assert (back == mat).all()
        assert cells_to_alist(*matrix_cells(back)) == text

    def test_corrupt_alist_rejected(self):
        bad = ALIST_I4_C1.replace("1 2\n2 3", "1 2\n2 4", 1)
        with pytest.raises(ValueError):
            alist_to_matrix(bad)


def alist_3x3(col1="1 3", row3="1 3"):
    """Identity plus the unit rotation at m = 3, with two lines replaceable."""
    return f"3 3\n2 2\n2 2 2\n2 2 2\n{col1}\n1 2\n2 3\n1 2\n2 3\n{row3}\n"


class TestAlistIndexRange:
    def test_template_is_valid(self):
        assert alist_to_matrix(alist_3x3()).sum() == 6

    @pytest.mark.parametrize(
        "lines",
        [{"col1": "1 0"}, {"col1": "1 9"}, {"row3": "0 3"}, {"row3": "1 9"}],
        ids=["column-0", "column-9", "row-0", "row-9"],
    )
    def test_out_of_range_index_rejected(self, lines):
        with pytest.raises(ValueError, match="outside 1..3"):
            alist_to_matrix(alist_3x3(**lines))


class TestDetect:
    def test_alist_detected(self, small_btu):
        mat = to_biadjacency(small_btu)
        assert (detect_and_parse(cells_to_alist(*matrix_cells(mat))) == mat).all()

    def test_matrix_detected(self, small_btu):
        mat = to_biadjacency(small_btu)
        assert (detect_and_parse(cells_to_text(*matrix_cells(mat))) == mat).all()

    def test_tiny_all_ones_matrix_is_not_mistaken_for_alist(self):
        assert (detect_and_parse("1 1\n1 1\n") == np.ones((2, 2))).all()


class TestDot:
    def test_edges_row_major(self):
        mat = np.array([[1, 1], [1, 1]])
        assert cells_to_dot(*matrix_cells(mat)) == (
            "graph btu {\n"
            "  l1 -- r1;\n"
            "  l1 -- r2;\n"
            "  l2 -- r1;\n"
            "  l2 -- r2;\n"
            "}\n"
        )


class TestJsonReport:
    def test_schema_fields_and_round_trip(self):
        result = search(9, 3)
        data = json.loads(to_json(search_result_to_dict(result)))
        assert list(data) == [
            "m", "r", "b", "k", "girth", "permutations", "partitions",
            "traces", "mode", "policy",
        ]
        assert (data["m"], data["r"], data["b"], data["k"]) == (9, 3, 1, 3)
        assert data["girth"] == result.girth
        assert data["partitions"] == [[3, 3, 3], [9]]
        assert data["mode"] == "best" and data["policy"] == "relaxed"
        assert [list(p.image) for p in result.btu.perms] == data["permutations"]
        for trace in data["traces"]:
            assert list(trace) == [
                "stage", "n", "rotation_j", "candidates_evaluated", "best_girth",
            ]

    def test_timing_field_is_optional(self):
        result = search(4, 2)
        with_timing = search_result_to_dict(result, elapsed=0.5)
        without = search_result_to_dict(result)
        assert "elapsed_seconds" in with_timing
        assert "elapsed_seconds" not in without

    def test_census_keys(self):
        census = {
            (PartitionP2((4,)),): 6,
            (PartitionP2((2, 2)),): 3,
        }
        assert census_to_dict(census) == {"4": 6, "2+2": 3}


class TestBtuFormats:
    def test_all_formats_represent_the_same_graph(self, small_btu):
        mat = to_biadjacency(small_btu)
        assert text_to_matrix(btu_to_format(small_btu, "matrix")).tolist() == mat.tolist()
        assert alist_to_matrix(btu_to_format(small_btu, "alist")).tolist() == mat.tolist()
        assert btu_to_format(small_btu, "dot").count("--") == int(mat.sum())

    def test_girth_invariant_across_forms(self, small_btu):
        from btusearch.btu import decompose_matrix

        g = girth(small_btu).girth
        mat = to_biadjacency(small_btu)
        for write in (cells_to_text, cells_to_alist):
            text = write(*matrix_cells(mat))
            assert girth(decompose_matrix(detect_and_parse(text))).girth == g


# The five readers and writers as they were before the whole-array
# rewrite, each a Python loop over the m x m cells, kept as the
# reference the rewrite is tested against.


def ref_matrix_to_text(mat):
    return "\n".join(" ".join(str(int(x)) for x in row) for row in mat) + "\n"


def ref_text_to_matrix(text):
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


def ref_matrix_to_alist(mat):
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


def ref_alist_to_matrix(text):
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
        if len(set(entries)) < len(entries):
            raise ValueError(f"column {j + 1} names a row twice")
        for i in entries:
            mat[i - 1, j] = 1
    for i in range(n_rows):
        entries = [int(tok) for tok in lines[4 + n_cols + i].split()]
        if len(entries) != row_deg[i]:
            raise ValueError(f"row {i + 1} degree mismatch")
        if not all(1 <= j <= n_cols for j in entries):
            raise ValueError(f"row {i + 1} has a column index outside 1..{n_cols}")
        if len(set(entries)) < len(entries):
            raise ValueError(f"row {i + 1} names a column twice")
        if sorted(entries) != [j + 1 for j in range(n_cols) if mat[i, j]]:
            raise ValueError(f"row {i + 1} entries disagree with columns")
    return mat


def per_line_alist_to_matrix(text):
    """alist_to_matrix as it was before the index lines were read as one
    array: per-line int() loops, with the square header check the
    reference lacks.  Its messages are the ones the reader keeps."""
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
    rows, cols = [], []
    for j in range(n_cols):
        entries = [int(tok) for tok in lines[4 + j].split()]
        if len(entries) != col_deg[j]:
            raise ValueError(f"column {j + 1} degree mismatch")
        if not 1 <= min(entries) <= max(entries) <= n_rows:
            raise ValueError(f"column {j + 1} has a row index outside 1..{n_rows}")
        if len(set(entries)) < len(entries):
            raise ValueError(f"column {j + 1} names a row twice")
        rows += entries
        cols += [j] * len(entries)
    mat = np.zeros((n_rows, n_cols), dtype=np.int8)
    mat[np.array(rows, dtype=np.intp) - 1, np.array(cols, dtype=np.intp)] = 1
    for i in range(n_rows):
        entries = [int(tok) for tok in lines[4 + n_cols + i].split()]
        if len(entries) != row_deg[i]:
            raise ValueError(f"row {i + 1} degree mismatch")
        if not 1 <= min(entries) <= max(entries) <= n_cols:
            raise ValueError(f"row {i + 1} has a column index outside 1..{n_cols}")
        if len(set(entries)) < len(entries):
            raise ValueError(f"row {i + 1} names a column twice")
        if sorted(entries) != (np.flatnonzero(mat[i]) + 1).tolist():
            raise ValueError(f"row {i + 1} entries disagree with columns")
    return mat


def read_message(read, text):
    """The matrix `read` returns, or the type and message it raises."""
    try:
        mat = read(text)
    except Exception as exc:  # noqa: BLE001  the type is part of the answer
        return type(exc).__name__, str(exc)
    return mat.dtype, mat.tolist()


def ref_detect_and_parse(text):
    try:
        return ref_alist_to_matrix(text)
    except ValueError:
        return ref_text_to_matrix(text)


def ref_matrix_to_dot(mat):
    lines = ["graph btu {"]
    for i in range(mat.shape[0]):
        for j in range(mat.shape[1]):
            if mat[i, j]:
                lines.append(f"  l{i + 1} -- r{j + 1};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def read_outcome(read, text):
    """The matrix `read` returns (with its dtype), or ValueError."""
    try:
        mat = read(text)
    except ValueError:
        return ValueError
    return mat.dtype, mat.tolist()


READERS = [
    (text_to_matrix, ref_text_to_matrix, cells_to_text),
    (alist_to_matrix, ref_alist_to_matrix, cells_to_alist),
    (detect_and_parse, ref_detect_and_parse, cells_to_text),
    (detect_and_parse, ref_detect_and_parse, cells_to_alist),
]


class TestRewriteMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(mat=regular_matrices())
    def test_writers_byte_identical(self, mat):
        assert cells_to_text(*matrix_cells(mat)) == ref_matrix_to_text(mat)
        assert cells_to_alist(*matrix_cells(mat)) == ref_matrix_to_alist(mat)
        assert cells_to_dot(*matrix_cells(mat)) == ref_matrix_to_dot(mat)

    @settings(max_examples=100, deadline=None)
    @given(mat=regular_matrices())
    def test_readers_agree_on_valid_text(self, mat):
        for read, ref_read, write in READERS:
            text = write(*matrix_cells(mat))
            assert read_outcome(read, text) == read_outcome(ref_read, text)
            assert (read(text) == mat).all()

    @settings(max_examples=300, deadline=None)
    @given(mat=regular_matrices(max_m=12), data=st.data())
    def test_readers_agree_on_damaged_text(self, mat, data):
        for read, ref_read, write in READERS:
            text = data.draw(edited(write(*matrix_cells(mat)), EDITS))
            assert read_outcome(read, text) == read_outcome(ref_read, text)

    @settings(max_examples=300, deadline=None)
    @given(mat=regular_matrices(max_m=12), data=st.data())
    def test_alist_reader_under_fuzzing(self, mat, data):
        text = cells_to_alist(*matrix_cells(mat))
        for _ in range(2):
            if text.split():
                text = data.draw(edited(text, FUZZ_EDITS))
        assert read_outcome(alist_to_matrix, text) == read_outcome(ref_alist_to_matrix, text)
        assert read_message(alist_to_matrix, text) == read_message(per_line_alist_to_matrix, text)
        # The bytes of the text, as a file holds them, read as the text.
        data = text.encode()
        assert read_message(alist_to_matrix, data) == read_message(per_line_alist_to_matrix, text)
        assert read_message(detect_and_parse, data) == read_message(detect_and_parse, text)

    @pytest.mark.parametrize(
        "at, line, message",
        [
            (2, "99999999999999999999 2 2", "column 1 degree mismatch"),
            (4, "1 99999999999999999999", "column 1 has a row index outside 1..3"),
            (7, "-99999999999999999999 2", "row 1 has a column index outside 1..3"),
            (8, "١ 3", "row 2 entries disagree with columns"),
            (9, "x 3", "invalid literal for int() with base 10: 'x'"),
        ],
    )
    def test_alist_damaged_line_named(self, at, line, message):
        # Values beyond int64 are read as int() reads them, not refused
        # with an OverflowError.
        lines = alist_3x3().split("\n")
        lines[at] = line
        text = "\n".join(lines)
        assert read_message(alist_to_matrix, text) == ("ValueError", message)
        assert read_message(per_line_alist_to_matrix, text) == ("ValueError", message)

    def test_alist_doubled_index_named(self):
        # Column 1 names row 1 twice and row 1 names column 1 twice: the
        # cells of the column and row lines agree only as lists with
        # repeats.  The column line comes first in the file.
        text = "2 2\n2 2\n2 2\n2 2\n1 1\n1 2\n1 1 2\n2\n"
        for data in (text, text.encode()):
            assert read_message(alist_to_matrix, data) == (
                "ValueError", "column 1 names a row twice"
            )

    @pytest.mark.parametrize(
        "text,message",
        [
            # Column 1 names row 1 twice, and the row lines agree with the
            # columns as sets: it read as cells [0, 1, 3] before.
            ("2 2\n2 2\n2 2\n2 2\n1 1\n1 2\n1 2\n2\n", "column 1 names a row twice"),
            # Row 1 names column 2 twice; the column lines hold no repeat.
            ("2 2\n2 2\n1 2\n2 1\n2\n1 2\n2 2\n2\n", "row 1 names a column twice"),
            # Row 2 lists one column where the row degrees say 2.
            ("2 2\n2 2\n1 2\n2 2\n1\n1 2\n1 2\n2\n", "row 2 degree mismatch"),
        ],
        ids=["column-twice-rows-agree", "row-twice", "row-degree"],
    )
    def test_alist_strict_lines_named(self, text, message):
        for data in (text, text.encode()):
            assert read_message(alist_to_matrix, data) == ("ValueError", message)
        assert read_message(per_line_alist_to_matrix, text) == ("ValueError", message)
        assert read_outcome(ref_alist_to_matrix, text) == ValueError

    def test_alist_tokens_read_as_int_reads_them(self):
        text = alist_3x3(col1="+1 ٣", row3="0_1 3")
        assert (alist_to_matrix(text) == alist_to_matrix(alist_3x3())).all()

    @pytest.mark.parametrize("token", ["00", "+1", "١", "0_0"])
    def test_token_grammar_is_exactly_0_or_1(self, token):
        # The reference read these through int(); the grammar now takes
        # only the one-character tokens "0" and "1".
        text = f"{token} 0\n0 1\n"
        assert ref_text_to_matrix(text)[1].tolist() == [0, 1]
        with pytest.raises(ValueError, match="matrix entries must be 0 or 1"):
            text_to_matrix(text)

    def test_entry_beyond_int8_is_a_value_error(self):
        with pytest.raises(OverflowError):
            ref_text_to_matrix("300 1\n1 1\n")
        with pytest.raises(ValueError, match="matrix entries must be 0 or 1"):
            text_to_matrix("300 1\n1 1\n")

    def test_matrix_writer_rejects_non_binary(self):
        # A matrix reaches the writers only as the cells of its ones,
        # which decompose_matrix takes only from a 0/1 matrix.
        with pytest.raises(ValueError, match="matrix entries must be 0 or 1"):
            decompose_matrix(np.array([[2, 0], [0, 1]]))


# The ASCII characters str.split() takes for whitespace; the line ends
# str.splitlines() knows among them (with "\r\n"); the rest.
ASCII_BLANKS = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"
LINE_ENDS = ("\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e")
LINE_BLANKS = " \t\x1f"


@st.composite
def respaced(draw, mat, separators=LINE_BLANKS):
    """The matrix text of mat with each separator a run of `separators`,
    each line end one of LINE_ENDS, and blank lines and blanks around."""
    pad = st.text(alphabet=LINE_BLANKS, max_size=2)
    gap = st.text(alphabet=separators, min_size=1, max_size=3)
    end = st.sampled_from(LINE_ENDS)
    out = draw(pad) + draw(end) if draw(st.booleans()) else ""
    for row in mat.tolist():
        out += draw(pad) + "".join(f"{x}{draw(gap)}" for x in row[:-1])
        out += f"{row[-1]}{draw(pad)}{draw(end)}"
        if draw(st.booleans()):
            out += draw(pad) + draw(end)
    return out + draw(pad)


class TestMatrixGrammar:
    """The matrix reader reads ASCII text as the reference did."""

    @pytest.mark.parametrize(
        "text",
        [
            "0\t1\n1\t0\n",
            "0\x1f1\n1 \t\x1f 0",
            "0 1\r1 0\r",
            "0 1\r\n1 0\r\n",
            "0 1\x0b1 0\x0c",
            "0 1\x1c1 0\x1d\x1e",
            "\n \n\t0 1 \n\n 1 0\t\n\n",
            "0\x0b1\n1\x0c0\n",
            "0\x1c1\x1d1\x1e0\n",
        ],
    )
    def test_ascii_whitespace_reads_as_the_reference(self, text):
        assert read_outcome(text_to_matrix, text) == read_outcome(ref_text_to_matrix, text)
        assert read_outcome(detect_and_parse, text) == read_outcome(ref_text_to_matrix, text)
        assert read_outcome(detect_and_parse, text.encode()) == read_outcome(ref_text_to_matrix, text)

    @settings(max_examples=150, deadline=None)
    @given(mat=regular_matrices(max_m=8), data=st.data())
    def test_respaced_text_reads_back(self, mat, data):
        text = data.draw(respaced(mat))
        assert read_outcome(text_to_matrix, text) == read_outcome(ref_text_to_matrix, text)
        assert (text_to_matrix(text) == mat).all()
        assert (detect_and_parse(text) == mat).all()

    @settings(max_examples=150, deadline=None)
    @given(mat=regular_matrices(max_m=8), data=st.data())
    def test_any_ascii_separator_reads_as_the_reference(self, mat, data):
        # Separators that end a line make the text ragged for both readers.
        text = data.draw(respaced(mat, separators=ASCII_BLANKS))
        assert read_outcome(text_to_matrix, text) == read_outcome(ref_text_to_matrix, text)
        assert read_outcome(detect_and_parse, text.encode()) == read_outcome(ref_text_to_matrix, text)

    @pytest.mark.parametrize("text", ["0\u00a01\n1 0\n", "0 1\u20281 0\n"])
    def test_non_ascii_text_is_refused(self, text):
        # The reference read both: str.split() takes U+00A0 for a blank,
        # and str.splitlines() ends a line at U+2028.
        assert ref_text_to_matrix(text).tolist() == [[0, 1], [1, 0]]
        with pytest.raises(ValueError, match="matrix entries must be 0 or 1"):
            text_to_matrix(text)
        with pytest.raises(ValueError, match="matrix entries must be 0 or 1"):
            detect_and_parse(text)

    @settings(max_examples=50, deadline=None)
    @given(mat=regular_matrices())
    def test_writers_on_int64_and_bool(self, mat):
        for cast in (mat.astype(np.int64), mat.astype(bool)):
            assert cells_to_text(*matrix_cells(cast)) == ref_matrix_to_text(cast)
            assert cells_to_alist(*matrix_cells(cast)) == ref_matrix_to_alist(cast)
            assert cells_to_dot(*matrix_cells(cast)) == ref_matrix_to_dot(cast)


class TestM2000CirculantTexts:
    # SHA-256 of each text as the cell-by-cell writers produced it.
    DIGESTS = {
        "matrix": "27800d0afb59cb131cbf8daf1b2a4c0f1b11efc1ebf8198f47321f0ccd584c0a",
        "alist": "b1ebcd1bfefe5ef189aa86996787a907e3250a242b60d78b7469071451d909dd",
        "dot": "26ff4ed13501bc7e7723f28cff6b7b1d55011894ba2c122952f984fccafef81d",
    }

    def test_digests_and_read_back(self):
        m = 2000
        b = make_btu([identity(m), circular_rotation(m, 1), circular_rotation(m, 3)])
        mat = to_biadjacency(b)
        texts = {fmt: btu_to_format(b, fmt) for fmt in self.DIGESTS}
        digests = {f: hashlib.sha256(t.encode()).hexdigest() for f, t in texts.items()}
        assert digests == self.DIGESTS
        assert (detect_and_parse(texts["matrix"]) == mat).all()
        assert (detect_and_parse(texts["alist"]) == mat).all()


class TestDetectChoosesOneReader:
    def test_alist_error_is_reported(self):
        message = r"column 1 has a row index outside 1\.\.3"
        with pytest.raises(ValueError, match=message):
            detect_and_parse(alist_3x3(col1="1 9"))

    def test_non_square_alist_rejected(self):
        with pytest.raises(ValueError, match="square"):
            detect_and_parse("2 1\n1 2\n1 1\n2\n1\n1\n1 2\n")

    @settings(max_examples=300, deadline=None)
    @given(text=format_shaped_texts())
    def test_fuzz_returns_square_binary_or_value_error(self, text):
        try:
            mat = detect_and_parse(text)
        except ValueError:
            return
        assert mat.dtype == np.int8 and mat.ndim == 2
        assert mat.shape[0] == mat.shape[1] >= 1
        assert np.isin(mat, (0, 1)).all()


# One edit of a text cells_to_text wrote.  Each but "none" leaves the
# exact layout, so the layout check must hand the text to the tokenizer.
MUTATIONS = (
    "none", "digit", "tab", "no_final_newline", "crlf", "leading_blank",
    "trailing_blank", "short_row",
)


@st.composite
def mutated_matrix_texts(draw, mat):
    text = cells_to_text(*matrix_cells(mat))
    kind = draw(st.sampled_from(MUTATIONS if len(mat) > 1 else [k for k in MUTATIONS if k != "tab"]))
    if kind == "digit":
        at = 2 * draw(st.integers(0, len(text) // 2 - 1))
        text = text[:at] + draw(st.sampled_from("2a")) + text[at + 1 :]
    elif kind == "tab":
        at = draw(st.sampled_from([i for i, c in enumerate(text) if c == " "]))
        text = text[:at] + "\t" + text[at + 1 :]
    elif kind == "no_final_newline":
        text = text[:-1]
    elif kind == "crlf":
        text = text.replace("\n", "\r\n")
    elif kind == "leading_blank":
        text = "\n" + text
    elif kind == "trailing_blank":
        text = text + "\n"
    elif kind == "short_row":
        lines = text.split("\n")
        at = draw(st.integers(0, len(mat) - 1))
        lines[at] = lines[at][:-2]
        text = "\n".join(lines)
    return text


def cells_outcome(read, text):
    """The (m, cells) `read` returns, as lists, or ValueError."""
    try:
        m, cells = read(text)
    except ValueError:
        return ValueError
    return m, cells.tolist()


def ref_cells_outcome(text):
    try:
        mat = ref_text_to_matrix(text)
    except ValueError:
        return ValueError
    return len(mat), np.flatnonzero(mat).tolist()


class TestCellReaders:
    """The cell readers return what the reference reads, without an
    m x m matrix, and the matrix reader takes its one-pass layout check
    exactly for the layout cells_to_text writes."""

    @settings(max_examples=300, deadline=None)
    @given(mat=regular_matrices(max_m=12), data=st.data())
    def test_mutated_matrix_text_reads_as_the_reference(self, mat, data):
        text = data.draw(mutated_matrix_texts(mat))
        expected = ref_cells_outcome(text)
        assert cells_outcome(text_cells, text) == expected
        assert cells_outcome(parse_cells, text) == expected

    @pytest.mark.parametrize("m", [1, 2, 5, 64, 600])
    def test_only_the_written_layout_skips_the_tokenizer(self, monkeypatch, m):
        # At m = 600 the check reads two blocks of rows, and the last
        # text below fails it only in the second.
        b = make_btu([identity(m), circular_rotation(m, 1)] if m > 1 else [identity(1)])
        text = btu_to_format(b, "matrix")
        tokenized, tokenizer = [], io_formats._tokenized_cells

        def counted(data):
            tokenized.append(data)
            return tokenizer(data)

        monkeypatch.setattr(io_formats, "_tokenized_cells", counted)
        assert text_cells(text)[1].tolist() == to_cells(b).tolist()
        assert tokenized == []
        for other in (text + "\n", text.replace("\n", "\r\n"), "0" + text[1:-1] + " "):
            cells_outcome(text_cells, other)
        assert len(tokenized) == 3

    def test_alist_cells_are_the_matrix_cells(self, small_btu):
        for write in (cells_to_text, cells_to_alist):
            m, cells = parse_cells(write(*matrix_cells(to_biadjacency(small_btu))))
            assert m == 4 and cells.tolist() == to_cells(small_btu).tolist()


@st.composite
def random_btus(draw, max_m=24):
    """A BTU decomposed from a regular matrix, its slots in a drawn order."""
    b = decompose_matrix(draw(regular_matrices(max_m=max_m)))
    order = draw(st.permutations(range(b.r)))
    return make_btu([b.perms[t] for t in order])


def counted_calls(monkeypatch, *names):
    """Replace each named io_formats function by one that records its
    name in the returned list, then calls the original."""
    calls = []
    for name in names:
        def call(*args, name=name, fn=getattr(io_formats, name)):
            calls.append(name)
            return fn(*args)

        monkeypatch.setattr(io_formats, name, call)
    return calls


FANO = make_btu([identity(7), circular_rotation(7, 1), circular_rotation(7, 3)])
FANO_ALIST = btu_to_format(FANO, "alist").encode()

# Alist bytes only int() reads, each a variant of FANO_ALIST, and the
# readers that see them: _digit_values turns away a token of over 18
# digits, and the others never reach it.
INT_PATH_ALISTS = {
    "plus": (FANO_ALIST.replace(b"1 2 4", b"+1 2 4"), ["_int_values"]),
    "arabic-indic": (FANO_ALIST.replace(b"2 3 5", "2 \u0663 5".encode()), ["_int_values"]),
    "underscore": (FANO_ALIST.replace(b"1 2 4", b"0_1 2 4"), ["_int_values"]),
    "20-digits": (FANO_ALIST.replace(b"1 2 4", b"0" * 19 + b"1 2 4"), ["_digit_values", "_int_values"]),
    "20-digits-out-of-range": (
        FANO_ALIST.replace(b"1 2 4", b"9" * 20 + b" 2 4"), ["_digit_values", "_int_values"],
    ),
    "non-ascii": (FANO_ALIST.replace(b"1 2 4", "1\u00a02 4".encode()), ["_int_values"]),
    "unit-separator": (FANO_ALIST.replace(b"1 2 4", b"1\x1f2 4"), ["_int_values"]),
}


class TestAlistDigitPath:
    """Bytes of ASCII digits and blanks take the whole-array pass; all
    other alist text reads its tokens with int(), as before."""

    @pytest.mark.parametrize("m", [7, 100, 2048])
    def test_the_written_alist_takes_the_whole_array_pass(self, monkeypatch, m):
        b = FANO if m == 7 else make_btu([identity(m), circular_rotation(m, 1), circular_rotation(m, 3)])
        data = btu_to_format(b, "alist").encode()
        calls = counted_calls(monkeypatch, "_digit_values", "_int_values")
        for text in (data, data.replace(b"\n", b"\r\n"), data.replace(b" ", b" \t ")):
            del calls[:]
            assert cells_outcome(alist_cells, text) == (m, to_cells(b).tolist())
            assert calls == ["_digit_values"]
        # str input, as the dense wrappers take it, reads with int().
        assert cells_outcome(alist_cells, data.decode()) == (m, to_cells(b).tolist())
        assert calls == ["_digit_values", "_int_values"]

    @pytest.mark.parametrize("name", list(INT_PATH_ALISTS))
    def test_other_tokens_take_the_int_path(self, monkeypatch, name):
        data, readers = INT_PATH_ALISTS[name]
        text = data.decode()
        expected = read_message(per_line_alist_to_matrix, text)
        calls = counted_calls(monkeypatch, "_digit_values", "_int_values")
        assert read_message(alist_to_matrix, data) == expected
        assert calls == readers
        assert read_message(detect_and_parse, data) == expected
        assert read_message(alist_to_matrix, text) == expected

    def test_values_of_every_width(self):
        values = [0, 7, 10, 99, 100, 12345, 10**17, 10**18 - 1]
        line = " ".join(map(str, values)).encode()
        counts, read = io_formats._digit_values([line, b"1", b"\t 2  3 "])
        assert counts.tolist() == [len(values), 1, 2]
        assert read.tolist() == values + [1, 2, 3]
        assert io_formats._digit_values([b"1 " + b"1" * 19]) is None


def ref_cells_to_alist(shape, cells):
    """cells_to_alist of 0/1 cells, one f-string per line."""
    n_rows, n_cols = shape
    by_col, by_row = [[] for _ in range(n_cols)], [[] for _ in range(n_rows)]
    for i, j in (divmod(c, n_cols) for c in cells.tolist()):
        by_col[j].append(i + 1)
        by_row[i].append(j + 1)
    lines = [f"{n_cols} {n_rows}", f"{max(map(len, by_col))} {max(map(len, by_row))}"]
    lines.append(" ".join(f"{len(line)}" for line in by_col))
    lines.append(" ".join(f"{len(line)}" for line in by_row))
    lines += [" ".join(f"{x}" for x in line) for line in by_col + by_row]
    return "".join(f"{line}\n" for line in lines)


def ref_cells_to_dot(shape, cells):
    """cells_to_dot, one f-string per edge."""
    edges = [divmod(c, shape[1]) for c in cells.tolist()]
    return "graph btu {\n" + "".join(f"  l{i + 1} -- r{j + 1};\n" for i, j in edges) + "}\n"


class TestWriterLabelWidths:
    """The writers spell labels of 1 to 5 digits as f-strings do."""

    @pytest.mark.parametrize("m", [9, 10, 99, 100, 10000])
    def test_circulant_writers_match_the_reference(self, m):
        b = make_btu([identity(m), circular_rotation(m, 1), circular_rotation(m, 3)])
        cells = to_cells(b)
        assert io_formats.cells_to_alist((m, m), cells) == ref_cells_to_alist((m, m), cells)
        assert io_formats.cells_to_dot((m, m), cells) == ref_cells_to_dot((m, m), cells)
        if m <= 100:  # ref_matrix_to_dot scans all m * m cells
            assert io_formats.cells_to_dot((m, m), cells) == ref_matrix_to_dot(to_biadjacency(b))

    def test_non_square_alist_with_empty_lines(self):
        # Column 2, column 12 and row 1 have no entry.
        mat = np.zeros((3, 12), dtype=int)
        mat[1, [0, 10]] = 1
        mat[2, [0, 2, 10]] = 1
        text = cells_to_alist(*matrix_cells(mat))
        assert text == ref_matrix_to_alist(mat)
        assert text.split("\n")[4:7] == ["2 3", "", "3"]

    def test_empty_dot(self):
        assert cells_to_dot(*matrix_cells(np.zeros((3, 3)))) == "graph btu {\n}\n"

    @pytest.mark.parametrize("top", [0, 9, 10, 1234])
    def test_digit_table(self, top):
        table = io_formats.digit_table(top, b"<", b">")
        assert table.shape == (top + 1, len(str(top)) + 2)
        assert io_formats.unpadded(table) == "".join(f"<{v}>" for v in range(top + 1))


class TestDecomposeFromCells:
    @settings(max_examples=150, deadline=None)
    @given(b=random_btus())
    def test_same_slots_as_the_dense_path(self, b):
        reference = sorted(i * b.m + p.image[i] - 1 for p in b.perms for i in range(b.m))
        assert to_cells(b).tolist() == reference
        assert decompose(b.m, to_cells(b)) == decompose_matrix(to_biadjacency(b))

    def test_same_slots_at_full_size(self):
        # A circulant under a random relabelling of its columns.
        m = 2048
        relabel = np.random.default_rng(7).permutation(m) + 1
        b = make_btu(
            [Permutation(tuple(relabel[(np.arange(m) + s) % m].tolist())) for s in (0, 1, 3)]
        )
        for fmt in ("matrix", "alist"):
            assert decompose(*parse_cells(btu_to_format(b, fmt))) == decompose_matrix(to_biadjacency(b))

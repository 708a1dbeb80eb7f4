"""Matrix/alist/DOT text forms and the JSON report schema."""

import json

import numpy as np
import pytest

from btusearch.btu import girth, make_btu, to_biadjacency
from btusearch.engine import search
from btusearch.io_formats import (
    alist_to_matrix,
    btu_to_format,
    census_to_dict,
    detect_and_parse,
    matrix_to_alist,
    matrix_to_dot,
    matrix_to_text,
    search_result_to_dict,
    text_to_matrix,
    to_json,
)
from btusearch.perms import PartitionP2, circular_rotation, identity

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
        assert (text_to_matrix(matrix_to_text(mat)) == mat).all()

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            text_to_matrix("1 0\n1\n")

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            text_to_matrix("2 0\n0 2\n")


class TestAlist:
    def test_golden_layout(self, small_btu):
        assert matrix_to_alist(to_biadjacency(small_btu)) == ALIST_I4_C1

    def test_round_trip_bytes(self, small_btu):
        mat = to_biadjacency(small_btu)
        text = matrix_to_alist(mat)
        back = alist_to_matrix(text)
        assert (back == mat).all()
        assert matrix_to_alist(back) == text

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
        assert (detect_and_parse(matrix_to_alist(mat)) == mat).all()

    def test_matrix_detected(self, small_btu):
        mat = to_biadjacency(small_btu)
        assert (detect_and_parse(matrix_to_text(mat)) == mat).all()

    def test_tiny_all_ones_matrix_is_not_mistaken_for_alist(self):
        assert (detect_and_parse("1 1\n1 1\n") == np.ones((2, 2))).all()


class TestDot:
    def test_edges_row_major(self):
        mat = np.array([[1, 1], [1, 1]])
        assert matrix_to_dot(mat) == (
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
        for text in (matrix_to_text(mat), matrix_to_alist(mat)):
            assert girth(decompose_matrix(detect_and_parse(text))).girth == g

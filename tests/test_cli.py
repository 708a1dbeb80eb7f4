"""Command-line surface."""

import contextlib
import io
import json
import tempfile
import time
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from strategies import format_shaped_texts

from btusearch import engine
from btusearch.btu import make_btu
from btusearch.cli import _build_parser, main
from btusearch.io_formats import btu_to_format
from btusearch.perms import Permutation, TooLargeError, circular_rotation, identity
from btusearch.searchspace import enumerate_candidates


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParams:
    def test_example(self, capsys):
        code, out, _ = run(capsys, "params", "-m", "12", "-r", "3")
        assert code == 0
        assert out == "b=3 k=2\nbetas: 6+6 | 12\n"

    def test_degenerate_exits_one(self, capsys):
        code, out, err = run(capsys, "params", "-m", "7", "-r", "3")
        assert code == 1
        assert out == "b=7 k=1\n"
        assert "degenerate" in err


class TestSearch:
    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys, "search", "-m", "9", "-r", "3", "--format", "json", "--no-timing"
        )
        assert code == 0
        data = json.loads(out)
        assert data["girth"] == 6
        assert data["b"] == 1 and data["k"] == 3

    def test_repeat_invocations_byte_identical(self, capsys):
        _, first, _ = run(capsys, "search", "-m", "9", "-r", "3", "--no-timing")
        _, second, _ = run(capsys, "search", "-m", "9", "-r", "3", "--no-timing")
        assert first == second

    def test_timing_present_by_default(self, capsys):
        _, out, _ = run(capsys, "search", "-m", "4", "-r", "2")
        assert "elapsed_seconds" in json.loads(out)

    def test_degenerate_exits_one(self, capsys):
        code, _, err = run(capsys, "search", "-m", "6", "-r", "3")
        assert code == 1
        assert "error" in err

    def test_large_prime_is_degenerate_at_once(self, capsys):
        started = time.perf_counter()
        code, out, err = run(capsys, "search", "-m", "1000000007", "-r", "3")
        assert time.perf_counter() - started < 1
        assert (code, out) == (1, "")
        assert err == "error: m=1000000007, r=3: k=1, enumeration search inapplicable\n"

    def test_matrix_output(self, capsys, tmp_path):
        out_file = tmp_path / "btu.txt"
        code, _, _ = run(
            capsys, "search", "-m", "4", "-r", "2",
            "--format", "matrix", "-o", str(out_file),
        )
        assert code == 0
        rows = out_file.read_text().strip().splitlines()
        assert len(rows) == 4


class TestOracleVerify:
    def test_oracle_json(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "-m", "3", "-r", "3", "--fix-first", "--no-timing"
        )
        assert code == 0
        data = json.loads(out)
        assert data["max_girth"] == 4
        assert data["first_slot_fixed"] is True

    def test_oracle_budget_refusal(self, capsys):
        code, _, err = run(capsys, "oracle", "-m", "9", "-r", "3")
        assert code == 1
        assert "budget" in err

    def test_verify_equal(self, capsys):
        code, out, _ = run(capsys, "verify", "-m", "4", "-r", "3", "--no-timing")
        assert code == 0
        data = json.loads(out)
        assert data["equal"] is True
        assert data["engine_girth"] == data["oracle_girth"] == 4

    @pytest.mark.parametrize("m,r", [("9", "1"), ("4", "4")])
    def test_verify_factorize_refusal(self, capsys, m, r):
        code, out, err = run(capsys, "verify", "-m", m, "-r", r, "--no-timing")
        assert code == 0 and err == ""
        data = json.loads(out)
        assert data["engine_girth"] is None and data["equal"] is None
        assert data["engine_note"].startswith("engine inapplicable: ")
        # r = 1 graphs are forests, which have no girth.
        assert data["oracle_girth"] == (None if r == "1" else 4)
        assert data["oracle_witness"]

    def test_verify_still_refused_on_budget(self, capsys):
        code, out, err = run(capsys, "verify", "-m", "9", "-r", "3")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "budget" in err

    def test_verify_engine_inapplicable(self, capsys):
        code, out, _ = run(capsys, "verify", "-m", "6", "-r", "3", "--no-timing")
        assert code == 0
        data = json.loads(out)
        assert data["engine_girth"] is None
        assert data["equal"] is None
        assert "inapplicable" in data["engine_note"]
        assert data["oracle_girth"] == 4


class TestGirthCommand:
    def test_matrix_and_alist_inputs(self, capsys, tmp_path):
        _, matrix_text, _ = run(
            capsys, "search", "-m", "5", "-r", "2", "--format", "matrix"
        )
        matrix_file = tmp_path / "m.txt"
        matrix_file.write_text(matrix_text)
        code, out, _ = run(capsys, "girth", "-i", str(matrix_file))
        assert code == 0 and out == "10\n"

        _, alist_text, _ = run(
            capsys, "search", "-m", "5", "-r", "2", "--format", "alist"
        )
        alist_file = tmp_path / "m.alist"
        alist_file.write_text(alist_text)
        code, out, _ = run(capsys, "girth", "-i", str(alist_file))
        assert code == 0 and out == "10\n"

    def test_witness(self, capsys, tmp_path):
        _, matrix_text, _ = run(
            capsys, "search", "-m", "4", "-r", "2", "--format", "matrix"
        )
        f = tmp_path / "m.txt"
        f.write_text(matrix_text)
        code, out, _ = run(capsys, "girth", "-i", str(f), "--witness")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "8"
        assert len(lines[1].split()) == 8

    def test_m2000_circulant(self, capsys, tmp_path):
        m = 2000
        b = make_btu([identity(m), circular_rotation(m, 1), circular_rotation(m, 3)])
        f = tmp_path / "m.txt"
        f.write_text(btu_to_format(b, "matrix"))
        code, out, _ = run(capsys, "girth", "-i", str(f))
        assert code == 0 and out == "6\n"


class TestSmallCommands:
    def test_candidates(self, capsys):
        code, out, _ = run(capsys, "candidates", "-n", "3")
        assert code == 0
        assert out.splitlines() == ["2 3 1", "3 1 2"]

    def test_candidates_with_base_and_limit(self, capsys):
        code, out, _ = run(
            capsys, "candidates", "-n", "4", "--base", "4 1 2 3", "--limit", "2"
        )
        assert code == 0
        assert len(out.splitlines()) == 2

    def test_candidates_over_the_limit_refused_up_front(self, capsys):
        # 13! lines would take tens of gigabytes to join.
        started = time.perf_counter()
        code, out, err = run(capsys, "candidates", "-n", "14")
        assert time.perf_counter() - started < 1
        assert code == 1 and out == ""
        assert err.startswith("error: -n 14 would list 6227020800 candidates")

    @pytest.mark.parametrize(
        "argv,start",
        [
            ("search -m 1000000000000 -r 3", "stage 3 would list about 8.3e5565702 candidates"),
            ("search -m 100000 -r 3", "stage 3 would list about 4.0e2564 candidates"),
            ("candidates -n 100000", "-n 100000 would list about 2.8e456568 candidates"),
            ("oracle -m 2000 -r 1", "exhaustive sweep of (2000, 1) needs an estimated about 3.3e5735"),
            ("oracle -m 3000 -r 60", "exhaustive sweep of (3000, 60) needs an estimated about 7.1e547838"),
            ("oracle -m 500 -r 3", "exhaustive sweep of (500, 3) needs an estimated about 3.6e3402"),
        ],
    )
    def test_huge_counts_refused_at_once_in_one_short_line(self, capsys, argv, start):
        # The exact counts run past the 4,300 digits Python turns into
        # text, and 999,999! alone takes seconds to compute.
        started = time.perf_counter()
        code, out, err = run(capsys, *argv.split())
        assert time.perf_counter() - started < 1
        assert code == 1 and out == ""
        assert err.startswith(f"error: {start}") and len(err) < 300

    def test_candidates_limit_bounds_the_listing(self, capsys):
        code, out, _ = run(capsys, "candidates", "-n", "14", "--limit", "3")
        assert code == 0
        assert out.splitlines() == [
            "2 3 4 5 6 7 8 9 10 11 12 13 14 1",
            "2 3 4 5 6 7 8 9 10 11 13 14 12 1",
            "2 3 4 5 6 7 8 9 10 12 13 11 14 1",
        ]

    @pytest.mark.parametrize(
        "n,base,limit",
        [
            (2, None, None),
            (5, "5 3 1 2 4", None),
            (9, None, None),  # 40,320 lines: three blocks
            (10, "2 1 4 3 6 5 8 7 10 9", 20000),
            (30, None, 7),
        ],
    )
    def test_candidates_text_is_enumerate_candidates(self, capsys, tmp_path, n, base, limit):
        perm = Permutation.from_text(base) if base else identity(n)
        lines = [q.to_text() + "\n" for q in enumerate_candidates(perm, limit=limit)]
        argv = ["candidates", "-n", str(n)]
        argv += ["--base", base] if base else []
        argv += ["--limit", str(limit)] if limit else []
        assert run(capsys, *argv) == (0, "".join(lines), "")
        out = tmp_path / "candidates.txt"
        assert run(capsys, *argv, "-o", str(out)) == (0, "", "")
        assert out.read_text() == "".join(lines)

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_candidates_non_positive_limit_is_a_usage_error(self, capsys, value):
        with pytest.raises(SystemExit) as err:
            main(["candidates", "-n", "5", "--limit", value])
        assert err.value.code == 2
        assert "--limit" in capsys.readouterr().err

    def test_scale(self, capsys):
        code, out, _ = run(capsys, "scale", "-p", "3 4 1 2", "-k", "2")
        assert code == 0
        assert out == "3 4 1 2 7 8 5 6\n"

    def test_enum_z(self, capsys):
        code, out, _ = run(capsys, "enum-z", "-m", "4", "-r", "3")
        assert code == 0
        assert out.splitlines() == [
            "2 1 4 3 | 1 2 3 4 | 3 4 2 1",
            "2 1 4 3 | 1 2 3 4 | 4 3 1 2",
        ]

    def test_enum_z_refused_up_front_whatever_the_cap(self, capsys):
        # (12,3) would try 5! x 11! ~ 4.8e9 combinations before its first
        # member; the cap bounds only what is printed.
        start = time.perf_counter()
        code, out, err = run(capsys, "enum-z", "-m", "12", "-r", "3", "--cap", "1")
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert "4.8e9" in err and "1000000" in err

    def test_cayley(self, capsys):
        code, out, _ = run(capsys, "cayley", "-m", "9", "-r", "3", "-i", "1")
        assert code == 0
        assert out == "degree_sym=2 order=2 node_degree=1 transition_bound=3\n"

    def test_cayley_spells_a_huge_order(self, capsys):
        # (10^6 - 1)! has 5.6 million digits: spelled, never computed.
        start = time.perf_counter()
        code, out, _ = run(capsys, "cayley", "-m", "1000000000000", "-r", "3", "-i", "1")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert out == (
            "degree_sym=999999 order=about 8.3e5565702 "
            "node_degree=999998 transition_bound=1000000\n"
        )

    @pytest.mark.parametrize(
        "m,order",
        [(784, str(factorial(27))), (841, str(factorial(28))), (900, "about 8.8e30")],
    )
    def test_cayley_order_as_refusals_spell_it(self, capsys, m, order):
        # 27! has 29 digits and 28! has 30, both spelled in full; 29! has 31.
        code, out, _ = run(capsys, "cayley", "-m", str(m), "-r", "3", "-i", "1")
        assert code == 0
        assert f" order={order} " in out

    def test_export(self, capsys, tmp_path):
        _, matrix_text, _ = run(
            capsys, "search", "-m", "4", "-r", "2", "--format", "matrix"
        )
        f = tmp_path / "m.txt"
        f.write_text(matrix_text)
        code, out, _ = run(capsys, "export", "-i", str(f), "--format", "dot")
        assert code == 0
        assert out.startswith("graph btu {")
        code, out, _ = run(capsys, "export", "-i", str(f), "--format", "alist")
        assert code == 0
        assert out.splitlines()[0] == "4 4"


    @pytest.mark.parametrize("fmt", ["alist", "dot"])
    def test_export_scans_the_matrix_once(self, capsys, tmp_path, monkeypatch, fmt):
        from btusearch import btu, cli, io_formats

        b = make_btu([identity(12), circular_rotation(12, 1), circular_rotation(12, 5)])
        f = tmp_path / "m.txt"
        f.write_text(btu_to_format(b, "matrix"))
        mat = io_formats.detect_and_parse(f.read_text())
        expected = {"alist": io_formats.matrix_to_alist, "dot": io_formats.matrix_to_dot}[fmt](mat)
        scans, cells = [], btu._cells

        def counted(m):
            scans.append(1)
            return cells(m)

        for module in (btu, cli, io_formats):
            monkeypatch.setattr(module, "_cells", counted)
        code, out, _ = run(capsys, "export", "-i", str(f), "--format", fmt)
        assert code == 0
        assert out == expected
        assert len(scans) == 1


_CAP_TAIL = "over the limit of 1000000; a candidate cap (--cap) bounds it"


def _sweep(m, r, count):
    return (
        f"exhaustive sweep of ({m}, {r}) needs an estimated {count} universe rows "
        "and compatibility checks, over the budget of 10000000"
    )


class TestRefusals:
    """Every up-front refusal, byte for byte: one TooLargeError from the
    one size gate, and `error: <message>` with exit 1 from the CLI."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (
                "candidates -n 14",
                "-n 14 would list 6227020800 candidates, over the limit of 1000000; "
                "--limit bounds it",
            ),
            (
                "search -m 24 -r 3",
                f"stage 3 would list 39916800 candidates of degree 12, {_CAP_TAIL}",
            ),
            (
                "search -m 64 -r 4",
                f"stage 4 would list 1307674368000 candidates of degree 16, {_CAP_TAIL}",
            ),
            (
                "search -m 24 -r 3 --cap 1000001",
                f"stage 3 would list 1000001 candidates of degree 12, {_CAP_TAIL}",
            ),
            ("oracle -m 9 -r 3", _sweep(9, 3, 95569583362001280)),
            ("verify -m 9 -r 3", _sweep(9, 3, 263364514560)),
            ("oracle -m 13 -r 1", _sweep(13, 1, 6227020800)),
            (
                "enum-z -m 12 -r 3 --cap 1",
                "m=12, r=3: the family enumeration would try about 4.8e9 slot combinations, "
                "over the limit of 1000000; a cap bounds only the members listed",
            ),
            (
                # 28! has 30 digits, spelled in full like every count up to EXACT_DIGITS.
                "search -m 841 -r 3",
                f"stage 3 would list {factorial(28)} candidates of degree 29, {_CAP_TAIL}",
            ),
        ],
    )
    def test_cli_refusal(self, capsys, argv, message):
        args = _build_parser().parse_args(argv.split())
        with pytest.raises(TooLargeError) as err:
            args.func(args)
        assert str(err.value) == message
        assert err.value.estimate > err.value.limit
        assert run(capsys, *argv.split()) == (1, "", f"error: {message}\n")

    def test_level_two_finals_refusal(self):
        with pytest.raises(TooLargeError) as err:
            engine._finals_for_level(16, 8, 2, None, 5)
        assert str(err.value) == (
            f"stage 5 would list 1307674368000 finals of degree 16, {_CAP_TAIL}"
        )
        assert err.value.estimate > err.value.limit


class TestUsageErrors:
    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["params", "-m", "4", "-r", "2", "--bogus"])
        assert err.value.code == 2

    def test_missing_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2


class TestInputHardening:
    @pytest.mark.parametrize("command", [["girth"], ["export", "--format", "dot"]])
    def test_missing_input_exits_one(self, capsys, tmp_path, command):
        missing = tmp_path / "absent.txt"
        code, out, err = run(capsys, *command, "-i", str(missing))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "absent.txt" in err

    @pytest.mark.parametrize("col1", ["1 0", "1 9"])
    def test_alist_index_out_of_range_exits_one(self, capsys, tmp_path, col1):
        f = tmp_path / "bad.alist"
        f.write_text(f"3 3\n2 2\n2 2 2\n2 2 2\n{col1}\n1 2\n2 3\n1 2\n2 3\n1 3\n")
        code, out, err = run(capsys, "girth", "-i", str(f))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")

    def test_directory_input_exits_one(self, capsys, tmp_path):
        code, _, err = run(capsys, "girth", "-i", str(tmp_path))
        assert code == 1
        assert err.startswith("error: ")

    @pytest.mark.parametrize("flag", ["--workers", "--cap"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_non_positive_search_flags_are_usage_errors(self, capsys, flag, value):
        with pytest.raises(SystemExit) as err:
            main(["search", "-m", "9", "-r", "3", flag, value])
        assert err.value.code == 2
        assert flag in capsys.readouterr().err

    def test_matrix_entry_300_exits_one(self, capsys, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("300 1\n1 1\n")
        code, out, err = run(capsys, "girth", "-i", str(f))
        assert (code, out) == (1, "")
        assert err == "error: matrix entries must be 0 or 1\n"

    def test_alist_error_is_not_masked_by_the_matrix_reader(self, capsys, tmp_path):
        f = tmp_path / "bad.alist"
        f.write_text("3 3\n2 2\n2 2 2\n2 2 2\n1 9\n1 2\n2 3\n1 2\n2 3\n1 3\n")
        code, _, err = run(capsys, "girth", "-i", str(f))
        assert code == 1
        assert err == "error: column 1 has a row index outside 1..3\n"


class TestFuzzedInput:
    """`girth` and `export` on damaged matrix and alist files end with
    exit 0, or exit 1 and an `error: ` line; they never raise."""

    @settings(max_examples=200, deadline=None)
    @given(text=format_shaped_texts())
    def test_girth_and_export(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            src = Path(tmp) / "in.txt"
            src.write_text(text)
            for argv in (
                ["girth", "-i", str(src)],
                ["export", "-i", str(src), "--format", "alist"],
                ["export", "-i", str(src), "--format", "dot"],
            ):
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = main(argv + ["-o", str(Path(tmp) / "out.txt")])
                assert code in (0, 1)
                if code == 1:
                    assert err.getvalue().startswith("error: ")

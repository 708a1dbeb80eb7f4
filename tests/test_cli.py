"""Command-line surface."""

import contextlib
import io
import json
import tempfile
import time
import warnings
from math import factorial
from pathlib import Path

import pytest
from helpers import beam_before, matrix_cells, without_rotations
from hypothesis import given, settings
from strategies import format_shaped_texts

from btusearch import cli, engine
from btusearch.btu import make_btu
from btusearch.cli import _build_parser, main
from btusearch.io_formats import btu_to_format
from btusearch.parameters import factorize
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


class TestWarnings:
    """A size outside r < m/2 runs as it did, with its AssumptionWarning
    printed as one `warning:` line: no library path, no source line."""

    LINE = "warning: r=4 is not < m/2 (m=8); outside the assumed search regime\n"

    # The tests ignore this warning (pyproject.toml); a user sees it.
    @pytest.mark.filterwarnings("default::btusearch.parameters.AssumptionWarning")
    @pytest.mark.parametrize(
        "argv", ["search -m 8 -r 4 --no-timing", "enum-z -m 8 -r 4", "params -m 8 -r 4"]
    )
    def test_one_line_and_the_same_output(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            quiet = run(capsys, *argv.split())
        assert quiet[2] == ""
        # Every invocation warns, not only the first of the process.
        for _ in range(2):
            assert run(capsys, *argv.split()) == (quiet[0], quiet[1], self.LINE)
        assert quiet[0] == 0


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


    @pytest.mark.parametrize(
        "argv", [["export", "--format", "alist"], ["export", "--format", "dot"], ["girth", "--witness"]],
        ids=["export-alist", "export-dot", "girth"],
    )
    def test_file_commands_build_and_scan_no_matrix(self, capsys, tmp_path, monkeypatch, argv):
        # girth -i and export -i read the file as a cell list: they never
        # build the m x m matrix nor scan one, and print what the dense
        # path prints.
        from btusearch import btu, io_formats

        b = make_btu([identity(12), circular_rotation(12, 1), circular_rotation(12, 5)])

        def dense(mat):
            if argv[0] == "girth":
                report = btu.girth(btu.decompose_matrix(mat), witness=True)
                return f"{report.girth}\n{' '.join(report.witness_cycle)}\n"
            write = io_formats.cells_to_alist if argv[-1] == "alist" else io_formats.cells_to_dot
            return write(*matrix_cells(mat))

        files = {}
        for source in ("matrix", "alist"):
            files[source] = tmp_path / f"in.{source}"
            files[source].write_text(btu_to_format(b, source))
        expected = {
            source: dense(io_formats.detect_and_parse(f.read_text())) for source, f in files.items()
        }
        calls = []

        def counted(name, fn):
            def call(*args):
                calls.append(name)
                return fn(*args)

            return call

        monkeypatch.setattr(btu, "_square_cells", counted("scan", btu._square_cells))
        for module in (btu, io_formats):
            monkeypatch.setattr(module, "cells_to_matrix", counted("dense", btu.cells_to_matrix))
        for source, f in files.items():
            code, out, _ = run(capsys, argv[0], "-i", str(f), *argv[1:])
            assert code == 0
            assert out == expected[source]
        assert calls == []


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

    @pytest.mark.parametrize("m", [2_000_000, 100_000_000])
    def test_rotation_finals_refused_whatever_the_cap(self, capsys, m):
        # At r = 3 the stage-3 degree is m; no cap bounds the m-1 rotations.
        started = time.perf_counter()
        assert run(capsys, "search", "-m", str(m), "-r", "3", "--cap", "1") == (
            1,
            "",
            f"error: stage 3 would list up to {m - 1} rotation finals of degree {m}, "
            "over the limit of 1000000; a candidate cap (--cap) does not bound them\n",
        )
        assert time.perf_counter() - started < 1

    def test_level_two_finals_refusal(self, monkeypatch):
        f, config = factorize(16, 5), engine.SearchConfig()
        beam = beam_before(f, 5, config)
        without_rotations(monkeypatch)
        with pytest.raises(TooLargeError) as err:
            engine._run_stage(beam, 5, f, config)
        assert str(err.value) == (
            f"stage 5 would list 1307674368000 finals of degree 16, {_CAP_TAIL}"
        )
        assert err.value.estimate > err.value.limit


class TestMemoryError:
    @pytest.mark.parametrize(
        "error,line",
        [
            (MemoryError(), "error: out of memory\n"),
            (MemoryError("Unable to allocate 2.36 GiB"), "error: Unable to allocate 2.36 GiB\n"),
        ],
    )
    def test_one_line_and_exit_one(self, capsys, monkeypatch, error, line):
        def out_of_memory(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "search", out_of_memory)
        assert run(capsys, "search", "-m", "20", "-r", "3") == (1, "", line)


class TestUsageErrors:
    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["params", "-m", "4", "-r", "2", "--bogus"])
        assert err.value.code == 2

    def test_missing_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2


class TestOneParser:
    """`main` builds its parser once per process; calls one after another
    give what each gives with a parser of its own."""

    CALLS = [
        ["search", "-m", "12", "-r", "3", "--cap", "5", "--no-timing"],
        ["search", "-m", "12", "-r", "3", "--no-timing"],
        ["params", "-m", "4", "-r", "2", "--bogus"],
        ["params", "-m", "12", "-r", "3"],
    ]

    @staticmethod
    def outcome(capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_back_to_back_calls_match_fresh_ones(self, capsys):
        back_to_back = [self.outcome(capsys, argv) for argv in self.CALLS]
        assert _build_parser() is _build_parser()
        fresh = []
        for argv in self.CALLS:
            _build_parser.cache_clear()
            fresh.append(self.outcome(capsys, argv))
        assert back_to_back == fresh
        assert [code for code, _, _ in fresh] == [0, 0, 2, 0]
        # The cap of the first call does not carry over to the second.
        assert [json.loads(out)["girth"] for _, out, _ in fresh[:2]] == [4, 6]


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


# The Fano plane, (identity, rotation 1, rotation 3) at m = 7, as the
# writers spell it.
FANO_MATRIX = (
    b"1 0 0 0 1 0 1\n1 1 0 0 0 1 0\n0 1 1 0 0 0 1\n1 0 1 1 0 0 0\n"
    b"0 1 0 1 1 0 0\n0 0 1 0 1 1 0\n0 0 0 1 0 1 1\n"
)
FANO_ALIST = (
    b"7 7\n3 3\n3 3 3 3 3 3 3\n3 3 3 3 3 3 3\n"
    b"1 2 4\n2 3 5\n3 4 6\n4 5 7\n1 5 6\n2 6 7\n1 3 7\n"
    b"1 5 7\n1 2 6\n2 3 7\n1 3 4\n2 4 5\n3 5 6\n4 6 7\n"
)
FANO_DOT = "graph btu {\n" + "".join(
    f"  l{i} -- r{j};\n"
    for i, line in enumerate(FANO_MATRIX.decode().splitlines(), start=1)
    for j, x in enumerate(line.split(), start=1)
    if x == "1"
) + "}\n"

# Files as bytes: the written layouts, re-spaced copies, bytes a str
# reader sees differently, and alist tokens only int() reads.
BYTE_CORPUS = {
    "matrix": FANO_MATRIX,
    "alist": FANO_ALIST,
    "matrix-crlf": FANO_MATRIX.replace(b"\n", b"\r\n"),
    "alist-crlf": FANO_ALIST.replace(b"\n", b"\r\n"),
    "matrix-tabs": FANO_MATRIX.replace(b" ", b"\t"),
    "matrix-leading-blank": b"\n" + FANO_MATRIX,
    "alist-leading-blank": b"\n" + FANO_ALIST,
    "matrix-bom": b"\xef\xbb\xbf" + FANO_MATRIX,
    "alist-bom": b"\xef\xbb\xbf" + FANO_ALIST,
    "matrix-ff": FANO_MATRIX.replace(b"0 1 1", b"0 \xff1 1", 1),
    "alist-ff": FANO_ALIST.replace(b"1 2 4", b"1 2 \xff4"),
    "alist-plus": FANO_ALIST.replace(b"1 2 4", b"+1 2 4"),
    "alist-arabic-indic": FANO_ALIST.replace(b"2 3 5", "2 \u0663 5".encode()),
    "alist-underscore": FANO_ALIST.replace(b"1 2 4", b"0_1 2 4"),
    "alist-20-digits": FANO_ALIST.replace(b"1 2 4", b"0" * 19 + b"1 2 4"),
    "alist-20-digits-out-of-range": FANO_ALIST.replace(b"1 2 4", b"9" * 20 + b" 2 4"),
    "alist-unit-separator": FANO_ALIST.replace(b"1 2 4", b"1\x1f2 4"),
    "alist-vertical-tab": FANO_ALIST.replace(b"\n1 2 4", b"\x0b1 2 4"),
}

# Per file, as the CLI printed it when it read files with
# Path.read_text(): the stdout of `girth -i` and of `export -i --format
# dot`, the stderr both print, and the exit status of both.
BYTE_CORPUS_OUTCOMES = {
    "matrix": ("6\n", FANO_DOT, "", 0),
    "alist": ("6\n", FANO_DOT, "", 0),
    "matrix-crlf": ("6\n", FANO_DOT, "", 0),
    "alist-crlf": ("6\n", FANO_DOT, "", 0),
    "matrix-tabs": ("6\n", FANO_DOT, "", 0),
    "matrix-leading-blank": ("6\n", FANO_DOT, "", 0),
    "alist-leading-blank": ("6\n", FANO_DOT, "", 0),
    "matrix-bom": ("", "", "error: matrix entries must be 0 or 1\n", 1),
    "alist-bom": ("", "", "error: invalid literal for int() with base 10: '\\ufeff7'\n", 1),
    "matrix-ff": (
        "", "", "error: 'utf-8' codec can't decode byte 0xff in position 30: invalid start byte\n", 1
    ),
    "alist-ff": (
        "", "", "error: 'utf-8' codec can't decode byte 0xff in position 40: invalid start byte\n", 1
    ),
    "alist-plus": ("6\n", FANO_DOT, "", 0),
    "alist-arabic-indic": ("6\n", FANO_DOT, "", 0),
    "alist-underscore": ("6\n", FANO_DOT, "", 0),
    "alist-20-digits": ("6\n", FANO_DOT, "", 0),
    "alist-20-digits-out-of-range": ("", "", "error: column 1 has a row index outside 1..7\n", 1),
    "alist-unit-separator": ("6\n", FANO_DOT, "", 0),
    "alist-vertical-tab": ("6\n", FANO_DOT, "", 0),
}


class TestByteInput:
    @pytest.mark.parametrize("name", list(BYTE_CORPUS))
    def test_girth_and_export_as_read_text_read_them(self, capsys, tmp_path, name):
        f = tmp_path / name
        f.write_bytes(BYTE_CORPUS[name])
        code, girth_out, err = run(capsys, "girth", "-i", str(f))
        export_code, export_out, export_err = run(capsys, "export", "-i", str(f), "--format", "dot")
        assert (export_code, export_err) == (code, err)
        assert (girth_out, export_out, err, code) == BYTE_CORPUS_OUTCOMES[name]


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

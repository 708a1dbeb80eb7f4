"""Command-line interface.

One subcommand per invocation; data goes to stdout (or -o FILE),
diagnostics to stderr.  Exit status: 0 success, 1 domain error
(degenerate factorization, a run refused as too large, stage dead end)
or unreadable file, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import io_formats
from .btu import cell_degree, decompose, girth
from .engine import MAX_LISTED, SearchConfig, enumerate_Z, search
from .oracle import max_girth, verify_search
from .parameters import factorize, optimal_partitions
from .perms import BTUError, Permutation, identity, refuse_oversize, scale_permutation, spell_count
from .searchspace import cayley_stats, cycle_images, listed_count

# Rows of a listing turned into text at a time.
_BLOCK_ROWS = 1 << 14


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _emit(text: str | Iterable[str], out_path: str | None) -> None:
    """Write the text, or its pieces in turn, to out_path or stdout."""
    pieces = [text] if isinstance(text, str) else text
    if out_path:
        with open(out_path, "w") as out:
            out.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def _cmd_params(args) -> int:
    f = factorize(args.m, args.r)
    print(f"b={f.b} k={f.k}")
    if f.degenerate:
        print("degenerate: k=1, no optimal partition sequence", file=sys.stderr)
        return 1
    betas = optimal_partitions(f).betas
    print("betas: " + " | ".join(beta.to_text() for beta in betas))
    return 0


def _cmd_search(args) -> int:
    config = SearchConfig(
        mode=args.mode,
        rotation_policy=args.policy,
        worker_count=args.workers,
        candidate_cap=args.cap,
    )
    started = time.perf_counter()
    result = search(args.m, args.r, config)
    elapsed = None if args.no_timing else time.perf_counter() - started
    if args.format == "json":
        text = io_formats.to_json(io_formats.search_result_to_dict(result, elapsed))
    else:
        text = io_formats.btu_to_format(result.btu, args.format)
    _emit(text, args.output)
    return 0


def _cmd_oracle(args) -> int:
    started = time.perf_counter()
    report = max_girth(args.m, args.r, fix_first_identity=args.fix_first)
    elapsed = None if args.no_timing else time.perf_counter() - started
    _emit(
        io_formats.to_json(io_formats.oracle_report_to_dict(report, elapsed)),
        args.output,
    )
    return 0


def _cmd_verify(args) -> int:
    started = time.perf_counter()
    report = verify_search(args.m, args.r)
    elapsed = None if args.no_timing else time.perf_counter() - started
    _emit(
        io_formats.to_json(io_formats.verify_report_to_dict(report, elapsed)),
        args.output,
    )
    return 0


def _cmd_girth(args) -> int:
    m, cells = io_formats.parse_cells(Path(args.input).read_bytes())
    report = girth(decompose(m, cells), witness=args.witness)
    lines = ["inf" if report.girth is None else str(report.girth)]
    if args.witness and report.witness_cycle:
        lines.append(" ".join(report.witness_cycle))
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_candidates(args) -> int:
    refuse_oversize(
        MAX_LISTED, *listed_count(args.n, args.limit),
        f"-n {args.n} would list {{count}} candidates, over the limit of {{limit}}; --limit bounds it",
    )
    base = (
        Permutation.from_text(args.base) if args.base else identity(args.n)
    )
    if base.n != args.n:
        raise BTUError(f"base degree {base.n} does not match -n {args.n}")
    _emit(_candidate_lines(base, cycle_images(args.n, args.limit)), args.output)
    return 0


def _candidate_lines(base: Permutation, cycles: np.ndarray) -> Iterator[str]:
    """The text of base composed with each row of cycles (0-based images),
    one row a line, in blocks of _BLOCK_ROWS rows.

    Row i of a table holds the digits of base(i + 1) and a space, so one
    gather both composes a block with the base and spells it; each
    line's last space becomes a newline and the padding goes.
    """
    table = io_formats.digit_table(base.n, tail=b" ")[np.asarray(base.image)]
    for start in range(0, len(cycles), _BLOCK_ROWS):
        cells = table[cycles[start : start + _BLOCK_ROWS]]
        cells[:, -1, -1] = ord("\n")
        yield io_formats.unpadded(cells)


def _cmd_scale(args) -> int:
    p = Permutation.from_text(args.perm)
    _emit(scale_permutation(p, args.k).to_text() + "\n", args.output)
    return 0


def _cmd_enum_z(args) -> int:
    lines = []
    for b in enumerate_Z(args.m, args.r, cap=args.cap):
        lines.append(" | ".join(p.to_text() for p in b.perms))
    _emit("\n".join(lines) + "\n" if lines else "", args.output)
    return 0


def _cmd_cayley(args) -> int:
    stats = cayley_stats(factorize(args.m, args.r), args.stage)
    order = spell_count(*listed_count(stats.degree_sym + 1))[1]  # as refusals spell it
    print(
        f"degree_sym={stats.degree_sym} order={order} "
        f"node_degree={stats.node_degree} transition_bound={stats.transition_bound}"
    )
    return 0


def _cmd_export(args) -> int:
    m, cells = io_formats.parse_cells(Path(args.input).read_bytes())
    cell_degree(m, cells)  # refuse what decompose would refuse
    write = io_formats.cells_to_alist if args.format == "alist" else io_formats.cells_to_dot
    _emit(write((m, m), cells), args.output)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it as it was,
    and each subcommand's function reads the names it calls when it runs."""
    parser = argparse.ArgumentParser(
        prog="btusearch",
        description="Search and validate girth-maximum regular bipartite graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_mr(p):
        p.add_argument("-m", type=int, required=True, help="matrix dimension")
        p.add_argument("-r", type=int, required=True, help="row/column weight")

    def add_out(p):
        p.add_argument("-o", "--output", help="write data to FILE instead of stdout")

    p = sub.add_parser("params", help="b, k and the optimal partition sequence")
    add_mr(p)
    p.set_defaults(func=_cmd_params)

    p = sub.add_parser("search", help="staged girth-maximum search")
    add_mr(p)
    p.add_argument("--mode", choices=["best", "exhaustive"], default="best")
    p.add_argument("--policy", choices=["strict", "relaxed"], default="relaxed")
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument(
        "--cap", type=_positive_int, default=None, help="cap candidates per stage"
    )
    p.add_argument(
        "--format", choices=["json", "matrix", "alist", "dot"], default="json"
    )
    p.add_argument("--no-timing", action="store_true")
    add_out(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("oracle", help="exhaustive maximum girth")
    add_mr(p)
    p.add_argument(
        "--fix-first",
        action="store_true",
        help="pin the first slot to the identity permutation",
    )
    p.add_argument("--no-timing", action="store_true")
    add_out(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify", help="engine girth vs exhaustive maximum")
    add_mr(p)
    p.add_argument("--no-timing", action="store_true")
    add_out(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("girth", help="girth of a matrix or alist file")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--witness", action="store_true", help="also print one shortest cycle")
    add_out(p)
    p.set_defaults(func=_cmd_girth)

    p = sub.add_parser("candidates", help="single-cycle candidates against a base")
    p.add_argument("-n", type=int, required=True, help="candidate degree")
    p.add_argument("--base", help="base permutation text (default identity)")
    p.add_argument("--limit", type=_positive_int, default=None)
    add_out(p)
    p.set_defaults(func=_cmd_candidates)

    p = sub.add_parser("scale", help="block-diagonal scaling of a permutation")
    p.add_argument("-p", "--perm", required=True, help='permutation text, e.g. "3 4 1 2"')
    p.add_argument("-k", type=int, required=True)
    add_out(p)
    p.set_defaults(func=_cmd_scale)

    p = sub.add_parser("enum-z", help="enumerate the fully scaled family")
    add_mr(p)
    p.add_argument("--cap", type=_positive_int, default=None)
    add_out(p)
    p.set_defaults(func=_cmd_enum_z)

    p = sub.add_parser("cayley", help="stage search-space statistics")
    add_mr(p)
    p.add_argument("-i", "--stage", type=int, required=True, help="stage index (1..r-2)")
    p.set_defaults(func=_cmd_cayley)

    p = sub.add_parser("export", help="convert a matrix/alist file")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--format", choices=["alist", "dot"], required=True)
    add_out(p)
    p.set_defaults(func=_cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (BTUError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a bare MemoryError() has no text
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

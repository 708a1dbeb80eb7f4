"""The benchmark's workloads: fixed job lists over btusearch's public API.

Each job is an `Op`: a timed call that returns an `Outcome`, and an
expected answer. Answers of fixed inputs are pinned in pins.json from
a commit whose results are trusted (see pin.py); answers about the
seeded-random BTUs of io-roundtrip, which no pin can cover, are taken
by the direct path in `io_answers` before any timing.

The package is reached through module attributes (`engine.search`,
`cli.main`, ...) at call time, so the names tracing.py wraps are the
ones these calls resolve.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from btusearch import btu, cli, engine, io_formats, oracle, perms

WORKLOADS = ("search-girth", "search-filter", "oracle", "io-roundtrip")

# Full sizes are what the benchmark measures; tiny sizes are for the
# benchmark's own smoke tests. Every (m, r) here is pinned in pins.json.
SEARCH_JOBS = {
    # Kernel-bound: r = 3 never runs the partition filter, and at (32,3)
    # all 40,320 attempted candidates reach the girth kernel. The only
    # multi-threaded workload, so a kernel that releases the GIL shows.
    "search-girth": {"full": ((18, 3), (36, 3), (32, 3)), "tiny": ((18, 3),)},
    # Filter-bound, one worker: at (27,4) only 2,597 of 241,920 attempted
    # candidates reach the kernel; (16,5) takes the level-2 enum fallback.
    "search-filter": {"full": ((16, 4), (16, 5), (27, 4)), "tiny": ((16, 4),)},
}
ORACLE_JOBS = {
    # (kind, m, r): bypasses engine and searchspace; ~28k small kernel calls.
    "full": (
        ("max_girth", 6, 3),
        ("max_girth", 5, 4),
        ("max_girth", 8, 2),
        ("phi_census", 6, 3),
        ("refuse", 9, 3),
    ),
    "tiny": (("max_girth", 5, 4), ("phi_census", 5, 4), ("refuse", 9, 3)),
}
# (kind, m): r = 3 BTUs written as matrix, alist and DOT, then read back
# through the CLI. Circulants are (identity, rotation 1, rotation 3);
# random ones come from the workload seed. At the commit the benchmark
# was written, decompose_matrix raises RecursionError at the m = 2000
# circulant; that size stays so the defect shows as failed operations.
IO_JOBS = {
    "full": (("circulant", 256), ("random", 512), ("circulant", 2000), ("random", 2048)),
    "tiny": (("circulant", 64), ("random", 64)),
}
IO_FORMATS = ("matrix", "alist", "dot")


@dataclass
class Outcome:
    answer: Any
    nbytes: int  # text bytes the operation wrote or parsed
    girths: tuple = ()  # (m, r, girth) triples to hold to the Moore bound
    counts: dict = field(default_factory=dict)  # deterministic work counts


@dataclass(frozen=True)
class Op:
    key: str
    call: Callable[[], Outcome]
    expected: Any


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def moore_ok(m: int, r: int, g: int | None) -> bool:
    """Bipartite Moore bound: girth 2L needs m >= sum_{i<L} (r-1)^i."""
    return g is None or m >= sum((r - 1) ** i for i in range(g // 2))


def search_outcome(m: int, r: int, workers: int) -> Outcome:
    result = engine.search(m, r, engine.SearchConfig(worker_count=workers))
    text = io_formats.to_json(io_formats.search_result_to_dict(result))
    return Outcome(
        answer=sha256(text),
        nbytes=len(text),
        girths=tuple((t.n, t.stage, t.best_girth) for t in result.traces),
        counts={
            "engine.candidates_attempted": sum(
                t.candidates_evaluated for t in result.traces
            )
        },
    )


def oracle_outcome(kind: str, m: int, r: int) -> Outcome:
    if kind == "max_girth":
        rep = oracle.max_girth(m, r)
        text = io_formats.to_json(io_formats.oracle_report_to_dict(rep))
        return Outcome(
            answer=[rep.max_girth, rep.maximizer_count, rep.enumerated],
            nbytes=len(text),
            girths=((m, r, rep.max_girth),),
            counts={"oracle.enumerated": rep.enumerated},
        )
    if kind == "phi_census":
        census = oracle.phi_census(m, r)
        text = io_formats.to_json(io_formats.census_to_dict(census))
        return Outcome(
            answer=sha256(text),
            nbytes=len(text),
            counts={"oracle.enumerated": sum(census.values())},
        )
    try:
        oracle.max_girth(m, r)
    except oracle.BudgetExceededError as exc:
        return Outcome(answer="refused", nbytes=len(str(exc)))
    return Outcome(answer="answered", nbytes=0)


def circulant_btu(m: int) -> btu.BTU:
    return btu.make_btu(
        [perms.identity(m), perms.circular_rotation(m, 1), perms.circular_rotation(m, 3)]
    )


def random_btu(m: int, seed: int) -> btu.BTU:
    """Identity plus two uniformly random permutations compatible with it
    and with each other, drawn by rejection from the seeded stream."""
    rng = random.Random(f"{seed}-random-{m}")
    slots = [list(range(1, m + 1))]
    while len(slots) < 3:
        image = list(range(1, m + 1))
        rng.shuffle(image)
        if all(all(x != y for x, y in zip(image, s)) for s in slots):
            slots.append(image)
    return btu.make_btu([perms.Permutation(tuple(s)) for s in slots])


def io_label(kind: str, m: int) -> str:
    return f"{kind}-{m}"


def io_answers(label: str, b: btu.BTU) -> dict[str, Any]:
    """Each io op's answer on b, by the direct path: the writers applied
    to b and the kernel applied to b's permutations, with no file read."""
    texts = {fmt: io_formats.btu_to_format(b, fmt) for fmt in IO_FORMATS}
    answers: dict[str, Any] = {
        f"io {label} write {fmt}": sha256(text) for fmt, text in texts.items()
    }
    answers[f"io {label} girth"] = btu.girth(b).girth
    answers[f"io {label} export dot"] = answers[f"io {label} write dot"]
    return answers


def _write_op(b: btu.BTU, fmt: str, path: Path) -> Callable[[], Outcome]:
    def call() -> Outcome:
        text = io_formats.btu_to_format(b, fmt)
        path.write_text(text)
        return Outcome(answer=sha256(text), nbytes=len(text))

    return call


class CliError(Exception):
    """cli.main returned a non-zero exit status on a valid input."""


def _cli_op(argv: list[str], src: Path, out: Path, b: btu.BTU) -> Callable[[], Outcome]:
    def call() -> Outcome:
        out.unlink(missing_ok=True)
        code = cli.main(argv)
        if code != 0:
            raise CliError(f"btusearch {argv[0]} exited {code}")
        text = out.read_text()
        nbytes = src.stat().st_size + len(text)
        if argv[0] == "girth":
            g = None if text.strip() == "inf" else int(text)
            return Outcome(answer=g, nbytes=nbytes, girths=((b.m, b.r, g),))
        return Outcome(answer=sha256(text), nbytes=nbytes)

    return call


def io_ops(label: str, b: btu.BTU, workdir: Path, expected: dict[str, Any]) -> list[Op]:
    """Write b in each format, then read the files back through the CLI."""
    paths = {fmt: workdir / f"{label}.{fmt}" for fmt in IO_FORMATS}
    out = workdir / f"{label}.out"
    calls = {
        f"io {label} write {fmt}": _write_op(b, fmt, paths[fmt]) for fmt in IO_FORMATS
    }
    calls[f"io {label} girth"] = _cli_op(
        ["girth", "-i", str(paths["matrix"]), "-o", str(out)], paths["matrix"], out, b
    )
    calls[f"io {label} export dot"] = _cli_op(
        ["export", "-i", str(paths["alist"]), "--format", "dot", "-o", str(out)],
        paths["alist"],
        out,
        b,
    )
    return [Op(key, call, expected.get(key)) for key, call in calls.items()]


def judge(op: Op, outcome: Outcome) -> str | None:
    """Why the outcome is a wrong answer, or None when it is right."""
    if outcome.answer != op.expected:
        return f"answer {outcome.answer!r}, expected {op.expected!r}"
    beyond = [g for g in outcome.girths if not moore_ok(*g)]
    if beyond:
        return f"girth beyond the bipartite Moore bound: {beyond}"
    return None


def build_ops(workload: str, seed: int, size: str, pins: dict[str, Any], workdir: Path) -> list[Op]:
    """The workload's job list. Untimed preparation (seeded inputs and
    their direct-path answers) happens here."""
    if workload in SEARCH_JOBS:
        w = worker_count(workload)
        return [
            Op(f"search {m} {r}", lambda m=m, r=r: search_outcome(m, r, w), pins.get(f"search {m} {r}"))
            for m, r in SEARCH_JOBS[workload][size]
        ]
    if workload == "oracle":
        return [
            Op(
                f"{kind} {m} {r}",
                lambda kind=kind, m=m, r=r: oracle_outcome(kind, m, r),
                pins.get(f"{kind} {m} {r}"),
            )
            for kind, m, r in ORACLE_JOBS[size]
        ]
    if workload == "io-roundtrip":
        ops = []
        for kind, m in IO_JOBS[size]:
            label = io_label(kind, m)
            if kind == "circulant":
                b = circulant_btu(m)
                expected = pins
            else:
                b = random_btu(m, seed)
                expected = io_answers(label, b)
            ops.extend(io_ops(label, b, workdir, expected))
        return ops
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def worker_count(workload: str) -> int:
    return min(2, len(os.sched_getaffinity(0))) if workload == "search-girth" else 1

"""Writes pins.json: the answers the benchmark checks its jobs against.

Run it only at a commit whose answers are trusted, from the repository
root, against the sources in src/:

    PYTHONPATH=src python3 perfbench/pin.py

A search job's pin is the SHA-256 of its `search --no-timing` JSON; an
oracle job's is (max_girth, maximizer_count, enumerated); a census's is
the SHA-256 of its JSON; the (9,3) refusal's is "refused". Each io
circulant's answers are taken by the direct path (`io_answers`), so
they hold even for files a broken reader cannot round-trip.
"""

import json
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def main() -> None:
    pins = {}
    for size in ("tiny", "full"):
        for workload in ("search-girth", "search-filter", "oracle"):
            for op in workloads.build_ops(workload, 0, size, {}, HERE):
                pins[op.key] = op.call().answer
        for kind, m in workloads.IO_JOBS[size]:
            if kind == "circulant":
                label = workloads.io_label(kind, m)
                pins.update(workloads.io_answers(label, workloads.circulant_btu(m)))
    (HERE / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

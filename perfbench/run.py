"""Benchmark of btusearch: staged search, exhaustive oracle and file I/O.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the package with the repository's own setup.py into
.bench_build/ (compiling whatever extensions it declares when a C
compiler is present), times a fresh interpreter's `import btusearch`
several times (setup_s), then runs the workload's fixed job list in
this process, one job at a time (a closed loop with one client), pass
after pass for about S seconds. Every answer is checked against
perfbench/pins.json or against the direct-path answer of the seeded
inputs.

--trace 0 prints the end-to-end metrics. --trace 1 runs one pass
untraced (for trace.overhead_s), then traced passes, and prints the
per-layer split (see tracing.py). The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; a fuller record, with the
kernel backend, source revision, Python version, nproc, worker count
and seed, goes to .bench_build/results/. NOTES.md describes the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import sysconfig
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"
SETUP_SAMPLES = 11
# The speed gauge (see `gauge`): its loop count, its reading on the
# machine the benchmark was written on (2-vCPU Xeon VM, Python 3.11.7)
# in its faster phases, and the stretch of jobs after which it is read.
GAUGE_LOOPS = 100000
GAUGE_REFERENCE_S = 0.25
GAUGE_EVERY_S = 2.0
SOURCE_FILES = ("setup.py", "setup.cfg", "pyproject.toml", "MANIFEST.in")
# End-to-end metrics (name -> unit), printed with tracing off.
END_TO_END = {
    "wall_s": "ref_s",  # seconds at the gauge's reference speed
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "io_mb_per_s": "MB/ref_s",
}


class LayoutError(Exception):
    """The checkout lacks the package the benchmark measures."""


def source_digest(root: Path) -> str:
    """SHA-256 over the build inputs: setup files and the src/ tree."""
    h = hashlib.sha256()
    files = [root / name for name in SOURCE_FILES if (root / name).is_file()]
    files += sorted(
        p
        for p in (root / "src").rglob("*")
        if p.is_file()
        and "__pycache__" not in p.parts
        and not any(part.endswith(".egg-info") for part in p.parts)
        and p.suffix not in (".pyc", ".so")
    )
    for path in files:
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def have_compiler() -> bool:
    cc = (sysconfig.get_config_var("CC") or "cc").split()[0]
    return shutil.which(cc) is not None


def build_package(root: Path) -> tuple[Path, dict]:
    """Build with setup.py into .bench_build/pkg-<digest>/lib and return
    that directory; a copy of the sources keeps build files out of src/.
    Without a compiler the sources in src/ are used as they are."""
    if not (root / "setup.py").is_file() or not (root / "src" / "btusearch" / "__init__.py").is_file():
        raise LayoutError(f"no setup.py and src/btusearch/ under {root}")
    digest = source_digest(root)
    info = {"source_sha256": digest, "compiler": have_compiler()}
    if not info["compiler"]:
        info["build"] = "skipped: no C compiler"
        return root / "src", info
    target = BUILD / f"pkg-{digest[:16]}"
    lib = target / "lib"
    if (target / "done").is_file():
        info["build"] = "cached"
        return lib, info
    staging = BUILD / f"pkg-{digest[:16]}.{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    copy = staging / "src-copy"
    copy.mkdir(parents=True)
    for name in SOURCE_FILES:
        if (root / name).is_file():
            shutil.copy2(root / name, copy / name)
    shutil.copytree(
        root / "src",
        copy / "src",
        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info", "*.so", "*.pyc"),
    )
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build",
         "--build-base", str(staging / "tmp"), "--build-lib", str(staging / "lib")],
        cwd=copy,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise RuntimeError(f"setup.py build failed with exit {proc.returncode}")
    info["build"] = f"built in {time.perf_counter() - started:.2f}s"
    (staging / "done").write_text(digest + "\n")
    try:
        staging.rename(target)
    except OSError:  # another run finished the same build first
        shutil.rmtree(staging, ignore_errors=True)
    return lib, info


def gauge() -> float:
    """Seconds a fixed pure-Python loop takes right now on each CPU this
    thread may run on, averaged: a reading of the machine's current
    speed. Each virtual CPU of a shared host slows down and recovers on
    its own, so the loop runs once pinned to each. It touches no
    btusearch code, and garbage collection is off while it runs, so
    neither the program nor the size of its heap enters the reading."""
    cpus = os.sched_getaffinity(0)
    enabled = gc.isenabled()
    gc.disable()
    readings = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            started = time.perf_counter()
            acc = 0
            for i in range(GAUGE_LOOPS):
                image = tuple((x * 7 + i) % 13 + 1 for x in range(13))
                acc += sorted(image)[i % 13] + len({x: i for x in image[:5]})
            readings.append(time.perf_counter() - started)
    finally:
        os.sched_setaffinity(0, cpus)
        if enabled:
            gc.enable()
    return statistics.fmean(readings)


def _import_seconds(cmd: list[str], env: dict) -> float:
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env)
    # A blocking wait: Popen.wait(timeout) polls in steps of up to 50 ms,
    # which would quantise the samples.
    watchdog = threading.Timer(120, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    if code != 0:
        raise RuntimeError(f"`import btusearch` exited {code}")
    return time.perf_counter() - started


def time_setup(lib: Path, samples: int = SETUP_SAMPLES) -> list[float]:
    """Wall seconds from starting a fresh interpreter to `import btusearch`
    done, kernel selected. One untimed import first writes bytecode."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(lib)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ))
    cmd = [sys.executable, "-c", "import btusearch"]
    _import_seconds(cmd, env)
    return [_import_seconds(cmd, env) for _ in range(samples)]


class Pass:
    """One run through the job list."""

    def __init__(self):
        self.elapsed = 0.0  # the whole pass, gauge readings and checks included
        self.wall = 0.0  # the jobs' own time
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.ok_seconds = 0.0
        self.ok_bytes = 0
        self.counts: dict[str, int] = {}
        self.errors: dict[str, str] = {}
        self.rss_mb = 0.0  # the process's peak RSS when the pass ended
        self.gauge: list[float] = []  # readings taken during the pass


def run_pass(ops, judge, read_gauge=gauge) -> Pass:
    """Run every op once. An exception or a wrong answer fails the op;
    neither stops the pass. Only the op call itself is timed. The gauge
    is read before the first op, after any op that ends GAUGE_EVERY_S or
    more after the last reading, and after the last op."""
    result = Pass()
    started = time.perf_counter()
    result.gauge.append(read_gauge())
    last_reading = time.perf_counter()
    for i, op in enumerate(ops):
        result.attempted += 1
        t0 = time.perf_counter()
        try:
            outcome = op.call()
        except Exception as exc:  # the run must go on; the op is recorded as failed
            result.wall += time.perf_counter() - t0
            result.failed += 1
            result.errors[op.key] = f"{type(exc).__name__}: {str(exc)[:200]}"
        else:
            spent = time.perf_counter() - t0
            result.wall += spent
            wrong = judge(op, outcome)
            if wrong is None:
                result.ok_seconds += spent
                result.ok_bytes += outcome.nbytes
                for key, value in outcome.counts.items():
                    result.counts[key] = result.counts.get(key, 0) + value
            else:
                result.failed += 1
                result.wrong += 1
                result.errors[op.key] = "wrong answer: " + wrong
        if i == len(ops) - 1 or time.perf_counter() - last_reading >= GAUGE_EVERY_S:
            result.gauge.append(read_gauge())
            last_reading = time.perf_counter()
    result.elapsed = time.perf_counter() - started
    result.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


def timed_passes(run_one, seconds: float) -> list:
    """At least one pass; another only while it should end within `seconds`."""
    started = time.perf_counter()
    passes = [run_one()]
    while time.perf_counter() - started + passes[-1].elapsed <= seconds:
        passes.append(run_one())
    return passes


def git_rev(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() or None


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str,
            pins: dict, workdir: Path) -> dict:
    """Run the workload in this process and return its metrics and record.
    Needs btusearch importable; setup_s is added by the caller."""
    import btusearch
    import tracing
    import workloads

    ops = workloads.build_ops(workload, seed, size, pins, workdir)
    record: dict = {"kernel_backend": getattr(btusearch, "kernel_backend", "unknown")}
    if not trace:
        passes = timed_passes(lambda: run_pass(ops, workloads.judge), seconds)
        ok = sum(p.attempted - p.failed for p in passes)
        attempted = sum(p.attempted for p in passes)
        # Job times are rescaled to the speed at which the gauge reads
        # GAUGE_REFERENCE_S, using the mean reading over the run.
        readings = [g for p in passes for g in p.gauge]
        scale = GAUGE_REFERENCE_S / statistics.fmean(readings)
        ok_seconds = sum(p.ok_seconds for p in passes) * scale
        record["gauge_mean_s"] = statistics.fmean(readings)
        record["raw_wall_s"] = statistics.median(p.wall for p in passes)
        metrics = {
            "wall_s": record["raw_wall_s"] * scale,
            # After the first pass: a later pass can only add allocator
            # growth, and the number of passes varies with machine speed.
            "peak_rss_mb": passes[0].rss_mb,
            "ok_frac": ok / attempted,
            "io_mb_per_s": sum(p.ok_bytes for p in passes) / 1e6 / ok_seconds if ok_seconds else 0.0,
        }
    else:
        untraced = run_pass(ops, workloads.judge)
        tracer = tracing.Tracer()
        tracer.install()
        per_pass = []

        def traced_pass():
            tracer.reset()
            p = run_pass(ops, workloads.judge)
            per_pass.append((tracer.totals(), p))
            return p

        try:
            passes = timed_passes(traced_pass, max(0.0, seconds - untraced.elapsed))
        finally:
            tracer.uninstall()
        snapshots = [
            tracing.layer_metrics(*totals, p.counts, p.ok_bytes, p.wall, untraced.wall)
            for totals, p in per_pass
        ]
        metrics = {
            name: statistics.median(s[name] for s in snapshots) for name in tracing.METRICS
        }
        count_names = [n for n, unit in tracing.METRICS.items() if unit in ("count", "B")]
        record["counts_repeat"] = all(
            s[n] == snapshots[0][n] for s in snapshots for n in count_names
        )
        record["trace_absent"] = tracer.absent
        record["untraced_wall_s"] = untraced.wall
    record.update(
        passes=len(passes),
        pass_wall_s=[p.wall for p in passes],
        pass_gauge_s=[p.gauge for p in passes],
        attempted=sum(p.attempted for p in passes),
        failed=sum(p.failed for p in passes),
        wrong=sum(p.wrong for p in passes),
        errors={k: v for p in passes for k, v in p.errors.items()},
        metrics=metrics,
    )
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        lib, build_info = build_package(ROOT)
    except LayoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(lib))
    sys.path.insert(0, str(BENCH))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    setup_times = [] if args.trace else time_setup(lib)
    # Keep the run, and so the gauge, on the CPUs its threads need: the
    # gauge then reads the speed of the CPUs the jobs run on.
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[: workloads.worker_count(args.workload)])
    pins = json.loads((BENCH / "pins.json").read_text())
    workdir = BUILD / "tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                         "full", pins, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = record.pop("metrics")
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup_times)
    unit_of = tracing.METRICS if args.trace else END_TO_END
    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        git_rev=git_rev(ROOT),
        python=platform.python_version(),
        nproc=len(os.sched_getaffinity(0)),
        worker_count=workloads.worker_count(args.workload),
        setup_samples_s=setup_times,
        **build_info,
    )
    out = {name: {"value": metrics[name], "unit": unit} for name, unit in unit_of.items()}
    record["metrics"] = out
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    for key in ("workload", "seed", "kernel_backend", "git_rev", "source_sha256", "python",
                "nproc", "worker_count", "build", "passes", "raw_wall_s", "gauge_mean_s"):
        if key in record:
            print(f"# {key}: {record[key]}")
    for key, error in record["errors"].items():
        print(f"# failed: {key}: {error}")
    for name, m in out.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": record["wrong"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Shared fixtures: the compiled kernel built from this checkout, and a
switch that routes the package's girth, slot-matching, cycle-growing and
pair-coding calls to either kernel."""

import importlib.util
import shutil
import subprocess
import sys
import sysconfig
from array import array
from pathlib import Path

import pytest

from btusearch import _girth_py, _kernel

ROOT = Path(__file__).resolve().parent.parent


def _have_compiler() -> bool:
    cc = (sysconfig.get_config_var("CC") or "cc").split()[0]
    return shutil.which(cc) is not None


@pytest.fixture(scope="session")
def compiled_kernel(tmp_path_factory):
    """`btusearch._girth_c` built by setup.py into a temporary directory
    and loaded from there, so the tests run the C source of this checkout
    and nothing is written under src/.  Skips without a C compiler."""
    if not _have_compiler():
        pytest.skip("no C compiler to build the compiled kernel")
    out = tmp_path_factory.mktemp("girth_c")
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext",
         "--build-lib", str(out / "lib"), "--build-temp", str(out / "tmp")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    built = sorted((out / "lib" / "btusearch").glob("_girth_c.*"))
    if proc.returncode != 0 or not built:
        pytest.fail(f"building the compiled kernel failed:\n{proc.stdout}{proc.stderr}")
    spec = importlib.util.spec_from_file_location("btusearch._girth_c", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class LooseKernel:
    """The pure kernel, except that an entry whose girth is at most its
    graph's cutoff comes back as that cutoff itself: the largest value the
    `girth_batch` contract allows, with the cutoff rising after every
    graph to the largest entry so far minus slack, and the call ending at
    the first entry >= stop.  A caller that leans on more than the
    contract shows it.  Its slot matcher, cycle grower and pair coder are
    the pure ones."""

    split_slots = staticmethod(_girth_py.split_slots)
    grow_cycles = staticmethod(_girth_py.grow_cycles)
    pair_codes = staticmethod(_girth_py.pair_codes)

    @staticmethod
    def girth_batch(table, index, n_graphs, m, r, out, cutoff, slack=0, stop=0):
        exact = array("i", [0]) * n_graphs
        done = _girth_py.girth_batch(table, index, n_graphs, m, r, exact, cutoff, slack, stop)
        for g in range(done):
            out[g] = exact[g] if exact[g] > cutoff else cutoff
            cutoff = max(cutoff, out[g] - slack)
            if 0 < stop <= out[g]:
                return g + 1
        return done


@pytest.fixture(params=["python", "c"])
def kernel(request):
    """Each girth kernel in turn: the pure reference, then the compiled
    one; "loose" (`LooseKernel`) only where a test asks for it."""
    if request.param == "python":
        return _girth_py
    if request.param == "loose":
        return LooseKernel
    return request.getfixturevalue("compiled_kernel")


@pytest.fixture
def backend(kernel, monkeypatch):
    """Routes every girth evaluation, slot matching, cycle growth and pair
    coding of the package through `kernel`."""
    monkeypatch.setattr(_kernel, "_impl", kernel)
    return kernel

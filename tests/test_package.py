"""The package's import surface: lazy public names, and the CLI's one-thread BLAS pool.

OpenBLAS starts its worker threads when numpy loads, and apnforge makes no BLAS
call, so ``apnforge.cli`` asks for one thread before numpy loads.  ``import
apnforge`` loads no submodule, so a library caller's numpy keeps its own pool.
Each thread count is read from ``/proc/self/status`` in a fresh interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import apnforge

SRC = Path(__file__).resolve().parents[1] / "src"
STATUS = Path("/proc/self/status")


def _threads_after(code: str, **env: str) -> int:
    """The thread count of a fresh interpreter once it has run ``code``."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    script = f"{code}\nprint(open('/proc/self/status').read().split('Threads:')[1].split()[0])"
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env={**base, **env},
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


def _cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


needs_proc = pytest.mark.skipif(not STATUS.exists(), reason="no /proc/self/status to count threads")


@needs_proc
def test_cli_import_leaves_one_thread():
    assert _threads_after("from apnforge import cli") == 1


@needs_proc
@pytest.mark.skipif(_cpus() < 2, reason="OpenBLAS starts one thread per CPU at most")
def test_cli_import_keeps_the_callers_thread_count():
    assert _threads_after("from apnforge import cli", OPENBLAS_NUM_THREADS="2") == 2


@needs_proc
def test_package_import_leaves_numpys_pool_alone():
    assert _threads_after("import apnforge; import numpy") == _threads_after("import numpy")


def test_every_public_name_resolves():
    for name in apnforge.__all__:
        assert getattr(apnforge, name) is not None, name


def test_cli_is_the_submodule():
    from apnforge import cli

    assert cli.__name__ == "apnforge.cli" and callable(cli.main)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(apnforge, "no_such_name")

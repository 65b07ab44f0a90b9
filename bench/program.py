"""Locate and import the erasure_lab sources of the checkout this file sits in.

The benchmark measures the sources under `<checkout>/src`, never an installed
copy, so every import goes through `import_program`.  It also collects the
environment facts that go with every result.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def import_program():
    """Import `erasure_lab.cli` from the checkout's `src`; exit if it is missing."""
    if not (SRC / "erasure_lab" / "__init__.py").is_file():
        raise SystemExit(f"bench: no erasure_lab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import erasure_lab.cli

    if not Path(erasure_lab.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: imported erasure_lab from {erasure_lab.cli.__file__}, not {SRC}")
    return erasure_lab.cli


@contextmanager
def scratch_dir():
    """A temporary directory inside the checkout, removed on exit."""
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as path:
        yield Path(path)


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, or None if there is none."""
    import numpy as np

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _git_commit() -> str:
    """Commit of the checkout, read from `.git` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    """Machine and library facts recorded with every result."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "git_commit": _git_commit(),
    }

"""Environment stamp attached to every result.

BLAS threads are pinned by ``run.py`` before numpy is imported (going from
one to two OpenBLAS threads moves GEMV by ~2x on small containers); the
stamp records the pinned request and what the library reports at run time.
``run.py`` also pins glibc to one malloc arena before any thread starts.
"""

from __future__ import annotations

import ctypes
import os
import pathlib
import platform
import subprocess
import sys
import time
from typing import Dict

#: Environment variables run.py pins before numpy is imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"

_SPIN = (
    "import time\n"
    "n = 0\n"
    "start = time.perf_counter()\n"
    "while n < {loops}:\n"
    "    n += 1\n"
    "print(time.perf_counter() - start)\n"
)


def pin_blas_threads() -> None:
    """Fix the BLAS thread count; must run before numpy is first imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS


#: glibc's mallopt parameter for the number of malloc arenas.
M_ARENA_MAX = -8


def pin_malloc_arenas() -> bool:
    """Make every thread allocate from one glibc malloc arena.

    Must run before the first thread starts.  With an arena per thread,
    memory a farm worker frees stays in its own arena, so which worker ran
    which batch decided the process's peak RSS (peak_rss_mb spread 0.12 of
    its median over five serve-farm seeds; 0.04 with one arena).  Returns
    whether the C library took the setting.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
        return bool(libc.mallopt(M_ARENA_MAX, 1))
    except (OSError, AttributeError):  # not glibc
        return False


def _spin(count: int, loops: int) -> float:
    """Run ``count`` pure-Python spin processes at once; slowest loop time."""
    code = _SPIN.format(loops=loops)
    procs = [
        subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True)
        for _ in range(count)
    ]
    try:
        return max(float(proc.communicate(timeout=60)[0]) for proc in procs)
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()


def effective_parallelism(loops: int = 3_000_000) -> float:
    """Speed-up of two concurrent pure-Python processes over one (1.0 to 2.0).

    ``nproc`` overstates what a shared container delivers; this probe
    measures it.  Each process times only its own loop, so interpreter
    start-up is excluded.
    """
    single = _spin(1, loops)
    pair = _spin(2, loops)
    return 2.0 * single / pair


def _openblas_runtime() -> Dict[str, object]:
    """Thread count and config string from numpy's bundled OpenBLAS, if any."""
    import numpy as np

    libs = pathlib.Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        info: Dict[str, object] = {}
        for suffix in ("64_", ""):
            threads = getattr(handle, f"scipy_openblas_get_num_threads{suffix}", None)
            config = getattr(handle, f"scipy_openblas_get_config{suffix}", None)
            if threads is not None:
                threads.restype = ctypes.c_int
                info["runtime_threads"] = int(threads())
            if config is not None:
                config.restype = ctypes.c_char_p
                info["runtime_config"] = config().decode(errors="replace")
            if info:
                return info
    return {}


def stamp(*, workload: str, backend: str, seed: int, seconds: int,
          trace: bool, malloc_arenas_pinned: bool) -> Dict[str, object]:
    """Everything needed to compare two results: versions, cores, BLAS, inputs."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        affinity = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {
            "vendor": blas.get("name"),
            "version": blas.get("version"),
            "pinned_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
            **_openblas_runtime(),
        },
        "malloc_arena_max": 1 if malloc_arenas_pinned else None,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity_cpus": affinity,
        "effective_parallelism": effective_parallelism(),
        "workload": workload,
        "backend": backend,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "unix_time": time.time(),
    }

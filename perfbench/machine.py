"""Machine facts recorded with every result, and the two roofline references
(memory copy bandwidth and dense matmul rate) measured in traced runs.

`blas_threads` must run before numpy is imported: it caps the BLAS thread
count at the number of cores this process may use.
"""

from __future__ import annotations

import ctypes
import os
import platform
import statistics
import subprocess
import time

COPY_CACHE_MULTIPLE = 4  # the copy array is at least this many times the LLC
REPEATS = 5


def cores():
    return len(os.sched_getaffinity(0))


def blas_threads():
    """Cap BLAS and OpenMP threads at the core count; returns the cap."""
    wanted = int(os.environ.get("OPENBLAS_NUM_THREADS") or cores())
    threads = max(1, min(wanted, cores()))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def last_level_cache_bytes():
    """Size of the highest cache level as lscpu reports it (None if unknown)."""
    try:
        out = subprocess.run(
            ["lscpu", "-B", "-C=LEVEL,ALL-SIZE"], capture_output=True, text=True, timeout=30, check=True
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    sizes = {}
    for line in out.splitlines()[1:]:
        fields = line.split()
        if len(fields) == 2 and fields[0].isdigit() and fields[1].isdigit():
            level = int(fields[0])
            sizes[level] = max(sizes.get(level, 0), int(fields[1]))
    return sizes[max(sizes)] if sizes else None


def _openblas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line.split()[-1]}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def facts():
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    llc = last_level_cache_bytes()
    return {
        "cores": cores(),
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _openblas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cpu": platform.processor() or platform.machine(),
        "llc_bytes": llc,
        "copy_array_bytes": copy_array_bytes(llc),
    }


def copy_array_bytes(llc):
    # 64 MiB when lscpu is unavailable
    return COPY_CACHE_MULTIPLE * (llc or 16 * 2**20)


def copy_gbps(nbytes):
    """Median bandwidth of np.copyto over an array of `nbytes`; a copy reads
    and writes every byte once, so 2 * nbytes move per copy."""
    import numpy as np

    src = np.ones(nbytes // 8)
    dst = np.empty_like(src)
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    return 2 * src.nbytes / statistics.median(times) / 1e9


def gemm_gflops(dtype, n=1024):
    """Median rate of an n x n matmul in `dtype` (2 n^3 flops)."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n)).astype(dtype)
    b = rng.standard_normal((n, n)).astype(dtype)
    a @ b  # let the BLAS threads start
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    return 2 * n**3 / statistics.median(times) / 1e9

"""One OpenBLAS thread per process.

NumPy's OpenBLAS starts one worker thread per core, and between calls a
worker busy-waits. The program's BLAS work is small GEMMs, training's
included, so a second thread mostly spins, and it already spins while
`import numpy` runs. So `cli.main` sets `OPENBLAS_NUM_THREADS=1` before
anything loads NumPy, for every command. Training puts a second core to
other use: `flow.train_flow` runs each coupling's two nets on two threads.

This module does not import NumPy when it is imported. `one_blas_thread`
serves in-process callers, where NumPy is already loaded at whatever count
it started with; `command_dispatch` and `flow.train_flow` both hold it.
"""

from __future__ import annotations

import ctypes
import functools
from collections.abc import Callable, Iterator
from contextlib import contextmanager

# (set, get) symbol pairs of OpenBLAS's thread count: NumPy 2.x's bundled
# scipy-openblas, the 64-bit-integer builds of older NumPy wheels, plain OpenBLAS
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


@functools.cache
def blas_thread_control() -> tuple[str, Callable, Callable] | None:
    """(library path, set, get) of the loaded OpenBLAS's thread count, or None.

    Imports NumPy, which loads its BLAS, before looking for it.
    """
    import numpy  # noqa: F401

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _BLAS_THREAD_SYMBOLS:
            setter, getter = getattr(lib, set_name, None), getattr(lib, get_name, None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return path, setter, getter
    return None


@contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the body with one OpenBLAS thread and restore the count after it.

    No output depends on the count. Without a known OpenBLAS this does
    nothing.
    """
    control = blas_thread_control()
    if control is None:
        yield
        return
    _, set_threads, get_threads = control
    previous = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(previous)

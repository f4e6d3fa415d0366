"""Page-backed arrays for Krylov workspace storage.

A Krylov workspace holds buffers whose size scales with the vector length
``n`` — the ``n × (m+1)`` basis above all.  Allocated through ``malloc``,
their fate after the solve depends on glibc's *dynamic* mmap threshold:
freeing one mmap-served block raises the threshold to that block's size,
so from then on blocks of up to that size come from the heap, and a freed
heap block stays resident.  A process alternating fp64 GMRES and fp32
GMRES-IR then keeps tens of megabytes of dead bases on its heap.

:func:`page_zeros` sidesteps the allocator: each array views its own
private anonymous memory mapping, which the kernel unmaps as soon as the
last view of the array dies.  ``MAP_PRIVATE`` keeps a forked child's
writes out of the parent's workspace (a shared anonymous mapping would
not).  Anonymous pages start zeroed, so the arrays need no fill pass.

Where the platform has it, each mapping also asks for transparent huge
pages, as numpy does for its own large arrays: without the hint a 45 MB
basis is faulted in 4 KiB pages on every solve, and fp64 GMRES(50) on
Laplace3D48 ran about 5% slower than on numpy's huge-page arrays.  The
kernel only uses huge pages for whole aligned 2 MiB extents, so the hint
is a no-op on small buffers.
"""

from __future__ import annotations

import contextlib
import math
import mmap
from typing import Tuple, Union

import numpy as np

__all__ = ["page_zeros"]

# POSIX: private copy-on-write pages.  Windows has no fork and no flags
# argument; its anonymous mappings are already private to the process.
_PRIVATE = (
    {"flags": mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS}
    if hasattr(mmap, "MAP_PRIVATE")
    else {}
)


def page_zeros(
    shape: Union[int, Tuple[int, ...]], dtype, order: str = "C"
) -> np.ndarray:
    """Zero-filled array over its own private anonymous memory mapping.

    Behaves like ``np.zeros(shape, dtype, order=order)``; only the memory
    differs: it is returned to the operating system when the array and
    every view of it are gone.  An empty array takes no mapping, because
    ``mmap`` rejects a zero length.
    """
    dtype = np.dtype(dtype)
    shape = (shape,) if isinstance(shape, (int, np.integer)) else tuple(shape)
    nbytes = math.prod(shape) * dtype.itemsize
    if nbytes == 0:
        return np.zeros(shape, dtype=dtype, order=order)
    pages = mmap.mmap(-1, nbytes, **_PRIVATE)
    # A hint: platforms without madvise or huge pages just skip it.
    with contextlib.suppress(AttributeError, OSError):
        pages.madvise(mmap.MADV_HUGEPAGE)
    return np.ndarray(shape, dtype=dtype, buffer=pages, order=order)

"""The process's allocator policy: freed memory stays on the heap.

glibc serves every block above its mmap threshold (128 KiB at first) with a
fresh ``mmap`` and unmaps it on ``free``, and trims the heap top back to the
OS past its trim threshold.  The transport right-hand side and the metric
kernels allocate and free numpy temporaries of a few hundred KiB to a few
MiB on every call, so each call faulted its pages in again: some 31 000
minor faults per frame pass.  Both thresholds at 32 MiB keep those blocks
on the heap for reuse; a larger array is still mapped and returned to the
OS when freed.  Only allocation changes, never arithmetic, so every
residual and report stays bit for bit the same.
"""

import ctypes

# mallopt(3) parameter numbers of glibc's <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_HEAP_THRESHOLD = 32 * 1024 * 1024


def _keep_freed_memory(libc=None) -> bool:
    """Raise glibc's mmap and trim thresholds to ``_HEAP_THRESHOLD`` for
    the whole process; ``libc`` defaults to the C library the interpreter
    is linked against.  Returns whether both settings took; where libc has
    no ``mallopt`` (macOS, Windows) it does nothing and returns ``False``."""
    try:
        mallopt = (ctypes.CDLL(None) if libc is None else libc).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # glibc returns 1 on success; musl's mallopt is a stub that returns 0
    return all([mallopt(_M_MMAP_THRESHOLD, _HEAP_THRESHOLD) == 1,
                mallopt(_M_TRIM_THRESHOLD, _HEAP_THRESHOLD) == 1])

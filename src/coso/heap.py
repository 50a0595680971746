"""Process-wide C heap settings for the training loop.

Every training iteration allocates and frees the same arrays of a few
hundred KB: the teacher-forcing probabilities and log-probs, (m, n, V) each,
and the one-hot feature blocks of the gradient.  By default glibc hands the
top of its heap back to the kernel whenever more than twice its mmap
threshold lies free there, so the next iteration page-faults the same memory
in again.  Whether it does depends on where small long-lived objects happen
to sit in the heap, so identical runs differ: on a 2-vCPU x86-64 host, a
200k-step menunav PPO run plus a 25.6k-step AWR run took between 35k and 510k
minor page faults, and a menunav iteration took about a tenth longer while
faulting (0.2-0.4k faults per iteration).

keep_heap() fixes both thresholds once per process: blocks below MMAP_BYTES
come from the heap, and up to TRIM_BYTES of free heap top stays mapped for
the next iteration.  Only allocation changes; no computed value does.
"""
from __future__ import annotations

import ctypes
import functools

M_TRIM_THRESHOLD = -1  # mallopt parameter numbers of glibc's malloc.h
M_MMAP_THRESHOLD = -3
# above the largest per-iteration array (0.4 MB on menunav) and at most the
# 32 MiB glibc accepts on 64-bit hosts
MMAP_BYTES = 4 << 20
TRIM_BYTES = 64 << 20


@functools.cache
def keep_heap() -> bool:
    """Set both thresholds on the first call.  Returns whether they are set:
    False where the C library has no mallopt (not glibc) or refuses."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    return bool(mallopt(M_MMAP_THRESHOLD, MMAP_BYTES)
                and mallopt(M_TRIM_THRESHOLD, TRIM_BYTES))

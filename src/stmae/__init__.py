"""Space-time masked video autoencoder, attention readouts, 4D task metrics,
and a synthetic-world training/evaluation harness.

Importing the package tells the C allocator to keep freed memory in the
process. Each training, render or eval step frees large arrays that the
next step allocates again. By default glibc returns them to the kernel:
arrays above its mmap threshold are unmapped, and the heap top is trimmed
above its trim threshold. The next step then faults every page back in:
about 20k minor page faults and 64 ms of system time in a render-free
pretrain step of the benchmark (2 vCPU), and none once the policy is set.
With both thresholds at 1 GiB, freed memory stays in glibc's heap, which
coalesces and reuses chunks of any size. Both must be set, because setting
either one turns off glibc's dynamic mmap threshold. Where the C library
has no `mallopt` (it is not glibc), nothing is set and its own policy
holds. Results do not depend on it.
"""

import ctypes

__version__ = "0.1.0"

_KEEP_FREED_BYTES = 1 << 30
_M_TRIM_THRESHOLD = -1      # glibc <malloc.h>
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory():
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):    # no C library handle, or no mallopt in it
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _KEEP_FREED_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _KEEP_FREED_BYTES)


_keep_freed_memory()

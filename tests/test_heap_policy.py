"""The allocator policy is set on `import slabflow`, so it reaches every entry point.

glibc's default serves a 2 MiB block by mmap; with the package's mmap threshold
of 32 MiB it comes from the heap.  A child process that imports only the
surface-energy module, so that no `Simulator` is ever built, allocates a 2 MiB
array and reads glibc's mmap-served byte count (`mallinfo2().hblkhd`) before and
after: it must not grow.
"""

import ctypes
import os
import subprocess
import sys

import pytest

import slabflow

SRC = os.path.dirname(os.path.dirname(os.path.abspath(slabflow.__file__)))

CHILD = """
import ctypes
import numpy as np
import slabflow.surface_energy

class Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]

mallinfo2 = ctypes.CDLL(None).mallinfo2
mallinfo2.restype = Mallinfo2
before = mallinfo2().hblkhd
block = np.ones((2 << 20) // 8)
print(mallinfo2().hblkhd - before)
"""


def _has_mallinfo2() -> bool:
    try:
        ctypes.CDLL(None).mallinfo2
    except (OSError, AttributeError):
        return False
    return True


@pytest.mark.skipif(not _has_mallinfo2(), reason="needs glibc's mallinfo2")
def test_surface_energy_import_alone_keeps_large_blocks_on_the_heap():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    done = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert int(done.stdout.split()[-1]) == 0

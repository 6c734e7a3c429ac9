"""numpy, imported on first use.

Modules of this package bind ``np`` from here, never with ``import numpy``, and
touch no numpy attribute at module level, so commands that never touch an array
start without numpy. A name not yet kept on ``np`` is read under one lock, so
threads may make the first use at once; a later read is a plain lookup.

The import rule: once ``cli.main`` has called ``mark_program``, the first read
imports numpy with ``OPENBLAS_NUM_THREADS=1``, unless the caller set one of
``BLAS_THREAD_VARS``. asrlab calls no BLAS routine, and OpenBLAS would start a
worker per extra CPU that spins beside the transcriber children. The variable
is removed before the lock is released, and a thread starts a transcriber only
once numpy is loaded or after its own read of ``np``, so each child gets
exactly the caller's environment. Library use, without ``cli.main``, imports
numpy as it is: the host program may call BLAS itself.
"""

import os
import sys
import threading

__all__ = ["np", "mark_program"]

# the variables OpenBLAS reads its thread count from, in its order of precedence
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

_program = False
_lock = threading.Lock()


def mark_program() -> None:
    """Mark this process as the asrlab program: numpy, if not yet imported, will load with one BLAS thread."""
    global _program
    _program = True


class _Numpy:
    """Reads each name from numpy on first use, importing it, and keeps it."""

    def __getattr__(self, name: str):
        with _lock:
            if _program and "numpy" not in sys.modules and not any(var in os.environ for var in BLAS_THREAD_VARS):
                os.environ["OPENBLAS_NUM_THREADS"] = "1"
                try:
                    import numpy
                finally:
                    del os.environ["OPENBLAS_NUM_THREADS"]
            import numpy

            value = getattr(numpy, name)
            setattr(self, name, value)
            return value


np = _Numpy()

"""numpy, imported on first use.

Modules of this package bind ``np`` from here, never with ``import numpy``, and
touch no numpy attribute at module level, so commands that never touch an array
start without numpy. The first name read from ``np`` runs an ordinary
``import numpy``, which holds the import lock, so threads may make that first
use at once. Each name read is kept on ``np``; a later read is a plain lookup.
"""

__all__ = ["np"]


class _Numpy:
    """Reads each name from numpy on first use, importing it, and keeps it."""

    def __getattr__(self, name: str):
        import numpy

        value = getattr(numpy, name)
        setattr(self, name, value)
        return value


np = _Numpy()

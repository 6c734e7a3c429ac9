"""numpy, bound on first use.

Modules of this package bind ``np`` from here, never with ``import numpy``, and
touch no numpy attribute at module level. Importing one of them then leaves
``sys.modules["numpy"]`` a lazy module, and numpy's own import runs on the
first attribute access, so commands that never touch an array start without
it. A later ``import numpy`` anywhere in the process simply loads it.

Before Python 3.12 the first load of a lazy module is not thread-safe, and
this one is the process's ``numpy`` for every caller. So after importing an
asrlab module, code that starts threads which may touch numpy, through asrlab
or through any other import of numpy, must run ``import numpy`` first, on the
starting thread; the statement loads it.
"""

from __future__ import annotations

import importlib.util
import sys
import types

__all__ = ["np"]


def _lazy_module(name: str) -> types.ModuleType:
    """The module `name` if it is already imported, else a lazy one put in ``sys.modules``."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_module("numpy")

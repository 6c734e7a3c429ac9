"""Named random substreams derived from one master seed.

Every randomized operation draws from a substream keyed by what the draw is
for (file id, SNR point, ...) rather than from a shared sequential stream, so
results do not depend on worker scheduling or evaluation order.
"""

from __future__ import annotations

import zlib

from ._lazy import np

__all__ = ["substream"]


def _key_to_int(key: object) -> int:
    return zlib.crc32(repr(key).encode("utf-8"))


def substream(master_seed: int, *names: object) -> np.random.Generator:
    """Generator for the substream identified by (master_seed, *names); master_seed must be >= 0."""
    seq = np.random.SeedSequence([master_seed] + [_key_to_int(n) for n in names])
    return np.random.default_rng(seq)

"""Data-budget calculator: optimal training hours for a given parameter count.

hours = params * tokens_per_param / (words_per_minute * tokens_per_word * 60).
With the defaults (120 WpM, 4/3 tokens per word, 20 tokens per parameter) a
264M-parameter model calls for 550k hours of speech.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["ScalingAssumptions", "optimal_hours"]


@dataclass(frozen=True)
class ScalingAssumptions:
    wpm: float = 120.0
    tpw: float = 4.0 / 3.0
    tpp: float = 20.0

    def __post_init__(self) -> None:
        for name in ("wpm", "tpw", "tpp"):
            value = getattr(self, name)
            if not 0 < value < math.inf:  # False for NaN too
                raise ValueError(f"{name} must be finite and strictly positive, got {value}")


def optimal_hours(params: int, a: ScalingAssumptions = ScalingAssumptions()) -> float:
    """Hours of speech that match the token budget for `params` parameters."""
    if params <= 0:
        raise ValueError("params must be positive")
    return params * a.tpp / (a.wpm * a.tpw * 60.0)

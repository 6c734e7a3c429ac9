"""Exponential moving average of model parameters, kept for inference."""

from __future__ import annotations

from dataclasses import dataclass

from .._lazy import np

__all__ = ["EmaState", "ema_update"]


@dataclass(frozen=True)
class EmaState:
    """Shadow parameter vector and its fixed decay in [0, 1]."""

    shadow: np.ndarray
    decay: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "shadow", np.asarray(self.shadow, dtype=np.float64))
        if not 0.0 <= self.decay <= 1.0:
            raise ValueError("decay must lie in [0, 1]")
        if not np.all(np.isfinite(self.shadow)):
            raise ValueError("shadow parameters must be finite")


def ema_update(state: EmaState, params: np.ndarray) -> EmaState:
    """shadow <- decay * shadow + (1 - decay) * params."""
    params = np.asarray(params, dtype=np.float64)
    if params.shape != state.shadow.shape:
        raise ValueError(f"shape mismatch: {params.shape} vs {state.shadow.shape}")
    return EmaState(shadow=state.decay * state.shadow + (1.0 - state.decay) * params, decay=state.decay)

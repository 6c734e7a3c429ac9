"""Chunk-wise diagonal attention masks for streaming encoders.

Within every layer a frame may attend to its own chunk plus a fixed number of
frames of left context, and never past its chunk's right edge, so no future
audio leaks into the output. Stacking layers grows the effective receptive
field on the left side only: after L layers it spans chunk + L * left_context
frames, each frame covering FRAME_MS of audio.
"""

from __future__ import annotations

from dataclasses import dataclass

from .._lazy import np

__all__ = ["MaskSpec", "make_stream_mask", "receptive_field"]

FRAME_MS = 80.0  # one subsampled encoder frame: 8 input frames of 10 ms


@dataclass(frozen=True)
class MaskSpec:
    n_frames: int
    chunk_frames: int
    n_layers: int
    left_context: int

    def __post_init__(self) -> None:
        if self.chunk_frames < 1:
            raise ValueError("chunk_frames must be >= 1")
        if self.n_layers < 1:
            raise ValueError("n_layers must be >= 1")
        if self.n_frames < 1:
            raise ValueError("n_frames must be >= 1")
        if self.left_context < 0:
            raise ValueError("left_context must be >= 0")


def make_stream_mask(spec: MaskSpec) -> list[np.ndarray]:
    """Per-layer boolean masks of shape (n_frames, n_frames); True = may attend.

    Frame i in chunk c attends to [chunk_start(c) - left_context, chunk_end(c)]
    clamped to the valid range. Every layer gets the same mask, so the list
    holds one read-only array n_layers times.
    """
    frames = np.arange(spec.n_frames)
    chunk_start = frames // spec.chunk_frames * spec.chunk_frames
    lo = np.maximum(0, chunk_start - spec.left_context)
    hi = chunk_start + spec.chunk_frames  # exclusive; right edge of own chunk
    base = (frames >= lo[:, None]) & (frames < hi[:, None])
    base.flags.writeable = False
    return [base] * spec.n_layers


def receptive_field(spec: MaskSpec) -> int:
    """Cumulative lookback in frames after stacking spec.n_layers masked layers.

    frames = chunk_frames + n_layers * left_context; multiply by FRAME_MS for ms.
    """
    return spec.chunk_frames + spec.n_layers * spec.left_context

"""Mono PCM audio carrier and 16-bit WAV I/O (little-endian RIFF, 16 kHz default)."""

from __future__ import annotations

import wave
from dataclasses import dataclass

from ._lazy import np

__all__ = ["AudioBuffer", "read_wav", "write_wav"]


@dataclass
class AudioBuffer:
    """Mono samples as float64 in nominal [-1, 1], plus the sample rate."""

    samples: np.ndarray
    sample_rate_hz: int = 16000

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError("AudioBuffer is mono: samples must be 1-D")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples must be finite")
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration_sec(self) -> float:
        return len(self.samples) / self.sample_rate_hz

    def power(self) -> float:
        """Mean square over the whole clip."""
        if len(self.samples) == 0:
            return 0.0
        return float(np.mean(self.samples**2))


def read_wav(path: str) -> AudioBuffer:
    """Read a mono 16-bit PCM WAV file; a file that is not one raises ValueError naming the path."""
    try:
        with wave.open(path, "rb") as wf:
            if wf.getnchannels() != 1:
                raise ValueError(f"{path}: expected mono, got {wf.getnchannels()} channels")
            if wf.getsampwidth() != 2:
                raise ValueError(f"{path}: expected 16-bit samples, got {8 * wf.getsampwidth()}-bit")
            raw = wf.readframes(wf.getnframes())
            rate = wf.getframerate()
    except (wave.Error, EOFError) as exc:
        raise ValueError(f"{path}: not a readable WAV file: {str(exc) or 'unexpected end of file'}") from None
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32767.0
    return AudioBuffer(samples=samples, sample_rate_hz=rate)


def write_wav(buf: AudioBuffer, path: str) -> None:
    """Write mono 16-bit PCM; samples are clipped to [-1, 1] at quantization."""
    scaled = np.clip(buf.samples, -1.0, 1.0)
    ints = np.round(scaled * 32767.0).astype("<i2")
    with wave.open(path, "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(buf.sample_rate_hz)
        wf.writeframes(ints.tobytes())

"""Mono PCM audio carrier and 16-bit WAV I/O (little-endian RIFF, 16 kHz default)."""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

from ._lazy import np

if TYPE_CHECKING:
    import wave

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


@contextlib.contextmanager
def _open_pcm16(path: str) -> Iterator[wave.Wave_read]:
    """Open a WAV once it is checked to be mono 16-bit PCM at 1 Hz or more; if not, ValueError names the path."""
    import wave

    try:
        wf = wave.open(path, "rb")
    except (wave.Error, EOFError) as exc:
        raise ValueError(f"{path}: not a readable WAV file: {str(exc) or 'unexpected end of file'}") from None
    with wf:
        if wf.getnchannels() != 1:
            raise ValueError(f"{path}: expected mono, got {wf.getnchannels()} channels")
        if wf.getsampwidth() != 2:
            raise ValueError(f"{path}: expected 16-bit samples, got {8 * wf.getsampwidth()}-bit")
        if wf.getframerate() < 1:
            raise ValueError(f"{path}: expected a frame rate of at least 1 Hz, got {wf.getframerate()}")
        yield wf


def _read_pcm16(wf: wave.Wave_read, path: str, start: int, count: int) -> np.ndarray:
    """`count` int16 samples from sample `start` of a file opened with _open_pcm16.

    Data that ends before the header's frame count raises ValueError naming the path.
    """
    wf.setpos(start)
    raw = wf.readframes(count)
    if len(raw) != 2 * count:
        raise ValueError(
            f"{path}: truncated WAV: header says {wf.getnframes()} frames, data holds {start + len(raw) // 2}"
        )
    return np.frombuffer(raw, dtype="<i2")


def _pcm16_to_float(ints: np.ndarray) -> np.ndarray:
    """int16 samples as float64 in [-1, 1]: each divided by 32767."""
    samples = ints.astype(np.float64)
    samples /= 32767.0
    return samples


def read_wav(path: str) -> AudioBuffer:
    """Read a mono 16-bit PCM WAV file; a file that is not one, or is truncated, raises ValueError naming the path."""
    with _open_pcm16(path) as wf:
        samples = _pcm16_to_float(_read_pcm16(wf, path, 0, wf.getnframes()))
        return AudioBuffer(samples=samples, sample_rate_hz=wf.getframerate())


def _write_pcm16(path: str, sample_rate_hz: int, pieces: Iterable[np.ndarray]) -> None:
    """Write int16 sample arrays, one after another, as one mono 16-bit PCM WAV.

    -32768 is written as -32767, so the file holds exactly what write_wav
    makes of the samples read_wav returns.
    """
    import wave

    with wave.open(path, "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(sample_rate_hz)
        for ints in pieces:
            wf.writeframesraw(np.maximum(ints, -32767).astype("<i2", copy=False).tobytes())


def write_wav(buf: AudioBuffer, path: str) -> None:
    """Write mono 16-bit PCM; samples are clipped to [-1, 1] at quantization."""
    scaled = np.clip(buf.samples, -1.0, 1.0)
    _write_pcm16(path, buf.sample_rate_hz, [np.round(scaled * 32767.0).astype("<i2")])

"""Long-form decoding support: silence stripping, overlapping chunks, stitching.

Long audio is decoded as overlapping fixed-length chunks because transducer
decoders are least reliable near chunk edges; the per-chunk transcripts are
then joined by finding the shared token run at each junction and keeping the
left copy, so overlap text is never duplicated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable

from ._lazy import np
from .audio import AudioBuffer, _open_pcm16, _pcm16_to_float, _read_pcm16, _write_pcm16
from .config import _in_range

__all__ = [
    "energy_vad",
    "speech_stats",
    "remove_silences",
    "voiced_ranges",
    "write_voiced_chunks",
    "ChunkPlan",
    "plan_chunks",
    "stitch",
]


VAD_FRAME_MS = 30.0
VAD_FLOOR_DBFS = -40.0
VAD_HANGOVER = 5  # frames a speech run is extended by
_VAD_BLOCK_SAMPLES = 1 << 16  # samples read and squared at once when computing frame energies


def _frame_len(sample_rate_hz: int) -> int:
    return max(1, int(round(sample_rate_hz * VAD_FRAME_MS / 1000.0)))


def _block_len(frame_len: int) -> int:
    """Samples in one block of the frame-energy pass: whole frames, about _VAD_BLOCK_SAMPLES."""
    return max(1, _VAD_BLOCK_SAMPLES // frame_len) * frame_len


def _frame_energies(blocks: Iterable[np.ndarray], frame_len: int, n_samples: int) -> np.ndarray:
    """Mean-square energy of each frame of a signal given as consecutive blocks.

    Every block holds whole frames except the last, which may end in the
    signal's part frame; so no signal-sized temporary is made.
    """
    n_full, tail = divmod(n_samples, frame_len)
    energy = np.empty(n_full + (tail > 0))
    first = 0
    for block in blocks:
        k = len(block) // frame_len
        energy[first : first + k] = np.mean(block[: k * frame_len].reshape(-1, frame_len) ** 2, axis=1)
        first += k
        if len(block) > k * frame_len:
            energy[first] = np.mean(block[k * frame_len :] ** 2)
    return energy


def _speech_ranges(energy: np.ndarray, frame_len: int, n_samples: int) -> list[tuple[int, int]]:
    """Threshold the frame energies, extend each speech run by the hangover, and return the runs as sample ranges."""
    active = 10.0 * np.log10(energy + 1e-12) > VAD_FLOOR_DBFS

    # hangover: a frame is speech if an active frame lies at most VAD_HANGOVER frames before it
    index = np.arange(len(energy))
    last_active = np.maximum.accumulate(np.where(active, index, -(VAD_HANGOVER + 1)))
    speech = index - last_active <= VAD_HANGOVER

    edges = np.diff(speech.astype(np.int8), prepend=0, append=0)
    starts, ends = np.flatnonzero(edges == 1).tolist(), np.flatnonzero(edges == -1).tolist()
    return [(s * frame_len, min(e * frame_len, n_samples)) for s, e in zip(starts, ends)]


def energy_vad(audio: AudioBuffer) -> list[tuple[int, int]]:
    """Energy-threshold voice activity detection with hangover smoothing.

    Frames of VAD_FRAME_MS whose mean-square energy exceeds VAD_FLOOR_DBFS are
    speech; each speech run is extended by VAD_HANGOVER frames so brief dips do
    not split a run. Returns the [start, stop) sample ranges of the speech,
    disjoint and sorted. This is a pluggable default; an external detector can
    supply such ranges instead.
    """
    if len(audio) == 0:
        raise ValueError("audio is empty")
    samples = audio.samples
    frame_len = _frame_len(audio.sample_rate_hz)
    step = _block_len(frame_len)
    blocks = (samples[first : first + step] for first in range(0, len(samples), step))
    return _speech_ranges(_frame_energies(blocks, frame_len, len(samples)), frame_len, len(samples))


def voiced_ranges(path: str) -> tuple[int, list[tuple[int, int]]]:
    """The sample rate of a mono 16-bit WAV and the [start, stop) sample ranges of its speech.

    The ranges are energy_vad's of read_wav(path), but the file is read a
    block at a time and only the frame energies are kept, so memory does not
    grow with the recording. An empty file has no ranges.
    """
    with _open_pcm16(path) as wf:
        sr, n = wf.getframerate(), wf.getnframes()
        frame_len = _frame_len(sr)
        step = _block_len(frame_len)
        blocks = (_pcm16_to_float(_read_pcm16(wf, path, first, min(step, n - first))) for first in range(0, n, step))
        energy = _frame_energies(blocks, frame_len, n)
    return sr, _speech_ranges(energy, frame_len, n)


def write_voiced_chunks(
    path: str, ranges: list[tuple[int, int]], bounds: list[tuple[float, float]], out_paths: list[str]
) -> None:
    """Write each chunk of a WAV's voiced audio to its own mono 16-bit WAV.

    The voiced audio is the file's samples in `ranges`, joined; chunk i spans
    bounds[i], in seconds of voiced audio, and goes to out_paths[i]. Each chunk
    is read from the file when it is written, so the voiced audio is never held.
    """
    offsets = list(accumulate((stop - start for start, stop in ranges), initial=0))
    with _open_pcm16(path) as wf:
        sr = wf.getframerate()
        for (start_sec, end_sec), out_path in zip(bounds, out_paths):
            lo, hi = int(round(start_sec * sr)), int(round(end_sec * sr))
            pieces = []
            for (start, stop), offset in zip(ranges, offsets):
                first, last = max(lo, offset), min(hi, offset + stop - start)
                if first < last:
                    pieces.append(_read_pcm16(wf, path, start + first - offset, last - first))
            _write_pcm16(out_path, sr, pieces)


def speech_stats(ranges: list[tuple[int, int]], n_samples: int, sample_rate_hz: int) -> tuple[float, float]:
    """(speech_ratio, max_continuous_silence_sec) of a VAD result: disjoint, sorted sample ranges of n_samples.

    Leading and trailing silence count toward the maximum; with no speech the
    whole recording is silence.
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    starts = [start for start, _ in ranges] + [n_samples]
    stops = [0] + [stop for _, stop in ranges]
    speech = sum(stop - start for start, stop in ranges)
    return speech / n_samples, max(b - a for a, b in zip(stops, starts)) / sample_rate_hz


def remove_silences(audio: AudioBuffer, ranges: list[tuple[int, int]]) -> AudioBuffer:
    """Concatenate the audio's [start, stop) sample ranges of speech, dropping everything between them."""
    if not ranges:
        return AudioBuffer(samples=np.zeros(0), sample_rate_hz=audio.sample_rate_hz)
    parts = [audio.samples[start:stop] for start, stop in ranges]
    return AudioBuffer(samples=np.concatenate(parts), sample_rate_hz=audio.sample_rate_hz)


@dataclass
class ChunkPlan:
    bounds: list[tuple[float, float]]


def plan_chunks(duration_sec: float, chunk_len: float = 25.0, overlap: float = 5.0) -> ChunkPlan:
    """Overlapping chunk boundaries covering [0, duration].

    Starts advance by the stride chunk_len - overlap; the final chunk is
    right-aligned to the end so the union covers the whole input. A stride no
    larger than the float step at the last start raises ValueError.
    """
    if not (math.isfinite(duration_sec) and duration_sec > 0):
        raise ValueError(f"duration_sec must be positive and finite, got {duration_sec}")
    if not 0 < overlap < chunk_len:
        raise ValueError("need 0 < overlap < chunk_len")
    if duration_sec <= chunk_len:
        return ChunkPlan([(0.0, duration_sec)])
    stride = chunk_len - overlap
    last_start = duration_sec - chunk_len
    if stride <= math.ulp(last_start):  # a start could round back onto itself: the loop below would never end
        raise ValueError(f"a stride of {stride:g} s is too small to advance a start of {last_start:g} s")
    bounds: list[tuple[float, float]] = []
    start = 0.0
    while start + chunk_len < duration_sec:
        bounds.append((start, start + chunk_len))
        start += stride
    # chunks the right-aligned tail makes redundant would triple-cover points
    while len(bounds) >= 2 and bounds[-2][1] > last_start:
        bounds.pop()
    bounds.append((last_start, duration_sec))
    return ChunkPlan(bounds)


def _join_pair(left: list[str], right: list[str], min_match_tokens: int) -> list[str]:
    from difflib import SequenceMatcher

    m = SequenceMatcher(None, left, right, autojunk=False).find_longest_match(0, len(left), 0, len(right))
    if m.size >= min_match_tokens:
        # keep the left copy of the shared run, then the right continuation
        return left[: m.a + m.size] + right[m.b + m.size :]
    return left + right


def stitch(partials: list[list[str]], min_match_tokens: int = 3) -> list[str]:
    """Join per-chunk transcripts, given as word lists in chunk order, into one word sequence.

    At each junction the longest shared token run between the next partial
    and the tail of the output as long as the previous partial is located; if
    it has at least min_match_tokens tokens (which must be >= 1), the texts
    are joined there with the left copy kept. Otherwise the texts are
    concatenated unchanged. A chunk never starts before the one before it, so
    the true junction lies in that tail, and a phrase repeated earlier in the
    recording cannot capture it.
    """
    if fault := _in_range(1)(min_match_tokens):
        raise ValueError(f"min_match_tokens {fault}")
    out = list(partials[0]) if partials else []
    for prev, words in zip(partials, partials[1:]):
        cut = max(len(out) - len(prev), 0)
        out[cut:] = _join_pair(out[cut:], words, min_match_tokens)
    return out

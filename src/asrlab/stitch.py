"""Long-form decoding support: silence stripping, overlapping chunks, stitching.

Long audio is decoded as overlapping fixed-length chunks because transducer
decoders are least reliable near chunk edges; the per-chunk transcripts are
then joined by finding the shared token run at each junction and keeping the
left copy, so overlap text is never duplicated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from difflib import SequenceMatcher
from itertools import accumulate
from typing import Iterable

from ._lazy import np
from .audio import AudioBuffer, open_pcm16, pcm16_to_float, read_pcm16, write_pcm16

__all__ = [
    "SpeechSegment",
    "energy_vad",
    "speech_stats",
    "remove_silences",
    "voiced_ranges",
    "write_voiced_chunks",
    "ChunkPlan",
    "plan_chunks",
    "PartialTranscript",
    "stitch",
]


@dataclass(frozen=True)
class SpeechSegment:
    start_sec: float
    end_sec: float

    def __post_init__(self) -> None:
        if self.start_sec >= self.end_sec:
            raise ValueError("segment must have start < end")


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


def _speech_segments(energy: np.ndarray, frame_len: int, n_samples: int, sample_rate_hz: int) -> list[SpeechSegment]:
    """Threshold the frame energies, extend each speech run by the hangover, and return the runs."""
    active = 10.0 * np.log10(energy + 1e-12) > VAD_FLOOR_DBFS

    # hangover: a frame is speech if an active frame lies at most VAD_HANGOVER frames before it
    index = np.arange(len(energy))
    last_active = np.maximum.accumulate(np.where(active, index, -(VAD_HANGOVER + 1)))
    speech = index - last_active <= VAD_HANGOVER

    edges = np.diff(speech.astype(np.int8), prepend=0, append=0)
    starts, ends = np.flatnonzero(edges == 1).tolist(), np.flatnonzero(edges == -1).tolist()
    return [SpeechSegment(s * frame_len / sample_rate_hz, min(e * frame_len, n_samples) / sample_rate_hz)
            for s, e in zip(starts, ends)]


def energy_vad(audio: AudioBuffer) -> list[SpeechSegment]:
    """Energy-threshold voice activity detection with hangover smoothing.

    Frames of VAD_FRAME_MS whose mean-square energy exceeds VAD_FLOOR_DBFS are
    speech; each speech run is extended by VAD_HANGOVER frames so brief dips do
    not split segments. Returned segments are disjoint and sorted. This is a
    pluggable default; an external detector can supply SpeechSegments instead.
    """
    if len(audio) == 0:
        raise ValueError("audio is empty")
    sr, samples = audio.sample_rate_hz, audio.samples
    frame_len = _frame_len(sr)
    step = _block_len(frame_len)
    blocks = (samples[first : first + step] for first in range(0, len(samples), step))
    return _speech_segments(_frame_energies(blocks, frame_len, len(samples)), frame_len, len(samples), sr)


def _sample_ranges(segments: list[SpeechSegment], sample_rate_hz: int) -> list[tuple[int, int]]:
    return [(int(round(s.start_sec * sample_rate_hz)), int(round(s.end_sec * sample_rate_hz))) for s in segments]


def voiced_ranges(path: str) -> tuple[int, list[tuple[int, int]]]:
    """The sample rate of a mono 16-bit WAV and the [start, stop) sample ranges of its speech.

    The ranges are those remove_silences keeps of energy_vad's segments of
    read_wav(path), but the file is read a block at a time and only the frame
    energies are kept, so memory does not grow with the recording. An empty
    file has no ranges.
    """
    with open_pcm16(path) as wf:
        sr, n = wf.getframerate(), wf.getnframes()
        frame_len = _frame_len(sr)
        step = _block_len(frame_len)
        blocks = (pcm16_to_float(read_pcm16(wf, path, first, min(step, n - first))) for first in range(0, n, step))
        energy = _frame_energies(blocks, frame_len, n)
    return sr, _sample_ranges(_speech_segments(energy, frame_len, n, sr), sr)


def write_voiced_chunks(
    path: str, ranges: list[tuple[int, int]], bounds: list[tuple[float, float]], out_paths: list[str]
) -> None:
    """Write each chunk of a WAV's voiced audio to its own mono 16-bit WAV.

    The voiced audio is the file's samples in `ranges`, joined; chunk i spans
    bounds[i], in seconds of voiced audio, and goes to out_paths[i]. Each chunk
    is read from the file when it is written, so the voiced audio is never held.
    """
    offsets = list(accumulate((stop - start for start, stop in ranges), initial=0))
    with open_pcm16(path) as wf:
        sr = wf.getframerate()
        for (start_sec, end_sec), out_path in zip(bounds, out_paths):
            lo, hi = int(round(start_sec * sr)), int(round(end_sec * sr))
            pieces = []
            for (start, stop), offset in zip(ranges, offsets):
                first, last = max(lo, offset), min(hi, offset + stop - start)
                if first < last:
                    pieces.append(read_pcm16(wf, path, start + first - offset, last - first))
            write_pcm16(out_path, sr, pieces)


def speech_stats(segments: list[SpeechSegment], duration_sec: float) -> tuple[float, float]:
    """(speech_ratio, max_continuous_silence_sec) for a VAD result.

    Leading and trailing silence count toward the maximum; with no speech the
    whole duration is silence.
    """
    if duration_sec <= 0:
        raise ValueError("duration_sec must be positive")
    if not segments:
        return 0.0, duration_sec
    speech = sum(s.end_sec - s.start_sec for s in segments)
    gaps = [segments[0].start_sec]
    for a, b in zip(segments, segments[1:]):
        gaps.append(b.start_sec - a.end_sec)
    gaps.append(duration_sec - segments[-1].end_sec)
    return min(speech / duration_sec, 1.0), max(gaps)


def remove_silences(audio: AudioBuffer, segments: list[SpeechSegment]) -> AudioBuffer:
    """Concatenate the speech segments, dropping everything between them."""
    if not segments:
        return AudioBuffer(samples=np.zeros(0), sample_rate_hz=audio.sample_rate_hz)
    parts = [audio.samples[start:stop] for start, stop in _sample_ranges(segments, audio.sample_rate_hz)]
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


@dataclass
class PartialTranscript:
    """Decoded words for one chunk; indices must be contiguous from 0."""

    index: int
    words: list[str]


def _join_pair(left: list[str], right: list[str], min_match_tokens: int) -> list[str]:
    m = SequenceMatcher(None, left, right, autojunk=False).find_longest_match(0, len(left), 0, len(right))
    if m.size >= min_match_tokens:
        # keep the left copy of the shared run, then the right continuation
        return left[: m.a + m.size] + right[m.b + m.size :]
    return left + right


def stitch(partials: list[PartialTranscript], min_match_tokens: int = 3) -> list[str]:
    """Join per-chunk transcripts into one word sequence.

    At each junction the longest shared token run between the next partial
    and the tail of the output as long as the previous partial is located; if
    it has at least min_match_tokens tokens (which must be >= 1), the texts
    are joined there with the left copy kept. Otherwise the texts are
    concatenated unchanged. A chunk never starts before the one before it, so
    the true junction lies in that tail, and a phrase repeated earlier in the
    recording cannot capture it.
    """
    if min_match_tokens < 1:
        raise ValueError(f"min_match_tokens must be >= 1, got {min_match_tokens}")
    if not partials:
        return []
    ordered = sorted(partials, key=lambda p: p.index)
    if [p.index for p in ordered] != list(range(len(ordered))):
        raise ValueError("partial transcript indices must be contiguous from 0")
    out = list(ordered[0].words)
    for prev, part in zip(ordered, ordered[1:]):
        cut = max(len(out) - len(prev.words), 0)
        out[cut:] = _join_pair(out[cut:], part.words, min_match_tokens)
    return out

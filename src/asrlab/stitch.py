"""Long-form decoding support: silence stripping, overlapping chunks, stitching.

Long audio is decoded as overlapping fixed-length chunks because transducer
decoders are least reliable near chunk edges; the per-chunk transcripts are
then joined by finding the shared token run at each junction and keeping the
left copy, so overlap text is never duplicated.
"""

from __future__ import annotations

from dataclasses import dataclass
from difflib import SequenceMatcher

import numpy as np

from .audio import AudioBuffer

__all__ = [
    "SpeechSegment",
    "energy_vad",
    "speech_stats",
    "remove_silences",
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


def energy_vad(audio: AudioBuffer) -> list[SpeechSegment]:
    """Energy-threshold voice activity detection with hangover smoothing.

    Frames of VAD_FRAME_MS whose mean-square energy exceeds VAD_FLOOR_DBFS are
    speech; each speech run is extended by VAD_HANGOVER frames so brief dips do
    not split segments. Returned segments are disjoint and sorted. This is a
    pluggable default; an external detector can supply SpeechSegments instead.
    """
    if len(audio) == 0:
        raise ValueError("audio is empty")
    frame_len = max(1, int(round(audio.sample_rate_hz * VAD_FRAME_MS / 1000.0)))
    n_frames = int(np.ceil(len(audio) / frame_len))
    active = np.zeros(n_frames, dtype=bool)
    for i in range(n_frames):
        frame = audio.samples[i * frame_len : (i + 1) * frame_len]
        energy_db = 10.0 * np.log10(float(np.mean(frame**2)) + 1e-12)
        active[i] = energy_db > VAD_FLOOR_DBFS

    # hangover: a frame is speech if any active frame lies within the trailing window
    speech = np.zeros(n_frames, dtype=bool)
    last_active = -(VAD_HANGOVER + 1)
    for i in range(n_frames):
        if active[i]:
            last_active = i
        speech[i] = i - last_active <= VAD_HANGOVER

    segments: list[SpeechSegment] = []
    start = None
    for i in range(n_frames):
        if speech[i] and start is None:
            start = i
        elif not speech[i] and start is not None:
            segments.append(_frames_to_segment(start, i, frame_len, audio))
            start = None
    if start is not None:
        segments.append(_frames_to_segment(start, n_frames, frame_len, audio))
    return segments


def _frames_to_segment(first: int, end: int, frame_len: int, audio: AudioBuffer) -> SpeechSegment:
    sr = audio.sample_rate_hz
    return SpeechSegment(
        start_sec=first * frame_len / sr,
        end_sec=min(end * frame_len, len(audio)) / sr,
    )


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
    sr = audio.sample_rate_hz
    parts = [audio.samples[int(round(s.start_sec * sr)) : int(round(s.end_sec * sr))] for s in segments]
    return AudioBuffer(samples=np.concatenate(parts), sample_rate_hz=sr)


@dataclass
class ChunkPlan:
    bounds: list[tuple[float, float]]


def plan_chunks(duration_sec: float, chunk_len: float = 25.0, overlap: float = 5.0) -> ChunkPlan:
    """Overlapping chunk boundaries covering [0, duration].

    Starts advance by the stride chunk_len - overlap; the final chunk is
    right-aligned to the end so the union covers the whole input.
    """
    if duration_sec <= 0:
        raise ValueError("duration_sec must be positive")
    if not 0 < overlap < chunk_len:
        raise ValueError("need 0 < overlap < chunk_len")
    if duration_sec <= chunk_len:
        return ChunkPlan([(0.0, duration_sec)])
    stride = chunk_len - overlap
    bounds: list[tuple[float, float]] = []
    start = 0.0
    while start + chunk_len < duration_sec:
        bounds.append((start, start + chunk_len))
        start += stride
    last_start = duration_sec - chunk_len
    if bounds and bounds[-1][1] >= duration_sec:
        return ChunkPlan(bounds)
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
    confidences: list[float] | None = None


def _join_pair(left: list[str], right: list[str], min_match_tokens: int) -> list[str]:
    m = SequenceMatcher(None, left, right, autojunk=False).find_longest_match(0, len(left), 0, len(right))
    if m.size >= min_match_tokens:
        # keep the left copy of the shared run, then the right continuation
        return left[: m.a + m.size] + right[m.b + m.size :]
    return left + right


def stitch(partials: list[PartialTranscript], min_match_tokens: int = 3) -> list[str]:
    """Join per-chunk transcripts into one word sequence.

    At each junction the longest shared token run between the accumulated
    transcript and the next partial is located; if it has at least
    min_match_tokens tokens (which must be >= 1), the texts are joined there
    with the left copy kept. Otherwise the texts are concatenated unchanged.
    """
    if min_match_tokens < 1:
        raise ValueError(f"min_match_tokens must be >= 1, got {min_match_tokens}")
    if not partials:
        return []
    ordered = sorted(partials, key=lambda p: p.index)
    if [p.index for p in ordered] != list(range(len(ordered))):
        raise ValueError("partial transcript indices must be contiguous from 0")
    out = list(ordered[0].words)
    for part in ordered[1:]:
        out = _join_pair(out, part.words, min_match_tokens)
    return out

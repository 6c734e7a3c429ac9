"""Long-form decoding support: silence stripping, overlapping chunks, stitching.

Long audio is decoded as overlapping fixed-length chunks because transducer
decoders are least reliable near chunk edges; the per-chunk transcripts are
then joined by finding the shared token run at each junction and keeping the
left copy, so overlap text is never duplicated.
"""

from __future__ import annotations

from dataclasses import dataclass
from difflib import SequenceMatcher

from ._lazy import np
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
_VAD_BLOCK_SAMPLES = 1 << 16  # samples squared at once when computing frame energies


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
    frame_len = max(1, int(round(sr * VAD_FRAME_MS / 1000.0)))
    n_full, tail = divmod(len(samples), frame_len)
    energy = np.empty(n_full + (tail > 0))
    # a block of frames at a time, so no signal-sized temporary is made
    step = max(1, _VAD_BLOCK_SAMPLES // frame_len)
    for first in range(0, n_full, step):
        stop = min(first + step, n_full)
        block = samples[first * frame_len : stop * frame_len]
        energy[first:stop] = np.mean(block.reshape(-1, frame_len) ** 2, axis=1)
    if tail:
        energy[-1] = np.mean(samples[n_full * frame_len :] ** 2)
    active = 10.0 * np.log10(energy + 1e-12) > VAD_FLOOR_DBFS

    # hangover: a frame is speech if an active frame lies at most VAD_HANGOVER frames before it
    index = np.arange(len(energy))
    last_active = np.maximum.accumulate(np.where(active, index, -(VAD_HANGOVER + 1)))
    speech = index - last_active <= VAD_HANGOVER

    edges = np.diff(speech.astype(np.int8), prepend=0, append=0)
    starts, ends = np.flatnonzero(edges == 1).tolist(), np.flatnonzero(edges == -1).tolist()
    return [SpeechSegment(s * frame_len / sr, min(e * frame_len, len(samples)) / sr)
            for s, e in zip(starts, ends)]


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

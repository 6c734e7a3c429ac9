"""Frame-by-frame reference loop for the VAD's array passes.

``asrlab.stitch.energy_vad`` computes frame energies a block of frames at a
time, the hangover as a running maximum and the segment edges from a diff of
the speech mask. The loop below visits one frame at a time, as the detector
was first written, so the library must return exactly its segments.
"""

from __future__ import annotations

import numpy as np

from asrlab.audio import AudioBuffer
from asrlab.stitch import VAD_FLOOR_DBFS, VAD_FRAME_MS, VAD_HANGOVER, SpeechSegment


def energy_vad(audio: AudioBuffer) -> list[SpeechSegment]:
    sr = audio.sample_rate_hz
    frame_len = max(1, int(round(sr * VAD_FRAME_MS / 1000.0)))
    n_frames = int(np.ceil(len(audio) / frame_len))
    active = np.zeros(n_frames, dtype=bool)
    for i in range(n_frames):
        frame = audio.samples[i * frame_len : (i + 1) * frame_len]
        energy_db = 10.0 * np.log10(float(np.mean(frame**2)) + 1e-12)
        active[i] = energy_db > VAD_FLOOR_DBFS

    speech = np.zeros(n_frames, dtype=bool)
    last_active = -(VAD_HANGOVER + 1)
    for i in range(n_frames):
        if active[i]:
            last_active = i
        speech[i] = i - last_active <= VAD_HANGOVER

    def segment(first: int, end: int) -> SpeechSegment:
        return SpeechSegment(first * frame_len / sr, min(end * frame_len, len(audio)) / sr)

    segments = []
    start = None
    for i in range(n_frames):
        if speech[i] and start is None:
            start = i
        elif not speech[i] and start is not None:
            segments.append(segment(start, i))
            start = None
    if start is not None:
        segments.append(segment(start, n_frames))
    return segments

"""Reference implementations for the VAD's array passes and the streamed audio path.

``asrlab.stitch.energy_vad`` computes frame energies a block of frames at a
time, the hangover as a running maximum and the range edges from a diff of
the speech mask. The loop below visits one frame at a time, as the detector
was first written, so the library must return exactly its sample ranges.

``asrlab.stitch.voiced_ranges`` and ``write_voiced_chunks`` read a WAV from
disk a block and a chunk at a time. ``whole_file_voiced`` and ``write_chunks``
are the whole-file path they replace: read_wav, the VAD, remove_silences,
then each chunk sliced out of the voiced audio and written with write_wav.
The streamed path must find the same ranges and write the same bytes.
"""

from __future__ import annotations

import numpy as np

from asrlab.audio import AudioBuffer, read_wav, write_wav
from asrlab.stitch import VAD_FLOOR_DBFS, VAD_FRAME_MS, VAD_HANGOVER, remove_silences


def energy_vad(audio: AudioBuffer) -> list[tuple[int, int]]:
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

    def segment(first: int, end: int) -> tuple[int, int]:
        return first * frame_len, min(end * frame_len, len(audio))

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


def whole_file_voiced(path: str) -> tuple[AudioBuffer, list[tuple[int, int]]]:
    """The voiced audio of a WAV, cut from the recording held in memory, and the sample ranges it came from."""
    audio = read_wav(path)
    ranges = energy_vad(audio) if len(audio) else []
    return remove_silences(audio, ranges), ranges


def write_chunks(voiced: AudioBuffer, bounds: list[tuple[float, float]], out_paths: list[str]) -> None:
    sr = voiced.sample_rate_hz
    for (start, end), path in zip(bounds, out_paths):
        piece = voiced.samples[int(round(start * sr)) : int(round(end * sr))]
        write_wav(AudioBuffer(samples=piece, sample_rate_hz=sr), path)

"""
Decoding long audio as overlapping chunks
=========================================

Transducer decoders are least reliable near the edges of what they are given,
so long recordings are cut into overlapping windows, decoded separately, and
joined back by locating the shared token run at each junction.
"""

import numpy as np

from asrlab.audio import AudioBuffer
from asrlab.stitch import energy_vad, plan_chunks, remove_silences, speech_stats, stitch

# --- silence stripping -----------------------------------------------------
sr = 16000
t = np.arange(sr) / sr
speech_like = 0.4 * np.sin(2 * np.pi * 300.0 * t)
audio = AudioBuffer(samples=np.concatenate([speech_like, np.zeros(6 * sr), speech_like]))

ranges = energy_vad(audio)  # [start, stop) sample ranges of speech
ratio, max_silence = speech_stats(ranges, len(audio), sr)
print(f"speech ranges: {ranges} samples = {[(round(a / sr, 2), round(b / sr, 2)) for a, b in ranges]} s")
print(f"speech ratio {ratio:.2f}, longest silence {max_silence:.2f}s")
voiced = remove_silences(audio, ranges)
print(f"{audio.duration_sec:.1f}s shrinks to {voiced.duration_sec:.2f}s after stripping\n")

# --- chunk planning ----------------------------------------------------------
plan = plan_chunks(60.0, chunk_len=25.0, overlap=5.0)
print(f"60s plan: {plan.bounds}  (final chunk right-aligned)\n")

# --- joining partial transcripts ---------------------------------------------
partials = [  # each chunk's words, in chunk order
    "the quick brown fox jumps over the lazy dog".split(),
    "over the lazy dog while the cat watches".split(),
    "the cat watches from a sunny windowsill".split(),
]
print("stitched:", " ".join(stitch(partials, min_match_tokens=3)))

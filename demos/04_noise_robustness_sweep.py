"""
Mixing noise at exact SNR targets
=================================

The mixer picks the noise gain so the realized signal-to-noise ratio equals
the request to within float precision, looping the noise if it is too short
and rescaling both components together when the sum would clip (which keeps
the ratio intact). A sweep drives an external transcriber over the same
clips at several SNRs and reports WER per point.
"""

import numpy as np

from asrlab.audio import AudioBuffer
from asrlab.noise import measure_snr, mix_at_snr

sr = 16000
t = np.arange(sr) / sr
clean = AudioBuffer(samples=0.4 * np.sin(2 * np.pi * 440.0 * t))

white = AudioBuffer(samples=np.random.default_rng(7).standard_normal(len(clean)))

print("target ->  measured SNR (dB)      gain     rescale")
for target in (-5.0, 0.0, 5.0, 10.0, 20.0):
    mix = mix_at_snr(clean, white, target)
    measured = measure_snr(mix.clean, mix.noise)
    print(f"{target:+6.1f} -> {measured:+9.4f}          {mix.gain:8.5f}  {mix.rescale:7.4f}")

# a short ambient file is looped out to the clean length before scaling
ambient = AudioBuffer(samples=0.2 * np.sin(2 * np.pi * 97.0 * np.arange(3000) / sr))
mix = mix_at_snr(clean, ambient, 5.0)
print(f"\nambient loop: noise {len(ambient)} samples -> {len(mix.noise)} samples, "
      f"measured {measure_snr(mix.clean, mix.noise):+.4f} dB")

# a full sweep over a manifest (writing WAVs and calling a transcriber
# command per file) lives behind the CLI:
#   asrlab noise-sweep --manifest clips.jsonl --transcriber ./transcribe.sh \
#       --snrs=-5,0,5,10,20 --workdir mixes/ --out wer_vs_snr.csv --seed 1

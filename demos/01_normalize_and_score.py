"""
Normalizing transcripts before scoring
======================================

Raw WER punishes formatting differences that no human would count as errors.
Running both sides through the shared rule set first gives a number that
tracks meaning instead of typography.
"""

from asrlab.metrics import weighted_average, wer
from asrlab.textnorm import normalize

reference = "There's a cat."
hypothesis = "there is a cat"

raw = wer(reference.split(), hypothesis.split())
print(f"raw WER:        {raw:.3f}")  # 3 errors over 3 words: casing + punctuation + contraction

norm_ref = normalize(reference).split()
norm_hyp = normalize(hypothesis).split()
print(f"normalized ref: {' '.join(norm_ref)!r}")
print(f"normalized WER: {wer(norm_ref, norm_hyp):.3f}")

# filler words disappear too
print(f"fillers: {normalize('ummm so there is, uh, a cat')!r}")

# dataset-level numbers weight each file by its audio length, so long files
# are not drowned out by many short ones
scores = [0.2, 0.1]
lengths = [10.0, 30.0]
print(f"length-weighted average of {scores} over {lengths}s: "
      f"{weighted_average(scores, lengths):.4f}")

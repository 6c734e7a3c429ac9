"""
The transducer reference implementation
=======================================

The sequence probability sums over every monotone blank/label alignment.
The forward dynamic program computes it exactly; a brute-force enumeration
of the alignments exists purely to check it, and the analytic gradient is
validated against finite differences. Greedy and beam decoding run over a
pluggable scorer, with optional n-gram shallow fusion.
"""

import numpy as np

from asrlab.transducer import (
    EmaState,
    MaskSpec,
    beam_decode,
    brute_force_logprob,
    build_lm,
    ema_update,
    greedy_decode,
    make_stream_mask,
    random_lattice,
    receptive_field,
    rnnt_grad,
    rnnt_logprob,
)
from asrlab.transducer.loss import finite_difference_grad
from asrlab.transducer.mask import FRAME_MS

rng = np.random.default_rng(0)

# --- exact loss vs enumeration ------------------------------------------------
lat = random_lattice(rng, T=4, U=3, V=3)
dp = rnnt_logprob(lat)
brute = brute_force_logprob(lat)
print(f"forward DP log P = {dp:.12f}")
print(f"enumeration      = {brute:.12f}   (|diff| = {abs(dp - brute):.2e})")

grad = rnnt_grad(lat)
fd = finite_difference_grad(lat)
rel = np.max(np.abs(grad - fd)) / np.max(np.abs(fd))
print(f"gradient vs finite differences: max relative error {rel:.2e}\n")

# --- decoding -----------------------------------------------------------------
def scorer(t, prefix):
    local = np.random.default_rng(1000 + 31 * t + 7 * len(prefix))
    raw = local.normal(size=4)  # 3 labels + blank
    return raw - np.log(np.sum(np.exp(raw)))

labels, confidences = greedy_decode(scorer, n_frames=6)
print(f"greedy labels      : {labels}")
print(f"token confidences  : {[round(c, 3) for c in confidences]}")

lm = build_lm([[0, 1, 0, 2], [0, 1, 1]], n=2, vocabulary=[0, 1, 2])
fused, score = beam_decode(scorer, n_frames=6, lm=lm, lm_weight=0.3, beam_size=3)
print(f"beam + shallow LM  : {fused} (score {score:.3f})\n")

# --- streaming attention geometry ---------------------------------------------
spec = MaskSpec(n_frames=24, chunk_frames=6, n_layers=5, left_context=1)
masks = make_stream_mask(spec)
rf_frames = receptive_field(spec)
print(f"{spec.n_layers} layers, chunk {spec.chunk_frames} frames, left context {spec.left_context}:")
print(f"  receptive field {rf_frames} frames = {rf_frames * FRAME_MS:.0f} ms")
print(f"  frame 10 attends to frames {np.flatnonzero(masks[0][10]).tolist()}\n")

# --- EMA weights ----------------------------------------------------------------
state = EmaState(shadow=np.zeros(3), decay=0.999)
for _ in range(2000):
    state = ema_update(state, np.ones(3))
print(f"EMA shadow after 2000 steps toward 1.0: {state.shadow.round(4)}")

"""Transducer API stage: the public loss, gradient, mask and beam-search calls.

Run as a child process of the benchmark:

    python3 bench/api_stage.py INPUTS.npz OUT.json

It loads the lattices, scorer table and LM corpus that ``gen.make_rnnt`` wrote
(so generating them is not part of the stage), calls the public API of
``asrlab.transducer`` on them and writes the results that the benchmark checks.
"""

from __future__ import annotations

import json
import sys

import numpy as np

import asrlab.transducer as tr
from gen import API_SHAPES, BEAM, MASK


class Scorer:
    """Frame-wise scorer whose row depends on the prefix length; counts its calls."""

    def __init__(self, table: np.ndarray) -> None:
        self.table = table
        self.calls = 0

    def __call__(self, t: int, prefix: tuple[int, ...]) -> np.ndarray:
        self.calls += 1
        return self.table[t, len(prefix) % self.table.shape[1]]


def _mask_ok(masks) -> bool:
    """Every layer mask equals the closed form: own chunk plus left context, no future."""
    n, c = MASK["n_frames"], MASK["chunk_frames"]
    rows = np.arange(n)
    lo = np.maximum(0, rows // c * c - MASK["left_context"])
    hi = np.minimum(n, (rows // c + 1) * c)
    expected = (rows[None, :] >= lo[:, None]) & (rows[None, :] < hi[:, None])
    if isinstance(masks, np.ndarray) and masks.ndim == 2:  # one mask shared by every layer
        masks = [masks]
    return len(masks) >= 1 and all(np.array_equal(m, expected) for m in masks)


def run(npz_path: str, out_path: str) -> None:
    data = np.load(npz_path)
    lattices = [
        tr.RnntLattice(logits=data[f"logits{i}"], targets=[int(y) for y in data[f"targets{i}"]])
        for i in range(len(API_SHAPES))
    ]
    logprobs, slice_sum = [], 0.0
    for lat in lattices:
        logprobs.append(tr.rnnt_logprob(lat))
        grad = tr.rnnt_grad(lat)
        slice_sum = max(slice_sum, float(np.max(np.abs(grad.sum(axis=2)))))

    masks = tr.make_stream_mask(tr.MaskSpec(**MASK))

    lm = tr.build_lm(data["corpus"].tolist(), BEAM["lm_order"], vocabulary=range(BEAM["vocab"]))
    scorer = Scorer(data["scorer"])
    labels, score = tr.beam_decode(
        scorer, BEAM["frames"], lm=lm, lm_weight=BEAM["lm_weight"], beam_size=BEAM["beam"]
    )
    result = {
        "logprobs": logprobs,
        "grad_slice_sum_max": slice_sum,
        "mask_ok": _mask_ok(masks),
        "beam_labels": [int(x) for x in labels],
        "beam_score": score,
        "scorer_calls": scorer.calls,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    run(sys.argv[1], sys.argv[2])

"""Greedy and beam transducer decoding over a pluggable scorer.

A scorer is any callable ``(t, label_prefix) -> log-prob vector`` over the V
labels plus blank (blank last); this is the seam where a real encoder/predictor
would plug in. Beam search fuses an optional n-gram language model at each
label expansion and, with lm_weight = 0 and beam_size = 1, reduces exactly to
greedy decoding.
"""

from __future__ import annotations

import math
from typing import Callable

from .._lazy import np
from .lm import NgramLm

__all__ = ["greedy_decode", "beam_decode"]

Scorer = Callable[[int, tuple[int, ...]], "np.ndarray"]


def greedy_decode(
    scorer: Scorer, n_frames: int, max_symbols_per_frame: int = 10
) -> tuple[list[int], list[float]]:
    """Emit the argmax symbol until blank wins, then advance to the next frame.

    Per-frame emissions are capped at max_symbols_per_frame so a scorer that
    never prefers blank cannot loop forever. Returns the labels and each
    emitted token's probability (the confidences fed to curation filters).
    """
    labels: list[int] = []
    confidences: list[float] = []
    for t in range(n_frames):
        emitted = 0
        while emitted < max_symbols_per_frame:
            scores = np.asarray(scorer(t, tuple(labels)))
            blank_id = len(scores) - 1
            best = int(np.argmax(scores))
            if best == blank_id:
                break
            labels.append(best)
            confidences.append(float(np.exp(scores[best])))
            emitted += 1
    return labels, confidences


def beam_decode(
    scorer: Scorer,
    n_frames: int,
    lm: NgramLm | None = None,
    lm_weight: float = 0.0,
    beam_size: int = 3,
    max_symbols_per_frame: int = 10,
) -> tuple[list[int], float]:
    """Beam search with shallow LM fusion; returns (labels, fused score).

    A hypothesis scores log P_model(best alignment) + lm_weight * log P_LM over
    its label sequence, with the LM term added at each label expansion.
    Hypotheses that consumed the current frame (took blank) and hypotheses
    still expanding compete for the same beam_size slots at every expansion
    step, which is what makes beam_size = 1 follow the greedy argmax chain
    exactly. Duplicate label sequences keep their best alignment score.
    """
    if beam_size < 1:
        raise ValueError("beam_size must be >= 1")
    if not 0.0 <= lm_weight < math.inf:
        raise ValueError("lm_weight must be finite and nonnegative")
    fuse = lm is not None and lm_weight > 0.0
    lm_rows: dict[tuple[int, ...], np.ndarray] = {}  # LM context -> lm_weight * log P_LM(v | context)

    beam: dict[tuple[int, ...], float] = {(): 0.0}
    for t in range(n_frames):
        frozen: dict[tuple[int, ...], float] = {}
        active = dict(beam)
        for step in range(max_symbols_per_frame + 1):
            force_freeze = step == max_symbols_per_frame
            next_active: dict[tuple[int, ...], float] = {}
            for labels, score in active.items():
                scores = np.asarray(scorer(t, labels), dtype=np.float64)
                blank_id = len(scores) - 1
                blank_score = score + float(scores[blank_id])
                if labels not in frozen or blank_score > frozen[labels]:
                    frozen[labels] = blank_score
                if force_freeze:
                    continue
                expanded = score + scores[:blank_id]
                if fuse:
                    context = lm.context(labels)
                    if context not in lm_rows:
                        lm_rows[context] = np.array(
                            [lm_weight * lm.cond_logprob(context, v) for v in range(blank_id)]
                        )
                    expanded += lm_rows[context]
                # a label outside this hypothesis's own top beam_size ranks below at
                # least beam_size pool entries; the stable sort breaks ties by label
                values = expanded.tolist()
                for v in np.argsort(-expanded, kind="stable")[:beam_size].tolist():
                    next_active[labels + (v,)] = values[v]
            # frozen and active entries compete jointly for the beam slots
            pool = [(-s, 1, labels) for labels, s in frozen.items()]
            pool += [(-s, 0, labels) for labels, s in next_active.items()]
            pool.sort()
            kept = pool[:beam_size]
            frozen = {labels: -neg for neg, kind, labels in kept if kind == 1}
            active = {labels: -neg for neg, kind, labels in kept if kind == 0}
            if not active:
                break
        beam = frozen
    best_labels, best_score = max(beam.items(), key=lambda kv: (kv[1], kv[0]))
    return list(best_labels), float(best_score)

"""Greedy and beam transducer decoding over a pluggable scorer.

A scorer is any callable ``(t, label_prefix) -> log-prob vector`` over the V
labels plus blank (blank last); this is the seam where a real encoder/predictor
would plug in. Beam search fuses an optional n-gram language model at each
label expansion and, with lm_weight = 0 and beam_size = 1, reduces exactly to
greedy decoding.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Callable

from .._lazy import np
from .lm import NgramLm

__all__ = ["greedy_decode", "beam_decode"]

Scorer = Callable[[int, tuple[int, ...]], "np.ndarray"]


def _row(scorer: Scorer, t: int, labels: tuple[int, ...]) -> list[float]:
    """The scorer's row as floats; NaN or +inf (which makes a NaN score) is refused."""
    row = np.asarray(scorer(t, labels), dtype=np.float64).tolist()
    if not sum(row) < math.inf:
        raise ValueError(f"scorer row at frame {t} holds NaN or +inf")
    return row


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
        for _ in range(max_symbols_per_frame):
            scores = _row(scorer, t, tuple(labels))
            best = scores.index(max(scores))
            if best == len(scores) - 1:  # blank
                break
            labels.append(best)
            confidences.append(float(np.exp(scores[best])))
    return labels, confidences


def beam_decode(
    scorer: Scorer, n_frames: int, lm: NgramLm | None = None, lm_weight: float = 0.0,
    beam_size: int = 3, max_symbols_per_frame: int = 10,
) -> tuple[list[int], float]:
    """Beam search with shallow LM fusion; returns (labels, fused score).

    A hypothesis scores log P_model(best alignment) + lm_weight * log P_LM over
    its label sequence, with the LM term added at each label expansion.
    Hypotheses that consumed the current frame (took blank) and hypotheses
    still expanding compete for the same beam_size slots at every expansion
    step, which is what makes beam_size = 1 follow the greedy argmax chain
    exactly. Duplicate label sequences keep their best alignment score; ties rank by labels.
    """
    if beam_size < 1:
        raise ValueError("beam_size must be >= 1")
    if not 0.0 <= lm_weight < math.inf:
        raise ValueError("lm_weight must be finite and nonnegative")
    fuse = lm is not None and lm_weight > 0.0
    lm_rows: dict[tuple[int, ...], list[float]] = {}  # LM context -> lm_weight * log P_LM(v | context)

    beam: dict[tuple[int, ...], float] = {(): 0.0}
    for t in range(n_frames):
        frozen: dict[tuple[int, ...], float] = {}
        active = list(beam.items())
        for step in range(max_symbols_per_frame + 1):
            pool = []  # (-score, kind, labels, v): an expansion is its parent's labels plus v
            for labels, score in active:
                row = _row(scorer, t, labels)
                blank_score = score + row.pop()
                if labels not in frozen or blank_score > frozen[labels]:
                    frozen[labels] = blank_score
                if step == max_symbols_per_frame:
                    continue
                expanded = [score + s for s in row]
                if fuse:
                    context = lm.context(labels)
                    if context not in lm_rows:
                        lm_rows[context] = [lm_weight * lm.cond_logprob(context, v) for v in range(len(row))]
                    expanded = [e + w for e, w in zip(expanded, lm_rows[context])]
                # only its own top beam_size can make the cut; the stable sort breaks ties by label
                for v in sorted(range(len(row)), key=expanded.__getitem__, reverse=True)[:beam_size]:
                    pool.append((-expanded[v], 0, labels, v))
            # blank-takers (kind 1) and expansions (kind 0) share the slots by (-score, kind, labels)
            pool += [(-s, 1, labels, None) for labels, s in frozen.items()]
            pool.sort(key=itemgetter(0))
            end = beam_size  # only the entries that score at least as well as the cut build labels
            while end < len(pool) and pool[end][0] == pool[end - 1][0]:
                end += 1
            kept = sorted((neg, kind, labels if v is None else labels + (v,)) for neg, kind, labels, v in pool[:end])
            frozen = {labels: -neg for neg, kind, labels in kept[:beam_size] if kind == 1}
            active = [(labels, -neg) for neg, kind, labels in kept[:beam_size] if kind == 0]
            if not active:
                break
        beam = frozen
    best_labels, best_score = max(beam.items(), key=lambda kv: (kv[1], kv[0]))
    return list(best_labels), float(best_score)

"""Cell-by-cell reference loops for the transducer's array passes.

``asrlab.transducer`` runs its DP one anti-diagonal at a time over a batch of
lattices, scores all finite-difference perturbations of a lattice in one pass,
and expands each beam hypothesis with one array sort. The loops below visit one
lattice cell, one perturbation, or one (hypothesis, label) pair at a time and
do the same float operations in the same order, so the library must reproduce
their results exactly.
"""

from __future__ import annotations

import numpy as np

from asrlab.transducer import RnntLattice, log_softmax

NEG_INF = -np.inf


def alpha(lat):
    """alpha[t, u] = log-prob of consuming t frames and emitting u labels."""
    T, U = lat.T, lat.U
    lp = lat.logits
    y = lat.targets
    out = np.full((T, U + 1), NEG_INF)
    out[0, 0] = 0.0
    for t in range(T):
        for u in range(U + 1):
            if t == 0 and u == 0:
                continue
            a = out[t - 1, u] + lp[t - 1, u, lat.blank_id] if t > 0 else NEG_INF
            b = out[t, u - 1] + lp[t, u - 1, y[u - 1]] if u > 0 else NEG_INF
            out[t, u] = np.logaddexp(a, b)
    return out


def beta(lat):
    """beta[t, u] = log-prob of completing the alignment from node (t, u)."""
    T, U = lat.T, lat.U
    lp = lat.logits
    y = lat.targets
    out = np.full((T, U + 1), NEG_INF)
    out[T - 1, U] = lp[T - 1, U, lat.blank_id]
    for t in range(T - 1, -1, -1):
        for u in range(U, -1, -1):
            if t == T - 1 and u == U:
                continue
            a = lp[t, u, lat.blank_id] + out[t + 1, u] if t + 1 < T else NEG_INF
            b = lp[t, u, y[u]] + out[t, u + 1] if u < U else NEG_INF
            out[t, u] = np.logaddexp(a, b)
    return out


def rnnt_logprob(lat) -> float:
    return float(alpha(lat)[lat.T - 1, lat.U] + lat.logits[lat.T - 1, lat.U, lat.blank_id])


def rnnt_grad(lat):
    """Gradient of -log P from edge posteriors filled in one (t, u) cell at a time."""
    T, U, V = lat.T, lat.U, lat.V
    lp = lat.logits
    y_labels = lat.targets
    a = alpha(lat)
    b = beta(lat)
    log_p = float(a[T - 1, U] + lp[T - 1, U, lat.blank_id])
    if not np.isfinite(log_p):
        raise ValueError("target sequence has zero probability under this lattice")
    edge = np.full((T, U + 1, V + 1), NEG_INF)
    for t in range(T):
        for u in range(U + 1):
            if not np.isfinite(a[t, u]):
                continue
            blank_next = b[t + 1, u] if t + 1 < T else (0.0 if u == U else NEG_INF)
            edge[t, u, lat.blank_id] = a[t, u] + lp[t, u, lat.blank_id] + blank_next - log_p
            if u < U:
                edge[t, u, y_labels[u]] = a[t, u] + lp[t, u, y_labels[u]] + b[t, u + 1] - log_p
    edge_post = np.exp(edge)
    node_post = edge_post.sum(axis=2, keepdims=True)
    return np.exp(lp) * node_post - edge_post


def finite_difference_grad(lat, eps=1e-5):
    """Central differences, one perturbed and re-validated lattice per activation and sign."""
    grad = np.zeros_like(lat.logits)
    for idx in np.ndindex(lat.logits.shape):
        losses = []
        for sign in (1.0, -1.0):
            perturbed = lat.logits.copy()
            perturbed[idx] += sign * eps
            relat = RnntLattice(logits=log_softmax(perturbed, axis=2), targets=list(lat.targets))
            losses.append(-rnnt_logprob(relat))
        grad[idx] = (losses[0] - losses[1]) / (2.0 * eps)
    return grad


def beam_decode(scorer, n_frames, lm=None, lm_weight=0.0, beam_size=3, max_symbols_per_frame=10):
    """Beam search that puts every (hypothesis, label) expansion into the pool."""
    beam = {(): 0.0}
    for t in range(n_frames):
        frozen = {}
        active = dict(beam)
        for step in range(max_symbols_per_frame + 1):
            force_freeze = step == max_symbols_per_frame
            next_active = {}
            for labels, score in active.items():
                scores = np.asarray(scorer(t, labels))
                blank_id = len(scores) - 1
                blank_score = score + float(scores[blank_id])
                if labels not in frozen or blank_score > frozen[labels]:
                    frozen[labels] = blank_score
                if force_freeze:
                    continue
                for v in range(blank_id):
                    s = score + float(scores[v])
                    if lm is not None and lm_weight > 0.0:
                        s += lm_weight * lm.cond_logprob(labels, v)
                    key = labels + (v,)
                    if key not in next_active or s > next_active[key]:
                        next_active[key] = s
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

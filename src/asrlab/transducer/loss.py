"""Exact transducer log-likelihood, a brute-force oracle, and analytic gradients.

The likelihood of a label sequence sums the probabilities of every monotone
blank/label alignment: an alignment consumes all T frames via blanks and emits
all U labels in order, ending with the blank that leaves the final frame. The
forward DP computes this sum in log space; ``brute_force_logprob`` enumerates
the alignments explicitly and exists purely as an independent check.
"""

from __future__ import annotations

import numpy as np

from .lattice import RnntLattice, log_softmax

__all__ = ["rnnt_logprob", "brute_force_logprob", "rnnt_grad", "finite_difference_grad"]

NEG_INF = -np.inf


def _forward(lat: RnntLattice) -> np.ndarray:
    """alpha[t, u] = log-prob of consuming t frames and emitting u labels."""
    T, U = lat.T, lat.U
    lp = lat.logits
    y = lat.targets
    alpha = np.full((T, U + 1), NEG_INF)
    alpha[0, 0] = 0.0
    for t in range(T):
        for u in range(U + 1):
            if t == 0 and u == 0:
                continue
            a = alpha[t - 1, u] + lp[t - 1, u, lat.blank_id] if t > 0 else NEG_INF
            b = alpha[t, u - 1] + lp[t, u - 1, y[u - 1]] if u > 0 else NEG_INF
            alpha[t, u] = np.logaddexp(a, b)
    return alpha


def _backward(lat: RnntLattice) -> np.ndarray:
    """beta[t, u] = log-prob of completing the alignment from node (t, u)."""
    T, U = lat.T, lat.U
    lp = lat.logits
    y = lat.targets
    beta = np.full((T, U + 1), NEG_INF)
    beta[T - 1, U] = lp[T - 1, U, lat.blank_id]
    for t in range(T - 1, -1, -1):
        for u in range(U, -1, -1):
            if t == T - 1 and u == U:
                continue
            a = lp[t, u, lat.blank_id] + beta[t + 1, u] if t + 1 < T else NEG_INF
            b = lp[t, u, y[u]] + beta[t, u + 1] if u < U else NEG_INF
            beta[t, u] = np.logaddexp(a, b)
    return beta


def rnnt_logprob(lat: RnntLattice) -> float:
    """log P(targets | lattice) over all monotone alignments; always <= 0."""
    alpha = _forward(lat)
    return float(alpha[lat.T - 1, lat.U] + lat.logits[lat.T - 1, lat.U, lat.blank_id])


# largest lattice brute_force_logprob enumerates
BRUTE_T_MAX = 6
BRUTE_U_MAX = 4


def brute_force_logprob(lat: RnntLattice) -> float:
    """Enumerate every alignment and sum the factorized path probabilities.

    Each path is a sequence of T blanks and U labels (labels in target order,
    final step a blank); its probability is the product of the per-step
    conditionals read off the lattice. Guarded to T <= 6, U <= 4.
    """
    if lat.T > BRUTE_T_MAX or lat.U > BRUTE_U_MAX:
        raise ValueError(
            f"brute force guard: T <= {BRUTE_T_MAX} and U <= {BRUTE_U_MAX} required"
        )
    lp = lat.logits
    y = lat.targets
    T, U = lat.T, lat.U
    path_logprobs: list[float] = []

    def walk(t: int, u: int, acc: float) -> None:
        if t == T - 1 and u == U:
            path_logprobs.append(acc + lp[t, u, lat.blank_id])
            return
        if t + 1 < T:
            walk(t + 1, u, acc + lp[t, u, lat.blank_id])
        if u < U:
            walk(t, u + 1, acc + lp[t, u, y[u]])

    walk(0, 0, 0.0)
    return float(np.logaddexp.reduce(path_logprobs))


def rnnt_grad(lat: RnntLattice) -> np.ndarray:
    """Gradient of -log P w.r.t. the pre-softmax activations, shape (T, U+1, V+1).

    Edge posteriors come from alpha/beta occupation probabilities; the softmax
    chain rule then gives grad = y * node_posterior - edge_posterior, which
    sums to zero over each (t, u) slice and vanishes on unreachable cells.
    """
    T, U, V = lat.T, lat.U, lat.V
    lp = lat.logits
    y_labels = lat.targets
    alpha = _forward(lat)
    beta = _backward(lat)
    log_p = float(alpha[T - 1, U] + lp[T - 1, U, lat.blank_id])
    if not np.isfinite(log_p):
        raise ValueError("target sequence has zero probability under this lattice")

    # log posterior of traversing each edge out of (t, u)
    edge = np.full((T, U + 1, V + 1), NEG_INF)
    for t in range(T):
        for u in range(U + 1):
            if not np.isfinite(alpha[t, u]):
                continue
            blank_next = (
                beta[t + 1, u] if t + 1 < T else (0.0 if u == U else NEG_INF)
            )
            edge[t, u, lat.blank_id] = alpha[t, u] + lp[t, u, lat.blank_id] + blank_next - log_p
            if u < U:
                edge[t, u, y_labels[u]] = alpha[t, u] + lp[t, u, y_labels[u]] + beta[t, u + 1] - log_p

    edge_post = np.exp(edge)
    node_post = edge_post.sum(axis=2, keepdims=True)
    softmax = np.exp(lp)
    return softmax * node_post - edge_post


def finite_difference_grad(lat: RnntLattice, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of -log P through activation perturbation.

    Each activation is nudged by +/- eps and the slice re-normalized, matching
    the pre-softmax convention of ``rnnt_grad``. Slow; for verification only.
    """
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

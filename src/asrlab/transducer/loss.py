"""Exact transducer log-likelihood, a brute-force oracle, and analytic gradients.

The likelihood of a label sequence sums the probabilities of every monotone
blank/label alignment: an alignment consumes all T frames via blanks and emits
all U labels in order, ending with the blank that leaves the final frame. The
forward DP computes this sum in log space, one array step per anti-diagonal
t + u of the (t, u) node grid (Graves 2012; Bagby et al. 2018);
``brute_force_logprob`` enumerates the alignments explicitly and exists purely
as an independent check.
"""

from __future__ import annotations

import math

from .._lazy import np
from .lattice import RnntLattice, log_softmax

__all__ = ["rnnt_logprob", "brute_force_logprob", "rnnt_grad", "finite_difference_grad"]

NEG_INF = -math.inf


def _skewed_edges(lat: RnntLattice) -> np.ndarray:
    """Log-probs of the edges out of each node, by anti-diagonal: ``out[k, n, u]`` leaves (n - u, u).

    k = 0 is the blank edge (t, u) -> (t+1, u), k = 1 the label edge
    (t, u) -> (t, u+1). The label out of row U and every cell whose frame
    n - u lies outside [0, T) read -inf. The result is a strided view of one
    buffer that stores each table column u after U cells of -inf: one step
    along u moves one buffer column on and one frame back, and a frame past
    T - 1 runs into the next column's padding.
    """
    T, U = lat.T, lat.U
    R = T + U  # anti-diagonals, and cells per buffer column
    buf = np.full((2, U + 1, R), NEG_INF)
    buf[0, :, U:] = lat.logits[:, :, lat.blank_id].T
    buf[1, :U, U:] = lat.logits[:, np.arange(U), lat.targets].T
    step = buf.itemsize
    return np.ndarray(
        (2, R, U + 1), buffer=buf, offset=U * step, strides=((U + 1) * R * step, step, (R - 1) * step)
    )


def _unskew(d: np.ndarray, T: int) -> np.ndarray:
    """(T, U+1) view of a C-contiguous anti-diagonal node table: ``m[t, u] = d[t + u, u]``."""
    W = d.shape[1]
    step = d.itemsize
    return np.ndarray((T, W), buffer=d, strides=(W * step, (W + 1) * step))


def _forward(lat: RnntLattice, blank: np.ndarray, emit: np.ndarray) -> np.ndarray:
    """alpha[t + u, u] = log-prob of consuming t frames and emitting u labels.

    A node on anti-diagonal n = t + u is reached only from diagonal n - 1, so
    each diagonal is one array step over the skewed edge tables, with the same
    additions as a cell-by-cell pass. Cells with t = T take the blanks out of
    the last frame; nothing reads them back.
    """
    alpha = np.full((lat.T + lat.U, lat.U + 1), NEG_INF)
    alpha[0, 0] = 0.0
    steps = zip(alpha, alpha[:, :-1], alpha[1:], alpha[1:, 1:], blank, emit[:, :-1])
    for prev, prev_head, cur, cur_tail, blank_out, emit_out in steps:
        np.add(prev, blank_out, cur)
        np.logaddexp(cur_tail, prev_head + emit_out, cur_tail)
    return alpha


def _backward(lat: RnntLattice, blank: np.ndarray, emit: np.ndarray) -> np.ndarray:
    """beta[t + u, u] = log-prob of completing the alignment from node (t, u)."""
    U = lat.U
    beta = np.full((lat.T + U, U + 1), NEG_INF)
    beta[-1, U] = lat.logits[-1, U, lat.blank_id]
    steps = zip(beta[::-1], beta[::-1, 1:], beta[-2::-1], beta[-2::-1, :-1], blank[-2::-1], emit[-2::-1, :-1])
    for nxt, nxt_tail, cur, cur_head, blank_out, emit_out in steps:
        np.add(blank_out, nxt, cur)
        np.logaddexp(cur_head, emit_out + nxt_tail, cur_head)
    return beta


def rnnt_logprob(lat: RnntLattice) -> float:
    """log P(targets | lattice) over all monotone alignments; always <= 0."""
    alpha = _forward(lat, *_skewed_edges(lat))
    return float(alpha[-1, lat.U] + lat.logits[-1, lat.U, lat.blank_id])


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
    blank, emit = _skewed_edges(lat)
    alpha = _unskew(_forward(lat, blank, emit), T)
    beta = _unskew(_backward(lat, blank, emit), T)
    log_p = float(alpha[T - 1, U] + lp[T - 1, U, lat.blank_id])
    if not np.isfinite(log_p):
        raise ValueError("target sequence has zero probability under this lattice")

    # log posterior of traversing each edge out of (t, u); -inf from an unreachable
    # node or a dead end carries through the sum, as nothing in it is +inf or NaN
    after_blank = np.full((T, U + 1), NEG_INF)
    after_blank[:-1] = beta[1:]
    after_blank[-1, U] = 0.0  # the blank out of (T-1, U) ends the alignment
    edge = np.full((T, U + 1, V + 1), NEG_INF)
    edge[:, :, lat.blank_id] = alpha + lp[:, :, lat.blank_id] + after_blank - log_p
    u, y = np.arange(U), lat.targets
    edge[:, u, y] = alpha[:, :-1] + lp[:, u, y] + beta[:, 1:] - log_p

    # in place: besides the logits, only the edge posteriors and the result are lattice-sized
    edge_post = np.exp(edge, out=edge)
    node_post = edge_post.sum(axis=2, keepdims=True)
    grad = np.exp(lp)
    grad *= node_post
    grad -= edge_post
    return grad


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

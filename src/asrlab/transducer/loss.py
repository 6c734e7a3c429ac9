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

import functools
import math
from typing import Iterable, Iterator

from .._lazy import np
from .lattice import RnntLattice, _check_normalized, _validate, log_softmax

__all__ = ["rnnt_logprob", "brute_force_logprob", "rnnt_grad", "finite_difference_grad"]

NEG_INF = -math.inf

# Largest batch, in lattice cells, that one oracle block or one finite-difference
# pass builds, so memory stays flat however many or however wide the lattices are.
BATCH_CELLS = 1 << 18


def _edge_tables(logits: np.ndarray, targets: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """The only columns the DP reads of (B, T, U+1, V+1) logits: blank (B, T, U+1) and next target (B, T, U).

    ``targets`` holds the U labels of each of the B lattices, or one list that all B share.
    """
    y = np.asarray(targets, dtype=np.intp)[:, None, :, None]
    return logits[..., -1], np.take_along_axis(logits[:, :, :-1], y, axis=3)[..., 0]


def _skewed_edges(blank: np.ndarray, emit: np.ndarray) -> np.ndarray:
    """Log-probs of the edges out of each node, by anti-diagonal: ``out[k, n, b, u]`` leaves (n - u, u).

    ``blank`` (B, T, U+1) and ``emit`` (B, T, U) hold B lattices of one shape.
    k = 0 is the blank edge (t, u) -> (t+1, u), k = 1 the label edge
    (t, u) -> (t, u+1). The label out of row U and every cell whose frame
    n - u lies outside [0, T) read -inf. The result is a strided view of one
    buffer that stores each table column u after U cells of -inf: one step
    along u moves one buffer column on and one frame back, and a frame past
    T - 1 runs into the next column's padding.
    """
    B, T, W = blank.shape
    U = W - 1
    R = T + U  # anti-diagonals, and cells per buffer column
    buf = np.full((2, W, R, B), NEG_INF)
    buf[0, :, U:] = blank.transpose(2, 1, 0)
    buf[1, :U, U:] = emit.transpose(2, 1, 0)
    step = buf.itemsize
    return np.ndarray(
        (2, R, B, W),
        buffer=buf,
        offset=U * B * step,
        strides=(W * R * B * step, B * step, step, (R - 1) * B * step),
    )


def _unskew(d: np.ndarray, T: int) -> np.ndarray:
    """(T, U+1) view of a C-contiguous anti-diagonal node table: ``m[t, u] = d[t + u, u]``."""
    W = d.shape[1]
    step = d.itemsize
    return np.ndarray((T, W), buffer=d, strides=(W * step, (W + 1) * step))


def _sweep(blank: np.ndarray, emit: np.ndarray, start: np.ndarray | float) -> np.ndarray:
    """d[n, b, u] = log-sum of the paths of lattice b from node (0, 0), which holds `start`, to node (n - u, u).

    ``blank`` (N, B, U+1) and ``emit`` (N, B, U) are the skewed edges out of
    anti-diagonals 0..N-1 (see ``_skewed_edges``). A node on diagonal n is
    reached only from diagonal n - 1, so each diagonal is one array step over
    the batch, with the same additions as a cell-by-cell pass. On the edges as
    they are, this is the forward pass, alpha; on the edges reversed in n and
    u, started from the blank out of the last node, the backward pass, beta,
    reversed in both. Cells with t = T are never read.
    """
    d = np.full((len(blank) + 1, *blank.shape[1:]), NEG_INF)
    d[0, :, 0] = start
    for prev, prev_head, cur, cur_tail, blank_out, emit_out in zip(d, d[:, :, :-1], d[1:], d[1:, :, 1:], blank, emit):
        np.add(prev, blank_out, cur)
        np.logaddexp(cur_tail, prev_head + emit_out, cur_tail)
    return d


def _logprobs(blank: np.ndarray, emit: np.ndarray) -> np.ndarray:
    """log P(targets) of each of B same-shape lattices, from their (B, T, U+1) and (B, T, U) edge tables."""
    blank, emit = _skewed_edges(blank, emit)
    return _sweep(blank[:-1], emit[:-1, :, :-1], 0.0)[-1, :, -1] + blank[-1, :, -1]


def rnnt_logprob(lat: RnntLattice) -> float:
    """log P(targets | lattice) over all monotone alignments; always <= 0."""
    return float(_logprobs(*_edge_tables(lat.logits[None], [lat.targets]))[0])


# largest lattice brute_force_logprob enumerates
BRUTE_T_MAX = 6
BRUTE_U_MAX = 4


@functools.cache
def _alignments(T: int, U: int) -> np.ndarray:
    """Every alignment of a (T, U) lattice, one row of T + U edge indices each, in depth-first, blank-first order.

    An index points into the blank then the emit table, each flattened: the
    blank out of node (t, u) is t * (U+1) + u, its label T * (U+1) + t * U + u.
    """
    paths: list[list[int]] = []

    def walk(t: int, u: int, path: list[int]) -> None:
        if t == T - 1 and u == U:
            paths.append([*path, t * (U + 1) + u])
            return
        if t + 1 < T:
            walk(t + 1, u, [*path, t * (U + 1) + u])
        if u < U:
            walk(t, u + 1, [*path, T * (U + 1) + t * U + u])

    walk(0, 0, [])
    table = np.array(paths, dtype=np.intp)
    table.flags.writeable = False  # one table per shape, shared by every caller
    return table


def _enumerate(blank: np.ndarray, emit: np.ndarray) -> np.ndarray:
    """log P of B same-shape lattices as the log-sum of their alignments' path log-probs.

    A path's steps are added one at a time from 0.0, and the paths reduced in
    enumeration order, so each result is the float a recursive walk gives.
    """
    B, T, W = blank.shape
    if T > BRUTE_T_MAX or W - 1 > BRUTE_U_MAX:
        raise ValueError(f"brute force guard: T <= {BRUTE_T_MAX} and U <= {BRUTE_U_MAX} required")
    paths = _alignments(T, W - 1)
    edges = np.concatenate([blank.reshape(B, -1), emit.reshape(B, -1)], axis=1)
    acc = np.zeros((B, len(paths)))
    for step in paths.T:
        acc += edges[:, step]
    return np.logaddexp.reduce(acc, axis=1)


def brute_force_logprob(lat: RnntLattice) -> float:
    """Enumerate every alignment and sum the factorized path probabilities.

    Each path is a sequence of T blanks and U labels (labels in target order,
    final step a blank); its probability is the product of the per-step
    conditionals read off the lattice. Guarded to T <= 6, U <= 4.
    """
    return float(_enumerate(*_edge_tables(lat.logits[None], [lat.targets]))[0])


def _oracle_pairs(draws: Iterable[tuple[np.ndarray, list[int]]]) -> Iterator[tuple[float, float]]:
    """(rnnt_logprob, brute_force_logprob) of the lattice random_lattice builds from each ``_draw`` result, in order.

    The draws are taken lazily, in blocks of about BATCH_CELLS cells, so memory
    stays flat however many there are. Within a block the lattices of one
    (T, U, V) get one stack, one log-softmax, one run of RnntLattice's checks,
    one DP and one enumeration.
    """
    draws = iter(draws)
    while True:
        block, cells = [], 0
        for raw, targets in draws:
            block.append((raw, targets))
            cells += raw.size
            if cells >= BATCH_CELLS:
                break
        if not block:
            return
        groups: dict[tuple[int, ...], list[int]] = {}
        for i, (raw, _) in enumerate(block):
            groups.setdefault(raw.shape, []).append(i)
        pairs: list[tuple[float, float]] = [None] * len(block)  # type: ignore[list-item]
        for members in groups.values():
            logits = log_softmax(np.stack([block[i][0] for i in members]), axis=-1)
            targets = [block[i][1] for i in members]
            _validate(logits, targets)
            edges = _edge_tables(logits, targets)
            for i, dp, brute in zip(members, _logprobs(*edges).tolist(), _enumerate(*edges).tolist()):
                pairs[i] = dp, brute
        yield from pairs


def rnnt_grad(lat: RnntLattice) -> np.ndarray:
    """Gradient of -log P w.r.t. the pre-softmax activations, shape (T, U+1, V+1).

    Edge posteriors come from alpha/beta occupation probabilities; the softmax
    chain rule then gives grad = y * node_posterior - edge_posterior, which
    sums to zero over each (t, u) slice and vanishes on unreachable cells.
    """
    T, U, V = lat.T, lat.U, lat.V
    lp = lat.logits
    blank, emit = _skewed_edges(*_edge_tables(lp[None], [lat.targets]))
    alpha = _unskew(_sweep(blank[:-1], emit[:-1, :, :-1], 0.0)[:, 0], T)
    beta = _sweep(blank[-2::-1, :, ::-1], emit[-2::-1, :, -2::-1], blank[-1, :, -1])
    beta = _unskew(np.ascontiguousarray(beta[::-1, 0, ::-1]), T)
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

    # in place: besides the logits, the edge posteriors are the one lattice-sized
    # array; they become the gradient a block of about BATCH_CELLS cells at a time
    edge_post = np.exp(edge, out=edge)
    node_post = edge_post.sum(axis=2, keepdims=True)
    frames = max(1, BATCH_CELLS // ((U + 1) * (V + 1)))
    buf = np.empty((min(frames, T), U + 1, V + 1))
    for t0 in range(0, T, frames):
        grad = edge_post[t0:t0 + frames]
        y_node = np.exp(lp[t0:t0 + frames], out=buf[:len(grad)])
        y_node *= node_post[t0:t0 + frames]
        np.subtract(y_node, grad, out=grad)
    return edge_post


def finite_difference_grad(lat: RnntLattice, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of -log P through activation perturbation.

    Each activation is nudged by +/- eps and the slice re-normalized, matching
    the pre-softmax convention of ``rnnt_grad``. The perturbed lattices are
    scored in batches of at most BATCH_CELLS cells: one log-softmax, one
    normalization check and one DP per batch. For verification only.
    """
    shape, n = lat.logits.shape, lat.logits.size
    per_batch = max(1, BATCH_CELLS // n)
    logprob = np.empty(2 * n)  # perturbation 2i nudges flat activation i by +eps, 2i + 1 by -eps
    for start in range(0, 2 * n, per_batch):
        p = np.arange(start, min(start + per_batch, 2 * n))
        perturbed = np.repeat(lat.logits.reshape(1, n), len(p), axis=0)
        perturbed[np.arange(len(p)), p // 2] += np.where(p % 2 == 0, eps, -eps)
        relat = log_softmax(perturbed.reshape(len(p), *shape), axis=-1)
        _check_normalized(relat)
        logprob[start:start + len(p)] = _logprobs(*_edge_tables(relat, [lat.targets]))
    loss = -logprob
    return ((loss[0::2] - loss[1::2]) / (2.0 * eps)).reshape(shape)

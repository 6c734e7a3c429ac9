"""The (time x label-position) log-probability table the transducer math runs on.

``logits[t, u, v]`` holds the log-probability of emitting symbol v when t
frames have been consumed and u target labels emitted. The last vocabulary
index is the blank symbol, which advances time without emitting a label. Every
(t, u) slice is a normalized distribution over the V real symbols plus blank.
"""

from __future__ import annotations

from dataclasses import dataclass

from .._lazy import np

__all__ = ["RnntLattice", "log_softmax", "random_lattice"]

_NORM_TOL = 1e-9
_CHECK_CELLS = 1 << 15  # cells per block of the normalization check


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def _check_normalized(logits: np.ndarray) -> None:
    """Raise ValueError unless every slice along the last axis is a distribution in log space."""
    step = max(1, _CHECK_CELLS // max(1, logits[0].size))  # blocks of the first axis: no lattice-sized temporary
    with np.errstate(all="ignore"):  # NaN, and a slice that under- or overflows exp, is refused
        for start in range(0, len(logits), step):
            if not np.abs(np.log(np.exp(logits[start:start + step]).sum(axis=-1))).max() <= _NORM_TOL:
                worst = float(np.max(np.abs(np.logaddexp.reduce(logits, axis=-1))))
                raise ValueError(f"lattice slices not normalized: max |logsumexp| = {worst:.3g}")


@dataclass
class RnntLattice:
    """Log-probability lattice of shape (T, U+1, V+1) plus the U target labels."""

    logits: np.ndarray
    targets: list[int]

    def __post_init__(self) -> None:
        self.logits = np.asarray(self.logits, dtype=np.float64)
        if self.logits.ndim != 3:
            raise ValueError("logits must have shape (T, U+1, V+1)")
        if self.T < 1:
            raise ValueError("need at least one time frame")
        if self.logits.shape[1] != self.U + 1:
            raise ValueError(f"logits second dim is {self.logits.shape[1]}, expected U+1={self.U + 1}")
        if any(not 0 <= y < self.V for y in self.targets):
            raise ValueError(f"target labels must lie in [0, {self.V})")
        _check_normalized(self.logits)

    @property
    def T(self) -> int:
        return self.logits.shape[0]

    @property
    def U(self) -> int:
        return len(self.targets)

    @property
    def V(self) -> int:
        return self.logits.shape[2] - 1

    @property
    def blank_id(self) -> int:
        return self.V


def random_lattice(rng: np.random.Generator, T: int, U: int, V: int) -> RnntLattice:
    """Random normalized lattice with uniformly drawn targets."""
    raw = rng.normal(size=(T, U + 1, V + 1))
    targets = [int(rng.integers(V)) for _ in range(U)]
    return RnntLattice(logits=log_softmax(raw, axis=2), targets=targets)

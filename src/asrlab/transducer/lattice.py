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
    frames = logits.reshape(-1, *logits.shape[-2:])  # one lattice's or a stacked batch's frames in a row, as a view
    step = max(1, _CHECK_CELLS // max(1, frames[0].size))  # blocks of frames: no lattice-sized temporary
    with np.errstate(all="ignore"):  # NaN, and a slice that under- or overflows exp, is refused
        for start in range(0, len(frames), step):
            if not np.abs(np.log(np.exp(frames[start:start + step]).sum(axis=-1))).max() <= _NORM_TOL:
                worst = float(np.max(np.abs(np.logaddexp.reduce(logits, axis=-1))))
                raise ValueError(f"lattice slices not normalized: max |logsumexp| = {worst:.3g}")


def _validate(logits: np.ndarray, targets: list[list[int]]) -> None:
    """RnntLattice's checks, run once for B lattices of one shape: (B, T, U+1, V+1) logits and B target lists."""
    T, W, V = logits.shape[1], logits.shape[2], logits.shape[3] - 1
    if T < 1:
        raise ValueError("need at least one time frame")
    for labels in targets:
        if len(labels) + 1 != W:
            raise ValueError(f"logits second dim is {W}, expected U+1={len(labels) + 1}")
        for i, y in enumerate(labels):
            if isinstance(y, bool) or not isinstance(y, (int, np.integer)):
                raise ValueError(f"target {i} is {y!r}, not an integer label")
            if not 0 <= y < V:
                raise ValueError(f"target labels must lie in [0, {V})")
    _check_normalized(logits)


@dataclass
class RnntLattice:
    """Log-probability lattice of shape (T, U+1, V+1) plus the U target labels."""

    logits: np.ndarray
    targets: list[int]

    def __post_init__(self) -> None:
        self.logits = np.asarray(self.logits, dtype=np.float64)
        if self.logits.ndim != 3:
            raise ValueError("logits must have shape (T, U+1, V+1)")
        _validate(self.logits[None], [self.targets])

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


def _draw(rng: np.random.Generator, T: int, U: int, V: int) -> tuple[np.ndarray, list[int]]:
    """The raw normals and the targets of one random lattice, in the order random_lattice draws them."""
    raw = rng.normal(size=(T, U + 1, V + 1))
    return raw, [int(rng.integers(V)) for _ in range(U)]


def random_lattice(rng: np.random.Generator, T: int, U: int, V: int) -> RnntLattice:
    """Random normalized lattice with uniformly drawn targets."""
    raw, targets = _draw(rng, T, U, V)
    return RnntLattice(logits=log_softmax(raw, axis=2), targets=targets)

"""The (time x label-position) log-probability table the transducer math runs on.

``logits[t, u, v]`` holds the log-probability of emitting symbol v when t
frames have been consumed and u target labels emitted. The last vocabulary
index is the blank symbol, which advances time without emitting a label. Every
(t, u) slice is a normalized distribution over the V real symbols plus blank.
"""

from __future__ import annotations

from dataclasses import dataclass

from .._lazy import np

__all__ = [
    "RnntLattice",
    "log_softmax",
    "random_lattice",
    "read_lattice_fixture",
    "write_lattice_fixture",
]

_NORM_TOL = 1e-9


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


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
            raise ValueError(
                f"logits second dim is {self.logits.shape[1]}, expected U+1={self.U + 1}"
            )
        if any(not 0 <= y < self.V for y in self.targets):
            raise ValueError(f"target labels must lie in [0, {self.V})")
        # each slice must be a normalized distribution (in log space)
        slice_sums = np.logaddexp.reduce(self.logits, axis=2)
        worst = float(np.max(np.abs(slice_sums)))
        if not worst <= _NORM_TOL:  # NaN fails too
            raise ValueError(f"lattice slices not normalized: max |logsumexp| = {worst:.3g}")

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


def write_lattice_fixture(lat: RnntLattice, path: str) -> None:
    """Plain-text fixture: header ``T U V``, row-major log-probs, then targets."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{lat.T} {lat.U} {lat.V}\n")
        for value in lat.logits.reshape(-1):
            fh.write(f"{float(value)!r}\n")
        fh.write(" ".join(str(y) for y in lat.targets) + "\n")


def read_lattice_fixture(path: str) -> RnntLattice:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        body = fh.read().split()
    if len(header) != 3:
        raise ValueError("fixture header must be 'T U V'")
    t, u, v = (int(x) for x in header)
    count = t * (u + 1) * (v + 1)
    if len(body) != count + u:
        raise ValueError(f"expected {count} log-probabilities plus {u} targets, found {len(body)} values")
    values = [float(x) for x in body[:count]]
    targets = [int(x) for x in body[count:]]
    return RnntLattice(logits=np.array(values).reshape(t, u + 1, v + 1), targets=targets)

"""Reference kernel: a fixed amount of work that does not use asrlab.

    python3 bench/reference.py

The benchmark times this kernel after every step to follow the speed of the
shared host (see "Host noise" in README.md). It does what the workloads do
most, in miniature: a JSON round trip of manifest-like records, a word-level
edit distance in plain Python, and a log-space recursion over numpy scalars.
Its inputs are fixed, so its work never changes; it must not import asrlab,
so that no change to the program moves it. Run as a script, it imports numpy
and runs the kernel once, so that it also pays for an interpreter start as
the steps do.
"""

from __future__ import annotations

import json
import random

import numpy as np

_RNG = random.Random(20240411)
_RECORDS = [
    json.dumps({
        "id": f"utt{i:05d}",
        "duration_sec": round(_RNG.uniform(1.0, 30.0), 3),
        "words": [{"w": _RNG.choice("abcdefgh") * _RNG.randint(1, 5), "start": i + k / 10, "conf": _RNG.random()}
                  for k in range(25)],
    })
    for i in range(50)
]
_REF = [_RNG.choice("abcdefghijklmnop") * _RNG.randint(1, 3) for _ in range(100)]
_HYP = [w if _RNG.random() > 0.15 else "x" for w in _REF]
_LOGITS = np.random.default_rng(20240411).normal(size=(30, 16, 2))


def kernel() -> float:
    records = [json.loads(line) for line in _RECORDS]
    kept = [r for r in records if sum(w["conf"] for w in r["words"]) > 12.5]
    size = len("\n".join(json.dumps(r) for r in kept))

    prev = list(range(len(_HYP) + 1))
    for i, a in enumerate(_REF, 1):
        cur = [i]
        for j, b in enumerate(_HYP, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (a != b)))
        prev = cur

    T, U, _ = _LOGITS.shape
    alpha = np.zeros((T, U))
    for t in range(T):
        for u in range(U):
            if t or u:
                a = alpha[t - 1, u] + _LOGITS[t - 1, u, 0] if t else -np.inf
                b = alpha[t, u - 1] + _LOGITS[t, u - 1, 1] if u else -np.inf
                alpha[t, u] = np.logaddexp(a, b)
    return size + prev[-1] + float(alpha[-1, -1])


if __name__ == "__main__":
    kernel()

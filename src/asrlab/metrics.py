"""Word-level transcript metrics: WER, Jaro-Winkler, aggregation.

WER = (substitutions + insertions + deletions) / reference word count, the
unit-cost minimum over all word alignments. `wer` counts the errors with the
bit-vector edit distance of Myers (1999) in the global form of Hyyrö (2001),
which equals the unit-cost DP minimum in O(m * ceil(n / 64)) time and builds
no alignment. Dataset-level numbers are weighted by audio length so long files
are not under-represented.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "EmptyReferenceError",
    "wer",
    "jaro_winkler",
    "weighted_average",
    "EvalRow",
    "build_report",
]


class EmptyReferenceError(ValueError):
    """Raised when WER is requested against an empty reference (undefined denominator)."""


def wer(ref: list[str], hyp: list[str]) -> float:
    """Word error rate (S+I+D)/len(ref); may exceed 1.0.

    The error count is the bit-vector edit distance, the minimum S+I+D over
    all word alignments under unit costs. Raises EmptyReferenceError for an
    empty reference rather than silently returning 0 or infinity.
    """
    n, m = len(ref), len(hyp)
    if not n:
        raise EmptyReferenceError("WER is undefined for an empty reference")
    # Words shared at either end cost nothing. The suffix scan stops at the
    # prefix, so the two never overlap; the denominator stays len(ref).
    lo, hi, top = 0, 0, min(n, m)
    while lo < top and ref[lo] == hyp[lo]:
        lo += 1
    while hi < top - lo and ref[n - 1 - hi] == hyp[m - 1 - hi]:
        hi += 1
    if lo + hi == n:
        return (m - n) / n
    # Bit i of each vector is word i of the trimmed reference. vp/vn mark the
    # rows where the current DP column rises/falls by one from the row above;
    # dist is the last row. One match mask per distinct word is built once.
    match: dict[str, int] = {}
    bit = 1
    for word in ref[lo:n - hi]:
        match[word] = match.get(word, 0) | bit
        bit <<= 1
    mask, last = bit - 1, bit >> 1
    vp, vn, dist = mask, 0, n - lo - hi
    for word in hyp[lo:m - hi]:
        eq = match.get(word, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        hp = vn | ~(xh | vp)
        hn = vp & xh
        if hp & last:
            dist += 1
        elif hn & last:
            dist -= 1
        # row 0 is D[0][j] = j, so every column enters with a +1 step
        hp = (hp << 1) | 1
        vp = ((hn << 1) | ~(xv | hp)) & mask
        vn = hp & xv
    return dist / n


def jaro_winkler(a: str, b: str) -> float:
    """Jaro-Winkler similarity in [0, 1].

    Jaro similarity uses a matching window of floor(max(|a|,|b|)/2) - 1 and
    half-transposition counting; the Winkler boost J + l*0.1*(1-J) is applied
    unconditionally with common-prefix length l capped at 4. Conventions for
    empty strings: jw("", "") = 1.0 and jw(x, "") = 0.0 for nonempty x.
    """
    if a == b:
        return 1.0
    if not a or not b:
        return 0.0
    la, lb = len(a), len(b)
    window = max(max(la, lb) // 2 - 1, 0)

    a_flags = [False] * la
    b_flags = [False] * lb
    matches = 0
    for i, ch in enumerate(a):
        lo = max(0, i - window)
        hi = min(lb, i + window + 1)
        for j in range(lo, hi):
            if not b_flags[j] and b[j] == ch:
                a_flags[i] = b_flags[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0

    matched_a = [a[i] for i in range(la) if a_flags[i]]
    matched_b = [b[j] for j in range(lb) if b_flags[j]]
    half_transpositions = sum(x != y for x, y in zip(matched_a, matched_b))
    t = half_transpositions / 2.0

    jaro = (matches / la + matches / lb + (matches - t) / matches) / 3.0

    prefix = 0
    for x, y in zip(a, b):
        if x != y or prefix == 4:
            break
        prefix += 1
    return jaro + prefix * 0.1 * (1.0 - jaro)


def weighted_average(scores: list[float], lengths_sec: list[float]) -> float:
    """Length-weighted mean: sum(s_i * L_i) / sum(L_i)."""
    if len(scores) != len(lengths_sec):
        raise ValueError(f"got {len(scores)} scores but {len(lengths_sec)} lengths")
    if not scores:
        raise ValueError("cannot average an empty list")
    if not all(0 < length < math.inf for length in lengths_sec):  # NaN fails too
        raise ValueError("all lengths must be positive and finite")
    total = sum(lengths_sec)
    return sum(s * length for s, length in zip(scores, lengths_sec)) / total


@dataclass
class EvalRow:
    """Per-file metric row. A metric is None when it was not scored for the file
    (no WER asked for, or no entities on either side)."""

    file_id: str
    audio_sec: float
    wer: float | None = None
    pn_jaro: float | None = None
    pn_wer: float | None = None


def build_report(rows: list[EvalRow]) -> dict[str, float | None]:
    """Length-weighted dataset average of each metric over per-file rows, keyed by metric name.

    Files whose score is None are excluded from that metric's aggregate instead
    of contributing a zero; a metric no file has aggregates to None.
    """
    aggregates: dict[str, float | None] = {}
    for name in ("wer", "pn_jaro", "pn_wer"):
        scored = [(getattr(r, name), r.audio_sec) for r in rows if getattr(r, name) is not None]
        if scored:
            aggregates[name] = weighted_average([s for s, _ in scored], [l for _, l in scored])
        else:
            aggregates[name] = None
    return aggregates

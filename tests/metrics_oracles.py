"""Full dynamic-programming word alignment, the reference for ``asrlab.metrics.wer``.

``wer`` counts the unit-cost edit distance with the bit-vector recurrence of
Myers (1999) and Hyyrö (2001) and builds no alignment. ``word_align`` fills the
whole (n + 1) x (m + 1) table in Python and traces one minimum-cost alignment
back through it, so ``wer(ref, hyp)`` must equal
``word_align(ref, hyp).errors / len(ref)``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class EditAlignment:
    """Counts and word pairs from a minimum-cost alignment.

    ``pairs`` lists (ref_word, hyp_word) in order; a gap is represented by None
    (None on the ref side is an insertion, None on the hyp side a deletion).
    Invariants: S + D + hits == len(ref) and S + I + hits == len(hyp).
    """

    substitutions: int
    insertions: int
    deletions: int
    hits: int
    pairs: list[tuple[str | None, str | None]]

    @property
    def errors(self) -> int:
        return self.substitutions + self.insertions + self.deletions


def word_align(ref: list[str], hyp: list[str]) -> EditAlignment:
    """Align two token lists with minimal S+I+D under unit costs.

    Ties are broken preferring substitution over insertion over deletion, which
    makes the returned alignment deterministic.
    """
    n, m = len(ref), len(hyp)
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        dp[i][0] = i
    for j in range(m + 1):
        dp[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            cost = 0 if ref[i - 1] == hyp[j - 1] else 1
            dp[i][j] = min(dp[i - 1][j - 1] + cost, dp[i][j - 1] + 1, dp[i - 1][j] + 1)

    pairs: list[tuple[str | None, str | None]] = []
    subs = ins = dels = hits = 0
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dp[i][j] == dp[i - 1][j - 1] + (0 if ref[i - 1] == hyp[j - 1] else 1):
            pairs.append((ref[i - 1], hyp[j - 1]))
            if ref[i - 1] == hyp[j - 1]:
                hits += 1
            else:
                subs += 1
            i -= 1
            j -= 1
        elif j > 0 and dp[i][j] == dp[i][j - 1] + 1:
            pairs.append((None, hyp[j - 1]))
            ins += 1
            j -= 1
        else:
            pairs.append((ref[i - 1], None))
            dels += 1
            i -= 1
    pairs.reverse()
    return EditAlignment(subs, ins, dels, hits, pairs)

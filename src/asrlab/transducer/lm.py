"""Add-k smoothed n-gram language model for shallow fusion during beam search."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Hashable, Sequence

from .._lazy import np

__all__ = ["NgramLm", "build_lm", "lm_logprob"]

Token = Hashable


@dataclass
class NgramLm:
    """Counts plus add-k smoothing. Conditionals per history sum to one.

    P(w | h) = (count(h, w) + k) / (count(h) + k * |V|), with histories
    truncated to the last n-1 tokens. Unseen histories back off to the uniform
    distribution over the vocabulary.
    """

    order: int
    k: float
    vocabulary: tuple[Token, ...]
    ngram_counts: dict[tuple[Token, ...], Counter] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if self.k <= 0:
            raise ValueError("smoothing k must be positive")
        if not self.vocabulary:
            raise ValueError("vocabulary must be nonempty")
        self._vocab_set = set(self.vocabulary)

    def context(self, history: Sequence[Token]) -> tuple[Token, ...]:
        """The part of a history the model conditions on: its last order - 1 tokens."""
        if self.order == 1:
            return ()
        return tuple(history[-(self.order - 1) :])

    def cond_logprob(self, history: Sequence[Token], token: Token) -> float:
        if token not in self._vocab_set:
            raise ValueError(f"token {token!r} not in LM vocabulary")
        h = self.context(history)
        counts = self.ngram_counts.get(h)
        v = len(self.vocabulary)
        if counts is None:
            return float(-np.log(v))  # unseen history: uniform
        total = sum(counts.values())
        return float(np.log(counts[token] + self.k) - np.log(total + self.k * v))


def build_lm(
    corpus: Sequence[Sequence[Token]],
    n: int,
    k_smoothing: float = 0.01,
    vocabulary: Sequence[Token] | None = None,
) -> NgramLm:
    """Count (history, next-token) pairs over the corpus sentences.

    Histories shorter than n-1 (sentence starts) are counted under their own
    truncated tuple, so scoring and training see the same histories. An empty
    corpus yields the uniform model; the vocabulary then must be given.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    vocab = tuple(vocabulary) if vocabulary is not None else tuple(
        sorted({tok for sent in corpus for tok in sent}, key=repr)
    )
    if not vocab:
        raise ValueError("empty corpus and no vocabulary given")
    counts: dict[tuple[Token, ...], Counter] = {}
    for sent in corpus:
        for i, tok in enumerate(sent):
            history = tuple(sent[max(0, i - (n - 1)) : i]) if n > 1 else ()
            counts.setdefault(history, Counter())[tok] += 1
    return NgramLm(order=n, k=k_smoothing, vocabulary=vocab, ngram_counts=counts)


def lm_logprob(lm: NgramLm, seq: Sequence[Token]) -> float:
    """Log-probability of a sequence as the product of smoothed conditionals."""
    total = 0.0
    for i, tok in enumerate(seq):
        total += lm.cond_logprob(seq[:i], tok)
    return total

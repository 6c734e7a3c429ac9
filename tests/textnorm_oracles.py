"""Character-loop reference for the punctuation step of ``asrlab.textnorm.normalize``.

``normalize`` folds apostrophe look-alikes and punctuation with ``str.translate``
and finds the apostrophes and hyphens to drop with one regular expression. The
loop below asks ``unicodedata`` about one character at a time and checks the
neighbours of each ``'`` and ``-`` with ``str.isalnum``, so ``normalize`` must
return exactly what ``normalize`` below returns.
"""

from __future__ import annotations

import unicodedata

from asrlab.textnorm import DEFAULT_RULES

APOSTROPHES = {"’": "'", "ʼ": "'", "‘": "'"}


def punctuation_to_spaces(text: str) -> str:
    """Replace punctuation with spaces, keeping intra-word apostrophes and hyphens."""
    out = []
    n = len(text)
    for i, ch in enumerate(text):
        if unicodedata.category(ch).startswith("P"):
            if ch in "'-":
                prev_ok = i > 0 and text[i - 1].isalnum()
                next_ok = i + 1 < n and text[i + 1].isalnum()
                if prev_ok and next_ok:
                    out.append(ch)
                    continue
            out.append(" ")
        else:
            out.append(ch)
    return "".join(out)


def normalize(text: str, rules=DEFAULT_RULES) -> str:
    if not text:
        return ""
    for variant, plain in APOSTROPHES.items():
        text = text.replace(variant, plain)
    text = punctuation_to_spaces(text.casefold())
    expanded: list[str] = []
    for token in text.split():
        expanded.extend(rules.contractions.get(token, token).split())
    return " ".join(tok for tok in expanded if tok not in rules.fillers)

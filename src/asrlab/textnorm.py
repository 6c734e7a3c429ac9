"""Deterministic English text normalization applied before word error rate scoring.

Both reference and hypothesis transcripts go through the same rule set so that
formatting differences (casing, punctuation, contractions, filler words) do not
count as recognition errors. The default rule set is frozen and documented here;
a user-supplied rule file can replace the tables.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field

from .config import utf8_lines

__all__ = [
    "NormRuleSet",
    "DEFAULT_RULES",
    "normalize",
    "tokenize_words",
    "load_rules",
]

# Apostrophe look-alikes folded to U+0027 before any other step.
_APOSTROPHES = str.maketrans({"’": "'", "ʼ": "'", "‘": "'"})

_DEFAULT_CONTRACTIONS = {
    # negations
    "ain't": "is not",
    "aren't": "are not",
    "can't": "cannot",
    "couldn't": "could not",
    "daren't": "dare not",
    "didn't": "did not",
    "doesn't": "does not",
    "don't": "do not",
    "hadn't": "had not",
    "hasn't": "has not",
    "haven't": "have not",
    "isn't": "is not",
    "mightn't": "might not",
    "mustn't": "must not",
    "needn't": "need not",
    "oughtn't": "ought not",
    "shan't": "shall not",
    "shouldn't": "should not",
    "wasn't": "was not",
    "weren't": "were not",
    "won't": "will not",
    "wouldn't": "would not",
    # pronoun + be/have/will/would
    "i'm": "i am",
    "i've": "i have",
    "i'll": "i will",
    "i'd": "i would",
    "you're": "you are",
    "you've": "you have",
    "you'll": "you will",
    "you'd": "you would",
    "he's": "he is",
    "he'll": "he will",
    "he'd": "he would",
    "she's": "she is",
    "she'll": "she will",
    "she'd": "she would",
    "it's": "it is",
    "it'll": "it will",
    "it'd": "it would",
    "we're": "we are",
    "we've": "we have",
    "we'll": "we will",
    "we'd": "we would",
    "they're": "they are",
    "they've": "they have",
    "they'll": "they will",
    "they'd": "they would",
    "that's": "that is",
    "that'll": "that will",
    "that'd": "that would",
    "there's": "there is",
    "there've": "there have",
    "there'll": "there will",
    "there'd": "there would",
    "here's": "here is",
    # interrogatives
    "who's": "who is",
    "who're": "who are",
    "who've": "who have",
    "who'll": "who will",
    "who'd": "who would",
    "what's": "what is",
    "what're": "what are",
    "what've": "what have",
    "what'll": "what will",
    "what'd": "what did",
    "where's": "where is",
    "where're": "where are",
    "where've": "where have",
    "where'll": "where will",
    "where'd": "where did",
    "when's": "when is",
    "when'd": "when did",
    "why's": "why is",
    "why're": "why are",
    "why'd": "why did",
    "how's": "how is",
    "how're": "how are",
    "how'll": "how will",
    "how'd": "how did",
    # modal + have
    "could've": "could have",
    "should've": "should have",
    "would've": "would have",
    "might've": "might have",
    "must've": "must have",
    # misc
    "let's": "let us",
    "ma'am": "madam",
    "y'all": "you all",
    "c'mon": "come on",
}

_DEFAULT_FILLERS = frozenset(
    {"um", "umm", "ummm", "uh", "uhh", "er", "ah", "mhm", "mm-hmm"}
)


@dataclass(frozen=True)
class NormRuleSet:
    """Normalization rules: contraction expansions and filler words.

    Invariants: contraction keys and filler words are lowercase, and every
    expansion value is already normalized under the set itself, so applying
    the rule set twice gives the same result as applying it once.
    """

    contractions: dict[str, str] = field(default_factory=lambda: dict(_DEFAULT_CONTRACTIONS))
    fillers: frozenset[str] = _DEFAULT_FILLERS

    def __post_init__(self) -> None:
        for key in self.contractions:
            if key != key.casefold():
                raise ValueError(f"contraction key not lowercase: {key!r}")
        for word in self.fillers:
            if word != word.casefold():
                raise ValueError(f"filler word not lowercase: {word!r}")
        for key, value in self.contractions.items():
            again = _normalize(value, self.contractions, self.fillers)
            if again != value:
                raise ValueError(f"expansion of {key!r} changes when normalized by these rules: {value!r} -> {again!r}")


class _PunctuationToSpace(dict):
    """``str.translate`` table that maps every Unicode punctuation code point
    except ``'`` and ``-`` to a space and leaves the rest unchanged.

    Each code point's category is looked up the first time it is translated
    and cached, so no import-time scan of all code points is needed.
    """

    def __missing__(self, code: int) -> int | str:
        ch = chr(code)
        self[code] = out = " " if unicodedata.category(ch).startswith("P") and ch not in "'-" else code
        return out


_PUNCTUATION_TO_SPACE = _PunctuationToSpace()
# An apostrophe or hyphen without an alphanumeric on both sides; [^\W_] is str.isalnum.
# Apostrophes must survive until contraction expansion; hyphens must survive so
# hyphenated fillers like "mm-hmm" stay matchable as single tokens.
_EDGE_MARK = re.compile(r"(?<![^\W_])['-]|['-](?![^\W_])")


def _normalize(text: str, contractions: dict[str, str], fillers: frozenset[str]) -> str:
    if not text:
        return ""
    # fold before casefold: "ŉ" casefolds to U+02BC + "n", which must stay a letter
    text = text.translate(_APOSTROPHES).casefold().translate(_PUNCTUATION_TO_SPACE)
    if "'" in text or "-" in text:
        text = _EDGE_MARK.sub(" ", text)
    expanded: list[str] = []
    for token in text.split():
        expanded.extend(contractions.get(token, token).split())
    kept = [tok for tok in expanded if tok not in fillers]
    return " ".join(kept)


DEFAULT_RULES = NormRuleSet()


def normalize(text: str, rules: NormRuleSet = DEFAULT_RULES) -> str:
    """Normalize a transcript into the canonical scoring form.

    Output is casefolded, free of punctuation except intra-word
    apostrophes/hyphens, has contractions expanded and filler words removed,
    and uses single spaces throughout. Idempotent: running the result through
    again returns it unchanged.
    """
    return _normalize(text, rules.contractions, rules.fillers)


def tokenize_words(text: str) -> list[str]:
    """Split normalized text on whitespace runs.

    Joining the result with single spaces reproduces the normalized input.
    """
    return text.split()


def load_rules(path: str) -> NormRuleSet:
    """Read a rule file with ``[contractions]`` (key<TAB>value) and ``[fillers]`` sections."""
    contractions: dict[str, str] = {}
    fillers: set[str] = set()
    section = None
    for line_no, raw in utf8_lines(path):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        stripped = line.strip()
        if stripped in ("[contractions]", "[fillers]"):
            section = stripped
            continue
        if section == "[contractions]":
            if "\t" not in line:
                raise ValueError(f"{path}:{line_no}: expected key<TAB>value")
            key, value = line.split("\t", 1)
            contractions[key.strip().casefold()] = value.strip().casefold()
        elif section == "[fillers]":
            fillers.add(stripped.casefold())
        else:
            raise ValueError(f"{path}:{line_no}: content before a section header")
    return NormRuleSet(contractions=contractions, fillers=frozenset(fillers))

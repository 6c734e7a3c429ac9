"""Named-entity alignment and proper-noun scoring for transcript evaluation.

Gold and predicted entity sequences are paired in two stages: an
order-preserving lexical alignment (difflib's Ratcliff-Obershelp sequence
matching over the casefolded surface texts), then a refinement that keeps a
candidate pair only if the entity types agree and the surface strings are
similar enough. Entities left unpaired count as insertions or deletions, each
contributing the maximal distance of 1.0 to the final score.

NER itself is consumed, not computed: spans arrive from annotation files
(see ``read_entity_file``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import zip_longest

from .config import _in_range, utf8_lines
from .metrics import jaro_winkler, wer

__all__ = [
    "SUPPORTED_TYPES",
    "EntitySpan",
    "EntityAlignment",
    "align_entities",
    "pn_score",
    "read_entity_file",
]

SUPPORTED_TYPES = ("Person", "Organization", "GPE", "LOC")


@dataclass(frozen=True)
class EntitySpan:
    """A typed entity mention with character offsets into its source text."""

    filler: str
    type: str
    start: int
    end: int

    def __post_init__(self) -> None:
        # alignment sorts spans by (start, end): a negative or non-int offset would silently reorder them
        if not (isinstance(self.start, int) and isinstance(self.end, int) and self.start >= 0):
            raise ValueError(f"span offsets must be integers >= 0, got {self.start!r} and {self.end!r}")
        if self.start >= self.end:
            raise ValueError(f"span [{self.start}, {self.end}) is empty or inverted")
        if not self.filler.strip():
            raise ValueError("filler must be nonempty")


@dataclass
class EntityAlignment:
    """Pairing result: matched (gold, pred) pairs plus the unpaired residue."""

    matched: list[tuple[EntitySpan, EntitySpan]] = field(default_factory=list)
    unmatched_gold: list[EntitySpan] = field(default_factory=list)
    unmatched_pred: list[EntitySpan] = field(default_factory=list)


def align_entities(
    gold: list[EntitySpan], pred: list[EntitySpan], sim_threshold: float = 0.5
) -> EntityAlignment:
    """Two-stage alignment of gold and predicted spans.

    Spans with types outside SUPPORTED_TYPES are dropped before alignment.
    Stage 1 pairs the rest in order: difflib's opcodes over the casefolded
    fillers cut both sequences into blocks, and each block's spans are paired
    by position, the longer side's leftovers unpaired ('equal' blocks pair
    identical fillers, 'delete' and 'insert' blocks pair nothing). The returned
    buckets partition the spans exactly: a candidate pair is kept only when the
    types are equal and the casefolded fillers have Jaro-Winkler similarity >=
    sim_threshold; everything else lands in an unmatched bucket. A threshold
    outside [0, 1], NaN included, raises ValueError.
    """
    from difflib import SequenceMatcher

    if fault := _in_range(0, 1)(sim_threshold):  # Jaro-Winkler similarity lies in [0, 1]
        raise ValueError(f"sim_threshold {fault}")
    gold = sorted((s for s in gold if s.type in SUPPORTED_TYPES), key=lambda s: (s.start, s.end))
    pred = sorted((s for s in pred if s.type in SUPPORTED_TYPES), key=lambda s: (s.start, s.end))
    g_text = [s.filler.casefold() for s in gold]
    p_text = [s.filler.casefold() for s in pred]
    if g_text == p_text:  # empty lists included: the opcodes are one 'equal' block
        opcodes = [("equal", 0, len(gold), 0, len(pred))]
    else:
        opcodes = SequenceMatcher(None, g_text, p_text, autojunk=False).get_opcodes()
    out = EntityAlignment()
    for _, i1, i2, j1, j2 in opcodes:
        for g, p in zip_longest(gold[i1:i2], pred[j1:j2]):
            if g is None:
                out.unmatched_pred.append(p)
            elif p is None:
                out.unmatched_gold.append(g)
            elif g.type == p.type and jaro_winkler(g.filler.casefold(), p.filler.casefold()) >= sim_threshold:
                out.matched.append((g, p))
            else:
                out.unmatched_gold.append(g)
                out.unmatched_pred.append(p)
    return out


def pn_score(align: EntityAlignment) -> tuple[float, float] | None:
    """Proper-noun distances, scaled x100 (lower is better): (Jaro-Winkler, pair-level WER).

    Each is a mean over max(n, m) slots where n/m are the gold/pred span
    counts: matched pairs contribute their lexical distance (1 - Jaro-Winkler
    similarity, or the WER of the pair's casefolded fillers), every unmatched
    span contributes the maximal distance 1.0. Returns None when there are no
    entities on either side; callers exclude such files from aggregation
    rather than scoring them 0.
    """
    slots = len(align.matched) + max(len(align.unmatched_gold), len(align.unmatched_pred))
    if slots == 0:
        return None
    jaro, pair_wer = [], []
    for g, p in align.matched:
        g_text, p_text = g.filler.casefold(), p.filler.casefold()
        jaro.append(1.0 - jaro_winkler(g_text, p_text))
        pair_wer.append(wer(g_text.split(), p_text.split()))
    unmatched = float(len(align.unmatched_gold) + len(align.unmatched_pred))
    return 100.0 * (sum(jaro) + unmatched) / slots, 100.0 * (sum(pair_wer) + unmatched) / slots


def read_entity_file(path: str) -> dict[str, list[EntitySpan]]:
    """Parse a line-delimited annotation file: file_id<TAB>start<TAB>end<TAB>type<TAB>filler.

    Offsets are ASCII digits only. Blank lines are skipped; a malformed line
    raises ValueError naming ``path:line``.
    """
    spans: dict[str, list[EntitySpan]] = {}
    for line_no, raw in utf8_lines(path):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        try:
            if len(parts) != 5:
                raise ValueError("expected 5 tab-separated fields")
            file_id, start, end, etype, filler = parts
            if bad := [o for o in (start, end) if not (o.isascii() and o.isdigit())]:
                raise ValueError(f"invalid literal for an offset, which takes ASCII digits only: {bad[0]!r}")
            span = EntitySpan(filler=filler, type=etype, start=int(start), end=int(end))
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: {exc}") from exc
        spans.setdefault(file_id, []).append(span)
    return spans

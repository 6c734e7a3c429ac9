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
from difflib import SequenceMatcher
from itertools import zip_longest

from .config import utf8_lines
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
    sim_threshold; everything else lands in an unmatched bucket.
    """
    gold = sorted((s for s in gold if s.type in SUPPORTED_TYPES), key=lambda s: (s.start, s.end))
    pred = sorted((s for s in pred if s.type in SUPPORTED_TYPES), key=lambda s: (s.start, s.end))
    g_text = [s.filler.casefold() for s in gold]
    p_text = [s.filler.casefold() for s in pred]
    out = EntityAlignment()
    for _, i1, i2, j1, j2 in SequenceMatcher(None, g_text, p_text, autojunk=False).get_opcodes():
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


def _pair_distance(gold: EntitySpan, pred: EntitySpan, lexical_metric: str) -> float:
    g = gold.filler.casefold()
    p = pred.filler.casefold()
    if lexical_metric == "jaro_distance":
        return 1.0 - jaro_winkler(g, p)
    if lexical_metric == "pair_wer":
        return wer(g.split(), p.split())
    raise ValueError(f"unknown lexical metric: {lexical_metric!r}")


def pn_score(align: EntityAlignment, lexical_metric: str = "jaro_distance") -> float | None:
    """Proper-noun distance, scaled x100 (lower is better).

    Mean over max(n, m) slots where n/m are the gold/pred span counts: matched
    pairs contribute their lexical distance (1 - Jaro-Winkler, or pair-level
    WER), every unmatched span contributes the maximal distance 1.0. Returns
    None when there are no entities on either side; callers exclude such files
    from aggregation rather than scoring them 0.
    """
    n = len(align.matched) + len(align.unmatched_gold)
    m = len(align.matched) + len(align.unmatched_pred)
    slots = max(n, m)
    if slots == 0:
        return None
    total = sum(_pair_distance(g, p, lexical_metric) for g, p in align.matched)
    total += float(len(align.unmatched_gold) + len(align.unmatched_pred))
    return 100.0 * total / slots


def read_entity_file(path: str) -> dict[str, list[EntitySpan]]:
    """Parse a line-delimited annotation file: file_id<TAB>start<TAB>end<TAB>type<TAB>filler.

    Blank lines are skipped; a malformed line raises ValueError naming ``path:line``.
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
            span = EntitySpan(filler=filler, type=etype, start=int(start), end=int(end))
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: {exc}") from exc
        spans.setdefault(file_id, []).append(span)
    return spans

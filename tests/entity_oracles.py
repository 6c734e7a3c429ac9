"""Case-by-case reference for the entity pairing in ``align_entities``.

``asrlab.entities.align_entities`` pairs the spans of each difflib opcode
block by position with one ``zip_longest``. The functions below handle the
four opcodes ('equal', 'replace', 'delete', 'insert') one at a time, as the
pairing was first written, so the library must return exactly their buckets.

``pn_score`` is the old one-metric-per-call ``entities.pn_score`` with its
``_pair_distance``, verbatim: ``asrlab.entities.pn_score`` must return the
same two floats, bit for bit, as its two calls.
"""

from __future__ import annotations

from difflib import SequenceMatcher

from asrlab.entities import SUPPORTED_TYPES, EntityAlignment, EntitySpan
from asrlab.metrics import jaro_winkler, wer


def candidate_pairs(
    gold: list[EntitySpan], pred: list[EntitySpan]
) -> list[tuple[EntitySpan | None, EntitySpan | None]]:
    """Order-preserving lexical pairing over casefolded fillers."""
    g_text = [s.filler.casefold() for s in gold]
    p_text = [s.filler.casefold() for s in pred]
    sm = SequenceMatcher(None, g_text, p_text, autojunk=False)
    out: list[tuple[EntitySpan | None, EntitySpan | None]] = []
    for tag, i1, i2, j1, j2 in sm.get_opcodes():
        if tag == "equal":
            out.extend((gold[i], pred[j]) for i, j in zip(range(i1, i2), range(j1, j2)))
        elif tag == "replace":
            g_block = gold[i1:i2]
            p_block = pred[j1:j2]
            for k in range(max(len(g_block), len(p_block))):
                out.append(
                    (
                        g_block[k] if k < len(g_block) else None,
                        p_block[k] if k < len(p_block) else None,
                    )
                )
        elif tag == "delete":
            out.extend((gold[i], None) for i in range(i1, i2))
        else:  # insert
            out.extend((None, pred[j]) for j in range(j1, j2))
    return out


def align_entities(gold: list[EntitySpan], pred: list[EntitySpan], sim_threshold: float = 0.5) -> EntityAlignment:
    gold = sorted((s for s in gold if s.type in SUPPORTED_TYPES), key=lambda s: (s.start, s.end))
    pred = sorted((s for s in pred if s.type in SUPPORTED_TYPES), key=lambda s: (s.start, s.end))
    out = EntityAlignment()
    for g, p in candidate_pairs(gold, pred):
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
    n = len(align.matched) + len(align.unmatched_gold)
    m = len(align.matched) + len(align.unmatched_pred)
    slots = max(n, m)
    if slots == 0:
        return None
    total = sum(_pair_distance(g, p, lexical_metric) for g, p in align.matched)
    total += float(len(align.unmatched_gold) + len(align.unmatched_pred))
    return 100.0 * total / slots

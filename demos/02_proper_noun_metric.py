"""
Scoring proper nouns separately from WER
========================================

"Ridiculous Cage" for "Nicolas Cage" costs the same WER as a harmless
contraction, yet ruins the transcript for anyone searching names. Aligning
the named entities of reference and hypothesis and scoring each pair by
lexical distance exposes exactly this class of error.
"""

from asrlab.entities import EntitySpan, align_entities, pn_score

gold = [
    EntitySpan("Nicolas Cage", "Person", 0, 12),
    EntitySpan("Paris", "GPE", 30, 35),
]
pred = [
    EntitySpan("Ridiculous Cage", "Person", 0, 15),
    # the GPE mention was dropped entirely by the recognizer
]

alignment = align_entities(gold, pred, sim_threshold=0.5)
print("matched: ", [(g.filler, p.filler) for g, p in alignment.matched])
print("deleted: ", [s.filler for s in alignment.unmatched_gold])
print("inserted:", [s.filler for s in alignment.unmatched_pred])

# two flavors of the same metric, from one call: Jaro-Winkler distance is
# forgiving of near-misses, pair-level WER counts whole wrong words
pn_jaro, pn_wer = pn_score(alignment)
print(f"PN (Jaro x100): {pn_jaro:.2f}")
print(f"PN (WER  x100): {pn_wer:.2f}")

# the matched pair alone reproduces the canonical 0.5 pair-WER example
only_pair = align_entities(gold[:1], pred[:1], sim_threshold=0.5)
print(f"Nicolas/Ridiculous pair alone: {pn_score(only_pair)[1]:.1f}")

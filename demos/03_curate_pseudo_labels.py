"""
Filtering machine-labeled audio before training on it
=====================================================

Pseudo-labels are only useful if the bad ones are kept out of the train set.
The pipeline applies language, speech-activity, silence, segmentation,
words-per-minute, and confidence gates, and records why each clip was
rejected.
"""

from asrlab.curation import ManifestRecord, PipelineConfig, run_pipeline

def clip(rid, duration, n_words, conf, **kw):
    words = " ".join(f"w{i}" for i in range(n_words))
    step = duration / max(n_words, 1)
    defaults = dict(
        word_times=[(i * step, i * step + 0.8 * step) for i in range(n_words)],
        detected_lang=("en", 0.99),
        speech_ratio=0.95,
        max_silence_sec=0.5,
    )
    defaults.update(kw)
    return ManifestRecord(
        id=rid, audio_path=f"{rid}.wav", duration_sec=duration, transcript=words,
        word_confidences=[conf] * n_words, **defaults,
    )

manifest = [
    clip("good", 10.0, 20, conf=0.92),
    clip("too-slow", 12.0, 5, conf=0.92),                      # 25 words/minute
    clip("low-confidence", 10.0, 20, conf=0.55),
    clip("mostly-music", 10.0, 20, conf=0.92, speech_ratio=0.4),
    clip("wrong-language", 10.0, 20, conf=0.92, detected_lang=("es", 0.97)),
    clip("needs-splitting", 40.0, 80, conf=0.92),              # cut into 7-20 s children
]

kept, outcomes = run_pipeline(manifest, PipelineConfig())

print("kept clips:")
for rec in kept:
    print(f"  {rec.id:<18} {rec.duration_sec:5.1f}s  {len(rec.words)} words")

print("\nrejections:")
for outcome in outcomes:
    if outcome.verdict == "rejected":
        reasons = ", ".join(f"{r.filter_id}={r.measured}" for r in outcome.reasons)
        print(f"  {outcome.id:<18} {reasons}")

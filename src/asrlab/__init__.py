"""asrlab: evaluation, curation, and decoding utilities for pseudo-labeled ASR pipelines."""

__version__ = "0.1.0"

from .textnorm import NormRuleSet, DEFAULT_RULES, normalize, tokenize_words, load_rules
from .metrics import (
    EmptyReferenceError,
    wer,
    jaro_winkler,
    weighted_average,
    EvalRow,
    build_report,
)
from .entities import EntitySpan, EntityAlignment, align_entities, pn_score
from .curation import (
    ManifestRecord,
    PipelineConfig,
    FilterOutcome,
    compute_wpm,
    run_pipeline,
    read_manifest,
)
from .audio import AudioBuffer, read_wav, write_wav
from .noise import gaussian_noise, mix_at_snr, measure_snr, SweepSpec, run_sweep
from .stitch import SpeechSegment, energy_vad, plan_chunks, PartialTranscript, stitch
from .planner import ScalingAssumptions, optimal_hours

__all__ = [
    "__version__",
    "NormRuleSet",
    "DEFAULT_RULES",
    "normalize",
    "tokenize_words",
    "load_rules",
    "EmptyReferenceError",
    "wer",
    "jaro_winkler",
    "weighted_average",
    "EvalRow",
    "build_report",
    "EntitySpan",
    "EntityAlignment",
    "align_entities",
    "pn_score",
    "ManifestRecord",
    "PipelineConfig",
    "FilterOutcome",
    "compute_wpm",
    "run_pipeline",
    "read_manifest",
    "AudioBuffer",
    "read_wav",
    "write_wav",
    "gaussian_noise",
    "mix_at_snr",
    "measure_snr",
    "SweepSpec",
    "run_sweep",
    "SpeechSegment",
    "energy_vad",
    "plan_chunks",
    "PartialTranscript",
    "stitch",
    "ScalingAssumptions",
    "optimal_hours",
]

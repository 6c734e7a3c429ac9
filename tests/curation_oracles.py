"""The manifest-record parser and the filter chain that ``curation`` replaced, as references.

``_record_from_json`` and ``OracleRecord.__post_init__`` are the old
``curation._record_from_json`` and ``ManifestRecord.__post_init__``
verbatim: the parser converted some fields and the record checked others.
On a valid record the one schema of ``ManifestRecord`` must hold the same
values; only where the old parser kept an int (a word confidence) or a bool
un-converted may the written line differ.

``_judge`` and its four filters are the old ``curation._judge`` and the
public filter functions it called, verbatim: the filter order written out in
the judge's body, the blocklist compiled by the caller, and four return
conventions. On any record and config, ``curation._judge`` must keep the same
segments and give the same reasons.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from asrlab.curation import (
    _FIELD_NAMES,
    TARGET_LANG,
    FilterReason,
    ManifestParseError,
    ManifestRecord,
    PipelineConfig,
    segment,
)


@dataclass
class OracleRecord:
    id: str
    audio_path: str
    duration_sec: float
    transcript: str
    word_confidences: list[float] | None = None
    word_times: list[tuple[float, float]] | None = None
    source_lang: str | None = None
    detected_lang: tuple[str, float] | None = None
    speech_ratio: float | None = None
    max_silence_sec: float | None = None

    def __post_init__(self) -> None:
        for name in ("id", "audio_path", "transcript"):
            if not isinstance(value := getattr(self, name), str):
                raise ValueError(f"{name} must be a string, got {type(value).__name__}")
        if self.source_lang is not None and not isinstance(self.source_lang, str):
            raise ValueError(f"source_lang must be a string or None, got {type(self.source_lang).__name__}")
        lang = self.detected_lang[0] if self.detected_lang is not None else None
        if self.detected_lang is not None and not isinstance(lang, str):
            raise ValueError(f"detected_lang's tag must be a string, got {type(lang).__name__}")
        try:  # json.loads turns a \ud800 escape into a lone surrogate, which UTF-8 cannot encode
            f"{self.id}{self.audio_path}{self.transcript}{self.source_lang}{lang}".encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError("a text field holds a lone surrogate, which UTF-8 cannot encode") from None
        if not math.isfinite(self.duration_sec) or self.duration_sec <= 0:
            raise ValueError(f"{self.id}: duration_sec must be positive")
        n_words = len(self.transcript.split())
        for name in ("word_confidences", "word_times"):
            values = getattr(self, name)
            if values is not None and len(values) != n_words:
                raise ValueError(
                    f"{self.id}: {name} has {len(values)} entries for {n_words} words"
                )
        if self.word_confidences is not None and any(
            not 0.0 <= c <= 1.0 for c in self.word_confidences
        ):
            raise ValueError(f"{self.id}: word confidences must lie in [0, 1]")
        if self.detected_lang is not None and not 0.0 <= self.detected_lang[1] <= 1.0:
            raise ValueError(f"{self.id}: detected_lang confidence must lie in [0, 1]")
        for name in ("speech_ratio", "max_silence_sec"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{self.id}: {name} must be finite")
        if self.word_times is not None:
            prev_end = -math.inf
            for start, end in self.word_times:
                if not prev_end <= start <= end:
                    raise ValueError(f"{self.id}: word_times must be ordered and non-overlapping")
                prev_end = end
            # the order bounds every other time, and NaN already failed it
            if self.word_times and not (
                math.isfinite(self.word_times[0][0]) and math.isfinite(self.word_times[-1][1])
            ):
                raise ValueError(f"{self.id}: word_times must be finite")


def _optional_float(value) -> float | None:
    return None if value is None else float(value)


def _record_from_json(obj: object) -> OracleRecord:
    if not isinstance(obj, dict):
        raise ValueError("a manifest line must be a JSON object")
    unknown = set(obj).difference(_FIELD_NAMES)
    if unknown:
        raise ValueError(f"unknown manifest fields: {sorted(unknown)}")
    word_times = obj.get("word_times")
    if word_times is not None:
        word_times = [(float(s), float(e)) for s, e in word_times]
    detected = obj.get("detected_lang")
    if detected is not None:
        detected = (detected[0], float(detected[1]))
    return OracleRecord(
        id=obj["id"],
        audio_path=obj["audio_path"],
        duration_sec=float(obj["duration_sec"]),
        transcript=obj["transcript"],
        word_confidences=obj.get("word_confidences"),
        word_times=word_times,
        source_lang=obj.get("source_lang"),
        detected_lang=detected,
        speech_ratio=_optional_float(obj.get("speech_ratio")),
        max_silence_sec=_optional_float(obj.get("max_silence_sec")),
    )


def compute_wpm(transcript: str, duration_sec: float) -> float:
    if not 0 < duration_sec < math.inf:
        raise ValueError(f"duration_sec must be positive and finite, got {duration_sec}")
    return len(transcript.split()) / (duration_sec / 60.0)


def filter_confidence(rec: ManifestRecord, threshold: float) -> tuple[bool, float | None]:
    """Pass iff the arithmetic mean word confidence is >= threshold.

    Missing confidences are not evaluable; callers reject with reason
    ``missing-confidence``.
    """
    if not rec.word_confidences:
        return False, None
    mean = sum(rec.word_confidences) / len(rec.word_confidences)
    return mean >= threshold, mean


def filter_speech_and_silence(rec: ManifestRecord, cfg: PipelineConfig) -> list[FilterReason]:
    """Empty list = pass. Speech ratio strictly below the floor or continuous
    silence strictly above the cap rejects, mirroring the threshold wording."""
    if rec.speech_ratio is None or rec.max_silence_sec is None:
        return [FilterReason("missing-speech-stats", "missing")]
    reasons = []
    if rec.speech_ratio < cfg.min_speech_ratio:
        reasons.append(FilterReason("speech-activity", f"{rec.speech_ratio:.4g}"))
    if rec.max_silence_sec > cfg.max_silence_sec:
        reasons.append(FilterReason("silence", f"{rec.max_silence_sec:.4g}"))
    return reasons


def filter_language(rec: ManifestRecord, cfg: PipelineConfig) -> list[FilterReason]:
    """Keep only records detected as the target language with enough confidence
    and no source/detected mismatch."""
    if rec.detected_lang is None:
        return [FilterReason("missing-language", "missing")]
    tag, conf = rec.detected_lang
    if tag != TARGET_LANG:
        return [FilterReason("language", f"{tag}:{conf:.4g}")]
    if conf < cfg.lang_conf_min:
        return [FilterReason("language-confidence", f"{conf:.4g}")]
    if rec.source_lang is not None and rec.source_lang != tag:
        return [FilterReason("language", f"source={rec.source_lang},detected={tag}")]
    return []


def _judge(
    rec: ManifestRecord | ManifestParseError, cfg: PipelineConfig, blockers: list[re.Pattern]
) -> tuple[list[ManifestRecord], list[FilterReason]]:
    """(kept segments, reasons) for one manifest entry; exactly one of the two is empty."""
    if isinstance(rec, ManifestParseError):
        return [], [FilterReason("parse-error", rec.error)]
    reasons = [FilterReason("blocklist", p.pattern) for p in blockers if p.search(rec.transcript)]
    reasons = reasons or filter_language(rec, cfg) or filter_speech_and_silence(rec, cfg)
    if reasons:
        return [], reasons
    children, seg_reason = segment(rec, cfg)
    if seg_reason is not None or not children:
        return [], [FilterReason(seg_reason or "segment-too-short", f"{rec.duration_sec:.4g}")]

    survivors, reasons = [], []
    for child in children:
        wpm = compute_wpm(child.transcript, child.duration_sec)
        if not cfg.wpm_min <= wpm <= cfg.wpm_max:
            reasons.append(FilterReason("wpm", f"{wpm:.4g}"))
            continue
        ok, mean = filter_confidence(child, cfg.conf_threshold)
        if ok:
            survivors.append(child)
        elif mean is None:
            reasons.append(FilterReason("missing-confidence", "missing"))
        else:
            reasons.append(FilterReason("confidence", f"{mean:.4g}"))
    return survivors, [] if survivors else reasons

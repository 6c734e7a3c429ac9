"""Pseudo-label curation: threshold filters, segmentation, and rejection provenance.

Filters run in a fixed order (blocklist, language, speech/silence, segmentation,
words-per-minute, confidence) so reruns are deterministic and cheap metadata
checks happen before per-word work. One judge decides each input record; every
record, a manifest line that failed to parse included, gets one outcome with
the offending measured value attached to each failed filter, and an outcome is
``kept`` exactly when it has no reasons. ``curate_stream`` judges and writes
each record as ``iter_manifest`` reads it, so its memory does not grow with the
manifest; ``read_manifest``, ``run_pipeline`` and the two writers are loops
over the same per-record pieces. ``curate_manifest`` runs ``curate_stream`` on
byte-range shards of a manifest file in forked processes at once, and writes
the same bytes for any number of shards. ``ManifestRecord`` is the manifest
schema: its fields are the JSON keys, written in declaration order, and a field
that is None is left out.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import os
import re
import shutil
import signal
import tempfile
import threading
from dataclasses import dataclass, field, fields
from typing import Iterable, Iterator, NoReturn, TextIO

__all__ = [
    "ManifestRecord",
    "ManifestParseError",
    "PipelineConfig",
    "FilterReason",
    "FilterOutcome",
    "compute_wpm",
    "filter_confidence",
    "filter_speech_and_silence",
    "filter_language",
    "segment",
    "run_pipeline",
    "curate_stream",
    "curate_manifest",
    "plan_shards",
    "usable_cpus",
    "iter_manifest",
    "read_manifest",
    "write_manifest",
    "write_rejection_csv",
]

TARGET_LANG = "en"


@dataclass
class ManifestRecord:
    """One audio+transcript unit. Optional fields hold upstream measurements."""

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
        lang = self.detected_lang[0] if self.detected_lang is not None else None
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

    @property
    def words(self) -> list[str]:
        return self.transcript.split()


@dataclass
class ManifestParseError:
    """Placeholder for a manifest line that failed to parse."""

    id: str
    error: str


@dataclass
class PipelineConfig:
    wpm_min: float = 50.0
    wpm_max: float = 250.0
    conf_threshold: float = 0.8
    min_speech_ratio: float = 0.70
    max_silence_sec: float = 5.0
    seg_min_sec: float = 7.0
    seg_max_sec: float = 20.0
    lang_conf_min: float = 0.5
    blocklist: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.wpm_min < self.wpm_max:
            raise ValueError("wpm_min must be < wpm_max")
        if not self.seg_min_sec < self.seg_max_sec:
            raise ValueError("seg_min_sec must be < seg_max_sec")
        for name in ("conf_threshold", "min_speech_ratio", "lang_conf_min"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if math.isnan(self.max_silence_sec):  # every silence would compare as within it
            raise ValueError("max_silence_sec must be a number, got nan")
        for pattern in self.blocklist:
            try:
                re.compile(pattern)
            except re.error as exc:
                raise ValueError(f"blocklist pattern {pattern!r} is not a valid regex: {exc}") from exc


@dataclass
class FilterReason:
    filter_id: str
    measured: str


@dataclass
class FilterOutcome:
    """Fate of one input record: kept exactly when no filter gave a reason."""

    id: str
    reasons: list[FilterReason] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        return "rejected" if self.reasons else "kept"


def compute_wpm(transcript: str, duration_sec: float) -> float:
    if duration_sec <= 0:
        raise ValueError("duration_sec must be positive")
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


def _slice_record(rec: ManifestRecord, words: list[str], lo: int, hi: int, child_idx: int) -> ManifestRecord:
    """Child record for words [lo, hi); word times stay absolute into the parent audio.

    The child is not validated again: a slice of a valid parent passes every
    check of ``ManifestRecord`` but a positive duration, which a seg_min_sec
    of zero or less lets a child of zero span fail. That check is made here.
    """
    times = rec.word_times[lo:hi]  # type: ignore[index]
    child_id = f"{rec.id}#{child_idx}"
    duration = times[-1][1] - times[0][0]
    if duration <= 0:
        raise ValueError(f"{child_id}: duration_sec must be positive")
    child = object.__new__(ManifestRecord)
    child.__dict__.update(
        vars(rec),
        id=child_id,
        duration_sec=duration,
        transcript=" ".join(words[lo:hi]),
        word_confidences=rec.word_confidences[lo:hi] if rec.word_confidences else None,
        word_times=times,
    )
    return child


def segment(rec: ManifestRecord, cfg: PipelineConfig) -> tuple[list[ManifestRecord], str | None]:
    """Cut a record into children whose spans lie in [seg_min_sec, seg_max_sec].

    Greedy left-to-right: among cut points whose span from the current word is
    in range, pick the one at the largest inter-word gap. Words that cannot
    form an in-range segment (including a too-short trailing remainder) are
    dropped. Returns (children, reason): without word times the record passes
    through unsegmented, flagged ``unsegmentable`` when it exceeds seg_max_sec.
    """
    if rec.word_times is None:
        if rec.duration_sec > cfg.seg_max_sec:
            return [rec], "unsegmentable"
        return [rec], None
    if rec.duration_sec <= cfg.seg_max_sec:
        if rec.duration_sec >= cfg.seg_min_sec:
            return [rec], None  # already in range: pass through unchanged
        return [], None  # too short to ever reach seg_min
    if not rec.word_times:
        return [], None

    times = rec.word_times
    words = rec.words
    children: list[ManifestRecord] = []
    n = len(times)
    cur = 0
    child_idx = 0
    while cur < n:
        start = times[cur][0]
        remaining = times[n - 1][1] - start
        if remaining <= cfg.seg_max_sec:
            # no cut needed; a too-short trailing remainder is dropped
            if remaining >= cfg.seg_min_sec:
                children.append(_slice_record(rec, words, cur, n, child_idx))
            break
        # a cut is forced: widest window ending at or under seg_max
        hi = cur
        while hi + 1 < n and times[hi + 1][1] - start <= cfg.seg_max_sec:
            hi += 1
        if not cfg.seg_min_sec <= times[hi][1] - start <= cfg.seg_max_sec:
            # no feasible segment starts here (huge word or gap); drop through it
            cur = hi + 1
            continue
        # among in-range cut points, cut at the largest inter-word gap
        best_j = hi
        best_gap = -1.0
        for j in range(cur, hi + 1):
            if times[j][1] - start < cfg.seg_min_sec:
                continue
            gap = times[j + 1][0] - times[j][1]
            if gap > best_gap:
                best_gap = gap
                best_j = j
        children.append(_slice_record(rec, words, cur, best_j + 1, child_idx))
        child_idx += 1
        cur = best_j + 1
    return children, None


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


def _judge_records(
    manifest: Iterable[ManifestRecord | ManifestParseError], cfg: PipelineConfig
) -> Iterator[tuple[list[ManifestRecord], FilterOutcome]]:
    """(kept segments, outcome) for each input record, in input order, one record at a time.

    A record survives if at least one of its segmentation children passes the
    per-segment filters (WpM, confidence).
    """
    blockers = [re.compile(p) for p in cfg.blocklist]
    for rec in manifest:
        survivors, reasons = _judge(rec, cfg, blockers)
        yield survivors, FilterOutcome(rec.id, reasons)


def run_pipeline(
    manifest: Iterable[ManifestRecord | ManifestParseError], cfg: PipelineConfig
) -> tuple[list[ManifestRecord], list[FilterOutcome]]:
    """Apply all filters; return (kept records, one outcome per input record), in input order."""
    kept: list[ManifestRecord] = []
    outcomes: list[FilterOutcome] = []
    for survivors, outcome in _judge_records(manifest, cfg):
        kept.extend(survivors)
        outcomes.append(outcome)
    return kept, outcomes


def curate_stream(
    manifest: Iterable[ManifestRecord | ManifestParseError],
    cfg: PipelineConfig,
    kept_out: TextIO,
    report_out: TextIO,
) -> tuple[int, int]:
    """Judge each record and write it at once: (kept segments, rejected records).

    Writes the bytes that ``run_pipeline`` followed by ``write_manifest`` and
    ``write_rejection_csv`` would, holding one record in memory at a time.
    """
    rows = _report_writer(report_out)
    n_kept = n_rejected = 0
    for survivors, outcome in _judge_records(manifest, cfg):
        for child in survivors:
            kept_out.write(_manifest_line(child))
        rows.writerow(_report_row(outcome))
        n_kept += len(survivors)
        n_rejected += bool(outcome.reasons)
    return n_kept, n_rejected


# --- shards ---------------------------------------------------------------

# (first byte, number of lines or None for all that follow, number of the first line)
Shard = tuple[int, int | None, int]

# A manifest below twice this size is one shard: there a second process won
# no time. curate --jobs 2 without this floor against --jobs 1 on a shared
# 2-vCPU host, median wall time over 20 alternating pairs: 14 kB +14 %,
# 0.5 MB +6 %, 1 MB 0 %, 2 MB -8 % and +1 % in two rounds (6 and 5 wins),
# 3 MB +1 % (4 wins); 4 MB -27 % (13 wins), 8 MB -29 % (10 of 10 pairs).
MIN_SHARD_BYTES = 2 << 20
_COUNT_BLOCK = 1 << 16


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def plan_shards(path: str, jobs: int) -> list[Shard]:
    r"""The manifest at `path` cut into consecutive shards of about equal size.

    There are at most `jobs` shards, at most ``usable_cpus()``, and each holds
    at least about MIN_SHARD_BYTES. A cut falls just after a newline byte, so
    it splits no line and no UTF-8 character. A shard's first line number
    counts the line ends before it as text mode reads them (``\n``, ``\r`` and
    ``\r\n``), in blocks of the file. Where this process cannot fork safely,
    without ``os.fork`` or with other threads running, there is one shard.
    """
    size = os.path.getsize(path)
    n = min(jobs, usable_cpus(), size // MIN_SHARD_BYTES)
    if n < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [(0, None, 1)]
    cuts: list[int] = []
    firsts = [1]
    with open(path, "rb") as fh:
        for k in range(1, n):
            fh.seek(size * k // n)
            fh.readline()
            if (cuts[-1] if cuts else 0) < fh.tell() < size:
                cuts.append(fh.tell())
        fh.seek(0)
        line_ends, last_byte = 0, b""
        for cut in cuts:
            while fh.tell() < cut:
                block = fh.read(min(_COUNT_BLOCK, cut - fh.tell()))
                line_ends += block.count(b"\n") + block.count(b"\r") - block.count(b"\r\n")
                line_ends -= last_byte == b"\r" and block[:1] == b"\n"  # a \r\n split between two blocks
                last_byte = block[-1:]
            firsts.append(line_ends + 1)
    counts = [b - a for a, b in zip(firsts, firsts[1:])]
    return list(zip([0, *cuts], [*counts, None], firsts))


def curate_manifest(path: str, cfg: PipelineConfig, kept_out: TextIO, report_out: TextIO, jobs: int = 1) -> tuple[int, int]:
    """``curate_stream`` over the manifest at `path`, in up to `jobs` shards at once (see ``plan_shards``).

    The outputs are the same bytes for any `jobs`. Shard 0 is judged in this
    process, straight into the outputs; each other shard in a forked child,
    into anonymous temporary files that are appended in shard order once shard
    0 is done. Each such file lies beside its output where that is a regular
    file, so the outputs' directories hold up to twice their size for a while.
    If shards fail, the exception of the first in file order is raised, and
    no child outlives the call: while children run, a SIGTERM left at its
    default raises SystemExit(143) here, so they are killed too.
    """
    shards = plan_shards(path, jobs)
    with contextlib.ExitStack() as stack:
        if len(shards) > 1 and signal.getsignal(signal.SIGTERM) is signal.SIG_DFL:
            signal.signal(signal.SIGTERM, _exit_on_sigterm)
            stack.callback(signal.signal, signal.SIGTERM, signal.SIG_DFL)
        workers = [stack.enter_context(_ShardWorker(path, shard, cfg, (kept_out, report_out))) for shard in shards[1:]]
        n_kept, n_rejected = curate_stream(iter_manifest(path, shards[0]), cfg, kept_out, report_out)
        for worker in workers:
            kept, rejected = worker.append_to(kept_out, report_out)
            n_kept += kept
            n_rejected += rejected
    return n_kept, n_rejected


def _exit_on_sigterm(signum, frame) -> NoReturn:
    raise SystemExit(128 + signum)


def _spill_file(out: TextIO):
    """An anonymous temporary file beside the regular file `out` writes, else in the default temporary directory."""
    name = getattr(out, "name", None)
    if isinstance(name, str) and os.path.isfile(name):
        with contextlib.suppress(OSError):  # a directory that takes no new file
            return tempfile.TemporaryFile(dir=os.path.dirname(os.path.realpath(name)))
    return tempfile.TemporaryFile()


class _ShardWorker:
    """A forked child that judges one shard into two anonymous temporary files, one per output (see ``_spill_file``).

    Through a pipe it sends ``b"<kept> <rejected>"``, or else the pickle of
    the exception it raised, which starts with the byte 0x80.
    """

    def __init__(self, path: str, shard: Shard, cfg: PipelineConfig, outs: tuple[TextIO, TextIO]) -> None:
        self.pid = 0
        self.files = [_spill_file(out) for out in outs]
        self.pipe, write_end = os.pipe()
        try:
            self.pid = os.fork()
            if self.pid == 0:
                _work_shard(path, shard, cfg, self.files, write_end)
        except BaseException:
            self.__exit__()
            raise
        finally:
            os.close(write_end)

    def __enter__(self) -> "_ShardWorker":
        return self

    def append_to(self, kept_out: TextIO, report_out: TextIO) -> tuple[int, int]:
        """Wait for the child, then append its kept lines and its report rows; raises what the child raised."""
        with open(self.pipe, "rb") as pipe:
            self.pipe = -1
            sent = pipe.read()
        _, status = os.waitpid(self.pid, 0)
        self.pid = 0
        if not sent:
            raise RuntimeError(f"a curate shard worker ended without a result (wait status {status})")
        if not sent[:1].isdigit():
            import pickle  # only a failed run loads it

            raise pickle.loads(sent)  # bytes that the child wrote
        n_kept, n_rejected = map(int, sent.split())
        for tmp, out in zip(self.files, (kept_out, report_out)):
            tmp.seek(0)
            text = io.TextIOWrapper(tmp, encoding="utf-8", newline="")
            if out is report_out:
                text.readline()  # the report's column row, which shard 0 wrote
            shutil.copyfileobj(text, out)
            text.detach()
        return n_kept, n_rejected

    def __exit__(self, *exc) -> None:
        """Kill and reap the child if it is still unwaited for, and close the pipe and the files."""
        if self.pid:
            with contextlib.suppress(ProcessLookupError):
                os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = 0
        if self.pipe >= 0:
            os.close(self.pipe)
            self.pipe = -1
        for tmp in self.files:
            tmp.close()


def _work_shard(path: str, shard: Shard, cfg: PipelineConfig, files: list, write_end: int) -> NoReturn:
    """The child's whole life: judge the shard, send its two counts or its pickled exception, and exit.

    It ends with ``os._exit``, so no buffer it shares with the parent is
    flushed twice. If it cannot send a result, the parent gets none.
    """
    status = 1
    try:
        try:
            kept_out, report_out = (io.TextIOWrapper(f, encoding="utf-8", newline="") for f in files)
            sent = b"%d %d" % curate_stream(iter_manifest(path, shard), cfg, kept_out, report_out)
            kept_out.flush()
            report_out.flush()
        except Exception as exc:  # the parent raises it
            import pickle  # only a failed run loads it

            sent = pickle.dumps(exc)
        with open(write_end, "wb") as pipe:
            pipe.write(sent)
        status = 0
    finally:
        os._exit(status)


# --- manifest and report I/O ---------------------------------------------

_FIELD_NAMES = tuple(f.name for f in fields(ManifestRecord))


def _optional_float(value) -> float | None:
    return None if value is None else float(value)


def _record_from_json(obj: object) -> ManifestRecord:
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
        detected = (str(detected[0]), float(detected[1]))
    return ManifestRecord(
        id=str(obj["id"]),
        audio_path=str(obj["audio_path"]),
        duration_sec=float(obj["duration_sec"]),
        transcript=str(obj["transcript"]),
        word_confidences=obj.get("word_confidences"),
        word_times=word_times,
        source_lang=obj.get("source_lang"),
        detected_lang=detected,
        speech_ratio=_optional_float(obj.get("speech_ratio")),
        max_silence_sec=_optional_float(obj.get("max_silence_sec")),
    )


def iter_manifest(path: str, shard: Shard = (0, None, 1)) -> Iterator[ManifestRecord | ManifestParseError]:
    """Each entry of a JSON Lines manifest, read one line at a time; a malformed
    line becomes a ManifestParseError entry.

    A line holding a byte that is not UTF-8 is malformed too, and its error
    names the first such byte. So is a line nested too deep for the JSON
    decoder, which raises RecursionError. Lines end as in text mode, and a
    parse error's id is ``line-N`` with N its line number. ``shard`` (see
    ``plan_shards``) reads only the lines of one shard.
    """
    start, n_lines, first_line = shard
    with open(path, "rb") as raw:
        if start:  # a pipe cannot seek
            raw.seek(start)
        fh = io.TextIOWrapper(raw, encoding="utf-8", errors="surrogateescape")
        for line_no, line in enumerate(itertools.islice(fh, n_lines), start=first_line):
            if not line.strip():
                continue
            try:
                if not line.isascii():
                    _check_utf8(line)
                yield _record_from_json(json.loads(line))
            except (ValueError, KeyError, TypeError, IndexError, RecursionError) as exc:
                yield ManifestParseError(id=f"line-{line_no}", error=str(exc))


def read_manifest(path: str) -> list[ManifestRecord | ManifestParseError]:
    """Every entry of a JSON Lines manifest (see ``iter_manifest``)."""
    return list(iter_manifest(path))


def _check_utf8(line: str) -> None:
    """Raise ValueError naming the first undecodable byte of a line read with surrogateescape.

    JSON escapes are still ASCII here, so only a byte of the file can fail to encode.
    """
    try:
        line.encode("utf-8")
    except UnicodeEncodeError as exc:
        byte = ord(line[exc.start]) - 0xDC00  # surrogateescape reads byte b as U+DC00 + b
        offset = len(line[: exc.start].encode("utf-8"))
        raise ValueError(f"line is not valid UTF-8: byte 0x{byte:02x} at offset {offset}") from None


def _manifest_line(rec: ManifestRecord) -> str:
    """One JSON line: the record's fields in declaration order, leaving out those that are None."""
    obj = {name: value for name in _FIELD_NAMES if (value := getattr(rec, name)) is not None}
    return json.dumps(obj, ensure_ascii=False) + "\n"


def write_manifest(records: Iterable[ManifestRecord], path: str) -> None:
    """JSON Lines, one line per record."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(_manifest_line(rec))


def _report_writer(fh: TextIO):
    """A CSV writer on `fh`, after the column row."""
    writer = csv.writer(fh)
    writer.writerow(["id", "verdict", "reasons", "measured_values"])
    return writer


def _report_row(o: FilterOutcome) -> list[str]:
    return [o.id, o.verdict, ";".join(r.filter_id for r in o.reasons), ";".join(r.measured for r in o.reasons)]


def write_rejection_csv(outcomes: Iterable[FilterOutcome], path: str) -> None:
    """CSV columns: id, verdict, reasons (;-joined ids), measured_values (;-joined)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = _report_writer(fh)
        for o in outcomes:
            writer.writerow(_report_row(o))

"""Pseudo-label curation: threshold filters, segmentation, and rejection provenance.

``_RECORD_FILTERS``, then ``segment``, then ``_CHILD_FILTERS`` is the one
statement of filter order, so reruns are deterministic and cheap metadata
checks happen before per-word work. Each filter takes ``(record, config)`` and
returns its reasons, an empty list meaning pass. One judge decides each input
record; every record, a manifest line that failed to parse included, gets one
outcome with the offending measured value attached to each failed filter, and
an outcome is ``kept`` exactly when it has no reasons. ``curate_stream``
judges and writes each record as ``iter_manifest`` reads it, so its memory
does not grow with the manifest; ``read_manifest``, ``run_pipeline`` and the
two writers are loops over the same per-record pieces. ``curate_manifest``
runs ``curate_stream`` on byte-range shards of a manifest file in forked
processes at once, and writes the same bytes for any number of shards.
``ManifestRecord`` is the manifest schema: its fields are the JSON keys,
written in declaration order, and a field that is None is left out.
Constructing one, from a manifest line or a library call alike, checks and
converts each field.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import re
import shutil
import tempfile
import threading
from dataclasses import MISSING, dataclass, field, fields
from typing import Iterable, Iterator, NoReturn, TextIO

from .config import _is_utf8

__all__ = [
    "ManifestRecord",
    "ManifestParseError",
    "PipelineConfig",
    "FilterReason",
    "FilterOutcome",
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


def _number(name: str, value: object) -> float:
    """A finite JSON number or numeric string as a float; anything else, a bool too, raises ValueError naming `name`."""
    try:
        if (isinstance(value, (float, str)) or type(value) is int) and math.isfinite(x := float(value)):
            return x
    except (ValueError, OverflowError):  # a string that is not a number, an int beyond a float's range
        pass
    raise ValueError(f"{name} must be a finite number, got {value!r:.40}")


def _pair(name: str, value: object) -> tuple:
    """`value` as a tuple if it is a list or tuple of two elements; if not, ValueError names `name`."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError(f"{name} must be a pair, got {value!r:.40}")
    return tuple(value)


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
        for name in ("id", "audio_path", "transcript"):
            if not isinstance(value := getattr(self, name), str):
                raise ValueError(f"{name} must be a string, got {type(value).__name__}")
        if self.source_lang is not None and not isinstance(self.source_lang, str):
            raise ValueError(f"source_lang must be a string or None, got {type(self.source_lang).__name__}")
        lang = None
        if self.detected_lang is not None:
            lang, conf = _pair("detected_lang", self.detected_lang)
            if not isinstance(lang, str):
                raise ValueError(f"detected_lang's tag must be a string, got {type(lang).__name__}")
            self.detected_lang = lang, self._unit("detected_lang confidence", conf)
        if not _is_utf8(f"{self.id}{self.audio_path}{self.transcript}{self.source_lang}{lang}"):  # from a \ud800 escape
            raise ValueError("a text field holds a lone surrogate, which UTF-8 cannot encode")
        self.duration_sec = _number("duration_sec", self.duration_sec)
        if self.duration_sec <= 0:
            raise ValueError(f"{self.id}: duration_sec must be positive")
        for name in ("speech_ratio", "max_silence_sec"):
            if (value := getattr(self, name)) is not None:
                setattr(self, name, _number(name, value))
        n_words = len(self.transcript.split())
        for name in ("word_confidences", "word_times"):
            if (values := getattr(self, name)) is not None and not isinstance(values, (list, tuple)):
                raise ValueError(f"{name} must be a list, got {type(values).__name__}")
            if values is not None and len(values) != n_words:
                raise ValueError(f"{self.id}: {name} has {len(values)} entries for {n_words} words")
        for c in self.word_confidences or ():  # a list of floats in [0, 1] is kept as it is; any other is converted
            if type(c) is not float or not 0.0 <= c <= 1.0:
                self.word_confidences = [self._unit("a word_confidences entry", c) for c in self.word_confidences]
                break
        if self.word_times is not None:
            times = []
            prev_end = -math.inf
            for pair in self.word_times:
                try:  # a list of two floats, the common case, needs no helper
                    start, end = pair
                except (TypeError, ValueError):  # not two elements: _pair refuses it below
                    start = end = None
                if type(start) is not float or type(end) is not float:
                    start, end = (_number("a time in word_times", x) for x in _pair("a word_times entry", pair))
                if not prev_end <= start <= end:
                    raise ValueError(f"{self.id}: word_times must be ordered and non-overlapping")
                times.append((start, end))
                prev_end = end
            # the order bounds every other time, and NaN already failed it
            if times and not (math.isfinite(times[0][0]) and math.isfinite(prev_end)):
                raise ValueError(f"{self.id}: word_times must be finite")
            self.word_times = times

    def _unit(self, name: str, value: object) -> float:
        """`value` as a float in [0, 1]; if it is not one, ValueError names `name`."""
        if not 0.0 <= (x := _number(name, value)) <= 1.0:
            raise ValueError(f"{self.id}: {name} must lie in [0, 1]")
        return x

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
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if math.isnan(self.max_silence_sec):  # every silence would compare as within it
            raise ValueError("max_silence_sec must be a number, got nan")
        self.blockers: list[re.Pattern] = []  # the blocklist compiled once; an attribute, not a field
        for pattern in self.blocklist:
            try:
                self.blockers.append(re.compile(pattern))
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


def _blocklist(rec: ManifestRecord, cfg: PipelineConfig) -> list[FilterReason]:
    return [FilterReason("blocklist", p.pattern) for p in cfg.blockers if p.search(rec.transcript)]


def _language(rec: ManifestRecord, cfg: PipelineConfig) -> list[FilterReason]:
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


def _speech_and_silence(rec: ManifestRecord, cfg: PipelineConfig) -> list[FilterReason]:
    """Speech ratio strictly below the floor or continuous silence strictly
    above the cap rejects, mirroring the threshold wording."""
    if rec.speech_ratio is None or rec.max_silence_sec is None:
        return [FilterReason("missing-speech-stats", "missing")]
    reasons = []
    if rec.speech_ratio < cfg.min_speech_ratio:
        reasons.append(FilterReason("speech-activity", f"{rec.speech_ratio:.4g}"))
    if rec.max_silence_sec > cfg.max_silence_sec:
        reasons.append(FilterReason("silence", f"{rec.max_silence_sec:.4g}"))
    return reasons


def _wpm(rec: ManifestRecord, cfg: PipelineConfig) -> list[FilterReason]:
    """Words per minute in [wpm_min, wpm_max]; a record's duration is positive and finite."""
    wpm = len(rec.transcript.split()) / (rec.duration_sec / 60.0)
    return [] if cfg.wpm_min <= wpm <= cfg.wpm_max else [FilterReason("wpm", f"{wpm:.4g}")]


def _confidence(rec: ManifestRecord, cfg: PipelineConfig) -> list[FilterReason]:
    """Pass iff the arithmetic mean word confidence is >= conf_threshold; missing confidences reject."""
    if not rec.word_confidences:
        return [FilterReason("missing-confidence", "missing")]
    mean = sum(rec.word_confidences) / len(rec.word_confidences)
    return [] if mean >= cfg.conf_threshold else [FilterReason("confidence", f"{mean:.4g}")]


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
        return [rec], "unsegmentable" if rec.duration_sec > cfg.seg_max_sec else None
    if rec.duration_sec <= cfg.seg_max_sec:  # in range: passed through unchanged; else too short to reach seg_min
        return ([rec] if rec.duration_sec >= cfg.seg_min_sec else []), None
    if not rec.word_times:
        return [], None

    times = rec.word_times
    words = rec.words
    children: list[ManifestRecord] = []
    n = len(times)
    cur = 0
    while cur < n:
        start = times[cur][0]
        remaining = times[n - 1][1] - start
        if remaining <= cfg.seg_max_sec:
            # no cut needed; a too-short trailing remainder is dropped
            if remaining >= cfg.seg_min_sec:
                children.append(_slice_record(rec, words, cur, n, len(children)))
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
        children.append(_slice_record(rec, words, cur, best_j + 1, len(children)))
        cur = best_j + 1
    return children, None


# The filter order: a record stops at the first record filter that gives reasons,
# is then segmented, and each child stops at the first child filter that gives reasons.
_RECORD_FILTERS = (_blocklist, _language, _speech_and_silence)
_CHILD_FILTERS = (_wpm, _confidence)


def _first_reasons(filters: tuple, rec: ManifestRecord, cfg: PipelineConfig) -> list[FilterReason]:
    return next(filter(None, (check(rec, cfg) for check in filters)), [])


def _judge(
    rec: ManifestRecord | ManifestParseError, cfg: PipelineConfig
) -> tuple[list[ManifestRecord], list[FilterReason]]:
    """(kept segments, reasons) for one manifest entry; exactly one of the two is empty."""
    if isinstance(rec, ManifestParseError):
        return [], [FilterReason("parse-error", rec.error)]
    if reasons := _first_reasons(_RECORD_FILTERS, rec, cfg):
        return [], reasons
    children, seg_reason = segment(rec, cfg)
    if seg_reason is not None or not children:
        return [], [FilterReason(seg_reason or "segment-too-short", f"{rec.duration_sec:.4g}")]

    survivors, reasons = [], []
    for child in children:
        if child_reasons := _first_reasons(_CHILD_FILTERS, child, cfg):
            reasons += child_reasons
        else:
            survivors.append(child)
    return survivors, [] if survivors else reasons


def _judge_records(
    manifest: Iterable[ManifestRecord | ManifestParseError], cfg: PipelineConfig
) -> Iterator[tuple[list[ManifestRecord], FilterOutcome]]:
    """(kept segments, outcome) for each input record, in input order, one record at a time.

    A record survives if at least one of its segmentation children passes the
    filters of ``_CHILD_FILTERS``.
    """
    for rec in manifest:
        survivors, reasons = _judge(rec, cfg)
        yield survivors, FilterOutcome(rec.id, reasons)


def run_pipeline(
    manifest: Iterable[ManifestRecord | ManifestParseError], cfg: PipelineConfig
) -> tuple[list[ManifestRecord], list[FilterOutcome]]:
    """Apply all filters; return (kept records, one outcome per input record), in input order."""
    judged = list(_judge_records(manifest, cfg))
    return [child for survivors, _ in judged for child in survivors], [outcome for _, outcome in judged]


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

# (first byte, first byte past the shard or None for the end of the file)
Shard = tuple[int, int | None]

# A manifest below twice this size is one shard: there a second process won
# no time. curate --jobs 2 without this floor against --jobs 1 on a shared
# 2-vCPU host, median wall time over 20 alternating pairs: 14 kB +14 %,
# 0.5 MB +6 %, 1 MB 0 %, 2 MB -8 % and +1 % in two rounds (6 and 5 wins),
# 3 MB +1 % (4 wins); 4 MB -27 % (13 wins), 8 MB -29 % (10 of 10 pairs).
MIN_SHARD_BYTES = 2 << 20


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def plan_shards(path: str, jobs: int) -> list[Shard]:
    """The manifest at `path` cut into consecutive byte ranges of about equal size.

    There are at most `jobs` shards, at most ``usable_cpus()``, and each holds
    at least about MIN_SHARD_BYTES. A cut falls just after a newline byte, so
    it splits no line and no UTF-8 character. Where this process cannot fork
    safely, without ``os.fork`` or with other threads running, there is one
    shard.
    """
    size = os.path.getsize(path)
    n = min(jobs, usable_cpus(), size // MIN_SHARD_BYTES)
    if n < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [(0, None)]
    cuts: list[int] = []
    with open(path, "rb") as fh:
        for k in range(1, n):
            fh.seek(size * k // n)
            fh.readline()
            if (cuts[-1] if cuts else 0) < fh.tell() < size:
                cuts.append(fh.tell())
    return list(zip([0, *cuts], [*cuts, None]))


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
        if len(shards) > 1:
            import signal  # only a run of more than one shard loads it

            if signal.getsignal(signal.SIGTERM) is signal.SIG_DFL:
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
            import signal

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
_REQUIRED_FIELDS = frozenset(f.name for f in fields(ManifestRecord) if f.default is MISSING)


def _record_from_json(obj: object) -> ManifestRecord:
    """The record a manifest line's JSON value holds: the line's own checks here, each field's in ``ManifestRecord``."""
    if not isinstance(obj, dict):
        raise ValueError("a manifest line must be a JSON object")
    if unknown := obj.keys() - _FIELD_NAMES:
        raise ValueError(f"unknown manifest fields: {sorted(unknown)}")
    if not obj.keys() >= _REQUIRED_FIELDS:
        raise ValueError(f"missing manifest field {next(name for name in _FIELD_NAMES if name not in obj)!r}")
    return ManifestRecord(**obj)


def iter_manifest(path: str, shard: Shard = (0, None)) -> Iterator[ManifestRecord | ManifestParseError]:
    r"""Each entry of a JSON Lines manifest, read one line at a time; a malformed
    line becomes a ManifestParseError entry.

    A line ends at ``\n``, and one that ends in ``\r\n`` is read as if it
    ended in ``\n``: a bare ``\r`` ends no line. A parse error's id is
    ``line-N``, with N the line's number. A line holding a byte that is not
    UTF-8 is malformed, and its error names the first such byte. So is a line
    nested too deep for the JSON decoder, which raises RecursionError.
    ``shard`` (see ``plan_shards``) yields only the lines that start in its
    byte range; the lines before the range are counted, not decoded.
    """
    start, stop = shard
    with open(path, "rb") as fh:  # read from the first byte, never seeking, so a pipe works too
        end = 0
        for line_no, raw in enumerate(fh, start=1):
            at, end = end, end + len(raw)
            if at < start:
                continue
            if stop is not None and at >= stop:
                return
            try:
                if (line := raw.decode("utf-8")).isspace():  # a line read from a file is never empty
                    continue
                yield _record_from_json(json.loads(line[:-2] + "\n" if line.endswith("\r\n") else line))
            except UnicodeDecodeError as exc:  # only the decode above raises one
                bad = f"byte 0x{raw[exc.start]:02x} at offset {exc.start}"
                yield ManifestParseError(id=f"line-{line_no}", error=f"line is not valid UTF-8: {bad}")
            except (ValueError, RecursionError) as exc:
                yield ManifestParseError(id=f"line-{line_no}", error=str(exc))


def read_manifest(path: str) -> list[ManifestRecord | ManifestParseError]:
    """Every entry of a JSON Lines manifest (see ``iter_manifest``)."""
    return list(iter_manifest(path))


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

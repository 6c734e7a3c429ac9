import dataclasses
import io
import json
import math
import os
import threading

import pytest
from hypothesis import given, settings, strategies as st

from asrlab import curation
from asrlab.curation import (
    FilterOutcome,
    FilterReason,
    ManifestParseError,
    ManifestRecord,
    PipelineConfig,
    compute_wpm,
    filter_confidence,
    filter_language,
    filter_speech_and_silence,
    read_manifest,
    run_pipeline,
    segment,
    write_manifest,
    write_rejection_csv,
)


def record(
    rid="r",
    duration=10.0,
    n_words=20,
    conf=0.9,
    ratio=1.0,
    silence=0.0,
    detected=("en", 0.99),
    source="en",
    word_times="auto",
    **kw,
):
    """Record with evenly spread words; defaults pass every filter."""
    words = " ".join(f"w{i}" for i in range(n_words))
    if word_times == "auto":
        step = duration / max(n_words, 1)
        word_times = [(i * step, i * step + 0.8 * step) for i in range(n_words)]
    return ManifestRecord(
        id=rid,
        audio_path=f"{rid}.wav",
        duration_sec=duration,
        transcript=words,
        word_confidences=[conf] * n_words if conf is not None else None,
        word_times=word_times,
        source_lang=source,
        detected_lang=detected,
        speech_ratio=ratio,
        max_silence_sec=silence,
        **kw,
    )


# --- unit filters -------------------------------------------------------

def test_compute_wpm():
    assert compute_wpm(" ".join(["w"] * 120), 60.0) == 120.0
    assert compute_wpm(" ".join(["w"] * 25), 60.0) == 25.0
    assert compute_wpm("", 30.0) == 0.0
    with pytest.raises(ValueError):
        compute_wpm("a b", 0.0)


def test_filter_confidence():
    ok, mean = filter_confidence(record(conf=0.9), 0.8)
    assert ok and mean == pytest.approx(0.9)
    ok, mean = filter_confidence(record(conf=0.79), 0.8)
    assert not ok and mean == pytest.approx(0.79)
    ok, _ = filter_confidence(record(conf=1.0, n_words=1), 0.8)
    assert ok
    ok, mean = filter_confidence(record(conf=None), 0.8)
    assert not ok and mean is None


def test_filter_speech_and_silence():
    cfg = PipelineConfig()
    assert [r.filter_id for r in filter_speech_and_silence(record(ratio=0.69), cfg)] == ["speech-activity"]
    assert [r.filter_id for r in filter_speech_and_silence(record(silence=5.1), cfg)] == ["silence"]
    assert filter_speech_and_silence(record(ratio=1.0, silence=0.0), cfg) == []
    assert filter_speech_and_silence(record(ratio=0.70, silence=5.0), cfg) == []  # boundary passes
    missing = dataclasses.replace(record(), speech_ratio=None)
    assert [r.filter_id for r in filter_speech_and_silence(missing, cfg)] == ["missing-speech-stats"]


def test_filter_language():
    cfg = PipelineConfig()
    assert filter_language(record(detected=("en", 0.99), source="en"), cfg) == []
    assert [r.filter_id for r in filter_language(record(detected=("es", 0.9)), cfg)] == ["language"]
    assert [r.filter_id for r in filter_language(record(detected=("en", 0.3)), cfg)] == ["language-confidence"]
    assert [r.filter_id for r in filter_language(record(detected=("en", 0.9), source="de"), cfg)] == ["language"]
    assert [r.filter_id for r in filter_language(record(detected=None), cfg)] == ["missing-language"]
    assert filter_language(record(detected=("en", 0.9), source=None), cfg) == []


# --- segmentation ---------------------------------------------------------

def thirty_second_record(rid="r5", conf=0.9):
    # fifteen words per half, 1 s gap between word 14 (ends 14.5) and word 15 (starts 15.5)
    times = [(float(i), i + 0.5) for i in range(15)] + [(15.5 + i, 16.0 + i) for i in range(15)]
    return ManifestRecord(
        id=rid,
        audio_path=f"{rid}.wav",
        duration_sec=30.0,
        transcript=" ".join(f"w{i}" for i in range(30)),
        word_confidences=[conf] * 30,
        word_times=times,
        detected_lang=("en", 0.99),
        source_lang="en",
        speech_ratio=0.97,
        max_silence_sec=1.0,
    )


def test_segment_cuts_at_largest_gap():
    children, reason = segment(thirty_second_record(), PipelineConfig())
    assert reason is None
    assert [c.id for c in children] == ["r5#0", "r5#1"]
    assert [round(c.duration_sec, 2) for c in children] == [14.5, 14.5]
    # children words concatenate to the parent transcript
    assert " ".join(children[0].words + children[1].words) == thirty_second_record().transcript
    # sliced confidences/times stay aligned
    for c in children:
        assert len(c.word_confidences) == len(c.words) == len(c.word_times)


def test_segment_in_range_passes_through():
    rec = record(duration=10.0)
    children, reason = segment(rec, PipelineConfig())
    assert children == [rec] and reason is None


def test_segment_too_short_dropped():
    children, reason = segment(record(duration=6.0), PipelineConfig())
    assert children == [] and reason is None


def test_segment_missing_times():
    long = dataclasses.replace(record(duration=30.0), word_times=None)
    children, reason = segment(long, PipelineConfig())
    assert children == [long] and reason == "unsegmentable"
    short = dataclasses.replace(record(duration=10.0), word_times=None)
    children, reason = segment(short, PipelineConfig())
    assert children == [short] and reason is None


def test_segment_children_duration_in_range():
    cfg = PipelineConfig()
    # 60 s of continuous words: every child span must land in [7, 20]
    times = [(i * 0.5, i * 0.5 + 0.4) for i in range(120)]
    rec = ManifestRecord(
        id="long",
        audio_path="long.wav",
        duration_sec=60.0,
        transcript=" ".join(f"w{i}" for i in range(120)),
        word_times=times,
    )
    children, reason = segment(rec, cfg)
    assert reason is None and children
    for c in children:
        assert cfg.seg_min_sec <= c.duration_sec <= cfg.seg_max_sec
    # prefix-contiguous subsequence of the parent word list
    flat = [w for c in children for w in c.words]
    assert flat == rec.words[: len(flat)]


# --- golden manifest --------------------------------------------------

def golden_manifest():
    return [
        record("r0", duration=12.0, n_words=5),                      # wpm 25 -> fail
        record("r1", duration=10.0, conf=0.79),                      # confidence 0.79 -> fail
        record("r2", duration=10.0, n_words=20, conf=0.9),           # wpm 120 -> kept
        record("r3", ratio=0.69),                                    # speech activity -> fail
        record("r4", silence=5.1),                                   # continuous silence -> fail
        thirty_second_record("r5"),                                  # segmented into two kept children
        record("r6", detected=("es", 0.9), source=None),             # language mismatch -> fail
        record("r7", duration=10.0, n_words=20, conf=0.80, ratio=0.70),  # boundary values -> kept
        record("r8", duration=10.0, n_words=50),                     # wpm 300 -> fail
        record("r9", detected=("en", 0.3), source=None),             # low language confidence -> fail
    ]


EXPECTED_KEPT = ["r2", "r5#0", "r5#1", "r7"]
EXPECTED_REASONS = {
    "r0": ["wpm"],
    "r1": ["confidence"],
    "r3": ["speech-activity"],
    "r4": ["silence"],
    "r6": ["language"],
    "r8": ["wpm"],
    "r9": ["language-confidence"],
}


def test_golden_manifest_kept_set_and_reasons():
    kept, outcomes = run_pipeline(golden_manifest(), PipelineConfig())
    assert [r.id for r in kept] == EXPECTED_KEPT
    verdicts = {o.id: o for o in outcomes}
    assert len(outcomes) == 10
    for rid in ("r2", "r5", "r7"):
        assert verdicts[rid].verdict == "kept"
        assert verdicts[rid].reasons == []
    for rid, expected in EXPECTED_REASONS.items():
        assert verdicts[rid].verdict == "rejected"
        assert [r.filter_id for r in verdicts[rid].reasons] == expected


def test_five_records_per_spec_wpm_example():
    # 120 wpm passes the [50, 250] gate inclusively; 25 and 300 fail
    assert not 50 <= compute_wpm(" ".join(["w"] * 25), 60.0) <= 250
    assert 50 <= compute_wpm(" ".join(["w"] * 120), 60.0) <= 250
    assert not 50 <= compute_wpm(" ".join(["w"] * 300), 60.0) <= 250


# --- pipeline behavior -----------------------------------------------

def test_empty_manifest():
    kept, outcomes = run_pipeline([], PipelineConfig())
    assert kept == [] and outcomes == []


def test_all_passing_manifest():
    recs = [record(f"r{i}") for i in range(4)]
    kept, outcomes = run_pipeline(recs, PipelineConfig())
    assert [r.id for r in kept] == [f"r{i}" for i in range(4)]
    assert all(o.verdict == "kept" for o in outcomes)


def test_parse_error_row_continues():
    entries = [record("ok"), ManifestParseError(id="line-2", error="bad json")]
    kept, outcomes = run_pipeline(entries, PipelineConfig())
    assert [r.id for r in kept] == ["ok"]
    assert outcomes[1].verdict == "rejected"
    assert outcomes[1].reasons[0].filter_id == "parse-error"


def test_blocklist_stage():
    cfg = PipelineConfig(blocklist=[r"\bw3\b"])
    kept, outcomes = run_pipeline([record("r0")], cfg)
    assert kept == []
    assert outcomes[0].reasons[0].filter_id == "blocklist"


def test_pipeline_deterministic():
    a = run_pipeline(golden_manifest(), PipelineConfig())
    b = run_pipeline(golden_manifest(), PipelineConfig())
    assert [r.id for r in a[0]] == [r.id for r in b[0]]
    assert [(o.id, o.verdict, [(r.filter_id, r.measured) for r in o.reasons]) for o in a[1]] == [
        (o.id, o.verdict, [(r.filter_id, r.measured) for r in o.reasons]) for o in b[1]
    ]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(1.0, 40.0),      # duration
            st.integers(0, 60),        # word count
            st.floats(0.0, 1.0),       # confidence
            st.floats(0.0, 1.0),       # speech ratio
            st.floats(0.0, 8.0),       # max silence
            st.floats(0.0, 1.0),       # language confidence
        ),
        max_size=8,
    )
)
def test_conservation_and_monotonicity(rows):
    recs = []
    for i, (dur, n_words, conf, ratio, silence, lang_conf) in enumerate(rows):
        recs.append(
            record(
                f"g{i}",
                duration=dur,
                n_words=n_words,
                conf=round(conf, 3),
                ratio=ratio,
                silence=silence,
                detected=("en", lang_conf),
            )
        )
    cfg = PipelineConfig()
    kept, outcomes = run_pipeline(recs, cfg)
    # conservation: every input id exactly once in outcomes
    assert [o.id for o in outcomes] == [r.id for r in recs]
    # kept children trace back to kept parents
    kept_parents = {r.id.split("#")[0] for r in kept}
    assert kept_parents == {o.id for o in outcomes if o.verdict == "kept"}
    # monotonicity: tightening every threshold never grows the kept set
    tighter = PipelineConfig(
        wpm_min=60.0,
        wpm_max=200.0,
        conf_threshold=0.9,
        min_speech_ratio=0.8,
        max_silence_sec=4.0,
        lang_conf_min=0.7,
    )
    kept2, _ = run_pipeline(recs, tighter)
    assert {r.id for r in kept2} <= {r.id for r in kept}


# --- I/O --------------------------------------------------------------

def test_manifest_round_trip(tmp_path):
    path = tmp_path / "manifest.jsonl"
    recs = golden_manifest()
    write_manifest(recs, str(path))
    back = read_manifest(str(path))
    assert all(isinstance(r, ManifestRecord) for r in back)
    assert [r.id for r in back] == [r.id for r in recs]
    assert back[5].word_times == recs[5].word_times
    assert back[6].detected_lang == ("es", 0.9)


_text = st.text(st.characters(blacklist_categories=("Cs",)))  # any text JSON can carry in UTF-8
_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def manifest_records(draw):
    transcript = draw(_text)
    n_words = len(transcript.split())
    edges = sorted(draw(st.lists(st.floats(0.0, 1e4), min_size=2 * n_words, max_size=2 * n_words)))
    optional = {
        "word_confidences": st.lists(st.floats(0.0, 1.0), min_size=n_words, max_size=n_words),
        "word_times": st.just([(edges[2 * i], edges[2 * i + 1]) for i in range(n_words)]),
        "source_lang": _text,
        "detected_lang": st.tuples(_text, st.floats(0.0, 1.0)),
        "speech_ratio": _finite,
        "max_silence_sec": _finite,
    }
    return ManifestRecord(
        id=draw(_text),
        audio_path=draw(_text),
        duration_sec=draw(st.floats(min_value=1e-6, allow_infinity=False)),
        transcript=transcript,
        **{name: draw(st.none() | values) for name, values in optional.items()},
    )


@settings(max_examples=200, deadline=None)
@given(st.lists(manifest_records(), max_size=4))
def test_manifest_round_trip_every_field(tmp_path_factory, recs):
    path = tmp_path_factory.mktemp("rt") / "m.jsonl"
    write_manifest(recs, str(path))
    first = path.read_bytes()
    # keys in field order, None fields left out
    assert [list(json.loads(line)) for line in first.decode("utf-8").split("\n")[:-1]] == [
        [f.name for f in dataclasses.fields(r) if getattr(r, f.name) is not None] for r in recs
    ]
    back = read_manifest(str(path))
    assert back == recs
    write_manifest(back, str(path))
    assert path.read_bytes() == first


def test_read_manifest_parse_errors(tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text(
        json.dumps({"id": "ok", "audio_path": "a.wav", "duration_sec": 3.0, "transcript": "hi there"})
        + "\nnot json at all\n"
        + json.dumps({"id": "bad", "audio_path": "b.wav", "duration_sec": -1, "transcript": "x"})
        + "\n",
        encoding="utf-8",
    )
    entries = read_manifest(str(path))
    assert isinstance(entries[0], ManifestRecord)
    assert isinstance(entries[1], ManifestParseError) and entries[1].id == "line-2"
    assert isinstance(entries[2], ManifestParseError)  # negative duration


def test_read_manifest_names_an_undecodable_byte(tmp_path):
    # a raw byte that is not UTF-8 (its offset counts the two bytes of "é") versus a \ud800 JSON escape
    good = b'{"id": "r", "audio_path": "\xc3\xa9.wav", "duration_sec": 3.0, "transcript": "hi there"}'
    path = tmp_path / "m.jsonl"
    path.write_bytes(b"\n".join([good, good.replace(b"hi there", b"hi \xff there"), good.replace(b"hi", b"\\ud800hi")]))
    entries = read_manifest(str(path))
    assert entries[0].audio_path == "é.wav"
    assert entries[1] == ManifestParseError("line-2", "line is not valid UTF-8: byte 0xff at offset 75")
    assert entries[2] == ManifestParseError("line-3", "a text field holds a lone surrogate, which UTF-8 cannot encode")


def test_read_manifest_numeric_fields(tmp_path):
    # numeric strings are cast like duration_sec; anything float() or the record
    # rejects becomes a parse-error row instead of failing the whole run
    base = {"audio_path": "a.wav", "transcript": "hi there"}
    lines = [
        {"id": "strings", "duration_sec": 3.0, "speech_ratio": "0.9", "max_silence_sec": "1.5"},
        {"id": "bad-ratio", "duration_sec": 3.0, "speech_ratio": "high"},
        {"id": "bad-silence", "duration_sec": 3.0, "max_silence_sec": [1]},
        {"id": "nan", "duration_sec": float("nan")},
        {"id": "inf", "duration_sec": float("inf")},
        {"id": "nan-ratio", "duration_sec": 3.0, "speech_ratio": float("nan")},  # a JSON NaN literal
        {"id": "nan-silence", "duration_sec": 3.0, "max_silence_sec": float("nan")},
        {"id": "nan-lang-conf", "duration_sec": 3.0, "detected_lang": ["en", float("nan")]},
        {"id": "big-lang-conf", "duration_sec": 3.0, "detected_lang": ["en", 7.0]},
    ]
    path = tmp_path / "m.jsonl"
    path.write_text("".join(json.dumps({**base, **line}) + "\n" for line in lines), encoding="utf-8")
    entries = read_manifest(str(path))
    assert (entries[0].speech_ratio, entries[0].max_silence_sec) == (0.9, 1.5)
    assert all(isinstance(e, ManifestParseError) for e in entries[1:])
    _, outcomes = run_pipeline(entries, PipelineConfig())
    assert outcomes[0].reasons[0].filter_id != "parse-error"
    assert [o.reasons[0].filter_id for o in outcomes[1:]] == ["parse-error"] * 8


def test_rejection_csv(tmp_path):
    path = tmp_path / "rejects.csv"
    _, outcomes = run_pipeline(golden_manifest(), PipelineConfig())
    write_rejection_csv(outcomes, str(path))
    text = path.read_text(encoding="utf-8")
    assert text.startswith("id,verdict,reasons,measured_values\n")
    assert "r0,rejected,wpm,25" in text


def test_record_validation():
    for duration in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            ManifestRecord(id="x", audio_path="a", duration_sec=duration, transcript="hi")
    with pytest.raises(ValueError):
        ManifestRecord(id="x", audio_path="a", duration_sec=1.0, transcript="hi there", word_confidences=[0.5])
    with pytest.raises(ValueError):
        ManifestRecord(id="x", audio_path="a", duration_sec=1.0, transcript="hi", word_confidences=[1.5])
    with pytest.raises(ValueError, match="speech_ratio"):
        record(ratio=float("nan"))
    with pytest.raises(ValueError, match="max_silence_sec"):
        record(silence=float("nan"))
    for lang_conf in (float("nan"), float("inf"), -0.1, 7.0):
        with pytest.raises(ValueError, match="detected_lang"):
            record(detected=("en", lang_conf))
    good = record()
    for name, value in (
        ("id", "r\ud800"),
        ("audio_path", "r\udfff.wav"),
        ("transcript", "\udc00" + good.transcript),
        ("source_lang", "e\ud800n"),
        ("detected_lang", ("\ud800", 0.99)),
    ):
        with pytest.raises(ValueError, match="lone surrogate"):
            dataclasses.replace(good, **{name: value})


@pytest.mark.parametrize(
    "times",
    [
        [(5.0, 5.3), (0.2, 0.5)],
        [(0.2, 0.6), (0.5, 0.9)],
        [(0.2, 0.6), (0.9, 0.7)],
        [(0.2, float("nan")), (1.0, 1.2)],
        [(-math.inf, 0.4), (1.0, 1.2)],
        [(0.2, 0.4), (5.5, math.inf)],
    ],
    ids=["unordered", "overlapping", "inverted", "nan", "infinite-start", "infinite-end"],
)
def test_record_rejects_unordered_word_times(tmp_path, times):
    with pytest.raises(ValueError, match="word_times"):
        record(duration=6.0, n_words=2, word_times=times)
    path = tmp_path / "m.jsonl"
    line = {"id": "r", "audio_path": "a.wav", "duration_sec": 6.0, "transcript": "a b", "word_times": times}
    path.write_text(json.dumps(line) + "\n", encoding="utf-8")
    assert isinstance(read_manifest(str(path))[0], ManifestParseError)


def test_record_accepts_touching_word_times():
    assert record(duration=2.0, n_words=2, word_times=[(0.0, 1.0), (1.0, 1.0)]).word_times


def test_pipeline_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(wpm_min=300, wpm_max=200)
    with pytest.raises(ValueError):
        PipelineConfig(seg_min_sec=20, seg_max_sec=7)
    with pytest.raises(ValueError):
        PipelineConfig(conf_threshold=1.5)
    with pytest.raises(ValueError, match=r"'\('"):
        PipelineConfig(blocklist=["fine", "("])


def test_verdict_follows_reasons():
    assert "verdict" not in {f.name for f in dataclasses.fields(FilterOutcome)}
    assert FilterOutcome("a").verdict == "kept"
    assert FilterOutcome("a", [FilterReason("wpm", "300")]).verdict == "rejected"


# --- shards --------------------------------------------------------------

def golden_copies(path, n_copies: int) -> None:
    """`n_copies` of the golden manifest, ids made unique by a -k suffix, as one manifest file."""
    write_manifest((dataclasses.replace(rec, id=f"{rec.id}-{k}") for k in range(n_copies) for rec in golden_manifest()),
                   str(path))


def text_lines(data: bytes) -> list[str]:
    """The lines of `data` as text mode reads them."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="latin-1").readlines()


@settings(max_examples=200, deadline=None)
@given(data=st.lists(st.sampled_from([b"a", b"bc", b"\n", b"\r", b"\r\n"]), max_size=60).map(b"".join),
       jobs=st.integers(1, 8), block=st.integers(1, 5))
def test_plan_shards_cuts_after_a_newline_and_numbers_lines_as_text_mode(tmp_path_factory, data, jobs, block):
    path = tmp_path_factory.mktemp("shards") / "m.jsonl"
    path.write_bytes(data)
    with pytest.MonkeyPatch.context() as mp:
        # blocks of a few bytes split many \r\n pairs between two blocks
        mp.setattr(curation, "MIN_SHARD_BYTES", 1)
        mp.setattr(curation, "_COUNT_BLOCK", block)
        mp.setattr(curation, "usable_cpus", lambda: 8)
        shards = curation.plan_shards(str(path), jobs)
    starts = [start for start, _, _ in shards]
    assert starts[0] == 0 and starts == sorted(set(starts)) and len(shards) <= max(jobs, 1)
    assert all(data[start - 1:start] == b"\n" and start < len(data) for start in starts[1:])
    ends = [*starts[1:], len(data)]
    for (start, n_lines, first_line), end in zip(shards, ends):
        assert first_line == len(text_lines(data[:start])) + 1
        assert n_lines == (None if end == len(data) else len(text_lines(data[start:end])))
    assert [line for start, end in zip(starts, ends) for line in text_lines(data[start:end])] == text_lines(data)


def test_plan_shards_count(tmp_path, monkeypatch):
    path = tmp_path / "m.jsonl"
    golden_copies(path, 3)  # 30 lines, 22 kB
    # below twice the minimum shard size a manifest is one shard, whatever the jobs
    assert curation.plan_shards(str(path), 10000) == [(0, None, 1)]
    monkeypatch.setattr(curation, "MIN_SHARD_BYTES", path.stat().st_size // 2)
    assert len(curation.plan_shards(str(path), 10000)) == min(2, curation.usable_cpus())
    monkeypatch.setattr(curation, "MIN_SHARD_BYTES", 1)
    assert len(curation.plan_shards(str(path), 10000)) <= curation.usable_cpus()
    monkeypatch.setattr(curation, "usable_cpus", lambda: 3)
    assert len(curation.plan_shards(str(path), 10000)) == 3
    assert len(curation.plan_shards(str(path), 2)) == 2
    assert curation.plan_shards(str(path), 1) == [(0, None, 1)]


def test_plan_shards_one_shard_while_other_threads_run(tmp_path, monkeypatch):
    # a fork copies only the calling thread, so a lock another thread holds would stay held in the child
    path = tmp_path / "m.jsonl"
    golden_copies(path, 3)
    monkeypatch.setattr(curation, "MIN_SHARD_BYTES", 1)
    monkeypatch.setattr(curation, "usable_cpus", lambda: 3)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert curation.plan_shards(str(path), 3) == [(0, None, 1)]
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert len(curation.plan_shards(str(path), 3)) == 3


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="FIFOs are POSIX")
def test_read_manifest_from_a_pipe(tmp_path):
    data = "".join(json.dumps(dataclasses.asdict(rec)) + "\n" for rec in golden_manifest()[:3]) + "not json\n"
    regular, fifo = tmp_path / "m.jsonl", tmp_path / "m.fifo"
    regular.write_text(data, encoding="utf-8")
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(data,), kwargs={"encoding": "utf-8"})
    writer.start()
    try:
        entries = read_manifest(str(fifo))  # a pipe cannot seek, so the whole-file shard must not
    finally:
        writer.join(timeout=10)
    assert entries == read_manifest(str(regular))
    assert len(entries) == 4 and isinstance(entries[-1], ManifestParseError)


def test_usable_cpus_counts_the_affinity_mask(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5})
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert curation.usable_cpus() == 2
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert curation.usable_cpus() == 1

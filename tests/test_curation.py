import dataclasses
import io
import json
import math
import os
import re
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
    _confidence,
    _language,
    _speech_and_silence,
    _wpm,
    curate_manifest,
    read_manifest,
    run_pipeline,
    segment,
    write_manifest,
    write_rejection_csv,
)
from tests import curation_oracles


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

def ids(reasons):
    return [r.filter_id for r in reasons]


def test_compute_wpm():
    cfg = PipelineConfig()
    assert _wpm(record(duration=60.0, n_words=120), cfg) == []
    assert _wpm(record(duration=60.0, n_words=25), cfg) == [FilterReason("wpm", "25")]
    assert _wpm(record(duration=30.0, n_words=0), cfg) == [FilterReason("wpm", "0")]
    assert _wpm(record(duration=60.0, n_words=50), cfg) == []  # both bounds pass
    assert _wpm(record(duration=60.0, n_words=250), cfg) == []


def test_filter_confidence():
    cfg = PipelineConfig(conf_threshold=0.8)
    assert _confidence(record(conf=0.9), cfg) == []
    assert _confidence(record(conf=0.79), cfg) == [FilterReason("confidence", "0.79")]
    assert _confidence(record(conf=1.0, n_words=1), cfg) == []
    assert _confidence(record(conf=0.8, n_words=1), cfg) == []  # the threshold passes
    assert _confidence(record(conf=None), cfg) == [FilterReason("missing-confidence", "missing")]


def test_filter_speech_and_silence():
    cfg = PipelineConfig()
    assert ids(_speech_and_silence(record(ratio=0.69), cfg)) == ["speech-activity"]
    assert ids(_speech_and_silence(record(silence=5.1), cfg)) == ["silence"]
    assert _speech_and_silence(record(ratio=1.0, silence=0.0), cfg) == []
    assert _speech_and_silence(record(ratio=0.70, silence=5.0), cfg) == []  # boundary passes
    missing = dataclasses.replace(record(), speech_ratio=None)
    assert ids(_speech_and_silence(missing, cfg)) == ["missing-speech-stats"]


def test_filter_language():
    cfg = PipelineConfig()
    assert _language(record(detected=("en", 0.99), source="en"), cfg) == []
    assert ids(_language(record(detected=("es", 0.9)), cfg)) == ["language"]
    assert ids(_language(record(detected=("en", 0.3)), cfg)) == ["language-confidence"]
    assert ids(_language(record(detected=("en", 0.9), source="de"), cfg)) == ["language"]
    assert ids(_language(record(detected=None), cfg)) == ["missing-language"]
    assert _language(record(detected=("en", 0.9), source=None), cfg) == []


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
    cfg = PipelineConfig()
    assert [ids(_wpm(record(duration=60.0, n_words=n), cfg)) for n in (25, 120, 300)] == [["wpm"], [], ["wpm"]]


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


_DYADIC = (0.0, 0.25, 0.5, 0.75, 1.0)  # exact in binary, so a mean or a ratio can land on a threshold


@st.composite
def pipeline_configs(draw):
    wpm_min = draw(st.sampled_from([0.0, 30.0, 60.0, 120.0]))
    seg_min = draw(st.sampled_from([0.0, 1.0, 2.0, 7.0]))  # 0 lets a child of zero span fail _slice_record
    return PipelineConfig(
        wpm_min=wpm_min,
        wpm_max=wpm_min + draw(st.sampled_from([30.0, 60.0, 240.0])),
        conf_threshold=draw(st.sampled_from(_DYADIC)),
        min_speech_ratio=draw(st.sampled_from(_DYADIC)),
        max_silence_sec=draw(st.sampled_from([0.0, 1.0, 5.0])),
        seg_min_sec=seg_min,
        seg_max_sec=seg_min + draw(st.sampled_from([0.5, 4.0, 13.0])),
        lang_conf_min=draw(st.sampled_from(_DYADIC)),
        blocklist=draw(st.lists(st.sampled_from([r"\bw3\b", "zz", r"^c c\b"]), max_size=2)),
    )


_OPTIONAL = ("word_confidences", "word_times", "source_lang", "detected_lang", "speech_ratio", "max_silence_sec")


@st.composite
def judged_entries(draw, cfg):
    """A parse error, or a record whose values often sit exactly on one of `cfg`'s thresholds."""
    rid = f"r{draw(st.integers(0, 9))}"
    if draw(st.integers(0, 9)) == 0:
        return ManifestParseError(rid, "unknown manifest fields: ['x']")
    n = draw(st.integers(0, 24))
    times, t = [], 0.0
    for _ in range(n):
        start = t + draw(st.sampled_from([0.0, 0.25, 1.0, 3.0]))  # the gap before the word
        t = start + draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
        times.append((start, t))
    durations = [d for d in (t + 0.5, cfg.seg_min_sec, cfg.seg_max_sec, 60.0) if d > 0]
    values = {
        "word_confidences": st.just([cfg.conf_threshold] * n)
        | st.lists(st.sampled_from(_DYADIC) | st.floats(0.0, 1.0), min_size=n, max_size=n),
        "word_times": st.just(times),
        "source_lang": st.sampled_from(["en", "en", "de"]),
        "detected_lang": st.tuples(
            st.sampled_from(["en", "en", "es"]), st.sampled_from([cfg.lang_conf_min, 1.0]) | st.floats(0.0, 1.0)
        ),
        "speech_ratio": st.sampled_from([cfg.min_speech_ratio, 1.0]) | st.floats(0.0, 1.0),
        "max_silence_sec": st.sampled_from([cfg.max_silence_sec, 0.0]) | st.floats(0.0, 10.0),
    }
    words = draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=n, max_size=n))
    if n and draw(st.booleans()):  # a blocked word, which some blocklists hit
        words[draw(st.integers(0, n - 1))] = draw(st.sampled_from(["w3", "zz"]))
    missing = draw(st.just(()) | st.sets(st.sampled_from(_OPTIONAL)))
    return ManifestRecord(
        id=rid,
        audio_path=f"{rid}.wav",
        duration_sec=draw(st.sampled_from(durations) | st.floats(0.01, 60.0)),
        transcript=" ".join(words),
        **{name: None if name in missing else draw(values[name]) for name in _OPTIONAL},
    )


def judged(judge, rec, cfg):
    """The kept segments' manifest lines and the reasons that `judge` gives, or the error it raises."""
    try:
        survivors, reasons = judge(rec, cfg)
    except ValueError as exc:
        return repr(exc)
    return [curation._manifest_line(child) for child in survivors], reasons


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_filter_chain_matches_the_old_judge(data):
    cfg = data.draw(pipeline_configs())
    blockers = [re.compile(p) for p in cfg.blocklist]
    for rec in data.draw(st.lists(judged_entries(cfg), min_size=1, max_size=4)):
        want = judged(lambda r, c: curation_oracles._judge(r, c, blockers), rec, cfg)
        assert judged(curation._judge, rec, cfg) == want


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


def test_read_manifest_text_fields_must_be_strings(tmp_path):
    # one parse-error row per case, naming the field; before, str() read null as 'None'
    base = {"id": "r", "audio_path": "a.wav", "duration_sec": 3.0, "transcript": "hi there"}
    cases = [
        ({"transcript": None}, "transcript must be a string, got NoneType"),
        ({"transcript": ["hello"]}, "transcript must be a string, got list"),
        ({"transcript": 7}, "transcript must be a string, got int"),
        ({"id": None}, "id must be a string, got NoneType"),
        ({"id": 12}, "id must be a string, got int"),
        ({"audio_path": {"f": 1}}, "audio_path must be a string, got dict"),
        ({"audio_path": True}, "audio_path must be a string, got bool"),
        ({"source_lang": 7}, "source_lang must be a string or None, got int"),
        ({"source_lang": ["en"]}, "source_lang must be a string or None, got list"),
        ({"detected_lang": [7, 0.9]}, "detected_lang's tag must be a string, got int"),
        ({"detected_lang": [None, 0.9]}, "detected_lang's tag must be a string, got NoneType"),
    ]
    path = tmp_path / "m.jsonl"
    lines = [base, {**base, "source_lang": None}, *({**base, **change} for change, _ in cases)]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    entries = read_manifest(str(path))
    assert isinstance(entries[0], ManifestRecord) and isinstance(entries[1], ManifestRecord)
    assert entries[2:] == [ManifestParseError(f"line-{i}", error) for i, (_, error) in enumerate(cases, start=3)]
    _, outcomes = run_pipeline(entries, PipelineConfig())
    assert [o.reasons[0].filter_id for o in outcomes[2:]] == ["parse-error"] * len(cases)
    with pytest.raises(ValueError, match="transcript must be a string"):
        ManifestRecord("r", "a.wav", 3.0, None)


# --- one schema, against the parser it replaced ------------------------------

def _json_number(x: float):
    """A strategy for `x` as a manifest may write it: a JSON float, a numeric string, or an int where it is whole."""
    forms = [st.just(x), st.just(repr(x))]
    if x.is_integer():
        forms.append(st.just(int(x)))
    return st.one_of(forms)


@st.composite
def manifest_objects(draw):
    """A valid manifest line's JSON object, its numbers in every form the old parser converted too."""
    transcript = draw(_text)
    n_words = len(transcript.split())
    edges = sorted(draw(st.lists(st.floats(0.0, 1e4) | st.integers(0, 10_000).map(float),
                                 min_size=2 * n_words, max_size=2 * n_words)))
    times = [[draw(_json_number(x)) for x in edges[2 * i : 2 * i + 2]] for i in range(n_words)]
    # the old parser took a confidence as it came: a JSON float or int, never a string
    confidence = st.floats(0.0, 1.0) | st.sampled_from([0, 1])
    optional = {
        "word_confidences": st.lists(confidence, min_size=n_words, max_size=n_words),
        "word_times": st.just(times),
        "source_lang": _text,
        "detected_lang": st.tuples(_text, st.floats(0.0, 1.0).flatmap(_json_number)).map(list),
        "speech_ratio": _finite.flatmap(_json_number),
        "max_silence_sec": _finite.flatmap(_json_number),
    }
    obj = {
        "id": draw(_text),
        "audio_path": draw(_text),
        "duration_sec": draw(st.floats(min_value=1e-6, allow_infinity=False).flatmap(_json_number)),
        "transcript": transcript,
    }
    obj.update({name: draw(values) for name, values in optional.items() if draw(st.booleans())})
    return obj


@settings(max_examples=300, deadline=None)
@given(st.lists(manifest_objects(), min_size=1, max_size=4))
def test_parser_matches_the_old_parser_on_valid_records(tmp_path_factory, objs):
    path = tmp_path_factory.mktemp("diff") / "m.jsonl"
    path.write_text("".join(json.dumps(obj, ensure_ascii=False) + "\n" for obj in objs), encoding="utf-8")
    for obj, rec in zip(objs, read_manifest(str(path)), strict=True):
        old = curation_oracles._record_from_json(json.loads(json.dumps(obj)))
        assert isinstance(rec, ManifestRecord) and vars(rec) == vars(old)
        assert rec == ManifestRecord(**json.loads(json.dumps(obj)))
        if all(type(c) is float for c in old.word_confidences or []):  # the old parser kept an int as it was
            assert curation._manifest_line(rec) == curation._manifest_line(old)
        else:
            assert rec.word_confidences == [float(c) for c in old.word_confidences]


HOSTILE_BASE = {
    "id": "r", "audio_path": "r.wav", "duration_sec": 3.0, "transcript": "hi there",
    "word_confidences": [0.9, 0.95], "word_times": [[0.1, 0.4], [0.5, 0.9]], "source_lang": "en",
    "detected_lang": ["en", 0.99], "speech_ratio": 0.9, "max_silence_sec": 0.5,
}
_NAN, _INF = float("nan"), float("inf")
# (field, hostile value): a bool, a non-numeric string, a nested list, a pair of the
# wrong length, null for a required field, a NaN or Infinity literal, {} for a list
HOSTILE_FIELDS = [
    *((name, value) for name in ("id", "audio_path", "transcript") for value in (True, ["x"], None, {}, _NAN)),
    *(("source_lang", value) for value in (True, ["en"], {}, _NAN)),
    *((name, value)
      for name in ("duration_sec", "speech_ratio", "max_silence_sec")
      for value in (True, False, "high", [3.0], [[3.0]], {}, _NAN, _INF, -_INF)),
    ("duration_sec", None),
    *(("word_confidences", value) for value in (
        {}, True, "0.9 0.95", [0.9], [True, 0.95], ["high", 0.95], [[0.9], 0.95], [{}, 0.95],
        [_NAN, 0.95], [_INF, 0.95], [0.9, 1.5],
    )),
    *(("word_times", value) for value in (
        {}, True, "ab", [[0.1, 0.4]], [0.1, 0.4], [[True, 0.4], [0.5, 0.9]], [[0.1, False], [0.5, 0.9]],
        [["a", 0.4], [0.5, 0.9]], [[[0.1], 0.4], [0.5, 0.9]], [[0.1, 0.2, 0.4], [0.5, 0.9]],
        [[0.1], [0.5, 0.9]], [{}, [0.5, 0.9]], ["ab", [0.5, 0.9]], [[_NAN, 0.4], [0.5, 0.9]],
        [[0.1, 0.4], [0.5, _INF]], [[-_INF, 0.4], [0.5, 0.9]], [[0.5, 0.9], [0.1, 0.4]],
    )),
    *(("detected_lang", value) for value in (
        True, "en", {}, ["en"], ["en", 0.9, "x"], [["en", 0.9]], ["en", True], ["en", "high"],
        ["en", [0.9]], ["en", {}], ["en", _NAN], ["en", _INF], [True, 0.9], [{}, 0.9], [None, 0.9],
    )),
]


def test_hostile_field_values_are_one_parse_error_naming_the_field(tmp_path):
    # the parser and a library call give the same refusal; none of these ends the run
    objs = [{**HOSTILE_BASE, name: value} for name, value in HOSTILE_FIELDS]
    assert {name for name, _ in HOSTILE_FIELDS} == set(HOSTILE_BASE)
    path = tmp_path / "m.jsonl"
    path.write_text("".join(json.dumps(obj) + "\n" for obj in [HOSTILE_BASE, *objs]), encoding="utf-8")
    entries = read_manifest(str(path))
    assert isinstance(entries[0], ManifestRecord)
    _, outcomes = run_pipeline(entries, PipelineConfig())
    assert len(outcomes) == len(objs) + 1
    for (name, value), entry, outcome in zip(HOSTILE_FIELDS, entries[1:], outcomes[1:], strict=True):
        assert isinstance(entry, ManifestParseError), (name, value)
        assert [r.filter_id for r in outcome.reasons] == ["parse-error"]
        assert name in entry.error, (name, value, entry.error)
        with pytest.raises(ValueError) as exc:
            ManifestRecord(**{**HOSTILE_BASE, name: value})
        assert str(exc.value) == entry.error


def test_read_manifest_line_checks(tmp_path):
    missing = {k: v for k, v in HOSTILE_BASE.items() if k != "audio_path"}
    lines = [json.dumps(missing), json.dumps({**HOSTILE_BASE, "speaker": "x"}), "[1, 2]", "7"]
    path = tmp_path / "m.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert [e.error for e in read_manifest(str(path))] == [
        "missing manifest field 'audio_path'",
        "unknown manifest fields: ['speaker']",
        "a manifest line must be a JSON object",
        "a manifest line must be a JSON object",
    ]


def test_numbers_are_floats_after_construction():
    rec = ManifestRecord(
        "r", "a.wav", 3, "hi there", word_confidences=(1, 0), word_times=[[0, 1], ("1", 2)],
        detected_lang=["en", 1], speech_ratio="0.5", max_silence_sec=10,
    )
    assert rec == ManifestRecord(
        "r", "a.wav", 3.0, "hi there", word_confidences=[1.0, 0.0], word_times=[(0.0, 1.0), (1.0, 2.0)],
        detected_lang=("en", 1.0), speech_ratio=0.5, max_silence_sec=10.0,
    )
    assert all(type(x) is float for x in [rec.duration_sec, *rec.word_confidences, *rec.word_times[1], rec.detected_lang[1]])
    # an int beyond a float's range is refused as 1e400 is, not an OverflowError that ends the run
    for value in (10**400, -(10**400), 1e400, float("nan")):
        with pytest.raises(ValueError, match="speech_ratio must be a finite number"):
            ManifestRecord("r", "a.wav", 3.0, "hi", speech_ratio=value)


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
    with pytest.raises(ValueError, match=r"^conf_threshold must lie in \[0, 1\], got 1.5$"):
        PipelineConfig(conf_threshold=1.5)
    with pytest.raises(ValueError, match=r"'\('"):
        PipelineConfig(blocklist=["fine", "("])
    # the blocklist is compiled once, into an attribute that is not a field
    assert [p.pattern for p in PipelineConfig(blocklist=["a", r"\bb"]).blockers] == ["a", r"\bb"]
    assert "blockers" not in {f.name for f in dataclasses.fields(PipelineConfig)}


@pytest.mark.parametrize("jobs", [0, -5])
def test_curate_manifest_refuses_jobs_below_one_before_any_shard(tmp_path, jobs):
    path = tmp_path / "m.jsonl"
    write_manifest(golden_manifest()[:1], str(path))
    kept, report = io.StringIO(), io.StringIO()
    with pytest.raises(ValueError, match=rf"^jobs must lie in \[1, inf\], got {jobs}$"):
        curate_manifest(str(path), PipelineConfig(), kept, report, jobs)
    assert kept.getvalue() == report.getvalue() == ""


def test_verdict_follows_reasons():
    assert "verdict" not in {f.name for f in dataclasses.fields(FilterOutcome)}
    assert FilterOutcome("a").verdict == "kept"
    assert FilterOutcome("a", [FilterReason("wpm", "300")]).verdict == "rejected"


# --- shards --------------------------------------------------------------

def golden_copies(path, n_copies: int) -> None:
    """`n_copies` of the golden manifest, ids made unique by a -k suffix, as one manifest file."""
    write_manifest((dataclasses.replace(rec, id=f"{rec.id}-{k}") for k in range(n_copies) for rec in golden_manifest()),
                   str(path))


SHARD_RECORD = json.dumps(HOSTILE_BASE).encode()


def expected_entries(data: bytes) -> list[str]:
    """Oracle of the line rule: for each line that is not blank, the record's id, or ``line-N`` for a parse error.

    A line ends at \\n, so N is 1 plus the number of \\n before the line; a
    \\r, at either end of a line or alone, is JSON whitespace.
    """
    ids = []
    for n, line in enumerate(data.split(b"\n"), start=1):
        if line.strip(b"\r"):
            ids.append(HOSTILE_BASE["id"] if line.strip(b"\r") == SHARD_RECORD else f"line-{n}")
    return ids


@settings(max_examples=200, deadline=None)
@given(data=st.lists(st.sampled_from([b"a", b"bc", b"\n", b"\r", b"\r\n", b"\xff", SHARD_RECORD, b"[]"]),
                     max_size=60).map(b"".join),
       jobs=st.integers(1, 8))
def test_plan_shards_cuts_after_a_newline_and_shards_read_as_the_whole_file(tmp_path_factory, data, jobs):
    path = tmp_path_factory.mktemp("shards") / "m.jsonl"
    path.write_bytes(data)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(curation, "MIN_SHARD_BYTES", 1)
        mp.setattr(curation, "usable_cpus", lambda: 8)
        shards = curation._plan_shards(str(path), jobs)
    starts = [start for start, _ in shards]
    assert starts[0] == 0 and starts == sorted(set(starts)) and len(shards) <= max(jobs, 1)
    assert [stop for _, stop in shards] == [*starts[1:], None]
    assert all(data[start - 1:start] == b"\n" and start < len(data) for start in starts[1:])
    whole = read_manifest(str(path))
    assert [entry for shard in shards for entry in curation.iter_manifest(str(path), shard)] == whole
    assert [entry.id for entry in whole] == expected_entries(data)


def test_crlf_manifest_reads_as_its_lf_twin(tmp_path):
    lines = [json.dumps(dataclasses.asdict(rec)) for rec in golden_manifest()[:3]] + [
        '{"id": "half a rec',  # truncated: each error names a position that a \r before the \n would move
        '{"id": "x", "audio_path": ',
        '["not", "an", "object"]',
        "",
        "   ",
        '{"id": "x", "audio_path": "x.wav", "duration_sec": 1.0, "transcript": "a", "bad": 1}',
    ]
    lf, crlf = tmp_path / "lf.jsonl", tmp_path / "crlf.jsonl"
    lf.write_bytes("\n".join(lines).encode() + b"\n\xff\n")
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    entries = read_manifest(str(lf))
    assert read_manifest(str(crlf)) == entries
    errors = [entry.error for entry in entries if isinstance(entry, ManifestParseError)]
    assert len(entries) == 8 and len(errors) == 5
    assert errors[0] == "Invalid control character at: line 1 column 19 (char 18)"
    assert errors[1] == "Expecting value: line 2 column 1 (char 27)"
    assert errors[4] == "line is not valid UTF-8: byte 0xff at offset 0"


def test_bare_carriage_return_ends_no_line(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_bytes(SHARD_RECORD + b"\r" + SHARD_RECORD + b"\n" + SHARD_RECORD + b"\r")
    entries = read_manifest(str(path))
    assert [entry.id for entry in entries] == ["line-1", HOSTILE_BASE["id"]]
    assert entries[0].error.startswith("Extra data")


def test_plan_shards_count(tmp_path, monkeypatch):
    path = tmp_path / "m.jsonl"
    golden_copies(path, 3)  # 30 lines, 22 kB
    # below twice the minimum shard size a manifest is one shard, whatever the jobs
    assert curation._plan_shards(str(path), 10000) == [(0, None)]
    monkeypatch.setattr(curation, "MIN_SHARD_BYTES", path.stat().st_size // 2)
    assert len(curation._plan_shards(str(path), 10000)) == min(2, curation.usable_cpus())
    monkeypatch.setattr(curation, "MIN_SHARD_BYTES", 1)
    assert len(curation._plan_shards(str(path), 10000)) <= curation.usable_cpus()
    monkeypatch.setattr(curation, "usable_cpus", lambda: 3)
    assert len(curation._plan_shards(str(path), 10000)) == 3
    assert len(curation._plan_shards(str(path), 2)) == 2
    assert curation._plan_shards(str(path), 1) == [(0, None)]


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
        assert curation._plan_shards(str(path), 3) == [(0, None)]
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert len(curation._plan_shards(str(path), 3)) == 3


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

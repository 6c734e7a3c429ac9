import os
import subprocess
import sys
import tempfile
import wave

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from asrlab.audio import AudioBuffer
from asrlab.stitch import (
    _VAD_BLOCK_SAMPLES,
    VAD_FLOOR_DBFS,
    VAD_FRAME_MS,
    PartialTranscript,
    SpeechSegment,
    energy_vad,
    plan_chunks,
    remove_silences,
    speech_stats,
    stitch,
    voiced_ranges,
    write_voiced_chunks,
)
from tests import stitch_oracles
from tests.conftest import tone


# --- VAD ---------------------------------------------------------------

def test_vad_pure_silence():
    assert energy_vad(AudioBuffer(samples=np.zeros(16000))) == []


def test_vad_pure_tone_is_one_segment():
    buf = AudioBuffer(samples=tone(2.0))
    segments = energy_vad(buf)
    assert len(segments) == 1
    assert segments[0].start_sec == 0.0
    assert segments[0].end_sec == pytest.approx(2.0, abs=0.05)


def test_vad_tone_silence_tone_feeds_silence_filter():
    sr = 16000
    samples = np.concatenate([tone(1.0), np.zeros(6 * sr), tone(1.0)])
    buf = AudioBuffer(samples=samples)
    segments = energy_vad(buf)
    assert len(segments) == 2
    ratio, max_silence = speech_stats(segments, buf.duration_sec)
    assert max_silence > 5.0  # the curation silence filter would fire
    assert max_silence == pytest.approx(6.0, abs=0.3)
    assert ratio == pytest.approx(2.0 / 8.0, abs=0.05)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_vad_matches_frame_loop_oracle(data):
    # silence, tones and noise bursts within 10 dB of the floor, at lengths that
    # are rarely a whole number of frames; rate 10 gives one-sample frames
    sr = data.draw(st.sampled_from([10, 100, 8000, 11025, 16000, 22050, 44100, 48000]), label="sr")
    frame_len = max(1, int(round(sr * VAD_FRAME_MS / 1000.0)))
    pieces = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(["silence", "tone", "noise"]),
                st.floats(VAD_FLOOR_DBFS - 10.0, VAD_FLOOR_DBFS + 10.0),
                st.integers(1, 12 * frame_len + 7),
            ),
            min_size=1,
            max_size=6,
        ),
        label="pieces",
    )
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    parts = []
    for kind, level_db, n in pieces:
        rms = 10.0 ** (level_db / 20.0)
        if kind == "silence":
            parts.append(np.zeros(n))
        elif kind == "tone":
            parts.append(rms * np.sqrt(2.0) * np.sin(2 * np.pi * rng.uniform(0.05, 0.45) * np.arange(n)))
        else:
            parts.append(rng.normal(0.0, rms, n))
    audio = AudioBuffer(samples=np.concatenate(parts), sample_rate_hz=sr)
    assert energy_vad(audio) == stitch_oracles.energy_vad(audio)


@pytest.mark.parametrize("sr", [8000, 16000, 44100])
def test_vad_matches_frame_loop_oracle_across_blocks(sr):
    # long enough for several blocks of frame energies, with a partial frame at the end
    rng = np.random.default_rng(sr)
    n = 4 * _VAD_BLOCK_SAMPLES + 1234
    level_db = np.repeat(rng.uniform(VAD_FLOOR_DBFS - 10.0, VAD_FLOOR_DBFS + 10.0, 40), n // 40 + 1)[:n]
    audio = AudioBuffer(samples=rng.normal(0.0, 1.0, n) * 10.0 ** (level_db / 20.0), sample_rate_hz=sr)
    segments = energy_vad(audio)
    assert len(segments) > 3
    assert segments == stitch_oracles.energy_vad(audio)


@pytest.mark.parametrize("n_samples", [1, 479, 480, 481])
def test_vad_partial_and_single_frames(n_samples):
    loud = AudioBuffer(samples=np.full(n_samples, 0.5))
    assert energy_vad(loud) == [SpeechSegment(0.0, n_samples / 16000)]
    assert energy_vad(AudioBuffer(samples=np.full(n_samples, 1e-4))) == []


def test_vad_rejects_empty_audio():
    with pytest.raises(ValueError):
        energy_vad(AudioBuffer(samples=np.zeros(0)))


def test_speech_stats_no_segments():
    ratio, max_silence = speech_stats([], 12.0)
    assert ratio == 0.0 and max_silence == 12.0


def test_speech_stats_leading_trailing_silence():
    ratio, max_silence = speech_stats([SpeechSegment(4.0, 6.0)], 10.0)
    assert ratio == pytest.approx(0.2)
    assert max_silence == 4.0


def test_remove_silences():
    sr = 16000
    samples = np.concatenate([tone(1.0), np.zeros(6 * sr), tone(1.0)])
    buf = AudioBuffer(samples=samples)
    voiced = remove_silences(buf, energy_vad(buf))
    # silence collapsed away; hangover keeps a little of it
    assert 2.0 <= voiced.duration_sec <= 2.5
    assert remove_silences(buf, []).duration_sec == 0.0


# --- streamed audio ---------------------------------------------------------

def write_int16_wav(path: str, ints: np.ndarray, sr: int) -> None:
    with wave.open(path, "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(sr)
        wf.writeframes(ints.astype("<i2").tobytes())


@st.composite
def recordings(draw):
    """(int16 samples, sample rate): silence, tone or noise around the VAD floor, with silent gaps near block edges."""
    sr = draw(st.sampled_from([8000, 11025, 16000]), label="sr")
    frame_len = max(1, int(round(sr * VAD_FRAME_MS / 1000.0)))
    block = max(1, _VAD_BLOCK_SAMPLES // frame_len) * frame_len
    length = draw(st.sampled_from(["empty", "part frame", "frames", "blocks", "blocks"]), label="length")
    n = {"empty": st.just(0), "part frame": st.integers(1, frame_len - 1),
         "frames": st.integers(frame_len, 40 * frame_len),
         "blocks": st.builds(lambda k, off: k * block + off, st.integers(1, 3), st.integers(-block // 2, 2 * frame_len))}
    n = draw(n[length], label="n")
    kind = draw(st.sampled_from(["silence", "tone", "noise"]), label="kind")
    level_db = draw(st.floats(VAD_FLOOR_DBFS - 10.0, -6.0), label="level_db")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    rms = 32767.0 * 10.0 ** (level_db / 20.0)
    if kind == "silence":
        samples = np.zeros(n)
    elif kind == "tone":
        samples = rms * np.sqrt(2.0) * np.sin(2 * np.pi * rng.uniform(0.01, 0.45) * np.arange(n))
    else:
        samples = rng.normal(0.0, rms, n)
    ints = np.clip(np.round(samples), -32768, 32767).astype(np.int16)
    gaps = st.tuples(st.integers(1, 3), st.integers(-2 * frame_len, 2 * frame_len), st.integers(1, 30 * frame_len))
    for edge, offset, width in draw(st.lists(gaps, min_size=n > block, max_size=4), label="gaps"):
        start = max(min(edge, n // block) * block + offset, 0)
        ints[start : start + width] = 0
    if n:
        ints[draw(st.lists(st.integers(0, n - 1), max_size=5), label="minima")] = -32768
    return ints, sr


@settings(max_examples=80, deadline=None)
@given(recordings(), st.sampled_from([(0.5, 0.2), (1.0, 0.25), (2.5, 1.0), (25.0, 5.0)]))
def test_streamed_chunks_match_whole_file_oracle(recording, chunking):
    ints, sr = recording
    with tempfile.TemporaryDirectory() as tmp:
        wav = os.path.join(tmp, "rec.wav")
        write_int16_wav(wav, ints, sr)
        rate, ranges = voiced_ranges(wav)
        voiced, oracle_ranges = stitch_oracles.whole_file_voiced(wav)
        assert rate == sr and ranges == oracle_ranges
        n_voiced = sum(stop - start for start, stop in ranges)
        assert n_voiced == len(voiced)
        if not n_voiced:
            return
        bounds = plan_chunks(n_voiced / sr, *chunking).bounds
        streamed = [os.path.join(tmp, f"s{i}.wav") for i in range(len(bounds))]
        oracle = [os.path.join(tmp, f"o{i}.wav") for i in range(len(bounds))]
        write_voiced_chunks(wav, ranges, bounds, streamed)
        stitch_oracles.write_chunks(voiced, bounds, oracle)
        for mine, theirs in zip(streamed, oracle):
            with open(mine, "rb") as a, open(theirs, "rb") as b:
                assert a.read() == b.read()


# --- chunk planning -----------------------------------------------------

def test_plan_chunks_hand_example():
    plan = plan_chunks(60.0, 25.0, 5.0)
    assert [s for s, _ in plan.bounds] == [0.0, 20.0, 35.0]
    assert plan.bounds[-1] == (35.0, 60.0)


def test_plan_chunks_short_input_single_chunk():
    assert plan_chunks(10.0, 25.0, 5.0).bounds == [(0.0, 10.0)]


def test_plan_chunks_exact_fit():
    assert plan_chunks(25.0, 25.0, 5.0).bounds == [(0.0, 25.0)]


def test_plan_chunks_errors():
    with pytest.raises(ValueError):
        plan_chunks(0.0, 25.0, 5.0)
    with pytest.raises(ValueError):
        plan_chunks(10.0, 25.0, 25.0)
    with pytest.raises(ValueError):
        plan_chunks(10.0, 25.0, 0.0)


# each case once ran without end (a plan of NaN bounds, or starts that stopped
# advancing while the plan grew until memory ran out), so each runs in a child
# with a bound on its time and its memory
PLAN_IN_A_CHILD = """
import sys
from asrlab.stitch import plan_chunks
try:
    plan_chunks(*map(float, sys.argv[1:]))
except ValueError as exc:
    print(exc)
"""


@pytest.mark.skipif(sys.platform == "win32", reason="RLIMIT_AS is POSIX")
@pytest.mark.parametrize("args,message", [
    (["nan"], "duration_sec must be positive and finite, got nan"),
    (["inf"], "duration_sec must be positive and finite, got inf"),
    (["1e300"], "a stride of 20 s is too small to advance a start of 1e+300 s"),
    (["5e15", "3", "2"], "a stride of 1 s is too small to advance a start of 5e+15 s"),
    (["5e15", "3", "2.5"], "a stride of 0.5 s is too small to advance a start of 5e+15 s"),
], ids=["nan", "inf", "huge-duration", "one-float-step", "half-a-float-step"])
def test_plan_chunks_refuses_a_plan_it_cannot_build(args, message):
    import resource

    proc = subprocess.run([sys.executable, "-c", PLAN_IN_A_CHILD, *args], capture_output=True, text=True, timeout=30,
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, message + "\n", "")


@given(st.floats(0.5, 300.0))
def test_plan_chunks_coverage(duration):
    plan = plan_chunks(duration, 25.0, 5.0)
    bounds = plan.bounds
    # union covers the input exactly
    assert bounds[0][0] == 0.0
    assert bounds[-1][1] == pytest.approx(duration)
    for (s1, e1), (s2, e2) in zip(bounds, bounds[1:]):
        assert s2 < e1  # consecutive chunks overlap
        assert s2 > s1
    # sample points: each covered by >= 1 chunk; interiors never see 3 chunks
    for x in np.linspace(0.0, duration, 97):
        assert sum(1 for s, e in bounds if s <= x <= e) >= 1
        assert sum(1 for s, e in bounds if s < x < e) <= 2
    for (s1, e1), (s2, e2) in zip(bounds, bounds[1:]):
        mid = (s2 + e1) / 2.0  # interior of each overlap lies in exactly 2 chunks
        assert sum(1 for s, e in bounds if s < mid < e) == 2


# --- stitching -----------------------------------------------------------

def P(i, text):
    return PartialTranscript(index=i, words=text.split())


def test_stitch_joins_on_shared_run():
    left = P(0, "and then we will meet tomorrow")
    right = P(1, "we will meet tomorrow at noon sharp")
    out = stitch([left, right])
    assert out == "and then we will meet tomorrow at noon sharp".split()
    assert out.count("tomorrow") == 1


def test_stitch_single_partial_unchanged():
    assert stitch([P(0, "just one chunk here")]) == "just one chunk here".split()


def test_stitch_empty():
    assert stitch([]) == []


def test_stitch_fallback_without_estimate_concatenates():
    out = stitch([P(0, "a b c"), P(1, "x y z")])
    assert out == "a b c x y z".split()


@pytest.mark.parametrize("min_match", [0, -1])
def test_stitch_rejects_min_match_below_one(min_match):
    # a zero-length "match" would join at position 0 and drop the left text
    with pytest.raises(ValueError, match="min_match_tokens"):
        stitch([P(0, "a b c"), P(1, "x y z")], min_match_tokens=min_match)


def test_stitch_empty_partial_on_either_side():
    assert stitch([P(0, ""), P(1, "x y z")]) == "x y z".split()
    assert stitch([P(0, "a b c"), P(1, "")]) == "a b c".split()


def test_stitch_requires_contiguous_indices():
    with pytest.raises(ValueError):
        stitch([P(0, "a"), P(2, "b")])


def test_stitch_unsorted_input_is_sorted_by_index():
    out = stitch([P(1, "c d e f g"), P(0, "a b c d e")])
    assert out == "a b c d e f g".split()


def test_stitch_match_shorter_than_minimum_falls_back():
    left = P(0, "p q r s t")
    right = P(1, "s t u v w")  # only two shared tokens
    assert stitch([left, right], min_match_tokens=3) == "p q r s t s t u v w".split()
    assert stitch([left, right], min_match_tokens=2) == "p q r s t u v w".split()


def test_stitch_junction_searched_only_within_previous_chunk():
    # "a b c" returns at the last junction; a search of the whole output would
    # join there and drop "d e f g h i j"
    parts = [P(0, "a b c d e f"), P(1, "e f g h i j"), P(2, "i j a b c k")]
    assert stitch(parts, 2) == "a b c d e f g h i j a b c k".split()


def test_stitch_window_longer_than_output():
    # the second partial starts before the first, so the output is shorter
    # than it; the next junction then searches the whole output
    parts = [P(0, "c d"), P(1, "a b c d e f g"), P(2, "c d e f h")]
    assert stitch(parts, 2) == "c d e f h".split()


@settings(max_examples=250, deadline=None)
@given(st.data())
def test_stitch_ignores_phrases_repeated_before_the_previous_chunk(data):
    # a stream of unique tokens cut into chunks; then some junctions' overlaps
    # are copied once each to earlier places. A copy ends before the chunk
    # before the first chunk holding the original starts, so no junction sees
    # the copy on one side and the original on the other; copied phrases share
    # no token, so no junction sees two copies either
    n_words = data.draw(st.integers(40, 160), label="n_words")
    stream = [f"w{i}" for i in range(n_words)]
    spans = []
    start = 0
    while True:
        end = min(start + data.draw(st.integers(8, 30), label="len"), n_words)
        spans.append((start, end))
        if end == n_words:
            break
        start = end - data.draw(st.integers(3, min(7, end - start)), label="overlap")
    copied: set[str] = set()
    for k in range(2, len(spans)):
        overlap = stream[spans[k][0] : spans[k - 1][1]]
        first = next(i for i, (_, e) in enumerate(spans) if e > spans[k][0])
        room = spans[first - 1][0] - len(overlap) if first else -1
        if room >= 0 and copied.isdisjoint(overlap) and data.draw(st.booleans(), label=f"repeat{k}"):
            at = data.draw(st.integers(0, room), label=f"at{k}")
            stream[at : at + len(overlap)] = overlap
            copied.update(overlap)
    partials = [PartialTranscript(i, stream[s:e]) for i, (s, e) in enumerate(spans)]
    assert stitch(partials, min_match_tokens=3) == stream


@settings(max_examples=250, deadline=None)
@given(st.data())
def test_stitch_reconstructs_random_streams(data):
    # position-unique tokens: junction matches are unambiguous, which is the
    # premise under which exact reconstruction is guaranteed at all
    rng_words = data.draw(st.integers(25, 120), label="n_words")
    stream = [f"w{data.draw(st.integers(0, 4000))}p{i}" for i in range(rng_words)]
    # random chunking with >= 3 shared tokens per junction
    partials = []
    start = 0
    idx = 0
    while True:
        length = data.draw(st.integers(8, 30), label=f"len{idx}")
        end = min(start + length, len(stream))
        partials.append(PartialTranscript(index=idx, words=stream[start:end]))
        if end == len(stream):
            break
        overlap = data.draw(st.integers(3, min(6, end - start)), label=f"ov{idx}")
        start = end - overlap
        idx += 1
    assert stitch(partials, min_match_tokens=3) == stream

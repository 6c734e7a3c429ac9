import concurrent.futures
import io
import json
import math
import os

import numpy as np
import pytest

from asrlab.audio import AudioBuffer, pcm16_to_float, read_wav, write_pcm16, write_wav
from asrlab.curation import ManifestRecord
from asrlab.metrics import EmptyReferenceError, EvalRow, build_report
from asrlab import noise
from asrlab.noise import (
    SweepSpec,
    gaussian_noise,
    measure_snr,
    mix_at_snr,
    ordered_map,
    run_sweep,
    write_sweep_csv,
)
from asrlab.seeding import substream
from asrlab.textnorm import normalize
from tests.conftest import make_script, tone, write_tone_wav

SNR_GRID = [-5.0, 0.0, 5.0, 10.0, 20.0]


# --- audio buffer / WAV -----------------------------------------------------

def test_audio_buffer_validation():
    with pytest.raises(ValueError):
        AudioBuffer(samples=np.array([[0.1, 0.2]]))
    with pytest.raises(ValueError):
        AudioBuffer(samples=np.array([0.1, np.inf]))
    buf = AudioBuffer(samples=np.zeros(16000))
    assert buf.duration_sec == 1.0 and buf.power() == 0.0


def test_wav_round_trip(tmp_path):
    path = tmp_path / "t.wav"
    buf = AudioBuffer(samples=tone(0.25, amplitude=0.7))
    write_wav(buf, str(path))
    back = read_wav(str(path))
    assert back.sample_rate_hz == 16000
    assert len(back) == len(buf)
    # 16-bit quantization bound
    assert np.max(np.abs(back.samples - buf.samples)) <= 1.0 / 32767.0


def test_read_wav_rejects_stereo(tmp_path):
    import wave

    path = tmp_path / "stereo.wav"
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(2)
        wf.setsampwidth(2)
        wf.setframerate(16000)
        wf.writeframes(b"\x00\x00" * 200)
    with pytest.raises(ValueError):
        read_wav(str(path))


def test_pcm16_writer_matches_write_wav_on_every_int16(tmp_path):
    # write_pcm16 writes int16 samples as they are, but -32768 as -32767: exactly
    # what write_wav makes of each sample read_wav returns
    ints = np.arange(-32768, 32768).astype(np.int16)
    direct, through_float = tmp_path / "direct.wav", tmp_path / "float.wav"
    write_pcm16(str(direct), 16000, [ints[:1000], ints[1000:]])
    write_wav(AudioBuffer(samples=pcm16_to_float(ints)), str(through_float))
    assert direct.read_bytes() == through_float.read_bytes()
    back = np.round(read_wav(str(direct)).samples * 32767.0).astype(np.int16)
    assert back[0] == -32767 and np.array_equal(back[1:], ints[1:])


# --- gaussian noise ---------------------------------------------------------

def test_gaussian_noise_deterministic_per_seed():
    a = gaussian_noise(4096, rng_seed=7)
    b = gaussian_noise(4096, rng_seed=7)
    c = gaussian_noise(4096, rng_seed=8)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_gaussian_noise_moments():
    n = 100_000
    buf = gaussian_noise(n, rng_seed=123)
    assert abs(float(np.mean(buf.samples))) <= 3.0 / np.sqrt(n)  # CLT bound
    assert float(np.var(buf.samples)) == pytest.approx(1.0, abs=0.02)


def test_gaussian_noise_rejects_nonpositive():
    with pytest.raises(ValueError):
        gaussian_noise(0, rng_seed=0)


# --- mixing -----------------------------------------------------------------

def test_mix_snr_round_trip_gaussian():
    clean = AudioBuffer(samples=tone(1.0))
    for snr in SNR_GRID:
        noise = gaussian_noise(len(clean), rng_seed=11)
        mix = mix_at_snr(clean, noise, snr)
        # independent power meter over the stored components
        measured = 10.0 * np.log10(np.mean(mix.clean**2) / np.mean(mix.noise**2))
        assert measured == pytest.approx(snr, abs=0.1)
        assert measure_snr(mix.clean, mix.noise) == pytest.approx(snr, abs=0.1)
        assert np.allclose(mix.mixed.samples, mix.clean + mix.noise)


def test_mix_snr_round_trip_ambient_style():
    clean = AudioBuffer(samples=tone(1.0))
    ambient = AudioBuffer(samples=tone(0.3, freq_hz=97.0, amplitude=0.2))  # shorter: must loop
    for snr in SNR_GRID:
        mix = mix_at_snr(clean, ambient, snr)
        assert measure_snr(mix.clean, mix.noise) == pytest.approx(snr, abs=0.1)


def test_mix_zero_db_equalizes_power():
    clean = AudioBuffer(samples=tone(0.5))
    mix = mix_at_snr(clean, gaussian_noise(len(clean), 3), 0.0)
    ratio_db = 10.0 * np.log10(np.mean(mix.clean**2) / np.mean(mix.noise**2))
    assert ratio_db == pytest.approx(0.0, abs=0.1)


def test_mix_huge_snr_is_effectively_clean():
    clean = AudioBuffer(samples=tone(0.5))
    mix = mix_at_snr(clean, gaussian_noise(len(clean), 3), 120.0)
    assert np.max(np.abs(mix.mixed.samples - clean.samples)) < 1e-5
    assert mix.gain < 1e-5


@pytest.mark.parametrize("snr_db", [4000.0, -4000.0, -3235.0])
def test_mix_without_a_finite_gain_is_a_value_error(snr_db):
    clean = AudioBuffer(samples=tone(0.1))
    with pytest.raises(ValueError, match="not a finite number"):
        mix_at_snr(clean, gaussian_noise(len(clean), 3), snr_db)


def test_mix_clipping_rescales_jointly():
    clean = AudioBuffer(samples=tone(0.5, amplitude=0.95))
    mix = mix_at_snr(clean, gaussian_noise(len(clean), 5), -5.0)
    assert mix.rescale < 1.0
    assert np.max(np.abs(mix.mixed.samples)) <= 1.0 + 1e-12
    assert measure_snr(mix.clean, mix.noise) == pytest.approx(-5.0, abs=0.1)


def test_mix_linear_in_clean_at_fixed_snr():
    clean = AudioBuffer(samples=tone(0.5, amplitude=0.1))
    noise = gaussian_noise(len(clean), 9)
    c = 2.5
    mixed = mix_at_snr(clean, noise, 10.0)
    scaled = mix_at_snr(AudioBuffer(samples=c * clean.samples), noise, 10.0)
    assert np.allclose(scaled.mixed.samples, c * mixed.mixed.samples)
    assert measure_snr(scaled.clean, scaled.noise) == pytest.approx(10.0, abs=0.1)


def test_mix_errors():
    clean = AudioBuffer(samples=tone(0.1))
    with pytest.raises(ValueError):
        mix_at_snr(AudioBuffer(samples=np.zeros(100)), gaussian_noise(100, 0), 5.0)
    with pytest.raises(ValueError):
        mix_at_snr(clean, AudioBuffer(samples=np.zeros(100)), 5.0)
    with pytest.raises(ValueError):
        mix_at_snr(clean, AudioBuffer(samples=np.zeros(0)), 5.0)
    with pytest.raises(ValueError):
        mix_at_snr(clean, AudioBuffer(samples=np.ones(10), sample_rate_hz=8000), 5.0)
    with pytest.raises(ValueError):
        mix_at_snr(AudioBuffer(samples=np.zeros(0)), gaussian_noise(10, 0), 5.0)


@pytest.mark.parametrize("n_noise", [1, 7, 4799, 4800, 4801, 9600])
def test_mix_loops_or_truncates_noise_to_the_clean_length(n_noise):
    clean = AudioBuffer(samples=tone(0.3, amplitude=0.1))
    noise = gaussian_noise(n_noise, 2)
    mix = mix_at_snr(clean, noise, 10.0)
    looped = np.concatenate([noise.samples] * (len(clean) // n_noise + 1))[: len(clean)]
    assert mix.rescale == 1.0 and np.array_equal(mix.noise, mix.gain * looped)


def test_mix_at_infinite_snr_adds_no_noise():
    clean = AudioBuffer(samples=tone(0.3))
    mix = mix_at_snr(clean, gaussian_noise(len(clean), 4), math.inf)
    assert mix.gain == 0.0 and np.array_equal(mix.mixed.samples, clean.samples)


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(snr_list_db=[0.0], noise_kind="ambient")
    with pytest.raises(ValueError):
        SweepSpec(snr_list_db=[0.0], noise_kind="pink")
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        SweepSpec(snr_list_db=[0.0], seed=-1)


def test_substream_seeds_do_not_wrap_at_32_bits():
    draws = [substream(seed, "noise", "clip", 0.0).standard_normal(8) for seed in (0, 2**32, 2**33, 2**32 - 1)]
    for i, a in enumerate(draws):
        for b in draws[i + 1 :]:
            assert not np.array_equal(a, b)


@pytest.mark.parametrize(
    "snrs,fault",
    [([], "is empty"), ([math.nan], "holds nan"), ([5.0, -math.inf], "holds -inf"),
     ([0.0, 5.0, 0.0], "repeats 0 dB"), ([0.0, -0.0], "repeats -0 dB"),
     ([4000.0], "holds 4000 dB"), ([0.0, -4000.0], "holds -4000 dB"), ([-3240.0], "holds -3240 dB"),
     ([5.0, 5.0000001], "holds two SNRs that print as 5 dB"),
     ([1e-7, 1.00000004e-7], "holds two SNRs that print as 1e-07 dB")],
)
def test_sweep_spec_rejects_an_snr_list_it_cannot_sweep(snrs, fault):
    with pytest.raises(ValueError, match=f"^snr_list_db {fault}"):
        SweepSpec(snr_list_db=snrs)
    SweepSpec(snr_list_db=[math.inf, 0.0])  # +inf is the clean baseline


# --- sweeps -------------------------------------------------------------

def _manifest_with_tones(tmp_path, texts):
    records = []
    for i, text in enumerate(texts):
        wav = tmp_path / f"clip{i}.wav"
        write_tone_wav(wav, duration_sec=0.3, freq_hz=200.0 + 40 * i)
        records.append(
            ManifestRecord(
                id=f"clip{i}", audio_path=str(wav), duration_sec=0.3, transcript=text
            )
        )
    return records


def test_sweep_identity_transcriber_scores_zero(tmp_path, echo_transcriber):
    texts = ["hello world out there", "four score and seven years"]
    records = _manifest_with_tones(tmp_path, texts)
    cmd = echo_transcriber({r.id: r.transcript for r in records})
    spec = SweepSpec(snr_list_db=[0.0, 10.0], seed=42)
    results = run_sweep(records, spec, cmd, str(tmp_path / "work"))
    # keyed in spec order, rows in manifest order
    assert results == {snr: [EvalRow(r.id, r.duration_sec, 0.0) for r in records] for snr in [0.0, 10.0]}
    assert list(results) == [0.0, 10.0]


def test_sweep_empty_transcriber_scores_all_deletions(tmp_path, empty_transcriber):
    records = _manifest_with_tones(tmp_path, ["three little words"])
    spec = SweepSpec(snr_list_db=[0.0, 10.0], seed=1)
    results = run_sweep(records, spec, empty_transcriber, str(tmp_path / "work"))
    assert [r.wer for rows in results.values() for r in rows] == [1.0, 1.0]


def test_sweep_failing_transcriber_marks_rows(tmp_path, failing_transcriber):
    records = _manifest_with_tones(tmp_path, ["some words"])
    spec = SweepSpec(snr_list_db=[5.0], seed=1)
    results = run_sweep(records, spec, failing_transcriber, str(tmp_path / "work"))
    assert results == {5.0: [EvalRow("clip0", 0.3, None)]}


def test_sweep_rerun_byte_identical(tmp_path, echo_transcriber):
    records = _manifest_with_tones(tmp_path, ["alpha beta gamma"])
    cmd = echo_transcriber({r.id: r.transcript for r in records})
    spec = SweepSpec(snr_list_db=[-5.0, 5.0], seed=7)

    outputs = []
    for run in ("one", "two"):
        work = tmp_path / f"work_{run}"
        results = run_sweep(records, spec, cmd, str(work), jobs=2)
        csv_path = tmp_path / f"sweep_{run}.csv"
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            write_sweep_csv(results, fh)
        wavs = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
        outputs.append((csv_path.read_bytes(), wavs))
    assert outputs[0] == outputs[1]


# --- ordered_map: the --jobs pool ----------------------------------------------

@pytest.mark.parametrize("jobs", [1, 2, 3, 4])
def test_ordered_map_keeps_item_order(jobs):
    assert ordered_map(lambda x: x * x, range(20), jobs) == [x * x for x in range(20)]


@pytest.mark.parametrize("jobs", [1, 2, 3, 4])
def test_ordered_map_raises_the_first_failing_items_exception(jobs):
    def fn(x):
        if x in (2, 5):
            raise ValueError(f"item {x}")
        return x

    with pytest.raises(ValueError, match="^item 2$"):
        ordered_map(fn, range(8), jobs)


@pytest.mark.parametrize("jobs", [0, -1])
def test_ordered_map_refuses_fewer_than_one_job(jobs):
    with pytest.raises(ValueError):
        ordered_map(str, range(3), jobs)


@pytest.mark.parametrize("jobs, workers", [(1, 1), (2, 2), (3, 3), (4, 3), (10**6, 3)])
def test_ordered_map_pool_is_bounded_by_the_usable_cpus(monkeypatch, jobs, workers):
    built = []

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            built.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(noise, "usable_cpus", lambda: 3)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    assert ordered_map(str, range(3), jobs) == ["0", "1", "2"]
    assert built == [workers]


def _bit_pattern_wav(path, bits, block=1600, amplitude=0.5):
    samples = np.concatenate([np.full(block, amplitude if b else -amplitude) for b in bits])
    write_wav(AudioBuffer(samples=samples), str(path))
    return " ".join("one" if b else "zero" for b in bits)


def test_sweep_toy_matcher_monotone_in_snr(tmp_path):
    """Block-sign matcher on DC-block audio: one fixed ambient noise file means
    every (file, SNR) cell reuses the same noise shape with only the gain
    varying, so the set of flipped blocks provably shrinks as SNR rises."""
    rng = np.random.default_rng(99)
    records = []
    for i in range(10):
        wav = tmp_path / f"bits{i}.wav"
        bits = [bool(b) for b in rng.integers(0, 2, size=8)]
        text = _bit_pattern_wav(wav, bits)
        records.append(ManifestRecord(id=f"bits{i}", audio_path=str(wav), duration_sec=0.8, transcript=text))

    noise_dir = tmp_path / "noise"
    noise_dir.mkdir()
    # per-block constant noise: block j offsets a "one" block (+0.5) by gain*offset_j,
    # flipping it exactly when offset_j < -0.5/gain; offsets sit far from every
    # threshold on the SNR grid, so flip counts are 4,3,2,1,0 by construction
    offsets = np.array([-0.75, -0.40, -0.25, -0.15, 0.0, 0.0, 0.0, 0.0])
    write_wav(AudioBuffer(samples=np.repeat(offsets, 1600)), str(noise_dir / "n0.wav"))

    matcher = make_script(
        tmp_path,
        "block_matcher.py",
        """
import sys, wave
import numpy as np
with wave.open(sys.argv[1], 'rb') as wf:
    raw = wf.readframes(wf.getnframes())
x = np.frombuffer(raw, dtype='<i2').astype(float)
words = []
for i in range(0, len(x), 1600):
    block = x[i:i + 1600]
    words.append('one' if block.mean() > 0 else 'zero')
print(' '.join(words))
""",
    )
    spec = SweepSpec(
        snr_list_db=[-10.0, -5.0, 0.0, 5.0, 15.0],
        noise_kind="ambient",
        noise_corpus_dir=str(noise_dir),
        seed=4,
    )
    results = run_sweep(records, spec, matcher, str(tmp_path / "work"))
    by_snr = [build_report(results[s])["wer"] for s in spec.snr_list_db]
    assert all(v is not None for v in by_snr)
    assert by_snr[0] > 0.0  # heavy noise flips some blocks
    for lo, hi in zip(by_snr, by_snr[1:]):
        assert hi <= lo + 1e-12  # nonincreasing WER as SNR rises
    assert by_snr[-1] == 0.0


def test_write_sweep_csv_format(tmp_path, echo_transcriber):
    records = _manifest_with_tones(tmp_path, ["one two"])
    cmd = echo_transcriber({r.id: r.transcript for r in records})
    results = run_sweep(records, SweepSpec(snr_list_db=[0.0], seed=2), cmd, str(tmp_path / "w"))
    out = io.StringIO(newline="")
    write_sweep_csv(results, out)
    lines = out.getvalue().splitlines()
    assert lines[0] == "snr_db,file_id,wer"
    assert lines[1].startswith("0,clip0,")
    assert lines[2:4] == ["", "snr_db,aggregate_wer"]


def test_sweep_normalizes_each_reference_once(tmp_path, echo_transcriber, monkeypatch):
    import asrlab.noise

    calls = []

    def counting_normalize(text, rules):
        calls.append(text)
        return normalize(text, rules)

    monkeypatch.setattr(asrlab.noise, "normalize", counting_normalize)
    records = _manifest_with_tones(tmp_path, ["alpha beta", "gamma delta"])
    cmd = echo_transcriber({r.id: r.transcript for r in records})
    snrs = [0.0, 10.0]
    run_sweep(records, SweepSpec(snr_list_db=snrs, seed=3), cmd, str(tmp_path / "work"))
    # one call per reference, one per transcribed hypothesis
    assert len(calls) == len(records) + len(records) * len(snrs)


def test_sweep_empty_reference_raises_before_mixing(tmp_path, echo_transcriber):
    records = _manifest_with_tones(tmp_path, ["brook sounds", "uh um"])
    cmd = echo_transcriber({r.id: r.transcript for r in records})
    work = tmp_path / "work"
    with pytest.raises(EmptyReferenceError, match="'clip1'"):
        run_sweep(records, SweepSpec(snr_list_db=[0.0], seed=3), cmd, str(work))
    assert not work.exists()

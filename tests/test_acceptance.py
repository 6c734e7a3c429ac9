"""End-to-end acceptance suite: one test per release criterion, each printing
a PASS/FAIL line. Run with ``pytest tests/test_acceptance.py -v -s``."""

import json
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from asrlab.audio import AudioBuffer, write_wav
from asrlab.curation import ManifestRecord, PipelineConfig, run_pipeline, write_manifest
from asrlab.entities import EntitySpan, align_entities, pn_score
from asrlab.metrics import weighted_average, wer
from asrlab.noise import SweepSpec, gaussian_noise, measure_snr, mix_at_snr, run_sweep, write_sweep_csv
from asrlab.seeding import substream
from asrlab.stitch import stitch
from asrlab.textnorm import normalize
from asrlab.transducer import (
    MaskSpec,
    beam_decode,
    brute_force_logprob,
    greedy_decode,
    make_stream_mask,
    random_lattice,
    receptive_field,
    rnnt_grad,
    rnnt_logprob,
)
from asrlab.transducer.lattice import log_softmax
from asrlab.transducer.loss import finite_difference_grad
from asrlab.transducer.mask import FRAME_MS

from tests.conftest import tone
from tests.test_curation import EXPECTED_KEPT, EXPECTED_REASONS, golden_manifest
from tests.test_transducer import exhaustive_best, random_scorer


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def test_scaling_planner_cli():
    with criterion("scaling-planner"):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "asrlab", "plan-data", "--params", "264000000"],
            capture_output=True,
            text=True,
        )
        elapsed = time.monotonic() - start
        assert proc.returncode == 0
        assert "hours_rounded=550000" in proc.stdout
        assert elapsed < 1.0, f"plan-data took {elapsed:.2f}s"


def test_rnnt_oracle_suite():
    with criterion("rnnt-oracle-suite"):
        start = time.monotonic()
        rng = np.random.default_rng(20240601)
        worst_log = 0.0
        for _ in range(1000):
            T = int(rng.integers(1, 5))       # T <= 4
            U = int(rng.integers(0, 4))       # U <= 3
            V = int(rng.integers(1, 4))       # V <= 3
            lat = random_lattice(rng, T, U, V)
            worst_log = max(worst_log, abs(rnnt_logprob(lat) - brute_force_logprob(lat)))
        assert worst_log <= 1e-9, f"max log-space deviation {worst_log:.3e}"

        worst_rel = 0.0
        for _ in range(15):
            lat = random_lattice(rng, int(rng.integers(2, 5)), int(rng.integers(1, 4)), int(rng.integers(2, 4)))
            fd = finite_difference_grad(lat)
            denom = max(float(np.max(np.abs(fd))), 1e-12)
            worst_rel = max(worst_rel, float(np.max(np.abs(rnnt_grad(lat) - fd))) / denom)
        assert worst_rel <= 1e-4, f"max gradient relative error {worst_rel:.3e}"

        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"oracle suite took {elapsed:.1f}s"


def test_proper_noun_ground_truth():
    with criterion("pn-metric-ground-truth"):
        # the canonical pair is penalized with a pair-level WER of exactly 0.5
        assert wer(["nicolas", "cage"], ["ridiculous", "cage"]) == 0.5
        align = align_entities(
            [EntitySpan("Nicolas Cage", "Person", 0, 12)],
            [EntitySpan("Ridiculous Cage", "Person", 0, 15)],
            sim_threshold=0.5,
        )
        assert len(align.matched) == 1
        assert pn_score(align)[1] == 50.0

        # alignment buckets partition the inputs on 500 random fixtures
        rng = np.random.default_rng(7)
        names = ["alice", "bob", "acme corp", "paris", "london", "rome", "nile", "andes"]
        types = ["Person", "Organization", "GPE", "LOC"]
        for _ in range(500):
            def draw_spans():
                spans = []
                pos = 0
                for _ in range(int(rng.integers(0, 7))):
                    name = names[int(rng.integers(len(names)))]
                    spans.append(
                        EntitySpan(name, types[int(rng.integers(len(types)))], pos, pos + len(name))
                    )
                    pos += len(name) + 1
                return spans

            gold, pred = draw_spans(), draw_spans()
            out = align_entities(gold, pred, float(rng.uniform(0, 1)))
            got_gold = [g for g, _ in out.matched] + out.unmatched_gold
            got_pred = [p for _, p in out.matched] + out.unmatched_pred
            assert sorted(map(id, got_gold)) == sorted(map(id, gold))
            assert sorted(map(id, got_pred)) == sorted(map(id, pred))


def test_normalizer_criterion():
    with criterion("normalizer"):
        raw = wer("there's".split(), "there is".split())
        norm = wer(normalize("there's").split(), normalize("there is").split())
        assert raw == 2.0 and norm == 0.0

        # idempotence over a 10k-string random corpus
        rng = np.random.default_rng(99)
        alphabet = list(
            "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
            " \t\n.,!?;:'\"()[]-_/\\@#$%^&*`~+=’éü中文"
        )
        for _ in range(10_000):
            n = int(rng.integers(0, 60))
            s = "".join(alphabet[int(i)] for i in rng.integers(0, len(alphabet), size=n))
            once = normalize(s)
            assert normalize(once) == once


def test_weighted_aggregation_criterion():
    with criterion("weighted-aggregation"):
        assert weighted_average([0.2, 0.1], [10.0, 30.0]) == pytest.approx(0.125, abs=1e-12)
        assert weighted_average([0.4, 0.2, 0.3], [5.0, 5.0, 5.0]) == pytest.approx(0.3, abs=1e-12)


def test_curation_golden_manifest_criterion():
    with criterion("curation-golden-manifest"):
        kept, outcomes = run_pipeline(golden_manifest(), PipelineConfig())
        assert [r.id for r in kept] == EXPECTED_KEPT
        by_id = {o.id: o for o in outcomes}
        for rid, reasons in EXPECTED_REASONS.items():
            assert by_id[rid].verdict == "rejected"
            assert [r.filter_id for r in by_id[rid].reasons] == reasons
        for rid in ("r2", "r5", "r7"):
            assert by_id[rid].verdict == "kept" and by_id[rid].reasons == []


def test_noise_lab_criterion(tmp_path, echo_transcriber):
    with criterion("noise-lab"):
        grid = [-5.0, 0.0, 5.0, 10.0, 20.0]
        clean = AudioBuffer(samples=tone(0.5, amplitude=0.3))
        ambient = AudioBuffer(samples=np.sin(np.arange(3000) / 11.0) * 0.2)
        for snr in grid:
            for noise in (
                AudioBuffer(samples=substream(42, "noise", "clip", snr).standard_normal(len(clean))),
                ambient,
            ):
                mix = mix_at_snr(clean, noise, snr)
                assert abs(measure_snr(mix.clean, mix.noise) - snr) <= 0.1

        # full sweep with a fixed seed is byte-identical on rerun
        wav = tmp_path / "clip.wav"
        write_wav(clean, str(wav))
        rec = ManifestRecord(id="clip", audio_path=str(wav), duration_sec=0.5, transcript="quick brown fox")
        cmd = echo_transcriber({"clip": "quick brown fox"})
        noise_dir = tmp_path / "ambient"
        noise_dir.mkdir()
        write_wav(ambient, str(noise_dir / "n.wav"))
        runs = []
        for kind, corpus in (("gaussian", None), ("ambient", str(noise_dir))):
            pair = []
            for tag in ("x", "y"):
                spec = SweepSpec(snr_list_db=grid, noise_kind=kind, noise_corpus_dir=corpus, seed=11)
                work = tmp_path / f"work_{kind}_{tag}"
                results = run_sweep([rec], spec, cmd, str(work))
                out = tmp_path / f"{kind}_{tag}.csv"
                with open(out, "w", encoding="utf-8", newline="") as fh:
                    write_sweep_csv(results, fh)
                blob = out.read_bytes() + b"".join(p.read_bytes() for p in sorted(work.iterdir()))
                pair.append(blob)
            assert pair[0] == pair[1], f"{kind} sweep not byte-identical"
            runs.append(pair[0])


def test_stitcher_criterion():
    with criterion("stitcher"):
        rng = np.random.default_rng(31337)
        for trial in range(1000):
            n = int(rng.integers(20, 120))
            stream = [f"w{int(rng.integers(0, 5000))}p{i}" for i in range(n)]
            partials = []
            start = 0
            while True:
                length = int(rng.integers(8, 30))
                end = min(start + length, n)
                partials.append(stream[start:end])
                if end == n:
                    break
                overlap = int(rng.integers(3, min(7, end - start) + 1))
                start = end - overlap
            assert stitch(partials, min_match_tokens=3) == stream, f"trial {trial}"
        assert stitch([["only", "one", "chunk"]]) == ["only", "one", "chunk"]


def test_streaming_mask_criterion():
    with criterion("streaming-mask"):
        for n_frames in range(1, 65):
            for chunk, left in ((1, 0), (2, 1), (4, 2), (8, 3), (11, 1)):
                spec = MaskSpec(n_frames=n_frames, chunk_frames=chunk, n_layers=3, left_context=left)
                for mask in make_stream_mask(spec):
                    for i in range(n_frames):
                        chunk_end = min(n_frames, (i // chunk + 1) * chunk)
                        assert not mask[i, chunk_end:].any(), "future leakage across chunk boundary"
        spec = MaskSpec(n_frames=16, chunk_frames=6, n_layers=5, left_context=1)
        assert receptive_field(spec) == 11
        assert receptive_field(spec) * FRAME_MS == 880.0


def test_beam_greedy_criterion():
    with criterion("beam-greedy-reduction"):
        for seed in range(100):
            V = 2 + seed % 3
            scorer = random_scorer(seed, V)
            T = 2 + seed % 4
            greedy_labels, _ = greedy_decode(scorer, T, max_symbols_per_frame=3)
            beam_labels, _ = beam_decode(scorer, T, beam_size=1, max_symbols_per_frame=3)
            assert beam_labels == greedy_labels, f"seed {seed}"
        # beam of V+1 is provably exhaustive on single-frame instances; two
        # frames need (V+1)^2 to bound the hypothesis pools
        for seed in range(100):
            V = 2
            scorer = random_scorer(5000 + seed, V)
            want, _ = exhaustive_best(scorer, 1, 1)
            got, _ = beam_decode(scorer, 1, beam_size=V + 1, max_symbols_per_frame=1)
            assert got == want, f"seed {seed} (T=1)"
        for seed in range(100):
            V = 2
            scorer = random_scorer(6000 + seed, V)
            want, _ = exhaustive_best(scorer, 2, 1)
            got, _ = beam_decode(scorer, 2, beam_size=(V + 1) ** 2, max_symbols_per_frame=1)
            assert got == want, f"seed {seed} (T=2)"

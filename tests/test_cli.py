import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import pathlib
import resource
import stat
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import wave

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import asrlab
from asrlab import cli, curation
from asrlab.audio import AudioBuffer, write_wav
from asrlab.config import load_config
from asrlab.curation import write_manifest
from asrlab.entities import align_entities, read_entity_file
from asrlab.stitch import plan_chunks
from asrlab.textnorm import load_rules
from asrlab.transducer.loss import BATCH_CELLS
from tests import stitch_oracles
from tests.conftest import make_script, tone

from tests.test_curation import EXPECTED_KEPT, HOSTILE_BASE, HOSTILE_FIELDS, golden_copies, golden_manifest


def run_cli(*args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "asrlab", *args], capture_output=True, text=True, **kw
    )


# --- plan-data ---------------------------------------------------------------

def test_plan_data_paper_value_and_speed():
    start = time.monotonic()
    proc = run_cli("plan-data", "--params", "264000000")
    elapsed = time.monotonic() - start
    assert proc.returncode == 0
    assert "hours_rounded=550000" in proc.stdout
    assert elapsed < 5.0  # interpreter startup included; formula itself is instant


def test_plan_data_validation_error_exit_2():
    proc = run_cli("plan-data", "--params", "-1")
    assert proc.returncode == 2


def test_plan_data_flag_overrides():
    proc = run_cli("plan-data", "--params", "264000000", "--tpp", "40")
    assert "hours_rounded=1100000" in proc.stdout


@pytest.mark.parametrize("params", [10**308, 10**400])
def test_plan_data_hours_beyond_float_range_exit_2_before_printing(capsys, params):
    assert cli.main(["plan-data", "--params", str(params)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--params" in err and "internal error" not in err


@pytest.mark.parametrize("flag,value", [("--tpp", "inf"), ("--wpm", "nan"), ("--tpw", "nan")])
def test_plan_data_non_finite_assumption_exit_2_before_printing(capsys, flag, value):
    assert cli.main(["plan-data", "--params", "264000000", flag, value]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"{flag[2:]} must be finite" in err and "internal error" not in err


def test_unknown_subcommand_exits_2():
    proc = run_cli("no-such-command")
    assert proc.returncode == 2


# --- evaluate ---------------------------------------------------------------

def write_eval_inputs(tmp_path, hyp_texts=None):
    records = golden_manifest()[:3]
    manifest = tmp_path / "manifest.jsonl"
    write_manifest(records, str(manifest))
    hyps = tmp_path / "hyps.tsv"
    texts = hyp_texts or {r.id: r.transcript for r in records}
    hyps.write_text("".join(f"{rid}\t{text}\n" for rid, text in texts.items()), encoding="utf-8")
    return manifest, hyps


def test_evaluate_identity_scores_zero(tmp_path):
    manifest, hyps = write_eval_inputs(tmp_path)
    out = tmp_path / "report.csv"
    proc = run_cli("evaluate", "--manifest", str(manifest), "--hyps", str(hyps), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text(encoding="utf-8").splitlines()
    agg = [l for l in lines if l.startswith("AGGREGATE")]
    assert agg and ",0.000000," in agg[0]


def test_evaluate_missing_hyp_is_validation_error(tmp_path):
    manifest, hyps = write_eval_inputs(tmp_path)
    hyps.write_text("r0\tonly one\n", encoding="utf-8")
    proc = run_cli("evaluate", "--manifest", str(manifest), "--hyps", str(hyps))
    assert proc.returncode == 2
    assert "no hypothesis" in proc.stderr


@pytest.mark.parametrize("flag", ["--gold-entities", "--pred-entities"])
def test_evaluate_lone_entity_file_refused_before_any_input_is_read(tmp_path, capsys, flag):
    manifest, hyps = write_eval_inputs(tmp_path)
    hyps.write_text("no tab here\n", encoding="utf-8")  # read first, its line would be the refusal
    entities, out = tmp_path / "entities.tsv", tmp_path / "report.csv"
    entities.write_text("r0\t0\t12\tPerson\tNicolas Cage\n", encoding="utf-8")
    argv = ["evaluate", "--manifest", str(manifest), "--hyps", str(hyps), flag, str(entities), "--out", str(out)]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", "asrlab evaluate: --gold-entities and --pred-entities must be given together\n")
    assert not out.exists()


def test_evaluate_missing_manifest_exit_2(tmp_path):
    proc = run_cli("evaluate", "--manifest", str(tmp_path / "nope.jsonl"), "--hyps", str(tmp_path / "nope.tsv"))
    assert proc.returncode == 2


def test_evaluate_report_rerun_byte_identical(tmp_path):
    manifest, hyps = write_eval_inputs(tmp_path)
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        proc = run_cli("evaluate", "--manifest", str(manifest), "--hyps", str(hyps), "--out", str(out))
        assert proc.returncode == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert outs[0].startswith(b"# asrlab ")


def test_evaluate_with_entities(tmp_path):
    manifest, hyps = write_eval_inputs(tmp_path)
    gold = tmp_path / "gold.tsv"
    pred = tmp_path / "pred.tsv"
    gold.write_text("r0\t0\t12\tPerson\tNicolas Cage\n", encoding="utf-8")
    pred.write_text("r0\t0\t15\tPerson\tRidiculous Cage\n", encoding="utf-8")
    out = tmp_path / "rep.csv"
    proc = run_cli(
        "evaluate", "--manifest", str(manifest), "--hyps", str(hyps),
        "--gold-entities", str(gold), "--pred-entities", str(pred), "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    r0 = [l for l in out.read_text().splitlines() if l.startswith("r0,")][0]
    # pair WER 0.5 -> 50.0 for the matched Nicolas/Ridiculous pair
    assert r0.endswith(",50.000000")


# --- ppn-score ---------------------------------------------------------------

def test_ppn_score_cli(tmp_path):
    gold = tmp_path / "gold.tsv"
    pred = tmp_path / "pred.tsv"
    gold.write_text("f1\t0\t12\tPerson\tNicolas Cage\nf2\t0\t5\tGPE\tParis\n", encoding="utf-8")
    pred.write_text("f1\t0\t15\tPerson\tRidiculous Cage\n", encoding="utf-8")
    proc = run_cli("ppn-score", "--gold-entities", str(gold), "--pred-entities", str(pred))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    f1 = [l for l in lines if l.startswith("f1,")][0]
    f2 = [l for l in lines if l.startswith("f2,")][0]
    assert f1.endswith(",50.000000")          # matched pair at WER 0.5
    assert f2.endswith(",100.000000,100.000000")  # unmatched gold entity


def test_ppn_score_manifest_without_a_file_id_exit_2_writes_nothing(tmp_path, capsys):
    argv, out, _ = report_header_case(tmp_path, "ppn-score")
    (tmp_path / "gold.tsv").write_text("a\t0\t5\tPerson\tAlice\nb\t0\t3\tPerson\tBob\n", encoding="utf-8")
    (tmp_path / "pred.tsv").write_text("a\t0\t5\tPerson\tAlice\n", encoding="utf-8")
    manifest = tmp_path / "in.jsonl"
    manifest.write_text('{"id": "a", "audio_path": "a.wav", "duration_sec": 10, "transcript": "alice"}\n', encoding="utf-8")
    assert cli.main(argv + ["--manifest", str(manifest)]) == 2
    assert capsys.readouterr().err == f"asrlab ppn-score: file id 'b' of the entity files is not in manifest {manifest}\n"
    assert not out.exists()

    # without a manifest every file weighs the same
    assert cli.main(argv) == 0
    assert [line.split(",")[:2] for line in out.read_text(encoding="utf-8").splitlines()[3:5]] == [["a", "1"], ["b", "1"]]


# --- curate ------------------------------------------------------------------

def test_curate_golden_fixture(tmp_path):
    manifest = tmp_path / "in.jsonl"
    write_manifest(golden_manifest(), str(manifest))
    out_manifest = tmp_path / "kept.jsonl"
    report = tmp_path / "rejects.csv"
    proc = run_cli(
        "curate", "--manifest", str(manifest),
        "--out-manifest", str(out_manifest), "--report", str(report),
    )
    assert proc.returncode == 0, proc.stderr
    kept_ids = [json.loads(line)["id"] for line in out_manifest.read_text().splitlines()]
    assert kept_ids == EXPECTED_KEPT
    text = report.read_text(encoding="utf-8")
    assert "r0,rejected,wpm" in text
    assert "r9,rejected,language-confidence" in text


def test_curate_flag_overrides_config(tmp_path):
    manifest = tmp_path / "in.jsonl"
    write_manifest(golden_manifest(), str(manifest))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("curation.conf_threshold = 0.99\n", encoding="utf-8")
    out_manifest = tmp_path / "kept.jsonl"
    # config alone: 0.99 rejects every record (confidences are 0.8/0.9)
    proc = run_cli(
        "curate", "--manifest", str(manifest), "--config", str(cfg),
        "--out-manifest", str(out_manifest), "--report", str(tmp_path / "r.csv"),
    )
    assert proc.returncode == 0
    assert out_manifest.read_text() == ""
    # flag wins over config
    proc = run_cli(
        "curate", "--manifest", str(manifest), "--config", str(cfg),
        "--conf-threshold", "0.8",
        "--out-manifest", str(out_manifest), "--report", str(tmp_path / "r.csv"),
    )
    assert proc.returncode == 0
    kept_ids = [json.loads(line)["id"] for line in out_manifest.read_text().splitlines()]
    assert kept_ids == EXPECTED_KEPT


def test_curate_nan_max_silence_exit_2(tmp_path, capsys):
    # NaN would compare as no silence too long, keeping r4, which the golden manifest rejects for silence
    manifest = tmp_path / "in.jsonl"
    write_manifest(golden_manifest(), str(manifest))
    kept, report = tmp_path / "kept.jsonl", tmp_path / "r.csv"
    argv = ["curate", "--manifest", str(manifest), "--out-manifest", str(kept), "--report", str(report),
            "--max-silence-sec", "nan"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "max_silence_sec" in err and "internal error" not in err
    assert not kept.exists() and not report.exists()


# --- stitch ------------------------------------------------------------------

def test_stitch_partials_dir(tmp_path):
    pdir = tmp_path / "partials"
    pdir.mkdir()
    (pdir / "0.txt").write_text("and then we will meet tomorrow", encoding="utf-8")
    (pdir / "1.txt").write_text("we will meet tomorrow at noon", encoding="utf-8")
    proc = run_cli("stitch", "--partials-dir", str(pdir))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "and then we will meet tomorrow at noon"


def test_stitch_requires_exactly_one_mode(tmp_path):
    proc = run_cli("stitch")
    assert proc.returncode == 2


def test_stitch_audio_mode(tmp_path):
    # 30 s of tone: VAD keeps everything, plan gives two chunks, fake transcriber
    # reports per-chunk texts with a 3-token junction overlap
    wav = tmp_path / "long.wav"
    write_wav(AudioBuffer(samples=tone(30.0, amplitude=0.4)), str(wav))
    counter = tmp_path / "calls.txt"
    transcriber = make_script(
        tmp_path,
        "chunk_transcriber.py",
        f"""
import sys
calls_path = {str(counter)!r}
try:
    n = int(open(calls_path).read())
except FileNotFoundError:
    n = 0
open(calls_path, 'w').write(str(n + 1))
texts = ["the first chunk ends with shared words", "with shared words the second chunk continues"]
print(texts[min(n, 1)])
""",
    )
    # the transcriber counts its calls in a file, so it needs them one at a time
    proc = run_cli(
        "stitch", "--audio", str(wav), "--transcriber", " ".join(transcriber),
        "--workdir", str(tmp_path / "chunks"), "--jobs", "1",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "the first chunk ends with shared words the second chunk continues"


def test_stitch_audio_failing_transcriber_exit_2(tmp_path, failing_transcriber):
    wav = tmp_path / "tone.wav"
    write_wav(AudioBuffer(samples=tone(30.0, amplitude=0.4)), str(wav))
    out = tmp_path / "joined.txt"
    chunks = tmp_path / "chunks"
    proc = run_cli(
        "stitch", "--audio", str(wav), "--transcriber", " ".join(failing_transcriber),
        "--workdir", str(chunks), "--out", str(out),
    )
    assert proc.returncode == 2, proc.stderr
    assert "internal error" not in proc.stderr
    assert "chunk 0" in proc.stderr and str(chunks / "chunk0000.wav") in proc.stderr
    assert not out.exists()


# --- noise-sweep --------------------------------------------------------------

@pytest.mark.parametrize("command", ["stitch", "noise-sweep"])
def test_transcriber_reads_end_of_file_on_stdin(tmp_path, command):
    # each call records what it read from stdin; asrlab's own stdin holds a line
    wav = tmp_path / "clip.wav"
    write_wav(AudioBuffer(samples=tone(30.0 if command == "stitch" else 0.25, amplitude=0.4)), str(wav))
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(json.dumps({"id": "clip", "audio_path": str(wav), "duration_sec": 0.25,
                                    "transcript": "brook"}) + "\n", encoding="utf-8")
    seen = tmp_path / "seen"
    seen.mkdir()
    transcriber = " ".join(make_script(
        tmp_path, "reads_stdin.py",
        f"import os, sys\nopen(os.path.join({str(seen)!r}, os.path.basename(sys.argv[1])), 'w').write(sys.stdin.read())\n"
        "print('brook')\n",
    ))
    inputs = (["--audio", str(wav)] if command == "stitch"
              else ["--manifest", str(manifest), "--snrs", "0,10", "--out", str(tmp_path / "sweep.csv")])
    proc = run_cli(command, *inputs, "--transcriber", transcriber, "--workdir", str(tmp_path / "w"), "--jobs", "1",
                   input="typed into asrlab\n", timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len(list(seen.iterdir())) == 2
    assert {p.read_text() for p in seen.iterdir()} == {""}


def test_noise_sweep_cli_and_rerun(tmp_path, echo_transcriber):
    wav = tmp_path / "clip.wav"
    write_wav(AudioBuffer(samples=tone(0.25)), str(wav))
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(
        json.dumps({"id": "clip", "audio_path": str(wav), "duration_sec": 0.25, "transcript": "babbling brook sounds"})
        + "\n",
        encoding="utf-8",
    )
    cmd = echo_transcriber({"clip": "babbling brook sounds"})
    outs = []
    for name in ("s1.csv", "s2.csv"):
        out = tmp_path / name
        proc = run_cli(
            "noise-sweep", "--manifest", str(manifest), "--transcriber", " ".join(cmd),
            "--workdir", str(tmp_path / ("work_" + name)), "--out", str(out),
            "--snrs", "0,10", "--seed", "3",
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert b"snr_db,file_id,wer" in outs[0]
    assert b"0,clip,0.000000" in outs[0]


def test_noise_kind_is_not_an_option(capsys):
    # the noise is drawn from --noise-dir when it is given, and is Gaussian otherwise
    with pytest.raises(SystemExit) as exc:
        cli._parse_args(required_argv("noise-sweep") + ["--noise-kind", "ambient"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --noise-kind" in capsys.readouterr().err


def test_noise_sweep_noise_dir_without_wav_file_exit_2_before_any_file_is_made(tmp_path, capsys):
    # a directory named like a noise file is no noise file
    _, manifest = one_clip_manifest(tmp_path)
    noise_dir = tmp_path / "noise"
    (noise_dir / "sub.wav").mkdir(parents=True)
    (noise_dir / "notes.txt").write_text("no noise here\n", encoding="utf-8")
    transcriber = make_script(tmp_path, "mark.py", f"open({str(tmp_path / 'transcribed')!r}, 'w')\n")
    argv = ["noise-sweep", "--manifest", str(manifest), "--transcriber", " ".join(transcriber), "--workdir",
            str(tmp_path / "w"), "--out", str(tmp_path / "o.csv"), "--snrs", "0", "--noise-dir", str(noise_dir)]
    before = tree(tmp_path)
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"asrlab noise-sweep: --noise-dir (config key sweep.noise_dir) holds no .wav file: {noise_dir}\n")
    assert tree(tmp_path) == before  # no mix, working directory, report or transcriber mark


def test_noise_sweep_missing_audio_exit_2_before_any_file_is_made(tmp_path, capsys):
    wav, manifest = one_clip_manifest(tmp_path)
    wav.unlink()
    transcriber = make_script(tmp_path, "mark.py", f"open({str(tmp_path / 'transcribed')!r}, 'w')\n")
    argv = ["noise-sweep", "--manifest", str(manifest), "--transcriber", " ".join(transcriber),
            "--workdir", str(tmp_path / "w"), "--out", str(tmp_path / "o.csv"), "--snrs", "0", "--jobs", "1"]
    before = tree(tmp_path)
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"asrlab noise-sweep: audio for clip not found: {wav}\n")
    assert tree(tmp_path) == before


@pytest.mark.parametrize("where,kind,fault", [
    ("clean", "stereo", "expected mono, got 2 channels"), ("clean", "no-frames", "holds no samples"),
    ("corpus", "stereo", "expected mono, got 2 channels"),
], ids=["clean-stereo", "clean-no-frames", "corpus-stereo"])
def test_noise_sweep_wav_header_refused_before_any_file_is_made(tmp_path, capsys, where, kind, fault):
    wav, manifest = one_clip_manifest(tmp_path)
    noise_dir = tmp_path / "noise"
    noise_dir.mkdir()
    write_wav(AudioBuffer(samples=tone(0.1)), str(noise_dir / "hum.wav"))
    if where == "corpus":
        bad = noise_dir / "n.wav"
        BAD_CLIPS[kind](bad)
        fault = f"--noise-dir (config key sweep.noise_dir) holds {bad}: {fault}"
    else:
        BAD_CLIPS[kind](wav)
        fault = f"audio for clip: {wav}: {fault}"
    transcriber = make_script(tmp_path, "mark.py", f"open({str(tmp_path / 'transcribed')!r}, 'w')\n")
    argv = ["noise-sweep", "--manifest", str(manifest), "--transcriber", " ".join(transcriber), "--workdir",
            str(tmp_path / "w"), "--out", str(tmp_path / "o.csv"), "--snrs", "0", "--noise-dir", str(noise_dir)]
    before = tree(tmp_path)
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"asrlab noise-sweep: {fault}\n")
    assert tree(tmp_path) == before  # no mix, working directory, report or transcriber mark


def test_noise_sweep_corrupt_wav_exit_2_names_file(tmp_path, empty_transcriber):
    bad = tmp_path / "bad.wav"
    bad.write_bytes(b"RIFFnotawav")
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(
        json.dumps({"id": "c", "audio_path": str(bad), "duration_sec": 1.0, "transcript": "t"}) + "\n",
        encoding="utf-8",
    )
    proc = run_cli(
        "noise-sweep", "--manifest", str(manifest), "--transcriber", " ".join(empty_transcriber),
        "--workdir", str(tmp_path / "w"), "--out", str(tmp_path / "o.csv"),
    )
    assert proc.returncode == 2
    assert str(bad) in proc.stderr and "internal error" not in proc.stderr


@pytest.mark.parametrize("where,snrs", [
    ("flag", "-inf"), ("flag", "nan"), ("flag", "0,0"), ("flag", "5,0,-0"), ("flag", ""), ("config", "0,0"),
    ("flag", "4000"), ("flag", "-4000"), ("config", "0,-3240"), ("flag", "5,5.0000001"),
])
def test_noise_sweep_bad_snr_list_exit_2_before_the_transcriber_starts(tmp_path, capsys, where, snrs):
    wav = tmp_path / "clip.wav"
    write_wav(AudioBuffer(samples=tone(0.25)), str(wav))
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(json.dumps({"id": "clip", "audio_path": str(wav), "duration_sec": 0.25,
                                    "transcript": "brook"}) + "\n", encoding="utf-8")
    mark = tmp_path / "transcribed"
    transcriber = " ".join(make_script(tmp_path, "mark.py", f"open({str(mark)!r}, 'w').write('x')\nprint('brook')\n"))
    workdir, out = tmp_path / "work", tmp_path / "o.csv"
    argv = ["noise-sweep", "--manifest", str(manifest), "--transcriber", transcriber,
            "--workdir", str(workdir), "--out", str(out), "--jobs", "2"]
    if where == "flag":
        argv.append(f"--snrs={snrs}")
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"sweep.snr_list = {snrs}\n", encoding="utf-8")
        argv += ["--config", str(cfg)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "--snrs (config key sweep.snr_list)" in err and "internal error" not in err
    assert not mark.exists() and not workdir.exists() and not out.exists()


@pytest.mark.parametrize("command", ["noise-sweep", "rnnt-check"])
def test_negative_seed_exit_2_naming_the_option(tmp_path, capsys, command):
    wav = tmp_path / "clip.wav"
    write_wav(AudioBuffer(samples=tone(0.25)), str(wav))
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(json.dumps({"id": "clip", "audio_path": str(wav), "duration_sec": 0.25,
                                    "transcript": "brook"}) + "\n", encoding="utf-8")
    mark = tmp_path / "transcribed"
    transcriber = " ".join(make_script(tmp_path, "mark.py", f"open({str(mark)!r}, 'w').write('x')\nprint('brook')\n"))
    workdir, out = tmp_path / "work", tmp_path / "o.csv"
    argv = {"noise-sweep": ["--manifest", str(manifest), "--transcriber", transcriber, "--workdir", str(workdir),
                            "--out", str(out), "--snrs", "0"],
            "rnnt-check": ["--lattices", "2", "--grad-checks", "1"]}[command]
    assert cli.main([command, *argv, "--seed=-1"]) == 2
    assert capsys.readouterr() == ("", f"asrlab {command}: --seed (config key seed) must lie in [0, inf], got -1\n")
    assert not mark.exists() and not workdir.exists() and not out.exists()


# --- rnnt-check ----------------------------------------------------------------

def test_rnnt_check_passes():
    proc = run_cli("rnnt-check", "--lattices", "60", "--grad-checks", "4", "--seed", "5")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "oracle-agreement: PASS" in proc.stdout
    assert "gradient-fd: PASS" in proc.stdout
    assert "likelihood-bound: PASS" in proc.stdout


@pytest.mark.parametrize("flag", ["--tol-log", "--tol-grad"])
def test_rnnt_check_gates_are_not_options(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli._parse_args(["rnnt-check", flag, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_rnnt_check_validation():
    proc = run_cli("rnnt-check", "--lattices", "0")
    assert proc.returncode == 2


# stdout of the per-lattice DP and finite-difference loops that the batched passes replaced;
# the last case spreads its lattices over several DP blocks and finite-difference batches
_RNNT_BENCH_SIZE = ["--lattices", "3000", "--grad-checks", "30", "--t-max", "6", "--u-max", "4", "--v-max", "4"]


@pytest.mark.parametrize("argv,expected", [
    ([*_RNNT_BENCH_SIZE, "--seed", "0"], ("7.105e-15", "2.433e-10", 30)),
    ([*_RNNT_BENCH_SIZE, "--seed", "3"], ("8.882e-15", "3.705e-10", 30)),
    ([*_RNNT_BENCH_SIZE, "--seed", "7"], ("8.882e-15", "2.653e-10", 30)),
    ([*_RNNT_BENCH_SIZE[:2], "--grad-checks", "2", *_RNNT_BENCH_SIZE[4:8], "--v-max", "60", "--seed", "1"],
     ("4.974e-14", "3.195e-10", 2)),
])
def test_rnnt_check_prints_the_unbatched_lines(argv, expected, capsys):
    dev, rel, grad_checks = expected
    assert cli.main(["rnnt-check", *argv]) == 0
    assert capsys.readouterr().out == (
        f"oracle-agreement: PASS max_abs_dev={dev} (n=3000, tol=1e-09)\n"
        f"gradient-fd: PASS max_rel_err={rel} (n={grad_checks}, tol=0.0001)\n"
        "likelihood-bound: PASS\n"
    )


def test_rnnt_check_memory_is_flat_in_lattices():
    # both sizes fill several oracle blocks; one block's draws are about 8 * BATCH_CELLS bytes
    def traced_peak(lattices):
        argv = ["rnnt-check", "--lattices", str(lattices), "--grad-checks", "1",
                "--t-max", "6", "--u-max", "4", "--v-max", "4"]
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced_peak(50)  # numpy and the alignment tables load outside the measured runs
    small, large = traced_peak(20000), traced_peak(40000)
    assert large < 1.1 * small
    assert large < 4 * 8 * BATCH_CELLS


def test_noise_sweep_jobs_do_not_change_report(tmp_path, echo_transcriber):
    # each run starts a fresh interpreter, where with --jobs 2 the pool's threads make the first numpy use
    records = []
    for i in range(3):
        wav = tmp_path / f"clip{i}.wav"
        write_wav(AudioBuffer(samples=tone(0.25, freq_hz=300.0 + 50 * i)), str(wav))
        records.append({"id": f"clip{i}", "audio_path": str(wav), "duration_sec": 0.25, "transcript": "brook sounds"})
    manifest = tmp_path / "m.jsonl"
    manifest.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    cmd = echo_transcriber({r["id"]: r["transcript"] for r in records})
    outs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}.csv"
        proc = run_cli(
            "noise-sweep", "--manifest", str(manifest), "--transcriber", " ".join(cmd),
            "--workdir", str(tmp_path / f"work{jobs}"), "--out", str(out), "--snrs=0,10", "--jobs", jobs,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def sweep_with_failed_rows(tmp_path, capsys, *options):
    """Run noise-sweep over two clips at 0 and +10 dB, --jobs 2, where clip1 fails at every SNR and clip0 at +10 dB.

    Returns the report's `# config=` line as written, the part of that config both noise sources share,
    the report's body and the sha256 of the mixes, read in name order.
    """
    records = []
    for i, text in enumerate(["alpha beta gamma", "brook sounds"]):
        wav = tmp_path / f"clip{i}.wav"
        write_wav(AudioBuffer(samples=tone(0.25, freq_hz=300.0 + 50 * i)), str(wav))
        records.append({"id": f"clip{i}", "audio_path": str(wav), "duration_sec": 0.25 * (i + 1), "transcript": text})
    manifest = tmp_path / "m.jsonl"
    manifest.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    transcriber = " ".join(make_script(tmp_path, "flaky.py", (
        "import os, sys\n"
        "stem = os.path.splitext(os.path.basename(sys.argv[1]))[0]\n"
        "if stem.startswith('clip1') or stem.endswith('_snr+10'):\n"
        "    sys.exit(3)\n"
        "print('Alpha beta delta')\n"
    )))
    out = tmp_path / "sweep.csv"
    argv = ["noise-sweep", "--manifest", str(manifest), "--transcriber", transcriber, "--workdir",
            str(tmp_path / "work"), "--out", str(out), "--snrs", "0,10", "--seed", "9", "--jobs", "2", *options]
    assert cli.main(argv) == 0, capsys.readouterr().err
    assert capsys.readouterr().out == f"rows=4 out={out}\n"
    version, seed, config, *body = out.read_bytes().decode("utf-8").split("\n")
    assert (version, seed) == (f"# asrlab {asrlab.__version__}", "# seed=9")
    shared = {"manifest": str(manifest), "rules": None, "snrs": [0.0, 10.0], "transcriber": transcriber}
    mixes = sorted((tmp_path / "work").iterdir())
    assert [p.name for p in mixes] == ["clip0_snr+0.wav", "clip0_snr+10.wav", "clip1_snr+0.wav", "clip1_snr+10.wav"]
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in mixes)).hexdigest()
    return config, shared, "\n".join(body), digest


# the report body of both noise sources: the transcriber fails or answers alike whatever the mix holds
FAILED_ROWS_BODY = (
    "snr_db,file_id,wer\r\n"
    "0,clip0,0.333333\r\n"
    "0,clip1,failed\r\n"
    "10,clip0,failed\r\n"
    "10,clip1,failed\r\n"
    "\r\n"
    "snr_db,aggregate_wer\r\n"
    "0,0.333333\r\n"
    "10,n/a\r\n"
)


def test_noise_sweep_report_bytes_with_failed_rows(tmp_path, capsys):
    # the 10 dB aggregate has no row to weigh
    config, shared, body, digest = sweep_with_failed_rows(tmp_path, capsys)
    assert config == "# config=" + json.dumps({**shared, "noise_dir": None}, sort_keys=True)
    assert body == FAILED_ROWS_BODY
    assert digest == "d4e10323726f928aeff0d4ec0b1397bca53f7646c38ef017bc48774063e1eb3b"


def test_noise_sweep_ambient_report_bytes_with_failed_rows(tmp_path, capsys):
    # two noise files of unlike lengths, so the per-(file, SNR) draw picks between them and each is looped or cut
    noise_dir = tmp_path / "noise"
    noise_dir.mkdir()
    write_wav(AudioBuffer(samples=tone(0.1, freq_hz=97.0, amplitude=0.2)), str(noise_dir / "hum.wav"))
    write_wav(AudioBuffer(samples=tone(0.4, freq_hz=1234.0, amplitude=0.5)), str(noise_dir / "whine.wav"))
    config, shared, body, digest = sweep_with_failed_rows(tmp_path, capsys, "--noise-dir", str(noise_dir))
    assert config == "# config=" + json.dumps({**shared, "noise_dir": str(noise_dir)}, sort_keys=True)
    assert body == FAILED_ROWS_BODY
    assert digest == "a7939523331e9b6d21d7640753944a39d7a013b6672ae8f6c3a2845611ea15c7"


# --- option table and --config ---------------------------------------------------

SAMPLE_VALUES = {  # option type -> (config value, flag value) as typed, then as parsed
    float: (("0.25", "0.75"), (0.25, 0.75)),
    int: (("1234", "4321"), (1234, 4321)),
    cli.float_list: (("1,2", "3"), ([1.0, 2.0], [3.0])),
    cli.pattern_list: (("a;;b", "c"), (["a", "b"], ["c"])),
    None: (("from-config", "from-flag"), ("from-config", "from-flag")),
}


def required_argv(name):
    """The subcommand with a placeholder for each required option."""
    argv = [name]
    for flag, _, kwargs in cli._COMMANDS[name][2]:
        if kwargs.get("required"):
            argv += [flag, "1"]
    return argv


def parse_with_config(argv):
    """The namespace `cli.main` runs a command with: the flags, then the --config file's values."""
    return cli._with_config(cli._parse_args(argv), argv)


CONFIG_OPTIONS = [
    pytest.param(name, flag, key, kwargs, id=f"{name}:{key}")
    for name, (_, _, options) in cli._COMMANDS.items()
    for flag, key, kwargs in options
    if key is not None
]


@pytest.mark.parametrize("name,flag,key,kwargs", CONFIG_OPTIONS)
def test_config_key_takes_effect_and_flag_overrides(tmp_path, name, flag, key, kwargs):
    if "choices" in kwargs:
        raw = parsed = tuple(reversed(kwargs["choices"]))
    else:
        raw, parsed = SAMPLE_VALUES[kwargs.get("type")]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {raw[0]}\n", encoding="utf-8")
    argv = required_argv(name)
    dest = flag[2:].replace("-", "_")
    assert getattr(parse_with_config(argv), dest) != parsed[0]
    assert getattr(parse_with_config(argv + ["--config", str(cfg)]), dest) == parsed[0]
    assert getattr(parse_with_config(argv + ["--config", str(cfg), f"{flag}={raw[1]}"]), dest) == parsed[1]


@pytest.mark.parametrize(
    "text,where",
    [("oops\n", "'oops'"), ("planner.wpm = abc\n", "planner.wpm = 'abc'"),
     ("planner.wpm = 150\nplanner.wpmx = 5\n", "unknown config key 'planner.wpmx'"),
     ("# run\nplanner.wpm = 150\nplanner.wpmx = 5\n", "bad.cfg:3: unknown config key 'planner.wpmx'"),
     ("planner.wpm = 100\nplanner.tpw = 1.3\nplanner.wpm = 200\n", "bad.cfg:3: config key 'planner.wpm' is repeated"),
     ("sweep.noise_kind = ambient\n", "bad.cfg:1: unknown config key 'sweep.noise_kind'")],
    ids=["no-equals", "uncastable", "unknown-key", "unknown-key-line", "repeated-key", "removed-key"],
)
def test_bad_config_is_validation_error(tmp_path, text, where):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text, encoding="utf-8")
    proc = run_cli("plan-data", "--params", "264000000", "--config", str(cfg))
    assert proc.returncode == 2
    assert str(cfg) in proc.stderr and where in proc.stderr
    assert "internal error" not in proc.stderr


def test_config_key_of_another_subcommand_is_ignored(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("curation.wpm_min = 40\nsweep.snr_list = 0,5\nplanner.wpm = 150\n", encoding="utf-8")
    assert parse_with_config(["plan-data", "--params", "1000", "--config", str(cfg)]).wpm == 150.0


@pytest.mark.parametrize("value", ["nan", "inf", "5", "-0.5"])
@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", ["evaluate", "ppn-score"])
def test_out_of_range_sim_threshold_exit_2_writes_nothing(tmp_path, capsys, command, source, value):
    argv, out, _ = report_header_case(tmp_path, command)
    if command == "evaluate":
        gold = tmp_path / "gold.tsv"
        gold.write_text("r0\t0\t12\tPerson\tNicolas Cage\n", encoding="utf-8")
        argv += ["--gold-entities", str(gold), "--pred-entities", str(gold)]
    if source == "flag":
        argv.append(f"--sim-threshold={value}")
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"entities.sim_threshold = {value}\n", encoding="utf-8")
        argv += ["--config", str(cfg)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "--sim-threshold" in err and "entities.sim_threshold" in err and "[0, 1]" in err
    assert not out.exists()


def test_sim_threshold_refusals_keep_their_bytes(tmp_path, capsys):
    argv, _, _ = report_header_case(tmp_path, "ppn-score")
    assert cli.main(argv + ["--sim-threshold", "5"]) == 2
    assert capsys.readouterr() == (
        "", "asrlab ppn-score: --sim-threshold (config key entities.sim_threshold) must lie in [0, 1], got 5.0\n")
    for value, shown in ((5.0, "5.0"), (-0.5, "-0.5"), (math.nan, "nan")):
        with pytest.raises(ValueError) as exc:
            align_entities([], [], sim_threshold=value)
        assert str(exc.value) == f"sim_threshold must lie in [0, 1], got {shown}"


@pytest.mark.parametrize("offset", ["-5", "1_0", " 7", "\u0663", "+3"])
@pytest.mark.parametrize("command", ["evaluate", "ppn-score"])
def test_entity_offset_that_is_not_ascii_digits_exit_2_naming_its_line(tmp_path, capsys, command, offset):
    argv, out, _ = report_header_case(tmp_path, command)
    gold = tmp_path / "gold.tsv"
    gold.write_text(f"r0\t0\t12\tPerson\tNicolas Cage\nr0\t{offset}\t20\tGPE\tParis\n", encoding="utf-8")
    if command == "evaluate":
        argv += ["--gold-entities", str(gold), "--pred-entities", str(gold)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert f"{gold}:2:" in err and repr(offset) in err
    assert not out.exists()


def checked_options():
    for name, (_, _, options) in cli._COMMANDS.items():
        for flag, key, kwargs in options:
            if "check" in kwargs:
                # a config file that is not UTF-8 is refused as it is read, so --blocklist's check sees flags only
                for source in ("flag", "config") if key and flag != "--blocklist" else ("flag",):
                    yield pytest.param(name, flag, key, kwargs, source, id=f"{name}:{flag}:{source}")


def refused_value(kwargs, candidates):
    """The first candidate that the option's type parses and its check refuses, with the check's fault."""
    for raw in candidates:
        try:
            value = kwargs.get("type", str)(raw)
        except ValueError:
            continue
        if fault := kwargs["check"](value):
            return raw, fault
    raise AssertionError(f"the check refuses none of {candidates}")


@pytest.mark.parametrize("name,flag,key,kwargs,source", list(checked_options()))
def test_checked_option_refused_before_any_work(tmp_path, capsys, name, flag, key, kwargs, source):
    # every other option without a default is given: an existing file for an input, a transcriber
    # that leaves a mark, and otherwise a path under tmp_path that the run would create
    given = tmp_path / "given.txt"
    given.write_text("x\n", encoding="utf-8")
    transcriber = " ".join(make_script(tmp_path, "mark.py", f"open({str(tmp_path / 'transcribed')!r}, 'w')\n"))
    argv = [name]
    for other, _, other_kwargs in cli._COMMANDS[name][2]:
        if other == flag or "default" in other_kwargs:
            continue
        if other_kwargs.get("check") is cli._file_fault:
            argv += [other, str(given)]
        elif other == "--transcriber":
            argv += [other, transcriber]
        else:
            argv += [other, "1000" if "type" in other_kwargs else str(tmp_path / other[2:])]
    raw, fault = refused_value(kwargs, [str(tmp_path / "missing.txt"), "nan", "-1", "", "\udcff"])
    if source == "flag":
        argv.append(f"{flag}={raw}")
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {raw}\n", encoding="utf-8")
        argv += ["--config", str(cfg)]
    before = tree(tmp_path)
    assert cli.main(argv) == 2
    named = f"{flag} (config key {key})" if key else flag
    assert capsys.readouterr() == ("", f"asrlab {name}: {named} {fault}\n")
    assert tree(tmp_path) == before  # no output, working directory or transcriber mark


# Values a typed option may be given, as flag text or config text: NaN, the infinities,
# the largest float, negative zero, ints past float range and past int()'s digit limit,
# and empty and blank strings.
HOSTILE_VALUES = ["nan", "NaN", "inf", "-inf", "1e308", "-1e308", "-0", "-0.0",
                  "9" * 400, "-" + "9" * 400, "9" * 5000, "", " "]
HOSTILE_TYPES = (int, float, cli.float_list, cli.pattern_list)
# options that set how much work, how many threads or how many processes a run makes: an
# int above the cap is not drawn for them
HOSTILE_CAPS = {"--lattices": 20, "--grad-checks": 2, "--v-max": 4, "--jobs": 2}


def hostile_values(flag):
    def above_cap(raw):
        try:
            return int(raw) > HOSTILE_CAPS[flag]
        except ValueError:
            return False

    return [raw for raw in HOSTILE_VALUES if not (flag in HOSTILE_CAPS and above_cap(raw))]


HOSTILE_OPTIONS = {
    name: [(flag, key) for flag, key, kwargs in options if kwargs.get("type") in HOSTILE_TYPES]
    for name, (_, _, options) in cli._COMMANDS.items()
}


@pytest.fixture(scope="module")
def small_inputs(tmp_path_factory):
    """Each subcommand's argv on small valid files, with its outputs to go in a directory given later."""
    root = tmp_path_factory.mktemp("hostile")
    wav, manifest = one_clip_manifest(root)
    hyps, entities = root / "hyps.tsv", root / "entities.tsv"
    hyps.write_text("clip\tbrook\n", encoding="utf-8")
    entities.write_text("clip\t0\t1\tPerson\tbrook\n", encoding="utf-8")
    speech = root / "speech.wav"
    write_wav(AudioBuffer(samples=tone(2.0)), str(speech))
    transcriber = " ".join(make_script(root, "say.py", "print('brook')\n"))
    with_entities = ["--gold-entities", str(entities), "--pred-entities", str(entities)]
    return {
        "plan-data": (["--params", "264000000"], []),
        "evaluate": (["--manifest", str(manifest), "--hyps", str(hyps), *with_entities], ["--out"]),
        "ppn-score": ([*with_entities, "--manifest", str(manifest)], ["--out"]),
        "curate": (["--manifest", str(manifest)], ["--out-manifest", "--report"]),
        "noise-sweep": (["--manifest", str(manifest), "--transcriber", transcriber, "--snrs", "10", "--jobs", "1"],
                        ["--workdir", "--out"]),
        "stitch": (["--audio", str(speech), "--transcriber", transcriber, "--jobs", "1"], ["--workdir", "--out"]),
        "rnnt-check": (["--lattices", "5", "--grad-checks", "1", "--v-max", "3"], []),
    }


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_hostile_option_values_exit_0_or_2_with_one_message(small_inputs, data):
    name = data.draw(st.sampled_from(sorted(HOSTILE_OPTIONS)), label="command")
    options = data.draw(st.lists(st.sampled_from(HOSTILE_OPTIONS[name]), min_size=1, max_size=3, unique=True),
                        label="options")
    base, out_flags = small_inputs[name]
    with tempfile.TemporaryDirectory() as tmp:
        outs = [os.path.join(tmp, flag[2:]) for flag in out_flags]
        argv = [name, *base, *(part for flag, out in zip(out_flags, outs) for part in (flag, out))]
        config = []
        for flag, key in options:
            raw = data.draw(st.sampled_from(hostile_values(flag)), label=flag)
            if key is not None and data.draw(st.booleans(), label=f"{flag} from --config"):
                config.append(f"{key} = {raw}\n")
            else:
                argv.append(f"{flag}={raw}")
        if config:
            cfg = os.path.join(tmp, "run.cfg")
            with open(cfg, "w", encoding="utf-8") as fh:
                fh.writelines(config)
            argv += ["--config", cfg]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse refuses a value it cannot parse
                code = exc.code
        assert code in (0, 2), stderr.getvalue()
        if code == 2:
            messages = [line for line in stderr.getvalue().splitlines() if line.startswith(f"asrlab {name}: ")]
            assert len(messages) == 1, stderr.getvalue()
            assert stdout.getvalue() == ""
            assert [out for out in outs if os.path.isfile(out)] == []


@pytest.mark.parametrize("name", ["evaluate", "ppn-score", "curate"])
def test_seed_only_where_randomness_is(name, capsys):
    with pytest.raises(SystemExit) as exc:
        cli._parse_args(required_argv(name) + ["--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


def report_header_case(tmp_path, command):
    """argv of a run of `command` that writes a report, the report's path, and its column row."""
    if command == "evaluate":
        manifest, hyps = write_eval_inputs(tmp_path)
        out = tmp_path / "report.csv"
        return ["evaluate", "--manifest", str(manifest), "--hyps", str(hyps), "--out", str(out)], out, \
            "file_id,audio_sec,wer,pn_jaro,pn_wer"
    if command == "ppn-score":
        gold, pred, out = tmp_path / "gold.tsv", tmp_path / "pred.tsv", tmp_path / "report.csv"
        gold.write_text("f1\t0\t12\tPerson\tNicolas Cage\n", encoding="utf-8")
        pred.write_text("f1\t0\t15\tPerson\tRidiculous Cage\n", encoding="utf-8")
        return ["ppn-score", "--gold-entities", str(gold), "--pred-entities", str(pred), "--out", str(out)], out, \
            "file_id,weight_sec,pn_jaro,pn_wer"
    if command == "curate":
        manifest, report = tmp_path / "in.jsonl", tmp_path / "rejects.csv"
        write_manifest(golden_manifest(), str(manifest))
        return ["curate", "--manifest", str(manifest), "--out-manifest", str(tmp_path / "kept.jsonl"),
                "--report", str(report)], report, "id,verdict,reasons,measured_values"
    wav, manifest = tmp_path / "clip.wav", tmp_path / "m.jsonl"
    write_wav(AudioBuffer(samples=tone(0.25)), str(wav))
    write_manifest([dataclasses.replace(rec, audio_path=str(wav)) for rec in golden_manifest()[:2]], str(manifest))
    transcriber = " ".join(make_script(tmp_path, "say.py", "print('words')\n"))
    out = tmp_path / "sweep.csv"
    return ["noise-sweep", "--manifest", str(manifest), "--transcriber", transcriber, "--workdir", str(tmp_path / "w"),
            "--out", str(out), "--snrs", "0", "--seed", "5", "--jobs", "1"], out, "snr_db,file_id,wer"


@pytest.mark.parametrize("command", ["evaluate", "ppn-score", "curate", "noise-sweep"])
def test_report_starts_with_version_seed_and_config_header(tmp_path, capsys, command):
    argv, report, columns = report_header_case(tmp_path, command)
    assert cli.main(argv) == 0, capsys.readouterr().err
    lines = report.read_text(encoding="utf-8").splitlines()
    expected = [f"# asrlab {asrlab.__version__}", *(["# seed=5"] if command == "noise-sweep" else [])]
    assert lines[: len(expected)] == expected
    config_line, column_row = lines[len(expected) : len(expected) + 2]
    assert config_line.startswith("# config=")
    config = json.loads(config_line[len("# config="):])
    assert config and list(config) == sorted(config)
    assert not {"command", "func", "out", "report", "out_manifest", "workdir", "jobs", "seed", "config"} & set(config)
    assert column_row == columns
    assert not any(line.startswith("#") for line in lines[len(expected) + 1 :])


@pytest.mark.parametrize(
    "names,message",
    [(["0.txt", "1.txt", "01.txt"], "share index 1"), (["0.txt", "2.txt"], "index 1 is missing"),
     (["0.txt", "+1.txt"], "must be <index>.txt"), (["0.txt", "0_1.txt"], "must be <index>.txt"),
     (["0.txt", "\uff11.txt"], "must be <index>.txt")],
    ids=["duplicate", "missing", "signed", "underscore", "non-ascii-digit"],
)
def test_stitch_bad_partial_indices_exit_2(tmp_path, names, message):
    pdir = tmp_path / "partials"
    pdir.mkdir()
    for name in names:
        (pdir / name).write_text("some words here", encoding="utf-8")
    proc = run_cli("stitch", "--partials-dir", str(pdir))
    assert proc.returncode == 2
    assert message in proc.stderr
    assert all(name in proc.stderr for name in names[1:])


@pytest.mark.parametrize(
    "flag,value",
    [("--t-max", "0"), ("--t-max", "1"), ("--t-max", "7"), ("--u-max", "0"), ("--u-max", "6"), ("--v-max", "1")],
)
def test_rnnt_check_shape_limits_exit_2(flag, value, capsys):
    assert cli.main(["rnnt-check", "--lattices", "2", "--grad-checks", "1", flag, value]) == 2
    err = capsys.readouterr().err
    assert flag in err and "internal error" not in err


def test_rnnt_check_accepts_largest_shapes(capsys):
    argv = ["rnnt-check", "--lattices", "5", "--grad-checks", "1", "--t-max", "6", "--u-max", "4", "--v-max", "2"]
    assert cli.main(argv) == 0, capsys.readouterr()


def test_stitch_min_match_zero_exit_2(tmp_path, capsys):
    pdir = tmp_path / "partials"
    pdir.mkdir()
    (pdir / "0.txt").write_text("a b c", encoding="utf-8")
    (pdir / "1.txt").write_text("x y z", encoding="utf-8")
    assert cli.main(["stitch", "--partials-dir", str(pdir), "--min-match", "0"]) == 2
    assert "min_match_tokens" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line,message",
    [("f1\tx\t12\tPerson\tNicolas Cage\n", "invalid literal"), ("f1\t12\t0\tPerson\tNicolas Cage\n", "inverted"),
     ("f1\t0\t12\tPerson\n", "expected 5")],
    ids=["bad-start", "inverted", "four-fields"],
)
def test_malformed_entity_file_exit_2(tmp_path, capsys, line, message):
    good = tmp_path / "good.tsv"
    good.write_text("f1\t0\t12\tPerson\tNicolas Cage\n", encoding="utf-8")
    bad = tmp_path / "bad.tsv"
    bad.write_text("f0\t0\t5\tGPE\tParis\n" + line, encoding="utf-8")
    assert cli.main(["ppn-score", "--gold-entities", str(good), "--pred-entities", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"{bad}:2:" in err and message in err


def test_malformed_rule_file_exit_2(tmp_path, capsys):
    manifest, hyps = write_eval_inputs(tmp_path)
    rules = tmp_path / "rules.txt"
    rules.write_text("# comment\nstray\n[fillers]\num\n", encoding="utf-8")
    assert cli.main(["evaluate", "--manifest", str(manifest), "--hyps", str(hyps), "--rules", str(rules)]) == 2
    err = capsys.readouterr().err
    assert f"{rules}:2:" in err and "before a section header" in err


def test_rule_file_that_is_not_idempotent_exit_2(tmp_path, capsys):
    manifest, hyps = write_eval_inputs(tmp_path)
    rules = tmp_path / "rules.txt"
    rules.write_text("[contractions]\nfoo\tum, yes\n[fillers]\num\n", encoding="utf-8")
    assert cli.main(["evaluate", "--manifest", str(manifest), "--hyps", str(hyps), "--rules", str(rules)]) == 2
    err = capsys.readouterr().err
    assert "'foo'" in err and "internal error" not in err


@pytest.mark.parametrize(
    "flag,value",
    [("--overlap", "30"), ("--overlap", "0"), ("--chunk-len", "5"), ("--min-match", "0")],
    ids=["overlap-past-chunk", "zero-overlap", "chunk-not-past-overlap", "min-match-zero"],
)
def test_stitch_audio_flags_checked_before_any_work(tmp_path, capsys, flag, value):
    # an unreadable WAV and a transcriber that leaves a mark: neither may be touched
    wav = tmp_path / "bad.wav"
    wav.write_bytes(b"RIFFnotawav")
    mark = tmp_path / "transcribed"
    transcriber = make_script(tmp_path, "mark.py", f"open({str(mark)!r}, 'w').write('x')\nprint('a b c')\n")
    argv = ["stitch", "--audio", str(wav), "--transcriber", " ".join(transcriber), flag, value]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert flag in err and "internal error" not in err
    assert not mark.exists()


def test_stitch_audio_stride_below_one_sample_exit_2_before_any_chunk(tmp_path):
    wav = tmp_path / "clip.wav"
    write_wav(AudioBuffer(samples=tone(3.0, amplitude=0.4)), str(wav))
    mark, workdir = tmp_path / "transcribed", tmp_path / "work"
    transcriber = " ".join(make_script(tmp_path, "mark.py", f"open({str(mark)!r}, 'w').write('x')\nprint('a b c')\n"))
    # a plan with such a stride grows without bound: cap the child's memory and time
    proc = run_cli("stitch", "--audio", str(wav), "--transcriber", transcriber, "--workdir", str(workdir),
                   "--chunk-len", "2e-12", "--overlap", "1e-12", "--jobs", "1", timeout=60,
                   preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)))
    assert proc.returncode == 2
    assert proc.stderr == ("asrlab stitch: need --chunk-len - --overlap >= 1/16000 s, one sample (config keys "
                           "stitch.chunk_len_sec, stitch.overlap_sec), got 2e-12 and 1e-12\n")
    assert not mark.exists() and not workdir.exists()


def test_stitch_audio_stride_rule_runs_before_the_vad_pass(tmp_path, capsys, monkeypatch):
    wav = tmp_path / "clip.wav"
    write_wav(AudioBuffer(samples=tone(3.0, amplitude=0.4)), str(wav))
    monkeypatch.setattr(cli, "voiced_ranges", lambda path: pytest.fail("the VAD pass ran"))
    argv = ["stitch", "--audio", str(wav), "--transcriber", "true", "--chunk-len", "2e-12", "--overlap", "1e-12"]
    assert cli.main(argv) == 2
    assert "one sample" in capsys.readouterr().err


def test_noise_sweep_empty_reference_exit_2_before_sweep(tmp_path, capsys):
    records = []
    for rid, transcript in (("ok", "brook sounds"), ("fillers", "uh um")):
        wav = tmp_path / f"{rid}.wav"
        write_wav(AudioBuffer(samples=tone(0.25)), str(wav))
        records.append({"id": rid, "audio_path": str(wav), "duration_sec": 0.25, "transcript": transcript})
    manifest = tmp_path / "m.jsonl"
    manifest.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    mark = tmp_path / "transcribed"
    transcriber = make_script(tmp_path, "mark.py", f"open({str(mark)!r}, 'w').write('x')\nprint('brook')\n")
    workdir, out = tmp_path / "w", tmp_path / "o.csv"
    argv = ["noise-sweep", "--manifest", str(manifest), "--transcriber", " ".join(transcriber),
            "--workdir", str(workdir), "--out", str(out), "--snrs", "0"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "'fillers'" in err and "empty after normalization" in err
    assert not mark.exists() and not workdir.exists() and not out.exists()


def one_clip_manifest(tmp_path, rid="clip"):
    """A manifest of one 0.25 s tone clip with the id `rid`."""
    wav, manifest = tmp_path / "clip.wav", tmp_path / "m.jsonl"
    write_wav(AudioBuffer(samples=tone(0.25)), str(wav))
    manifest.write_text(json.dumps({"id": rid, "audio_path": str(wav), "duration_sec": 0.25,
                                    "transcript": "brook"}) + "\n", encoding="utf-8")
    return wav, manifest


@pytest.mark.parametrize("rid", ["/x/y", "../up", "a/b", "a\0b"])
def test_noise_sweep_id_that_is_not_a_file_name_exit_2_before_any_mix(tmp_path, capsys, rid):
    # each mix is named <id>_snr<dB>.wav in --workdir: ../up would land beside it, /x/y in /x
    _, manifest = one_clip_manifest(tmp_path, rid)
    transcriber = make_script(tmp_path, "mark.py", f"open({str(tmp_path / 'transcribed')!r}, 'w')\n")
    workdir = tmp_path / "w"
    argv = ["noise-sweep", "--manifest", str(manifest), "--transcriber", " ".join(transcriber),
            "--workdir", str(workdir), "--out", str(tmp_path / "o.csv"), "--snrs", "0", "--jobs", "2"]
    before = tree(tmp_path)
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        f"asrlab noise-sweep: record id {rid!r} is not a plain file name, so it cannot name a mix in {workdir}\n")
    assert tree(tmp_path) == before  # no mix, working directory, report or transcriber mark


@pytest.mark.parametrize("command", ["noise-sweep", "stitch"])
@pytest.mark.parametrize("value,fault", [
    ("   ", "names no command"), ("'unclosed", "cannot be split into words: No closing quotation"),
])
def test_transcriber_that_names_no_command_exit_2_before_any_work(tmp_path, capsys, command, value, fault):
    # test_checked_option_refused_before_any_work drives "". Run as given, a blank
    # value would make the mixed or chunk WAV itself the program.
    wav, manifest = one_clip_manifest(tmp_path)
    inputs = ["--manifest", str(manifest), "--out", str(tmp_path / "o.csv")] if command == "noise-sweep" else \
        ["--audio", str(wav)]
    before = tree(tmp_path)
    assert cli.main([command, *inputs, "--transcriber", value, "--workdir", str(tmp_path / "w")]) == 2
    assert capsys.readouterr().err == f"asrlab {command}: --transcriber {fault}\n"
    assert tree(tmp_path) == before


@pytest.mark.parametrize("which", ["--hyps", "--refs"])
def test_evaluate_repeated_id_exit_2(tmp_path, capsys, which):
    manifest, hyps = write_eval_inputs(tmp_path)
    tsv = tmp_path / "repeated.tsv"
    tsv.write_text(hyps.read_text(encoding="utf-8") + "r1\ta different text\n", encoding="utf-8")
    inputs = {"--hyps": str(hyps), "--refs": str(hyps), which: str(tsv)}
    assert cli.main(["evaluate", "--manifest", str(manifest), *(x for kv in inputs.items() for x in kv)]) == 2
    err = capsys.readouterr().err
    assert f"{tsv}:4:" in err and "'r1'" in err and "repeated" in err


# --- repeated manifest ids -------------------------------------------------------

def write_repeated_id_manifest(tmp_path):
    """Two records that share the id 'a', with different transcripts and durations."""
    manifest = tmp_path / "m.jsonl"
    records = []
    for transcript, duration in (("one two three", 10.0), ("four five six", 30.0)):
        wav = tmp_path / f"{duration:g}.wav"
        write_wav(AudioBuffer(samples=tone(0.25)), str(wav))
        records.append({"id": "a", "audio_path": str(wav), "duration_sec": duration, "transcript": transcript})
    manifest.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return manifest


def test_evaluate_repeated_manifest_id_exit_2(tmp_path, capsys):
    manifest = write_repeated_id_manifest(tmp_path)
    hyps = tmp_path / "hyps.tsv"
    hyps.write_text("a\tone two three\n", encoding="utf-8")
    out = tmp_path / "report.csv"
    argv = ["evaluate", "--manifest", str(manifest), "--hyps", str(hyps), "--out", str(out)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert str(manifest) in err and "'a'" in err and "repeated" in err
    assert not out.exists()


def test_noise_sweep_repeated_manifest_id_exit_2(tmp_path, capsys):
    manifest = write_repeated_id_manifest(tmp_path)
    mark = tmp_path / "transcribed"
    transcriber = make_script(tmp_path, "mark.py", f"open({str(mark)!r}, 'w').write('x')\nprint('one')\n")
    workdir = tmp_path / "w"
    argv = ["noise-sweep", "--manifest", str(manifest), "--transcriber", " ".join(transcriber),
            "--workdir", str(workdir), "--out", str(tmp_path / "o.csv"), "--snrs", "0", "--jobs", "2"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert str(manifest) in err and "'a'" in err and "repeated" in err
    assert not mark.exists() and not workdir.exists()


def test_curate_keeps_one_report_row_per_repeated_id(tmp_path):
    manifest = write_repeated_id_manifest(tmp_path)
    report = tmp_path / "r.csv"
    argv = ["curate", "--manifest", str(manifest), "--out-manifest", str(tmp_path / "k.jsonl"), "--report", str(report)]
    assert cli.main(argv) == 0
    rows = [line for line in report.read_text(encoding="utf-8").splitlines() if line.startswith("a,")]
    assert len(rows) == 2


NOT_AN_OBJECT = {"empty-array": "[]", "array": '["id"]', "string": '""', "deep": "[" * 100000}


def manifest_with_lines(tmp_path, edits):
    """The golden manifest with the line of each id in `edits` replaced by edits[id](line).

    Returns the path and each edited id's line number.
    """
    manifest = tmp_path / "in.jsonl"
    write_manifest(golden_manifest(), str(manifest))
    lines = manifest.read_text(encoding="utf-8").splitlines()
    line_nos = {}
    for i, line in enumerate(lines):
        rid = json.loads(line)["id"]
        if rid in edits:
            lines[i] = edits[rid](line)
            line_nos[rid] = i + 1
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest, line_nos


@pytest.mark.parametrize("line", NOT_AN_OBJECT.values(), ids=NOT_AN_OBJECT.keys())
def test_curate_non_object_line_is_a_parse_error_row(tmp_path, line):
    manifest, line_nos = manifest_with_lines(tmp_path, {"r7": lambda _: line})
    out_manifest = tmp_path / "kept.jsonl"
    report = tmp_path / "r.csv"
    argv = ["curate", "--manifest", str(manifest), "--out-manifest", str(out_manifest), "--report", str(report)]
    assert cli.main(argv) == 0
    rows = [r for r in report.read_text(encoding="utf-8").splitlines() if "parse-error" in r]
    assert len(rows) == 1 and rows[0].startswith(f"line-{line_nos['r7']},rejected,parse-error,")
    kept_ids = [json.loads(line)["id"] for line in out_manifest.read_text(encoding="utf-8").splitlines()]
    assert kept_ids == [rid for rid in EXPECTED_KEPT if rid != "r7"]


@pytest.mark.parametrize("line", NOT_AN_OBJECT.values(), ids=NOT_AN_OBJECT.keys())
def test_evaluate_non_object_manifest_line_exit_2(tmp_path, capsys, line):
    manifest, line_nos = manifest_with_lines(tmp_path, {"r7": lambda _: line})
    hyps = tmp_path / "hyps.tsv"
    hyps.write_text("".join(f"{r.id}\t{r.transcript}\n" for r in golden_manifest()), encoding="utf-8")
    assert cli.main(["evaluate", "--manifest", str(manifest), "--hyps", str(hyps)]) == 2
    err = capsys.readouterr().err
    assert str(manifest) in err and f"line-{line_nos['r7']}:" in err and "internal error" not in err


def test_curate_kept_manifest_holds_only_finite_numbers(tmp_path):
    def set_time(word, side, value):
        def edit(line):
            obj = json.loads(line)
            obj["word_times"][word][side] = value
            return json.dumps(obj)  # writes the non-JSON constant -Infinity or Infinity
        return edit

    edits = {"r2": set_time(0, 0, -math.inf), "r7": set_time(-1, 1, math.inf)}
    manifest, line_nos = manifest_with_lines(tmp_path, edits)
    out_manifest = tmp_path / "kept.jsonl"
    report = tmp_path / "r.csv"
    argv = ["curate", "--manifest", str(manifest), "--out-manifest", str(out_manifest), "--report", str(report)]
    assert cli.main(argv) == 0

    def reject(constant):
        raise ValueError(f"kept manifest holds {constant}")

    kept = [json.loads(line, parse_constant=reject) for line in out_manifest.read_text(encoding="utf-8").splitlines()]
    assert [obj["id"] for obj in kept] == [rid for rid in EXPECTED_KEPT if rid not in edits]
    rows = [r for r in report.read_text(encoding="utf-8").splitlines() if "parse-error" in r]
    assert rows == [f"line-{line_nos[rid]},rejected,parse-error,{rid}: word_times must be finite" for rid in edits]


def test_curate_lone_surrogate_is_a_parse_error_row(tmp_path):
    def prefix_surrogate(line):
        obj = json.loads(line)
        obj["transcript"] = "\ud800" + obj["transcript"]
        return json.dumps(obj)  # ASCII escapes: the file holds the six characters \ud800

    manifest, line_nos = manifest_with_lines(tmp_path, {"r7": prefix_surrogate})
    out_manifest = tmp_path / "kept.jsonl"
    report = tmp_path / "r.csv"
    argv = ["curate", "--manifest", str(manifest), "--out-manifest", str(out_manifest), "--report", str(report)]
    assert cli.main(argv) == 0
    rows = [line for line in report.read_text(encoding="utf-8").splitlines() if "parse-error" in line]
    assert rows == [f"line-{line_nos['r7']},rejected,parse-error,\"a text field holds a lone surrogate, which UTF-8 cannot encode\""]
    kept_ids = [json.loads(line)["id"] for line in out_manifest.read_text(encoding="utf-8").splitlines()]
    assert kept_ids == [rid for rid in EXPECTED_KEPT if rid != "r7"]


def test_curate_bad_blocklist_regex_exit_2(tmp_path, capsys):
    manifest = tmp_path / "in.jsonl"
    write_manifest(golden_manifest(), str(manifest))
    report = tmp_path / "r.csv"
    argv = ["curate", "--manifest", str(manifest), "--out-manifest", str(tmp_path / "k.jsonl"),
            "--report", str(report), "--blocklist", "ok;;("]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "'('" in err and "internal error" not in err
    assert not report.exists()


@pytest.mark.parametrize("blocklist", ["\udcff", "hello|\udcff", "ok;;x\udcff"])
def test_curate_blocklist_that_is_not_utf8_exit_2_writes_nothing(tmp_path, capsys, blocklist):
    # the text argv holds for a byte that is not UTF-8, as in `--blocklist $'\xff'`
    manifest = tmp_path / "in.jsonl"
    write_manifest(golden_manifest(), str(manifest))
    argv = ["curate", "--manifest", str(manifest), "--out-manifest", str(tmp_path / "k.jsonl"),
            "--report", str(tmp_path / "r.csv"), "--blocklist", blocklist]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "asrlab curate: --blocklist (config key curation.blocklist) is not valid UTF-8\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl"]


def tree(root):
    """Every path under root, with a file's bytes (None for a directory)."""
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None for p in sorted(root.rglob("*"))}


def failing_serializer():
    """A kept-record serializer that writes half a record, then runs out of disk on the next."""
    calls = []

    def serialize(rec):
        calls.append(rec)
        if len(calls) > 1:
            raise OSError("No space left on device")
        return '{"id": "half a rec'

    return serialize


@pytest.mark.parametrize("case", ["report-is-directory", "out-manifest-is-directory", "report-dir-missing", "write-fails"])
def test_curate_refused_run_changes_neither_output(tmp_path, capsys, monkeypatch, case):
    manifest = tmp_path / "in.jsonl"
    write_manifest(golden_manifest(), str(manifest))
    out = tmp_path / "out"
    out.mkdir()
    kept, report = out / "kept.jsonl", out / "r.csv"
    kept.write_bytes(b"old kept\n")
    report.write_bytes(b"old report\n")
    culprit = {"report-is-directory": out / "rdir", "out-manifest-is-directory": out / "kdir",
               "report-dir-missing": out / "missing" / "r.csv", "write-fails": None}[case]
    if case.endswith("is-directory"):
        culprit.mkdir()
    if case == "write-fails":
        monkeypatch.setattr(curation, "_manifest_line", failing_serializer())
    kept_arg = culprit if case == "out-manifest-is-directory" else kept
    report_arg = culprit if case.startswith("report") else report
    before = tree(out)
    assert cli.main(["curate", "--manifest", str(manifest), "--out-manifest", str(kept_arg),
                     "--report", str(report_arg)]) == 2
    err = capsys.readouterr().err
    assert str(culprit or "No space left on device") in err and "internal error" not in err
    assert tree(out) == before  # no output replaced, none truncated, no temporary file left


def run_curate(tmp_path, kept, report):
    manifest = tmp_path / "in.jsonl"
    write_manifest(golden_manifest(), str(manifest))
    assert cli.main(["curate", "--manifest", str(manifest), "--out-manifest", str(kept), "--report", str(report)]) == 0


@pytest.mark.parametrize("link", ["symlink", "hardlink"])
def test_curate_writes_through_a_linked_output(tmp_path, link):
    plain = tmp_path / "plain"
    plain.mkdir()
    run_curate(tmp_path, plain / "kept.jsonl", plain / "r.csv")
    real = tmp_path / "real"
    real.mkdir()
    target = real / "kept.jsonl"
    target.write_bytes(b"old kept\n")
    target.chmod(0o640)
    linked = tmp_path / "kept.jsonl"
    linked.symlink_to(target) if link == "symlink" else os.link(target, linked)
    run_curate(tmp_path, linked, tmp_path / "r.csv")
    assert linked.is_symlink() == (link == "symlink")
    assert target.read_bytes() == linked.read_bytes() == (plain / "kept.jsonl").read_bytes()
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert [p.name for p in real.iterdir()] == ["kept.jsonl"]


def test_curate_writes_a_fifo_report_in_place(tmp_path):
    plain = tmp_path / "plain"
    plain.mkdir()
    run_curate(tmp_path, plain / "kept.jsonl", plain / "r.csv")
    fifo = tmp_path / "r.fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # so the writer's open does not block
    try:
        run_curate(tmp_path, tmp_path / "kept.jsonl", fifo)
        got = b"".join(iter(lambda: os.read(reader, 65536), b""))
    finally:
        os.close(reader)
    assert got == (plain / "r.csv").read_bytes()
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert not list(tmp_path.glob(".*.tmp"))


@pytest.mark.parametrize("flag", ["--out-manifest", "--report"])
def test_curate_refuses_an_output_hard_linked_to_the_manifest(tmp_path, capsys, flag):
    # a hard-linked output is written in place, which would truncate the manifest before it is read
    manifest = tmp_path / "in.jsonl"
    write_manifest(golden_manifest(), str(manifest))
    before = manifest.read_bytes()
    link = tmp_path / "link"
    os.link(manifest, link)
    outputs = {"--out-manifest": str(tmp_path / "kept.jsonl"), "--report": str(tmp_path / "r.csv"), flag: str(link)}
    assert cli.main(["curate", "--manifest", str(manifest), *(x for item in outputs.items() for x in item)]) == 2
    err = capsys.readouterr().err
    assert str(link) in err and str(manifest) in err and "internal error" not in err
    assert manifest.read_bytes() == link.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl", "link"]  # nothing written, no temporary left


@pytest.mark.parametrize("link", ["same-path", "symlink", "hardlink"])
def test_curate_refuses_one_file_for_both_outputs(tmp_path, capsys, link):
    manifest = tmp_path / "in.jsonl"
    write_manifest(golden_manifest(), str(manifest))
    kept, report = tmp_path / "out.x", tmp_path / "other.x"
    kept.write_bytes(b"old kept\n")
    if link == "same-path":
        report = kept
    else:
        report.symlink_to(kept) if link == "symlink" else os.link(kept, report)
    argv = ["curate", "--manifest", str(manifest), "--out-manifest", str(kept), "--report", str(report)]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"asrlab curate: outputs {kept} and {report} are the same file: one would replace the other\n"
    assert kept.read_bytes() == report.read_bytes() == b"old kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted({"in.jsonl", kept.name, report.name})


def test_curate_may_write_both_outputs_to_one_device(tmp_path, capsys):
    manifest = tmp_path / "in.jsonl"
    write_manifest(golden_manifest(), str(manifest))
    argv = ["curate", "--manifest", str(manifest), "--out-manifest", os.devnull, "--report", os.devnull]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.startswith("kept=4 rejected=7 ")


def test_curate_output_may_be_the_manifest_itself(tmp_path):
    # a manifest with one link is staged: it is read whole before the kept records replace it
    plain = tmp_path / "plain"
    plain.mkdir()
    run_curate(tmp_path, plain / "kept.jsonl", plain / "r.csv")
    manifest = tmp_path / "in.jsonl"
    write_manifest(golden_manifest(), str(manifest))
    argv = ["curate", "--manifest", str(manifest), "--out-manifest", str(manifest), "--report", str(tmp_path / "r.csv")]
    assert cli.main(argv) == 0
    assert manifest.read_bytes() == (plain / "kept.jsonl").read_bytes()
    assert (tmp_path / "r.csv").read_bytes() == (plain / "r.csv").read_bytes()


def test_evaluate_refuses_an_out_hard_linked_to_an_input(tmp_path, capsys):
    manifest, hyps = write_eval_inputs(tmp_path)
    before = hyps.read_bytes()
    out = tmp_path / "report.csv"
    os.link(hyps, out)
    assert cli.main(["evaluate", "--manifest", str(manifest), "--hyps", str(hyps), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(out) in err and str(hyps) in err
    assert hyps.read_bytes() == before


@pytest.mark.parametrize("command", ["noise-sweep", "stitch"])
def test_directory_out_exits_2_before_the_transcriber_starts(tmp_path, capsys, command):
    wav = tmp_path / "clip.wav"
    write_wav(AudioBuffer(samples=tone(30.0, amplitude=0.4)), str(wav))
    mark = tmp_path / "transcribed"
    transcriber = " ".join(make_script(tmp_path, "mark.py", f"open({str(mark)!r}, 'w').write('x')\nprint('a b c')\n"))
    out = tmp_path / "outdir"
    out.mkdir()
    workdir = tmp_path / "work"
    if command == "noise-sweep":
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(json.dumps({"id": "clip", "audio_path": str(wav), "duration_sec": 30.0,
                                        "transcript": "a b c"}) + "\n", encoding="utf-8")
        argv = ["noise-sweep", "--manifest", str(manifest), "--snrs", "0,5,10", "--jobs", "1"]
    else:
        argv = ["stitch", "--audio", str(wav)]
    argv += ["--transcriber", transcriber, "--workdir", str(workdir), "--out", str(out)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert str(out) in err and "Is a directory" in err
    assert not mark.exists() and not workdir.exists()
    assert list(out.iterdir()) == []


# Lines of a random manifest: blank lines, malformed JSON, bytes that are not
# UTF-8, schema errors, and records that reach every filter (segmentable long
# ones too). Each field of a record is mostly one that passes, so that every
# filter down the chain gets records to judge.
CURATE_WORDS = ["alpha", "beta", "gamma", "café", "naïve"]


def mostly(good, *others):
    """`good` in three of every 3 + len(others) draws, else one of `others`."""
    return st.sampled_from([good] * 3 + list(others)).flatmap(lambda strategy: strategy)


@st.composite
def manifest_lines(draw) -> bytes:
    kind = draw(st.sampled_from(["blank", "not-json", "not-utf8", "bad-field", *["record"] * 6]))
    # a line ends in \n or \r\n; a lone \r ends none, so it joins its line to the next
    end = draw(st.sampled_from([b"\n", b"\n", b"\r\n", b"\r"]))
    if kind == "blank":
        return draw(st.sampled_from([b"", b"  ", b"\t"])) + end
    if kind == "not-json":
        return b'{"id": "half a rec' + end
    rid = f"r{draw(st.integers(0, 5))}"  # curate accepts a repeated id
    duration = draw(st.floats(0.5, 60.0))
    n = min(int(duration * draw(st.floats(20.0, 300.0)) / 60.0), 200)  # 50-250 words a minute pass
    words = draw(st.lists(st.sampled_from(CURATE_WORDS), min_size=n, max_size=n))
    if words and draw(st.integers(0, 9)) == 0:
        words[draw(st.integers(0, n - 1))] = "zzblocked"
    obj = {"id": rid, "audio_path": f"{rid}.wav", "duration_sec": duration, "transcript": " ".join(words)}
    obj["word_confidences"] = draw(mostly(
        st.sampled_from([0.79, 0.8, 0.95]).map(lambda c: [c] * n),
        st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n),
        st.none(),
    ))
    if n and draw(mostly(st.just(True), st.just(False))):  # without word times a long record is unsegmentable
        step = duration / n
        fill = draw(st.floats(0.05, 1.0))
        obj["word_times"] = [[i * step, i * step + fill * step] for i in range(n)]
    obj["source_lang"] = draw(mostly(st.sampled_from([None, "en"]), st.just("es")))
    obj["detected_lang"] = draw(mostly(
        st.tuples(st.just("en"), st.floats(0.5, 1.0)),
        st.none(),
        st.tuples(st.sampled_from(["en", "es"]), st.floats(0.0, 1.0)),
    ))
    obj["speech_ratio"] = draw(mostly(st.floats(0.7, 1.0), st.none(), st.floats(0.0, 1.0)))
    obj["max_silence_sec"] = draw(mostly(st.floats(0.0, 5.0), st.floats(0.0, 8.0)))
    if kind == "bad-field":
        obj[draw(st.sampled_from(["duration_sec", "extra"]))] = -1.0
    obj = {k: v for k, v in obj.items() if v is not None}
    line = json.dumps(obj, ensure_ascii=draw(st.booleans())).encode("utf-8")
    if kind == "not-utf8":
        line = line.replace(b'.wav"', b'\xff.wav"', 1)
    return line + end


@settings(max_examples=60, deadline=None)
@given(lines=st.lists(manifest_lines(), max_size=25), trailing_newline=st.booleans())
def test_streamed_curate_matches_the_list_pipeline(lines, trailing_newline):
    data = b"".join(lines)
    if not trailing_newline:
        data = data.rstrip(b"\r\n")
    with tempfile.TemporaryDirectory() as tmp:
        manifest, kept, report = (os.path.join(tmp, name) for name in ("in.jsonl", "kept.jsonl", "r.csv"))
        with open(manifest, "wb") as fh:
            fh.write(data)
        argv = ["curate", "--manifest", manifest, "--out-manifest", kept, "--report", report, "--blocklist", "zzblock"]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert cli.main(argv) == 0

        cfg = curation.PipelineConfig(blocklist=["zzblock"])
        records, outcomes = curation.run_pipeline(curation.read_manifest(manifest), cfg)
        list_kept, list_report = os.path.join(tmp, "list_kept.jsonl"), os.path.join(tmp, "list_r.csv")
        write_manifest(records, list_kept)
        curation.write_rejection_csv(outcomes, list_report)
        header = io.StringIO(newline="")
        cli._write_header(header, cli._parse_args(argv))
        n_rejected = sum(o.verdict == "rejected" for o in outcomes)
        with open(kept, "rb") as a, open(list_kept, "rb") as b:
            assert a.read() == b.read()
        with open(report, "rb") as a, open(list_report, "rb") as b:
            assert a.read() == header.getvalue().encode("utf-8") + b.read()
        assert stdout.getvalue() == f"kept={len(records)} rejected={n_rejected} out_manifest={kept} report={report}\n"


def test_curate_memory_does_not_grow_with_the_manifest(tmp_path):
    def traced_peak(n_copies: int) -> int:
        manifest = tmp_path / f"in{n_copies}.jsonl"
        write_manifest([dataclasses.replace(rec, id=f"{rec.id}-{i}") for i in range(n_copies) for rec in golden_manifest()],
                       str(manifest))
        argv = ["curate", "--manifest", str(manifest), "--out-manifest", str(tmp_path / "kept.jsonl"),
                "--report", str(tmp_path / "r.csv")]
        with contextlib.redirect_stdout(io.StringIO()):
            tracemalloc.start()
            try:
                assert cli.main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    traced_peak(1)  # first-use allocations (caches, interned strings) are not the manifest's
    small, large = traced_peak(15), traced_peak(150)  # 150 and 1500 records
    assert large < 1.5 * small, (small, large)


# --- curate in shards ----------------------------------------------------------
# The tests cut small manifests into several shards: a minimum shard size of
# one byte, and as many CPUs as the test asks for.

@contextlib.contextmanager
def small_shards(cpus: int = 4):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(curation, "MIN_SHARD_BYTES", 1)
        mp.setattr(curation, "usable_cpus", lambda: cpus)
        assert hasattr(os, "fork") and threading.active_count() == 1  # else there is one shard
        yield


def curate_outputs(argv: list[str], kept: str, report: str) -> tuple[int, bytes, bytes, str, str]:
    """(exit code, kept manifest, report, stdout, stderr) of an in-process curate run; no child may outlive it."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    outputs = [pathlib.Path(path).read_bytes() if os.path.exists(path) else None for path in (kept, report)]
    return code, *outputs, stdout.getvalue(), stderr.getvalue()


@settings(max_examples=40, deadline=None)
@given(lines=st.lists(manifest_lines(), max_size=25), trailing_newline=st.booleans())
def test_curate_gives_the_same_bytes_for_any_jobs(lines, trailing_newline):
    data = b"".join(lines)
    if not trailing_newline:
        data = data.rstrip(b"\r\n")
    with tempfile.TemporaryDirectory() as tmp, small_shards():
        manifest, kept, report = (os.path.join(tmp, name) for name in ("in.jsonl", "kept.jsonl", "r.csv"))
        with open(manifest, "wb") as fh:
            fh.write(data)
        argv = ["curate", "--manifest", manifest, "--out-manifest", kept, "--report", report, "--blocklist", "zzblock"]
        runs = [curate_outputs([*argv, "--jobs", str(jobs)], kept, report) for jobs in (1, 2, 3, 4)]
    assert runs[0][0] == 0
    assert runs[1:] == runs[:1] * 3


def test_curate_hostile_field_values_are_report_rows_at_any_jobs(tmp_path):
    # one line of each hostile kind: a parse-error row each, never exit 1, the same bytes at --jobs 1 and 2
    lines = [json.dumps({**HOSTILE_BASE, name: value}) for name, value in HOSTILE_FIELDS]
    manifest = tmp_path / "in.jsonl"
    manifest.write_text("\n".join([json.dumps(HOSTILE_BASE), *lines]) + "\n", encoding="utf-8")
    kept, report = str(tmp_path / "kept.jsonl"), str(tmp_path / "r.csv")
    argv = ["curate", "--manifest", str(manifest), "--out-manifest", kept, "--report", report]
    with small_shards():
        assert len(curation._plan_shards(str(manifest), 2)) == 2
        runs = [curate_outputs([*argv, "--jobs", jobs], kept, report) for jobs in ("1", "2")]
    assert runs[0] == runs[1]
    code, _, report_bytes, _, stderr = runs[0]
    assert code == 0 and stderr == ""
    rows = [row for row in csv.reader(io.StringIO(report_bytes.decode("utf-8"))) if not row[0].startswith("#")]
    assert rows[0] == ["id", "verdict", "reasons", "measured_values"] and rows[1][2] != "parse-error"
    assert [row[:3] for row in rows[2:]] == [[f"line-{i}", "rejected", "parse-error"] for i in range(2, len(lines) + 2)]


def test_curate_golden_manifest_at_four_jobs(tmp_path):
    manifest = tmp_path / "in.jsonl"
    write_manifest(golden_manifest(), str(manifest))
    kept, report = str(tmp_path / "kept.jsonl"), str(tmp_path / "r.csv")
    argv = ["curate", "--manifest", str(manifest), "--out-manifest", kept, "--report", report]
    with small_shards():
        assert len(curation._plan_shards(str(manifest), 4)) == 4
        runs = [curate_outputs([*argv, "--jobs", jobs], kept, report) for jobs in ("1", "4")]
    assert runs[0] == runs[1]
    assert [json.loads(line)["id"] for line in runs[1][1].decode().splitlines()] == EXPECTED_KEPT


# record id -> what judging it raises; the manifest holds 30 copies of the
# golden manifest, cut in three shards: r2-3 lies in shard 0, r5-15 in shard 1
# and r2-25 in shard 2
JUDGE_FAILURES = {
    "later-shard-refused": {"r2-25": OSError("disk gone")},
    "later-shard-internal": {"r2-25": RuntimeError("judge broke")},
    "first-shard": {"r2-3": ValueError("bad record")},
    "two-shards": {"r2-25": OSError("disk gone"), "r5-15": OSError("disk gone earlier")},
}


@pytest.mark.parametrize("case", list(JUDGE_FAILURES))
def test_curate_failing_shard_gives_the_jobs_1_error_and_changes_no_output(tmp_path, monkeypatch, case):
    manifest = tmp_path / "in.jsonl"
    golden_copies(manifest, 30)
    out, scratch = tmp_path / "out", tmp_path / "tmp"
    out.mkdir()
    scratch.mkdir()
    kept, report = out / "kept.jsonl", out / "r.csv"
    kept.write_bytes(b"old kept\n")
    report.write_bytes(b"old report\n")
    before = tree(out)
    judge, failures = curation._judge, JUDGE_FAILURES[case]

    def failing_judge(rec, cfg):
        if rec.id in failures:
            raise failures[rec.id]
        return judge(rec, cfg)

    monkeypatch.setattr(curation, "_judge", failing_judge)
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    argv = ["curate", "--manifest", str(manifest), "--out-manifest", str(kept), "--report", str(report)]
    with small_shards(cpus=3):
        shards = curation._plan_shards(str(manifest), 3)
        assert len(shards) == 3
        data = manifest.read_bytes()
        for rid, shard in (("r2-3", 0), ("r5-15", 1), ("r2-25", 2)):
            at = data.index(b'\n{"id": "%s"' % rid.encode()) + 1  # the first byte of the record's line
            assert [k for k, (start, stop) in enumerate(shards) if start <= at and (stop is None or at < stop)] == [shard]
        runs = [curate_outputs([*argv, "--jobs", jobs], str(kept), str(report)) for jobs in ("1", "3")]
    code, _, _, stdout, stderr = runs[0]
    assert runs[1] == runs[0]
    first = min(failures, key=lambda rid: (int(rid.split("-")[1]), rid))
    assert (code, stdout) == (1 if case.endswith("internal") else 2, "")
    assert str(failures[first]) in stderr and stderr.count("\n") == 1
    assert tree(out) == before and list(scratch.iterdir()) == []


def test_curate_worker_that_dies_exits_1_and_changes_no_output(tmp_path, monkeypatch):
    manifest = tmp_path / "in.jsonl"
    golden_copies(manifest, 30)
    kept, report = tmp_path / "kept.jsonl", tmp_path / "r.csv"
    judge, parent = curation._judge, os.getpid()

    def dying_judge(rec, cfg):
        if rec.id == "r2-25" and os.getpid() != parent:
            os._exit(3)
        return judge(rec, cfg)

    monkeypatch.setattr(curation, "_judge", dying_judge)
    argv = ["curate", "--manifest", str(manifest), "--out-manifest", str(kept), "--report", str(report), "--jobs", "3"]
    with small_shards(cpus=3):
        code, kept_bytes, report_bytes, _, stderr = curate_outputs(argv, str(kept), str(report))
    assert (code, kept_bytes, report_bytes) == (1, None, None)
    assert stderr == ("asrlab curate: internal error: RuntimeError: a curate shard worker ended without a result "
                      f"(wait status {3 << 8})\n")


def test_curate_interrupted_leaves_no_worker_and_no_output(tmp_path, monkeypatch):
    manifest = tmp_path / "in.jsonl"
    golden_copies(manifest, 30)
    kept, report = tmp_path / "kept.jsonl", tmp_path / "r.csv"
    judge, parent = curation._judge, os.getpid()

    def interrupted_judge(rec, cfg):
        if rec.id == "r2-3" and os.getpid() == parent:
            raise KeyboardInterrupt
        return judge(rec, cfg)

    monkeypatch.setattr(curation, "_judge", interrupted_judge)
    argv = ["curate", "--manifest", str(manifest), "--out-manifest", str(kept), "--report", str(report), "--jobs", "3"]
    with small_shards(cpus=3), contextlib.redirect_stdout(io.StringIO()), pytest.raises(KeyboardInterrupt):
        cli.main(argv)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert sorted(os.listdir(tmp_path)) == ["in.jsonl"]


# Runs curate with the arguments after the first, in two shards whose judge
# appends the pid of its process to the file named by the first, then sleeps.
SLEEPING_CURATE = """
import os, sys, time
from asrlab import cli, curation
curation.MIN_SHARD_BYTES = 1
curation.usable_cpus = lambda: 2
def judge(rec, cfg):
    with open(sys.argv[1], "a") as fh:
        fh.write(f"{os.getpid()}\\n")
    time.sleep(60)
curation._judge = judge
sys.exit(cli.main(sys.argv[2:]))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="curate forks its shard workers only where os.fork exists")
def test_curate_terminated_leaves_no_worker_and_no_output(tmp_path):
    manifest, pids = tmp_path / "in.jsonl", tmp_path / "pids"
    golden_copies(manifest, 3)
    proc = subprocess.Popen([sys.executable, "-c", SLEEPING_CURATE, str(pids), "curate", "--manifest", str(manifest),
                             "--out-manifest", str(tmp_path / "kept.jsonl"), "--report", str(tmp_path / "r.csv"),
                             "--jobs", "2"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    judges: set[int] = set()
    try:
        deadline = time.monotonic() + 60
        while len(judges) < 2 and time.monotonic() < deadline and proc.poll() is None:
            time.sleep(0.05)
            judges = set(map(int, pids.read_text().split())) if pids.exists() else set()
        assert judges - {proc.pid}, "no shard worker started judging"
        proc.terminate()
        stdout, stderr = proc.communicate(timeout=30)
        assert (proc.returncode, stdout, stderr) == (128 + 15, "", "")
        for pid in judges - {proc.pid}:  # reaped by curate, so gone; an orphan would still sleep
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        assert sorted(os.listdir(tmp_path)) == ["in.jsonl", "pids"]
    finally:
        for pid in {proc.pid} | judges:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, 9)
        proc.wait(timeout=30)


def test_curate_spills_each_shard_beside_its_output(tmp_path, monkeypatch):
    manifest = tmp_path / "in.jsonl"
    golden_copies(manifest, 30)
    kept_dir, report_dir = tmp_path / "kept", tmp_path / "report"
    kept_dir.mkdir()
    report_dir.mkdir()
    kept, report = kept_dir / "kept.jsonl", report_dir / "r.csv"
    spill_dirs, temporary_file = [], tempfile.TemporaryFile

    def recorded_temporary_file(*args, dir=None, **kwargs):
        spill_dirs.append(dir)
        return temporary_file(*args, dir=dir, **kwargs)

    monkeypatch.setattr(tempfile, "TemporaryFile", recorded_temporary_file)
    argv = ["curate", "--manifest", str(manifest), "--out-manifest", str(kept), "--report", str(report)]
    with small_shards(cpus=3):
        runs = [curate_outputs([*argv, "--jobs", jobs], str(kept), str(report)) for jobs in ("1", "3")]
    assert runs[0][0] == 0 and runs[1] == runs[0]
    # not the default temporary directory, which may be a RAM disk or small
    assert spill_dirs == [os.path.realpath(kept_dir), os.path.realpath(report_dir)] * 2
    assert sorted(os.listdir(kept_dir)) == ["kept.jsonl"] and sorted(os.listdir(report_dir)) == ["r.csv"]


# Runs the command in argv, then prints its exit code and its peak RSS in kB. A
# waited child's rusage includes the children it waited for, so the peak covers
# curate's shard workers. On Linux a child starts from the peak RSS of the
# process it was started from, so the command is started from this small
# interpreter and not from the test process.
PEAK_RSS = """
import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kilobytes on Linux, in other units elsewhere")
def test_curate_sharded_memory_does_not_grow_with_the_manifest(tmp_path):
    # 4.5 and 45 MB of manifest, two shards each: a shard read whole, or its output held, would show
    peaks_mb = []
    for n_copies in (600, 6000):
        manifest = tmp_path / f"in{n_copies}.jsonl"
        golden_copies(manifest, n_copies)
        assert len(curation._plan_shards(str(manifest), 2)) == min(2, curation.usable_cpus())
        kept = tmp_path / "kept.jsonl"
        proc = subprocess.run([sys.executable, "-c", PEAK_RSS, sys.executable, "-m", "asrlab", "curate", "--manifest",
                               str(manifest), "--out-manifest", str(kept), "--report", str(tmp_path / "r.csv"),
                               "--jobs", "2"], capture_output=True, text=True, timeout=300)
        code, peak_kb = proc.stdout.split()
        assert code == "0", proc.stderr
        assert kept.read_bytes().count(b"\n") == len(EXPECTED_KEPT) * n_copies
        peaks_mb.append(int(peak_kb) / 1024.0)
    assert abs(peaks_mb[1] - peaks_mb[0]) < 4.0, peaks_mb


# --- exit codes: a rejected input exits 2, anything else exits 1 -------------------

def write_pcm_wav(path, samples, channels=1):
    """16-bit PCM WAV with the given interleaved integer samples."""
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(channels)
        wf.setsampwidth(2)
        wf.setframerate(16000)
        wf.writeframes(np.asarray(samples, dtype="<i2").tobytes())


def truncated_wav(path, cut):
    write_pcm_wav(path, np.round(tone(1.0) * 16000))
    path.write_bytes(path.read_bytes()[:-cut])


def zero_rate_wav(path):
    """A WAV whose header gives a frame rate of 0 Hz, which the wave module reads without complaint."""
    write_pcm_wav(path, np.round(tone(1.0) * 16000))
    data = bytearray(path.read_bytes())
    data[24:32] = bytes(8)  # the fmt chunk's frame rate and byte rate
    path.write_bytes(bytes(data))


BAD_CLIPS = {
    "empty-file": lambda path: path.write_bytes(b""),
    "no-frames": lambda path: write_pcm_wav(path, []),
    "stereo": lambda path: write_pcm_wav(path, np.round(tone(1.0) * 16000).repeat(2), channels=2),
    "not-wav": lambda path: path.write_bytes(b"this is not a wav file\n"),
    "silent": lambda path: write_pcm_wav(path, np.zeros(16000)),
    # data that ends before the header's frame count, on a frame boundary or inside a frame
    "truncated-even": lambda path: truncated_wav(path, 1000),
    "truncated-odd": lambda path: truncated_wav(path, 1001),
    "zero-rate": zero_rate_wav,
}


def stitch_audio_case(tmp_path, kind):
    wav = tmp_path / f"{kind}.wav"
    BAD_CLIPS[kind](wav)
    transcriber = make_script(tmp_path, "t.py", "print('a b c')\n")
    return ["stitch", "--audio", str(wav), "--transcriber", " ".join(transcriber)], wav


def noise_sweep_case(tmp_path, kind):
    wav = tmp_path / f"{kind}.wav"
    BAD_CLIPS[kind](wav)
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(
        json.dumps({"id": "c", "audio_path": str(wav), "duration_sec": 1.0, "transcript": "a b c"}) + "\n",
        encoding="utf-8",
    )
    transcriber = make_script(tmp_path, "t.py", "print('a b c')\n")
    argv = ["noise-sweep", "--manifest", str(manifest), "--transcriber", " ".join(transcriber),
            "--workdir", str(tmp_path / "w"), "--out", str(tmp_path / "o.csv"), "--snrs", "0", "--jobs", "1"]
    return argv, wav


def test_stitch_audio_zero_rate_wav_exit_2_without_output(tmp_path):
    # the frame rate divides the recording into seconds, so 0 Hz is refused before any chunk is cut
    argv, wav = stitch_audio_case(tmp_path, "zero-rate")
    out = tmp_path / "out.txt"
    proc = run_cli(*argv, "--out", str(out), timeout=60)
    assert proc.returncode == 2
    assert proc.stderr == f"asrlab stitch: {wav}: expected a frame rate of at least 1 Hz, got 0\n"
    assert not out.exists()


def evaluate_undecodable_hyps_case(tmp_path):
    manifest, hyps = write_eval_inputs(tmp_path)
    hyps.write_bytes(hyps.read_bytes().replace(b"\n", b" caf\xe9\n", 1))
    return ["evaluate", "--manifest", str(manifest), "--hyps", str(hyps)], f"{hyps}:1:"


def stitch_undecodable_partial_case(tmp_path):
    pdir = tmp_path / "partials"
    pdir.mkdir()
    (pdir / "0.txt").write_text("one two three four", encoding="utf-8")
    (pdir / "1.txt").write_bytes(b"three four\n\xff\xfe five\n")
    return ["stitch", "--partials-dir", str(pdir)], f"{pdir / '1.txt'}:2:"


def evaluate_undecodable_rules_case(tmp_path):
    manifest, hyps = write_eval_inputs(tmp_path)
    rules = tmp_path / "rules.txt"
    rules.write_bytes(b"[fillers]\num\n\xc3(\n")
    return ["evaluate", "--manifest", str(manifest), "--hyps", str(hyps), "--rules", str(rules)], f"{rules}:3:"


def ppn_score_undecodable_entities_case(tmp_path):
    gold = tmp_path / "gold.tsv"
    gold.write_bytes(b"f1\t0\t5\tGPE\tParis\nf1\t6\t9\tGPE\t\xe9t\xe9\n")
    pred = tmp_path / "pred.tsv"
    pred.write_text("f1\t0\t5\tGPE\tParis\n", encoding="utf-8")
    return ["ppn-score", "--gold-entities", str(gold), "--pred-entities", str(pred)], f"{gold}:2:"


def evaluate_out_is_directory_case(tmp_path):
    manifest, hyps = write_eval_inputs(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    return ["evaluate", "--manifest", str(manifest), "--hyps", str(hyps), "--out", str(out)], out


EXIT_2_CASES = {
    **{f"stitch-audio-{kind}": (lambda tmp, kind=kind: stitch_audio_case(tmp, kind)) for kind in BAD_CLIPS},
    **{f"noise-sweep-{kind}": (lambda tmp, kind=kind: noise_sweep_case(tmp, kind)) for kind in BAD_CLIPS},
    "evaluate-undecodable-hyps": evaluate_undecodable_hyps_case,
    "stitch-undecodable-partial": stitch_undecodable_partial_case,
    "evaluate-undecodable-rules": evaluate_undecodable_rules_case,
    "ppn-score-undecodable-entities": ppn_score_undecodable_entities_case,
    "evaluate-out-is-directory": evaluate_out_is_directory_case,
}


@pytest.mark.parametrize("case", EXIT_2_CASES)
def test_rejected_input_exits_2_naming_the_file(tmp_path, capsys, case):
    argv, culprit = EXIT_2_CASES[case](tmp_path)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"asrlab {argv[0]}: ") and err.count("\n") == 1, err
    assert str(culprit) in err and "internal error" not in err
    # one prefix: the command's name is not repeated in the message
    assert f"{argv[0]}: {argv[0]}:" not in err


@pytest.mark.parametrize("case", [stitch_audio_case, noise_sweep_case])
@pytest.mark.parametrize("kind,held", [("truncated-even", 15500), ("truncated-odd", 15499)])
def test_truncated_wav_error_says_what_the_header_promised(tmp_path, capsys, case, kind, held):
    argv, wav = case(tmp_path, kind)
    assert cli.main(argv) == 2
    assert f"{wav}: truncated WAV: header says 16000 frames, data holds {held}" in capsys.readouterr().err


def test_undecodable_config_file_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"# run settings\nplanner.wpm = 150\nplanner.tpw = 1.3 # \xa0\n")
    assert cli.main(["plan-data", "--params", "1000", "--config", str(cfg)]) == 2
    assert capsys.readouterr() == ("", f"asrlab plan-data: {cfg}:3: not valid UTF-8\n")


def _read_partials(path):
    pdir = pathlib.Path(path).with_suffix("")
    pdir.mkdir()
    os.replace(path, pdir / "0.txt")
    return cli._read_partials_dir(str(pdir), cli.DEFAULT_RULES)


# each reader's first line is one that a byte-order mark glued to it used to break
BOM_READERS = {
    "config comment": (load_config, "# run settings\ncuration.wpm_min = 40\n"),
    "config key": (load_config, "curation.wpm_min = 40\n"),
    "rules": (load_rules, "[contractions]\nthere's\tthere is\n[fillers]\num\n"),
    "tsv": (cli._read_tsv, "a\thello world\n"),
    "entities": (read_entity_file, "a\t0\t5\tPER\tAlice\n"),
    "partials": (_read_partials, "hello world\n"),
}


@pytest.mark.parametrize("reader,text", BOM_READERS.values(), ids=BOM_READERS)
def test_text_readers_drop_a_byte_order_mark(tmp_path, reader, text):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert reader(str(marked)) == reader(str(plain))


def test_other_exception_is_internal_error_exit_1(tmp_path, capsys, monkeypatch):
    def broken_stitch(partials, min_match_tokens):
        raise RuntimeError("stitcher bug")

    monkeypatch.setattr(cli, "stitch", broken_stitch)
    pdir = tmp_path / "partials"
    pdir.mkdir()
    (pdir / "0.txt").write_text("a b c", encoding="utf-8")
    assert cli.main(["stitch", "--partials-dir", str(pdir)]) == 1
    assert capsys.readouterr().err == "asrlab stitch: internal error: RuntimeError: stitcher bug\n"


def undecodable_manifest(tmp_path, where):
    """The golden manifest with one byte that is not UTF-8 put into record r7's line; returns (path, line number)."""
    manifest = tmp_path / "in.jsonl"
    write_manifest(golden_manifest(), str(manifest))
    lines = manifest.read_bytes().splitlines(keepends=True)
    victim = next(i for i, line in enumerate(lines) if json.loads(line)["id"] == "r7")
    line = lines[victim]
    at = {"value": line.index(b'"transcript": "') + 15, "key": line.index(b'"transcript"') + 1, "syntax": 1}[where]
    lines[victim] = line[:at] + b"\xff" + line[at:]
    manifest.write_bytes(b"".join(lines))
    return manifest, victim + 1


@pytest.mark.parametrize("where", ["value", "key", "syntax"])
def test_curate_undecodable_line_is_a_parse_error_row(tmp_path, where):
    manifest, line_no = undecodable_manifest(tmp_path, where)
    out_manifest = tmp_path / "kept.jsonl"
    report = tmp_path / "r.csv"
    argv = ["curate", "--manifest", str(manifest), "--out-manifest", str(out_manifest), "--report", str(report)]
    assert cli.main(argv) == 0
    rows = report.read_text(encoding="utf-8").splitlines()
    assert [r for r in rows if "parse-error" in r] == [r for r in rows if r.startswith(f"line-{line_no},rejected,parse-error,")]
    assert len([r for r in rows if "parse-error" in r]) == 1
    kept_ids = [json.loads(line)["id"] for line in out_manifest.read_text(encoding="utf-8").splitlines()]
    assert kept_ids == [rid for rid in EXPECTED_KEPT if rid != "r7"]


def test_evaluate_undecodable_manifest_line_exit_2(tmp_path, capsys):
    manifest, line_no = undecodable_manifest(tmp_path, "value")
    hyps = tmp_path / "hyps.tsv"
    hyps.write_text("".join(f"{r.id}\t{r.transcript}\n" for r in golden_manifest()), encoding="utf-8")
    assert cli.main(["evaluate", "--manifest", str(manifest), "--hyps", str(hyps)]) == 2
    err = capsys.readouterr().err
    assert str(manifest) in err and f"line-{line_no}:" in err and "internal error" not in err


# --- stitch --audio working files --------------------------------------------------

def chunk_logging_transcriber(tmp_path, log):
    """Prints one text per chunk index (from the chunkNNNN.wav name) and logs each chunk path."""
    body = f"""
import os, sys
open({str(log)!r}, "a").write(sys.argv[1] + "\\n")
texts = ["the first chunk ends with shared words", "with shared words the second chunk continues"]
print(texts[int(os.path.basename(sys.argv[1])[5:9])])
"""
    return " ".join(make_script(tmp_path, "chunk_transcriber.py", body))


def test_stitch_audio_without_workdir_leaves_no_chunks(tmp_path, capsys):
    audio_dir = tmp_path / "audio"
    audio_dir.mkdir()
    wav = audio_dir / "long.wav"
    write_wav(AudioBuffer(samples=tone(40.0, amplitude=0.4)), str(wav))
    log = tmp_path / "chunks.log"
    transcriber = chunk_logging_transcriber(tmp_path, log)
    outputs = []
    for extra in ([], ["--workdir", str(tmp_path / "kept")]):
        assert cli.main(["stitch", "--audio", str(wav), "--transcriber", transcriber, *extra]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == "the first chunk ends with shared words the second chunk continues\n"
    assert os.listdir(audio_dir) == ["long.wav"]
    chunks = log.read_text(encoding="utf-8").split()
    assert len(chunks) == 4
    assert not os.path.exists(os.path.dirname(chunks[0]))  # the temporary directory is gone
    assert sorted(os.listdir(tmp_path / "kept")) == ["chunk0000.wav", "chunk0001.wav"]  # --workdir keeps them


def test_stitch_audio_temporary_chunks_removed_on_failure(tmp_path, capsys, failing_transcriber):
    wav = tmp_path / "tone.wav"
    write_wav(AudioBuffer(samples=tone(30.0, amplitude=0.4)), str(wav))
    assert cli.main(["stitch", "--audio", str(wav), "--transcriber", " ".join(failing_transcriber)]) == 2
    err = capsys.readouterr().err
    chunk_path = err.split("(")[-1].rstrip(")\n")
    assert chunk_path.endswith("chunk0000.wav") and not os.path.exists(os.path.dirname(chunk_path))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["failing_transcriber.py", "tone.wav"]


# --- --jobs: concurrent transcriber calls ------------------------------------------

def indexed_transcriber(tmp_path, fail=(), slow=()):
    """For chunk i (from the chunkNNNN.wav name) prints w3i .. w3i+5, so neighbours share three words.

    It exits 3 on the chunks in `fail`, and sleeps 0.2 s first on those in `slow`.
    """
    body = f"""
import os, sys, time
i = int(os.path.basename(sys.argv[1])[5:9])
if i in {tuple(slow)!r}:
    time.sleep(0.2)
if i in {tuple(fail)!r}:
    sys.exit(3)
print(" ".join("w%d" % k for k in range(3 * i, 3 * i + 6)))
"""
    return " ".join(make_script(tmp_path, "indexed_transcriber.py", body))


def four_chunk_wav(tmp_path):
    """8 s of tone: with --chunk-len 3 --overlap 1 it plans the chunks 0-3, 2-5, 4-7 and 5-8 s."""
    wav = tmp_path / "long.wav"
    write_wav(AudioBuffer(samples=tone(8.0, amplitude=0.4)), str(wav))
    return ["stitch", "--audio", str(wav), "--chunk-len", "3", "--overlap", "1"]


def test_stitch_audio_jobs_do_not_change_output_or_chunks(tmp_path):
    # fresh interpreters, as for noise-sweep; chunk 0 answers last, so with
    # --jobs 2 the calls finish out of order
    transcriber = indexed_transcriber(tmp_path, slow=(0,))
    outputs, chunks = [], []
    for jobs in ("1", "2"):
        workdir, out = tmp_path / f"work{jobs}", tmp_path / f"jobs{jobs}.txt"
        proc = run_cli(*four_chunk_wav(tmp_path), "--transcriber", transcriber,
                       "--workdir", str(workdir), "--out", str(out), "--jobs", jobs)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
        chunks.append({p.name: p.read_bytes() for p in sorted(workdir.iterdir())})
    assert outputs[0] == outputs[1] == (" ".join(f"w{k}" for k in range(15)) + "\n").encode()
    assert chunks[0] == chunks[1] and len(chunks[0]) == 4
    # the chunks hold what the whole-file path wrote: read_wav, VAD, remove_silences, write_wav
    voiced, _ = stitch_oracles.whole_file_voiced(str(tmp_path / "long.wav"))
    oracle = [str(tmp_path / f"oracle{i}.wav") for i in range(4)]
    stitch_oracles.write_chunks(voiced, plan_chunks(voiced.duration_sec, 3.0, 1.0).bounds, oracle)
    assert list(chunks[0].values()) == [open(path, "rb").read() for path in oracle]


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kilobytes on Linux, in other units elsewhere")
def test_stitch_audio_memory_does_not_grow_with_the_recording(tmp_path):
    # 40 s of tone, then silence to 2 or 12 minutes: the same two chunks, ten
    # more minutes of samples to read
    transcriber = " ".join(make_script(tmp_path, "t.py", "print('a b c')\n"))
    peaks_mb = []
    for minutes in (2, 12):
        wav = tmp_path / f"{minutes}min.wav"
        with wave.open(str(wav), "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(2)
            wf.setframerate(16000)
            wf.writeframes(np.round(tone(40.0, amplitude=0.4) * 32767).astype("<i2").tobytes())
            for _ in range(minutes * 60 - 40):
                wf.writeframes(bytes(2 * 16000))
        workdir = tmp_path / f"chunks{minutes}"
        proc = subprocess.run([sys.executable, "-c", PEAK_RSS, sys.executable, "-m", "asrlab", "stitch", "--audio",
                               str(wav), "--transcriber", transcriber, "--jobs", "1", "--workdir", str(workdir)],
                              capture_output=True, text=True, timeout=300)
        code, peak_kb = proc.stdout.split()
        assert code == "0", proc.stderr
        assert sorted(os.listdir(workdir)) == ["chunk0000.wav", "chunk0001.wav"]
        peaks_mb.append(int(peak_kb) / 1024.0)
    assert abs(peaks_mb[1] - peaks_mb[0]) < 8.0, peaks_mb


def test_stitch_audio_failure_names_the_lowest_chunk_for_any_jobs(tmp_path):
    # chunk 2 fails slowly and chunk 3 at once, so with --jobs 2 chunk 3 fails first
    transcriber = indexed_transcriber(tmp_path, fail=(2, 3), slow=(2,))
    errors = []
    for jobs in ("1", "2"):
        proc = run_cli(*four_chunk_wav(tmp_path), "--transcriber", transcriber,
                       "--workdir", str(tmp_path / "work"), "--jobs", jobs)
        assert proc.returncode == 2, proc.stderr
        errors.append(proc.stderr)
    assert errors[0] == errors[1]
    assert f"chunk 2 ({tmp_path / 'work' / 'chunk0002.wav'})" in errors[0]


@pytest.mark.parametrize("command", ["noise-sweep", "stitch", "curate"])
@pytest.mark.parametrize("where,value", [("flag", "0"), ("flag", "-3"), ("config", "0")])
def test_jobs_below_one_exit_2_before_the_transcriber_starts(tmp_path, capsys, command, where, value):
    wav = tmp_path / "clip.wav"
    write_wav(AudioBuffer(samples=tone(30.0, amplitude=0.4)), str(wav))
    mark = tmp_path / "transcribed"
    transcriber = " ".join(make_script(tmp_path, "mark.py", f"open({str(mark)!r}, 'w').write('x')\nprint('a b c')\n"))
    workdir = tmp_path / "work"
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(json.dumps({"id": "clip", "audio_path": str(wav), "duration_sec": 30.0,
                                    "transcript": "a b c"}) + "\n", encoding="utf-8")
    if command == "noise-sweep":
        argv = ["noise-sweep", "--manifest", str(manifest), "--out", str(tmp_path / "o.csv")]
    elif command == "stitch":
        argv = ["stitch", "--audio", str(wav)]
    else:  # curate starts no transcriber; its outputs stand in for the mark and the workdir
        argv = ["curate", "--manifest", str(manifest), "--out-manifest", str(mark), "--report", str(workdir)]
    if command != "curate":
        argv += ["--transcriber", transcriber, "--workdir", str(workdir)]
    if where == "flag":
        argv += ["--jobs", value]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"jobs = {value}\n", encoding="utf-8")
        argv += ["--config", str(cfg)]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"asrlab {command}: --jobs (config key jobs) must lie in [1, inf], got {value}\n")
    assert not mark.exists() and not workdir.exists()


@pytest.fixture
def non_utf8_transcriber(tmp_path):
    return " ".join(make_script(tmp_path, "latin1_transcriber.py",
                                "import sys\nsys.stdout.buffer.write(b'caf\\xe9 brook sounds\\n')\n"))


def test_noise_sweep_non_utf8_transcript_is_a_failed_row(tmp_path, non_utf8_transcriber):
    wav = tmp_path / "clip.wav"
    write_wav(AudioBuffer(samples=tone(0.25)), str(wav))
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(json.dumps({"id": "clip", "audio_path": str(wav), "duration_sec": 0.25,
                                    "transcript": "brook sounds"}) + "\n", encoding="utf-8")
    out = tmp_path / "o.csv"
    argv = ["noise-sweep", "--manifest", str(manifest), "--transcriber", non_utf8_transcriber,
            "--workdir", str(tmp_path / "w"), "--out", str(out), "--snrs", "0", "--jobs", "1"]
    assert cli.main(argv) == 0
    rows = out.read_text(encoding="utf-8").splitlines()
    assert "0,clip,failed" in rows and "0,n/a" in rows


def test_stitch_audio_non_utf8_transcript_exit_2(tmp_path, capsys, non_utf8_transcriber):
    wav = tmp_path / "tone.wav"
    write_wav(AudioBuffer(samples=tone(30.0, amplitude=0.4)), str(wav))
    chunks = tmp_path / "chunks"
    argv = ["stitch", "--audio", str(wav), "--transcriber", non_utf8_transcriber, "--workdir", str(chunks)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert f"transcriber failed on chunk 0 ({chunks / 'chunk0000.wav'})" in err

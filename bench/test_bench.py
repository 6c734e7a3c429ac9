"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _make_all(out_dir: str, seed: int) -> None:
    gen.make_curate(out_dir, seed, n_records=300)
    gen.make_eval_short(out_dir, seed, n_utts=50)
    gen.make_longform(out_dir, seed, partial_words=600, speech_minutes=1.0, pair_words=[60, 80])
    gen.make_rnnt(out_dir, seed)


def _tree_bytes(root: str) -> dict[str, bytes]:
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def test_generator_bytes_depend_only_on_seed(tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d, seed in zip(dirs, (7, 7, 8)):
        d.mkdir()
        _make_all(str(d), seed)
    a, b, c = (_tree_bytes(str(d)) for d in dirs)
    assert a == b
    assert a.keys() == c.keys()
    assert all(a[name] != c[name] for name in a)


def test_generated_contractions_match_the_default_normalizer():
    from asrlab.textnorm import normalize

    for unit, expansion in gen.CONTRACTIONS.items():
        assert normalize(unit.upper() + ",").split() == list(expansion)
    assert normalize(" ".join(gen.VOCAB[:200])).split() == gen.VOCAB[:200]


def test_self_time_on_a_hand_built_tree():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9]
    tree = [
        spans.Span("cli.x", 0.0, 10.0),
        spans.Span("l.a", 1.0, 4.0, parent=0, root=0),
        spans.Span("l.a1", 2.0, 3.0, parent=1, root=0),
        spans.Span("l.b", 5.0, 9.0, parent=0, root=0),
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0]
    metrics = spans.layer_metrics(tree)
    assert metrics["cli.other_self_s"] == 3.0
    assert metrics["cli.x.wall_s"] == 10.0
    assert metrics["l.a.self_s"] + metrics["l.a1.self_s"] + metrics["l.b.self_s"] + 3.0 == 10.0


def test_tracer_wraps_every_binding_and_restores_it():
    import asrlab.cli
    import asrlab.metrics
    from asrlab.metrics import wer

    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert asrlab.cli.wer is asrlab.metrics.wer is not wer
        asrlab.cli.wer(["a", "b"], ["a", "c"])
    assert asrlab.cli.wer is wer
    assert [s.name for s in tracer.spans] == ["metrics.wer"]
    assert tracer.spans[0].counts == {"cells": 4}


@pytest.fixture
def eval_short(tmp_path):
    spec = {**gen.make_eval_short(str(tmp_path), 3, n_utts=40), "seed": 3}
    step = workloads._eval_step(spec, str(tmp_path), "short")
    assert run.run_in_process(step) == 0
    return step


def test_a_correct_report_passes_and_a_corrupted_one_fails(eval_short):
    error, digest = eval_short.check(None)
    assert error is None
    assert eval_short.check(digest) == (None, digest)
    assert eval_short.check("0" * 64)[0] is not None

    (report,) = eval_short.outputs
    with open(report, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    row = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1  # first file row
    fields = lines[row].split(",")
    fields[2] = "0.500000" if fields[2] == "0.000000" else "0.000000"
    lines[row] = ",".join(fields)
    with open(report, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    assert eval_short.check(None)[0] is not None


def test_a_small_child_after_a_large_one_reports_its_own_rss(tmp_path):
    env = run.child_env()
    out = str(tmp_path / "child.out")
    big = run.run_child([sys.executable, "-c", "b = bytearray(300 * 2**20); b[::4096] = b'x' * len(b[::4096])"], out, env)
    # The benchmark itself holds large generated inputs when it starts a child.
    ballast = bytearray(200 * 2**20)
    ballast[::4096] = b"x" * len(ballast[::4096])
    small = run.run_child([sys.executable, "-c", "pass"], out, env)
    del ballast
    assert big.code == small.code == 0
    assert big.rss_mb > 300
    assert small.rss_mb < 100


def test_the_host_reference_does_not_use_asrlab():
    code = "import sys, reference; reference.kernel(); print(sorted(m for m in sys.modules if 'asrlab' in m))"
    out = subprocess.run([sys.executable, "-c", code], cwd=BENCH_DIR, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"

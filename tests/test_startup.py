"""Start-up: commands that never touch an array run without importing numpy.

asrlab imports numpy on first use (``asrlab._lazy``). Each test starts a fresh
interpreter, because the test process itself has numpy loaded. No command
imports multiprocessing or a process pool: ``curate`` forks its shard workers
itself, from a process with one thread.
"""

import json
import os
import pathlib
import subprocess
import sys

from asrlab.cli import COMMANDS
from asrlab.curation import write_manifest
from tests.test_curation import golden_manifest

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Runs asrlab.cli.main on each argv of a JSON list, in order, and prints one JSON
# row per run: [argv, exit code, numpy modules and process-pool modules imported
# so far]. A numpy that has really been imported has imported its submodules too.
# pickle is loaded only by a curate shard that fails.
PROBE = """
import contextlib, io, json, sys
from asrlab.cli import main
rows = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    pools = ("multiprocessing", "concurrent.futures.process", "pickle")
    rows.append([argv, code, sorted(m for m in sys.modules if m.startswith("numpy.") or m in pools)])
print(json.dumps(rows))
"""


def fresh_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


def test_numpy_free_commands_never_load_numpy(tmp_path):
    manifest = tmp_path / "in.jsonl"
    write_manifest(golden_manifest(), str(manifest))
    hyps = tmp_path / "hyps.tsv"
    hyps.write_text("".join(f"{r.id}\t{r.transcript}\n" for r in golden_manifest()), encoding="utf-8")
    entities = tmp_path / "entities.tsv"
    entities.write_text("r2\t0\t2\tPerson\tw0\n", encoding="utf-8")
    partials = tmp_path / "partials"
    partials.mkdir()
    (partials / "0.txt").write_text("and then we will meet tomorrow", encoding="utf-8")
    (partials / "1.txt").write_text("we will meet tomorrow at noon", encoding="utf-8")
    argvs = [
        ["--help"],
        ["--version"],
        *([name, "--help"] for name in COMMANDS),
        ["plan-data", "--params", "264000000"],
        ["curate", "--manifest", str(manifest), "--out-manifest", str(tmp_path / "kept.jsonl"),
         "--report", str(tmp_path / "r.csv")],
        ["evaluate", "--manifest", str(manifest), "--hyps", str(hyps),
         "--gold-entities", str(entities), "--pred-entities", str(entities)],
        ["ppn-score", "--gold-entities", str(entities), "--pred-entities", str(entities), "--manifest", str(manifest)],
        ["stitch", "--partials-dir", str(partials)],
    ]
    proc = fresh_python("-c", PROBE, json.dumps(argvs))
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout)
    assert [argv for argv, _, _ in rows] == argvs
    for argv, code, modules in rows:
        assert (code, modules) == (0, []), argv
    assert (tmp_path / "kept.jsonl").stat().st_size > 0


def test_import_cli_loads_every_traced_module():
    # bench/spans.py looks each traced function up in sys.modules after `import asrlab.cli`
    check = (
        "import sys, asrlab.cli; loaded = set(sys.modules); sys.path.insert(0, sys.argv[1]); import spans; "
        "print(sorted({module for module, _, _ in spans.TARGETS.values()} - loaded))"
    )
    proc = fresh_python("-c", check, str(ROOT / "bench"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_import_of_every_module_leaves_numpy_unimported():
    check = (
        "import importlib, pkgutil, sys, asrlab\n"
        "for info in pkgutil.walk_packages(asrlab.__path__, 'asrlab.'): importlib.import_module(info.name)\n"
        "print('asrlab.cli' in sys.modules, 'asrlab.transducer.loss' in sys.modules, 'numpy' in sys.modules)"
    )
    proc = fresh_python("-c", check)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True True False\n"


def test_threads_may_make_the_first_array_call_at_once():
    # eight threads wait on a barrier, then each makes the process's first numpy use
    check = """
import threading
from asrlab.audio import AudioBuffer
barrier, errors = threading.Barrier(8), []
def first_use():
    barrier.wait()
    try:
        AudioBuffer([0.0, 0.5]).power()
    except Exception as exc:
        errors.append(repr(exc))
threads = [threading.Thread(target=first_use) for _ in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join()
print(errors)
"""
    proc = fresh_python("-c", check)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_import_transducer_loads_no_other_asrlab_module():
    check = "import json, sys, asrlab.transducer; print(json.dumps(sorted(m for m in sys.modules if m.startswith('asrlab'))))"
    proc = fresh_python("-c", check)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert "asrlab.transducer.loss" in loaded
    assert [m for m in loaded if m not in ("asrlab", "asrlab._lazy") and not m.startswith("asrlab.transducer")] == []

"""Start-up: commands load only the machinery they run.

asrlab imports numpy on first use (``asrlab._lazy``), and the standard-library
modules that only the transcriber, audio, entity, stitching and sharded paths
use inside the functions that use them. Each test starts a fresh interpreter,
because the test process itself has them loaded. No command imports
multiprocessing or a process pool: ``curate`` forks its shard workers itself,
from a process with one thread.
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

# Standard-library modules that asrlab imports on first use.
MACHINERY = ("concurrent.futures", "subprocess", "shlex", "difflib", "wave", "signal")

# Runs asrlab.cli.main on each argv of a JSON list, in order, and prints one JSON
# row per run: [argv, exit code, numpy modules and process-pool modules imported
# so far, MACHINERY modules imported so far]. A numpy that has really been
# imported has imported its submodules too. pickle is loaded only by a curate
# shard that fails. Modules are counted from the state before asrlab is
# imported, since site may load standard-library modules by itself.
PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
from asrlab.cli import main
machinery = json.loads(sys.argv[2])
rows = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    pools = ("multiprocessing", "concurrent.futures.process", "pickle")
    added = set(sys.modules) - before
    rows.append([argv, code, sorted(m for m in added if m.startswith("numpy.") or m in pools),
                 sorted(m for m in machinery if m in added)])
print(json.dumps(rows))
"""


def fresh_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


def probe(argvs: list[list[str]]) -> list[tuple[int, list[str], list[str]]]:
    """(exit code, numpy and pool modules, MACHINERY modules) loaded after each argv, run in order in one fresh interpreter."""
    proc = fresh_python("-c", PROBE, json.dumps(argvs), json.dumps(MACHINERY))
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout)
    assert [argv for argv, _, _, _ in rows] == argvs
    return [tuple(row[1:]) for row in rows]


def test_commands_load_only_the_machinery_they_run(tmp_path):
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
    evaluate = ["evaluate", "--manifest", str(manifest), "--hyps", str(hyps)]
    with_entities = ["--gold-entities", str(entities), "--pred-entities", str(entities)]
    numpy_free = [
        ["--help"],
        ["--version"],
        *([name, "--help"] for name in COMMANDS),
        ["plan-data", "--params", "264000000"],
        ["curate", "--manifest", str(manifest), "--out-manifest", str(tmp_path / "kept.jsonl"),
         "--report", str(tmp_path / "r.csv")],
        evaluate,
    ]
    rows = probe([*numpy_free, ["rnnt-check", "--lattices", "5", "--grad-checks", "1"]])
    for argv, (code, pools, machinery) in zip(numpy_free, rows):
        assert (code, pools, machinery) == (0, [], []), argv
    code, modules, machinery = rows[-1]  # rnnt-check loads numpy, which loads pickle itself, and no pool
    assert (code, [m for m in modules if not m.startswith("numpy.") and m != "pickle"], machinery) == (0, [], [])
    assert (tmp_path / "kept.jsonl").stat().st_size > 0
    # each of these in an interpreter of its own, so what it loads is its own
    for argv in ([*evaluate, *with_entities],
                 ["ppn-score", *with_entities, "--manifest", str(manifest)],
                 ["stitch", "--partials-dir", str(partials)]):
        assert probe([argv]) == [(0, [], ["difflib"])], argv


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

"""Start-up: commands load only the machinery they run.

asrlab imports numpy on first use (``asrlab._lazy``), and the standard-library
modules that only the transcriber, audio, entity, stitching and sharded paths
use inside the functions that use them. Each test starts a fresh interpreter,
because the test process itself has them loaded. No command imports
multiprocessing or a process pool: ``curate`` forks its shard workers itself,
from a process with one thread. The asrlab program loads numpy with one BLAS
thread, which the BLAS tests count in ``/proc/self/task``; library use loads it
as it is.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from asrlab._lazy import BLAS_THREAD_VARS
from asrlab.cli import _COMMANDS
from asrlab.curation import write_manifest
from tests.conftest import make_script, write_tone_wav
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


def fresh_python(*args: str, env: dict | None = None) -> subprocess.CompletedProcess:
    env = dict(os.environ if env is None else env)
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
        *([name, "--help"] for name in _COMMANDS),
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


# eight threads wait on a barrier, then each makes the process's first numpy use
FIRST_USE_IN_EIGHT_THREADS = """
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


def test_threads_may_make_the_first_array_call_at_once():
    proc = fresh_python("-c", FIRST_USE_IN_EIGHT_THREADS)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_threads_may_make_the_first_array_call_at_once_in_the_program():
    # under the program mark the first use sets and removes OPENBLAS_NUM_THREADS, all under one lock
    check = ("import os\nfrom asrlab._lazy import mark_program\nmark_program()\nenviron = dict(os.environ)\n"
             + FIRST_USE_IN_EIGHT_THREADS + "print(dict(os.environ) == environ)\n")
    proc = fresh_python("-c", check, env=caller_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\nTrue\n"


# --- BLAS threads: the program loads numpy with one, library use as it is ------

needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc/self/task")

# Runs asrlab.cli.main on the JSON argv, then prints [exit code, threads of this
# process, os.environ unchanged]. Pool threads have been joined by then.
PROGRAM = """
import contextlib, io, json, os, sys
environ = dict(os.environ)
from asrlab.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps([code, len(os.listdir("/proc/self/task")), dict(os.environ) == environ]))
"""


def caller_env(**blas: str) -> dict:
    """This process's environment without any BLAS thread variable, then with `blas` set."""
    return {**{k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}, **blas}


def threads_after(code: str, env: dict) -> int:
    proc = fresh_python("-c", code + "\nimport os; print(len(os.listdir('/proc/self/task')))", env=env)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


def run_program(argv: list[str], env: dict) -> list:
    proc = fresh_python("-c", PROGRAM, json.dumps(argv), env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def stitch_audio(tmp_path) -> tuple[list[str], pathlib.Path]:
    """A stitch --audio argv over two chunks, and the directory where each transcriber call records its BLAS variables."""
    wav = tmp_path / "long.wav"
    write_tone_wav(wav, duration_sec=30.0, amplitude=0.4)
    seen = tmp_path / "seen"
    seen.mkdir()
    transcriber = make_script(
        tmp_path, "blas_env.py",
        f"import json, os, sys\nvalues = [os.environ.get(v) for v in {BLAS_THREAD_VARS!r}]\n"
        f"open(os.path.join({str(seen)!r}, os.path.basename(sys.argv[1])), 'w').write(json.dumps(values))\n"
        "print('words')\n",
    )
    argv = ["stitch", "--audio", str(wav), "--transcriber", " ".join(transcriber), "--jobs", "2",
            "--out", str(tmp_path / "joined.txt")]
    return argv, seen


def seen_values(seen: pathlib.Path) -> list:
    values = [json.loads(p.read_text()) for p in sorted(seen.iterdir())]
    assert len(values) == 2
    return values


@needs_proc
def test_the_program_loads_numpy_with_one_blas_thread(tmp_path):
    stitch, seen = stitch_audio(tmp_path)
    for argv in (["rnnt-check", "--lattices", "5", "--grad-checks", "1"], stitch):
        assert run_program(argv, caller_env()) == [0, 1, True], argv
    assert seen_values(seen) == [[None, None, None]] * 2  # the transcriber children see no BLAS variable


@needs_proc
@pytest.mark.parametrize("var", BLAS_THREAD_VARS)
def test_a_caller_set_blas_thread_variable_wins(tmp_path, var):
    stitch, seen = stitch_audio(tmp_path)
    env = caller_env(**{var: "2"})
    assert run_program(stitch, env) == [0, threads_after("import numpy", env), True]
    assert seen_values(seen) == [[("2" if v == var else None) for v in BLAS_THREAD_VARS]] * 2


@needs_proc
def test_library_use_imports_numpy_as_it_is():
    check = "import os\nenviron = dict(os.environ)\nfrom asrlab._lazy import np\nnp.zeros(1)\nassert dict(os.environ) == environ"
    assert threads_after(check, caller_env()) == threads_after("import numpy", caller_env())


def test_import_transducer_loads_no_other_asrlab_module():
    check = "import json, sys, asrlab.transducer; print(json.dumps(sorted(m for m in sys.modules if m.startswith('asrlab'))))"
    proc = fresh_python("-c", check)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert "asrlab.transducer.loss" in loaded
    assert [m for m in loaded if m not in ("asrlab", "asrlab._lazy") and not m.startswith("asrlab.transducer")] == []

"""asrlab benchmark: one workload, measured end to end or traced per layer.

    python3 bench/run.py --workload curate --seed 1 --seconds 60 --trace 0

Run from the repository root. The workload's inputs are generated from the
seed under ``.bench_work/``; its steps then run one after another, each as a
child process (``python3 -m asrlab ...`` with ``src`` on ``PYTHONPATH``), in
a closed loop until ``--seconds`` have passed, set-up included. Every step's
outputs are checked after every pass. With ``--trace 1`` the passes run in
this process instead, alternately plain and with span wrappers around asrlab's
public functions, and the per-layer metrics are reported. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(BENCH_DIR, "digests.json")
LAUNCHER = os.path.join(BENCH_DIR, "launch.py")
CHILD_TIMEOUT_S = 120.0
REFERENCE = os.path.join(BENCH_DIR, "reference.py")
# Times of the reference (reference.py) on the 2-vCPU Xeon host the bounds
# were measured on, rounded medians over 20 runs of their per-run means: the
# kernel in this process, and the script as a child. Time metrics are scaled
# to this host speed.
REFERENCE_KERNEL_S = 0.0114
REFERENCE_CHILD_S = 0.250
KERNEL_REPEATS = 3


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int


def run_child(cmd: list[str], stdout_path: str, env: dict) -> Child:
    """Run one child to completion through ``launch.py``; wall time, CPU and
    peak RSS are the child's own, from its wait4.

    ``getrusage(RUSAGE_CHILDREN)`` would report the largest RSS of any child
    ever waited for, so a small command after a large one would read large;
    and a child spawned from this process would start from its peak RSS.
    """
    report = stdout_path + ".usage"
    if os.path.isfile(report):
        os.remove(report)
    with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
        code = subprocess.call([sys.executable, LAUNCHER, report, str(CHILD_TIMEOUT_S), *cmd],
                               stdout=out, stderr=err, env=env, cwd=ROOT)
    if not os.path.isfile(report):
        return Child(0.0, 0.0, 0.0, code or 1)
    with open(report, encoding="utf-8") as fh:
        usage = json.load(fh)
    return Child(usage["wall_s"], usage["cpu_s"], usage["rss_mb"], usage["code"])


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def step_command(step) -> list[str]:
    if step.is_api:
        return [sys.executable, os.path.join(BENCH_DIR, "api_stage.py"), *step.argv]
    return [sys.executable, "-m", "asrlab", *step.argv]


def help_command(step) -> list[str]:
    """What a step costs before it does any work: interpreter, imports, parser."""
    if step.is_api:
        return [sys.executable, "-c", "import asrlab.transducer"]
    return [sys.executable, "-m", "asrlab", step.argv[0], "--help"]


class Tally:
    """Operations attempted and failed; a failure is a nonzero exit or a failed check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, label: str, code: int, error: str | None) -> None:
        self.attempted += 1
        if code != 0:
            self.failures.append(f"{label}: exit code {code}")
        elif error:
            self.failures.append(f"{label}: {error}")


def clear_outputs(steps) -> None:
    for step in steps:
        for path in step.outputs:
            if os.path.isfile(path):
                os.remove(path)


def check_steps(steps, codes: list[int], recorded, tally: Tally, observed: list) -> None:
    for i, (step, code) in enumerate(zip(steps, codes)):
        error, seen = (None, None)
        if code == 0:
            try:
                error, seen = step.check(recorded[i] if recorded else None)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                error = f"output unreadable: {type(exc).__name__}: {exc}"
        tally.record(f"step {i} {step.name}", code, error)
        observed.append(seen)


def setup_round(commands: list[list[str]], env: dict, work: str, tally: Tally, walls: dict) -> None:
    """Run each set-up-only command once; record its wall time."""
    for cmd in commands:
        child = run_child(cmd, os.path.join(work, "help.out"), env)
        tally.record(" ".join(cmd[-2:]), child.code, None)
        walls[tuple(cmd)].append(child.wall_s)


@dataclass
class Host:
    """Reference times taken between the steps of a run."""

    kernel_s: list[float]
    child_s: list[float]

    def sample(self, env: dict, work: str, tally: Tally) -> None:
        import reference

        for _ in range(KERNEL_REPEATS):
            start = time.perf_counter()
            reference.kernel()
            self.kernel_s.append(time.perf_counter() - start)
        child = run_child([sys.executable, REFERENCE], os.path.join(work, "reference.out"), env)
        tally.record("reference child", child.code, None)  # a failed one would skew the scale
        self.child_s.append(child.wall_s)

    def scale(self) -> float:
        """Factor that takes a time measured in this run to the reference host.

        The geometric mean of the two references' ratios: the kernel follows
        the speed of the interpreter, the child that of process start,
        imports and page faults too, and the steps spend their time in both.
        """
        kernel = statistics.fmean(self.kernel_s) / REFERENCE_KERNEL_S
        child = statistics.fmean(self.child_s) / REFERENCE_CHILD_S
        return 1.0 / math.sqrt(kernel * child)


def measure(steps, deadline: float, env: dict, work: str, recorded, tally: Tally) -> tuple[list[list[Child]], float, Host]:
    """Closed loop over passes of the workload until the deadline.

    The reference kernel and the reference child run after every step, outside
    its timing, so they sample the host's speed where the steps run. A round
    of the steps' set-up-only commands follows every pass, so set-up is
    sampled over the whole run as the passes are. Set-up time is the sum over
    the steps of the median of their command's rounds.
    """
    commands = sorted({tuple(help_command(s)) for s in steps})
    for cmd in [*commands, (sys.executable, REFERENCE)]:  # warm-up: byte-code caches
        run_child(list(cmd), os.path.join(work, "help.out"), env)
    walls: dict[tuple, list[float]] = {cmd: [] for cmd in commands}
    host = Host([], [])
    passes: list[list[Child]] = []
    begin = time.perf_counter()
    while True:
        clear_outputs(steps)
        children = []
        for step in steps:
            children.append(run_child(step_command(step), step.stdout, env))
            host.sample(env, work, tally)
        check_steps(steps, [c.code for c in children], recorded, tally, [])
        passes.append(children)
        setup_round([list(c) for c in commands], env, work, tally, walls)
        now = time.perf_counter()
        if now + (now - begin) / len(passes) > deadline:
            break
    setup_s = sum(statistics.median(walls[tuple(help_command(s))]) for s in steps)
    return passes, setup_s, host


def end_to_end(passes: list[list[Child]], work_units: float, setup_s: float, scale: float) -> dict[str, float]:
    """Time metrics are totals over the run divided by its passes, scaled to
    the reference host.

    The host's speed drifts over tens of seconds; a total weighs every part of
    the run as it was, where a median of passes jumps to whichever speed held
    for most of them. Over minutes it drifts by up to 1.6x, which the scale
    takes out.
    """
    wall = scale * sum(c.wall_s for p in passes for c in p) / len(passes)
    return {
        "wall_s": wall,
        "cpu_s": scale * sum(c.cpu_s for p in passes for c in p) / len(passes),
        "peak_rss_mb": statistics.median(max(c.rss_mb for c in p) for p in passes),
        "work_per_s": work_units / wall,
        "setup_s": scale * setup_s,
    }


def run_in_process(step) -> int:
    import api_stage
    import asrlab.cli

    with open(step.stdout, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
        try:
            if step.is_api:
                api_stage.run(*step.argv)
                return 0
            return asrlab.cli.main(step.argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed operation, not a benchmark crash
            print(f"{step.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1


def measure_traced(steps, seconds: float, recorded, tally: Tally, spans_path: str) -> dict[str, float]:
    """Alternate plain and traced in-process passes; per-layer medians of the traced ones."""
    sys.path.insert(0, SRC)
    import asrlab.cli  # noqa: F401  (binds the names the wrappers replace)
    import spans

    plain_walls, traced_walls, tracers = [], [], []
    begin = time.perf_counter()
    while True:
        for traced in (False, True):
            clear_outputs(steps)
            tracer = spans.Tracer(run=len(tracers))
            start = time.perf_counter()
            with spans.installed(tracer) if traced else contextlib.nullcontext():
                codes = []
                for step in steps:
                    idx = tracer.open(step.name)
                    codes.append(run_in_process(step))
                    tracer.close(idx)
            wall = time.perf_counter() - start
            check_steps(steps, codes, recorded, tally, [])
            if not traced:
                plain_walls.append(wall)
                continue
            traced_walls.append(wall)
            tracers.append(tracer)
            roots = sum(s.duration for s in tracer.spans if s.parent < 0)
            error = None
            if abs(sum(spans.self_times(tracer.spans)) - roots) > 1e-6:
                error = "layer self times do not add up to the command wall times"
            tally.record("span accounting", 0, error)
        elapsed = time.perf_counter() - begin
        if elapsed * (len(traced_walls) + 1) / len(traced_walls) > seconds:
            break
    spans.write(spans_path, tracers)
    per_pass = [spans.layer_metrics(t.spans) for t in tracers]
    names = set().union(*per_pass)
    metrics = {n: statistics.median(p.get(n, 0.0) for p in per_pass) for n in names}
    metrics["trace.wall_s"] = statistics.median(traced_walls)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(plain_walls)
    return metrics


def environment() -> str:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return f"nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()} numpy={numpy.__version__}"


def load_recorded() -> dict:
    if not os.path.isfile(DIGESTS):
        return {}
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def record(workload, seeds: list[int]) -> int:
    """Run each seed once and store the observed digests as the expected ones."""
    recorded = load_recorded()
    env = child_env()
    for seed in seeds:
        work = prepare_dir(workload.name)
        spec = workload.prepare(work, seed)
        steps = workload.steps(spec, work)
        tally, observed = Tally(), []
        codes = [run_child(step_command(s), s.stdout, env).code for s in steps]
        check_steps(steps, codes, None, tally, observed)
        if tally.failures:
            print(f"seed {seed}: not recorded: {tally.failures}", file=sys.stderr)
            return 1
        recorded.setdefault(workload.name, {})[str(seed)] = observed
        print(f"{workload.name} seed {seed}: recorded")
    blocks = []
    for name in sorted(recorded):
        seeds_ = sorted(recorded[name].items(), key=lambda kv: int(kv[0]))
        rows = ",\n".join(f"  {json.dumps(seed)}: {json.dumps(seen)}" for seed, seen in seeds_)
        blocks.append(f" {json.dumps(name)}: {{\n{rows}\n }}")
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(blocks) + "\n}\n")  # one line per seed
    return 0


def prepare_dir(name: str) -> str:
    work = os.path.join(ROOT, ".bench_work", name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    return work


def run_workload(workload, seed: int, seconds: float, trace: bool, config: dict) -> dict:
    work = prepare_dir(workload.name)
    t0 = time.perf_counter()
    spec = workload.prepare(work, seed)
    gen_s = time.perf_counter() - t0
    steps = workload.steps(spec, work)
    recorded = load_recorded().get(workload.name, {}).get(str(seed))
    env = child_env()
    tally = Tally()
    if trace:
        metrics = measure_traced(steps, seconds, recorded, tally, os.path.join(work, "spans.jsonl"))
        wanted = config["per_layer"]
        passes = None
    else:
        deadline = time.perf_counter() + seconds
        passes, setup_s, host = measure(steps, deadline, env, work, recorded, tally)
        metrics = end_to_end(passes, spec["work"], setup_s, host.scale())
        wanted = config["end_to_end"]
    fail_ratio = len(tally.failures) / tally.attempted
    n = len(passes) if passes else "traced"
    print(f"workload={workload.name} seed={seed} passes={n} generate_s={gen_s:.2f} "
          f"digests={'recorded' if recorded else 'none'} {environment()}")
    if passes:
        print(f"  work_per_s counts {workload.unit} ({spec['work']:.6g} per pass)")
        scale = host.scale()
        print(f"  host scale {scale:.4f}: reference kernel mean {statistics.fmean(host.kernel_s) * 1e3:.2f} ms "
              f"(reference host {REFERENCE_KERNEL_S * 1e3:.2f}), child mean {statistics.fmean(host.child_s):.4f} s "
              f"(reference host {REFERENCE_CHILD_S:.4f}); unscaled wall_s {metrics['wall_s'] / scale:.6g} s, "
              f"cpu_s {metrics['cpu_s'] / scale:.6g} s, setup_s {metrics['setup_s'] / scale:.6g} s")
        for i, step in enumerate(steps):
            walls = sorted(p[i].wall_s for p in passes)
            print(f"  step {i} {step.name:<16} wall median {statistics.median(walls):.4f} s, range {walls[0]:.4f}-{walls[-1]:.4f} s")
    for m in wanted:
        print(f"  {m['name']:<44} {metrics.get(m['name'], 0.0):>14.6g} {m['unit']}")
    print(f"  {'fail_ratio':<44} {fail_ratio:>14.6g} 1  ({len(tally.failures)}/{tally.attempted})")
    for failure in tally.failures[:10]:
        print(f"  FAILED {failure}")
    return {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted},
    }


def main(argv: list[str] | None = None) -> int:
    if not os.path.isfile(os.path.join(SRC, "asrlab", "__init__.py")):
        print(f"bench: no asrlab sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        config = json.load(fh)
    import workloads

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=int, nargs="+", metavar="SEED",
                        help="store the outputs of these seeds as the expected digests")
    args = parser.parse_args(argv)

    chosen = list(workloads.WORKLOADS.values()) if args.workload == "all" else [workloads.WORKLOADS[args.workload]]
    if args.record:
        return max(record(w, args.record) for w in chosen)
    results = {w.name: run_workload(w, args.seed, args.seconds, bool(args.trace), config) for w in chosen}
    if len(results) == 1:
        result = next(iter(results.values()))
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

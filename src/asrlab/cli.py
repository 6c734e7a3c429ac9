"""Single executable exposing every capability as a subcommand.

Exit codes: 0 on success; 2 when the run is refused because of its inputs,
flags or environment, which is when a command raises ValueError or OSError;
1 on any other exception. ``main`` alone maps exceptions to exit codes, and
prints ``asrlab <command>: <message>`` to stderr. Every option is
declared once in COMMANDS, with its flag, its --config key and its default; a
flag beats the config file, which beats the default. Every report embeds the
tool version, the seed where one is used, and the options that can change the
report, so a rerun with the same inputs produces byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import errno
import inspect
import json
import math
import os
import stat
import sys
import tempfile
from typing import Sequence

from . import __version__
from ._lazy import mark_program, np
from .config import load_config, utf8_lines
from .curation import (
    ManifestParseError,
    ManifestRecord,
    PipelineConfig,
    curate_manifest,
    read_manifest,
    usable_cpus,
)
from .entities import _sim_threshold_fault, align_entities, pn_score, read_entity_file
from .metrics import EvalRow, build_report, wer
from .noise import SweepSpec, _snr_list_fault, _transcriber_fault, ordered_map, run_sweep, transcribe_file, write_sweep_csv
from .planner import ScalingAssumptions, optimal_hours
from .stitch import plan_chunks, stitch, voiced_ranges, write_voiced_chunks
from .textnorm import DEFAULT_RULES, load_rules, normalize
from .transducer.lattice import _draw, random_lattice
from .transducer.loss import BRUTE_T_MAX, BRUTE_U_MAX, _oracle_pairs, finite_difference_grad, rnnt_grad

__all__ = ["main", "parse_args", "COMMANDS"]


# Options that cannot change a report: where it goes, working files, parallelism.
# The seed gets a header line of its own.
_NOT_IN_HEADER = {"command", "func", "config", "seed", "jobs", "workdir", "out", "out_manifest", "report"}


def _write_header(out, args: argparse.Namespace) -> None:
    """A report's '# ' lines: version, the seed where one is used, and the options that can change the report."""
    out.write(f"# asrlab {__version__}\n")
    if "seed" in vars(args):
        out.write(f"# seed={args.seed}\n")
    options = {k: v for k, v in vars(args).items() if k not in _NOT_IN_HEADER}
    out.write("# config=" + json.dumps(options, sort_keys=True) + "\n")


def _inputs(args: argparse.Namespace) -> list[str]:
    """The files the command reads, named by its options that _file_fault checks; no output may be written over one."""
    return [path for flag, _, kwargs in COMMANDS[args.command][2]
            if kwargs.get("check") is _file_fault and (path := getattr(args, _dest(flag)))]


def _staging_file(path: str, i: int) -> tuple[str, str, int | None] | None:
    """A temporary file, the file it is moved onto and the mode it then takes; None to write `path` in place.

    Only a missing target or a regular file with one link is staged, beside
    the file that `path` resolves to. A replacement would not write through a
    device such as /dev/null, a FIFO or a hard link, so those are written in
    place, as is a file whose directory takes no new file or whose owner the
    replacement could not keep.
    """
    try:
        st = os.stat(path)
    except FileNotFoundError:
        st = None
    if st is not None:
        if stat.S_ISDIR(st.st_mode):  # os.replace would refuse it only after the other targets were replaced
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        if not os.access(path, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
        if not (stat.S_ISREG(st.st_mode) and st.st_nlink == 1):
            return None
    real = os.path.realpath(path)
    tmp = os.path.join(os.path.dirname(real), f".{os.path.basename(real)}.{os.getpid()}.{i}.tmp")
    try:
        open(tmp, "w").close()
    except OSError as exc:
        if st is not None:
            return None
        exc.filename = path  # name the output the user gave
        raise
    if st is None:
        return tmp, real, None
    try:
        made = os.stat(tmp)
        if (made.st_uid, made.st_gid) != (st.st_uid, st.st_gid):
            os.chown(tmp, st.st_uid, st.st_gid)
    except OSError:
        os.remove(tmp)
        return None
    return tmp, real, stat.S_IMODE(st.st_mode)


def _same_output(a: str, b: str) -> bool:
    """Whether outputs `a` and `b` resolve to one path or are one existing regular file; a device may be both."""
    try:
        st = os.stat(a)
    except FileNotFoundError:
        return os.path.realpath(a) == os.path.realpath(b)
    return stat.S_ISREG(st.st_mode) and os.path.exists(b) and os.path.samefile(a, b)


@contextlib.contextmanager
def _replaced_together(*paths: str | None, reads: Sequence[str] = ()):
    """Text files to write `paths` through (stdout for None); staged ones are moved into place once the block completes.

    See `_staging_file` for which targets are staged. A run refused or failed
    before the block completes changes no staged target, truncates none, and
    leaves no temporary file behind; an existing target keeps its mode and
    owner. A target written in place is opened, and so truncated, as the block
    starts, so one that is the same file as a path in `reads` is refused. Two
    targets that are one path or one regular file are refused too: one would
    replace the other.
    """
    for i, path in enumerate(paths):
        for other in paths[:i]:
            if path is not None and other is not None and _same_output(other, path):
                raise ValueError(f"outputs {other} and {path} are the same file: one would replace the other")
    staged: list[tuple[str, str, int | None] | None] = []
    opened: list = []
    try:
        for i, path in enumerate(paths):
            staged.append(None if path is None else _staging_file(path, i))
            if staged[-1] is None and path is not None and os.path.isfile(path):
                for read in reads:
                    if os.path.exists(read) and os.path.samefile(path, read):
                        raise ValueError(f"output {path} is the input {read}: written in place, "
                                         "it would be truncated before it is read")
        for path, s in zip(paths, staged):
            if path is not None:
                opened.append(open(path if s is None else s[0], "w", encoding="utf-8", newline=""))
        files = iter(opened)
        yield [sys.stdout if path is None else next(files) for path in paths]
        while opened:
            opened.pop().close()
        for s in staged:
            if s is not None:
                tmp, real, mode = s
                if mode is not None:
                    os.chmod(tmp, mode)
                os.replace(tmp, real)
    finally:
        for fh in opened:
            with contextlib.suppress(OSError):
                fh.close()
        for s in staged:
            if s is not None:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(s[0])


def _fmt(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.6f}"


def _write_scores(out, args: argparse.Namespace, rows: list[EvalRow], weight_column: str, metrics: tuple[str, ...]) -> None:
    """Header, one CSV row per file, then the length-weighted AGGREGATE row."""
    _write_header(out, args)
    writer = csv.writer(out)
    writer.writerow(["file_id", weight_column, *metrics])
    for row in rows:
        writer.writerow([row.file_id, f"{row.audio_sec:g}", *(_fmt(getattr(row, m)) for m in metrics)])
    aggregates = build_report(rows)
    writer.writerow(["AGGREGATE", "", *(_fmt(aggregates[m]) for m in metrics)])


def _score_entities(row: EvalRow, gold: dict, pred: dict, sim_threshold: float) -> EvalRow:
    """Fill the row's proper-noun metrics from the file's gold and predicted entities."""
    align = align_entities(gold.get(row.file_id, []), pred.get(row.file_id, []), sim_threshold)
    row.pn_jaro, row.pn_wer = pn_score(align) or (None, None)
    return row


def _load_rules(path: str | None):
    return DEFAULT_RULES if path is None else load_rules(path)


def _read_tsv(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for line_no, raw in utf8_lines(path):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        if "\t" not in line:
            raise ValueError(f"{path}:{line_no}: expected id<TAB>text")
        file_id, text = line.split("\t", 1)
        if file_id in out:
            raise ValueError(f"{path}:{line_no}: id {file_id!r} is repeated")
        out[file_id] = text
    return out


def _records_or_die(path: str) -> list[ManifestRecord]:
    """The manifest's records, for commands that key their work by record id."""
    entries = read_manifest(path)
    bad = [e for e in entries if isinstance(e, ManifestParseError)]
    if bad:
        detail = "; ".join(f"{e.id}: {e.error}" for e in bad[:3])
        raise ValueError(f"manifest {path} has {len(bad)} malformed line(s): {detail}")
    seen: set[str] = set()
    for rec in entries:
        if rec.id in seen:
            raise ValueError(f"manifest {path}: id {rec.id!r} is repeated")
        seen.add(rec.id)
    return entries  # type: ignore[return-value]


# --- subcommands -----------------------------------------------------------


def cmd_plan_data(args: argparse.Namespace) -> int:
    assumptions = ScalingAssumptions(wpm=args.wpm, tpw=args.tpw, tpp=args.tpp)
    try:
        hours = optimal_hours(args.params, assumptions)
    except ValueError as exc:
        raise ValueError(f"--params: {exc}") from None
    print(f"params={args.params}")
    print(f"hours={hours:.6f}")
    print(f"hours_rounded={round(hours)}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    with _replaced_together(args.out, reads=_inputs(args)) as (out,):
        rules = _load_rules(args.rules)
        records = _records_or_die(args.manifest)
        refs = _read_tsv(args.refs) if args.refs else {r.id: r.transcript for r in records}
        hyps = _read_tsv(args.hyps)

        gold_entities = read_entity_file(args.gold_entities) if args.gold_entities else None
        pred_entities = read_entity_file(args.pred_entities) if args.pred_entities else None
        if (gold_entities is None) != (pred_entities is None):
            raise ValueError("--gold-entities and --pred-entities must be given together")

        rows = []
        for rec in records:
            if rec.id not in hyps:
                raise ValueError(f"no hypothesis for file id {rec.id!r}")
            if rec.id not in refs:
                raise ValueError(f"no reference for file id {rec.id!r}")
            ref = normalize(refs[rec.id], rules).split()
            hyp = normalize(hyps[rec.id], rules).split()
            if not ref:
                raise ValueError(f"reference for {rec.id!r} is empty after normalization")
            row = EvalRow(rec.id, rec.duration_sec, wer(ref, hyp))
            if gold_entities is not None:
                _score_entities(row, gold_entities, pred_entities, args.sim_threshold)
            rows.append(row)

        _write_scores(out, args, rows, "audio_sec", ("wer", "pn_jaro", "pn_wer"))
    return 0


def cmd_ppn_score(args: argparse.Namespace) -> int:
    with _replaced_together(args.out, reads=_inputs(args)) as (out,):
        gold = read_entity_file(args.gold_entities)
        pred = read_entity_file(args.pred_entities)
        durations: dict[str, float] = {}
        if args.manifest:
            durations = {r.id: r.duration_sec for r in _records_or_die(args.manifest)}

        rows = [
            # equal weights without a manifest
            _score_entities(EvalRow(file_id, durations.get(file_id, 1.0)), gold, pred, args.sim_threshold)
            for file_id in sorted(set(gold) | set(pred))
        ]
        _write_scores(out, args, rows, "weight_sec", ("pn_jaro", "pn_wer"))
    return 0


def cmd_curate(args: argparse.Namespace) -> int:
    pipeline_cfg = PipelineConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(PipelineConfig)})
    with _replaced_together(args.out_manifest, args.report, reads=_inputs(args)) as (kept_out, report_out):
        _write_header(report_out, args)
        n_kept, n_rejected = curate_manifest(args.manifest, pipeline_cfg, kept_out, report_out, args.jobs)
    print(f"kept={n_kept} rejected={n_rejected} out_manifest={args.out_manifest} report={args.report}")
    return 0


def cmd_noise_sweep(args: argparse.Namespace) -> int:
    rules = _load_rules(args.rules)
    spec = SweepSpec(args.snrs, args.noise_kind, noise_corpus_dir=args.noise_dir, seed=args.seed)
    with _replaced_together(args.out, reads=_inputs(args)) as (out,):
        records = _records_or_die(args.manifest)
        for rec in records:
            if fault := _file_fault(rec.audio_path):
                raise ValueError(f"audio for {rec.id} {fault}")
        results = run_sweep(records, spec, args.transcriber, args.workdir, rules=rules, jobs=args.jobs)
        _write_header(out, args)
        write_sweep_csv(results, out)
    print(f"rows={sum(map(len, results.values()))} out={args.out}")
    return 0


def _read_partials_dir(path: str, rules) -> list[list[str]]:
    if not os.path.isdir(path):
        raise ValueError(f"partials directory not found: {path}")
    entries = []
    for name in os.listdir(path):
        stem, ext = os.path.splitext(name)
        if ext != ".txt":
            continue
        if not (stem.isascii() and stem.isdigit()):
            raise ValueError(f"partial file name must be <index>.txt, got {name!r}")
        entries.append((int(stem), name, "".join(line for _, line in utf8_lines(os.path.join(path, name)))))
    if not entries:
        raise ValueError(f"no <index>.txt partials in {path}")
    entries.sort()
    for expected, (idx, name, _) in enumerate(entries):
        if idx != expected:
            if expected and entries[expected - 1][0] == idx:
                raise ValueError(f"partials {entries[expected - 1][1]} and {name} in {path} share index {idx}")
            raise ValueError(f"partial index {expected} is missing in {path}: the next file is {name}")
    return [normalize(text, rules).split() for _, _, text in entries]


def _transcribe_audio(args: argparse.Namespace, rules) -> list[list[str]]:
    """Strip the silences from --audio, cut the rest into overlapping chunks, and transcribe each chunk.

    The recording is read from disk a block at a time, and each chunk WAV is
    read and written in order on this thread; only the transcriber calls run
    in the --jobs pool. A failure names the lowest failing chunk, whatever the
    number of jobs.
    """
    sr, ranges = voiced_ranges(args.audio)
    if args.chunk_len - args.overlap < 1 / sr:  # below one sample the chunk starts could stop advancing
        raise ValueError(
            f"need --chunk-len - --overlap >= 1/{sr} s, one sample (config keys stitch.chunk_len_sec, "
            f"stitch.overlap_sec), got {args.chunk_len:g} and {args.overlap:g}"
        )
    n_voiced = sum(stop - start for start, stop in ranges)
    if n_voiced == 0:
        raise ValueError(f"no speech detected in {args.audio}")
    plan = plan_chunks(n_voiced / sr, chunk_len=args.chunk_len, overlap=args.overlap)
    # chunk WAVs stay in --workdir; without it they go to a directory removed when the run ends
    with contextlib.nullcontext(args.workdir) if args.workdir else tempfile.TemporaryDirectory() as workdir:
        os.makedirs(workdir, exist_ok=True)
        chunk_paths = [os.path.join(workdir, f"chunk{i:04d}.wav") for i in range(len(plan.bounds))]
        write_voiced_chunks(args.audio, ranges, plan.bounds, chunk_paths)
        texts = ordered_map(lambda chunk_path: transcribe_file(args.transcriber, chunk_path), chunk_paths, args.jobs)
        for i, (chunk_path, text) in enumerate(zip(chunk_paths, texts)):
            if text is None:
                raise ValueError(f"transcriber failed on chunk {i} ({chunk_path})")
    return [normalize(text, rules).split() for text in texts]


def cmd_stitch(args: argparse.Namespace) -> int:
    rules = _load_rules(args.rules)
    if (args.partials_dir is None) == (args.audio is None):
        raise ValueError("give exactly one of --partials-dir or --audio")

    if not args.partials_dir:
        if not args.transcriber:
            raise ValueError("--audio mode requires --transcriber")
        if not 0 < args.overlap < args.chunk_len:
            raise ValueError(
                "need 0 < --overlap < --chunk-len (config keys stitch.overlap_sec, stitch.chunk_len_sec), "
                f"got {args.overlap:g} and {args.chunk_len:g}"
            )
    with _replaced_together(args.out, reads=_inputs(args)) as (out,):
        partials = _read_partials_dir(args.partials_dir, rules) if args.partials_dir else _transcribe_audio(args, rules)
        out.write(" ".join(stitch(partials, min_match_tokens=args.min_match)) + "\n")
    return 0


# rnnt-check's gates: |DP - brute force| in log space, and the gradient's error relative to finite differences
RNNT_TOL_LOGPROB = 1e-9
RNNT_TOL_GRAD = 1e-4


def cmd_rnnt_check(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)

    def shape(t_min: int, u_min: int, v_min: int) -> tuple[int, int, int]:
        return (int(rng.integers(t_min, args.t_max + 1)), int(rng.integers(u_min, args.u_max + 1)),
                int(rng.integers(v_min, args.v_max + 1)))

    # the lattices are drawn lazily, a block at a time, so memory stays flat in --lattices;
    # the deviations are taken in draw order
    max_dev = 0.0
    bound_ok = True
    for dp, brute in _oracle_pairs(_draw(rng, *shape(1, 0, 1)) for _ in range(args.lattices)):
        max_dev = max(max_dev, abs(dp - brute))
        bound_ok = bound_ok and dp <= 1e-12

    max_rel = 0.0
    for _ in range(args.grad_checks):
        lat = random_lattice(rng, *shape(2, 1, 2))
        analytic = rnnt_grad(lat)
        fd = finite_difference_grad(lat)
        denom = max(float(np.max(np.abs(fd))), 1e-12)
        max_rel = max(max_rel, float(np.max(np.abs(analytic - fd))) / denom)

    ok_oracle = max_dev <= RNNT_TOL_LOGPROB
    ok_grad = max_rel <= RNNT_TOL_GRAD
    print(f"oracle-agreement: {'PASS' if ok_oracle else 'FAIL'} max_abs_dev={max_dev:.3e} (n={args.lattices}, tol={RNNT_TOL_LOGPROB:g})")
    print(f"gradient-fd: {'PASS' if ok_grad else 'FAIL'} max_rel_err={max_rel:.3e} (n={args.grad_checks}, tol={RNNT_TOL_GRAD:g})")
    print(f"likelihood-bound: {'PASS' if bound_ok else 'FAIL'}")
    return 0 if (ok_oracle and ok_grad and bound_ok) else 1


# --- option table ----------------------------------------------------------


def float_list(text: str) -> list[float]:
    """Comma-separated numbers, e.g. ``-5,0,5``."""
    return [float(x) for x in text.split(",") if x.strip()]


def pattern_list(text: str) -> list[str]:
    """``;;``-separated regular expressions."""
    return [p for p in text.split(";;") if p]


def positive_int(text: str) -> int:
    """An integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _default(fn, param: str):
    """The default a library function declares for one of its parameters."""
    return inspect.signature(fn).parameters[param].default


def _file_fault(path: str) -> str | None:
    """Why `path` cannot be read as an input file, or None if it can."""
    return None if os.path.isfile(path) else f"not found: {path}"


def _in_range(lo: float, hi: float = math.inf):
    """A check that a number lies in [lo, hi]."""
    return lambda value: None if lo <= value <= hi else f"must lie in [{lo}, {hi}], got {value}"


def _opt(flag: str, key: str | None = None, **kwargs) -> tuple[str, str | None, dict]:
    """One option: its flag, its --config key (None: flag only), and add_argument kwargs.

    The kwarg `check`, kept from add_argument, maps a given value (from a flag or
    the config file alike) to why it is refused, or None; `main` runs it before
    any work. Options checked by `_file_fault` name the files the command reads.
    """
    return flag, key, kwargs


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


_RULES = _opt("--rules", "norm.rules", check=_file_fault, help="normalization rule file")
_SIM_THRESHOLD = _opt("--sim-threshold", "entities.sim_threshold", type=float, check=_sim_threshold_fault,
                      default=_default(align_entities, "sim_threshold"))
_JOBS = _opt("--jobs", "jobs", type=positive_int, default=usable_cpus(),
             help="work at once, at most the usable CPUs: noise-sweep files and stitch chunks transcribed, "
                  "curate manifest shards")

# subcommand -> (help, handler, options). Every subcommand also takes --config.
COMMANDS = {
    "plan-data": ("optimal training hours for a parameter count", cmd_plan_data, [
        _opt("--params", type=int, required=True),
        _opt("--wpm", "planner.wpm", type=float, default=ScalingAssumptions.wpm),
        _opt("--tpw", "planner.tpw", type=float, default=ScalingAssumptions.tpw),
        _opt("--tpp", "planner.tpp", type=float, default=ScalingAssumptions.tpp),
    ]),
    "evaluate": ("normalized WER (and optional PN metrics) over a manifest", cmd_evaluate, [
        _opt("--manifest", required=True, check=_file_fault),
        _opt("--refs", check=_file_fault, help="TSV id<TAB>text; defaults to manifest transcripts"),
        _opt("--hyps", required=True, check=_file_fault, help="TSV id<TAB>text"),
        _RULES,
        _opt("--gold-entities", check=_file_fault),
        _opt("--pred-entities", check=_file_fault),
        _SIM_THRESHOLD,
        _opt("--out"),
    ]),
    "ppn-score": ("proper-noun metrics from entity annotation files", cmd_ppn_score, [
        _opt("--gold-entities", required=True, check=_file_fault),
        _opt("--pred-entities", required=True, check=_file_fault),
        _opt("--manifest", check=_file_fault, help="optional, for length weighting"),
        _SIM_THRESHOLD,
        _opt("--out"),
    ]),
    "curate": ("run the pseudo-label filter pipeline", cmd_curate, [
        _opt("--manifest", required=True, check=_file_fault),
        _opt("--out-manifest", required=True),
        _opt("--report", required=True),
        # one option per PipelineConfig threshold: --wpm-min / curation.wpm_min, ...
        *(_opt("--" + f.name.replace("_", "-"), "curation." + f.name, type=float, default=f.default)
          for f in dataclasses.fields(PipelineConfig) if isinstance(f.default, float)),
        _opt("--blocklist", "curation.blocklist", type=pattern_list, default="", help=";;-separated regex patterns"),
        _JOBS,
    ]),
    "noise-sweep": ("WER vs SNR through an external transcriber", cmd_noise_sweep, [
        _opt("--manifest", required=True, check=_file_fault),
        _opt("--transcriber", required=True, check=_transcriber_fault, help="command invoked as CMD <wav>"),
        _opt("--workdir", required=True),
        _opt("--out", required=True),
        _opt("--snrs", "sweep.snr_list", type=float_list, check=_snr_list_fault, default="-5,0,5,10,20", help="comma-separated dB list"),
        _opt("--noise-kind", "sweep.noise_kind", choices=["gaussian", "ambient"], default=SweepSpec.noise_kind),
        _opt("--noise-dir", "sweep.noise_dir", default=SweepSpec.noise_corpus_dir),
        _RULES,
        _opt("--seed", "seed", type=int, check=_in_range(0), default=SweepSpec.seed),
        _JOBS,
    ]),
    "stitch": ("join chunk transcripts (or decode+join an audio file)", cmd_stitch, [
        _opt("--partials-dir", help="directory of <index>.txt chunk transcripts"),
        _opt("--audio", check=_file_fault, help="WAV to chunk, transcribe, and stitch"),
        _opt("--transcriber", check=_transcriber_fault),
        _opt("--workdir"),
        _RULES,
        _opt("--min-match", "stitch.min_match_tokens", type=int, check=_in_range(1), default=_default(stitch, "min_match_tokens")),
        _opt("--chunk-len", "stitch.chunk_len_sec", type=float, default=_default(plan_chunks, "chunk_len")),
        _opt("--overlap", "stitch.overlap_sec", type=float, default=_default(plan_chunks, "overlap")),
        _JOBS,
        _opt("--out"),
    ]),
    "rnnt-check": ("oracle and gradient verification suite", cmd_rnnt_check, [
        _opt("--lattices", "rnnt.lattices", type=int, check=_in_range(1), default=1000),
        _opt("--grad-checks", "rnnt.grad_checks", type=int, check=_in_range(1), default=25),
        # gradient checks draw T >= 2, U >= 1 and V >= 2; the oracle enumerates up to the brute-force guard
        _opt("--t-max", type=int, check=_in_range(2, BRUTE_T_MAX), default=4),
        _opt("--u-max", type=int, check=_in_range(1, BRUTE_U_MAX), default=3),
        _opt("--v-max", type=int, check=_in_range(2), default=3),
        _opt("--seed", "seed", type=int, check=_in_range(0), default=0),
    ]),
}


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and the subparser of each subcommand."""
    parser = argparse.ArgumentParser(prog="asrlab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"asrlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, func, options) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flag, key, kwargs in options:
            kwargs = {k: v for k, v in kwargs.items() if k != "check"}
            notes = [kwargs.get("help"), key and f"config key {key}", "default" in kwargs and "default %(default)s"]
            p.add_argument(flag, **{**kwargs, "help": "; ".join(filter(None, notes)) or None})
        p.add_argument("--config", help="file of 'key = value' lines; flags override it")
        p.set_defaults(func=func)
    return parser, sub.choices


def _config_defaults(path: str, options: list) -> dict[str, object]:
    """Values from the config file at `path` for `options`, cast by each option's type.

    A key that no subcommand knows is refused; one that another subcommand knows is ignored.
    """
    if fault := _file_fault(path):
        raise ValueError(f"--config {fault}")
    cfg = load_config(path)
    known = {key for _, _, opts in COMMANDS.values() for _, key, _ in opts}
    if unknown := [key for key in cfg if key not in known]:
        raise ValueError(f"{path}:{cfg[unknown[0]][0]}: unknown config key {unknown[0]!r}")
    defaults = {}
    for flag, key, kwargs in options:
        if key in cfg:
            value = cfg[key][1]
            try:
                defaults[_dest(flag)] = kwargs.get("type", str)(value)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ValueError(f"{path}: {key} = {value!r}: {exc}") from exc
    return defaults


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """Parse the command line; a --config file supplies the options it names that no flag gives."""
    parser, subparsers = build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:
        try:
            subparsers[args.command].set_defaults(**_config_defaults(args.config, COMMANDS[args.command][2]))
        except (ValueError, OSError) as exc:
            parser.exit(2, f"asrlab {args.command}: {exc}\n")
        args = parser.parse_args(argv)
    return args


def main(argv: list[str] | None = None) -> int:
    mark_program()  # numpy, if this run loads it, starts no BLAS worker threads
    args = parse_args(argv)
    try:
        for flag, key, kwargs in COMMANDS[args.command][2]:
            value = getattr(args, _dest(flag))
            if value is not None and "check" in kwargs and (fault := kwargs["check"](value)):
                raise ValueError(f"{flag} (config key {key}) {fault}" if key else f"{flag} {fault}")
        return args.func(args)
    except (ValueError, OSError) as exc:  # the run was refused: its inputs, flags or environment
        print(f"asrlab {args.command}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"asrlab {args.command}: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

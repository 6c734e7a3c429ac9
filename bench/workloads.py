"""The two workloads: their inputs, the commands they run, and output checks.

A workload is a list of steps run one after another. A step is one ``asrlab``
subcommand (``cli.<subcommand>``) or the transducer API stage
(``api.transducer``). Each step has a check that reads what the step wrote and
returns ``(error or None, observed)``; ``observed`` is a digest of the report
bodies (or, for the API stage, the computed values) and must equal what
``digests.json`` recorded for the seed, when it recorded one.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import shlex
import sys
from dataclasses import dataclass
from typing import Callable

import gen

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

@dataclass
class Step:
    name: str  # span name of the step: "cli.<subcommand>" or "api.transducer"
    argv: list[str]  # asrlab CLI arguments, or api_stage.py arguments
    stdout: str
    outputs: list[str]  # removed before every pass, so a stale file never passes a check
    check: Callable[[object], tuple[str | None, object]]

    @property
    def is_api(self) -> bool:
        return self.name.startswith("api.")


@dataclass
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json and README.md."""

    name: str
    unit: str  # what work_per_s counts
    prepare: Callable[[str, int], dict]
    steps: Callable[[dict, str], list[Step]]


def _body(path: str) -> bytes:
    """File bytes without the '# ' header lines, which carry paths and versions."""
    with open(path, "rb") as fh:
        return b"".join(line for line in fh if not line.startswith(b"#"))


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(hashlib.sha256(part).digest())
    return h.hexdigest()


def _versus(digest: str, recorded) -> str | None:
    if recorded is not None and digest != recorded:
        return f"digest {digest[:12]} differs from the recorded {str(recorded)[:12]}"
    return None


# --- curate -----------------------------------------------------------------


def _check_curate(spec: dict, kept_path: str, report_path: str, stdout_path: str, recorded):
    body = _body(report_path)
    rows = list(csv.reader(io.StringIO(body.decode("utf-8"))))
    if not rows or rows[0] != ["id", "verdict", "reasons", "measured_values"]:
        return "report header missing", None
    rows = rows[1:]
    if len(rows) != spec["records"]:
        return f"report has {len(rows)} rows for {spec['records']} records", None
    reasons = {r for row in rows for r in row[2].split(";") if r}
    missing = set(gen.REJECTION_REASONS) - reasons
    if missing or reasons - set(gen.REJECTION_REASONS):
        return f"rejection reasons differ: missing {sorted(missing)}, extra {sorted(reasons - set(gen.REJECTION_REASONS))}", None
    parse_errors = sum(row[2] == "parse-error" for row in rows)
    if parse_errors != spec["malformed"]:
        return f"{parse_errors} parse errors for {spec['malformed']} malformed lines", None
    kept_ids = {row[0] for row in rows if row[1] == "kept"}
    with open(kept_path, "rb") as fh:
        kept_bytes = fh.read()
    parents = set()
    for line in kept_bytes.decode("utf-8").splitlines():
        rec = json.loads(line)
        parents.add(rec["id"].split("#")[0])
        if not 7.0 <= rec["duration_sec"] <= 20.0:
            return f"kept segment {rec['id']} lasts {rec['duration_sec']} s", None
    if parents != kept_ids:
        return "kept manifest and report disagree on the kept records", None
    with open(stdout_path, encoding="utf-8") as fh:
        summary = fh.read().split()
    expected = [f"kept={len(kept_bytes.splitlines())}", f"rejected={len(rows) - len(kept_ids)}"]
    if summary[:2] != expected:
        return f"summary {summary[:2]} != {expected}", None
    digest = _digest(kept_bytes, body)
    return _versus(digest, recorded), digest


def _curate_steps(spec: dict, work: str) -> list[Step]:
    kept, report, out = (os.path.join(work, n) for n in ("kept.jsonl", "rejects.csv", "curate.out"))
    argv = ["curate", "--manifest", spec["manifest"], "--out-manifest", kept, "--report", report,
            "--blocklist", spec["blocklist"]]
    return [Step("cli.curate", argv, out, [kept, report], lambda rec: _check_curate(spec, kept, report, out, rec))]


# --- evaluate ---------------------------------------------------------------


def _check_eval(spec: dict, report_path: str, recorded):
    body = _body(report_path)
    rows = list(csv.reader(io.StringIO(body.decode("utf-8"))))
    if not rows or rows[0] != ["file_id", "audio_sec", "wer", "pn_jaro", "pn_wer"]:
        return "report header missing", None
    ids = list(spec["expect_zero"])
    if [row[0] for row in rows[1:-1]] != ids or rows[-1][0] != "AGGREGATE":
        return "report rows do not follow the manifest", None
    with_entities = set(spec["with_entities"])
    for row in rows[1:-1]:
        wer = float(row[2])
        if not math.isfinite(wer) or (wer == 0.0) != spec["expect_zero"][row[0]]:
            return f"{row[0]}: wer {row[2]} but the hypothesis {'matches' if spec['expect_zero'][row[0]] else 'differs'}", None
        if (row[3] == "n/a") == (row[0] in with_entities):
            return f"{row[0]}: proper-noun score {row[3]} disagrees with the entity files", None
    digest = _digest(body)
    return _versus(digest, recorded), digest


def _eval_step(spec: dict, work: str, tag: str) -> Step:
    report, out = os.path.join(work, f"{tag}.csv"), os.path.join(work, f"{tag}.out")
    argv = ["evaluate", "--manifest", spec["manifest"], "--refs", spec["refs"], "--hyps", spec["hyps"],
            "--gold-entities", spec["gold"], "--pred-entities", spec["pred"], "--out", report]
    return Step("cli.evaluate", argv, out, [report], lambda rec: _check_eval(spec, report, rec))


# --- long form --------------------------------------------------------------


def _check_words(expected: list[str], path: str, recorded):
    with open(path, "rb") as fh:
        data = fh.read()
    words = data.decode("utf-8").split()
    if words != expected:
        first = next((i for i, (a, b) in enumerate(zip(words, expected)) if a != b), min(len(words), len(expected)))
        return f"stitched {len(words)} words for {len(expected)}; first difference at word {first}", None
    digest = _digest(data)
    return _versus(digest, recorded), digest


def _longform_steps(spec: dict, work: str) -> list[Step]:
    partials, recording = spec["partials"], spec["recording"]
    joined, from_audio = os.path.join(work, "partials.txt"), os.path.join(work, "audio.txt")
    chunks = os.path.join(work, "chunks")
    transcriber = shlex.join([sys.executable, os.path.join(BENCH_DIR, "transcriber.py"), recording["texts"]])
    return [
        Step("cli.stitch", ["stitch", "--partials-dir", partials["dir"], "--out", joined],
             os.path.join(work, "stitch1.out"), [joined],
             lambda rec: _check_words(partials["words"], joined, rec)),
        Step("cli.stitch", ["stitch", "--audio", recording["wav"], "--transcriber", transcriber,
                            "--workdir", chunks, "--out", from_audio],
             os.path.join(work, "stitch2.out"), [from_audio],
             lambda rec: _check_words(recording["words"], from_audio, rec)),
        _eval_step(spec["eval"], work, "long"),
    ]


# --- transducer -------------------------------------------------------------


def _check_rnnt_check(stdout_path: str, recorded):
    with open(stdout_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    names = ("oracle-agreement: PASS", "gradient-fd: PASS", "likelihood-bound: PASS")
    if len(lines) != 3 or not all(line.startswith(n) for line, n in zip(lines, names)):
        return f"rnnt-check printed {lines!r}", None
    return None, None


def _check_api(out_path: str, recorded):
    with open(out_path, encoding="utf-8") as fh:
        got = json.load(fh)
    if not all(math.isfinite(x) and x <= 1e-12 for x in got["logprobs"]):
        return f"log-likelihoods out of range: {got['logprobs']}", None
    if got["grad_slice_sum_max"] > 1e-9:
        return f"a gradient slice sums to {got['grad_slice_sum_max']:.3g}, not 0", None
    if not got["mask_ok"]:
        return "streaming mask differs from its closed form", None
    if not (math.isfinite(got["beam_score"]) and got["beam_score"] <= 0.0):
        return f"beam score {got['beam_score']} out of range", None
    observed = {k: got[k] for k in ("logprobs", "beam_labels", "beam_score")}
    if recorded is not None:
        close = all(abs(a - b) <= 1e-9 for a, b in zip(got["logprobs"], recorded["logprobs"]))
        if not close or abs(got["beam_score"] - recorded["beam_score"]) > 1e-9:
            return "log-likelihoods or beam score differ from the recorded values by more than 1e-9", observed
        if got["beam_labels"] != recorded["beam_labels"]:
            return "beam labels differ from the recorded ones", observed
    return None, observed


def _rnnt_steps(spec: dict, work: str) -> list[Step]:
    check, out_json = spec["check"], os.path.join(work, "api.json")
    argv = ["rnnt-check", "--lattices", str(check["lattices"]), "--grad-checks", str(check["grad_checks"]),
            "--t-max", str(check["t_max"]), "--u-max", str(check["u_max"]), "--v-max", str(check["v_max"]),
            "--seed", str(spec["seed"])]
    stdout = os.path.join(work, "rnnt-check.out")
    return [
        Step("cli.rnnt-check", argv, stdout, [], lambda rec: _check_rnnt_check(stdout, rec)),
        Step("api.transducer", [spec["npz"], out_json], os.path.join(work, "api.out"), [out_json],
             lambda rec: _check_api(out_json, rec)),
    ]


def _with_seed(make: Callable[..., dict], **sizes) -> Callable[[str, int], dict]:
    def prepare(work: str, seed: int) -> dict:
        return {**make(work, seed, **sizes), "seed": seed}

    return prepare


def _make_eval_rnnt_workload(work: str, seed: int, n_utts: int, **long_sizes) -> dict:
    short = gen.make_eval_short(work, seed, n_utts=n_utts)
    long = gen.make_longform(work, seed, **long_sizes)
    rnnt = {**gen.make_rnnt(work, seed), "seed": seed}
    return {"short": short, "long": long, "rnnt": rnnt, "work": short["work"] + long["work"] + rnnt["work"]}


def _eval_rnnt_steps(spec: dict, work: str) -> list[Step]:
    return [
        _eval_step(spec["short"], work, "short"),
        *_longform_steps(spec["long"], work),
        *_rnnt_steps(spec["rnnt"], work),
    ]


# Input sizes are scaled so that one pass takes a few seconds on a 2-vCPU
# host; the transducer sizes are fixed in gen (CHECK, API_SHAPES, MASK, BEAM).
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "curate",
            "input audio hours",
            _with_seed(gen.make_curate, n_records=8000),
            _curate_steps,
        ),
        Workload(
            "eval-rnnt",
            "reference words scored plus lattice nodes T*(U+1)",
            _with_seed(_make_eval_rnnt_workload, n_utts=3000, partial_words=12000, speech_minutes=6.0, pair_words=[1000, 400, 500]),
            _eval_rnnt_steps,
        ),
    )
}

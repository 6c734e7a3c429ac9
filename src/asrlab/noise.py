"""Noise injection at exact SNR targets and WER-vs-SNR sweeps.

Signal and noise powers are measured as the mean square over the full clip
(not speech-only regions); the noise gain is chosen so the realized SNR equals
the target, and any clipping risk is handled by rescaling both components
jointly so the SNR stays exact.
"""

from __future__ import annotations

import csv
import math
import os
import shlex
import subprocess
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, TextIO

from ._lazy import np
from .audio import AudioBuffer, read_wav, write_wav
from .curation import ManifestRecord
from .metrics import EmptyReferenceError, EvalRow, build_report, wer
from .seeding import substream
from .textnorm import NormRuleSet, DEFAULT_RULES, normalize, tokenize_words

__all__ = [
    "gaussian_noise",
    "mix_at_snr",
    "measure_snr",
    "MixResult",
    "SweepSpec",
    "SweepRow",
    "SweepReport",
    "run_sweep",
    "ordered_map",
    "transcribe_file",
    "write_sweep_csv",
]


def gaussian_noise(n_samples: int, rng_seed: int) -> AudioBuffer:
    """i.i.d. standard normal samples; identical buffers for identical seeds."""
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    rng = np.random.default_rng(rng_seed)
    return AudioBuffer(samples=rng.standard_normal(n_samples))


@dataclass
class MixResult:
    """Mixed audio plus the scaled components it was built from.

    ``clean`` and ``noise`` are the post-gain (and post-rescale) components, so
    the realized SNR can be re-measured from them directly. ``rescale`` is 1.0
    unless the mix would have clipped.
    """

    mixed: AudioBuffer
    clean: np.ndarray
    noise: np.ndarray
    gain: float
    rescale: float


def measure_snr(clean: np.ndarray, noise: np.ndarray) -> float:
    """10*log10(P_clean / P_noise) with powers as full-clip mean squares."""
    p_clean = float(np.mean(np.asarray(clean) ** 2))
    p_noise = float(np.mean(np.asarray(noise) ** 2))
    if p_clean == 0.0 or p_noise == 0.0:
        raise ValueError("SNR undefined for a silent component")
    return 10.0 * np.log10(p_clean / p_noise)


def mix_at_snr(clean: AudioBuffer, noise: AudioBuffer, target_snr_db: float) -> MixResult:
    """Mix noise into clean audio at an exact target SNR.

    The noise is looped or truncated to the clean length, scaled by the gain
    that makes 10*log10(P_clean / P_scaled_noise) equal the target, and added.
    If any output sample would exceed 1 in magnitude, both components are
    rescaled jointly (recording the factor) so the SNR is preserved.
    """
    if len(clean) == 0:
        raise ValueError("clean buffer is empty")
    if clean.sample_rate_hz != noise.sample_rate_hz:
        raise ValueError(
            f"sample rate mismatch: {clean.sample_rate_hz} vs {noise.sample_rate_hz}"
        )
    p_clean = clean.power()
    if p_clean == 0.0:
        raise ValueError("clean clip is silent (zero power)")
    if len(noise) == 0:
        raise ValueError("noise buffer is empty")
    fitted = np.resize(noise.samples, len(clean))  # looped or truncated to the clean length
    p_noise = float(np.mean(fitted**2))
    if p_noise == 0.0:
        raise ValueError("noise is silent (zero power)")

    try:
        gain = float(np.sqrt(p_clean / (p_noise * 10.0 ** (target_snr_db / 10.0))))
    except (OverflowError, ZeroDivisionError):  # the power ratio left the float range
        gain = math.nan
    if not math.isfinite(gain):  # +inf dB gives gain 0
        raise ValueError(f"the noise gain for {target_snr_db:g} dB SNR is not a finite number")
    clean_part = clean.samples.copy()
    noise_part = gain * fitted
    mixed = clean_part + noise_part

    rescale = 1.0
    peak = float(np.max(np.abs(mixed)))
    if peak > 1.0:
        rescale = 1.0 / peak
        clean_part *= rescale
        noise_part *= rescale
        mixed = clean_part + noise_part

    return MixResult(
        mixed=AudioBuffer(samples=mixed, sample_rate_hz=clean.sample_rate_hz),
        clean=clean_part,
        noise=noise_part,
        gain=gain,
        rescale=rescale,
    )


def _snr_list_fault(snrs: list[float]) -> str | None:
    """Why a list of target SNRs cannot be swept, or None if it can.

    +inf is allowed: it mixes in no noise, so its row is the clean baseline.
    A finite SNR whose power ratio 10 ** (snr / 10) overflows or rounds to 0
    has no finite noise gain. A repeated SNR would write its report rows and
    its mixes twice.
    """
    if not snrs:
        return "is empty"
    for i, snr in enumerate(snrs):
        if math.isnan(snr) or snr == -math.inf:
            return f"holds {snr}, which no noise gain reaches"
        if math.isfinite(snr):
            try:
                ratio = 10.0 ** (snr / 10.0)
            except OverflowError:
                ratio = math.inf
            if not 0.0 < ratio < math.inf:
                return f"holds {snr:g} dB, whose power ratio 10**(snr/10) is out of the float range"
        if snr in snrs[:i]:
            return f"repeats {snr:g} dB"
    return None


@dataclass
class SweepSpec:
    snr_list_db: list[float]
    noise_kind: str = "gaussian"  # "gaussian" | "ambient"
    noise_corpus_dir: str | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if fault := _snr_list_fault(self.snr_list_db):
            raise ValueError(f"snr_list_db {fault}")
        if self.noise_kind not in ("gaussian", "ambient"):
            raise ValueError(f"noise_kind must be gaussian or ambient, got {self.noise_kind!r}")
        if self.noise_kind == "ambient" and not self.noise_corpus_dir:
            raise ValueError("ambient noise requires noise_corpus_dir")


@dataclass
class SweepRow:
    snr_db: float
    file_id: str
    wer: float | None  # None when the transcriber failed on this file
    duration_sec: float = 0.0

    @property
    def failed(self) -> bool:
        return self.wer is None


@dataclass
class SweepReport:
    rows: list[SweepRow] = field(default_factory=list)
    aggregate: dict[float, float | None] = field(default_factory=dict)  # snr -> weighted WER


def _ambient_corpus(corpus_dir: str) -> list[str]:
    files = sorted(
        os.path.join(corpus_dir, name)
        for name in os.listdir(corpus_dir)
        if name.lower().endswith(".wav")
    )
    if not files:
        raise ValueError(f"no .wav files in noise corpus {corpus_dir!r}")
    return files


def _noise_for(clean: AudioBuffer, spec: SweepSpec, corpus: list[str], file_id: str, snr_db: float) -> AudioBuffer:
    # substream per (file, SNR): parallel execution cannot perturb the draw
    rng = substream(spec.seed, "noise", file_id, snr_db)
    if spec.noise_kind == "gaussian":
        return AudioBuffer(samples=rng.standard_normal(len(clean)), sample_rate_hz=clean.sample_rate_hz)
    choice = corpus[int(rng.integers(len(corpus)))]
    return read_wav(choice)


def transcribe_file(transcriber_cmd: list[str] | str, wav_path: str) -> str | None:
    """Run the external transcriber contract (CMD <wav>); None signals a nonzero exit or stdout that is not UTF-8."""
    cmd = shlex.split(transcriber_cmd) if isinstance(transcriber_cmd, str) else list(transcriber_cmd)
    proc = subprocess.run(cmd + [wav_path], capture_output=True)
    if proc.returncode != 0:
        return None
    try:
        return proc.stdout.decode("utf-8")
    except UnicodeDecodeError:
        return None


def ordered_map(fn: Callable, items: Iterable, jobs: int) -> list:
    """fn over items in a pool of `jobs` threads (ValueError if jobs < 1), results in item order.

    If calls raise, the first exception in item order is raised once every
    call already started has returned; calls not yet started are dropped.
    """
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def run_sweep(
    records: list[ManifestRecord],
    spec: SweepSpec,
    transcriber_cmd: list[str] | str,
    workdir: str,
    rules: NormRuleSet = DEFAULT_RULES,
    jobs: int = 1,
) -> SweepReport:
    """Noise-inject every file at every SNR, transcribe, and score WER.

    The reference for each file is its manifest transcript, normalized once
    with the same rules as the hypothesis; one that normalizes to no words
    raises EmptyReferenceError before any file is mixed. A clip that cannot be
    mixed (empty or silent) raises ValueError naming its file. Transcriber
    failures mark the row failed and the sweep continues. Reruns with the same
    spec and inputs are byte-identical because all randomness comes from
    per-(file, SNR) substreams of spec.seed.
    """
    refs = [tokenize_words(normalize(rec.transcript, rules)) for rec in records]
    for rec, ref in zip(records, refs):
        if not ref:
            raise EmptyReferenceError(f"reference for {rec.id!r} is empty after normalization")
    os.makedirs(workdir, exist_ok=True)
    corpus = _ambient_corpus(spec.noise_corpus_dir) if spec.noise_kind == "ambient" else []

    tasks = [(snr, rec, ref) for snr in spec.snr_list_db for rec, ref in zip(records, refs)]

    def one(task: tuple[float, ManifestRecord, list[str]]) -> SweepRow:
        snr_db, rec, ref = task
        clean = read_wav(rec.audio_path)
        noise = _noise_for(clean, spec, corpus, rec.id, snr_db)
        try:
            mix = mix_at_snr(clean, noise, snr_db)
        except ValueError as exc:  # an empty or silent clip: name it
            raise ValueError(f"{rec.audio_path} ({rec.id}) at {snr_db:g} dB: {exc}") from None
        out_path = os.path.join(workdir, f"{rec.id}_snr{snr_db:+g}.wav")
        write_wav(mix.mixed, out_path)
        hyp_text = transcribe_file(transcriber_cmd, out_path)
        if hyp_text is None:
            return SweepRow(snr_db, rec.id, None, rec.duration_sec)
        hyp = tokenize_words(normalize(hyp_text, rules))
        return SweepRow(snr_db, rec.id, wer(ref, hyp), rec.duration_sec)

    np.ndarray  # load numpy before the pool: a lazy module's first load is not thread-safe before 3.12
    rows = ordered_map(one, tasks, jobs)

    # build_report skips failed rows (wer None) and gives None when all failed
    aggregate = {
        snr_db: build_report([EvalRow(r.file_id, r.duration_sec, r.wer) for r in rows if r.snr_db == snr_db])["wer"]
        for snr_db in spec.snr_list_db
    }
    return SweepReport(rows, aggregate)


def write_sweep_csv(report: SweepReport, out: TextIO) -> None:
    """Per-row CSV ``snr_db,file_id,wer`` followed by an aggregate table, written to an open text file."""
    writer = csv.writer(out)
    writer.writerow(["snr_db", "file_id", "wer"])
    for r in report.rows:
        writer.writerow([f"{r.snr_db:g}", r.file_id, "failed" if r.failed else f"{r.wer:.6f}"])
    writer.writerow([])
    writer.writerow(["snr_db", "aggregate_wer"])
    for snr_db in sorted(report.aggregate):
        agg = report.aggregate[snr_db]
        writer.writerow([f"{snr_db:g}", "n/a" if agg is None else f"{agg:.6f}"])

"""Seeded input generator for the benchmark workloads.

Every input a workload feeds to asrlab is made here from the workload seed, so
the same seed gives the same bytes and no download is needed. Each ``make_*``
function writes its files into a directory and returns a plain dict: the
paths, the work size, and what the generator knows to be true about the
inputs, which the output checks in ``workloads.py`` compare against.
"""

from __future__ import annotations

import json
import os
import random
import wave

import numpy as np

SAMPLE_RATE = 16000
FRAME = 480  # samples per 30 ms energy_vad frame at 16 kHz
HANGOVER = 5  # energy_vad's default hangover, in frames
CHUNK_LEN = 25.0
OVERLAP = 5.0
MIN_MATCH = 3  # stitch's default min_match_tokens
WORD_SEC = 0.4  # voiced seconds per word in the long-form recording
BLOCKED_WORD = "zzblocked"

# Contractions used in the eval text, with their expansion under the default
# normalization rules; every other word the generator writes is its own
# canonical form.
CONTRACTIONS = {
    "don't": ("do", "not"),
    "it's": ("it", "is"),
    "we're": ("we", "are"),
    "i'm": ("i", "am"),
    "can't": ("cannot",),
    "won't": ("will", "not"),
    "they've": ("they", "have"),
}
FILLERS = ("um", "uh", "er")
PUNCT = (",", ".", "?", "!", ";")
NAMES = {
    "Person": ["Ada Lovelace", "Grace Hopper", "Alan Turing", "Kofi Annan", "Marie Curie", "Nelson Mandela"],
    "Organization": ["Acme Corporation", "United Nations", "Red Cross", "World Bank", "Bell Labs"],
    "GPE": ["Paris", "Nairobi", "Buenos Aires", "New Zealand", "Kyoto", "Ontario"],
    "LOC": ["Mount Kenya", "Lake Victoria", "Sahara", "Pacific Ocean", "Andes"],
}

_CONS = "bdfghjklmnprstvwz"
_VOWS = "aeiou"


def vocabulary(size: int = 3000) -> list[str]:
    """Fixed pseudo-word vocabulary (seed-independent, 2-4 syllables).

    Pseudo-words never collide with fillers, contraction keys or their
    expansions, so normalization leaves them unchanged.
    """
    rng = random.Random("vocabulary")
    words: set[str] = set()
    while len(words) < size:
        n = rng.choice((2, 2, 3, 3, 4))
        words.add("".join(rng.choice(_CONS) + rng.choice(_VOWS) for _ in range(n)))
    return sorted(words)


VOCAB = vocabulary()


def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"{stream}:{seed}")


def _np_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed & 0xFFFFFFFF, stream])


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


# --- curate -----------------------------------------------------------------

# (kind, weight): each record gets one kind, which decides the filter that
# should reject it ("ok" records reach segmentation and mostly survive).
_RECORD_KINDS = (
    ("ok", 62),
    ("malformed", 1),
    ("blocklist", 2),
    ("missing-language", 2),
    ("language", 3),
    ("language-confidence", 2),
    ("missing-speech-stats", 2),
    ("speech-activity", 3),
    ("silence", 3),
    ("unsegmentable", 2),
    ("segment-too-short", 3),
    ("wpm", 5),
    ("missing-confidence", 3),
    ("confidence", 5),
)
REJECTION_REASONS = tuple(k for k, _ in _RECORD_KINDS if k not in ("ok", "malformed")) + ("parse-error",)


def _word_times(rng: random.Random, target_sec: float, pace: str) -> list[list[float]]:
    times = []
    t = rng.uniform(0.2, 0.5)
    while True:
        if pace == "fast":
            dur, gap = rng.uniform(0.08, 0.12), rng.uniform(0.0, 0.03)
        elif pace == "slow":
            dur, gap = rng.uniform(0.3, 0.5), rng.uniform(1.0, 1.6)
        else:
            dur = rng.uniform(0.15, 0.45)
            gap = rng.uniform(0.5, 1.2) if rng.random() < 0.08 else rng.uniform(0.02, 0.35)
        if times and t + dur > target_sec:
            break
        times.append([round(t, 3), round(t + dur, 3)])
        t += dur + gap
    return times


def _manifest_record(rng: random.Random, idx: int, kind: str) -> str:
    r = rng.random()
    if kind == "segment-too-short":
        target = rng.uniform(2.0, 6.0)
    elif r < 0.4:
        target = rng.uniform(21.0, 60.0)  # long: segmentation cuts it
    else:
        target = rng.uniform(8.0, 19.0)
    pace = "fast" if kind == "wpm" and rng.random() < 0.5 else "slow" if kind == "wpm" else "normal"
    times = _word_times(rng, target, pace)
    words = [rng.choice(VOCAB) for _ in times]
    if kind == "blocklist":
        words[rng.randrange(len(words))] = BLOCKED_WORD
    lo = 0.4 if kind == "confidence" else 0.75
    hi = 0.9 if kind == "confidence" else 1.0
    rec: dict = {
        "id": f"rec{idx:06d}",
        "audio_path": f"audio/rec{idx:06d}.wav",
        "duration_sec": round(times[-1][1] + rng.uniform(0.1, 0.5), 3),
        "transcript": " ".join(words),
        "word_confidences": [round(rng.uniform(lo, hi), 4) for _ in words],
        "word_times": times,
        "source_lang": "en",
        "detected_lang": ["en", round(rng.uniform(0.7, 1.0), 4)],
        "speech_ratio": round(rng.uniform(0.75, 0.98), 4),
        "max_silence_sec": round(rng.uniform(0.3, 3.0), 3),
    }
    if kind == "missing-language":
        del rec["detected_lang"]
    elif kind == "language":
        if rng.random() < 0.5:
            rec["detected_lang"] = [rng.choice(("de", "fr", "es")), round(rng.uniform(0.6, 1.0), 4)]
        else:
            rec["source_lang"] = "fr"
    elif kind == "language-confidence":
        rec["detected_lang"][1] = round(rng.uniform(0.1, 0.45), 4)
    elif kind == "missing-speech-stats":
        del rec["speech_ratio"]
    elif kind == "speech-activity":
        rec["speech_ratio"] = round(rng.uniform(0.3, 0.65), 4)
    elif kind == "silence":
        rec["max_silence_sec"] = round(rng.uniform(5.5, 12.0), 3)
    elif kind == "unsegmentable":
        del rec["word_times"]
        rec["duration_sec"] = round(max(rec["duration_sec"], 21.0), 3)
    elif kind == "missing-confidence":
        del rec["word_confidences"]
    line = json.dumps(rec)
    if kind == "malformed":
        cut = rng.choice(("truncate", "mismatch", "field"))
        if cut == "truncate":
            line = line[: rng.randrange(10, len(line) - 1)]
        elif cut == "mismatch":
            rec["word_times"] = rec["word_times"][:-1]
            line = json.dumps(rec)
        else:
            rec["speaker"] = "unknown"
            line = json.dumps(rec)
    return line


def make_curate(out_dir: str, seed: int, n_records: int) -> dict:
    """JSONL manifest whose records exercise every filter of the pipeline."""
    rng = _rng(seed, "curate")
    kinds, weights = zip(*_RECORD_KINDS)
    lines, hours, malformed = [], 0.0, 0
    for idx in range(n_records):
        kind = rng.choices(kinds, weights)[0]
        line = _manifest_record(rng, idx, kind)
        lines.append(line)
        if kind == "malformed":
            malformed += 1
        else:
            hours += json.loads(line)["duration_sec"] / 3600.0
    manifest = os.path.join(out_dir, "raw.jsonl")
    _write(manifest, "\n".join(lines) + "\n")
    return {
        "manifest": manifest,
        "records": n_records,
        "malformed": malformed,
        "blocklist": BLOCKED_WORD,
        "work": hours,  # input audio hours
    }


# --- evaluate ---------------------------------------------------------------


def _style(rng: random.Random, unit: str, first: bool) -> str:
    """Surface form of one word unit: casing, curly apostrophes, punctuation."""
    text = unit
    r = rng.random()
    if first or r < 0.1:
        text = text[:1].upper() + text[1:]
    elif r < 0.13:
        text = text.upper()
    if "'" in text and rng.random() < 0.3:
        text = text.replace("'", "’")
    if rng.random() < 0.12:
        text += rng.choice(PUNCT)
    return text


def _render(rng: random.Random, units: list[str]) -> str:
    out = []
    for i, unit in enumerate(units):
        if rng.random() < 0.05:
            out.append(rng.choice(FILLERS) + ",")
        out.append(_style(rng, unit, i == 0))
    return " ".join(out)


def canonical(units: list[str]) -> list[str]:
    """Tokens the default normalizer turns these word units into."""
    out = []
    for unit in units:
        out.extend(CONTRACTIONS.get(unit, unit.lower().split()))
    return out


def _corrupt(rng: random.Random, units: list[str], error_rate: float) -> list[str]:
    """Hypothesis units: ~error_rate of words substituted, deleted or inserted."""
    out = []
    for unit in units:
        r = rng.random()
        if r < error_rate / 2:
            out.append(rng.choice(VOCAB))
        elif r < error_rate * 3 / 4:
            continue
        else:
            out.append(unit)
        if rng.random() < error_rate / 4:
            out.append(rng.choice(VOCAB))
    return out or [rng.choice(VOCAB)]


def _utterance(rng: random.Random, n_words: int) -> tuple[list[str], list[tuple[str, str]]]:
    """Word units with embedded entity mentions (returned as (type, name))."""
    units, entities = [], []
    contractions = list(CONTRACTIONS)
    while len(units) < n_words:
        r = rng.random()
        if r < 0.05:
            etype = rng.choice(sorted(NAMES))
            name = rng.choice(NAMES[etype])
            entities.append((etype, name))
            units.extend(name.split())
        elif r < 0.15:
            units.append(rng.choice(contractions))
        else:
            units.append(rng.choice(VOCAB))
    return units, entities


def _entity_rows(rng: random.Random, file_id: str, text: str, entities: list[tuple[str, str]]) -> tuple[list[str], list[str]]:
    """Gold rows located in the reference text, and perturbed predicted rows."""
    gold, pred = [], []
    pos = 0
    for etype, name in entities:
        start = text.find(name.split()[0], pos)
        start = max(start, pos)
        end = start + len(name)
        pos = end
        gold.append(f"{file_id}\t{start}\t{end}\t{etype}\t{name}")
        r = rng.random()
        if r < 0.65:
            pred.append(f"{file_id}\t{start}\t{end}\t{etype}\t{name}")
        elif r < 0.78:  # a near-miss spelling
            i = rng.randrange(len(name))
            typo = name[:i] + rng.choice(_VOWS) + name[i + 1 :]
            pred.append(f"{file_id}\t{start}\t{end}\t{etype}\t{typo.strip() or name}")
        elif r < 0.85:
            other = rng.choice([t for t in NAMES if t != etype])
            pred.append(f"{file_id}\t{start}\t{end}\t{other}\t{name}")
        elif r < 0.92:
            pass  # missed entity
        else:
            other = rng.choice(NAMES[etype])
            pred.append(f"{file_id}\t{start}\t{end}\t{etype}\t{other}")
        if rng.random() < 0.05:  # spurious extra prediction
            pred.append(f"{file_id}\t{end + 1}\t{end + 6}\t{rng.choice(sorted(NAMES))}\t{rng.choice(VOCAB).title()}")
    return gold, pred


def _make_eval(out_dir: str, rng: random.Random, lengths: list[int], error_rate: float, prefix: str) -> dict:
    manifest, refs, hyps, gold, pred = [], [], [], [], []
    expect_zero, with_entities, ref_words = {}, [], 0
    for idx, n_words in enumerate(lengths):
        file_id = f"{prefix}{idx:05d}"
        ref_units, entities = _utterance(rng, n_words)
        hyp_units = _corrupt(rng, ref_units, error_rate)
        ref_text, hyp_text = _render(rng, ref_units), _render(rng, hyp_units)
        duration = round(len(ref_units) * rng.uniform(0.3, 0.5), 2)
        manifest.append(json.dumps({"id": file_id, "audio_path": f"audio/{file_id}.wav", "duration_sec": duration, "transcript": ref_text}))
        refs.append(f"{file_id}\t{ref_text}")
        hyps.append(f"{file_id}\t{hyp_text}")
        g, p = _entity_rows(rng, file_id, ref_text, entities)
        gold.extend(g)
        pred.extend(p)
        if g or p:
            with_entities.append(file_id)
        expect_zero[file_id] = canonical(ref_units) == canonical(hyp_units)
        ref_words += len(ref_units)
    paths = {}
    for name, rows in (("manifest", manifest), ("refs", refs), ("hyps", hyps), ("gold", gold), ("pred", pred)):
        paths[name] = os.path.join(out_dir, f"{prefix}_{name}.{'jsonl' if name == 'manifest' else 'tsv'}")
        _write(paths[name], "\n".join(rows) + "\n")
    return {**paths, "expect_zero": expect_zero, "with_entities": with_entities, "work": ref_words}


def make_eval_short(out_dir: str, seed: int, n_utts: int) -> dict:
    """Short utterances (5-40 words) with ~12% word errors and entity files."""
    rng = _rng(seed, "eval-short")
    return _make_eval(out_dir, rng, [rng.randint(5, 40) for _ in range(n_utts)], 0.12, "utt")


# --- long form --------------------------------------------------------------


def _sentence_case(rng: random.Random, words: list[str]) -> str:
    """Readable rendering of lowercase words; normalization undoes it exactly."""
    out, start = [], True
    for w in words:
        out.append(w.capitalize() if start else w)
        start = False
        if rng.random() < 0.08:
            out[-1] += rng.choice(".?!")
            start = True
        elif rng.random() < 0.05:
            out[-1] += ","
    return " ".join(out)


def make_partials(out_dir: str, rng: random.Random, n_words: int, stride: int, span: int) -> dict:
    """Overlapping partial transcripts of one recording, wrong at inner edges.

    Partial k covers words [k*stride, k*stride + span). At every junction up to
    two words at the tail of the left partial and the head of the right one are
    replaced, the way decoders err near chunk edges; the shared run left between
    them is at least span - stride - 4 words.
    """
    words = [rng.choice(VOCAB) for _ in range(n_words)]
    pdir = os.path.join(out_dir, "partials")
    os.makedirs(pdir)
    starts = list(range(0, n_words - span, stride)) + [n_words - span]
    for k, lo in enumerate(starts):
        part = words[lo : lo + span]
        head = rng.randint(0, 2) if k > 0 else 0
        tail = rng.randint(0, 2) if k < len(starts) - 1 else 0
        for i in list(range(head)) + list(range(span - tail, span)):
            part[i] = rng.choice([w for w in rng.sample(VOCAB, 3) if w != part[i]])
        _write(os.path.join(pdir, f"{k}.txt"), _sentence_case(rng, part) + "\n")
    return {"dir": pdir, "words": words}


def _plan(duration: float) -> list[tuple[float, float]]:
    """Chunk bounds that ``plan_chunks`` documents for 25 s chunks, 5 s overlap."""
    if duration <= CHUNK_LEN:
        return [(0.0, duration)]
    stride = CHUNK_LEN - OVERLAP
    bounds, start = [], 0.0
    while start + CHUNK_LEN < duration:
        bounds.append((start, start + CHUNK_LEN))
        start += stride
    last_start = duration - CHUNK_LEN
    while len(bounds) >= 2 and bounds[-2][1] > last_start:
        bounds.pop()
    bounds.append((last_start, duration))
    return bounds


def make_recording(out_dir: str, seed: int, rng: random.Random, speech_minutes: float) -> dict:
    """Long WAV of noise bursts and digital silence, plus the transcriber's texts.

    Bursts and gaps are whole VAD frames, so the voiced length after silence
    removal is known exactly: every burst plus at most HANGOVER frames of the
    silence after it. It is fixed at speech_minutes for every seed, so every
    seed plans the same number of chunks; only the layout varies. From it the
    generator plans the chunks and writes, for chunk i, the words whose
    voiced-time slots fall inside it.
    """
    nrng = _np_rng(seed, 1)
    target = int(speech_minutes * 60 * SAMPLE_RATE / FRAME)
    layout, frames, voiced = [], rng.randint(10, 60), 0
    while voiced < target:
        burst = rng.randint(20, 200)
        gap = rng.randint(2, 4) if rng.random() < 0.3 else rng.randint(10, 100)
        if target - voiced - burst - min(gap, HANGOVER) < 25:
            burst, gap = target - voiced - HANGOVER, 10  # last burst lands on the target
        layout.append((frames, burst))
        frames += burst + gap
        voiced += burst + min(gap, HANGOVER)
    # Trailing digital silence pads every seed's WAV to the same length, so
    # the VAD and the WAV read do the same work; it lies past the last
    # burst's hangover and adds nothing voiced.
    frames = max(frames, int(target * 1.5))
    samples = np.zeros(frames * FRAME)
    for start, burst in layout:
        n = burst * FRAME
        env = 0.5 + 0.5 * np.abs(np.sin(np.linspace(0, np.pi * burst / 10, n)))
        samples[start * FRAME : start * FRAME + n] = nrng.normal(0, 0.1, n) * env
    ints = np.round(np.clip(samples, -1, 1) * 32767).astype("<i2")
    wav = os.path.join(out_dir, "long.wav")
    with wave.open(wav, "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(SAMPLE_RATE)
        wf.writeframes(ints.tobytes())

    duration = voiced * FRAME / SAMPLE_RATE
    n_slots = int(duration / WORD_SEC)
    words = [rng.choice(VOCAB) for _ in range(n_slots)]
    tdir = os.path.join(out_dir, "texts")
    os.makedirs(tdir)
    expected, end = [], 0
    for i, (lo, hi) in enumerate(_plan(duration)):
        first = int(np.ceil(lo / WORD_SEC - 1e-9))
        last = min(int(hi / WORD_SEC + 1e-9), n_slots)
        _write(os.path.join(tdir, f"{i:04d}.txt"), _sentence_case(rng, words[first:last]) + "\n")
        # stitch joins at the shared run when it has MIN_MATCH words; with a
        # shorter one (the right-aligned tail chunk can overlap its
        # neighbour by less than OVERLAP) it concatenates both texts whole.
        if i == 0 or end - first >= MIN_MATCH:
            expected.extend(words[max(first, end) : last])
        else:
            expected.extend(words[first:last])
        end = max(end, last)
    return {"wav": wav, "texts": tdir, "words": expected}


def make_longform(out_dir: str, seed: int, partial_words: int, speech_minutes: float, pair_words: list[int]) -> dict:
    rng = _rng(seed, "longform")
    partials = make_partials(out_dir, rng, partial_words, stride=52, span=64)
    recording = make_recording(out_dir, seed, rng, speech_minutes)
    evaluation = _make_eval(out_dir, rng, pair_words, 0.12, "long")
    return {"partials": partials, "recording": recording, "eval": evaluation, "work": evaluation["work"]}


# --- transducer -------------------------------------------------------------

# Fixed lattice shapes of the API stage (T, U, V); contents come from the seed.
API_SHAPES = ((200, 50, 100), (300, 20, 50), (120, 80, 30))
MASK = {"n_frames": 2000, "chunk_frames": 16, "n_layers": 16, "left_context": 32}
BEAM = {"frames": 200, "vocab": 12, "beam": 8, "lm_order": 3, "lm_weight": 0.3}
CHECK = {"lattices": 3000, "grad_checks": 30, "t_max": 6, "u_max": 4, "v_max": 4}


def _log_softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def check_nodes(lattices: int, grad_checks: int, t_max: int, u_max: int) -> float:
    """Expected lattice nodes T*(U+1) that rnnt-check visits with uniform shapes."""
    dp = lattices * (t_max + 1) / 2 * (u_max / 2 + 1)
    grad = grad_checks * (t_max + 2) / 2 * ((u_max + 1) / 2 + 1)
    return dp + grad


def make_rnnt(out_dir: str, seed: int) -> dict:
    """Lattices, a frame-wise scorer table and an LM corpus for the API stage."""
    nrng = _np_rng(seed, 2)
    arrays = {}
    nodes = check_nodes(CHECK["lattices"], CHECK["grad_checks"], CHECK["t_max"], CHECK["u_max"])
    for i, (t, u, v) in enumerate(API_SHAPES):
        arrays[f"logits{i}"] = _log_softmax(nrng.normal(size=(t, u + 1, v + 1)))
        arrays[f"targets{i}"] = nrng.integers(0, v, size=u)
        nodes += t * (u + 1)
    # The beam search's cost depends on its input (on how many labels it
    # emits): over free random tables it varied 2x between seeds. So every
    # seed decodes one fixed problem whose labels the seed permutes, in the
    # scorer table and the LM corpus alike; the search does the same work.
    fixed = _np_rng(0, 3)
    k = 5  # the scorer's row depends on the prefix length modulo k
    scorer = _log_softmax(2.0 * fixed.normal(size=(BEAM["frames"], k, BEAM["vocab"] + 1)))
    corpus = fixed.integers(0, BEAM["vocab"], size=(200, 12))
    perm = nrng.permutation(BEAM["vocab"])  # label v of the fixed problem is perm[v]
    arrays["scorer"] = scorer.copy()
    arrays["scorer"][..., perm] = scorer[..., :-1]  # blank, the last column, stays
    arrays["corpus"] = perm[corpus]
    path = os.path.join(out_dir, "api_inputs.npz")
    np.savez(path, **arrays)
    return {"npz": path, "check": CHECK, "work": nodes}

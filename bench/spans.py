"""Span tracing around asrlab's public functions, installed from outside.

The traced run replaces each public function of interest, in every ``asrlab``
module namespace that binds it, with a wrapper that records a span (name,
start, end, parent, run id) and a few counts computed from the arguments and
the result. Nothing in the package itself changes. Spans stay in memory until
the run ends; ``layer_metrics`` turns one run's spans into per-layer numbers.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    root: int = -1
    run: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects the nested spans of one run; a span's parent is the innermost open one."""

    def __init__(self, run: int = 0) -> None:
        self.spans: list[Span] = []
        self.run = run
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self._stack[0] if self._stack else idx
        self.spans.append(Span(name, time.perf_counter(), parent=parent, root=root, run=self.run))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()


def write(path: str, tracers: list[Tracer]) -> None:
    """One JSON line per span: [name, start, end, parent index within its run, run, counts]."""
    with open(path, "w", encoding="utf-8") as fh:
        for tracer in tracers:
            for s in tracer.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.run, s.counts]) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time covered by its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def _size(path) -> int:
    return os.path.getsize(path) if isinstance(path, (str, os.PathLike)) and os.path.exists(path) else 0


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _lattice_cells(a, k, r):
    lat = _arg(a, k, 0, "lat")
    return {"cells": lat.T * (lat.U + 1)}


def _pipeline(a, k, r):
    records = [x for x in _arg(a, k, 0, "manifest") if hasattr(x, "duration_sec")]
    kept, outcomes = r
    return {
        "records": len(outcomes),
        "kept": sum(o.verdict == "kept" for o in outcomes),
        "hours_in": sum(x.duration_sec for x in records) / 3600.0,
        "hours_kept": sum(x.duration_sec for x in kept) / 3600.0,
    }


def _align(a, k, r):
    spans = len(_arg(a, k, 0, "gold")) + len(_arg(a, k, 1, "pred"))
    return {"spans": spans, "matched_spans": 2 * len(r.matched)}


# span name -> (module that defines the function, attribute, counts from (args, kwargs, result))
TARGETS = {
    "textnorm.normalize": ("asrlab.textnorm", "normalize", lambda a, k, r: {"chars": len(a[0])}),
    "metrics.wer": ("asrlab.metrics", "wer", lambda a, k, r: {"cells": len(a[0]) * len(a[1])}),
    "metrics.jaro_winkler": ("asrlab.metrics", "jaro_winkler", None),
    "metrics.build_report": ("asrlab.metrics", "build_report", None),
    "entities.read_entity_file": ("asrlab.entities", "read_entity_file", None),
    "entities.align_entities": ("asrlab.entities", "align_entities", _align),
    "entities.pn_score": ("asrlab.entities", "pn_score", None),
    "curation.read_manifest": (
        "asrlab.curation",
        "read_manifest",
        lambda a, k, r: {
            "records": len(r),
            "parse_errors": sum(not hasattr(x, "duration_sec") for x in r),
            "bytes": _size(a[0]),
        },
    ),
    "curation.write_manifest": (
        "asrlab.curation",
        "write_manifest",
        lambda a, k, r: {"records": len(a[0]), "bytes": _size(a[1])},
    ),
    "curation.write_rejection_csv": (
        "asrlab.curation",
        "write_rejection_csv",
        lambda a, k, r: {"rows": len(a[0])},
    ),
    "curation.run_pipeline": ("asrlab.curation", "run_pipeline", _pipeline),
    "curation.segment": ("asrlab.curation", "segment", lambda a, k, r: {"children": len(r[0])}),
    "stitch.stitch": (
        "asrlab.stitch",
        "stitch",
        lambda a, k, r: {"junctions": max(len(a[0]) - 1, 0), "words_out": len(r)},
    ),
    "stitch.energy_vad": (
        "asrlab.stitch",
        "energy_vad",
        lambda a, k, r: {"frames": math.ceil(len(a[0]) / max(1, round(a[0].sample_rate_hz * 0.03)))},
    ),
    "stitch.plan_chunks": ("asrlab.stitch", "plan_chunks", lambda a, k, r: {"chunks": len(r.bounds)}),
    "stitch.remove_silences": ("asrlab.stitch", "remove_silences", None),
    "stitch.transcriber": ("asrlab.noise", "transcribe_file", lambda a, k, r: {"failed": int(r is None)}),
    "audio.read_wav": ("asrlab.audio", "read_wav", lambda a, k, r: {"bytes": _size(a[0])}),
    "audio.write_wav": ("asrlab.audio", "write_wav", lambda a, k, r: {"bytes": _size(a[1])}),
    "transducer.random_lattice": ("asrlab.transducer.lattice", "random_lattice", None),
    "transducer.rnnt_logprob": ("asrlab.transducer.loss", "rnnt_logprob", _lattice_cells),
    "transducer.brute_force_logprob": ("asrlab.transducer.loss", "brute_force_logprob", None),
    "transducer.rnnt_grad": ("asrlab.transducer.loss", "rnnt_grad", _lattice_cells),
    "transducer.finite_difference_grad": ("asrlab.transducer.loss", "finite_difference_grad", None),
    "transducer.make_stream_mask": (
        "asrlab.transducer.mask",
        "make_stream_mask",
        lambda a, k, r: {"cells": a[0].n_frames * a[0].n_frames * a[0].n_layers},
    ),
    "transducer.beam_decode": (
        "asrlab.transducer.decode",
        "beam_decode",
        lambda a, k, r: {"scorer_calls": getattr(a[0], "calls", 0)},
    ),
}


def _wrapper(tracer: Tracer, name: str, fn, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if count is not None:
            tracer.spans[idx].counts = count(args, kwargs, result)
        return result

    return traced


class installed:
    """Context manager: every binding of each target in asrlab's loaded
    modules is replaced by a tracing wrapper, and restored on exit."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "installed":
        for name, (module, attr, count) in TARGETS.items():
            original = getattr(sys.modules[module], attr)
            wrapped = _wrapper(self.tracer, name, original, count)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "asrlab":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for mod, key, original in reversed(self._saved):
            setattr(mod, key, original)
        self._saved.clear()


def _pct(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer numbers of one traced run.

    Root spans are the commands (``cli.<subcommand>``, ``api.transducer``);
    their self time is ``cli.other_self_s``. Transducer spans are reported per
    stage: ``transducer.check.*`` under ``cli.rnnt-check`` and
    ``transducer.api.*`` under the API stage.
    """
    selfs = self_times(spans)
    out: dict[str, float] = {}
    durations: dict[str, list[float]] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0.0) + value

    for s, self_s in zip(spans, selfs):
        if s.parent < 0:
            add(f"{s.name}.wall_s", s.duration)
            add("cli.other_self_s", self_s)
            continue
        name = s.name
        if name.startswith("transducer."):
            stage = "api" if spans[s.root].name.startswith("api.") else "check"
            name = f"transducer.{stage}.{name[len('transducer.'):]}"
        add(f"{name}.calls", 1)
        add(f"{name}.self_s", self_s)
        for key, value in s.counts.items():
            add(f"{name}.{key}", value)
        durations.setdefault(name, []).append(s.duration)

    for name, values in durations.items():
        us = [v * 1e6 for v in values]
        out[f"{name}.call_p50_us"] = _pct(us, 0.50)
        out[f"{name}.call_p99_us"] = _pct(us, 0.99)
    out["stitch.transcriber.wait_s"] = sum(durations.get("stitch.transcriber", []))
    spans_seen = out.get("entities.align_entities.spans", 0.0)
    out["entities.align_entities.matched_ratio"] = (
        out.get("entities.align_entities.matched_spans", 0.0) / spans_seen if spans_seen else 0.0
    )
    records = out.get("curation.run_pipeline.records", 0.0)
    out["curation.kept_ratio"] = out.get("curation.run_pipeline.kept", 0.0) / records if records else 0.0
    hours = out.get("curation.run_pipeline.hours_in", 0.0)
    out["curation.hours_kept_ratio"] = out.get("curation.run_pipeline.hours_kept", 0.0) / hours if hours else 0.0
    return out

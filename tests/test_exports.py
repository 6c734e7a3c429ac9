"""The public names: each one exists, and each one is a recorded decision.

Every name a module lists in ``__all__`` exists, so a deletion cannot leave a
stale export. ``REACH`` says what reaches each distinct public name: a
subcommand, the benchmark, an acceptance gate, or else a written reason why a
library caller needs it. A new public name, or one that stops being public,
changes the table in the same change.
"""

import ast
import importlib
import pathlib
import pkgutil
import types

import pytest

import asrlab

MODULES = ["asrlab", *(m.name for m in pkgutil.walk_packages(asrlab.__path__, "asrlab."))]
ROOT = pathlib.Path(__file__).resolve().parent.parent

# "command": a src/ module other than the ones that export it uses the name;
# "bench": a file under bench/ names it; "gate": tests/test_acceptance.py uses it.
# Any other value is the reason the name is public although none of those reach it.
REACH = {
    "audio.AudioBuffer": "command",
    "audio.read_wav": "command",
    "audio.write_wav": "command",
    "cli.main": "command",
    "config.load_config": "command",
    "config.utf8_lines": "command",
    "curation.ManifestRecord": "command",
    "curation.ManifestParseError": "command",
    "curation.PipelineConfig": "command",
    "curation.FilterReason": "the type of each reason a FilterOutcome holds",
    "curation.FilterOutcome": "the return type of run_pipeline: one per input record",
    "curation.segment": "bench",
    "curation.run_pipeline": "bench",
    "curation.curate_manifest": "command",
    "curation.usable_cpus": "command",
    "curation.iter_manifest": "read_manifest one record at a time, so a caller's memory does not grow with the manifest",
    "curation.read_manifest": "bench",
    "curation.write_manifest": "bench",
    "curation.write_rejection_csv": "bench",
    "entities.SUPPORTED_TYPES": "the entity types align_entities scores: spans of any other type are dropped",
    "entities.EntitySpan": "gate",
    "entities.EntityAlignment": "the return type of align_entities",
    "entities.align_entities": "command",
    "entities.pn_score": "command",
    "entities.read_entity_file": "command",
    "metrics.EmptyReferenceError": "command",
    "metrics.wer": "command",
    "metrics.jaro_winkler": "command",
    "metrics.weighted_average": "gate",
    "metrics.EvalRow": "command",
    "metrics.build_report": "command",
    "noise.mix_at_snr": "gate",
    "noise.measure_snr": "gate",
    "noise.MixResult": "the return type of mix_at_snr",
    "noise.run_sweep": "command",
    "noise.ordered_map": "command",
    "noise.transcribe_file": "bench",
    "noise.write_sweep_csv": "command",
    "planner.ScalingAssumptions": "command",
    "planner.optimal_hours": "command",
    "seeding.substream": "command",
    "stitch.energy_vad": "bench",
    "stitch.speech_stats": "turns VAD ranges into the manifest's speech_ratio and max_silence_sec, "
                           "the two fields curation's speech and silence filter reads",
    "stitch.remove_silences": "bench",
    "stitch.voiced_ranges": "command",
    "stitch.write_voiced_chunks": "command",
    "stitch.ChunkPlan": "the return type of plan_chunks",
    "stitch.plan_chunks": "command",
    "stitch.stitch": "command",
    "textnorm.NormRuleSet": "command",
    "textnorm.DEFAULT_RULES": "command",
    "textnorm.normalize": "command",
    "textnorm.load_rules": "command",
    "transducer.decode.greedy_decode": "gate",
    "transducer.decode.beam_decode": "bench",
    "transducer.lattice.RnntLattice": "bench",
    "transducer.lattice.log_softmax": "gate",
    "transducer.lattice.random_lattice": "bench",
    "transducer.lm.NgramLm": "the return type of build_lm",
    "transducer.lm.build_lm": "bench",
    "transducer.loss.rnnt_logprob": "bench",
    "transducer.loss.brute_force_logprob": "bench",
    "transducer.loss.rnnt_grad": "bench",
    "transducer.loss.finite_difference_grad": "bench",
    "transducer.mask.MaskSpec": "bench",
    "transducer.mask.make_stream_mask": "bench",
    "transducer.mask.receptive_field": "gate",
}


def public_names() -> dict[str, set[str]]:
    """Each distinct public name, as "module.name" under its deepest exporting module -> the modules that export it.

    A private module (``asrlab._lazy``, ``asrlab.__main__``) exports no public
    name, and a package's re-export of a submodule's object counts once,
    under the submodule.
    """
    exporters: dict[tuple[str, int], list[str]] = {}
    for name in MODULES:
        if any(part.startswith("_") for part in name.split(".")):
            continue
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", ()):
            exporters.setdefault((attr, id(getattr(module, attr))), []).append(name)
    return {f"{max(mods, key=lambda m: m.count('.')).removeprefix('asrlab.')}.{attr}": set(mods)
            for (attr, _), mods in exporters.items()}


def _names_used(path: pathlib.Path, strings: bool = False) -> set[str]:
    """The identifiers a Python file uses, imports or reads an attribute by, and with `strings` its string constants."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def _src_module(path: pathlib.Path) -> str:
    parts = path.relative_to(ROOT / "src").with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names {missing}, which {name} does not define"


def test_package_exports_only_its_version():
    # a submodule that has been imported is bound on the package; nothing else is
    assert [name for name, value in vars(asrlab).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)] == []
    with pytest.raises(ImportError):
        from asrlab import normalize  # noqa: F401


def test_submodule_is_not_shadowed_by_a_function_of_its_name():
    import asrlab.stitch as S

    assert S.__name__ == "asrlab.stitch"
    assert S.stitch([["a", "b"], ["b", "c"]], 1) == ["a", "b", "c"]


def test_every_public_name_has_a_recorded_reach():
    public = public_names()
    assert not public.keys() - REACH.keys(), f"public names without a REACH row: {sorted(public.keys() - REACH.keys())}"
    assert not REACH.keys() - public.keys(), f"REACH rows for names that are not public: {sorted(REACH.keys() - public.keys())}"

    src = {_src_module(path): _names_used(path) for path in (ROOT / "src" / "asrlab").rglob("*.py")}
    bench = set().union(*(_names_used(path, strings=True) for path in (ROOT / "bench").rglob("*.py")))  # spans.py binds by string
    gate = _names_used(ROOT / "tests" / "test_acceptance.py")
    unmet = []
    for qualified, reach in REACH.items():
        attr = qualified.rsplit(".", 1)[1]
        if reach == "command":
            ok = any(attr in used for module, used in src.items() if module not in public[qualified])
        elif reach == "bench":
            ok = attr in bench
        elif reach == "gate":
            ok = attr in gate
        else:
            ok = len(reach.split()) >= 4  # a written reason, not a bare word
        if not ok:
            unmet.append(f"{qualified}: {reach}")
    assert not unmet, f"REACH claims that no file bears out: {unmet}"

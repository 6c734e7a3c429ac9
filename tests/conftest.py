import json
import sys

import numpy as np
import pytest

from asrlab.audio import AudioBuffer, write_wav


def make_script(tmp_path, name: str, body: str) -> list[str]:
    """Write a python script and return the command list that runs it."""
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return [sys.executable, str(path)]


@pytest.fixture
def echo_transcriber(tmp_path):
    """Transcriber obeying the external contract: prints the transcript mapped
    to the clean file id embedded in the wav name (<id>_snr<db>.wav)."""

    def factory(id_to_text: dict[str, str]):
        sidecar = tmp_path / "refmap.json"
        sidecar.write_text(json.dumps(id_to_text), encoding="utf-8")
        body = f"""
import json, os, sys
wav = sys.argv[1]
stem = os.path.splitext(os.path.basename(wav))[0]
file_id = stem.split("_snr")[0]
refs = json.load(open({str(sidecar)!r}))
print(refs[file_id])
"""
        return make_script(tmp_path, "echo_transcriber.py", body)

    return factory


@pytest.fixture
def empty_transcriber(tmp_path):
    return make_script(tmp_path, "empty_transcriber.py", "print('')\n")


@pytest.fixture
def failing_transcriber(tmp_path):
    return make_script(tmp_path, "failing_transcriber.py", "import sys; sys.exit(3)\n")


def tone(duration_sec: float, freq_hz: float = 440.0, amplitude: float = 0.5, sr: int = 16000) -> np.ndarray:
    t = np.arange(int(duration_sec * sr)) / sr
    return amplitude * np.sin(2 * np.pi * freq_hz * t)


def white_noise(n_samples: int, seed: int) -> AudioBuffer:
    """i.i.d. standard normal samples, one ``default_rng(seed)`` draw."""
    return AudioBuffer(samples=np.random.default_rng(seed).standard_normal(n_samples))


def write_tone_wav(path, duration_sec=1.0, freq_hz=440.0, amplitude=0.5, sr=16000):
    buf = AudioBuffer(samples=tone(duration_sec, freq_hz, amplitude, sr), sample_rate_hz=sr)
    write_wav(buf, str(path))
    return buf

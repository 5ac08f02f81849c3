import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from respscreen import dataset, synth
from respscreen.audio_io import AudioSegment

SR = 22050
SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(code: str, **env: str) -> str:
    """Run the indented source `code` in a fresh interpreter that imports
    respscreen from this checkout, with `env` set in the child's environment
    only; returns its standard output."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                            capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path, **env}, timeout=300)
    assert result.returncode == 0, result.stderr
    return result.stdout


def sine(freq, seconds=2.0, sr=SR, amplitude=0.5):
    t = np.arange(int(seconds * sr)) / sr
    return AudioSegment(amplitude * np.sin(2 * np.pi * freq * t), sr)


def click_train(clicks_per_second, seconds=5.0, sr=SR, seed=0):
    """Short noise bursts at a regular rate, in otherwise silent audio."""
    rng = np.random.default_rng(seed)
    x = np.zeros(int(seconds * sr))
    period = int(sr / clicks_per_second)
    for start in range(0, len(x) - 300, period):
        x[start : start + 300] = rng.uniform(-0.8, 0.8, 300)
    return AudioSegment(x, sr)


@pytest.fixture(scope="session")
def cohort(tmp_path_factory):
    """Small spectrally separable synthetic cohort shared across tests."""
    d = tmp_path_factory.mktemp("cohort")
    manifest = synth.generate_cohort(d, seed=1)
    return d, manifest, dataset.load_manifest(manifest)

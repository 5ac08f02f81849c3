"""Reproducible synthetic cohorts for tests and end-to-end runs.

Generates WAV recordings plus a manifest CSV. Class separation is
spectral: positive users' recordings are tone bursts centered at 400 Hz,
negative users' at 1600 Hz (`informative=False` assigns the tone
frequency independently of the label, which destroys the signal while
keeping every cohort filter satisfiable).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio_io import AudioSegment, encode_wav
from .dataset import MANIFEST_COLUMNS, SampleRecord
from .util import csv_text, format_float, write_bytes_atomic, write_text_atomic

POSITIVE_FREQ_HZ = 400.0
NEGATIVE_FREQ_HZ = 1600.0
SAMPLE_RATE = 22050

# Countries in the non-prevalent allow-list vs outside it
ALLOWLIST_COUNTRY = "GR"
OTHER_COUNTRY = "GB"


@dataclass(frozen=True)
class CohortSpec:
    """User counts per synthetic group."""

    n_covid: int = 12  # positive test, cough symptom
    n_healthy: int = 12  # clean history, no symptoms, allow-list country
    n_cough: int = 8  # healthy criteria but with a cough symptom
    n_asthma: int = 8  # asthma history with a cough symptom
    clip_seconds: float = 2.0
    informative: bool = True


def burst_clip(rng: np.random.Generator, freq: float, seconds: float,
               sr: int = SAMPLE_RATE) -> AudioSegment:
    """Tone bursts in low background noise: three audible events per clip."""
    n = int(seconds * sr)
    # one full-length array, changed in place (see audio_io.encode_wav)
    x = rng.standard_normal(n)
    x *= 0.002
    n_bursts = 3
    burst_len = int(0.25 * sr)
    for b in range(n_bursts):
        start = int((0.1 + 0.6 * b / n_bursts) * n)
        seg_t = np.arange(start, min(start + burst_len, n)) / sr
        envelope = np.hanning(len(seg_t))
        jitter = 1.0 + 0.05 * rng.standard_normal()
        x[start : start + burst_len] += 0.6 * envelope * np.sin(
            2 * math.pi * freq * jitter * seg_t
        )
    return AudioSegment(np.clip(x, -1.0, 1.0, out=x), sr)


def generate_cohort(out_dir, seed: int, spec: CohortSpec = CohortSpec()) -> Path:
    """Write WAVs and manifest.csv under out_dir; returns the manifest path."""
    out_dir = Path(out_dir)
    audio_dir = out_dir / "audio"
    rng = np.random.default_rng(seed)

    groups = (
        ("covid", spec.n_covid, True),
        ("healthy", spec.n_healthy, False),
        ("cough", spec.n_cough, False),
        ("asthma", spec.n_asthma, False),
    )
    rows = []
    for group, count, is_positive in groups:
        for u in range(count):
            user_id = f"{group}{u:03d}"
            if spec.informative:
                freq = POSITIVE_FREQ_HZ if is_positive else NEGATIVE_FREQ_HZ
            else:
                freq = POSITIVE_FREQ_HZ if rng.random() < 0.5 else NEGATIVE_FREQ_HZ
            for modality in ("cough", "breath"):
                sample_id = f"{user_id}_s0_{modality}"
                clip = burst_clip(rng, freq, spec.clip_seconds)
                rel = f"audio/{sample_id}.wav"
                write_bytes_atomic(out_dir / rel, encode_wav(clip))
                rows.append(
                    {
                        "sample_id": sample_id,
                        "user_id": user_id,
                        "modality": modality,
                        "audio_path": rel,
                        "covid_tested_positive": str(is_positive).lower(),
                        "symptoms": "cough" if group in ("covid", "cough", "asthma") else "",
                        "medical_history": "asthma" if group == "asthma" else "",
                        "smoker": "never",
                        "country": OTHER_COUNTRY if group == "covid" else ALLOWLIST_COUNTRY,
                        "collected_at": "2020-05-01T00:00:00",
                    }
                )

    manifest_path = out_dir / "manifest.csv"
    write_text_atomic(manifest_path, csv_text(MANIFEST_COLUMNS,
                                              [[row[c] for c in MANIFEST_COLUMNS] for row in rows]))
    return manifest_path


def generate_embeddings(records: list[SampleRecord], out_path, seed: int) -> Path:
    """Synthetic 128-d frame embeddings for every manifest record.

    Mildly class-informative (mean shift on the first dimensions for
    positive users), so embedding-based runs have signal.
    """
    out_path = Path(out_path)
    rows = []
    rng = np.random.default_rng(seed)
    for r in sorted(records, key=lambda r: (r.sample_id, r.modality)):
        n_sub = 2 + int(rng.integers(0, 3))
        shift = 1.5 if r.covid_tested_positive else 0.0
        for idx in range(n_sub):
            vec = rng.normal(0.0, 1.0, size=128)
            vec[:16] += shift
            rows.append([r.sample_id, idx, *[format_float(v) for v in vec]])
    write_text_atomic(out_path, csv_text(["sample_id", "frame_index",
                                          *[f"e{i}" for i in range(128)]], rows))
    return out_path

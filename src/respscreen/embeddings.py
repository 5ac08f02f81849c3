"""Externally computed 128-d frame embeddings: loading, pooling, combination.

The network that produces the embeddings lives outside this package; we
consume a CSV of per-frame vectors (columns sample_id, frame_index,
e0..e127, one row per 0.96 s sub-sample of the 16 kHz clip) and pool them
into a 256-d vector (per-dimension mean, then per-dimension std).
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, MalformedEmbeddingFile
from .features import FEATURE_NAMES

EMBED_DIM = 128

# Pooled layout: per-dimension mean (0..127), then population std (128..255)
POOLED_NAMES = (
    *(f"vgg.e{i:03d}_mean" for i in range(EMBED_DIM)),
    *(f"vgg.e{i:03d}_std" for i in range(EMBED_DIM)),
)

# Combined-variant lengths (256 embedding dims plus handcrafted blocks)
VARIANT_LENGTHS = {"A": 260, "B": 447, "C": 733}

# Handcrafted columns each variant appends to the pooled embedding:
# A the four segment-level features, B all but the delta/delta2 MFCC blocks,
# C the full vector.
VARIANT_COLUMNS = {
    "A": np.array([FEATURE_NAMES.index(n) for n in ("duration", "tempo", "onsets", "period")]),
    "B": np.array([i for i, n in enumerate(FEATURE_NAMES)
                   if not n.startswith(("dmfcc", "d2mfcc"))]),
    "C": np.arange(len(FEATURE_NAMES)),
}
VARIANT_NAMES = {
    variant: POOLED_NAMES + tuple(f"hc.{FEATURE_NAMES[i]}" for i in columns)
    for variant, columns in VARIANT_COLUMNS.items()
}

_EXPECTED_COLUMNS = ["sample_id", "frame_index"] + [f"e{i}" for i in range(EMBED_DIM)]


def load_embeddings(path) -> dict[str, np.ndarray]:
    """Load and group frame embeddings by sample: sample_id -> [n_sub x 128]
    rows ordered by frame_index."""
    rows: dict[str, list[tuple[int, np.ndarray]]] = {}
    try:
        with open(Path(path), newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise MalformedEmbeddingFile("empty file")
            if header != _EXPECTED_COLUMNS:
                if len(header) != len(_EXPECTED_COLUMNS):
                    raise DimensionMismatch(
                        f"expected {len(_EXPECTED_COLUMNS)} columns, got {len(header)}"
                    )
                raise MalformedEmbeddingFile(f"unexpected header {header[:4]}...")
            for line_no, row in enumerate(reader, start=2):
                if len(row) != len(_EXPECTED_COLUMNS):
                    raise DimensionMismatch(f"row {line_no} has {len(row)} fields")
                try:
                    idx = int(row[1])
                    vec = np.array([float(v) for v in row[2:]])
                except ValueError as exc:
                    raise MalformedEmbeddingFile(f"row {line_no}: {exc}") from exc
                if not np.all(np.isfinite(vec)):
                    raise MalformedEmbeddingFile(f"row {line_no}: non-finite value")
                rows.setdefault(row[0], []).append((idx, vec))
    except OSError as exc:
        raise MalformedEmbeddingFile(str(exc)) from exc

    out = {}
    for sample_id, entries in rows.items():
        entries.sort(key=lambda e: e[0])
        out[sample_id] = np.stack([v for _, v in entries])
    return out


def pool(frames: np.ndarray) -> np.ndarray:
    """Per-dimension mean then per-dimension population std, laid out as `POOLED_NAMES`."""
    return np.concatenate([frames.mean(axis=0), frames.std(axis=0)])


def combine(hand: np.ndarray, pooled: np.ndarray, variant: str) -> np.ndarray:
    """The pooled embedding followed by variant A's, B's or C's handcrafted
    columns, laid out as `VARIANT_NAMES[variant]`."""
    if variant not in VARIANT_COLUMNS:
        raise ValueError(f"unknown variant {variant!r}")
    return np.concatenate([pooled, hand[VARIANT_COLUMNS[variant]]])

"""Respiratory-sound screening pipeline.

Handcrafted and embedding-based audio features, PCA, shallow classifiers,
user-disjoint nested cross-validation, and training-set augmentation,
with a CLI (`respscreen`) driving the whole pipeline.
"""

from .audio_io import AudioSegment, decode_wav, encode_wav, resample, trim_silence
from .features import extract_handcrafted, summarize
from .metrics import precision_recall, roc_auc

__all__ = [
    "AudioSegment",
    "decode_wav",
    "encode_wav",
    "extract_handcrafted",
    "precision_recall",
    "resample",
    "roc_auc",
    "summarize",
    "trim_silence",
]

__version__ = "0.1.0"

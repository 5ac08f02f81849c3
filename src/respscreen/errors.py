"""Exception hierarchy shared across the pipeline."""


class RespScreenError(Exception):
    """Base class for all pipeline errors."""


class MalformedWav(RespScreenError):
    """WAV byte stream has a bad RIFF header or chunk layout."""


class UnsupportedEncoding(RespScreenError):
    """WAV codec other than PCM16 / IEEE float32, or channel count > 2."""


class SilentSample(RespScreenError):
    """Recording is silent (nothing left after trimming, or SNR undefined)."""


class TooShort(RespScreenError):
    """Segment too short for the requested frame-based computation."""


class EmptySeries(RespScreenError):
    """Statistics requested on an empty series."""


class MalformedEmbeddingFile(RespScreenError):
    """Embedding CSV cannot be parsed."""


class DimensionMismatch(RespScreenError):
    """Embedding rows do not carry exactly 128 dimensions."""


class SchemaError(RespScreenError):
    """Manifest row violates the documented schema."""


class DuplicateSample(RespScreenError):
    """Two manifest rows share a sample_id; each id names one recording."""


class EmptyCohort(RespScreenError):
    """A task filter produced a class with zero users."""


class TooFewUsers(RespScreenError):
    """Not enough users per class to build disjoint splits."""


class SingleClass(RespScreenError):
    """Classifier or metric given labels from only one class."""


class NonFiniteFeature(RespScreenError):
    """A feature vector or matrix contains NaN or infinity."""


class DegenerateData(RespScreenError):
    """PCA input has zero total variance."""


class ConfigError(RespScreenError):
    """Invalid run configuration (bad flag combination, missing input)."""


# Errors of a recording or its pooled embedding that every command skips, with its reason
UNUSABLE_RECORDING = (SilentSample, TooShort, MalformedWav, UnsupportedEncoding, NonFiniteFeature)


def skip_reason(exc: RespScreenError) -> str:
    """Why a recording was left out, as skip CSVs and reports write it."""
    return f"{type(exc).__name__}: {exc}"

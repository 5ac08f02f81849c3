import csv
import io

import numpy as np
import pytest

from respscreen.audio_io import AudioSegment
from respscreen.embeddings import (
    POOLED_NAMES,
    VARIANT_COLUMNS,
    VARIANT_LENGTHS,
    VARIANT_NAMES,
    combine,
    load_embeddings,
    pool,
)
from respscreen.errors import DimensionMismatch, MalformedEmbeddingFile
from respscreen.features import extract_handcrafted

from .conftest import sine


def write_embedding_csv(path, rows, n_dims=128):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", "frame_index"] + [f"e{i}" for i in range(n_dims)])
        writer.writerows(rows)


@pytest.fixture(scope="module")
def hand_vector():
    return extract_handcrafted(sine(800))


class TestLoad:
    def test_groups_rows(self, tmp_path):
        p = tmp_path / "emb.csv"
        write_embedding_csv(p, [["s1", i, *np.full(128, float(i))] for i in range(3)])
        loaded = load_embeddings(p)
        assert set(loaded) == {"s1"}
        assert loaded["s1"].shape == (3, 128)

    def test_missing_column(self, tmp_path):
        p = tmp_path / "emb.csv"
        write_embedding_csv(p, [["s1", 0, *np.zeros(127)]], n_dims=127)
        with pytest.raises(DimensionMismatch):
            load_embeddings(p)

    def test_interleaved_samples(self, tmp_path):
        p = tmp_path / "emb.csv"
        rows = [
            ["a", 0, *np.zeros(128)],
            ["b", 1, *np.ones(128)],
            ["a", 1, *np.full(128, 2.0)],
            ["b", 0, *np.full(128, 3.0)],
        ]
        write_embedding_csv(p, rows)
        loaded = load_embeddings(p)
        assert loaded["a"][1, 0] == 2.0
        assert loaded["b"][0, 0] == 3.0  # reordered by frame_index

    def test_repeated_frame_index(self, tmp_path):
        # a repeated frame would otherwise count twice in the pooled mean
        p = tmp_path / "emb.csv"
        write_embedding_csv(p, [["s1", i, *np.full(128, float(i))] for i in (1, 3, 3)])
        with pytest.raises(MalformedEmbeddingFile, match="row 4"):
            load_embeddings(p)

    def test_non_numeric_value(self, tmp_path):
        p = tmp_path / "emb.csv"
        values = [0.0] * 128
        values[5] = "oops"
        write_embedding_csv(p, [["s1", 0, *values]])
        with pytest.raises(MalformedEmbeddingFile):
            load_embeddings(p)


class TestPool:
    def test_single_frame(self):
        v = np.arange(128.0)
        pooled = pool(v[None, :])
        assert np.array_equal(pooled[:128], v)
        assert np.all(pooled[128:] == 0)

    def test_opposite_frames(self):
        v = np.linspace(-1, 1, 128)
        pooled = pool(np.stack([v, -v]))
        assert np.allclose(pooled[:128], 0)
        assert np.allclose(pooled[128:], np.abs(v))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(12)
        frames = rng.normal(size=(5, 128))
        pooled = pool(frames)
        for d in range(128):
            col = frames[:, d]
            assert pooled[d] == pytest.approx(sum(col) / 5, rel=1e-9)
            mean = sum(col) / 5
            var = sum((c - mean) ** 2 for c in col) / 5
            assert pooled[128 + d] == pytest.approx(var**0.5, rel=1e-9)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(13)
        frames = rng.normal(size=(6, 128))
        a = pool(frames)
        b = pool(frames[::-1])
        assert np.allclose(a, b)


class TestCombine:
    @pytest.fixture(scope="class")
    @staticmethod
    def pooled():
        rng = np.random.default_rng(14)
        return pool(rng.normal(size=(4, 128)))

    @pytest.mark.parametrize("variant,length", sorted(VARIANT_LENGTHS.items()))
    def test_lengths(self, hand_vector, pooled, variant, length):
        combined = combine(hand_vector, pooled, variant)
        assert len(combined) == length
        assert len(VARIANT_NAMES[variant]) == length

    def test_layout_tables_match_lengths(self):
        assert len(POOLED_NAMES) == 256
        assert VARIANT_COLUMNS.keys() == VARIANT_NAMES.keys() == VARIANT_LENGTHS.keys()
        for variant, length in VARIANT_LENGTHS.items():
            assert len(POOLED_NAMES) + len(VARIANT_COLUMNS[variant]) == length
            assert VARIANT_NAMES[variant][:256] == POOLED_NAMES

    def test_pure_concatenation(self, hand_vector, pooled):
        combined = combine(hand_vector, pooled, "C")
        source = set(pooled) | set(hand_vector)
        assert all(v in source for v in combined)
        assert np.array_equal(combined[:256], pooled)
        assert np.array_equal(combined[256:], hand_vector)

    def test_provenance_prefixes(self):
        assert all(n.startswith(("vgg.", "hc.")) for n in VARIANT_NAMES["B"])
        assert not any("dmfcc" in n for n in VARIANT_NAMES["B"])

    def test_variant_a_composition(self):
        assert list(VARIANT_NAMES["A"][256:]) == [
            "hc.duration", "hc.tempo", "hc.onsets", "hc.period",
        ]

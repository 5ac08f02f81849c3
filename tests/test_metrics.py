import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from respscreen.errors import SingleClass
from respscreen.metrics import precision_recall, roc_auc


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_perfectly_wrong(self):
        assert roc_auc([0.9, 0.8, 0.1, 0.2], [0, 0, 1, 1]) == 0.0

    def test_all_tied_is_half(self):
        assert roc_auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5

    def test_hand_computed(self):
        # pairs: (0.7>0.4), (0.7>0.6), (0.3<0.4), (0.3<0.6) -> 2/4
        assert roc_auc([0.4, 0.6, 0.7, 0.3], [0, 0, 1, 1]) == 0.5

    def test_single_tie_counts_half(self):
        # (0.5==0.5 -> 0.5) + (0.9>0.5 -> 1) over 2 pairs = 0.75
        assert roc_auc([0.5, 0.5, 0.9], [0, 1, 1]) == 0.75

    def test_single_class_raises(self):
        with pytest.raises(SingleClass):
            roc_auc([0.1, 0.2], [1, 1])

    @given(
        # rounded values keep ties exact under the affine transform below
        st.lists(st.floats(-100, 100).map(lambda v: round(v, 3)),
                 min_size=2, max_size=30),
        st.data(),
    )
    def test_monotone_transform_invariance(self, scores, data):
        labels = data.draw(
            st.lists(st.sampled_from([0, 1]), min_size=len(scores), max_size=len(scores))
        )
        if len(set(labels)) < 2:
            labels[0], labels[1] = 0, 1
        base = roc_auc(scores, labels)
        shifted = roc_auc([3.0 * s + 7.0 for s in scores], labels)
        assert base == pytest.approx(shifted, abs=1e-12)

    @given(st.integers(0, 2**31), st.integers(3, 40))
    def test_matches_rank_formula(self, seed, n):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=n)
        labels = rng.integers(0, 2, size=n)
        if len(np.unique(labels)) < 2:
            labels[0], labels[1] = 0, 1
        # independent oracle: average rank of positives (Mann-Whitney U)
        from scipy.stats import rankdata

        ranks = rankdata(scores)
        n_pos = int(np.sum(labels == 1))
        n_neg = len(labels) - n_pos
        u = ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2
        assert roc_auc(scores, labels) == pytest.approx(u / (n_pos * n_neg), abs=1e-12)

    @given(st.integers(0, 2**31), st.integers(2, 40), st.integers(1, 12))
    def test_matrix_equals_its_columns(self, seed, n, m):
        rng = np.random.default_rng(seed)
        # few distinct values per column make ties; the last column is continuous
        scores = rng.integers(0, 4, size=(n, m)).astype(float) / 4.0
        scores[:, -1] = rng.normal(size=n)
        labels = rng.integers(0, 2, size=n)
        labels[0], labels[1] = 0, 1
        aucs = roc_auc(scores, labels)
        assert aucs.shape == (m,)
        for j in range(m):
            alone = roc_auc(scores[:, j], labels)
            assert type(alone) is float
            assert aucs[j] == alone  # bitwise, ties included

    def test_matrix_single_class_raises(self):
        with pytest.raises(SingleClass):
            roc_auc(np.zeros((3, 2)), [0, 0, 0])


class TestPrecisionRecall:
    def test_hand_computed(self):
        # threshold 0.5: predictions [1,1,0,1]; tp=2 fp=1 fn=1
        pr = precision_recall([0.6, 0.8, 0.2, 0.5], [1, 1, 1, 0], 0.5)
        assert pr.precision == pytest.approx(2 / 3)
        assert pr.recall == pytest.approx(2 / 3)
        assert not pr.no_predicted_positives

    def test_threshold_inclusive(self):
        pr = precision_recall([0.5, 0.4], [1, 0], 0.5)
        assert pr.precision == 1.0 and pr.recall == 1.0

    def test_no_predicted_positives(self):
        pr = precision_recall([0.1, 0.2], [0, 1], 0.9)
        assert pr.precision == 0.0 and pr.recall == 0.0
        assert pr.no_predicted_positives

    def test_single_class_raises(self):
        with pytest.raises(SingleClass):
            precision_recall([0.4, 0.9], [0, 0], 0.5)

    def test_svm_margin_threshold_zero(self):
        pr = precision_recall([-1.0, 2.0, 0.5], [0, 1, 1], 0.0)
        assert pr.precision == 1.0 and pr.recall == 1.0

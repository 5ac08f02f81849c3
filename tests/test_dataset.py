import numpy as np
import pytest

from respscreen.dataset import (
    COUNTRY_ALLOWLIST,
    SampleRecord,
    apply_task,
    balance,
    is_negative,
    is_positive,
    load_manifest,
    parse_manifest_rows,
    split_users,
)
from respscreen.errors import DuplicateSample, EmptyCohort, SchemaError, TooFewUsers

COLUMNS = [
    "sample_id", "user_id", "modality", "audio_path", "covid_tested_positive",
    "symptoms", "medical_history", "smoker", "country", "collected_at",
]


def row(sample_id="s1", user_id="u1", modality="cough", covid="false",
        symptoms="", history="", smoker="never", country="GR"):
    return {
        "sample_id": sample_id,
        "user_id": user_id,
        "modality": modality,
        "audio_path": f"audio/{sample_id}.wav",
        "covid_tested_positive": covid,
        "symptoms": symptoms,
        "medical_history": history,
        "smoker": smoker,
        "country": country,
        "collected_at": "2020-05-01",
    }


def record(user_id, covid=False, symptoms=(), history=(), smoker="never",
           country="GR", modality="cough", sample_id=None):
    return SampleRecord(
        sample_id=sample_id or f"{user_id}_{modality}",
        user_id=user_id,
        modality=modality,
        audio_path="x.wav",
        covid_tested_positive=covid,
        symptoms=frozenset(symptoms),
        medical_history=frozenset(history),
        smoker=smoker,
        country=country,
        collected_at="2020-05-01",
    )


class TestLoadManifest:
    def test_valid_rows(self, tmp_path):
        p = tmp_path / "m.csv"
        import csv

        with open(p, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=COLUMNS)
            writer.writeheader()
            writer.writerows([row(sample_id=f"s{i}", user_id=f"u{i}") for i in range(3)])
        assert len(load_manifest(p)) == 3

    def test_duplicate_sample(self):
        rows = [row(), row()]
        with pytest.raises(DuplicateSample):
            parse_manifest_rows(rows, COLUMNS)

    def test_sample_id_names_one_recording(self):
        # a cough and a breath row under one id would share one feature vector
        rows = [row(sample_id="s1", modality="cough"), row(sample_id="s1", modality="breath")]
        with pytest.raises(DuplicateSample, match="row 3"):
            parse_manifest_rows(rows, COLUMNS)

    def test_empty_sample_id(self):
        with pytest.raises(SchemaError, match="empty sample_id"):
            parse_manifest_rows([row(sample_id="  ")], COLUMNS)

    def test_unknown_modality(self):
        with pytest.raises(SchemaError):
            parse_manifest_rows([row(modality="voice")], COLUMNS)

    def test_missing_column(self):
        with pytest.raises(SchemaError):
            parse_manifest_rows([], COLUMNS[:-1])

    @pytest.mark.parametrize("n_fields", [3, 11])
    def test_row_with_wrong_field_count(self, tmp_path, n_fields):
        fields = list(row().values())
        p = tmp_path / "m.csv"
        p.write_text(",".join(COLUMNS) + "\n" + ",".join(fields) + "\n"
                     + ",".join((fields + ["extra"])[:n_fields]) + "\n")
        with pytest.raises(SchemaError, match=f"row 3: expected 10 fields, got {n_fields}"):
            load_manifest(p)

    def test_symptom_tokens(self):
        r = parse_manifest_rows([row(symptoms="cough; fever")], COLUMNS)[0]
        assert r.symptoms == {"cough", "fever"}


class TestApplyTask:
    def cohort(self):
        records = []
        for i in range(5):
            records.append(record(f"pos{i}", covid=True, symptoms={"cough"}, country="GB"))
        for i in range(6):
            records.append(record(f"neg{i}"))
        for i in range(3):
            records.append(record(f"coughneg{i}", symptoms={"cough"}))
        for i in range(3):
            records.append(record(f"asthma{i}", symptoms={"cough"}, history={"asthma"}))
        return records

    def test_task1_partition(self):
        pos, neg = apply_task(self.cohort(), 1)
        assert {r.user_id[:3] for r in pos} == {"pos"}
        assert all(not r.symptoms and not r.medical_history and r.smoker == "never"
                   and not r.covid_tested_positive and r.country in COUNTRY_ALLOWLIST
                   for r in neg)
        assert len(neg) == 6

    def test_task2_requires_cough_both_sides(self):
        pos, neg = apply_task(self.cohort(), 2)
        assert len(pos) == 5
        assert {r.user_id[:5] for r in neg} == {"cough"}

    def test_task3_asthma_negatives(self):
        pos, neg = apply_task(self.cohort(), 3)
        assert {r.user_id[:6] for r in neg} == {"asthma"}

    def test_filters_disjoint(self):
        # declared-positive user in an allow-list country: positive side only
        r = record("x", covid=True, country="GR")
        assert is_positive(r, 1) and not is_negative(r, 1)

    def test_empty_cohort(self):
        records = [record("a", covid=True, symptoms={"cough"}), record("b")]
        with pytest.raises(EmptyCohort):
            apply_task(records, 3)  # nobody has asthma

    def test_permutation_pure(self):
        records = self.cohort()
        pos1, neg1 = apply_task(records, 1)
        pos2, neg2 = apply_task(records[::-1], 1)
        assert {r.sample_id for r in pos1} == {r.sample_id for r in pos2}
        assert {r.sample_id for r in neg1} == {r.sample_id for r in neg2}

    def test_table_row_one_counts(self):
        # cohort shaped like the reported first task: 141 positive samples
        # over 62 users, 298 negative samples over 220 users
        records = []
        for u in range(62):
            n_samples = 3 if u < 17 else 2 if u < 62 - 17 - (62 - 45) else 2
            records = records
        # distribute 141 = 62*2 + 17 extra, 298 = 220 + 78 extra
        records = []
        for u in range(62):
            count = 2 + (1 if u < 17 else 0)
            for s in range(count):
                records.append(
                    record(f"p{u}", covid=True, country="GB", sample_id=f"p{u}_{s}")
                )
        for u in range(220):
            count = 1 + (1 if u < 78 else 0)
            for s in range(count):
                records.append(record(f"n{u}", sample_id=f"n{u}_{s}"))
        pos, neg = apply_task(records, 1)
        assert len(pos) == 141
        assert len(neg) == 298
        assert len({r.user_id for r in pos}) == 62
        assert len({r.user_id for r in neg}) == 220


class TestSplitUsers:
    def users(self, n_pos=20, n_neg=80):
        pos = [record(f"p{i}", covid=True) for i in range(n_pos)]
        neg = [record(f"n{i}") for i in range(n_neg)]
        return pos, neg

    def test_fold_sizes(self):
        pos, neg = self.users(20, 80)
        splits = split_users(pos, neg, seed=0)
        assert len(splits) == 10
        for train, test in splits:
            assert len(test) == pytest.approx(20, abs=1)
            assert len(train) + len(test) == 100

    def test_disjoint(self):
        pos, neg = self.users()
        for train, test in split_users(pos, neg, seed=1):
            assert not train & test

    def test_deterministic(self):
        pos, neg = self.users()
        assert split_users(pos, neg, seed=2) == split_users(pos, neg, seed=2)
        assert split_users(pos, neg, seed=2) != split_users(pos, neg, seed=3)

    def test_too_few_users(self):
        with pytest.raises(TooFewUsers):
            split_users([record("p0", covid=True)], [record("n0"), record("n1")], seed=0)

    def test_stratified_by_class(self):
        pos, neg = self.users(10, 40)
        for train, test in split_users(pos, neg, seed=4):
            test_pos = sum(1 for u in test if u.startswith("p"))
            assert test_pos == 2  # 20% of 10 positive users


class TestBalance:
    def test_downsamples_majority(self):
        labels = [1] * 30 + [0] * 50
        keep = balance(labels, seed=0)
        kept_labels = [labels[i] for i in keep]
        assert kept_labels.count(1) == 30
        assert kept_labels.count(0) == 30

    def test_balanced_unchanged(self):
        labels = [1, 0, 1, 0]
        assert balance(labels, seed=0) == [0, 1, 2, 3]

    def test_deterministic(self):
        labels = [1] * 10 + [0] * 25
        assert balance(labels, seed=5) == balance(labels, seed=5)

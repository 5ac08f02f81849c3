import csv
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from respscreen import cli, evaluate, features, model
from respscreen.audio_io import AudioSegment, decode_wav, encode_wav
from respscreen.augment import augment_six
from respscreen.dataset import load_manifest
from respscreen.cli import (
    CONFIG_ENV_VAR,
    EXIT_CONFIG,
    EXIT_EMPTY_COHORT,
    EXIT_IO,
    EXIT_OK,
    main,
)
from respscreen.model import load_pipeline

from .conftest import run_python

README = Path(__file__).resolve().parents[1] / "README.md"
MANIFEST_HEADER = ("sample_id,user_id,modality,audio_path,covid_tested_positive,"
                   "symptoms,medical_history,smoker,country,collected_at\n")


@pytest.fixture(scope="module")
def cohort_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli_cohort")
    code = main([
        "synth-manifest", "--out", str(d), "--seed", "5",
        "--covid-users", "8", "--healthy-users", "8",
        "--cough-users", "6", "--asthma-users", "6",
        "--clip-seconds", "1.0",
        "--embeddings-out", str(d / "embeddings.csv"),
    ])
    assert code == EXIT_OK
    return d


class TestSynthManifest:
    def test_outputs_exist(self, cohort_dir):
        assert (cohort_dir / "manifest.csv").exists()
        assert (cohort_dir / "embeddings.csv").exists()
        assert list((cohort_dir / "audio").glob("*.wav"))

    def test_deterministic(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            assert main(["synth-manifest", "--out", str(d), "--seed", "9",
                         "--covid-users", "2", "--healthy-users", "2",
                         "--cough-users", "2", "--asthma-users", "2",
                         "--clip-seconds", "0.5"]) == EXIT_OK
            manifest = (d / "manifest.csv").read_bytes()
            wavs = {p.name: p.read_bytes() for p in (d / "audio").glob("*.wav")}
            outs.append((manifest, wavs))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("flag", ["--covid-users", "--healthy-users", "--cough-users",
                                      "--asthma-users"])
    def test_negative_user_count_is_a_usage_error(self, flag, tmp_path):
        out = tmp_path / "c"
        with pytest.raises(SystemExit) as exc:  # argparse's usage error
            main(["synth-manifest", "--out", str(out), flag, "-2"])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("seconds", ["-1", "0", "nan", "inf", "1e-9", "4e-5"])
    def test_clip_seconds_must_be_finite_and_positive(self, seconds, tmp_path):
        out = tmp_path / "c"
        with pytest.raises(SystemExit) as exc:
            main(["synth-manifest", "--out", str(out), "--clip-seconds", seconds])
        assert exc.value.code == 2
        assert not out.exists()

    def test_one_sample_clip_is_allowed(self, tmp_path):
        out = tmp_path / "c"
        assert main(["synth-manifest", "--out", str(out), "--covid-users", "1",
                     "--healthy-users", "0", "--cough-users", "0", "--asthma-users", "0",
                     "--clip-seconds", "5e-5"]) == EXIT_OK
        for record in load_manifest(out / "manifest.csv"):
            assert len(decode_wav((out / record.audio_path).read_bytes()).samples) == 1

    def test_zero_users_of_a_class_is_allowed(self, tmp_path):
        out = tmp_path / "c"
        assert main(["synth-manifest", "--out", str(out), "--covid-users", "1",
                     "--healthy-users", "1", "--cough-users", "0", "--asthma-users", "0",
                     "--clip-seconds", "0.5"]) == EXIT_OK
        assert len(load_manifest(out / "manifest.csv")) == 2 * 2  # cough and breath each


# every subcommand that takes --seed, with its one output path
SEEDED_COMMANDS = {
    "synth-manifest": ["--out", "{out}"],
    "augment": ["--manifest", "m.csv", "--out-dir", "{out}"],
    "evaluate": ["--manifest", "m.csv", "--task", "1", "--report", "{out}"],
    "train": ["--manifest", "m.csv", "--task", "1", "--out", "{out}"],
    "sweep": ["--manifest", "m.csv", "--task", "1", "--out", "{out}"],
}


@pytest.mark.parametrize("command", sorted(SEEDED_COMMANDS))
def test_negative_seed_is_refused(command, tmp_path, monkeypatch):
    out = tmp_path / "out"
    argv = [command, *(a.format(out=out) for a in SEEDED_COMMANDS[command])]
    with pytest.raises(SystemExit) as exc:  # argparse's usage error
        main([*argv, "--seed", "-1"])
    assert exc.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": -1}))
    monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg))
    assert main(argv) == EXIT_CONFIG
    assert not out.exists()


class TestExtract:
    def test_feature_csv_shape(self, cohort_dir, tmp_path):
        out = tmp_path / "features.csv"
        assert main(["extract", "--manifest", str(cohort_dir / "manifest.csv"),
                     "--out", str(out)]) == EXIT_OK
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["sample_id", *features.FEATURE_NAMES]
        assert len(rows[0]) == 478
        assert all(len(r) == 478 for r in rows[1:])
        # skip sidecar always written, empty here
        with open(out.with_suffix(".skipped.csv")) as fh:
            skip_rows = list(csv.reader(fh))
        assert skip_rows == [["sample_id", "reason"]]

    def test_parallel_matches_serial(self, cohort_dir, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        manifest = str(cohort_dir / "manifest.csv")
        assert main(["extract", "--manifest", manifest, "--out", str(a)]) == EXIT_OK
        assert main(["extract", "--manifest", manifest, "--out", str(b),
                     "--jobs", "2"]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_no_more_workers_than_recordings(self, cohort, tmp_path, monkeypatch):
        # a process pool forks all its workers at once, so --jobs is capped by
        # the recording count; the fake pool starts no process
        _, manifest, records = cohort
        asked = []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["extract", "--manifest", str(manifest), "--out", str(a),
                     "--jobs", "1000"]) == EXIT_OK
        assert main(["extract", "--manifest", str(manifest), "--out", str(b)]) == EXIT_OK
        assert asked == [len(records)]
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_jobs_below_one_is_a_usage_error(self, jobs, tmp_path):
        out = tmp_path / "f.csv"
        with pytest.raises(SystemExit) as exc:  # argparse's usage error
            main(["extract", "--manifest", "m.csv", "--out", str(out), "--jobs", jobs])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("rate", [44100, 48000])
    def test_one_sample_recording_is_too_short(self, rate, tmp_path):
        # resampled to 22.05 kHz it keeps its sample, and is skipped as it is at that rate
        assert main(["synth-manifest", "--out", str(tmp_path), "--covid-users", "1",
                     "--healthy-users", "0", "--cough-users", "0", "--asthma-users", "0",
                     "--clip-seconds", "0.5"]) == EXIT_OK
        records = load_manifest(tmp_path / "manifest.csv")
        one = min(records, key=lambda r: r.sample_id)
        (tmp_path / one.audio_path).write_bytes(encode_wav(AudioSegment(np.array([0.5]), rate)))
        out = tmp_path / "f.csv"
        assert main(["extract", "--manifest", str(tmp_path / "manifest.csv"),
                     "--out", str(out)]) == EXIT_OK
        with open(out.with_suffix(".skipped.csv")) as fh:
            assert list(csv.reader(fh))[1:] == [[one.sample_id,
                                                 "TooShort: need >= 9 frames, got 1"]]

    def test_no_run_loads_scipy(self, tmp_path):
        # resampling from 44.1 and 48 kHz, augmentation's pitch/speed change,
        # the MFCC DCT and every model take numpy alone; importing
        # scipy.special costs ~20 MB and ~0.25 s, scipy.signal ~46 MB
        code = f"""
            import contextlib, io, sys
            import numpy as np
            from respscreen import cli, synth
            from respscreen.audio_io import encode_wav
            from respscreen.dataset import load_manifest
            out = {str(tmp_path)!r}
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["synth-manifest", "--out", out, "--covid-users", "6",
                                 "--healthy-users", "6", "--cough-users", "6",
                                 "--asthma-users", "0", "--clip-seconds", "1.0",
                                 "--embeddings-out", out + "/e.csv"]) == 0
                # synth writes 22.05 kHz, where resampling is the identity
                rng = np.random.default_rng(0)
                records = sorted(load_manifest(out + "/manifest.csv"), key=lambda r: r.sample_id)
                for i, r in enumerate(records):
                    clip = synth.burst_clip(rng, 500.0, 1.0, sr=(44100, 48000)[i % 2])
                    with open(out + "/" + r.audio_path, "wb") as fh:
                        fh.write(encode_wav(clip))
                manifest = ["--manifest", out + "/manifest.csv"]
                assert cli.main(["extract", *manifest, "--out", out + "/f.csv"]) == 0
                assert cli.main(["evaluate", *manifest, "--task", "2", "--augment",
                                 "--report", out + "/r.json"]) == 0
                assert cli.main(["sweep", *manifest, "--task", "1", "--embeddings",
                                 out + "/e.csv", "--out", out + "/s.csv"]) == 0
                assert cli.main(["train", *manifest, "--task", "1",
                                 "--out", out + "/m.json"]) == 0
            print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """
        assert run_python(code).split() == ["[]"]
        with open(tmp_path / "f.csv") as fh:
            assert len(list(csv.reader(fh))) == 1 + 18 * 2  # header, two per user
        with open(tmp_path / "f.skipped.csv") as fh:
            assert len(list(csv.reader(fh))) == 1
        with open(tmp_path / "s.csv") as fh:
            assert len(list(csv.reader(fh))) == 1 + 60
        assert (tmp_path / "m.json").is_file()

    def test_importing_the_cli_loads_no_scipy(self):
        code = """
            import sys
            import respscreen.cli
            print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """
        assert run_python(code).split() == ["[]"]

    def test_missing_manifest_is_io_error(self, tmp_path):
        assert main(["extract", "--manifest", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o.csv")]) == EXIT_IO

    def test_short_manifest_row_is_schema_error(self, tmp_path, capsys):
        manifest = tmp_path / "m.csv"
        manifest.write_text(MANIFEST_HEADER + "s1,u1,cough\n")
        assert main(["extract", "--manifest", str(manifest),
                     "--out", str(tmp_path / "o.csv")]) == EXIT_IO
        assert "row 2: expected 10 fields, got 3" in capsys.readouterr().err


class TestAugment:
    def test_writes_six_per_recording(self, cohort_dir, tmp_path):
        out_dir = tmp_path / "aug"
        assert main(["augment", "--manifest", str(cohort_dir / "manifest.csv"),
                     "--out-dir", str(out_dir), "--seed", "1"]) == EXIT_OK
        with open(out_dir / "provenance.csv") as fh:
            rows = list(csv.DictReader(fh))
        n_recordings = len({r["parent_id"] for r in rows})
        assert len(rows) == 6 * n_recordings
        assert {r["method"] for r in rows} == {"amplify", "noise", "pitch_speed"}
        assert len(list(out_dir.glob("*.wav"))) == len(rows)

    def test_augments_the_evaluated_segment(self, tmp_path):
        # 44.1 kHz with 0.5 s of leading digital silence: evaluation resamples
        # and trims it, so augmenting the raw recording would differ
        rng = np.random.default_rng(3)
        sr = 44100
        burst = 0.5 * np.sin(2 * np.pi * 440 * np.arange(sr) / sr) * rng.uniform(0.5, 1, sr)
        clip = AudioSegment(np.concatenate([np.zeros(sr // 2), burst]), sr)
        (tmp_path / "s1.wav").write_bytes(encode_wav(clip))
        (tmp_path / "manifest.csv").write_text(MANIFEST_HEADER + "s1,u1,cough,s1.wav,false,,,never,GR,t0\n")
        out_dir = tmp_path / "aug"
        assert main(["augment", "--manifest", str(tmp_path / "manifest.csv"),
                     "--out-dir", str(out_dir), "--seed", "1"]) == EXIT_OK
        [record] = load_manifest(tmp_path / "manifest.csv")
        seg = evaluate.FeatureStore(tmp_path).segment(record)
        assert seg.sample_rate == 22050 and seg.duration < 1.5
        for variant in augment_six(seg, "s1", 1):
            wav = out_dir / f"s1_{variant.method}{variant.copy_index}.wav"
            assert wav.read_bytes() == encode_wav(variant.segment)

    def test_deterministic(self, cohort_dir, tmp_path):
        digests = []
        for sub in ("x", "y"):
            out_dir = tmp_path / sub
            assert main(["augment", "--manifest", str(cohort_dir / "manifest.csv"),
                         "--out-dir", str(out_dir), "--seed", "2"]) == EXIT_OK
            digests.append({p.name: p.read_bytes() for p in out_dir.iterdir()})
        assert digests[0] == digests[1]


class TestTrain:
    def test_writes_loadable_model(self, cohort_dir, tmp_path):
        out = tmp_path / "model.json"
        assert main(["train", "--manifest", str(cohort_dir / "manifest.csv"),
                     "--task", "1", "--out", str(out)]) == EXIT_OK
        pipeline = load_pipeline(out)
        assert pipeline.classifier.kind == "lr"
        assert pipeline.pca.k >= 1

    def test_fits_on_the_cohort_matrix(self, cohort_dir, tmp_path, monkeypatch):
        cohorts, fitted = [], []
        build, fit = evaluate.build_cohort, evaluate.fit_pipelines
        monkeypatch.setattr(evaluate, "build_cohort",
                            lambda *args: cohorts.append(build(*args)) or cohorts[-1])

        def spy(X, y, slices, *args):
            fitted.append((X, y, slices))
            return fit(X, y, slices, *args)

        monkeypatch.setattr(evaluate, "fit_pipelines", spy)  # the refit
        assert main(["train", "--manifest", str(cohort_dir / "manifest.csv"),
                     "--task", "2", "--out", str(tmp_path / "m.json")]) == EXIT_OK
        [cohort] = cohorts
        X, y, [(rows, _)] = fitted[-1]
        assert X is cohort.X and y is cohort.y
        assert np.array_equal(rows, np.arange(len(cohort.y)))

    @pytest.mark.parametrize("task", [1, 2])  # LR, SVM
    def test_model_file_is_grid_search_then_refit(self, cohort_dir, tmp_path, task):
        out = tmp_path / "m.json"
        assert main(["train", "--manifest", str(cohort_dir / "manifest.csv"),
                     "--task", str(task), "--out", str(out)]) == EXIT_OK
        # the reference: model selection, then the refit, on the one cohort slice
        config = evaluate.RunConfig(task_id=task)
        cohort = evaluate.build_cohort(load_manifest(cohort_dir / "manifest.csv"), config,
                                       evaluate.FeatureStore(cohort_dir))
        users = [u.user_id for u in cohort.units]
        kind, rows = config.classifier_kind, np.arange(len(cohort.y))
        search = model.plan_search(cohort.X, cohort.y, users, [(rows, config.seed)],
                                   [config.pca_cutoff])
        [[[params]]] = model.grid_search([search], kind)
        [[pipeline]] = model.fit_pipelines(cohort.X, cohort.y,
                                           [(rows, [(config.pca_cutoff, params)])], kind)
        assert out.read_text() == json.dumps(model.pipeline_to_dict(pipeline))

    def test_no_inner_fold_with_both_classes_exit_code(self, tmp_path, capsys):
        # one positive user: every inner fold of model selection lacks a class
        d = tmp_path / "c"
        assert main(["synth-manifest", "--out", str(d), "--seed", "3",
                     "--covid-users", "1", "--healthy-users", "4",
                     "--cough-users", "0", "--asthma-users", "0",
                     "--clip-seconds", "1"]) == EXIT_OK
        code = main(["train", "--manifest", str(d / "manifest.csv"), "--task", "1",
                     "--out", str(tmp_path / "m.json")])
        assert code == EXIT_EMPTY_COHORT
        assert "no inner fold had both classes" in capsys.readouterr().err

    def test_embedding_features_without_file(self, cohort_dir, tmp_path):
        code = main(["train", "--manifest", str(cohort_dir / "manifest.csv"),
                     "--task", "1", "--feature-type", "vggish",
                     "--out", str(tmp_path / "m.json")])
        assert code == EXIT_CONFIG

    def test_error_message_names_flag(self, cohort_dir, tmp_path, capsys):
        main(["train", "--manifest", str(cohort_dir / "manifest.csv"),
              "--task", "1", "--feature-type", "vggish",
              "--out", str(tmp_path / "m.json")])
        assert "--embeddings" in capsys.readouterr().err


class TestEvaluate:
    def test_report_and_stdout(self, cohort_dir, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert main(["evaluate", "--manifest", str(cohort_dir / "manifest.csv"),
                     "--task", "1", "--report", str(report)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "auc" in out and "(" in out
        data = json.loads(report.read_text())
        assert len(data["folds"]) == 10
        assert set(data["aggregate"]) == {"auc", "precision", "recall"}

    def test_rerun_byte_identical(self, cohort_dir, tmp_path):
        blobs = []
        for name in ("r1.json", "r2.json"):
            path = tmp_path / name
            assert main(["evaluate", "--manifest", str(cohort_dir / "manifest.csv"),
                         "--task", "1", "--seed", "4",
                         "--report", str(path)]) == EXIT_OK
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_augment_task1_rejected(self, cohort_dir, tmp_path):
        code = main(["evaluate", "--manifest", str(cohort_dir / "manifest.csv"),
                     "--task", "1", "--augment",
                     "--report", str(tmp_path / "r.json")])
        assert code == EXIT_CONFIG

    def test_empty_cohort_exit_code(self, tmp_path):
        # a manifest whose rows never satisfy task 3 (no asthma history)
        d = tmp_path / "c"
        assert main(["synth-manifest", "--out", str(d), "--seed", "1",
                     "--covid-users", "3", "--healthy-users", "3",
                     "--cough-users", "2", "--asthma-users", "0",
                     "--clip-seconds", "0.5"]) == EXIT_OK
        code = main(["evaluate", "--manifest", str(d / "manifest.csv"),
                     "--task", "3", "--report", str(tmp_path / "r.json")])
        assert code == EXIT_EMPTY_COHORT


class TestUnusableRecordings:
    """A silent or too-short recording drops its unit, as `extract` drops it."""

    @pytest.fixture(scope="class")
    def damaged(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("damaged")
        assert main(["synth-manifest", "--out", str(d), "--seed", "1",
                     "--covid-users", "6", "--healthy-users", "6",
                     "--cough-users", "0", "--asthma-users", "0",
                     "--clip-seconds", "0.5"]) == EXIT_OK
        coughs = sorted((r for r in load_manifest(d / "manifest.csv") if r.modality == "cough"),
                        key=lambda r: r.sample_id)
        silent = next(r for r in coughs if r.covid_tested_positive)
        short = next(r for r in coughs if not r.covid_tested_positive)
        (d / silent.audio_path).write_bytes(encode_wav(AudioSegment(np.zeros(11025), 22050)))
        noise = np.random.default_rng(0).uniform(-0.5, 0.5, 2000)
        (d / short.audio_path).write_bytes(encode_wav(AudioSegment(noise, 22050)))
        extracted = d / "features.csv"
        assert main(["extract", "--manifest", str(d / "manifest.csv"),
                     "--out", str(extracted)]) == EXIT_OK
        with open(extracted.with_suffix(".skipped.csv")) as fh:
            extract_skips = list(csv.reader(fh))[1:]
        assert sorted(reason.split(":")[0] for _, reason in extract_skips) == [
            "SilentSample", "TooShort"]
        return d, extract_skips

    def test_evaluate_reports_skipped_units(self, damaged, tmp_path):
        d, extract_skips = damaged
        report = tmp_path / "r.json"
        assert main(["evaluate", "--manifest", str(d / "manifest.csv"), "--task", "1",
                     "--report", str(report)]) == EXIT_OK
        assert sorted(json.loads(report.read_text())["skipped"]) == sorted(extract_skips)

    def test_train_counts_skipped_units(self, damaged, tmp_path, capsys):
        d, _ = damaged
        assert main(["train", "--manifest", str(d / "manifest.csv"), "--task", "1",
                     "--out", str(tmp_path / "m.json")]) == EXIT_OK
        assert "2 skipped" in capsys.readouterr().out

    def test_augment_skips_silent_recordings(self, damaged, tmp_path, capsys):
        d, extract_skips = damaged
        out_dir = tmp_path / "aug"
        assert main(["augment", "--manifest", str(d / "manifest.csv"),
                     "--out-dir", str(out_dir)]) == EXIT_OK
        assert "2 skipped" in capsys.readouterr().out
        with open(out_dir / "provenance.skipped.csv") as fh:
            skips = list(csv.reader(fh))
        assert skips == [["sample_id", "reason"], *extract_skips]
        with open(out_dir / "provenance.csv") as fh:
            parents = {row["parent_id"] for row in csv.DictReader(fh)}
        ids = {r.sample_id for r in load_manifest(d / "manifest.csv")}
        assert parents == ids - {sample_id for sample_id, _ in extract_skips}

    def test_augment_skips_too_short_recordings(self, damaged, tmp_path):
        d, extract_skips = damaged
        [(short, reason)] = [row for row in extract_skips if row[1].startswith("TooShort")]
        out_dir = tmp_path / "aug"
        assert main(["augment", "--manifest", str(d / "manifest.csv"),
                     "--out-dir", str(out_dir)]) == EXIT_OK
        assert not list(out_dir.glob(f"{short}_*.wav"))
        with open(out_dir / "provenance.skipped.csv") as fh:
            assert [short, reason] in list(csv.reader(fh))


class TestCorruptRecording:
    """A WAV that cannot be decoded is skipped with its reason, like a silent one."""

    @pytest.fixture(scope="class")
    def corrupt(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("corrupt")
        assert main(["synth-manifest", "--out", str(d), "--seed", "2",
                     "--covid-users", "6", "--healthy-users", "6",
                     "--cough-users", "0", "--asthma-users", "0",
                     "--clip-seconds", "0.5"]) == EXIT_OK
        records = load_manifest(d / "manifest.csv")
        bad = min((r for r in records if r.modality == "cough" and not r.covid_tested_positive),
                  key=lambda r: r.sample_id)
        (d / bad.audio_path).write_bytes(b"RIFFxxxxWAVEjunk")
        return d, bad

    def test_every_command_skips_it(self, corrupt, tmp_path, capsys):
        d, bad = corrupt
        manifest = str(d / "manifest.csv")
        features_csv = tmp_path / "f.csv"
        assert main(["extract", "--manifest", manifest, "--out", str(features_csv)]) == EXIT_OK
        with open(features_csv.with_suffix(".skipped.csv")) as fh:
            [(sample_id, reason)] = list(csv.reader(fh))[1:]
        assert sample_id == bad.sample_id and reason.startswith("MalformedWav: ")
        report = tmp_path / "r.json"
        assert main(["evaluate", "--manifest", manifest, "--task", "1",
                     "--report", str(report)]) == EXIT_OK
        assert json.loads(report.read_text())["skipped"] == [[bad.sample_id, reason]]
        capsys.readouterr()
        assert main(["train", "--manifest", manifest, "--task", "1",
                     "--out", str(tmp_path / "m.json")]) == EXIT_OK
        assert "1 skipped" in capsys.readouterr().out

    def test_missing_recording_is_io_error(self, corrupt, tmp_path):
        d, bad = corrupt
        manifest = d / "missing.csv"  # beside the cohort's audio, one row pointing nowhere
        text = (d / "manifest.csv").read_text()
        manifest.write_text(text.replace(bad.audio_path, "audio/absent.wav"))
        assert main(["extract", "--manifest", str(manifest),
                     "--out", str(tmp_path / "f.csv")]) == EXIT_IO


class TestConfigFile:
    def test_config_supplies_defaults_but_flags_win(self, cohort_dir, tmp_path,
                                                    monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 11, "task": 1}))
        monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg))
        r1, r2, r3 = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
        manifest = str(cohort_dir / "manifest.csv")
        # config seed applies
        assert main(["evaluate", "--manifest", manifest, "--task", "1",
                     "--report", str(r1)]) == EXIT_OK
        assert main(["evaluate", "--manifest", manifest, "--task", "1",
                     "--seed", "11", "--report", str(r2)]) == EXIT_OK
        assert r1.read_bytes() == r2.read_bytes()
        # explicit flag beats the config value
        assert main(["evaluate", "--manifest", manifest, "--task", "1",
                     "--seed", "0", "--report", str(r3)]) == EXIT_OK
        assert r1.read_bytes() != r3.read_bytes()

    @staticmethod
    def _parsed_args(monkeypatch, tmp_path, config, argv):
        """The namespace a subcommand receives for `argv` under `config`."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg))
        seen = []
        monkeypatch.setattr(cli, f"cmd_{argv[0]}", lambda args: seen.append(args) or EXIT_OK)
        assert main(argv) == EXIT_OK
        return seen[0]

    def test_equals_form_flag_beats_config(self, monkeypatch, tmp_path):
        args = self._parsed_args(monkeypatch, tmp_path, {"seed": 7},
                                 ["augment", "--manifest", "m.csv", "--out-dir", "o", "--seed=2"])
        assert args.seed == 2

    def test_config_values_get_the_flag_type(self, monkeypatch, tmp_path):
        args = self._parsed_args(monkeypatch, tmp_path, {"jobs": "2"},
                                 ["extract", "--manifest", "m.csv", "--out", "f.csv"])
        assert args.jobs == 2

    @pytest.mark.parametrize("argv", [
        ["extract", "--manifest", "m.csv", "--out", "f.csv", "--job", "2"],
        ["evaluate", "--manifest", "m.csv", "--task", "1", "--report", "r.json",
         "--feat", "vggish"],
        ["--conf", "c.json", "extract", "--manifest", "m.csv", "--out", "f.csv"],
    ], ids=["job", "feat", "conf"])
    def test_flag_prefixes_are_rejected(self, argv):
        """A flag is spelled out in full, as a config key must be: `--job`
        is not `--jobs`, just as {"job": 2} is an unknown key."""
        with pytest.raises(SystemExit) as exc:  # argparse's usage error
            main(argv)
        assert exc.value.code == 2

    def test_unknown_key_exits_config(self, cohort_dir, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sede": 3}))
        monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg))
        out = tmp_path / "f.csv"
        assert main(["extract", "--manifest", str(cohort_dir / "manifest.csv"),
                     "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    def test_jobs_below_one_exits_config(self, cohort_dir, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"jobs": 0}))
        monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg))
        out = tmp_path / "f.csv"
        assert main(["extract", "--manifest", str(cohort_dir / "manifest.csv"),
                     "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("text", ["{not json", "[1]"])
    def test_malformed_config_exits_config(self, cohort_dir, tmp_path, text):
        cfg = tmp_path / "bad.json"
        cfg.write_text(text)
        out = tmp_path / "f.csv"
        assert main(["--config", str(cfg), "extract", "--manifest",
                     str(cohort_dir / "manifest.csv"), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()


class TestSweepCommand:
    def test_sixty_rows(self, cohort_dir, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--manifest", str(cohort_dir / "manifest.csv"),
                     "--task", "1", "--out", str(out)]) == EXIT_OK
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 60
        assert sum(1 for r in rows if r["status"] == "skipped") == 48


class TestReadme:
    @staticmethod
    def commands() -> list[list[str]]:
        """argv of every `respscreen ...` line in the README's shell blocks,
        with backslash continuations joined."""
        text = README.read_text(encoding="utf-8")
        lines = "\n".join(re.findall(r"```sh\n(.*?)```", text, re.S)).replace("\\\n", " ")
        return [shlex.split(line, comments=True)[1:]
                for line in lines.splitlines() if line.startswith("respscreen ")]

    def test_every_command_parses(self):
        parser = cli.build_parser()
        parsed = []
        for argv in self.commands():
            try:
                parsed.append(parser.parse_args(argv))
            except SystemExit:
                pytest.fail(f"README command does not parse: respscreen {shlex.join(argv)}")
        assert {args.command for args in parsed} == {
            "synth-manifest", "extract", "augment", "train", "evaluate", "sweep"}
        # the recipes: a sweep cohort with embeddings, an augmented run, a null cohort
        assert any(args.command == "synth-manifest" and args.embeddings_out for args in parsed)
        assert any(args.command == "evaluate" and args.augment for args in parsed)
        assert any(args.command == "synth-manifest" and args.scramble for args in parsed)

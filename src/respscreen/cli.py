"""Command-line entry point.

Subcommands: synth-manifest, extract, augment, train, evaluate, sweep.
Exit codes: 0 success, 2 I/O failure, 3 empty or too small cohort, 4 config error.
Defaults may come from a JSON config file (--config or $RESPSCREEN_CONFIG);
explicit flags always win, and a key that no subcommand has exits 4.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import augment as aug
from . import dataset, evaluate, features, model, synth
from .audio_io import TARGET_SAMPLE_RATE, decode_wav, encode_wav, resample, trim_silence
from .embeddings import load_embeddings
from .errors import (
    UNUSABLE_RECORDING,
    ConfigError,
    EmptyCohort,
    RespScreenError,
    SingleClass,
    TooFewUsers,
    skip_reason,
)
from .util import csv_text, format_float, write_bytes_atomic, write_text_atomic

EXIT_OK = 0
EXIT_IO = 2
EXIT_EMPTY_COHORT = 3
EXIT_CONFIG = 4

CONFIG_ENV_VAR = "RESPSCREEN_CONFIG"

# Header of the skip CSV written beside an output: one (sample_id,
# "Type: message") row per recording left out as unusable.
SKIP_HEADER = ("sample_id", "reason")


def _load_config_defaults(path: str | None) -> dict:
    path = path or os.environ.get(CONFIG_ENV_VAR)
    if not path:
        return {}
    with open(path, encoding="utf-8") as fh:
        try:
            config = json.load(fh)
        except ValueError as exc:  # malformed JSON or undecodable bytes
            raise ConfigError(f"config: {path} is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise ConfigError(f"config: {path} must hold a JSON object")
    return config


def _extract_one(args):
    sample_id, wav_path = args
    try:
        seg = trim_silence(resample(decode_wav(Path(wav_path).read_bytes()), TARGET_SAMPLE_RATE))
        return sample_id, features.extract_handcrafted(seg), None
    except UNUSABLE_RECORDING as exc:
        return sample_id, None, skip_reason(exc)


def cmd_synth_manifest(args) -> int:
    spec = synth.CohortSpec(
        n_covid=args.covid_users,
        n_healthy=args.healthy_users,
        n_cough=args.cough_users,
        n_asthma=args.asthma_users,
        clip_seconds=args.clip_seconds,
        informative=not args.scramble,
    )
    manifest = synth.generate_cohort(args.out, args.seed, spec)
    if args.embeddings_out:
        records = dataset.load_manifest(manifest)
        synth.generate_embeddings(records, args.embeddings_out, args.seed)
    print(f"wrote {manifest}")
    return EXIT_OK


def cmd_extract(args) -> int:
    records = dataset.load_manifest(args.manifest)
    base = Path(args.manifest).parent
    jobs = [(f"{r.sample_id}", base / r.audio_path) for r in sorted(records, key=lambda r: r.sample_id)]

    workers = min(args.jobs, len(jobs))  # a pool forks all its workers up front
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_extract_one, jobs))
    else:
        results = [_extract_one(j) for j in jobs]

    rows, skipped = [], []
    for sample_id, values, reason in results:
        if values is None:
            skipped.append((sample_id, reason))
        else:
            rows.append([sample_id, *[format_float(v) for v in values]])
    write_text_atomic(args.out, csv_text(["sample_id", *features.FEATURE_NAMES], rows))
    write_text_atomic(Path(args.out).with_suffix(".skipped.csv"), csv_text(SKIP_HEADER, skipped))
    print(f"wrote {args.out} ({len(rows)} rows, {len(skipped)} skipped)")
    return EXIT_OK


def cmd_augment(args) -> int:
    records = dataset.load_manifest(args.manifest)
    has_split = any(r.split for r in records)
    base = Path(args.manifest).parent
    out_dir = Path(args.out_dir)

    rows, skipped = [], []
    for r in sorted(records, key=lambda r: r.sample_id):
        if has_split and r.split != "train":
            continue  # augmentation is training-only by protocol
        try:
            seg = evaluate.load_segment(base / r.audio_path)  # the segment evaluation augments
        except UNUSABLE_RECORDING as exc:
            skipped.append((r.sample_id, skip_reason(exc)))
            continue
        for variant in aug.augment_six(seg, r.sample_id, args.seed):
            aug_id = f"{r.sample_id}_{variant.method}{variant.copy_index}"
            write_bytes_atomic(out_dir / f"{aug_id}.wav", encode_wav(variant.segment))
            rows.append(
                [
                    aug_id,
                    r.sample_id,
                    variant.method,
                    format_float(variant.parameter),
                    aug.derive_seed(args.seed, r.sample_id, variant.method, variant.copy_index),
                ]
            )

    provenance = out_dir / "provenance.csv"
    write_text_atomic(provenance,
                      csv_text(["sample_id", "parent_id", "method", "parameter", "seed"], rows))
    write_text_atomic(provenance.with_suffix(".skipped.csv"), csv_text(SKIP_HEADER, skipped))
    print(f"wrote {len(rows)} augmented recordings under {out_dir} ({len(skipped)} skipped)")
    return EXIT_OK


def _run_config_from_args(args) -> evaluate.RunConfig:
    return evaluate.RunConfig(
        task_id=args.task,
        modality=args.modality,
        feature_type=args.feature_type,
        pca_cutoff=args.pca_cutoff,
        augment=args.augment,
        seed=args.seed,
        classifier=args.classifier,
    )


def _load_inputs(args):
    records = dataset.load_manifest(args.manifest)
    base = Path(args.manifest).parent
    embeddings = load_embeddings(args.embeddings) if args.embeddings else None
    return records, base, embeddings


def cmd_train(args) -> int:
    config = _run_config_from_args(args)
    records, base, embeddings = _load_inputs(args)
    cohort = evaluate.build_cohort(records, config, evaluate.FeatureStore(base, embeddings))
    [[(params, pipeline)]] = evaluate.select_and_fit(
        cohort.X, cohort.y, cohort.users, [(np.arange(len(cohort.y)), config.seed)],
        config.classifier_kind, [config.pca_cutoff])
    model.save_pipeline(pipeline, args.out)
    print(f"wrote {args.out} ({pipeline.classifier.kind}, params {params}, "
          f"pca_k {pipeline.pca.k}, {len(cohort.skipped)} skipped)")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    config = _run_config_from_args(args)
    records, base, embeddings = _load_inputs(args)
    report = evaluate.run_nested_cv(records, config, store=evaluate.FeatureStore(base, embeddings))
    evaluate.save_report(report, args.report)
    agg = report.aggregate
    print(f"task {config.task_id}  modality {config.modality}  features {config.feature_type}  "
          f"pca {config.pca_cutoff}")
    print("metric     mean (std)")
    for metric in evaluate.METRICS:
        m = agg[metric]
        print(f"{metric:<10} {m['mean']:.2f} ({m['std']:.2f})")
    return EXIT_OK


def cmd_sweep(args) -> int:
    records, base, embeddings = _load_inputs(args)
    rows = evaluate.sweep(records, args.task, args.seed, base_dir=base, embeddings=embeddings)
    evaluate.save_sweep(rows, args.out)
    ok = sum(1 for r in rows if r.status == "ok")
    print(f"wrote {args.out} ({len(rows)} cells, {ok} ok)")
    return EXIT_OK


def positive_int(text: str) -> int:
    """argparse type of a count that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def non_negative_int(text: str) -> int:
    """argparse type of a count that may be 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def clip_seconds(text: str) -> float:
    """argparse type of a finite synthetic clip length of at least one sample."""
    value = float(text)
    samples = value * synth.SAMPLE_RATE  # as many as `synth.burst_clip` takes
    if not (samples < math.inf and int(samples) >= 1):
        raise argparse.ArgumentTypeError(
            f"must be a finite length of at least one sample ({1 / synth.SAMPLE_RATE:.3g} s), "
            f"got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    # no prefix matching: a flag is spelled out in full, as a config key is
    make_parser = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    parser = make_parser(prog="respscreen")
    parser.add_argument("--config", help="JSON file with flag defaults "
                        f"(or ${CONFIG_ENV_VAR}); explicit flags win")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=make_parser)

    p = sub.add_parser("synth-manifest", help="generate a synthetic cohort")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--covid-users", type=non_negative_int, default=12)
    p.add_argument("--healthy-users", type=non_negative_int, default=12)
    p.add_argument("--cough-users", type=non_negative_int, default=8)
    p.add_argument("--asthma-users", type=non_negative_int, default=8)
    p.add_argument("--clip-seconds", type=clip_seconds, default=2.0)
    p.add_argument("--scramble", action="store_true",
                   help="make audio uninformative of the label")
    p.add_argument("--embeddings-out", help="also write synthetic embedding frames")
    p.set_defaults(func=cmd_synth_manifest)

    p = sub.add_parser("extract", help="handcrafted feature CSV from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=positive_int, default=1)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("augment", help="write six augmented WAVs per recording")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.set_defaults(func=cmd_augment)

    def add_run_flags(p, with_augment=True):
        p.add_argument("--manifest", required=True)
        p.add_argument("--task", type=int, required=True, choices=(1, 2, 3))
        p.add_argument("--modality", default="cough", choices=evaluate.MODALITY_CHOICES)
        p.add_argument("--feature-type", default="handcrafted", choices=evaluate.FEATURE_TYPES)
        p.add_argument("--pca-cutoff", type=float, default=0.95, choices=model.PCA_CUTOFFS)
        p.add_argument("--seed", type=non_negative_int, default=0)
        p.add_argument("--classifier", choices=("lr", "svm-rbf"))
        p.add_argument("--embeddings")
        if with_augment:
            p.add_argument("--augment", action="store_true")

    p = sub.add_parser("train", help="fit one pipeline on the whole cohort")
    add_run_flags(p, with_augment=False)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train, augment=False)

    p = sub.add_parser("evaluate", help="nested cross-validation report")
    add_run_flags(p)
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="modality x cutoff x feature-type sweep CSV")
    p.add_argument("--manifest", required=True)
    p.add_argument("--task", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--embeddings")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    return parser


def _parse_with_config(parser, argv, command: str, config: dict) -> argparse.Namespace:
    """Re-parse `argv` with `config` as the subcommand's defaults.

    argparse then resolves precedence (an explicit flag in any form wins)
    and converts each value with its flag's type. A key that no subcommand
    has is an error; a key of another subcommand is ignored.
    """
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {cmd: {a.dest: a for a in p._actions if a.dest != "help"}
             for cmd, p in subparsers.choices.items()}
    defaults = {}
    for key, value in config.items():
        dest = key.replace("-", "_")
        if not any(dest in f for f in flags.values()):
            raise ConfigError(f"config: unknown key {key!r}")
        action = flags[command].get(dest)
        if action is None:
            continue
        if action.nargs == 0:  # an on/off flag such as --augment
            if not isinstance(value, bool):
                raise ConfigError(f"config: {key!r} must be true or false")
            defaults[dest] = value
        elif isinstance(value, (str, int, float)) and not isinstance(value, bool):
            defaults[dest] = str(value)  # argparse applies the flag's type to str defaults
        else:
            raise ConfigError(f"config: {key!r} must be a string or a number")
    subparsers.choices[command].set_defaults(**defaults)
    try:
        return parser.parse_args(argv)
    except SystemExit:  # argparse has printed which value it rejected
        raise ConfigError("config: invalid value") from None


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config_defaults(args.config)
        if config:
            args = _parse_with_config(parser, argv, args.command, config)
        return args.func(args)
    except (EmptyCohort, TooFewUsers, SingleClass) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY_COHORT
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, RespScreenError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

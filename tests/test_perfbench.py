"""The benchmark's traced run must still find every function it wraps.

`perfbench/run.py --trace 1` fails a workload whose listed binding is not
bound to a wrapped function, or is wrapped but never called. The first test
is the static half of that check and the others run a job traced, so a
refactor that renames, folds away or stops calling a traced binding fails
here first.
"""

import pytest

from perfbench.tracing import Tracer
from perfbench.workloads import NESTED_CV_BINDINGS, WORKLOADS
from respscreen import cli, dataset, embeddings, evaluate, synth

# Called by a workload's set-up, not by its job.
SETUP_BINDINGS = ("synth.generate_cohort", "synth.generate_embeddings", "dataset.load_manifest",
                  "embeddings.load_embeddings")


@pytest.fixture(scope="module")
def task2_cohort(tmp_path_factory):
    """Six covid and six cough users with 1 s clips, the evaluate-augment
    workload's users at shorter clips."""
    d = tmp_path_factory.mktemp("traced")
    spec = synth.CohortSpec(n_covid=6, n_healthy=0, n_cough=6, n_asthma=0, clip_seconds=1.0)
    manifest = synth.generate_cohort(d, seed=2, spec=spec)
    return manifest, dataset.load_manifest(manifest)


@pytest.fixture(scope="module")
def task1_cohort(tmp_path_factory):
    """Six covid and six healthy users with 1 s clips and synthetic
    embeddings, the sweep-embed workload's inputs."""
    d = tmp_path_factory.mktemp("traced-sweep")
    spec = synth.CohortSpec(n_covid=6, n_healthy=6, n_cough=0, n_asthma=0, clip_seconds=1.0)
    records = dataset.load_manifest(synth.generate_cohort(d, seed=3, spec=spec))
    emb = embeddings.load_embeddings(synth.generate_embeddings(records, d / "emb.csv", seed=3))
    return d, records, emb


def job_bindings(workload: str) -> list[str]:
    return [b for b in WORKLOADS[workload].bindings if b not in SETUP_BINDINGS]


def test_every_workload_binding_is_bound():
    bound = {b for bindings in Tracer().bindings.values() for b in bindings}
    missing = {name: sorted(set(w.bindings) - bound) for name, w in WORKLOADS.items()}
    assert missing == {name: [] for name in WORKLOADS}


def test_nested_cv_calls_every_traced_binding(cohort):
    # A binding can stay bound and yet see no call, when the call moved
    # behind another module's name; only a traced run shows that.
    d, _, records = cohort
    tracer = Tracer()
    with tracer.recording("nested-cv"):
        evaluate.run_nested_cv(records, evaluate.RunConfig(task_id=1), base_dir=d)
    assert tracer.coverage_problems(NESTED_CV_BINDINGS) == []


def test_sweep_calls_every_traced_binding(task1_cohort):
    d, records, emb = task1_cohort
    tracer = Tracer()
    with tracer.recording("sweep-embed"):
        evaluate.sweep(records, 1, 0, base_dir=d, embeddings=emb)
    assert tracer.coverage_problems(job_bindings("sweep-embed")) == []


def test_augmented_nested_cv_calls_every_traced_binding(task2_cohort):
    manifest, records = task2_cohort
    tracer = Tracer()
    with tracer.recording("evaluate-augment"):
        evaluate.run_nested_cv(records, evaluate.RunConfig(task_id=2, augment=True),
                               base_dir=manifest.parent)
    assert tracer.coverage_problems(job_bindings("evaluate-augment")) == []


def test_extract_calls_every_traced_binding(task2_cohort, tmp_path):
    manifest, _ = task2_cohort
    tracer = Tracer()
    with tracer.recording("extract-long"):
        code = cli.main(["extract", "--manifest", str(manifest), "--out", str(tmp_path / "f.csv")])
    assert code == cli.EXIT_OK
    assert tracer.coverage_problems(job_bindings("extract-long")) == []

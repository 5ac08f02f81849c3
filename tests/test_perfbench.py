"""The benchmark's traced run must still find every function it wraps.

`perfbench/run.py --trace 1` fails a workload whose listed binding is not
bound to a wrapped function, or is wrapped but never called. The first test
is the static half of that check and the second runs one nested CV traced,
so a refactor that renames, folds away or stops calling a traced binding
fails here first.
"""

from perfbench.tracing import Tracer
from perfbench.workloads import NESTED_CV_BINDINGS, WORKLOADS
from respscreen import evaluate


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

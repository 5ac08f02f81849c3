"""The benchmark's traced run must still find every function it wraps.

`perfbench/run.py --trace 1` fails a workload whose listed binding is not
bound to a wrapped function; this is the static half of that check, so a
refactor that renames or folds away a traced binding fails here first.
"""

from perfbench.tracing import Tracer
from perfbench.workloads import WORKLOADS


def test_every_workload_binding_is_bound():
    bound = {b for bindings in Tracer().bindings.values() for b in bindings}
    missing = {name: sorted(set(w.bindings) - bound) for name, w in WORKLOADS.items()}
    assert missing == {name: [] for name in WORKLOADS}

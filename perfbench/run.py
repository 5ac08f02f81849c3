#!/usr/bin/env python3
"""respscreen benchmark: batch turnaround on three workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload extract-long --seed 0 --seconds 25 --trace 0

Users are researchers running batch jobs, so each workload is a closed
loop with one client: a single process runs one job in-process, waits for
it, then starts the next, until --seconds have passed (and at least two
jobs ran, so every run checks that a rerun is byte-identical). BLAS keeps
its default thread count, which the machine block records.

--trace 0 reports the end-to-end metrics: the median `wall_s` per job,
the median `setup_s` over at least five set-ups (synthesize and write the
cohort, then load the manifest and embeddings), and the process's
`peak_rss_mb`. --trace 1 alternates untraced and traced jobs and reports
the per-layer metrics from perfbench/tracing.py, including the tracing
overhead (traced minus untraced wall time). The last line of standard
output is one JSON object; the lines before it are a readable summary.
Run records and spans go to perfbench/.work/.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
# Set up at least this many times, and until this much time has passed:
# a set-up of tens of milliseconds needs many samples for a steady median.
MIN_SETUPS = 5
SETUP_SECONDS = 2.0
MIN_JOBS = 2
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def import_program():
    """Import respscreen from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "respscreen" / "__init__.py").is_file():
        sys.exit(f"perfbench: no respscreen sources under {src}")
    sys.path.insert(0, str(src))
    import respscreen

    if Path(respscreen.__file__).resolve().parent != (src / "respscreen").resolve():
        sys.exit(f"perfbench: imported respscreen from {respscreen.__file__}, not {src}")


def machine() -> dict:
    import numpy as np
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": None,
        "blas_threads_env": {k: os.environ[k] for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
    }
    # numpy's bundled OpenBLAS answers the thread count it actually uses
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for suffix in ("64_", ""):
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            if get is not None:
                get.restype = ctypes.c_int
                get.argtypes = []
                info["blas_threads"] = get()
                config = getattr(lib, f"scipy_openblas_get_config{suffix}")
                config.restype = ctypes.c_char_p
                config.argtypes = []
                info["blas_config"] = config().decode()
                break
    return info


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Runner:
    """Runs set-ups and jobs of one workload and checks every output."""

    def __init__(self, workload, seed: int, scratch: Path):
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.reference: dict[str, bytes] | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def setup(self, index: int):
        root = self.scratch / f"setup{index}"
        t0 = time.perf_counter()
        inputs = self.workload.setup(self.seed, root)
        return inputs, time.perf_counter() - t0

    def job(self, inputs) -> tuple[float, float]:
        """One job; returns (wall seconds, CPU seconds). Failures are counted."""
        out_dir = self.scratch / "out"
        out_dir.mkdir(exist_ok=True)
        self.attempted += 1
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        try:
            outputs = self.workload.job(inputs, out_dir)
        except Exception as exc:  # a failed job is a measured outcome
            wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
            self._fail([f"job raised {type(exc).__name__}: {exc}"])
            return wall, cpu
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
        problems = self.workload.check(outputs, inputs, self.seed)
        if self.reference is None:
            self.reference = outputs
        elif outputs != self.reference:
            problems.append("outputs differ from the first job's on the same inputs")
        self._fail(problems)
        return wall, cpu

    def _fail(self, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.problems += [f"job {self.attempted}: {p}" for p in problems]


def run_untraced(runner: Runner, seconds: float) -> dict:
    setup_times = []
    while len(setup_times) < MIN_SETUPS or sum(setup_times) < SETUP_SECONDS:
        if setup_times:
            shutil.rmtree(inputs.root)
        inputs, elapsed = runner.setup(len(setup_times))
        setup_times.append(elapsed)
    walls = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(walls) < MIN_JOBS:
        walls.append(runner.job(inputs)[0])
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "samples": {"wall_s": walls, "setup_s": setup_times},
        "metrics": {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_mb,
        },
    }


def run_traced(runner: Runner, seconds: float, spans_path: Path) -> dict:
    from tracing import Tracer

    tracer = Tracer()
    with tracer.recording("setup"):
        inputs, _ = runner.setup(0)
    untraced, traced, cpu = [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not traced:
        wall, job_cpu = runner.job(inputs)
        untraced.append(wall)
        cpu.append(job_cpu)
        with tracer.recording(f"job{len(traced)}"):
            traced.append(runner.job(inputs)[0])
    runner.problems += tracer.coverage_problems(runner.workload.bindings)
    tracer.write_spans(spans_path)
    metrics = tracer.per_layer("setup", [f"job{i}" for i in range(len(traced))])
    metrics["process.cpu_s"] = statistics.median(cpu)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return {
        "samples": {"wall_s_untraced": untraced, "wall_s_traced": traced, "cpu_s": cpu},
        "metrics": metrics,
        "bindings": dict(sorted(tracer.binding_calls.items())),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("extract-long", "sweep-embed", "evaluate-augment"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from tracing import SEED_PER_EXTRACTION, per_layer_metric_units
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    units = per_layer_metric_units() if args.trace else END_TO_END_UNITS
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if declared != units:
        sys.exit("perfbench: metrics differ from those BENCHMARK.json declares")
    WORK.mkdir(exist_ok=True)
    tag = f"{args.workload}.seed{args.seed}.trace{args.trace}"
    scratch = Path(tempfile.mkdtemp(prefix=f"{tag}.", dir=WORK))
    tempfile.tempdir = str(scratch)  # keep every temporary file in the checkout
    try:
        runner = Runner(workload, args.seed, scratch)
        if args.trace:
            result = run_traced(runner, args.seconds, WORK / f"{args.workload}.spans.jsonl")
        else:
            result = run_untraced(runner, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "input": workload.size, "machine": machine(),
        "attempted": runner.attempted, "failed": runner.failed, "problems": runner.problems,
        **result,
    }
    (WORK / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: {workload.size}")
    print("machine " + json.dumps(record["machine"]))
    for name, values in result["samples"].items():
        q1, median, q3 = quartiles(values)
        print(f"  {name:<16} median {median:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  n={len(values)}")
    if args.trace:
        m = result["metrics"]
        extractions = m["features.extract_handcrafted.calls"]
        if extractions:
            print("  calls per extraction: " + ", ".join(
                f"{fn} {m[fn + '.calls'] / extractions:g} (seed {n})"
                for fn, n in SEED_PER_EXTRACTION.items()))
        print(f"  {'trace.overhead_s':<16} {m['trace.overhead_s']:.4f} s")
    else:
        print(f"  {'peak_rss_mb':<16} {result['metrics']['peak_rss_mb']:.1f} MB")
    print(f"  {'failed_ratio':<16} {runner.failed}/{runner.attempted} = "
          f"{runner.failed / runner.attempted:g}")
    for problem in runner.problems:
        print(f"  problem: {problem}")
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

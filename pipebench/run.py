"""End-to-end and per-layer benchmark of the admission → faults →
replay → verify chain.

Run from the repository root::

    python3 pipebench/run.py --workload churn-fcfs --seed 1 \\
        --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with
nothing wrapped.  ``--trace 1`` measures half the time untraced and half
traced, prints the per-layer metrics with the tracing overhead, and
writes the spans as a Chrome trace under ``.pipebench/``.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every
correctness check passed.  See ``pipebench/README.md`` for why each
workload and metric exists.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Later performance claims must also hold on this seed, which is not
#: used while tuning a change.
HELD_OUT_SEED = 90017

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

E2E_UNITS = {
    "setup_s": "s", "events_per_s": "1/s", "op_p50_us": "us",
    "op_p99_us": "us", "accept_rate": "ratio",
    "guarantee_retention": "ratio", "pipeline_s": "s",
    "runs_per_s": "1/s", "peak_rss_mb": "MB",
}
TRACE_UNITS = {"trace.overhead_ratio": "ratio", "trace.spans": "count"}


def _fail(message: str, code: int = 2):
    print(f"pipebench: {message}", file=sys.stderr)
    sys.exit(code)


def _load_program():
    """Import the program from ``src/`` of the checkout, or exit."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        _fail(f"no program to measure: {src}/repro is missing")
    sys.path.insert(0, src)
    import workloads
    return workloads


def _source_digest() -> str:
    """sha256 over every program source file, for checkouts without git."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                path = os.path.join(dirpath, filename)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def _git_revision() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(workload: str, seed: int, size: str) -> dict:
    """Seeds, revision, host fingerprint and executor variant."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    from repro.simulation.compiled import numpy_available
    return {
        "workload": workload, "seed": seed, "held_out_seed": HELD_OUT_SEED,
        "size": size, "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        "host": {"python": platform.python_version(),
                 "numpy": numpy_version, "nproc": os.cpu_count(),
                 "platform": platform.platform(),
                 "machine": platform.machine()},
        "executor": "compiled" if numpy_available() else "per-flit",
    }


def _percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(1, math.ceil(len(sorted_values) * q)) - 1]


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def _measure(workload, seconds: float, tracer=None) -> list:
    """Closed-loop passes until ``seconds`` elapsed, in whole cycles."""
    passes = []
    deadline = time.perf_counter() + seconds
    while (not passes or time.perf_counter() < deadline
           or len(passes) % workload.cycle):
        # Every pass starts from the same collector state.
        gc.collect()
        passes.append(workload.run_pass(tracer))
    return passes


def end_to_end(workload, setup_s: list, passes: list) -> dict:
    """The BENCHMARK.json end-to-end metrics from untraced passes."""
    op_s = sorted(t for p in passes for t in p.op_s)
    # A run is one campaign run on campaign-sweep, one pass elsewhere.
    per_run = workload.name == "campaign-sweep"
    return {
        "setup_s": statistics.median(setup_s),
        "events_per_s": statistics.median(p.events / p.loop_s
                                          for p in passes),
        "op_p50_us": _percentile(op_s, 0.50) * 1e6,
        "op_p99_us": _percentile(op_s, 0.99) * 1e6,
        "accept_rate": workload.accept_rate,
        "guarantee_retention": workload.guarantee_retention,
        "pipeline_s": statistics.median(p.wall_s for p in passes),
        "runs_per_s": statistics.median((p.ops if per_run else 1)
                                        / p.wall_s for p in passes),
        "peak_rss_mb": _peak_rss_mb(),
    }


def per_layer(layer_units: dict, untraced: list, traced: list,
              n_spans: int) -> dict:
    """Median per-pass layer metrics plus the tracing overhead."""
    out = {name: statistics.median(p.layers.get(name, 0) for p in traced)
           for name in layer_units}
    untraced_s = statistics.median(p.wall_s for p in untraced)
    traced_s = statistics.median(p.wall_s for p in traced)
    out["trace.overhead_ratio"] = traced_s / untraced_s - 1.0
    out["trace.spans"] = n_spans / len(traced)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"),
                        default="full",
                        help="workload sizes; smoke is for the "
                             "benchmark's own tests")
    parser.add_argument("--inject", choices=("tamper-digest", "diverge"),
                        help="inject a failure the checks must catch")
    args = parser.parse_args(argv)

    workloads = _load_program()
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}")
    info = provenance(args.workload, args.seed, args.size)
    if args.workload == "pipeline-faults" and info["executor"] != "compiled":
        _fail("numpy is missing: pipeline_s is only reported from the "
              "compiled executor", code=3)
    print("provenance " + json.dumps(info, sort_keys=True), flush=True)

    cls = workloads.WORKLOADS[args.workload]
    setup_s: list[float] = []
    references: list = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload = cls(args.seed, args.size, args.inject)
        references.append(workload.setup())
        setup_s.append(time.perf_counter() - start)
    digests = [{k: v for ref in refs for k, v in ref.digests.items()}
               for refs in references]

    if args.trace:
        from tracing import Tracer
        untraced = _measure(workload, args.seconds / 2)
        tracer = Tracer()
        traced = _measure(workload, args.seconds / 2, tracer)
        units = {**cls.layer_units, **TRACE_UNITS}
        metrics = per_layer(cls.layer_units, untraced, traced,
                            len(tracer.spans))
        os.makedirs(".pipebench", exist_ok=True)
        trace_path = os.path.join(
            ".pipebench", f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write_chrome_trace(trace_path, f"pipebench {args.workload}")
        print(f"trace {trace_path} ({len(tracer.spans)} spans)")
        for name, (calls, busy, own) in sorted(tracer.cumulative.items()):
            print(f"span {name} calls {calls} busy_s {busy:.6f} "
                  f"self_s {own:.6f}")
        passes = untraced + traced
    else:
        passes = _measure(workload, args.seconds)
        units = E2E_UNITS
        metrics = end_to_end(workload, setup_s, passes)

    failures = [f for refs in references for ref in refs
                for f in ref.failures]
    if any(d != digests[0] for d in digests):
        failures.append("set-up passes disagree on their outputs")
    attempted = sum(p.ops for p in passes)
    failed = sum(p.ops for p in passes if p.failures)
    failures += [f for p in passes for f in p.failures]
    if failures and not failed:
        failed = 1
    correct = not failures

    print(f"passes {len(passes)}  op samples "
          f"{sum(len(p.op_s) for p in passes)}")
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    print(f"metric error_rate {failed / max(1, attempted):.6g} ratio "
          f"({failed}/{attempted})")
    for name, digest in sorted(digests[-1].items()):
        print(f"digest {name} {digest}")
    for failure in sorted(set(failures))[:20]:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

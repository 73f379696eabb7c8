"""Run the repository benchmark.

One workload (the form a harness calls)::

    python3 perfbench/run.py --workload engine-day --seed 1 --seconds 30 --trace 0

Every workload, each in a fresh interpreter, with a printed report::

    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 1]

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
the end-to-end metrics, with ``--trace 1`` the per-layer metrics.  Each
run's full record, stamped with the run identity, is written under
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import catalogue  # noqa: E402
from perfbench.common import (  # noqa: E402
    DEFAULT_SEED,
    ROOT,
    WORK_DIR,
    Metric,
    WorkloadResult,
    ensure_source_on_path,
    run_identity,
)


def build_arg_parser(spec: dict) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description="repository benchmark")
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(catalogue.WORKLOADS))
    which.add_argument("--all", action="store_true",
                       help="run every workload, each in a fresh interpreter")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def result_metrics(result: WorkloadResult, trace: bool,
                   spec: dict) -> dict[str, Metric]:
    """Exactly the declared metrics for this mode, in declaration order.
    A traced run measures its own layer group only; the other groups'
    names read 0 with 0 samples."""
    if trace:
        return {m["name"]: result.metrics.get(m["name"], Metric(0.0, m["unit"], 0))
                for m in spec["per_layer"]}
    return {m["name"]: result.metrics[m["name"]] for m in spec["end_to_end"]}


def _finite(value: float) -> float:
    return value if math.isfinite(value) else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 spec: dict) -> int:
    ensure_source_on_path()
    result = catalogue.WORKLOADS[name].run(seed=seed, seconds=seconds,
                                           trace=trace)
    metrics = result_metrics(result, trace, spec)
    checks = result.checks

    for metric_name, metric in result.report.items():
        print(f"{name:15s} {metric_name:40s} {metric.value:>14.6g} "
              f"{metric.unit:6s} n={metric.samples}")
    print(f"{name:15s} {'error_rate':40s} {checks.error_rate:>14.6g} "
          f"{'ratio':6s} n={checks.attempted}")
    for failure in checks.failures:
        print(f"{name:15s} CHECK FAILED {failure}")

    record = {
        "identity": run_identity(name, seed, seconds, trace, result.params),
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.failures,
        "report": {k: m.as_json() for k, m in result.report.items()},
    }
    results = WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")

    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed,
        "metrics": {k: {"value": _finite(m.value), "unit": m.unit}
                    for k, m in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own interpreter, so imports, numpy state and
    the daemon never carry over from one workload to the next."""
    summary = {}
    for name in catalogue.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            summary[name] = {"correct": False, "returncode": proc.returncode}
            continue
        last = json.loads(lines[-1])
        summary[name] = {key: last[key]
                         for key in ("correct", "attempted", "failed")}
    print(json.dumps(summary, sort_keys=True))
    return 0 if all(entry["correct"] for entry in summary.values()) else 1


def main(argv: list[str] | None = None) -> int:
    spec = catalogue.load_spec()
    args = build_arg_parser(spec).parse_args(argv)
    if args.all:
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace), spec)


if __name__ == "__main__":
    sys.exit(main())

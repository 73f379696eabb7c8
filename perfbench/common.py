"""Shared plumbing: checkout paths, run identity, checks and results."""

from __future__ import annotations

import os
import platform
import random
import resource
import subprocess
import sys
import time
import traceback
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

#: Root of the checkout the benchmark runs from (``perfbench/..``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space the benchmark may write to (results, cache round-trips).
WORK_DIR = ROOT / ".perfbench"
#: The seed at which engine-day compares against the pinned goldens
#: only; any other seed adds a sampled invariant re-run.
DEFAULT_SEED = 1


def ensure_source_on_path() -> None:
    """Import ``repro`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    # Never read or write the user's run cache (~/.cache/...).
    os.environ["REPRO_CACHE_DIR"] = "off"


def child_env() -> dict[str, str]:
    """Environment for a child interpreter running this checkout's code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = "off"
    return env


def rng_for(*labels: object) -> random.Random:
    """An independent, reproducible stream per label path (usually the
    workload seed first)."""
    return random.Random("/".join(str(part) for part in labels))


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size of this process (or of its largest waited
    child), in MiB."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    commit = out.stdout.strip()
    return commit if out.returncode == 0 and commit else None


def run_identity(workload: str, seed: int, seconds: float, trace: bool,
                 params: dict[str, Any]) -> dict[str, Any]:
    """What a result was measured on: code, interpreter, host and inputs."""
    import numpy

    from repro.sim.cache import code_fingerprint

    return {
        "code_fingerprint": code_fingerprint(),
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": params,
    }


#: Iterations of the reference loop.
REFERENCE_ITERATIONS = 60_000
#: A round figure for the reference loop's time on the host the benchmark
#: was tuned on (a 2-core x86-64 VM with Python 3.11 read 4-5 ms); timed
#: figures are scaled to a host where it takes exactly this long.
REFERENCE_S = 0.005


def reference_loop() -> int:
    """Fixed pure-Python work that no ``repro`` change can speed up.  Its
    data stays in registers and the first cache level, so the program's
    own cache footprint does not change its time."""
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i
    return total


class HostSpeed:
    """Reference-loop samples taken next to the timed work.

    The benchmark host is shared, and its speed drifts by up to ±25 % over
    seconds to minutes; CPU time drifts with it, since a host that is
    slow runs every instruction slower.  The reference loop slows down
    with the host, so a time divided by the loop's time at the same
    moments follows the program and not the host.  :meth:`scaled` turns
    host seconds into *reference seconds*: the seconds the work would
    take on a host where the reference work takes ``reference_s``.
    """

    def __init__(self, reference: Callable[[], object] = reference_loop,
                 reference_s: float = REFERENCE_S) -> None:
        #: The reference work, and its time on the reference host.
        self.reference = reference
        self.reference_s = reference_s
        self.samples: list[float] = []

    def sample(self) -> None:
        """Time the reference work once on this thread's CPU clock, so a
        sample taken while another thread holds the GIL reads it alone."""
        start = time.thread_time()
        self.reference()
        self.samples.append(time.thread_time() - start)

    def mark(self) -> int:
        """A position to pass to :meth:`scaled` as ``since``."""
        return len(self.samples)

    def scaled(self, seconds: float, since: int) -> float:
        """``seconds`` of host time, measured while the samples from
        ``since`` on were taken, in reference seconds."""
        window = self.samples[since:]
        if not window:
            raise ValueError("no reference sample in the window")
        return seconds * self.reference_s * len(window) / sum(window)

    def measure(self, fn: Callable[..., Any], *args: Any) -> tuple[Any, float]:
        """Run ``fn(*args)`` between two samples; returns its result and
        its time in reference seconds."""
        since = self.mark()
        self.sample()
        start = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - start
        self.sample()
        return result, self.scaled(elapsed, since)


@dataclass
class Metric:
    value: float
    unit: str
    samples: int = 1

    def as_json(self) -> dict[str, Any]:
        return {"value": self.value, "unit": self.unit, "samples": self.samples}


@dataclass
class Checks:
    """Operations attempted and the ones whose output check failed.

    A failing or raising check is recorded, never propagated: the run
    carries on and the failure shows up in ``error_rate``.
    """

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, label: str, check: Callable[[], str | None]) -> None:
        """Count one operation; ``check`` returns None when the output is
        right, or a reason when it is not."""
        self.attempted += 1
        try:
            reason = check()
        except Exception:  # a broken check is a failed check, not a crash
            reason = "check raised:\n" + traceback.format_exc(limit=3)
        if reason is not None:
            self.failed += 1
            self.failures.append(f"{label}: {reason}")

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class WorkloadResult:
    """One workload run: result-line metrics, the full report and checks."""

    #: Metrics printed on the result line (end-to-end or per-layer).
    metrics: dict[str, Metric]
    #: Every figure the workload measured, under its report name.
    report: dict[str, Metric]
    checks: Checks
    params: dict[str, Any]

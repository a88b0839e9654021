"""Shared machinery of the benchmark: paths, spans, the measured window,
quantiles, memory, and provenance.

Nothing here times code inside ``src/``: every span wraps a call the
benchmark makes into a public function of the program.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

#: The checkout the benchmark runs in: the program is imported from its
#: ``src/`` tree, and every file the benchmark writes stays under it.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Per-run scratch trees (one fresh directory per run and per set-up).
TMP_ROOT = ROOT / ".perfbench_tmp"
#: Span dumps of traced runs.
OUT_ROOT = ROOT / ".perfbench_out"


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import the
    program; a checkout without it is not benchmarkable."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as error:
        raise SystemExit(
            f"perfbench: cannot import the program from {SRC} ({error})"
        ) from error
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(
            f"perfbench: imported repro from {repro.__file__}, not from {SRC}"
        )


# ----------------------------------------------------------------------
# Spans.


class Tracer:
    """In-memory span recorder.

    A span is ``(id, parent, name, start, end, attrs)``; spans opened
    inside another span record it as their parent.  Disabled tracers
    record nothing.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield
            return
        ident = len(self.spans)
        record = {
            "id": ident,
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(ident)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def record(self, name: str, start: float, end: float, **attrs) -> None:
        """Add a closed span timed by the caller (client threads, which
        cannot share the nesting stack)."""
        if not self.enabled:
            return
        with self._lock:
            self.spans.append({
                "id": len(self.spans), "parent": None, "name": name,
                "start": start, "end": end, "attrs": attrs,
            })

    def total(self, name: str) -> float:
        """Summed duration of every closed span called ``name``."""
        return sum(
            span["end"] - span["start"]
            for span in self.spans
            if span["name"] == name and span["end"] is not None
        )


# ----------------------------------------------------------------------
# Jobs and the measured window.


@dataclass
class Job:
    """One measured operation: what ran, how long, and what it produced
    (kept for the output checks that run after the window)."""

    kind: str
    key: str
    seconds: float
    output: Any = None
    error: Optional[str] = None
    #: Set by the output checks; a failed job counts in ``failed``.
    failed: bool = False
    extra: dict = field(default_factory=dict)


@dataclass
class Pass:
    seconds: float
    traced: bool
    #: Latencies of the pass's completed jobs.
    latencies: list


@dataclass
class Window:
    seconds: float
    passes: list

    def rates(self, traced: bool = False) -> list[float]:
        """Completed jobs per second of each (un)traced pass."""
        return [
            len(run.latencies) / run.seconds
            for run in self.passes
            if run.traced == traced
        ]


#: A window holds at least this many jobs, so that ten lie beyond its
#: 90th percentile even when the machine runs slow.
MIN_JOBS = 100


def run_window(workload, seconds: float, tracer: Tracer) -> Window:
    """Run whole passes of ``workload``'s rotation until ``seconds`` have
    elapsed and ``MIN_JOBS`` jobs have run.  Every pass does identical
    work, so two runs compare like with like whatever their pass count.
    With tracing on, passes alternate traced and untraced, which lets one
    run price the spans under the same machine drift."""
    passes = []
    started = time.perf_counter()
    while True:
        traced = tracer.enabled and len(passes) % 2 == 1
        first_job = len(workload.jobs)
        pass_started = time.perf_counter()
        workload.run_pass(len(passes), tracer if traced else NO_TRACE)
        passes.append(Pass(
            time.perf_counter() - pass_started,
            traced,
            [job.seconds for job in workload.jobs[first_job:]
             if job.error is None],
        ))
        if (
            time.perf_counter() - started >= seconds
            and len(workload.jobs) >= MIN_JOBS
            and (not tracer.enabled or len(passes) % 2 == 0)
        ):
            break
    return Window(time.perf_counter() - started, passes)


NO_TRACE = Tracer(enabled=False)


# ----------------------------------------------------------------------
# Statistics.


def median(values) -> float:
    return statistics.median(values)


def p90(values) -> float:
    """The 90th percentile (``statistics.quantiles`` exclusive method)."""
    return statistics.quantiles(values, n=10)[8]



# ----------------------------------------------------------------------
# Memory.


def self_peak_rss_mb() -> float:
    """Peak resident set of this process and of its waited-for children
    (the process executor's shard workers), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def child_pids(pid: int) -> list[int]:
    """Direct children of ``pid``, read from ``/proc``."""
    children = Path(f"/proc/{pid}/task/{pid}/children")
    try:
        return [int(text) for text in children.read_text().split()]
    except OSError:
        pass
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after ')'.
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            found.append(int(entry.name))
    return found


def process_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of a live process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


# ----------------------------------------------------------------------
# Provenance.


def provenance(workload: str, seed: int, attempted: int, failed: int) -> dict:
    cpu_model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count() or 1,
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "commit": commit,
        "attempted": attempted,
        "failed": failed,
    }

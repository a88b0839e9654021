"""``serve-mix``: HTTP submit to response against a real
``repro serve --workers 2`` daemon.

One client process holds two keep-alive connections in a closed loop
(``wait=1``), the way CI callers wait for each verdict.  One pass of the
rotation holds paper-analog programs under both engines (compile-cache
hits once warm), fresh ``generate_program`` fuzz sources (every one a
compile-cache miss), MJBL v2 uploads of recorded traces, and one small
tuple-JSON upload.  It is the only workload that reaches ``service/``,
the AST engine, and the worker's per-job timing detector.
"""

from __future__ import annotations

import contextlib
import http.client
import io
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional
from urllib.parse import quote

from core import (
    NO_TRACE,
    ROOT,
    SRC,
    Job,
    child_pids,
    median,
    process_peak_rss_mb,
)
from onfly import record_trace, schedule_seeds

#: (analog, scale, engine, schedules per pass) of the paper-analog jobs.
PROGRAMS = (
    ("elevator2", 128, "ast", 1),
    ("elevator2", 128, "compiled", 1),
    ("hedc2", 128, "ast", 1),
    ("hedc2", 128, "compiled", 1),
    ("sor2", 16, "compiled", 1),
    ("sor2", 16, "ast", 3),
    ("mtrt2", 8, "compiled", 3),
    ("mtrt2", 8, "ast", 1),
    ("tsp2", 16, "compiled", 1),
    ("tsp2", 16, "ast", 4),
)
ENGINES = ("ast", "compiled")
#: Fresh fuzz sources per pass.
FUZZ_PER_PASS = 4
#: (analog, scale, uploads per pass) of the traces uploaded as MJBL v2.
UPLOADS = (("tsp2", 16, 2), ("mtrt2", 8, 1))
#: (analog, scale) of the tuple-JSON upload.
TUPLE_UPLOAD = ("hedc2", 8)
WORKERS = 2
CONNECTIONS = 2
BOOT_TIMEOUT = 60.0

#: Job classes (``Job.kind``).
PROGRAM_HIT = "program"
PROGRAM_MISS = "fuzz"
MJBL = "mjbl"
TUPLE = "tuple"


class Daemon:
    """A ``repro serve`` subprocess booted to its first ``/healthz``."""

    def __init__(self, workdir: Path, workers: int) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        # Upload spools land in the run's scratch tree, inside the checkout.
        env["TMPDIR"] = str(workdir)
        self._stderr = open(workdir / "serve.stderr", "wb")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--workers", str(workers),
                "--queue-depth", "16",
                "--timeout", "120",
            ],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            text=True,
        )
        try:
            banner = self.proc.stdout.readline()
            match = re.search(r":(\d+) \(", banner)
            if match is None:
                raise RuntimeError(f"repro serve did not boot: {banner!r}")
            self.port = int(match.group(1))
            deadline = time.monotonic() + BOOT_TIMEOUT
            while True:
                try:
                    if self.request("GET", "/healthz")[0] == 200:
                        break
                except OSError:
                    pass
                if time.monotonic() > deadline:
                    raise RuntimeError("repro serve never answered /healthz")
                time.sleep(0.01)
        except BaseException:
            self.close()
            raise

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=300)

    def request(self, method: str, path: str, body: bytes = b"",
                conn=None) -> tuple[int, dict]:
        own = conn is None
        if own:
            conn = self.connect()
        try:
            conn.request(method, path, body=body)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            if own:
                conn.close()

    def worker_peak_rss_mb(self) -> float:
        return max(
            (process_peak_rss_mb(pid) for pid in child_pids(self.proc.pid)),
            default=0.0,
        )

    def close(self) -> None:
        """SIGTERM drains the daemon; wait until it and its workers end."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()


@dataclass(frozen=True)
class Submission:
    """One distinct input: how to submit it and how ``repro check``
    renders the same input."""

    kind: str
    key: str
    query: str
    path: Path
    check_args: tuple

    def body(self) -> bytes:
        return self.path.read_bytes()


def program_submission(kind: str, path: Path, engine: str,
                       schedule: int) -> Submission:
    return Submission(
        kind=kind,
        key=f"{path.name}/{engine}/{schedule}",
        query=f"engine={engine}&seed={schedule}&filename={quote(str(path))}",
        path=path,
        check_args=(str(path), "--engine", engine, "--seed", str(schedule)),
    )


def log_submission(kind: str, path: Path) -> Submission:
    return Submission(
        kind=kind, key=path.name, query="", path=path,
        check_args=("--from-log", str(path)),
    )


def submit_all(daemon: Daemon, submissions: list, connections: list,
               jobs: list, tracer) -> None:
    """Closed loop: each connection sends its next submission only after
    the previous answer arrived; together they drain ``submissions``."""
    lock = threading.Lock()
    cursor = iter(submissions)

    def client(conn) -> None:
        while True:
            with lock:
                submission = next(cursor, None)
            if submission is None:
                return
            body = submission.body()
            started = time.perf_counter()
            try:
                status, record = daemon.request(
                    "POST",
                    "/submit?wait=1"
                    + (f"&{submission.query}" if submission.query else ""),
                    body,
                    conn,
                )
            except (OSError, http.client.HTTPException, ValueError) as error:
                conn.close()
                jobs.append(Job(
                    submission.kind, submission.key, 0.0, error=repr(error)
                ))
                continue
            ended = time.perf_counter()
            tracer.record(
                "service.submit", started, ended, kind=submission.kind
            )
            result = record.get("result") or {}
            jobs.append(Job(
                submission.kind,
                submission.key,
                ended - started,
                output=canonical(result.get("report")),
                extra={
                    "status": status,
                    "submission": submission,
                    "timing": result.get("timing"),
                    "cache": (result.get("cache") or {}).get("status"),
                },
            ))

    threads = [
        threading.Thread(target=client, args=(conn,)) for conn in connections
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def canonical(payload) -> str:
    from repro.service.protocol import canonical_json

    return canonical_json(payload)


def cli_report(submission: Submission) -> Optional[str]:
    """What ``repro check --report-json`` prints for the input, run
    in-process through the CLI entry point."""
    from repro.cli import main as repro_main

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = repro_main(["check", "--report-json", *submission.check_args])
    return stdout.getvalue().strip() if code in (0, 1) else None


#: Report counters that depend on the process's string-hash seed: the
#: access cache picks a location's slot from ``hash(key)``, and the key
#: holds the field name, so conflict evictions (and with them cache hits
#: and the detector's weaker-than filtering) differ between a worker and
#: any other process.  Every other byte must match.
HASH_SEED_DEPENDENT = ("cache", "funnel.cache_hits", "funnel.weaker_filtered")


def parity_view(report_json: str) -> str:
    """The report with the hash-seed-dependent counters removed."""
    report = json.loads(report_json)
    for dotted in HASH_SEED_DEPENDENT:
        *parents, leaf = dotted.split(".")
        node = report
        for parent in parents:
            node = node[parent]
        node.pop(leaf)
    return canonical(report)


def check_service_jobs(jobs: list) -> None:
    """Mark failed every job that errored, was refused (429/5xx), or whose
    report differs from ``repro check --report-json`` on the same input."""
    expected: dict[str, str] = {}
    for job in jobs:
        if job.error is not None or job.extra["status"] != 200:
            job.failed = True
            continue
        submission = job.extra["submission"]
        if submission.key not in expected:
            cli = cli_report(submission)
            expected[submission.key] = None if cli is None else parity_view(cli)
        want = expected[submission.key]
        job.failed = want is None or parity_view(job.output) != want


def service_layer_metrics(jobs: list, stats: dict) -> dict:
    """The ``service.*`` layer split of answered jobs, plus ``/stats``."""
    answered = [job for job in jobs if job.error is None and job.extra["timing"]]

    def worker_total(job) -> float:
        timing = job.extra["timing"]
        return (
            timing["compile_seconds"]
            + timing["execute_seconds"]
            + timing["detect_seconds"]
        )

    def mean_of(key: str, kinds) -> float:
        values = [
            job.extra["timing"][key] for job in answered if job.kind in kinds
        ]
        return sum(values) / len(values)

    def p50(predicate) -> float:
        return median([job.seconds for job in answered if predicate(job)])

    programs = (PROGRAM_HIT, PROGRAM_MISS)
    return {
        "service.queue_wait_s": median(
            [job.seconds - worker_total(job) for job in answered]
        ),
        "service.worker_compile_s": mean_of("compile_seconds", programs),
        "service.worker_execute_s": mean_of("execute_seconds", programs),
        "service.worker_detect_s": mean_of(
            "detect_seconds", programs + (MJBL, TUPLE)
        ),
        "service.cache_hit_ratio": stats["compile_cache"]["hit_rate"],
        "service.program_hit_p50_s": p50(
            lambda job: job.kind == PROGRAM_HIT and job.extra["cache"] == "hit"
        ),
        "service.program_miss_p50_s": p50(
            lambda job: job.extra["cache"] == "miss"
        ),
        "service.mjbl_p50_s": p50(lambda job: job.kind == MJBL),
        "service.tuple_p50_s": p50(lambda job: job.kind == TUPLE),
    }


def interleave(*groups) -> list:
    """Round-robin over the groups, so both connections see every class."""
    merged = []
    longest = max(len(group) for group in groups)
    for index in range(longest):
        for group in groups:
            if index < len(group):
                merged.append(group[index])
    return merged


class ServeMix:
    name = "serve-mix"
    setup_repeats = 3

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.jobs: list[Job] = []
        self.workdir: Path = None
        self.daemon: Daemon = None
        self.connections: list = []
        self.programs: list[Submission] = []
        self.logs: list[Submission] = []
        self.stats: dict = {}

    def setup(self, workdir: Path) -> None:
        """Generate and record every input, run the front end on every
        program, and boot the daemon to its first ``/healthz``."""
        from repro.instrument import PlannerConfig, plan_instrumentation
        from repro.lang import compile_source
        from repro.workloads import BENCHMARKS

        self.workdir = workdir
        seeds = iter(schedule_seeds(
            self.seed,
            sum(count for *_, count in PROGRAMS) + len(UPLOADS) + 1,
        ))
        for name, scale, engine, count in PROGRAMS:
            path = workdir / f"{name}.mj"
            if not path.exists():
                source = BENCHMARKS[name].build(scale)
                path.write_text(source)
                plan_instrumentation(
                    compile_source(source, filename=str(path)),
                    PlannerConfig(),
                )
            for _ in range(count):
                self.programs.append(program_submission(
                    PROGRAM_HIT, path, engine, next(seeds)
                ))
        for name, scale, count in UPLOADS:
            path = workdir / f"{name}.mjbl"
            record_trace(name, scale, next(seeds), path, binary=True)
            self.logs += [log_submission(MJBL, path)] * count
        name, scale = TUPLE_UPLOAD
        path = workdir / f"{name}.json"
        record_trace(name, scale, next(seeds), path, binary=False)
        self.logs.append(log_submission(TUPLE, path))
        self.daemon = Daemon(workdir, WORKERS)
        self.connections = [self.daemon.connect() for _ in range(CONNECTIONS)]

    def fuzz_pass(self, index: int) -> list[Submission]:
        """This pass's fresh fuzz programs: seeded by (run seed, pass,
        slot), so the same seed gives the same sources."""
        from repro.workloads.fuzz import generate_program

        rng = random.Random(f"{self.seed}/{index}")
        submissions = []
        for slot in range(FUZZ_PER_PASS):
            program_seed = rng.randrange(2**31)
            path = self.workdir / f"fuzz-{index}-{slot}.mj"
            path.write_text(generate_program(program_seed))
            submissions.append(program_submission(
                PROGRAM_MISS, path, ENGINES[slot % 2], program_seed
            ))
        return submissions

    def rotation(self, index: int) -> list[Submission]:
        return interleave(self.programs, self.fuzz_pass(index), self.logs)

    def warm_up(self) -> None:
        submit_all(self.daemon, self.programs + self.logs,
                   self.connections, [], NO_TRACE)

    def run_pass(self, index: int, tracer) -> None:
        submit_all(self.daemon, self.rotation(index), self.connections,
                   self.jobs, tracer)

    def check(self) -> bool:
        status, self.stats = self.daemon.request("GET", "/stats")
        check_service_jobs(self.jobs)
        return status == 200

    def peak_rss_mb(self) -> float:
        return self.daemon.worker_peak_rss_mb()

    def layer_programs(self) -> list[tuple[str, str, int]]:
        """Each analog once, at its scale, under its first schedule."""
        programs = {}
        for submission in self.programs:
            name = submission.path.stem
            if name not in programs:
                programs[name] = (
                    name,
                    submission.path.read_text(),
                    int(submission.check_args[-1]),
                )
        return list(programs.values())

    def layer_traces(self) -> list[Path]:
        return []

    def service_metrics(self) -> dict:
        return service_layer_metrics(self.jobs, self.stats)

    def close(self) -> None:
        for conn in self.connections:
            conn.close()
        if self.daemon is not None:
            self.daemon.close()

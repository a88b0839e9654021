"""``onfly-paper``: MJ source to report in-process, like
``repro check --engine compiled --report-json``.

Each job runs the front end, instrumentation planning, engine build and
a Full-configuration run of one paper analog under a seeded
``RandomPolicy`` schedule, then serializes the report.  This is the
paper's own Table 2 traffic: execution dominates, the access cache hits
almost always, and the lockset trie is barely touched.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

from core import NO_TRACE, Job, self_peak_rss_mb

#: (analog, scale, seeded schedules per pass): one check takes from tens
#: of milliseconds (hedc2, elevator2) over ~0.2 s (sor2, mtrt2) to about
#: half a second (tsp2) on a 2-CPU Xeon.  The ~0.2 s checks make up the
#: middle 60% of a pass, so the median job falls in the middle of their
#: block and the 90th percentile inside the tsp2 block, away from the
#: edges between cost classes, where a quantile would swing with every
#: stray job.
PROGRAMS = (
    ("tsp2", 24, 2),
    ("mtrt2", 10, 4),
    ("sor2", 20, 2),
    ("hedc2", 128, 1),
    ("elevator2", 128, 1),
)
MAX_STEPS = 10_000_000
#: Scales of the reference-oracle traces: the FullRace oracle is
#: quadratic in a location's accesses, so these stay small.
ORACLE_SCALES = {"tsp2": 6, "mtrt2": 5, "sor2": 8, "hedc2": 4, "elevator2": 12}
#: zlib level of every recorded MJBL trace (format v2).
COMPRESS = 6


def schedule_seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(1, 2**31) for _ in range(count)]


def check_program(name: str, source: str, filename: str, schedule: int,
                  tracer) -> tuple[object, str]:
    """One ``check --engine compiled --report-json`` job, each layer
    call wrapped in its span; returns (detector, report JSON)."""
    from repro.detector import DetectorConfig, RaceDetector
    from repro.instrument import PlannerConfig, plan_instrumentation
    from repro.lang import compile_source
    from repro.runtime import CompiledInterpreter, RandomPolicy
    from repro.service.protocol import canonical_json, detection_report

    with tracer.span("lang.compile", program=name):
        resolved = compile_source(source, filename=filename)
    with tracer.span("instrument.plan", program=name):
        plan = plan_instrumentation(resolved, PlannerConfig())
    detector = RaceDetector(
        config=DetectorConfig(),
        resolved=resolved,
        static_races=plan.static_races,
    )
    with tracer.span("runtime.compile", program=name):
        engine = CompiledInterpreter(
            resolved,
            sink=detector,
            trace_sites=plan.trace_sites,
            policy=RandomPolicy(schedule),
            max_steps=MAX_STEPS,
        )
    with tracer.span("runtime.run", program=name):
        result = engine.run()
    with tracer.span("report.serialize", program=name):
        report = canonical_json(detection_report(
            detector.reports.reports,
            detector.stats,
            detector.cache.stats if detector.cache else None,
            output=result.output,
        ))
    return detector, report


def record_trace(name: str, scale: int, schedule: int, path: Path,
                 binary: bool = True) -> None:
    """Record one Full-plan run of an analog: MJBL v2 or tuple JSON."""
    from repro.instrument import PlannerConfig, plan_instrumentation
    from repro.lang import compile_source
    from repro.runtime import (
        BinaryLogSink,
        CompiledInterpreter,
        RandomPolicy,
        RecordingSink,
        dump_log,
    )
    from repro.workloads import BENCHMARKS

    resolved = compile_source(BENCHMARKS[name].build(scale), filename=name)
    plan = plan_instrumentation(resolved, PlannerConfig())
    sink = BinaryLogSink(path, compress=COMPRESS) if binary else RecordingSink()
    try:
        CompiledInterpreter(
            resolved,
            sink=sink,
            trace_sites=plan.trace_sites,
            policy=RandomPolicy(schedule),
            max_steps=MAX_STEPS,
        ).run()
    finally:
        if binary:
            sink.close()
    if not binary:
        path.write_text(json.dumps(dump_log(sink)) + "\n")


def racy_fields_ok(name: str, fields: set) -> bool:
    """The §8.3 inventory: every documented racy field is reported, and
    the race-free elevator2 reports nothing."""
    from repro.workloads import BENCHMARKS

    expected = BENCHMARKS[name].expected_racy_fields
    if not expected:
        return not fields
    return expected <= fields


def reference_oracle_ok(name: str, scale: int, schedule: int) -> bool:
    """§2.5: on a small-scale trace of the analog, every location the
    quadratic FullRace oracle finds racy is reported by the detector."""
    from repro.detector import RaceDetector, ReferenceDetector
    from repro.instrument import PlannerConfig, plan_instrumentation
    from repro.lang import compile_source
    from repro.runtime import CompiledInterpreter, RandomPolicy, RecordingSink
    from repro.workloads import BENCHMARKS

    resolved = compile_source(BENCHMARKS[name].build(scale), filename=name)
    plan = plan_instrumentation(resolved, PlannerConfig())
    log = RecordingSink()
    CompiledInterpreter(
        resolved,
        sink=log,
        trace_sites=plan.trace_sites,
        policy=RandomPolicy(schedule),
        max_steps=MAX_STEPS,
    ).run()
    oracle = ReferenceDetector()
    detector = RaceDetector()
    log.replay_into(oracle)
    log.replay_into(detector)
    return oracle.racy_locations <= detector.reports.racy_locations


class OnFlyPaper:
    name = "onfly-paper"
    #: Set-up takes ~0.13 s here, so more repeats steady its median.
    setup_repeats = 9

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.jobs: list[Job] = []
        self.rotation: list[tuple] = []
        self.programs: dict[str, tuple[str, str]] = {}

    def setup(self, workdir: Path) -> None:
        """Generate and record every source, then run the front end on
        each once (a source that does not compile fails set-up)."""
        from repro.instrument import PlannerConfig, plan_instrumentation
        from repro.lang import compile_source
        from repro.workloads import BENCHMARKS

        seeds = iter(schedule_seeds(
            self.seed, sum(count for *_, count in PROGRAMS)
        ))
        for name, scale, count in PROGRAMS:
            source = BENCHMARKS[name].build(scale)
            path = workdir / f"{name}.mj"
            path.write_text(source)
            plan_instrumentation(
                compile_source(source, filename=str(path)), PlannerConfig()
            )
            self.programs[name] = (source, str(path))
            for _ in range(count):
                self.rotation.append((name, next(seeds)))

    def warm_up(self) -> None:
        for name, (source, filename) in self.programs.items():
            check_program(name, source, filename, 1, NO_TRACE)

    def run_pass(self, index: int, tracer) -> None:
        for name, schedule in self.rotation:
            source, filename = self.programs[name]
            started = time.perf_counter()
            with tracer.span("job", program=name, schedule=schedule):
                try:
                    detector, _report = check_program(
                        name, source, filename, schedule, tracer
                    )
                except Exception as error:  # noqa: BLE001 — counted as failed
                    self.jobs.append(Job(name, name, 0.0, error=repr(error)))
                    continue
            seconds = time.perf_counter() - started
            fields = {field for _label, field in detector.reports.racy_fields}
            self.jobs.append(Job(name, f"{name}/{schedule}", seconds, fields))

    def check(self) -> bool:
        for job in self.jobs:
            job.failed = job.error is not None or not racy_fields_ok(
                job.kind, job.output
            )
        return all(
            reference_oracle_ok(name, scale, self.seed)
            for name, scale in ORACLE_SCALES.items()
        )

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()

    def layer_programs(self) -> list[tuple[str, str, int]]:
        """(name, source, schedule) for the layer probe: each analog once."""
        first = {}
        for name, schedule in self.rotation:
            first.setdefault(name, schedule)
        return [
            (name, source, first[name])
            for name, (source, _filename) in self.programs.items()
        ]

    def layer_traces(self) -> list[Path]:
        return []

    def close(self) -> None:
        pass

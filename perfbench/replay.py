"""``replay-mjbl``: MJBL file to report, no execution at all.

Set-up records compressed MJBL v2 traces of the paper analogs with
``BinaryLogSink`` under seeded schedules and writes ``synthlog`` traces
of similar detection cost.  Jobs rotate over the traces and over the
post-mortem entry points: ``detect_sharded(path, 1)`` (what
``check --from-log`` runs), four shards serial, two shards on the
``process`` executor, and ``predict_races(path, "hybrid")``.

The paper traces are cache-bound (the access cache hits almost always);
synthlog traces are trie-bound (a lock eviction empties the cache at
nearly every monitor exit), so a cache change and a trie change show on
different traces of the same workload.
"""

from __future__ import annotations

import hashlib
import os
import time
from pathlib import Path

from core import Job, self_peak_rss_mb
from onfly import COMPRESS, racy_fields_ok, record_trace, schedule_seeds

#: (analog, scale, traces under distinct schedules): ~48k events for
#: tsp2, ~21k for mtrt2, ~1-2k for sor2 and elevator2.
ANALOGS = (
    ("tsp2", 24, 2),
    ("mtrt2", 12, 2),
    ("sor2", 32, 1),
    ("elevator2", 128, 1),
)
#: Traces this small cost only their per-file overhead, so they run
#: through ``check --from-log``'s entry point alone; four jobs each would
#: crowd the low end and leave the median job on the edge between cost
#: classes.
SMALL_TRACES = ("sor2", "elevator2")
#: synthlog traces (events), sized like the mtrt2 and tsp2 traces.  Their
#: racy slice is known to the generator.
SYNTH_EVENTS = (20_000, 40_000)
SYNTH_RACY_OBJECTS = 8
#: Shards of the process-executor entry point; never more than nproc.
PROCESS_SHARDS = min(2, os.cpu_count() or 1)

#: Post-mortem entry point -> the span that times it.
ENTRY_POINTS = {
    "sharded1": "sharded.single",
    "serial4": "sharded.serial4",
    "process2": "sharded.process2",
    "hybrid": "predict.hybrid",
}


def run_entry_point(entry: str, path: Path):
    """One post-mortem job; returns (racy location keys, race digest)."""
    from repro.detector import detect_sharded
    from repro.detector.predict import predict_races

    if entry == "hybrid":
        predictor = predict_races(path, "hybrid")
        return set(predictor.racy_locations), None
    if entry == "sharded1":
        result = detect_sharded(path, 1)
    elif entry == "serial4":
        result = detect_sharded(path, 4)
    else:
        result = detect_sharded(path, PROCESS_SHARDS, executor="process")
    return set(result.reports.racy_locations), race_digest(result)


def race_digest(result) -> str:
    """Digest of the merged race list as the canonical report renders it
    (``check --from-log --report-json``'s ``races``)."""
    from repro.service.protocol import canonical_json, detection_report

    races = detection_report(result.reports.reports, result.stats)["races"]
    return hashlib.sha256(canonical_json(races).encode()).hexdigest()


def in_racy_slice(location) -> bool:
    from repro.runtime.synthlog import _RACY_BASE

    uid = getattr(location, "object_uid", None)
    return uid is not None and (
        _RACY_BASE <= uid < _RACY_BASE + SYNTH_RACY_OBJECTS
    )


class ReplayMjbl:
    name = "replay-mjbl"
    setup_repeats = 3

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.jobs: list[Job] = []
        #: trace label -> (path, kind) where kind is an analog name or
        #: "synthlog".
        self.traces: dict[str, tuple[Path, str]] = {}
        self.schedules: dict[str, int] = {}

    def setup(self, workdir: Path) -> None:
        from repro.runtime.synthlog import synthesize_file

        seeds = iter(schedule_seeds(
            self.seed,
            sum(count for *_, count in ANALOGS) + len(SYNTH_EVENTS),
        ))
        for name, scale, count in ANALOGS:
            for index in range(count):
                label = f"{name}-{index}"
                path = workdir / f"{label}.mjbl"
                schedule = next(seeds)
                record_trace(name, scale, schedule, path)
                self.traces[label] = (path, name)
                self.schedules.setdefault(name, schedule)
        for events in SYNTH_EVENTS:
            label = f"synthlog{events // 1000}k"
            path = workdir / f"{label}.mjbl"
            synthesize_file(
                path,
                events,
                compress=COMPRESS,
                racy_objects=SYNTH_RACY_OBJECTS,
                seed=next(seeds),
            )
            self.traces[label] = (path, "synthlog")

    def warm_up(self) -> None:
        for path, _kind in self.traces.values():
            run_entry_point("sharded1", path)
        run_entry_point("process2", next(iter(self.traces.values()))[0])

    def run_pass(self, index: int, tracer) -> None:
        for label, (path, kind) in self.traces.items():
            entries = ["sharded1"] if kind in SMALL_TRACES else ENTRY_POINTS
            for entry in entries:
                started = time.perf_counter()
                with tracer.span(ENTRY_POINTS[entry], trace=label):
                    try:
                        locations, digest = run_entry_point(entry, path)
                    except Exception as error:  # noqa: BLE001 — counted
                        self.jobs.append(
                            Job(entry, label, 0.0, error=repr(error))
                        )
                        continue
                seconds = time.perf_counter() - started
                self.jobs.append(Job(
                    entry, label, seconds, locations,
                    extra={"digest": digest, "kind": kind},
                ))

    def check(self) -> bool:
        # Shard-count invariance: every sharded job of a trace renders the
        # same race list as the single-shard job of the first pass.
        reference: dict[str, str] = {}
        for job in self.jobs:
            if job.kind == "sharded1" and job.error is None:
                reference.setdefault(job.key, job.extra["digest"])
        for job in self.jobs:
            if job.error is not None:
                job.failed = True
                continue
            kind = job.extra["kind"]
            locations = job.output
            if kind == "synthlog":
                # Only the generator's racy slice can race; the detector
                # must report some of it (the predictor may not).
                ok = all(in_racy_slice(location) for location in locations)
                if job.kind != "hybrid":
                    ok = ok and bool(locations)
            elif job.kind == "hybrid":
                ok = True
            else:
                ok = racy_fields_ok(
                    kind, {location.field for location in locations}
                )
            if job.kind != "hybrid":
                ok = ok and job.extra["digest"] == reference.get(job.key)
            job.failed = not ok
        return True

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()

    def layer_programs(self) -> list[tuple[str, str, int]]:
        from repro.workloads import BENCHMARKS

        return [
            (name, BENCHMARKS[name].build(scale), self.schedules[name])
            for name, scale, _count in ANALOGS
        ]

    def layer_traces(self) -> list[Path]:
        return [
            path for path, kind in self.traces.values() if kind == "synthlog"
        ]

    def close(self) -> None:
        pass

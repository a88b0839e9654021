"""The layer split of a traced run.

Per-event layers get their share from ablations and counters, never
from per-event timers: the Table 2 ablations (Base: no trace sites and
no sink; ``DetectorConfig(cache=False)``), and decoding into a sink
whose every method is a no-op.  The base ``EventSink`` is *not* such a
sink — its ``on_access_parts`` allocates an ``AccessEvent`` per record —
so decode time is measured through :class:`NullSink`.

One probe pass runs each of the workload's programs once (and records
it) and each trace once through every post-mortem entry point, with a
span around each call into a layer.
"""

from __future__ import annotations

from pathlib import Path

from core import NO_TRACE, Tracer, median
from onfly import COMPRESS, MAX_STEPS
from replay import PROCESS_SHARDS

#: name -> unit of every per-layer metric a traced run prints.
UNITS = {
    "lang.compile_s": "s",
    "instrument.plan_s": "s",
    "instrument.trace_sites": "count",
    "runtime.compile_s": "s",
    "runtime.execute_s": "s",
    "runtime.steps": "count",
    "runtime.events": "count",
    "binlog.record_s": "s",
    "binlog.bytes_per_event": "B",
    "binlog.compression_ratio": "ratio",
    "binlog.open_s": "s",
    "binlog.decode_s": "s",
    "detector.detect_s": "s",
    "detector.nocache_s": "s",
    "detector.owned_filtered": "count",
    "detector.cache_lookups": "count",
    "detector.cache_hit_ratio": "ratio",
    "detector.lock_evictions": "count",
    "detector.trie_nodes": "count",
    "detector.races_reported": "count",
    "sharded.serial4_s": "s",
    "sharded.process2_s": "s",
    "predict.hybrid_s": "s",
    "service.queue_wait_s": "s",
    "service.worker_compile_s": "s",
    "service.worker_execute_s": "s",
    "service.worker_detect_s": "s",
    "service.cache_hit_ratio": "ratio",
    "service.program_hit_p50_s": "s",
    "service.program_miss_p50_s": "s",
    "service.mjbl_p50_s": "s",
    "service.tuple_p50_s": "s",
    "trace.jobs_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
}


def _null_sink():
    from repro.runtime import EventSink

    class NullSink(EventSink):
        """Accepts every event and does nothing: decode cost alone."""

        def _ignore(self, *args) -> None:
            pass

        on_access = on_access_parts = on_monitor_enter = _ignore
        on_monitor_exit = on_thread_start = on_thread_end = _ignore
        on_thread_join = on_wait = on_notify = on_run_end = _ignore

    return NullSink()


class Counters:
    """Detector funnel counters summed over the probe's runs."""

    def __init__(self) -> None:
        self.owned_filtered = 0
        self.cache_hits = 0
        self.cache_lookups = 0
        self.lock_evictions = 0
        self.trie_nodes = 0
        self.races_reported = 0

    def add(self, detector) -> None:
        self.owned_filtered += detector.stats.owned_filtered
        self.races_reported += detector.stats.races_reported
        self.trie_nodes += detector.total_trie_nodes()
        if detector.cache is not None:
            stats = detector.cache.stats
            self.cache_hits += stats.hits
            self.cache_lookups += stats.lookups
            self.lock_evictions += stats.lock_evictions


def probe_programs(programs, workdir: Path, tracer: Tracer,
                   on_the_fly: Counters, counts: dict) -> list[Path]:
    """Base, Full, NoCache and a recording run of each program; returns
    the recorded MJBL v2 traces."""
    from repro.detector import DetectorConfig, RaceDetector
    from repro.instrument import PlannerConfig, plan_instrumentation
    from repro.lang import compile_source
    from repro.runtime import BinaryLogSink, CompiledInterpreter, RandomPolicy

    traces = []
    for name, source, schedule in programs:
        with tracer.span("lang.compile", program=name):
            resolved = compile_source(source, filename=name)
        with tracer.span("instrument.plan", program=name):
            plan = plan_instrumentation(resolved, PlannerConfig())
        counts["instrument.trace_sites"] += len(plan.trace_sites)

        # Base: a fresh, unplanned front end run with no sink at all.
        base = CompiledInterpreter(
            compile_source(source, filename=name),
            sink=None,
            trace_sites=set(),
            policy=RandomPolicy(schedule),
            max_steps=MAX_STEPS,
        )
        with tracer.span("runtime.execute", program=name):
            base.run()

        detector = RaceDetector(
            config=DetectorConfig(),
            resolved=resolved,
            static_races=plan.static_races,
        )
        with tracer.span("runtime.compile", program=name):
            full = CompiledInterpreter(
                resolved,
                sink=detector,
                trace_sites=plan.trace_sites,
                policy=RandomPolicy(schedule),
                max_steps=MAX_STEPS,
            )
        with tracer.span("probe.full_run", program=name):
            result = full.run()
        counts["runtime.steps"] += result.steps
        counts["runtime.events"] += result.accesses_emitted
        on_the_fly.add(detector)

        nocache = CompiledInterpreter(
            resolved,
            sink=RaceDetector(
                config=DetectorConfig(cache=False),
                resolved=resolved,
                static_races=plan.static_races,
            ),
            trace_sites=plan.trace_sites,
            policy=RandomPolicy(schedule),
            max_steps=MAX_STEPS,
        )
        with tracer.span("probe.nocache_run", program=name):
            nocache.run()

        path = workdir / f"probe-{name}.mjbl"
        with tracer.span("binlog.record", program=name):
            sink = BinaryLogSink(path, compress=COMPRESS)
            try:
                CompiledInterpreter(
                    resolved,
                    sink=sink,
                    trace_sites=plan.trace_sites,
                    policy=RandomPolicy(schedule),
                    max_steps=MAX_STEPS,
                ).run()
            finally:
                sink.close()
        traces.append(path)
    return traces


def probe_traces(paths, tracer: Tracer, post_mortem: Counters,
                 counts: dict) -> None:
    """Open, null-sink decode, detection with and without the cache, and
    every post-mortem entry point, once per trace."""
    from repro.detector import DetectorConfig, detect_from_log, detect_sharded
    from repro.detector.predict import predict_races
    from repro.runtime import open_log

    for path in paths:
        label = path.name
        with tracer.span("binlog.open", trace=label):
            reader = open_log(path)
        try:
            counts["records"] += reader.record_count
            counts["stored_bytes"] += path.stat().st_size
            for block in reader.blocks:
                counts["block_raw"] += block.raw_length
                counts["block_stored"] += block.length
            with tracer.span("binlog.decode", trace=label):
                reader.replay_into(_null_sink())
            with tracer.span("probe.post_mortem", trace=label):
                detector, _ = detect_from_log(reader)
            post_mortem.add(detector)
            with tracer.span("probe.post_mortem_nocache", trace=label):
                detect_from_log(reader, config=DetectorConfig(cache=False))
        finally:
            reader.close()
        with tracer.span("sharded.serial4", trace=label):
            detect_sharded(path, 4)
        with tracer.span("sharded.process2", trace=label):
            detect_sharded(path, PROCESS_SHARDS, executor="process")
        with tracer.span("predict.hybrid", trace=label):
            predict_races(path, "hybrid")


def service_probe(programs, traces, workdir: Path) -> dict:
    """``service.*`` metrics for workloads that do not reach the daemon:
    a one-worker daemon answers each program twice (a compile-cache miss,
    then a hit), each trace once, and one tuple-JSON upload."""
    from serve import (
        MJBL,
        PROGRAM_HIT,
        TUPLE,
        TUPLE_UPLOAD,
        Daemon,
        log_submission,
        program_submission,
        record_trace,
        service_layer_metrics,
        submit_all,
    )

    submissions = []
    for name, source, schedule in programs:
        path = workdir / f"service-{name}.mj"
        path.write_text(source)
        submission = program_submission(PROGRAM_HIT, path, "compiled", schedule)
        submissions += [submission, submission]
    submissions += [log_submission(MJBL, path) for path in traces]
    name, scale = TUPLE_UPLOAD
    tuple_path = workdir / f"service-{name}.json"
    record_trace(name, scale, 1, tuple_path, binary=False)
    submissions.append(log_submission(TUPLE, tuple_path))

    daemon = Daemon(workdir, workers=1)
    try:
        jobs = []
        conn = daemon.connect()
        try:
            submit_all(daemon, submissions, [conn], jobs, NO_TRACE)
        finally:
            conn.close()
        _status, stats = daemon.request("GET", "/stats")
    finally:
        daemon.close()
    return service_layer_metrics(jobs, stats)


def layer_metrics(workload, window, workdir: Path,
                  post_mortem_detector: bool) -> tuple[dict, list]:
    """Every per-layer metric for ``workload`` after its traced window,
    and the probe's spans.

    ``post_mortem_detector`` picks where the detector layer is measured:
    over the traces (replay-mjbl) or during execution (the others).
    """
    probe = Tracer(enabled=True)
    counts = {
        "instrument.trace_sites": 0,
        "runtime.steps": 0,
        "runtime.events": 0,
        "records": 0,
        "stored_bytes": 0,
        "block_raw": 0,
        "block_stored": 0,
    }
    on_the_fly = Counters()
    post_mortem = Counters()
    programs = workload.layer_programs()
    recorded = probe_programs(programs, workdir, probe, on_the_fly, counts)
    probe_traces(
        recorded + workload.layer_traces(), probe, post_mortem, counts
    )
    total = probe.total
    execute = total("runtime.execute")
    decode = total("binlog.decode")
    if post_mortem_detector:
        detector = post_mortem
        detect = total("probe.post_mortem") - decode
        nocache = total("probe.post_mortem_nocache") - decode
    else:
        detector = on_the_fly
        detect = total("probe.full_run") - execute
        nocache = total("probe.nocache_run") - execute
    metrics = {
        "lang.compile_s": total("lang.compile"),
        "instrument.plan_s": total("instrument.plan"),
        "instrument.trace_sites": counts["instrument.trace_sites"],
        "runtime.compile_s": total("runtime.compile"),
        "runtime.execute_s": execute,
        "runtime.steps": counts["runtime.steps"],
        "runtime.events": counts["runtime.events"],
        "binlog.record_s": total("binlog.record"),
        "binlog.bytes_per_event": counts["stored_bytes"] / counts["records"],
        "binlog.compression_ratio": (
            counts["block_raw"] / counts["block_stored"]
        ),
        "binlog.open_s": total("binlog.open"),
        "binlog.decode_s": decode,
        "detector.detect_s": detect,
        "detector.nocache_s": nocache,
        "detector.owned_filtered": detector.owned_filtered,
        "detector.cache_lookups": detector.cache_lookups,
        "detector.cache_hit_ratio": (
            detector.cache_hits / detector.cache_lookups
            if detector.cache_lookups else 0.0
        ),
        "detector.lock_evictions": detector.lock_evictions,
        "detector.trie_nodes": detector.trie_nodes,
        "detector.races_reported": detector.races_reported,
        "sharded.serial4_s": total("sharded.serial4"),
        "sharded.process2_s": total("sharded.process2"),
        "predict.hybrid_s": total("predict.hybrid"),
    }
    if hasattr(workload, "service_metrics"):
        metrics.update(workload.service_metrics())
    else:
        metrics.update(service_probe(programs, recorded, workdir))

    # Tracing overhead: traced and untraced passes alternate in the window.
    traced_rate = median(window.rates(traced=True))
    metrics["trace.jobs_per_s"] = traced_rate
    metrics["trace.overhead_ratio"] = (
        1.0 - traced_rate / median(window.rates(traced=False))
    )
    return metrics, probe.spans

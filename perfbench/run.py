"""One benchmark run of the race detector, end to end or layer by layer.

    python3 perfbench/run.py --workload onfly-paper --seed 1 --seconds 25 --trace 0

Workloads (see ``perfbench/README.md``):

``onfly-paper``
    MJ source to report in-process, the paper analogs under seeded
    schedules.
``replay-mjbl``
    MJBL file to report through every post-mortem entry point.
``serve-mix``
    HTTP submit to response against a real ``repro serve`` daemon.

A run sets the workload up several times, each from a fresh scratch
directory, and reports the median as ``setup_s``; then it runs whole
passes over the workload's seeded rotation for ``--seconds``, checks
every output, and prints one JSON object as the last line of stdout.
``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics instead: its passes alternate traced and untraced
(the difference prices the spans), a probe runs the Table 2 ablations,
and the spans are written to ``.perfbench_out/``.

Exit status 0 means a result was printed; anything else means the run
could not measure (no result line).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

import core

#: name -> unit of the end-to-end metrics.
END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "peak_rss_mb": "MB",
}


def _workloads() -> dict:
    from onfly import OnFlyPaper
    from replay import ReplayMjbl
    from serve import ServeMix

    return {cls.name: cls for cls in (OnFlyPaper, ReplayMjbl, ServeMix)}


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=_workloads())
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _set_up(cls, seed: int, run_dir: Path):
    """Set the workload up ``cls.setup_repeats`` times, each in a fresh
    directory; keep the last set-up and return it with the median time."""
    seconds = []
    kept = None
    for repeat in range(cls.setup_repeats):
        workdir = run_dir / f"setup{repeat}"
        workdir.mkdir()
        candidate = cls(seed)
        try:
            started = time.perf_counter()
            candidate.setup(workdir)
            seconds.append(time.perf_counter() - started)
        except BaseException:
            candidate.close()
            raise
        if repeat + 1 < cls.setup_repeats:
            candidate.close()
            shutil.rmtree(workdir)
        else:
            kept = candidate
    return kept, core.median(seconds)


def _end_to_end(workload, window, setup_seconds: float) -> tuple[dict, dict]:
    """Throughput is the median over the window's passes (each pass is the
    same rotation, so the median pass shrugs off a burst of load on the
    machine); the latency quantiles are over every job of the window."""
    latencies = [job.seconds for job in workload.jobs if job.error is None]
    metrics = {
        "setup_s": setup_seconds,
        "jobs_per_s": core.median(window.rates()),
        "job_p50_s": core.median(latencies),
        "job_p90_s": core.p90(latencies),
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    samples = {
        "window_s": window.seconds,
        "passes": len(window.passes),
        "job_samples": len(latencies),
        "jobs_beyond_p90": sum(
            latency > metrics["job_p90_s"] for latency in latencies
        ),
    }
    return metrics, samples


def main(argv=None) -> int:
    args = _parse(argv)
    core.import_program()
    cls = _workloads()[args.workload]

    core.TMP_ROOT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=core.TMP_ROOT))
    # Every temporary file of the run, ours or the program's, stays in
    # the checkout.
    os.environ["TMPDIR"] = str(run_dir)
    tempfile.tempdir = str(run_dir)
    workload = None
    try:
        workload, setup_seconds = _set_up(cls, args.seed, run_dir)
        workload.warm_up()
        tracer = core.Tracer(enabled=bool(args.trace))
        window = core.run_window(workload, args.seconds, tracer)
        run_ok = workload.check()
        attempted = len(workload.jobs)
        failed = sum(job.failed for job in workload.jobs)
        if args.trace:
            from layers import UNITS, layer_metrics

            probe_dir = run_dir / "probe"
            probe_dir.mkdir()
            values, probe_spans = layer_metrics(
                workload, window, probe_dir,
                post_mortem_detector=args.workload == "replay-mjbl",
            )
            units = UNITS
            samples = {"window_s": window.seconds,
                       "passes": len(window.passes)}
            spans_path = (
                core.OUT_ROOT / f"spans-{args.workload}-seed{args.seed}.json"
            )
            core.OUT_ROOT.mkdir(exist_ok=True)
            spans_path.write_text(json.dumps(
                {"window": tracer.spans, "probe": probe_spans}
            ) + "\n")
        else:
            values, samples = _end_to_end(workload, window, setup_seconds)
            units = END_TO_END_UNITS
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(run_dir, ignore_errors=True)

    print(json.dumps({
        "provenance": core.provenance(
            args.workload, args.seed, attempted, failed
        ),
        "samples": samples,
    }))
    print(json.dumps({
        "correct": bool(run_ok),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

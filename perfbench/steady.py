"""Steadiness check: run one workload k times and report the spread.

    python3 perfbench/steady.py --workload serve-mix --runs 10 --first-seed 1

Each run is ``run.py`` with its own seed (``--first-seed``,
``--first-seed + 1``, ...).  For every end-to-end metric the command
prints the median, the quartiles (``statistics.quantiles(n=4)``), and the
spread ``(q3 - q1) / median`` against the metric's bound in
``BENCHMARK.json``.  A spread above a third of the bound marks the
metric unsteady; a spread above the bound means a change to it cannot
be resolved.

``--out FILE`` keeps the raw results; ``--baseline FILE`` compares this
set's medians with an earlier set's and calls each metric ``unchanged``,
``better``, ``worse`` (beyond its bound), or ``unresolved`` when either
set spreads wider than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"run.py --seed {seed} exited {proc.returncode}:\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results: list[dict], metrics: list[dict]) -> dict:
    summary = {}
    for metric in metrics:
        values = [result["metrics"][metric["name"]]["value"]
                  for result in results]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        summary[metric["name"]] = {
            "median": q2,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / q2,
            "bound": metric["bound"],
            "better": metric["better"],
        }
    return summary


def compare(base: dict, new: dict) -> dict:
    """Verdict per metric: the change of the median, in the worse
    direction as a share of the baseline median."""
    verdicts = {}
    for name, now in new.items():
        then = base[name]
        change = (now["median"] - then["median"]) / then["median"]
        worse = change if now["better"] == "lower" else -change
        if max(now["spread"], then["spread"]) > now["bound"]:
            verdict = "unresolved"
        elif worse > now["bound"]:
            verdict = "worse"
        elif -worse > max(now["spread"], then["spread"]):
            verdict = "better"
        else:
            verdict = "unchanged"
        verdicts[name] = {"worse_by": worse, "verdict": verdict}
    return verdicts


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--baseline", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.runs < 4:
        parser.error("--runs must be at least 4 to have quartiles")

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result = run_once(args.workload, seed, args.seconds, 0)
        results.append(result)
        print(f"seed {seed}: attempted {result['attempted']} failed "
              f"{result['failed']} correct {result['correct']}", flush=True)
    summary = summarize(results, spec["end_to_end"])
    shares = {result["failed"] / result["attempted"] for result in results}
    print(f"failed share per run: {sorted(shares)}")
    print(f"{'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}{'bound':>8}  steady")
    for name, row in summary.items():
        steady = (
            "yes" if row["spread"] <= row["bound"] / 3
            else "within bound" if row["spread"] <= row["bound"]
            else "NO"
        )
        print(f"{name:<14}{row['median']:>12.5g}{row['q1']:>12.5g}"
              f"{row['q3']:>12.5g}{row['spread']:>9.3f}{row['bound']:>8}"
              f"  {steady}")
    if args.out is not None:
        args.out.write_text(json.dumps(
            {"workload": args.workload, "results": results,
             "summary": summary}, indent=1) + "\n")
    if args.baseline is not None:
        base = json.loads(args.baseline.read_text())["summary"]
        for name, row in compare(base, summary).items():
            print(f"{name:<14} worse by {row['worse_by']:+.3f}: "
                  f"{row['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
